from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from racklab import catalog, cli, groups, lattice, partitions, racks, verify
from racklab.groups import (
    GroupSpecError,
    build_group,
    conjugacy_classes,
    parse_group_spec,
    spec_order,
)
from racklab.verify import VerifyConfig, check_lattice_bruteforce

DATA = Path(__file__).with_name("data")


def test_lattice_bruteforce_fails_on_a_broken_spec(monkeypatch):
    monkeypatch.setattr(verify, "BRUTEFORCE_RACKS", ("S3", "Zoo"))
    with pytest.raises(GroupSpecError):
        check_lattice_bruteforce(VerifyConfig())


def test_euler_check_fails_when_the_betti_numbers_miss_the_euler_characteristic(monkeypatch):
    real = verify.reduced_homology

    def one_betti_too_many(K, collapse=True):
        H = real(K, collapse)
        betti = dict(H.betti)
        d = min(betti, default=0)
        betti[d] = betti.get(d, 0) + 1
        return dataclasses.replace(H, betti=betti)

    monkeypatch.setattr(verify, "reduced_homology", one_betti_too_many)
    res = verify.check_homology_consistency(VerifyConfig())
    assert res.status == "fail"
    assert res.computed
    assert all(not c["euler_consistent"] for c in res.computed.values())


def test_collapse_check_fails_when_the_whole_complex_has_other_betti_numbers(monkeypatch):
    real = verify.reduced_homology

    def one_more_betti_uncollapsed(K, collapse=True):
        H = real(K, collapse)
        if collapse:
            return H
        betti = dict(H.betti)
        d = min(betti, default=0)
        betti[d] = betti.get(d, 0) + 1
        return dataclasses.replace(H, betti=betti)

    monkeypatch.setattr(verify, "reduced_homology", one_more_betti_uncollapsed)
    res = verify.check_homology_consistency(VerifyConfig())
    assert res.status == "fail"
    assert res.computed
    assert all(not c["collapse_invariant"] for c in res.computed.values())


def test_every_bruteforce_rack_fits_the_subset_scan():
    # the check scans all 2^size subsets and skips no rack, so its
    # description's bound must hold for every spec it lists
    assert all(racks.rack_from_spec(spec).size <= 14 for spec in verify.BRUTEFORCE_RACKS)


def test_run_checks_rejects_unknown_ids():
    with pytest.raises(verify.UnknownCheckError):
        verify.run_checks(["nope"])


def test_every_check_is_its_public_module_function():
    for cid, fn in verify.CHECKS.items():
        assert getattr(verify, "check_" + cid.replace("-", "_")) is fn
        assert fn.__module__ == "racklab.verify"
    assert len(verify.CHECKS) == 17


def test_central_catalog_is_the_catalog_groups_with_nontrivial_center():
    central = [
        s for s in catalog.CATALOG
        if conjugacy_classes(build_group(s)).center.bit_count() > 1
    ]
    assert sorted(catalog.CENTRAL_CATALOG) == sorted(central)


ABELIAN_16 = ("Z16", "Z8xZ2", "Z4xZ4", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2")


def _counted_oracle(monkeypatch, fail_trivial_16=False):
    """Replace verify's oracle by a wrapper that records each group it runs
    on; with `fail_trivial_16`, the trivial 16-element rack reads not ok
    without its 65,536-node walk."""
    oracle, calls = verify.product_decomposition_check, []

    def counting(rack, center, *args, **kwargs):
        calls.append(rack.provenance)
        if fail_trivial_16 and center == (1 << 16) - 1:
            return lattice.ProductDecompositionReport(False, 0, 1, 16, "forced")
        return oracle(rack, center, *args, **kwargs)

    monkeypatch.setattr(verify, "product_decomposition_check", counting)
    return calls


def test_product_decomposition_walks_each_distinct_rack_once(monkeypatch):
    calls = _counted_oracle(monkeypatch)
    res = verify.CHECKS["product-decomposition"](VerifyConfig())
    assert res.status == "pass"
    assert len(calls) == len(set(calls)) == 25
    assert list(res.computed) == list(catalog.CENTRAL_CATALOG) == list(res.expected)
    assert [s for s in ABELIAN_16 if s in calls] == ["Z16"]


def test_a_shared_verdict_fails_every_spec_with_its_key(monkeypatch):
    _counted_oracle(monkeypatch, fail_trivial_16=True)
    res = verify.CHECKS["product-decomposition"](VerifyConfig())
    assert res.status == "fail"
    assert [s for s, good in res.computed.items() if not good] == list(ABELIAN_16)


@pytest.mark.parametrize(
    "specs",
    [("Z4", "Z2xZ2"), ("Z8", "Z4xZ2", "Z2xZ2xZ2"), ("Z9", "Z3xZ3"), ("Z12", "Z6xZ2"),
     ("D8", "Q8"), ("D8xZ2", "Q8xZ2")],
)
def test_specs_that_share_a_key_get_equal_reports(specs):
    keyed = [(racks.conjugation_rack(G), conjugacy_classes(G).center)
             for G in map(build_group, specs)]
    assert len({(rack.op, center) for rack, center in keyed}) == 1
    reports = [lattice.product_decomposition_check(*key) for key in keyed]
    assert reports[0].ok
    assert all(r == reports[0] for r in reports)


def test_each_catalog_group_enumerates_its_subgroups_once(monkeypatch):
    # m-of-g and class-avoidance both read the subgroups off analyze_group
    calls, real = [], groups.all_subgroups

    def counted(G):
        calls.append(G.name)
        return real(G)

    monkeypatch.setattr(catalog, "all_subgroups", counted)
    catalog.analyze_group.cache_clear()
    assert verify.run_checks(["class-avoidance", "m-of-g"])["status"] == "pass"
    assert len(calls) == len(set(calls)) == len(catalog.CATALOG) == 43
    for spec in catalog.CATALOG:
        assert catalog.analyze_group(spec).subgroups == tuple(real(build_group(spec)))


def test_a_check_with_no_instance_in_range_is_skipped():
    res = verify.check_fourcycle_rack(VerifyConfig(max_order=23))
    assert (res.status, res.expected, res.computed) == ("skipped", None, None)
    assert res.skip_reason == "max-order excludes all instances"
    assert verify.check_fourcycle_rack(VerifyConfig(max_order=24)).status == "pass"


@pytest.fixture(scope="module")
def report_max_order_8():
    return verify.run_checks(None, VerifyConfig(max_order=8))


def test_verify_max_order_8_matches_the_golden_report(report_max_order_8):
    # regenerate with: racklab verify --all --max-order 8 > tests/data/verify_max_order_8.json
    golden = (DATA / "verify_max_order_8.json").read_text(encoding="utf-8")
    assert verify.report_to_json(report_max_order_8) == golden


# checks whose expected/computed are not keyed by rack spec
UNKEYED = {
    "partition-iso", "fourcycle-rack", "fivecycle-rack", "kequal-fibers",
    "d8-q8-rack-iso", "closure-laws",
}


def test_max_order_restricts_every_keyed_check(report_max_order_8):
    ran = []
    for check in report_max_order_8["checks"]:
        if check["id"] in UNKEYED or check["status"] == "skipped":
            continue
        ran.append(check["id"])
        for spec in (*check["expected"], *check["computed"]):
            order = spec_order(parse_group_spec(spec.partition(":")[0]))
            assert order <= 8, (check["id"], spec)
    # every keyed check has an instance of order <= 8 except maxsg-chains
    assert len(ran) == 17 - len(UNKEYED) - 1


def test_kequal_fibers_builds_no_group_and_enumerates_a6_once(monkeypatch):
    built, enumerated = [], []
    build, lindig = groups.build_group, lattice._lindig_subracks

    def counting_build(spec, *args, **kwargs):
        G = build(spec, *args, **kwargs)
        built.append(G.name)
        return G

    def counting_lindig(rack, *args):
        enumerated.append(rack.provenance)
        return lindig(rack, *args)

    for module in (catalog, cli, groups, partitions, racks, verify):
        if vars(module).get("build_group") is build:
            monkeypatch.setattr(module, "build_group", counting_build)
    monkeypatch.setattr(lattice, "_lindig_subracks", counting_lindig)
    res = verify.check_kequal_fibers(VerifyConfig())
    assert built == []  # the 3-cycles are listed as permutations
    assert enumerated.count("A6:cycles(3)") == 1
    # recorded with: racklab verify --all > tests/data/verify_all.json
    golden = json.loads((DATA / "verify_all.json").read_text(encoding="utf-8"))
    want = next(c for c in golden["checks"] if c["id"] == "kequal-fibers")
    assert (res.status, res.computed) == (want["status"], want["computed"])
