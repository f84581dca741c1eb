from __future__ import annotations

import pytest

from racklab import verify
from racklab.groups import GroupSpecError
from racklab.verify import VerifyConfig, check_lattice_bruteforce


def test_lattice_bruteforce_fails_on_a_broken_spec(monkeypatch):
    monkeypatch.setattr(verify, "BRUTEFORCE_RACKS", ("S3", "Zoo"))
    with pytest.raises(GroupSpecError):
        check_lattice_bruteforce(VerifyConfig())


def test_lattice_bruteforce_lists_oversize_racks_as_skipped(monkeypatch):
    monkeypatch.setattr(verify, "BRUTEFORCE_RACKS", ("S3", "S4"))
    res = check_lattice_bruteforce(VerifyConfig())
    assert res.status == "pass"
    assert res.computed["S3"] == {"nodes": 18, "agree": True}
    assert res.computed["S4"]["size"] == 24
    assert "skipped" in res.computed["S4"]
    assert list(res.expected) == ["S3"]


def test_run_checks_rejects_unknown_ids():
    with pytest.raises(verify.UnknownCheckError):
        verify.run_checks(["nope"])
