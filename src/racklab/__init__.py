"""racklab: finite groups, conjugation racks, subrack lattices, exact
homology of their order complexes, and a verification suite for the
structural facts the library is built around."""

from .groups import (
    FiniteGroup,
    GroupSpecError,
    OrderCapExceeded,
    CapExceeded,
    build_group,
    parse_group_spec,
    format_group_spec,
    conjugacy_classes,
    all_subgroups,
    core_and_normalizer,
    group_properties,
    check_class_avoidance,
)
from .racks import (
    Rack,
    RackAxiomError,
    validate_rack,
    is_quandle,
    conjugation_rack,
    rack_from_spec,
    rack_isomorphism,
)
from .lattice import (
    BudgetExceeded,
    SubrackLattice,
    ProductLattice,
    enumerate_subracks,
    atoms,
    coatoms,
    all_maximal_chain_lengths,
    product_statistics,
    closure_bar,
    int_lattice,
    is_boolean,
    compute_M,
    product_decomposition_check,
    export_lattice_lines,
    export_lattice_text,
    load_lattice_export,
)
from .topology import (
    OrderComplex,
    HomologyResult,
    order_complex,
    boundary_matrices,
    rank_and_torsion,
    reduced_homology,
)
from .partitions import (
    SetPartition,
    partition_lattice,
    k_equal_lattice,
    transposition_rack_isomorphism,
    orbit_partition_map,
    quillen_fiber_check,
)

__version__ = "0.1.0"
