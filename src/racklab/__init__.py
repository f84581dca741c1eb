"""racklab: finite groups, conjugation racks, subrack lattices, exact
homology of their order complexes, and a verification suite for the
structural facts the library is built around.  Import each name from its
module, as in `from racklab.lattice import enumerate_subracks`."""
