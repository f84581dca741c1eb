"""The work ledger: counts of the work each stage does, which do not depend
on the machine.

`ledger` is one `collections.Counter` for the process.  The stage that does
the work adds its counts in bulk, once per call, and the Lindig walk once
per walk, so no hot loop pays for it.  No report reads the ledger; the
scripts in `tools/` clear it, run one build, walk, command or check, and read
it.  The counts, by the stage that adds them:

- `lattice._lindig_walk` and `racks.validate_rack`: `closures`, the calls
  of `Rack.closure` by both: the walk's (none when the first closure step
  adds nothing to s + x, which is then the cover), and the validation's,
  one per generator of its greedy generator search;
- `lattice._lindig_walk`, with its `closures`: `stopped_closures` (the
  rejected calls, which stopped early), `first_step_rejects` (the outside
  elements rejected on their first closure step, read off the node's
  packed image, with no call), `nodes` (the nodes of the levels it
  reached) and `covers`, once per walk: for `enumerate_subracks`'s walk of
  L(R - T) and, when T is not empty, for `ProductLattice.expand`'s walk of
  all of R;
- `lattice.product_decomposition_check`: `oracle_walks` and `oracle_nodes`,
  the nodes of the full lattice it checked;
- `groups._table_group`: `direct_products`, the products evaluated one at
  a time, the order squared for every table;
- `groups.FiniteGroup._validate`: `associativity_rows`, the rows of its
  generators that Light's test compares, n per generator;
- `racks.validate_rack`: `distributivity_rows`, the rows of its generators
  that Light's test for racks compares, n per generator;
- `topology.order_complex`: `order_complexes`, the complexes it counted
  within the budget, listing no chain;
- `topology.OrderComplex.simplices`: `simplices_built`, the chains listed on
  the first read of a complex that `order_complex` built;
- `topology.collapse_complex`: `simplices_collapsed` and `core_vertices`,
  what the strong collapse leaves;
- `topology._boundary_ranks`: `unit_pivots` and `nonunit_pivots`, the
  columns of the reduction with a +-1 lowest entry and the deferred ones;
- `verify._run_check`: `instances`, the specs a check runs on.
"""

from collections import Counter

ledger: Counter = Counter()
