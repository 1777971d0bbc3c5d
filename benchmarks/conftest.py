"""Benchmark harness: the solver oracles.

``bench_solvers.py`` checks the compiled kernel against per-edge
superposition and MNA (DESIGN.md §3, A6).  The paper's tables and
figures are checked by the tier-1 reproduction contract
(``tests/contract``), and so are the ablation studies A1-A5, A7 and
A8 (``tests/contract/test_ablations.py``).

Run with::

    pytest benchmarks/ --benchmark-only          # timed
    pytest benchmarks/ -q --benchmark-disable    # asserts only
"""
