"""Reference implementations the test suite checks production code
against; no production entry point imports them.

* :mod:`.mna` — a trapezoidal modified-nodal-analysis transient engine,
  the independent check on the modal solution (the role the paper's
  Cadence/Sigrity PDN simulator played).  It needs scipy, a test
  dependency (``pip install -e .[dev]``).
* :mod:`.superposition` — per-edge linear superposition of the ramp
  responses, the oracle of the compiled chip kernel
  (:mod:`repro.pdn.kernels`).
* :mod:`.pipeline` — a cycle-level pipeline simulator, the oracle of
  the analytic loop-throughput model (:mod:`repro.uarch.throughput`).
"""
