"""``repro.faults`` — deterministic fault injection for the engine.

The paper's measurement methodology treats failure as a first-class
outcome (the Vmin protocol undervolts *until* the R-Unit reports the
first error and the system reboots), and near-margin stress campaigns
expect worker crashes as the normal case.  This package is the test
substrate that lets the execution layer prove it survives all of that:

* :class:`FaultPlan` — a seeded, content-keyed schedule of injected
  faults (worker crashes, hangs, exceptions, corrupted disk-cache
  payloads, host interruption).  Decisions depend only on
  ``(seed, run key)``, never on execution order, so an injected
  campaign is exactly reproducible across backends and processes.
* :class:`FaultyExecutor` — wraps any engine executor and applies the
  plan to every mapped call.
* :func:`corrupt_cache_entries` — tears disk-cache payloads the way an
  interrupted process without atomic writes would have.

Set ``$REPRO_FAULTS`` (e.g. ``crash=0.2,exception=0.1,seed=7``) to run
any session-driven workload — including the whole engine test suite,
as CI does — under injection.
"""

from .harness import (
    FaultyExecutor,
    InjectedCrash,
    InjectedFault,
    corrupt_cache_entries,
    reset_fault_memo,
)
from .plan import HOST_KINDS, FaultPlan

__all__ = [
    "FaultPlan",
    "HOST_KINDS",
    "FaultyExecutor",
    "InjectedFault",
    "InjectedCrash",
    "corrupt_cache_entries",
    "reset_fault_memo",
]
