"""Child-process entry point: run ``repro-noise`` and report its start-up.

    python3 perfbench/launch.py REPORT TRACE -- <repro-noise arguments>

Imports ``repro.cli`` (from ``$PYTHONPATH``), records when the import
finished on the system-wide monotonic clock, wraps the program's layers
in spans when TRACE is ``1``, then runs the CLI exactly as
``repro-noise`` would.  At exit it writes REPORT (JSON): the import
window and, when traced, every span.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    report_path, trace, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: launch.py REPORT TRACE -- ARGS...")
    import_start = time.monotonic()
    import repro.cli

    imported = time.monotonic()
    tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.install()
    try:
        return repro.cli.main(cli_args)
    finally:
        report = {"import_start": import_start, "imported": imported}
        if tracer is not None:
            report["spans"] = tracer.snapshot()
        with open(report_path, "w") as handle:
            json.dump(report, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
