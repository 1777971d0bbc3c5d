"""Repository benchmark: one workload, from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/NOTES.md``):

* ``campaign-cold``   sequential fresh-process quick ``run all`` into
                      new empty cache dirs;
* ``campaign-replay`` the same command replaying one populated cache;
* ``serve-mixed``     a quick ``serve`` process under a seeded closed
                      loop of hot-set and novel ``simulate`` requests.

Untraced runs report the end-to-end metrics; ``--trace 1`` instead
wraps each layer's public functions in spans and reports per-layer
self time, counters and the tracing overhead.  Before the result the
run prints the code revision, host, libraries, seed and a host-speed
probe; the last line of standard output is the JSON result.  Exit code
0 means a result was printed; it says ``"correct": false`` when any
output failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import campaign
import hostinfo
import layers
import serve_load
from program import BenchError, Program
from stats import check_metrics, error_rate, metric

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

WORKLOADS = {
    "campaign-cold": lambda program, args: campaign.run(
        program, False, args.seconds, args.trace
    ),
    "campaign-replay": lambda program, args: campaign.run(
        program, True, args.seconds, args.trace
    ),
    "serve-mixed": lambda program, args: serve_load.run(
        program, args.seed, args.seconds, args.trace
    ),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    program = Program(ROOT, work)
    try:
        program.compile_sources()
        host = hostinfo.describe(ROOT, program.env, args.seed)
        result = WORKLOADS[args.workload](program, args)
        metrics = result["metrics"]
        check_metrics(metrics)
        expected = layers.UNITS if args.trace else END_TO_END
        if {name: m["unit"] for name, m in metrics.items()} != expected:
            raise BenchError(f"metric set differs from {sorted(expected)}")
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        program.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    header = (f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={int(args.trace)}")
    print("\n".join(report(header, host, result)))
    return 0


def report(header: str, host: dict, result: dict) -> list[str]:
    """The printed result: the header, host and info lines, one line
    per metric with its unit (the result's metrics, the workload's own
    extras, then ``error_rate``), and last the JSON result."""
    attempted, failed = result["attempted"], result["failed"]
    rows = {
        **result["metrics"],
        **result.get("also", {}),
        "error_rate": metric(error_rate(failed, attempted), "ratio"),
    }
    lines = [header, "host " + json.dumps(host),
             "info " + json.dumps(result["info"])]
    for name, record in rows.items():
        value = record["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<26} {shown:>14} {record['unit']}")
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
