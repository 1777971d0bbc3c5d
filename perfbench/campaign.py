"""``campaign-cold`` and ``campaign-replay``: sequential fresh-process
``repro-noise --quick --cache-dir C run all --output O`` invocations.

cold:   every invocation gets a new empty cache dir, as a user's first
        ``run all`` does (generation, kernel compile, every solve,
        cache writes).
replay: every invocation replays one cache dir that an untimed
        invocation of the same code populated (no solve; start-up,
        generation and cache reads dominate).

Each invocation's exports are checked against the recorded quick-tier
references (``refs/``): a file that is missing or differs beyond the
kernel tolerance is one failed operation, and a non-zero exit fails all
of its files.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
from program import BenchError, Exit, Program
from stats import json_close, median, metric, text_close

REFS_DIR = Path(__file__).resolve().with_name("refs")
REFS = REFS_DIR / "campaign_quick.json.gz"
DIGESTS = REFS_DIR / "campaign_quick.sha256"

#: Timed invocations per run, at least (two of each kind when traced).
MIN_INVOCATIONS = 3


def run_all_args(cache_dir: Path, out_dir: Path) -> list[str]:
    return ["--quick", "--cache-dir", str(cache_dir), "run", "all",
            "--output", str(out_dir)]


def load_references() -> tuple[dict[str, str], dict[str, str]]:
    """(file name → reference text, file name → sha256) of the quick
    ``run all`` exports checked for correctness: every experiment's
    ``.json`` and ``.txt`` plus ``index.json`` (``telemetry.json`` holds
    timings and is not compared)."""
    with gzip.open(REFS, "rt", encoding="utf-8") as handle:
        texts = json.load(handle)
    digests = {}
    for line in DIGESTS.read_text().splitlines():
        digest, name = line.split()
        digests[name] = digest
    if set(texts) != set(digests):
        raise BenchError("reference texts and digests name different files")
    return texts, digests


def check_exports(out_dir: Path, texts: dict, digests: dict) -> list[str]:
    """Names of the reference files that *out_dir* lacks or that differ
    from the reference beyond the kernel tolerance."""
    failed = []
    for name, reference in texts.items():
        try:
            data = (out_dir / name).read_bytes()
        except OSError:
            failed.append(name)
            continue
        if hashlib.sha256(data).hexdigest() == digests[name]:
            continue
        try:
            text = data.decode("utf-8")
            close = (
                json_close(json.loads(text), json.loads(reference))
                if name.endswith(".json")
                else text_close(text, reference)
            )
        except ValueError:
            close = False
        if not close:
            failed.append(name)
    return failed


@dataclass
class Invocation:
    exit: Exit
    traced: bool
    failed: list[str]
    export_bytes: int
    counters: dict


def invoke(program: Program, cache_dir: Path, out_dir: Path, traced: bool,
           refs: tuple[dict, dict]) -> Invocation:
    """One fresh-process ``run all`` plus its correctness check."""
    child, done = program.run(run_all_args(cache_dir, out_dir), traced)
    texts, digests = refs
    failed = (
        list(texts) if done.status != 0
        else check_exports(out_dir, texts, digests)
    )
    if done.status != 0:
        print(f"campaign invocation exited {done.status}:\n"
              f"{child.log_tail()}", file=sys.stderr)
    elif failed:
        print(f"exports differ from the references: {failed}",
              file=sys.stderr)
    export_bytes = sum(
        path.stat().st_size for path in out_dir.glob("*") if path.is_file()
    )
    try:
        telemetry = json.loads((out_dir / "telemetry.json").read_text())
        counters = telemetry.get("counters", {})
    except (OSError, ValueError):
        counters = {}
    return Invocation(done, traced, failed, export_bytes, counters)


def run(program: Program, replay: bool, seconds: float, trace: bool) -> dict:
    """Run one campaign workload; returns the benchmark result parts."""
    refs = load_references()
    work = program.work
    shared_cache = work / "cache"

    # Untimed warm-up (bytecode, page cache).  For replay it is the
    # invocation that fills the cache every timed invocation replays;
    # for cold, ``list`` imports the same modules at a seventh of the
    # cost, which leaves more of the run to timed invocations.
    if replay:
        warm = invoke(program, shared_cache, work / "warm-out", False, refs)
        status = warm.exit.status if not warm.failed else 1
    else:
        child, done = program.run(["--quick", "list"])
        status = done.status
    if status != 0:
        raise BenchError("the warm-up invocation failed")

    timed: list[Invocation] = []
    started = time.monotonic()
    while True:
        index = len(timed)
        cache = shared_cache if replay else work / f"cache-{index}"
        out = work / f"out-{index}"
        # Traced and untraced invocations alternate as ABBA, so a drift
        # of the host's speed within the run cancels in the overhead.
        traced = trace and index % 4 in (0, 3)
        timed.append(invoke(program, cache, out, traced, refs))
        shutil.rmtree(out, ignore_errors=True)
        if not replay:
            shutil.rmtree(cache, ignore_errors=True)
        elapsed = time.monotonic() - started
        enough = len(timed) >= (4 if trace else MIN_INVOCATIONS)
        if enough and elapsed + 0.5 * timed[-1].exit.wall_s >= seconds:
            break

    attempted = len(timed) * len(refs[0])
    failed = sum(len(inv.failed) for inv in timed)
    plain = [inv for inv in timed if not inv.traced]
    info = {
        "invocations": len(timed),
        "wall_s": [round(inv.exit.wall_s, 4) for inv in timed],
    }
    if not trace:
        metrics = {
            "setup_s": metric(median(i.exit.setup_s for i in plain), "s"),
            "wall_s": metric(median(i.exit.wall_s for i in plain), "s"),
            "peak_rss_mb": metric(
                median(i.exit.peak_rss_mb for i in plain), "MB"
            ),
        }
        return {"metrics": metrics, "attempted": attempted,
                "failed": failed, "info": info}

    traced = [inv for inv in timed if inv.traced]
    per_run = []
    for inv in traced:
        values = layers.span_layers(inv.exit.spans)
        values.update(layers.engine_counters(inv.counters))
        values["startup.import_s"] = inv.exit.import_s
        values["export.bytes"] = inv.export_bytes
        per_run.append(values)
    metrics = {}
    for name, unit, _ in layers.PER_LAYER:
        samples = [values[name] for values in per_run if name in values]
        metrics[name] = metric(median(samples) if samples else 0, unit)
    overhead = (
        median(i.exit.wall_s for i in traced)
        / median(i.exit.wall_s for i in plain) - 1.0
    ) * 100.0
    metrics["trace.overhead_pct"] = metric(overhead, "%")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "info": info}
