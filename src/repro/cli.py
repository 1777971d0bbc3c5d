"""Command-line interface: ``repro-noise`` (or ``python -m repro``).

Subcommands:

* ``list`` — show the available experiments;
* ``run <id> [...]`` — run experiments and print their rows/series
  (``run all`` runs the whole suite);
* ``plan <id> [...]`` — compile the requested figures into one
  deduplicated campaign plan and report it without running anything:
  runs requested per figure, unique runs after cross-figure dedup
  (Fig. 7a/9 share a frequency sweep, Fig. 11/13a share the ΔI
  dataset), and an estimated cold wall clock when a previous
  campaign's ``telemetry.json`` provides a per-run latency baseline
  (``--telemetry PATH``);
  ``--since MANIFEST`` diffs the plan against a campaign manifest and
  reports only the runs not yet checkpointed as complete;
* ``profile <events.jsonl>`` — render a campaign post-mortem (latency
  percentiles, slowest runs, retry hot spots, span tree) from the
  event log a ``--trace`` campaign wrote; ``--chrome-trace OUT.json``
  additionally exports a Perfetto/``chrome://tracing`` timeline;
  ``--follow`` tails the log of a *live* campaign instead, refreshing
  the summary as events land (torn tail tolerated) until the campaign
  completes or Ctrl-C;
* ``serve`` — start the always-on simulation service: a TCP/JSON-lines
  endpoint that keeps the chip and a warm session pool resident and
  answers simulation requests through a hot in-memory tier, the
  engine's disk cache, and batched execution, with single-flight
  coalescing of identical concurrent requests and bounded-queue
  backpressure (``busy`` replies carry a ``retry_after_s`` hint);
* ``query`` — the matching client: submit simulate requests (optionally
  ``--repeat``/``--concurrency`` for load), or ``--health`` /
  ``--metrics`` / ``--shutdown`` the running server;
* ``fleet <id> [...] --output DIR`` — run a campaign on an elastic
  worker fleet: N workers lease runs from one shared manifest, steal
  the leases of dead workers, and fold their caches into DIR, from
  which the experiments are exported into DIR as ``run`` would;
* ``family`` — chip-family sweeps over declarative
  :mod:`repro.chips` specs: ``family list`` / ``family expand NAME``
  show the named families and their member fingerprints, ``family
  plan NAME ID...`` compiles the per-member campaign report, and
  ``family run NAME ID... --output DIR`` executes the experiments
  across every member, exporting per-member artifacts plus a
  ``family-results.json`` result set (resonance frequency, worst Vmin
  and peak noise vs. core count);
* ``control`` — closed-loop studies on the stepping engine: an
  integral-regulator gain sweep (droop/overshoot/settling vs Ki) or an
  adversarial undervolting attack surface, both post-processing one
  cached baseline solve and both asserting the stepping ≡ monolithic
  bit-identity on every invocation.

Fan-out: ``--jobs N`` (or ``$REPRO_JOBS``) is the one executor knob —
at 1 (the default) runs execute serially, above 1 a session's cache
misses fan out over N worker processes.  Across processes or hosts, a
campaign fans out through ``fleet``.

``--quick`` swaps in the reduced-cost context (shorter EPI loops, fewer
sweep points) for smoke runs.  Every run solves through the chip's
precompiled kernel (:class:`~repro.pdn.kernels.CompiledChipKernel`);
there is no solver switch.  ``--cache-dir DIR`` persists the result
cache across invocations, and
``run --profile`` prints the engine telemetry (run counts, cache
hits/misses, latency histograms, solver calls, per-experiment wall
clock) after the run.

Observability: ``--trace`` records hierarchical spans (campaign →
experiment → session phases) and appends every run lifecycle event
(scheduled, started, retried, failed, cached, completed) to an
incremental JSONL log — ``events.jsonl`` in the campaign directory, or
``--trace-file PATH`` — which stays readable even if the campaign is
killed midway.

Fault tolerance: ``--max-retries`` / ``--run-timeout`` set the engine
retry policy for every session the drivers build; ``--on-failure
collect`` keeps the points of a sweep that solved instead of aborting
on the first permanent failure (dropped points are counted in the
exported results and detailed in the event log).  A multi-experiment
invocation records per-experiment completion in a campaign manifest
(next to ``--output`` or the cache dir), so a killed campaign can be
re-invoked with ``run --resume`` and only the unfinished experiments —
and, thanks to the disk cache's incremental checkpoints, only their
unfinished runs — are recomputed.  ``telemetry.json`` is exported even
when the campaign fails partway.  ``family run`` (once per member)
and ``fleet`` (after the fold) go through ``run``'s experiment loop.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

from .engine.campaign import MANIFEST_NAME, CampaignManifest
from .errors import ExecutionError, ReproError
from .experiments import (
    all_experiments,
    default_context,
    get_experiment,
    quick_context,
)
from .obs import get_telemetry

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-noise",
        description=(
            "Reproduction of 'Voltage Noise in Multi-core Processors' "
            "(MICRO 2014): run the paper's experiments on the simulated "
            "platform."
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced-cost context (smoke runs)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="worker processes for sweep fan-out; 1 runs serially "
        "(default: $REPRO_JOBS, else 1)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="enable the on-disk result-cache tier in DIR (an empty "
        "string selects ~/.cache/repro-noise)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        metavar="N",
        default=None,
        help="re-executions granted to a failing run before it is "
        "reported as a permanent failure (default: $REPRO_MAX_RETRIES "
        "or 2)",
    )
    parser.add_argument(
        "--run-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="per-run wall-clock budget; a run exceeding it fails and "
        "is retried (default: $REPRO_RUN_TIMEOUT or unlimited)",
    )
    parser.add_argument(
        "--on-failure",
        choices=("raise", "collect"),
        default=None,
        help="what a permanently failed run does to its sweep: abort "
        "it ('raise', the default) or drop the point and keep the "
        "rest ('collect'); dropped points are marked in the exported "
        "results and detailed in the event log",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record spans and run lifecycle events to an incremental "
        "JSONL log (events.jsonl in the campaign directory; see "
        "--trace-file); inspect it with 'repro-noise profile'",
    )
    parser.add_argument(
        "--trace-file",
        metavar="FILE",
        default=None,
        help="where --trace writes the event log (implies --trace)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    plan = sub.add_parser(
        "plan",
        help="compile a campaign plan and report it (dry run: dedup "
        "savings, wall-clock estimate)",
    )
    plan.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids to plan (e.g. fig7a fig9), or 'all'",
    )
    plan.add_argument(
        "--telemetry",
        metavar="JSON",
        default=None,
        help="telemetry.json of a previous campaign, used as the "
        "per-run latency baseline for the wall-clock estimate "
        "(default: telemetry.json in the cache dir, if any)",
    )
    plan.add_argument(
        "--since",
        metavar="MANIFEST",
        default=None,
        help="diff the plan against a campaign manifest (a "
        "campaign-manifest.json or the directory holding one) and "
        "list only the runs not yet checkpointed as complete",
    )
    plan.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=None,
        help="scale the wall-clock estimate to an N-worker fleet "
        "(default: auto-detect from the live-status.json next to "
        "--since, else 1)",
    )
    profile = sub.add_parser(
        "profile",
        help="render a campaign post-mortem from a --trace event log",
    )
    profile.add_argument(
        "events",
        metavar="EVENTS_JSONL",
        help="the events.jsonl a --trace campaign wrote",
    )
    profile.add_argument(
        "--chrome-trace",
        metavar="OUT_JSON",
        default=None,
        help="also export a Chrome trace-event (Perfetto) timeline",
    )
    profile.add_argument(
        "--top",
        type=int,
        metavar="N",
        default=5,
        help="how many slowest runs / retry hot spots to list",
    )
    profile.add_argument(
        "--follow",
        action="store_true",
        help="tail a live campaign's event log, refreshing the "
        "summary as events arrive (waits for the file to appear; "
        "stops when the campaign completes or on Ctrl-C)",
    )
    profile.add_argument(
        "--interval",
        type=float,
        metavar="SECONDS",
        default=2.0,
        help="poll interval for --follow (default: 2.0)",
    )
    top = sub.add_parser(
        "top",
        help="live terminal dashboard over the metrics plane: tail a "
        "fleet campaign's live-status.json and/or a serve endpoint's "
        "metrics, refreshed in place",
    )
    top.add_argument(
        "--campaign",
        metavar="DIR",
        default=None,
        help="fleet campaign directory to tail (its live-status.json)",
    )
    top.add_argument(
        "--serve",
        metavar="HOST:PORT",
        default=None,
        help="running 'repro-noise serve' endpoint to poll for "
        "metrics (tiers, latency percentiles, SLO burn)",
    )
    top.add_argument(
        "--interval",
        type=float,
        metavar="SECONDS",
        default=2.0,
        help="refresh period (default: 2.0)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no screen clearing)",
    )
    serve = sub.add_parser(
        "serve",
        help="start the always-on simulation service (TCP/JSON-lines: "
        "hot tier + result cache + warm session pool, with request "
        "coalescing and backpressure)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=4650,
        help="bind port; 0 picks an ephemeral port, printed on start "
        "(default: 4650)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        metavar="N",
        default=32,
        help="admission-queue bound; requests beyond it get a busy "
        "reply with a retry_after_s hint (default: 32)",
    )
    serve.add_argument(
        "--hot-entries",
        type=int,
        metavar="N",
        default=256,
        help="hot-tier LRU capacity, in encoded replies (default: 256)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        metavar="N",
        default=8,
        help="queued requests drained into one engine batch "
        "(default: 8)",
    )
    serve.add_argument(
        "--metrics-window",
        type=float,
        metavar="SECONDS",
        default=5.0,
        help="windowed-telemetry tick period driving rolling rates, "
        "percentiles and SLO burn; 0 disables the ticker "
        "(default: 5.0)",
    )
    serve.add_argument(
        "--slo",
        metavar="JSON",
        default=None,
        help="SLO policy file evaluated each metrics window "
        "(default: built-in per-tier latency + error-rate SLOs)",
    )
    serve.add_argument(
        "--http-metrics",
        type=int,
        metavar="PORT",
        default=None,
        help="also expose Prometheus text metrics over plain HTTP on "
        "this port (GET /metrics; 0 picks an ephemeral port, printed "
        "on start; default: off)",
    )
    serve.add_argument(
        "--chips",
        metavar="FAMILY[,MEMBER,...]",
        default=None,
        help="additionally host these chip identities: a family name "
        "('quick' hosts every member) and/or comma-separated member "
        "names ('cores/cores8'); requests select one with their "
        "'chip' field ('query --chip'), requests without it hit the "
        "default chip exactly as before (default: default chip only)",
    )
    serve.add_argument(
        "--max-resident-chips",
        type=int,
        metavar="N",
        default=2,
        help="non-default chips kept built at once; building one more "
        "evicts the least-recently-used cold chip (its hot tier "
        "survives; default: 2)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        metavar="N",
        default=8,
        help="stateful control sessions (session.open) kept open at "
        "once; each pins a solved stimulus in memory, extra opens get "
        "a busy reply (default: 8)",
    )
    serve.add_argument(
        "--session-ttl",
        type=float,
        metavar="SECONDS",
        default=900.0,
        help="idle lifetime of an open control session before it is "
        "pruned (default: 900)",
    )
    control = sub.add_parser(
        "control",
        help="closed-loop control studies on the stepping engine: "
        "integral-regulator gain sweeps and adversarial undervolting "
        "attack surfaces (every invocation re-checks stepping ≡ "
        "monolithic bit-identity)",
    )
    control.add_argument(
        "study",
        choices=("gain-sweep", "attack"),
        help="'gain-sweep' regulates the worst-case mapping with the "
        "integral power controller across --gains; 'attack' searches "
        "(depth × duration × alignment) for R-Unit Vmin violations",
    )
    control.add_argument(
        "--gains",
        metavar="G1,G2,...",
        default=None,
        help="integral gains to sweep (default: "
        "0.02,0.05,0.1,0.2,0.5,1.0)",
    )
    control.add_argument(
        "--setpoint",
        type=float,
        metavar="FRAC",
        default=0.85,
        help="power setpoint of the integral regulator, as a fraction "
        "of nominal full-load power (default: 0.85)",
    )
    control.add_argument(
        "--depths",
        metavar="D1,D2,...",
        default=None,
        help="undervolt depths in 0.5%% steps for the attack grid "
        "(default: 5,10,15,20,25,30)",
    )
    control.add_argument(
        "--durations",
        metavar="W1,W2,...",
        default=None,
        help="attack pulse durations in windows (default: 1,2,4)",
    )
    control.add_argument(
        "--windows",
        type=int,
        metavar="N",
        default=8,
        help="stepping windows per observation segment (default: 8)",
    )
    control.add_argument(
        "--json",
        action="store_true",
        help="emit the full study data as JSON instead of a table",
    )
    query = sub.add_parser(
        "query",
        help="query a running simulation service (simulate / health / "
        "metrics / shutdown)",
    )
    query.add_argument("--host", default="127.0.0.1",
                       help="server address (default: 127.0.0.1)")
    query.add_argument("--port", type=int, default=4650,
                       help="server port (default: 4650)")
    query.add_argument("--health", action="store_true",
                       help="print the server's health reply and exit")
    query.add_argument("--metrics", action="store_true",
                       help="print the server's metrics reply and exit")
    query.add_argument("--metrics-text", action="store_true",
                       help="print the server's Prometheus text "
                       "exposition and exit")
    query.add_argument("--shutdown", action="store_true",
                       help="ask the server to stop and exit")
    query.add_argument("--i-low", type=float, default=5.0, metavar="A",
                       help="per-core low current (default: 5.0)")
    query.add_argument("--i-high", type=float, default=25.0, metavar="A",
                       help="per-core high current (default: 25.0)")
    query.add_argument("--freq", type=float, default=90e6, metavar="HZ",
                       help="stimulus frequency (default: 90e6)")
    query.add_argument("--cores", type=int, default=1, metavar="N",
                       help="cores running the program (default: 1)")
    query.add_argument("--chip", metavar="NAME", default=None,
                       help="chip identity to simulate on, when the "
                       "server hosts several (--chips): a spec name, "
                       "family member label or fingerprint digest "
                       "(default: the server's default chip)")
    query.add_argument("--tag", default=None,
                       help="request tag (part of the run fingerprint)")
    query.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="submit the request N times (default: 1)")
    query.add_argument(
        "--concurrency", type=int, default=1, metavar="K",
        help="client connections submitting in parallel (default: 1)",
    )
    query.add_argument(
        "--distinct", type=int, default=1, metavar="D",
        help="spread --repeat over D distinct request variants "
        "(default: 1 — all identical, exercising coalescing)",
    )
    query.add_argument(
        "--retry-busy", type=int, default=0, metavar="N",
        help="re-submit up to N times after a busy reply, honouring "
        "the server's retry_after_s hint (default: 0)",
    )
    query.add_argument("--json", action="store_true",
                       help="print raw JSON replies instead of a summary")
    fleet = sub.add_parser(
        "fleet",
        help="run a campaign on an elastic worker fleet: N workers "
        "claim runs under heartbeat-renewed leases from one shared "
        "manifest, steal expired leases from dead workers, and fold "
        "their caches at the end",
    )
    fleet.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids to campaign over (e.g. fig7a fig9), or 'all'",
    )
    fleet.add_argument(
        "--output",
        metavar="DIR",
        required=True,
        help="campaign directory: shared claim manifest, per-worker "
        "state under workers/, and the folded cache + event log",
    )
    fleet.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="fleet size (default: 4)",
    )
    fleet.add_argument(
        "--batch", type=int, default=4, metavar="N",
        help="runs claimed per batch (default: 4)",
    )
    fleet.add_argument(
        "--lease", type=float, default=20.0, metavar="SECONDS",
        help="claim lease duration; a lease not renewed within it is "
        "stolen by a surviving worker (default: 20)",
    )
    fleet.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="lease renewal period (default: lease/4)",
    )
    fleet.add_argument(
        "--poison-after", type=int, default=3, metavar="K",
        help="bench a run after its lease expired under K distinct "
        "workers (default: 3)",
    )
    fleet.add_argument(
        "--respawn", type=int, default=8, metavar="N",
        help="total crashed-worker respawns granted (default: 8)",
    )
    fleet.add_argument(
        "--fleet-timeout", type=float, default=None, metavar="SECONDS",
        help="hard wall-clock ceiling; workers are drained and the "
        "partial state folded (default: unlimited)",
    )
    fleet.add_argument(
        "--serve", metavar="HOST:PORT", default=None,
        help="probe a running 'repro-noise serve' endpoint's cache "
        "tier before executing each claimed run",
    )
    fleet.add_argument(
        "--ssh-template", metavar="TEMPLATE", default=None,
        help="remote transport: wrap each worker command through this "
        "template, e.g. 'ssh {host} {command}' ({command} is the "
        "shell-quoted local invocation; default: local subprocesses)",
    )
    fleet.add_argument(
        "--hosts", metavar="H1,H2,...", default=None,
        help="comma-separated hosts workers round-robin over "
        "(requires --ssh-template)",
    )
    fleet.add_argument(
        "--slurm-template", metavar="TEMPLATE", default=None,
        help="cluster transport: launch each worker through this "
        "foreground scheduler command, e.g. 'srun --ntasks=1 "
        "--job-name={job} {command}' ({command} is the shell-quoted "
        "worker invocation, {job} a per-worker job name; mutually "
        "exclusive with --ssh-template; default: local subprocesses)",
    )
    fleet.add_argument(
        "--profile",
        action="store_true",
        help="print the fleet-merged engine telemetry after the fold",
    )
    worker = sub.add_parser(
        "fleet-worker",
        help="(internal) one fleet worker process; spawned by "
        "'fleet', not meant to be invoked by hand",
    )
    worker.add_argument("experiments", nargs="+")
    worker.add_argument("--campaign-dir", required=True, metavar="DIR",
                        help="shared campaign directory (claim manifest)")
    worker.add_argument("--worker-id", required=True, metavar="ID")
    worker.add_argument("--workdir", required=True, metavar="DIR",
                        help="private directory (cache, manifest, events)")
    worker.add_argument("--batch", type=int, default=4)
    worker.add_argument("--lease", type=float, default=20.0)
    worker.add_argument("--heartbeat", type=float, default=None)
    worker.add_argument("--poison-after", type=int, default=3)
    worker.add_argument("--serve", metavar="HOST:PORT", default=None)
    worker.add_argument("--flush-s", type=float, default=2.0,
                        metavar="SECONDS",
                        help="live-telemetry sidecar flush period; "
                        "0 disables the sidecar (default: 2.0)")
    family = sub.add_parser(
        "family",
        help="chip-family sweeps: list the named families, expand one "
        "into its member specs, or run experiments across every "
        "member (per-member exports plus a family-indexed result set)",
    )
    family.add_argument(
        "action",
        choices=("list", "expand", "plan", "run"),
        help="'list' the named families; 'expand' one into member "
        "specs and fingerprints; 'plan' a per-member campaign report "
        "(dry run); 'run' experiments across every member",
    )
    family.add_argument(
        "name",
        nargs="?",
        default=None,
        metavar="FAMILY",
        help="family name (see 'family list'); required for every "
        "action but 'list'",
    )
    family.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment ids to run across the family (e.g. fig7a "
        "fig11a), or 'all'; required for 'plan' and 'run'",
    )
    family.add_argument(
        "--members",
        metavar="M1,M2,...",
        default=None,
        help="restrict to these members (labels like 'cores4' or full "
        "names; default: the whole family)",
    )
    family.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="export per-member artifacts into DIR/<member>/ (the "
        "exact files a standalone run over that chip exports) plus a "
        "family-results.json index: per member, the resonance "
        "frequency, worst Vmin and peak noise vs. core count",
    )
    family.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON ('expand' and 'plan')",
    )
    family.add_argument(
        "--profile",
        action="store_true",
        help="print engine telemetry after the family run",
    )
    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (e.g. table1 fig7a), or 'all'",
    )
    run.add_argument(
        "--output",
        metavar="DIR",
        default=None,
        help="also export text+JSON artifacts per experiment into DIR",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments the campaign manifest (in --output or "
        "--cache-dir) records as finished; combined with the disk "
        "cache, only unfinished runs are recomputed",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="print engine telemetry (runs, cache hits, wall clock) "
        "after the run",
    )
    return parser


def _configure_engine(args: argparse.Namespace) -> None:
    """Point the engine defaults at the CLI's choices.

    Sessions read ``$REPRO_JOBS`` at construction time, so the job
    count is resolved once here — a bad ``--jobs`` or ``$REPRO_JOBS``
    raises :class:`~repro.errors.ConfigError` before anything runs —
    and exported for every session the experiment drivers build (and
    for their worker processes).
    """
    from .engine import configure_cache, resolve_jobs

    args.jobs = resolve_jobs(args.jobs)
    os.environ["REPRO_JOBS"] = str(args.jobs)
    if args.max_retries is not None:
        os.environ["REPRO_MAX_RETRIES"] = str(args.max_retries)
    if args.run_timeout is not None:
        os.environ["REPRO_RUN_TIMEOUT"] = str(args.run_timeout)
    if args.on_failure is not None:
        os.environ["REPRO_ON_FAILURE"] = args.on_failure
    if args.cache_dir is not None:
        from .engine.cache import default_cache_dir

        configure_cache(cache_dir=args.cache_dir or default_cache_dir())


def _campaign_dir(args: argparse.Namespace) -> Path | None:
    """Where this campaign keeps durable state (manifest): the export
    directory when given, else the disk-cache directory."""
    if getattr(args, "output", None):
        return Path(args.output)
    if args.cache_dir is not None:
        from .engine.cache import default_cache_dir

        return Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    return None


def _follow_profile(args: argparse.Namespace) -> int:
    """``profile --follow``: live-tail a campaign's event log."""
    import time

    from .obs import follow_profile, render_profile

    path = Path(args.events)
    if not path.exists():
        print(f"waiting for {path} to appear... (Ctrl-C to stop)",
              file=sys.stderr)
    try:
        for profile in follow_profile(path, interval=max(args.interval, 0.1)):
            stamp = time.strftime("%H:%M:%S")
            print(f"\n== follow {path} @ {stamp} "
                  f"({len(profile.events)} events) ==")
            if profile.events:
                print(render_profile(profile, top=max(args.top, 1)))
            else:
                print("(no events yet)")
    except KeyboardInterrupt:
        print("\nfollow stopped", file=sys.stderr)
        return 0
    print("\ncampaign completed — follow finished", file=sys.stderr)
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: post-mortem of a --trace event log."""
    from .obs import export_chrome_trace, load_profile, render_profile

    if args.follow:
        return _follow_profile(args)
    path = Path(args.events)
    if not path.exists():
        print(f"error: no such event log: {path}", file=sys.stderr)
        return 2
    profile = load_profile(path)
    if not profile.events:
        print(f"error: {path} holds no events", file=sys.stderr)
        return 2
    print(render_profile(profile, top=max(args.top, 1)))
    if args.chrome_trace:
        out = export_chrome_trace(profile.events, args.chrome_trace)
        print(f"\nchrome trace written to {out} "
              f"(load in Perfetto or chrome://tracing)")
    return 0


def _format_seconds(seconds: float) -> str:
    """Human wall clock: seconds under 2 min, h/m above."""
    if seconds < 120:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(round(seconds)), 60)
    hours, minutes = divmod(minutes, 60)
    if hours:
        return f"{hours}h{minutes:02d}m"
    return f"{minutes}m{secs:02d}s"


def _mean_run_seconds(path: Path) -> tuple[float | None, int, str]:
    """Per-run latency baseline from a ``telemetry.json`` snapshot:
    the mean, sample count and histogram name
    (``engine.run.seconds``).  Returns ``(None, 0, name)`` when the
    file is missing, unreadable or holds no samples."""
    import json

    name = "engine.run.seconds"
    try:
        summary = json.loads(path.read_text()).get("histograms", {}).get(name)
        if summary and summary.get("count"):
            return float(summary["mean"]), int(summary["count"]), name
    except (OSError, ValueError, AttributeError, KeyError, TypeError):
        pass
    return None, 0, name


def _requested_ids(args: argparse.Namespace) -> list[str]:
    """The experiment ids a ``run``/``plan`` invocation names
    (``all`` expanded)."""
    requested = args.experiments
    if requested == ["all"]:
        return list(all_experiments())
    return requested


#: Worker states that still contribute execution capacity to an ETA.
_ACTIVE_WORKER_STATES = frozenset(
    {"starting", "claiming", "executing", "idle"}
)


def _plan_workers(args: argparse.Namespace) -> tuple[int, str]:
    """Fleet size for the ``plan`` wall-clock estimate: the explicit
    ``--workers`` when given, else the count of live (non-draining)
    workers in the ``live-status.json`` next to ``--since`` — so an
    estimate against a running fleet campaign reflects its actual
    capacity — else 1.  Returns ``(workers, provenance suffix)``."""
    if args.workers is not None:
        return max(args.workers, 1), ""
    if args.since:
        from .fleet import load_live_status

        since = Path(args.since)
        campaign_dir = since if since.is_dir() else since.parent
        status = load_live_status(campaign_dir)
        if status and isinstance(status.get("workers"), dict):
            live = sum(
                1
                for record in status["workers"].values()
                if isinstance(record, dict)
                and record.get("state") in _ACTIVE_WORKER_STATES
            )
            if live:
                return live, " [live fleet]"
    return 1, ""


def _run_plan(args: argparse.Namespace) -> int:
    """The ``plan`` subcommand: compile → dedup → report, run nothing."""
    from .engine import resolve_jobs
    from .experiments import compile_campaign

    try:
        jobs = resolve_jobs(args.jobs)
        context = quick_context() if args.quick else default_context()
        campaign = compile_campaign(_requested_ids(args), context)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    summary = campaign.summary()
    figures = summary["figures"]
    print(
        f"campaign plan {summary['plan'][:16]}…  "
        f"({len(figures)} figure(s): {', '.join(figures)})"
    )
    if figures:
        print()
        print(f"  {'figure':<8} {'requested':>9} {'unique':>7} {'exclusive':>9}")
        for figure in figures:
            print(
                f"  {figure:<8} "
                f"{summary['requested_by_figure'].get(figure, 0):>9} "
                f"{summary['unique_by_figure'].get(figure, 0):>7} "
                f"{summary['exclusive_by_figure'].get(figure, 0):>9}"
            )
    print()
    requested = summary["requested"]
    savings = summary["dedup_savings"]
    pct = 100.0 * savings / requested if requested else 0.0
    print(f"requested runs : {requested}")
    print(f"unique runs    : {summary['unique']}")
    print(f"dedup savings  : {savings} ({pct:.0f}% of requested)")
    if args.since:
        since = Path(args.since)
        if not since.exists():
            print(f"error: no such manifest: {since}", file=sys.stderr)
            return 2
        manifest = CampaignManifest(since)
        remaining = campaign.remaining(manifest.completed)
        done = campaign.total_unique - len(remaining)
        print()
        print(f"-- plan diff vs {manifest.path} --")
        print(
            f"complete       : {done} of {campaign.total_unique} "
            f"unique run(s) already checkpointed"
        )
        print(f"remaining      : {len(remaining)} run(s)")
        shown = remaining[:20]
        for entry in shown:
            figures = ",".join(sorted(entry.figures)) or "-"
            print(f"  {entry.fingerprint[:16]}…  figures={figures}  "
                  f"tag={entry.run.tag}")
        if len(remaining) > len(shown):
            print(f"  ... and {len(remaining) - len(shown)} more")
    baseline = Path(args.telemetry) if args.telemetry else None
    if baseline is None:
        campaign_dir = _campaign_dir(args)
        if campaign_dir is not None and (campaign_dir / "telemetry.json").exists():
            baseline = campaign_dir / "telemetry.json"
    mean_run_s, samples, source = (
        _mean_run_seconds(baseline)
        if baseline is not None
        else (None, 0, "engine.run.seconds")
    )
    workers, workers_source = _plan_workers(args)
    estimate = campaign.estimate_seconds(mean_run_s, jobs=jobs,
                                         workers=workers)
    if estimate is not None:
        # Fleet workers run serially whatever --jobs says.
        at = (
            f"1 job(s) x {workers} worker(s){workers_source}"
            if workers > 1
            else f"{jobs} job(s)"
        )
        print(
            f"est. cold wall clock: ~{_format_seconds(estimate)} at "
            f"{at} (mean {source} {mean_run_s:.3g}s over "
            f"n={samples}, from {baseline})"
        )
    else:
        print(
            f"est. cold wall clock: n/a — no {source} baseline "
            "(point --telemetry at a previous campaign's telemetry.json)"
        )
    return 0


def _relist_in_index(index_path: Path, experiment_ids: list[str]) -> None:
    """List again in ``index.json`` the experiments a ``run --resume``
    skipped, under their exported titles, when an earlier invocation
    left their artifacts next to it."""
    import json

    from .ioutil import atomic_write_json

    index = json.loads(index_path.read_text())
    for experiment_id in experiment_ids:
        exported = index_path.parent / f"{experiment_id}.json"
        try:
            index[experiment_id] = json.loads(exported.read_text())["title"]
        except (OSError, ValueError, KeyError):
            continue  # not exported here: nothing to list
    atomic_write_json(index_path, index)


class _ExperimentLoop:
    """One invocation of the experiment loop (``run``, ``family run``,
    ``fleet``): ``with _ExperimentLoop(args, dir) as loop`` and one
    :meth:`run` per (context, export directory).  It owns the
    event log, the ``campaign.*`` events and span, Ctrl-C (status 130),
    a :class:`ReproError` escaping a pass (status 1), the exports
    (written as it ends, whatever the status), the resilience counters
    and ``--profile``.  Drivers come from this module's
    ``get_experiment``, the binding a tracer wraps.
    """

    def __init__(self, args: argparse.Namespace, campaign_dir: Path | None):
        self.drivers = [
            (eid, get_experiment(eid)) for eid in _requested_ids(args)
        ]
        self.profile = args.profile
        self.status = 0
        self.telemetry = get_telemetry()
        self._event_log = _trace_log(args, campaign_dir)
        self._exports: list[tuple[Path, dict, list[str]]] = []

    def __enter__(self) -> "_ExperimentLoop":
        if self._event_log is not None:
            self.telemetry.enable_tracing(events=self._event_log)
            self.telemetry.emit(
                "campaign.started", experiments=[e for e, _ in self.drivers]
            )
        self._span = self.telemetry.span(
            "campaign", experiments=len(self.drivers)
        )
        self._span.__enter__()
        return self

    def __exit__(self, kind, error, traceback) -> bool:
        telemetry = self.telemetry
        self._span.__exit__(kind, error, traceback)
        handled = isinstance(error, (KeyboardInterrupt, ReproError))
        if isinstance(error, KeyboardInterrupt):
            self.status = 130
            print("interrupted: campaign state is checkpointed; re-invoke "
                  "with 'run --resume' to continue", file=sys.stderr)
        elif handled:
            self.status = 1
            print(f"error: {error}", file=sys.stderr)
        if self._event_log is not None:
            telemetry.emit("campaign.completed", status=self.status,
                           snapshot=telemetry.snapshot())
            self._event_log.close()
            print(f"event log: {self._event_log.path} "
                  f"(inspect with 'repro-noise profile')", file=sys.stderr)
        # Through the module, so a tracer that wraps it sees the call.
        from .experiments import exporter

        for output, results, skipped in self._exports:
            if not results:
                # No finished result — still flush the telemetry
                # snapshot, so the campaign is diagnosable.
                exporter.export_telemetry(output, telemetry)
                continue
            index = exporter.export_results(
                list(results.values()), output, telemetry
            )
            if skipped:
                _relist_in_index(index, skipped)
            print(f"exported {len(results)} experiment artifact(s); "
                  f"index: {index}")
        if self.status != 0 and telemetry.resilience_summary():
            summary = ", ".join(
                f"{name}={count}"
                for name, count in telemetry.resilience_summary().items()
            )
            print(f"resilience counters: {summary}", file=sys.stderr)
        if self.profile:
            print(telemetry.report())
        return handled

    def run(self, context, output, *, manifest_dir: Path | None = None,
                 resume: bool = False, lost: dict[str, str] | None = None,
                 member: str | None = None) -> dict:
        """Run every driver over *context*; returns the results by id.

        An experiment that loses runs fails by name and the rest run; so
        does one *lost* names, without its driver running.  The campaign
        manifest in *manifest_dir* records each experiment, and *resume*
        skips those it records as finished.  Results are printed and,
        with *output*, exported there as the invocation ends.
        """
        telemetry = self.telemetry
        manifest = (
            CampaignManifest(manifest_dir / MANIFEST_NAME)
            if manifest_dir is not None else None
        )
        drivers = self.drivers
        skipped: list[str] = []
        if resume:
            finished = manifest.completed
            skipped = [eid for eid, _ in drivers if eid in finished]
            if skipped:
                drivers = [(e, d) for e, d in drivers if e not in finished]
                telemetry.increment("campaign.points_skipped", len(skipped))
                print(f"resume: skipping {len(skipped)} finished "
                      f"experiment(s): {', '.join(skipped)}")
        results: dict = {}
        if output is not None:
            self._exports.append((Path(output), results, skipped))
        for experiment_id, driver in drivers:
            if manifest is not None:
                manifest.mark_started(experiment_id)
            telemetry.emit("experiment.started", experiment=experiment_id)
            try:
                if lost and experiment_id in lost:
                    raise ExecutionError(lost[experiment_id])
                result = driver(context)
            except ReproError as error:
                on = f" on {member}" if member else ""
                print(f"error in {experiment_id}{on}: {error}",
                      file=sys.stderr)
                if manifest is not None:
                    manifest.mark_failed(experiment_id, str(error))
                telemetry.increment("campaign.points_failed")
                telemetry.emit("experiment.failed", experiment=experiment_id,
                               error=str(error))
                self.status = 1
                continue
            results[experiment_id] = result
            telemetry.increment("campaign.points_completed")
            if manifest is not None:
                manifest.mark_complete(experiment_id)
            telemetry.emit("experiment.completed", experiment=experiment_id)
            print(result)
            print()
        return results


def _member_label(name: str) -> str:
    """Short member label (``quick/cores4`` → ``cores4``) — used for
    per-member export directories and compact tables."""
    return name.split("/", 1)[1] if "/" in name else name


def _family_members(args: argparse.Namespace, family):
    """The member specs a ``--members`` restriction selects (``None``
    for the whole family)."""
    if args.members is None:
        return None
    return [
        family.member(label.strip())
        for label in args.members.split(",")
        if label.strip()
    ]


def _family_member_metrics(context, results: dict) -> dict:
    """Per-member headline metrics for ``family-results.json``: the
    resonance frequency, peak noise and worst Vmin the member's own
    Fig. 7a sweep measured (its peak run replays from the session
    cache, so the Vmin probe costs no extra solve), plus the ΔI
    ceiling when Fig. 11a ran."""
    from .analysis.sensitivity import sweep_stimulus_frequency

    metrics: dict = {
        "resonance_freq_hz": None,
        "peak_p2p_pct": None,
        "worst_vmin_v": None,
        "max_noise_pct": None,
    }
    fig7a = results.get("fig7a")
    if fig7a is not None:
        peak_freq = fig7a.data["peak_freq_hz"]
        metrics["resonance_freq_hz"] = peak_freq
        metrics["peak_p2p_pct"] = fig7a.data["peak_p2p"]
        peak = sweep_stimulus_frequency(
            context.generator, context.chip, [peak_freq], synchronize=False
        )
        replay = context.session.run_many(peak.mappings, peak.tags)[0]
        metrics["worst_vmin_v"] = float(replay.worst_vmin)
    fig11a = results.get("fig11a")
    if fig11a is not None:
        metrics["max_noise_pct"] = fig11a.data["max_noise"]
    return metrics


def _run_family(args: argparse.Namespace) -> int:
    """The ``family`` subcommand: list/expand the named chip families,
    or plan/run experiments across every member of one."""
    import json

    from .chips import get_family, list_families
    from .experiments import compile_family_campaign, context_for_spec
    from .ioutil import atomic_write_json

    if args.action == "list":
        for family in list_families():
            print(
                f"{family.name:<12} {len(family)} member(s) — "
                f"{family.description}"
            )
        return 0

    if args.name is None:
        print(f"error: family {args.action} needs a family name",
              file=sys.stderr)
        return 2
    try:
        family = get_family(args.name)
        members = _family_members(args, family)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.action == "expand":
        specs = members if members is not None else family.members()
        if args.json:
            print(json.dumps(
                [
                    {
                        "name": spec.name,
                        "chip": spec.fingerprint(),
                        "spec": spec.to_dict(),
                    }
                    for spec in specs
                ],
                indent=2, sort_keys=True,
            ))
            return 0
        print(f"family {family.name!r} — {family.description}")
        print(f"  {'member':<16} {'cores':>5} {'node':>4} "
              f"{'decap':>5} chip")
        for spec in specs:
            print(
                f"  {_member_label(spec.name):<16} {spec.n_cores:>5} "
                f"{spec.tech_node:>4} {spec.decap_scale:>5g} "
                f"{spec.fingerprint()[:16]}…"
            )
        return 0

    if not args.experiments:
        print(f"error: family {args.action} needs experiment ids",
              file=sys.stderr)
        return 2
    try:
        campaign = compile_family_campaign(
            _requested_ids(args), family, quick=args.quick, members=members
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    summary = campaign.summary()
    if args.action == "plan" and args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"family campaign {summary['fingerprint'][:16]}…  "
        f"({family.name}: {len(campaign)} member(s))"
    )
    print(f"  {'member':<16} {'cores':>5} {'requested':>9} {'unique':>7}")
    for entry in summary["members"]:
        plan = entry["plan"]
        print(
            f"  {_member_label(entry['name']):<16} "
            f"{entry['spec']['n_cores']:>5} {plan['requested']:>9} "
            f"{plan['unique']:>7}"
        )
    print(f"requested runs : {summary['requested']}")
    print(f"unique runs    : {summary['unique']}")
    print(f"dedup savings  : {summary['dedup_savings']} (within members; "
          "fingerprints embed the chip identity)")
    if args.action == "plan":
        return 0

    output = Path(args.output) if args.output else None
    family_index: list[dict] = []
    with _ExperimentLoop(args, output) as loop:
        for entry in campaign.members:
            label = _member_label(entry.name)
            context = context_for_spec(entry.spec, quick=args.quick)
            print(
                f"== {entry.name} (chip {entry.chip_digest[:16]}…, "
                f"{entry.spec.n_cores} cores) =="
            )
            member_dir = output / label if output is not None else None
            with loop.telemetry.span("family.member", member=entry.name):
                results = loop.run(
                    context, member_dir, manifest_dir=member_dir,
                    member=entry.name,
                )
            record = {
                "name": entry.name,
                "label": label,
                "chip": entry.chip_digest,
                "n_cores": entry.spec.n_cores,
                "tech_node": entry.spec.tech_node,
                "spec": entry.spec.to_dict(),
                **_family_member_metrics(context, results),
            }
            if member_dir is not None and results:
                record["export_dir"] = label
            family_index.append(record)

        print(f"-- family result set ({family.name}) --")
        print(f"  {'member':<16} {'cores':>5} {'resonance':>10} "
              f"{'worst Vmin':>10} {'peak %p2p':>9}")
        for record in family_index:
            resonance = record["resonance_freq_hz"]
            vmin = record["worst_vmin_v"]
            peak = record["peak_p2p_pct"]
            print(
                f"  {record['label']:<16} {record['n_cores']:>5} "
                f"{(f'{resonance:.3g}Hz' if resonance else '-'):>10} "
                f"{(f'{vmin:.4g}V' if vmin else '-'):>10} "
                f"{(f'{peak:.1f}' if peak is not None else '-'):>9}"
            )
        if output is not None:
            payload = {
                "family": family.name,
                "fingerprint": campaign.fingerprint(),
                "experiments": _requested_ids(args),
                "members": family_index,
            }
            path = atomic_write_json(output / "family-results.json", payload)
            print(f"family result set: {path}")
    return loop.status


def _parse_endpoint(spec: str) -> tuple[str, int]:
    """``host:port`` → ``(host, port)`` (host defaults to loopback for
    a bare ``:port`` or plain port)."""
    host, _, port = spec.rpartition(":")
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ReproError(f"bad endpoint {spec!r}; expected host:port")


def _fleet_worker_command(args: argparse.Namespace) -> list[str]:
    """The ``fleet-worker`` invocation every worker is spawned with
    (the dispatcher appends ``--worker-id``/``--workdir``): the user's
    context/engine flags are re-spelled so the workers see exactly the
    configuration the ``fleet`` command was given."""
    command = [sys.executable, "-m", "repro"]
    if args.quick:
        command.append("--quick")
    if args.max_retries is not None:
        command += ["--max-retries", str(args.max_retries)]
    if args.run_timeout is not None:
        command += ["--run-timeout", str(args.run_timeout)]
    command += [
        "fleet-worker",
        "--campaign-dir", str(Path(args.output)),
        "--batch", str(args.batch),
        "--lease", str(args.lease),
        "--poison-after", str(args.poison_after),
    ]
    if args.heartbeat is not None:
        command += ["--heartbeat", str(args.heartbeat)]
    if args.serve is not None:
        command += ["--serve", args.serve]
    command += _requested_ids(args)
    return command


def _lost_on_the_fleet(campaign, dispatcher) -> dict[str, str]:
    """Experiment id → why its driver must not run: the fleet left
    some of its planned runs unfinished, poisoned or failed.  Executing
    a poisoned run kills the process, so the dispatcher never does."""
    lost = Counter(
        figure
        for fingerprint in (*dispatcher.unfinished, *dispatcher.failed)
        for figure in campaign.unique[fingerprint].figures
    )
    return {
        figure: f"{count} of its planned run(s) did not complete on the fleet"
        for figure, count in lost.items()
    }


def _run_fleet(args: argparse.Namespace) -> int:
    """The ``fleet`` subcommand: dispatch an elastic worker fleet over
    one campaign, fold the results, and export the experiments from the
    folded cache."""
    from .engine import configure_cache
    from .experiments import compile_campaign
    from .fleet import FleetDispatcher

    campaign_dir = Path(args.output)
    try:
        loop = _ExperimentLoop(args, campaign_dir)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    with loop:
        context = quick_context() if args.quick else default_context()
        campaign = compile_campaign(_requested_ids(args), context)
        hosts = [h for h in (args.hosts or "").split(",") if h] or None
        dispatcher = FleetDispatcher(
            campaign,
            context.chip,
            campaign_dir,
            _fleet_worker_command(args),
            workers=args.workers,
            hosts=hosts,
            ssh_template=args.ssh_template,
            slurm_template=args.slurm_template,
            respawn=args.respawn,
            timeout_s=args.fleet_timeout,
            telemetry=loop.telemetry,
        )
        report = dispatcher.run()
        summary = report.summary()
        print(
            f"fleet campaign {report.plan[:16]}…: {report.runs} run(s) — "
            f"{report.executed} executed, {report.replayed} replayed, "
            f"{report.failed} failed, {summary.get('stolen', 0)} stolen"
        )
        for worker, tally in summary.get("by_worker", {}).items():
            print(
                f"  {worker:<8} completed={tally['completed']:<4} "
                f"stolen={tally['stolen']:<3} failed={tally['failed']}"
            )
        fleet_counters = ", ".join(
            f"{name.removeprefix('fleet.')}={count}"
            for name, count in sorted(loop.telemetry.counters.items())
            if name.startswith("fleet.")
        )
        if fleet_counters:
            print(f"fleet counters: {fleet_counters}")
        print(f"campaign dir: {campaign_dir} (folded cache in cache/)\n")
        if dispatcher.unfinished:
            poisoned = dispatcher.poisoned
            note = f" ({len(poisoned)} poisoned)" if poisoned else ""
            print(f"error: {len(dispatcher.unfinished)} run(s) did not "
                  f"complete{note}", file=sys.stderr)
        # The export pass replays the folded cache.
        configure_cache(cache_dir=campaign_dir / "cache")
        context = quick_context() if args.quick else default_context()
        loop.run(
            context, campaign_dir, manifest_dir=campaign_dir,
            lost=_lost_on_the_fleet(campaign, dispatcher),
        )
        if dispatcher.unfinished or report.failed:
            loop.status = 1
    return loop.status


def _run_fleet_worker(args: argparse.Namespace) -> int:
    """The (internal) ``fleet-worker`` subcommand: one claim/execute/
    renew loop over the shared campaign manifest."""
    import json
    import signal

    from .engine.cache import ResultCache
    from .experiments import compile_campaign
    from .fleet import LIVE_SIDECAR_NAME, FleetWorker
    from .ioutil import atomic_write_json
    from .obs import EventLog

    context = quick_context() if args.quick else default_context()
    workdir = Path(args.workdir)
    (workdir / "cache").mkdir(parents=True, exist_ok=True)
    telemetry = get_telemetry()
    event_log = EventLog(workdir / "events.jsonl")
    telemetry.enable_tracing(events=event_log)
    try:
        campaign = compile_campaign(_requested_ids(args), context)
        private = CampaignManifest(workdir / "campaign-manifest.json")
        private.bind_campaign({
            "plan": campaign.fingerprint(),
            "shard": f"fleet:{args.worker_id}",
        })
        worker = FleetWorker(
            campaign,
            context.chip,
            CampaignManifest(Path(args.campaign_dir)),
            worker_id=args.worker_id,
            cache=ResultCache(cache_dir=workdir / "cache"),
            private_manifest=private,
            batch=args.batch,
            lease_s=args.lease,
            heartbeat_s=args.heartbeat,
            poison_after=args.poison_after,
            serve=_parse_endpoint(args.serve) if args.serve else None,
            telemetry=telemetry,
            live_path=(
                workdir / LIVE_SIDECAR_NAME if args.flush_s > 0 else None
            ),
            flush_s=args.flush_s,
        )
        signal.signal(signal.SIGTERM, lambda *_: worker.drain())
        summary = worker.run()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        event_log.close()
        # The merge-payload snapshot the dispatcher folds fleet-wide.
        atomic_write_json(
            workdir / "fleet-telemetry.json", telemetry.merge_payload()
        )
    print(json.dumps(summary, sort_keys=True))
    return 0


def _trace_log(args: argparse.Namespace, campaign_dir: Path | None):
    """Open the JSONL event log when tracing is requested (``--trace``
    / ``--trace-file``); returns None otherwise."""
    if not (args.trace or args.trace_file):
        return None
    from .obs import EventLog

    path = (
        Path(args.trace_file)
        if args.trace_file
        else (campaign_dir or Path(".")) / "events.jsonl"
    )
    return EventLog(path)


def _hosted_chip_specs(selector: str | None) -> list:
    """The extra :class:`~repro.chips.ChipSpec` identities a ``serve
    --chips`` selector names: comma-separated family names (hosting
    every member) and/or ``family/member`` references."""
    if not selector:
        return []
    from .chips import get_family

    specs = []
    for part in selector.split(","):
        part = part.strip()
        if not part:
            continue
        if "/" in part:
            family_name, _ = part.split("/", 1)
            specs.append(get_family(family_name).member(part))
        else:
            specs.extend(get_family(part).members())
    return specs


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the simulation service in the
    foreground until Ctrl-C or a client's ``shutdown`` request."""
    from .obs import SloPolicy
    from .serve import NoiseServer, SimulationService, start_metrics_http

    context = quick_context() if args.quick else default_context()
    telemetry = get_telemetry()
    event_log = _trace_log(args, _campaign_dir(args))
    if event_log is not None:
        telemetry.enable_tracing(events=event_log)
    slo_policy = None
    if args.slo:
        try:
            slo_policy = SloPolicy.from_file(args.slo)
        except (OSError, ValueError, ReproError) as error:
            print(f"error: bad --slo file: {error}", file=sys.stderr)
            return 2
    try:
        chips = _hosted_chip_specs(args.chips)
        service = SimulationService(
            context.chip,
            context.options,
            queue_limit=args.queue_limit,
            hot_entries=args.hot_entries,
            max_batch=args.max_batch,
            telemetry=telemetry,
            window_s=args.metrics_window,
            slo=slo_policy,
            chips=chips,
            max_resident_chips=args.max_resident_chips,
            max_sessions=args.max_sessions,
            session_ttl_s=args.session_ttl,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    service.start()
    server = NoiseServer((args.host, args.port), service)
    scrape_server = scrape_thread = None
    if args.http_metrics is not None:
        scrape_server, scrape_thread = start_metrics_http(
            service, host=args.host, port=args.http_metrics
        )
    telemetry.emit(
        "serve.started",
        host=args.host,
        port=server.port,
        chip=service.chip_fp,
    )
    print(
        f"serving on {args.host}:{server.port} "
        f"(chip {service.chip_fp[:16]}…, queue={args.queue_limit}, "
        f"hot={args.hot_entries}, executor={service.executor.name})",
        flush=True,
    )
    if len(service.roster) > 1:
        hosted = ", ".join(
            entry.name for entry in service.roster.entries()
        )
        print(
            f"hosting {len(service.roster)} chip identities "
            f"(max resident {args.max_resident_chips} + default): "
            f"{hosted}",
            flush=True,
        )
    if scrape_server is not None:
        print(
            f"metrics on http://{args.host}:{scrape_server.port}/metrics "
            f"(Prometheus text, window {args.metrics_window:g}s)",
            flush=True,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\ninterrupted — shutting down", file=sys.stderr)
    finally:
        if scrape_server is not None:
            scrape_server.shutdown()
            scrape_server.server_close()
            scrape_thread.join(timeout=2.0)
        server.server_close()
        service.stop()
        snapshot = service.metrics()["metrics"].get("counters", {})
        served = {
            name.split(".", 2)[-1]: count
            for name, count in sorted(snapshot.items())
            if name.startswith("serve.tier.")
        }
        print(
            f"served {snapshot.get('serve.requests', 0)} request(s): "
            + (", ".join(f"{k}={v}" for k, v in served.items()) or "none")
            + f"; coalesced={snapshot.get('serve.coalesced', 0)}"
            f" busy={snapshot.get('serve.busy', 0)}"
        )
        if event_log is not None:
            event_log.close()
    return 0


def _parse_number_list(text: str, kind, flag: str):
    """A comma-separated ``--gains``/``--depths`` list as a tuple."""
    try:
        values = tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ReproError(f"bad {flag} list {text!r}")
    if not values:
        raise ReproError(f"{flag} names no values")
    return values


def _run_control(args: argparse.Namespace) -> int:
    """The ``control`` subcommand: closed-loop studies on the stepping
    engine, outside the experiment registry (parameterized gains /
    attack grids).  The nominal baseline solve goes through the normal
    engine session — cached, fingerprint-shared with the ``ctrl-*``
    experiments and the plan/serve paths."""
    import json

    from .control.study import (
        DEFAULT_DEPTHS,
        DEFAULT_DURATIONS,
        DEFAULT_GAINS,
        attack_surface,
        control_baseline,
        gain_sweep,
    )
    from .experiments.ctrl import attack_table, control_mapping, gain_table

    context = quick_context() if args.quick else default_context()
    mapping = control_mapping(context)
    try:
        baseline = control_baseline(mapping).run(context.session)
        if args.study == "gain-sweep":
            gains = (
                _parse_number_list(args.gains, float, "--gains")
                if args.gains
                else DEFAULT_GAINS
            )
            data = gain_sweep(
                context.chip,
                mapping,
                context.options,
                gains=gains,
                setpoint=args.setpoint,
                windows_per_segment=args.windows,
                baseline=baseline,
            )
            text = gain_table(data)
        else:
            depths = (
                _parse_number_list(args.depths, int, "--depths")
                if args.depths
                else DEFAULT_DEPTHS
            )
            durations = (
                _parse_number_list(args.durations, int, "--durations")
                if args.durations
                else DEFAULT_DURATIONS
            )
            data = attack_surface(
                context.chip,
                mapping,
                context.options,
                depths=depths,
                durations=durations,
                windows_per_segment=args.windows,
                baseline=baseline,
            )
            text = attack_table(data)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(data, indent=2) if args.json else text)
    if not data["stepping_equivalent"]:
        print(
            "error: stepping diverged from the monolithic solve",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_query(args: argparse.Namespace) -> int:
    """The ``query`` subcommand: client of a running service."""
    import json
    from concurrent.futures import ThreadPoolExecutor

    from .serve import ServeClient

    try:
        if args.metrics_text:
            with ServeClient(args.host, args.port) as client:
                print(client.metrics_text(), end="")
            return 0
        if args.health or args.metrics or args.shutdown:
            with ServeClient(args.host, args.port) as client:
                if args.health:
                    reply = client.health()
                elif args.metrics:
                    reply = client.metrics()
                else:
                    reply = client.shutdown()
            print(json.dumps(reply, indent=2, sort_keys=True))
            return 0 if reply.get("ok") else 1

        program = {
            "i_low": args.i_low,
            "i_high": args.i_high,
            "freq_hz": args.freq,
            "name": "query",
        }
        distinct = max(args.distinct, 1)
        requests = []
        for index in range(max(args.repeat, 1)):
            variant = dict(program)
            # Distinct variants perturb the load step so they resolve
            # to distinct fingerprints (and thus distinct executions).
            variant["i_high"] = args.i_high + 0.5 * (index % distinct)
            requests.append([variant] * max(args.cores, 1))

        def submit(mapping):
            with ServeClient(args.host, args.port) as client:
                return client.simulate(
                    mapping,
                    tag=args.tag,
                    chip=args.chip,
                    retry_busy=args.retry_busy,
                )

        if args.concurrency > 1:
            with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
                replies = list(pool.map(submit, requests))
        else:
            replies = [submit(mapping) for mapping in requests]
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.json:
        for reply in replies:
            print(json.dumps(reply, sort_keys=True))
    tiers: dict[str, int] = {}
    failures = 0
    slowest = 0.0
    for reply in replies:
        if reply.get("ok"):
            tiers[reply["tier"]] = tiers.get(reply["tier"], 0) + 1
            slowest = max(slowest, float(reply.get("elapsed_ms", 0.0)))
        else:
            failures += 1
            status = reply.get("status", "error")
            tiers[status] = tiers.get(status, 0) + 1
            if not args.json:
                print(f"  {status}: {reply.get('error', '?')}",
                      file=sys.stderr)
    summary = ", ".join(f"{k}={v}" for k, v in sorted(tiers.items()))
    print(
        f"{len(replies)} repl{'y' if len(replies) == 1 else 'ies'}: "
        f"{summary or 'none'}  (slowest server-side "
        f"{slowest:.2f} ms)"
    )
    if failures == 0 and replies and replies[0].get("ok"):
        body = replies[0]["result"]
        print(
            f"first result: max_p2p={body['max_p2p']:.4g}%  "
            f"worst_vmin={body['worst_vmin']:.4g}V  "
            f"tier={replies[0]['tier']}"
        )
    return 1 if failures else 0


def _run_top(args: argparse.Namespace) -> int:
    """The ``top`` subcommand: clear-and-reprint dashboard loop over
    the live aggregates (:func:`repro.obs.top.render_top` frames)."""
    import time

    from .obs.top import render_top

    if not args.campaign and not args.serve:
        print("error: top needs --campaign and/or --serve",
              file=sys.stderr)
        return 2
    endpoint = None
    if args.serve:
        try:
            endpoint = _parse_endpoint(args.serve)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    interval = max(args.interval, 0.1)
    try:
        while True:
            errors: list[str] = []
            fleet_status = None
            if args.campaign:
                from .fleet import load_live_status

                fleet_status = load_live_status(args.campaign)
                if fleet_status is None:
                    errors.append(
                        f"campaign {args.campaign}: no live-status.json "
                        "yet (is a fleet running there?)"
                    )
            serve_metrics = None
            if endpoint is not None:
                from .serve import ServeClient

                try:
                    with ServeClient(*endpoint) as client:
                        serve_metrics = client.metrics()
                except (ReproError, OSError) as error:
                    errors.append(f"serve {args.serve}: {error}")
            frame = render_top(fleet_status, serve_metrics, errors=errors)
            if args.once:
                print(frame, end="")
                return 0
            sys.stdout.write("\x1b[H\x1b[2J" + frame)
            sys.stdout.flush()
            # A folded campaign is finished output; keep polling only
            # when a serve endpoint is also being watched.
            if (
                fleet_status
                and fleet_status.get("phase") == "folded"
                and endpoint is None
            ):
                print("campaign folded — exiting")
                return 0
            time.sleep(interval)
    except KeyboardInterrupt:
        print()
        return 0


def main(argv: list[str] | None = None) -> int:
    try:
        status = _dispatch(build_parser().parse_args(argv))
        # Flush here, so a closed pipe surfaces inside this handler and
        # not in the interpreter's exit flush.
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``repro-noise plan all | head -1``).
        # As the SIGPIPE note in the Python docs does, point stdout at
        # devnull, so what is still buffered cannot raise again on
        # exit, and fail without a traceback.
        _stdout_to_devnull()
        return 1
    return status


def _stdout_to_devnull() -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):
        # An in-process stream without a descriptor of its own.
        sys.stdout = open(os.devnull, "w")
    finally:
        os.close(devnull)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "plan":
        return _run_plan(args)
    if args.command == "query":
        return _run_query(args)
    if args.command == "top":
        return _run_top(args)

    try:
        _configure_engine(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "control":
        return _run_control(args)

    if args.command == "fleet":
        return _run_fleet(args)

    if args.command == "fleet-worker":
        return _run_fleet_worker(args)

    if args.command == "family":
        return _run_family(args)

    if args.command == "list":
        for experiment_id, title in all_experiments().items():
            print(f"{experiment_id:<8} {title}")
        return 0

    campaign_dir = _campaign_dir(args)
    if args.resume and campaign_dir is None:
        print(
            "error: --resume needs --output or --cache-dir (somewhere "
            "for the campaign manifest to live)",
            file=sys.stderr,
        )
        return 2
    try:
        loop = _ExperimentLoop(args, campaign_dir)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    with loop:
        context = quick_context() if args.quick else default_context()
        loop.run(
            context, args.output, manifest_dir=campaign_dir,
            resume=args.resume,
        )
    return loop.status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
