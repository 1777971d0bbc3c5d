"""``serve-mixed``: one ``repro-noise --quick serve --port 0`` process
and one client with 2 persistent connections in a closed loop.

The client sends a seeded stream of ``simulate`` requests: in every
block of 100, exactly one novel fingerprint that forces an execution,
and 99 draws from a fixed 32-fingerprint hot set with Pareto-skewed
(Zipf, s = 1.2) popularity.  A fixed novel share and one novel shape
keep the execution load equal across seeds; the seed chooses the draw
order, which hot entries are popular, and the novel amplitudes.

The end-to-end ``wall_s`` of this workload is the median round trip of
an executed request.  Hot round trips (~0.4 ms) are mostly process
wake-ups, which on a shared 2-vCPU host doubled between host phases
while compute-bound timings moved by a fifth; they are printed with the
result but carry no bound.

Every reply is checked: non-ok and busy replies fail, hot-set results
must match the recorded references (``refs/serve_hot.json``), and all
replies for one fingerprint must be identical whatever tier served
them.
"""

from __future__ import annotations

import json
import math
import random
import re
import socket
import threading
import time
from pathlib import Path

import layers
from program import BenchError, Child, Program
from stats import json_close, median, metric, percentile

HOT_REFS = Path(__file__).resolve().with_name("refs") / "serve_hot.json"

SERVE_ARGS = ["--quick", "serve", "--port", "0"]
CONNECTIONS = 2
HOT_SET_SIZE = 32
BLOCK = 100
ZIPF_S = 1.2
#: Fresh server starts whose median is ``setup_s``.
SETUP_STARTS = 5
#: Samples the tail percentiles need (>= 10 beyond p99 and p90).
MIN_HOT = 1000
MIN_EXECUTED = 100

_FREQS_HZ = (0.5e6, 1e6, 2e6, 2.6e6, 5e6, 10e6, 20e6, 90e6)
_SERVING = re.compile(rb"serving on [^\s:]+:(\d+)")


def hot_set() -> list[dict]:
    """The fixed hot set: 1-4 active cores x 8 stimulus frequencies."""
    requests = []
    for k in range(HOT_SET_SIZE):
        program = {"i_low": 5.0, "i_high": 20.0 + (k % 3),
                   "freq_hz": _FREQS_HZ[k % len(_FREQS_HZ)]}
        requests.append({"op": "simulate",
                         "mapping": [program] * (1 + k // 8),
                         "tag": "perfbench"})
    return requests


#: The hot-set entry whose shape (2 active cores at 2.6 MHz) every
#: novel request takes, so every execution costs the same.
NOVEL_SHAPE = 11


def _novel(index: int, rng: random.Random) -> dict:
    """Novel request *index*: the :data:`NOVEL_SHAPE` program with a
    unique seeded ``i_high`` that no other request shares."""
    request = json.loads(json.dumps(hot_set()[NOVEL_SHAPE]))
    bump = 0.001 * (index + 1) + 0.0005 * rng.random()
    for program in request["mapping"]:
        program["i_high"] = round(program["i_high"] + bump, 9)
    return request


def request_stream(seed: int):
    """Endless ``(kind, hot index or None, request bytes)`` stream."""
    rng = random.Random(seed)
    encoded = [(json.dumps(r) + "\n").encode() for r in hot_set()]
    popularity = list(range(HOT_SET_SIZE))
    rng.shuffle(popularity)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(HOT_SET_SIZE)]
    novel = 0
    while True:
        slot = rng.randrange(BLOCK)
        for position in range(BLOCK):
            if position == slot:
                request = _novel(novel, rng)
                novel += 1
                yield "novel", None, (json.dumps(request) + "\n").encode()
            else:
                index = popularity[rng.choices(range(HOT_SET_SIZE),
                                               weights)[0]]
                yield "hot", index, encoded[index]


class Connection:
    """One persistent JSON-lines connection."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def call(self, data: bytes) -> bytes:
        self.sock.sendall(data)
        line = self.rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def request(self, payload: dict) -> dict:
        return json.loads(self.call((json.dumps(payload) + "\n").encode()))

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


def start_server(program: Program, trace: bool) -> tuple[Child, int, float]:
    """Spawn a server; returns it, its port and the seconds from spawn
    to its first successful ``health`` reply."""
    child = program.start(SERVE_ARGS, trace)
    deadline = child.spawned + 150
    port = None
    while port is None:
        match = _SERVING.search(child.log.read_bytes())
        if match:
            port = int(match.group(1))
        elif child.proc.poll() is not None or time.monotonic() > deadline:
            raise BenchError(f"server did not start:\n{child.log_tail()}")
        else:
            time.sleep(0.002)
    while True:
        try:
            conn = Connection(port)
            try:
                if conn.request({"op": "health"}).get("ok"):
                    return child, port, time.monotonic() - child.spawned
            finally:
                conn.close()
        except OSError:
            if time.monotonic() > deadline:
                raise BenchError("server never answered health")
        time.sleep(0.002)


def stop_server(child: Child, port: int):
    """Read the server's peak RSS, shut it down and reap it."""
    status = Path(f"/proc/{child.pid}/status").read_text()
    hwm_kb = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
    conn = Connection(port)
    try:
        conn.request({"op": "shutdown"})
    finally:
        conn.close()
    done = child.wait(timeout=60)
    if done.status != 0:
        raise BenchError(f"server exited {done.status}:\n{child.log_tail()}")
    return hwm_kb / 1024.0, done


def load(port: int, stream, seconds: float, min_hot: int,
         min_executed: int) -> tuple[list, float]:
    """Closed loop over :data:`CONNECTIONS` connections for *seconds*
    (longer if needed to collect the minimum samples).  Returns the
    records ``(kind, hot index, round trip s, reply line, completion
    time)`` and the phase's start time (``time.perf_counter``)."""
    lock = threading.Lock()
    stop = threading.Event()
    records: list = []
    counts = {"hot": 0, "novel": 0}
    errors: list = []

    def client():
        try:
            conn = Connection(port)
        except OSError as error:
            errors.append(error)
            return
        mine = []
        try:
            while not stop.is_set():
                with lock:
                    kind, index, data = next(stream)
                sent = time.perf_counter()
                line = conn.call(data)
                done = time.perf_counter()
                mine.append((kind, index, done - sent, line, done))
                with lock:
                    counts[kind] += 1
        except OSError as error:
            errors.append(error)
        finally:
            conn.close()
            with lock:
                records.extend(mine)

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    while (
        (counts["hot"] < min_hot or counts["novel"] < min_executed)
        and time.perf_counter() - started < 3 * seconds
        and not errors
    ):
        time.sleep(0.05)
    stop.set()
    for thread in threads:
        thread.join(120)
    if errors:
        raise BenchError(f"client connection failed: {errors[0]}")
    return records, started


class Checker:
    """Correctness of every reply (see the module docstring)."""

    def __init__(self):
        refs = json.loads(HOT_REFS.read_text())
        self.fingerprints = [entry["fingerprint"] for entry in refs]
        self.results = [entry["result"] for entry in refs]
        self.seen: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, kind: str, index, line: bytes) -> dict | None:
        """The decoded reply, or ``None`` when it counts as failed."""
        self.attempted += 1
        try:
            reply = json.loads(line)
        except ValueError:
            reply = {}
        if self._correct(kind, index, reply):
            return reply
        self.failed += 1
        return None

    def _correct(self, kind: str, index, reply: dict) -> bool:
        if reply.get("ok") is not True:
            return False
        result = reply.get("result")
        fingerprint = reply.get("fingerprint")
        if kind == "hot":
            if fingerprint != self.fingerprints[index]:
                return False
            reference = self.results[index]
            if result != reference and not json_close(result, reference):
                return False
        elif not _well_formed(result):
            return False
        first = self.seen.setdefault(fingerprint, result)
        return result == first


def _well_formed(result) -> bool:
    try:
        values = [result["max_p2p"], result["worst_vmin"]] + [
            m[key] for m in result["measurements"]
            for key in ("p2p_pct", "v_min", "v_max", "droop")
        ]
        return all(math.isfinite(v) for v in values)
    except (KeyError, TypeError):
        return False


def warm_up(port: int, checker: Checker) -> None:
    """Untimed: execute every hot-set entry once (checked against the
    references), then replay the set from the hot tier."""
    conn = Connection(port)
    try:
        encoded = [(json.dumps(r) + "\n").encode() for r in hot_set()]
        for _ in range(2):
            for index, data in enumerate(encoded):
                checker.check("hot", index, conn.call(data))
    finally:
        conn.close()


def _phase(port, stream, seconds, checker, min_hot, min_executed) -> dict:
    since = time.monotonic()
    records, started = load(port, stream, seconds, min_hot, min_executed)
    tiers: dict[str, list] = {}
    busy = 0
    for kind, index, rtt, line, _ in records:
        reply = checker.check(kind, index, line)
        if reply is None:
            busy += b'"busy"' in line
            continue
        tiers.setdefault(reply["tier"], []).append(
            (rtt * 1e3, reply["elapsed_ms"])
        )
    last = max(record[-1] for record in records)
    return {"tiers": tiers, "replies": len(records), "busy": busy,
            "qps": len(records) / (last - started), "since": since}


def _exec_spans(spans: list[dict], since: float) -> tuple[list, list]:
    """Per executed request of the batches started after *since*: solve
    ms (a batch's ``run.solve`` time over its requests) and wait ms
    (request arrival to executor pickup)."""
    arrivals: dict[str, float] = {}
    for span in spans:
        if span["name"] == "serve.request" and span["id"]:
            arrivals.setdefault(span["id"], span["start"])
    solve: dict[int, float] = {}
    for index, span in enumerate(spans):
        if span["name"] != "run.solve":
            continue
        parent = span["parent"]
        while parent is not None and spans[parent]["name"] != "serve.batch":
            parent = spans[parent]["parent"]
        if parent is not None:
            solve[parent] = solve.get(parent, 0.0) + (
                span["end"] - span["start"]
            )
    solve_ms, wait_ms = [], []
    for index, total in solve.items():
        batch = spans[index]
        if batch["start"] < since:
            continue
        solve_ms.append(total / len(batch["id"]) * 1e3)
        for fingerprint in batch["id"]:
            if fingerprint in arrivals:
                wait_ms.append((batch["start"] - arrivals[fingerprint]) * 1e3)
    return solve_ms, wait_ms


def run(program: Program, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``serve-mixed``; returns the benchmark result parts."""
    checker = Checker()
    stream = request_stream(seed)
    if not trace:
        setups = []
        for _ in range(SETUP_STARTS - 1):
            child, port, setup = start_server(program, False)
            setups.append(setup)
            stop_server(child, port)
        child, port, setup = start_server(program, False)
        setups.append(setup)
        warm_up(port, checker)
        phase = _phase(port, stream, seconds, checker, MIN_HOT,
                       MIN_EXECUTED)
        rss_mb, _ = stop_server(child, port)
        hot = [rtt for rtt, _ in phase["tiers"].get("hot", [])]
        executed = [rtt for rtt, _ in phase["tiers"].get("executed", [])]
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "wall_s": metric(median(executed) / 1e3, "s"),
            "peak_rss_mb": metric(rss_mb, "MB"),
        }
        # Serve-only latencies: printed with the result, outside the
        # metric set every workload reports.
        also = {
            "hot_p50_ms": metric(median(hot), "ms"),
            "hot_p99_ms": metric(percentile(hot, 99), "ms"),
            "exec_p50_ms": metric(median(executed), "ms"),
            "exec_p90_ms": metric(percentile(executed, 90), "ms"),
            "qps": metric(phase["qps"], "1/s"),
        }
        info = {"replies": phase["replies"], "hot": len(hot),
                "executed": len(executed),
                "setup_s": [round(s, 4) for s in setups]}
        return {"metrics": metrics, "also": also,
                "attempted": checker.attempted, "failed": checker.failed,
                "info": info}

    # Traced run: an untraced and a traced server, half the time each,
    # so the overhead compares two load phases on the same host phase.
    half = seconds / 2.0
    child, port, _ = start_server(program, False)
    warm_up(port, checker)
    plain = _phase(port, stream, half, checker, 0, 20)
    stop_server(child, port)
    child, port, _ = start_server(program, True)
    warm_up(port, checker)
    traced = _phase(port, stream, half, checker, 0, 20)
    conn = Connection(port)
    try:
        counters = conn.request({"op": "metrics"})["metrics"]["counters"]
    finally:
        conn.close()
    _, done = stop_server(child, port)

    values = layers.span_layers(done.spans)
    values.update(layers.engine_counters(counters))
    hot = traced["tiers"].get("hot", [])
    executed = traced["tiers"].get("executed", [])
    solve_ms, wait_ms = _exec_spans(done.spans, traced["since"])
    answered = sum(len(v) for v in traced["tiers"].values())
    values.update({
        "startup.import_s": done.import_s,
        "serve.hot.server_ms.p50": median(ms for _, ms in hot) or 0.0,
        "serve.wire_ms.p50": median(rtt - ms for rtt, ms in hot) or 0.0,
        "serve.hot_ratio": len(hot) / answered if answered else 0.0,
        "serve.exec.server_ms.p50": median(ms for _, ms in executed) or 0.0,
        "serve.exec.solve_ms.p50": median(solve_ms) or 0.0,
        "serve.exec.wait_ms.p50": median(wait_ms) or 0.0,
        "serve.tier.hot": len(hot),
        "serve.tier.executed": len(executed),
        "serve.tier.coalesced": len(traced["tiers"].get("coalesced", [])),
        "serve.busy": traced["busy"],
        "trace.overhead_pct": (plain["qps"] / traced["qps"] - 1.0) * 100.0,
    })
    metrics = {
        name: metric(values.get(name, 0), unit)
        for name, unit, _ in layers.PER_LAYER
    }
    info = {"replies": plain["replies"] + traced["replies"],
            "qps_untraced": round(plain["qps"], 2),
            "qps_traced": round(traced["qps"], 2)}
    return {"metrics": metrics, "attempted": checker.attempted,
            "failed": checker.failed, "info": info}
