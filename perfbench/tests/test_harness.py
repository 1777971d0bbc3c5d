"""Tests of the benchmark harness itself (no program process runs).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import re
import shutil
from pathlib import Path

import pytest

import campaign
import layers
import run
import serve_load
import stats
import tracer

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def _span(start, end, parent=None, name="x"):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "id": None}


# -- self time -------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [_span(0.0, 10.0), _span(1.0, 3.0, 0), _span(1.5, 2.0, 1),
             _span(5.0, 6.0, 0)]
    assert stats.self_times(spans) == pytest.approx([7.0, 1.5, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    # Children on other threads may overlap; their union is subtracted.
    spans = [_span(0.0, 10.0), _span(1.0, 4.0, 0), _span(3.0, 6.0, 0),
             _span(5.0, 5.5, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_clips_children_to_their_parent():
    spans = [_span(2.0, 4.0), _span(1.0, 3.0, 0), _span(3.5, 9.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(0.5)


def test_span_layers_sums_self_time_and_calls_per_layer():
    spans = [_span(0.0, 4.0, name="run.measure"),
             _span(1.0, 3.0, 0, name="run.solve"),
             _span(5.0, 6.0, name="run.solve")]
    totals = layers.span_layers(spans)
    assert totals["run.measure.self_s"] == pytest.approx(2.0)
    assert totals["run.solve.self_s"] == pytest.approx(3.0)
    assert totals["run.solve.calls"] == 2
    assert totals["generate.epi.self_s"] == 0.0


def test_tracer_records_parents_and_shares_ids():
    recorder = tracer.Tracer()
    inner = recorder.wrap("run.solve", lambda: None)
    outer = recorder.wrap("experiment", lambda: inner(),
                          lambda *_: "fig7a")
    outer()
    spans = recorder.snapshot()
    assert [s["name"] for s in spans] == ["experiment", "run.solve"]
    assert spans[1]["parent"] == 0
    assert [s["id"] for s in spans] == ["fig7a", "fig7a"]
    assert spans[0]["start"] <= spans[1]["start"] <= spans[1]["end"]
    assert spans[1]["end"] <= spans[0]["end"]


# -- percentiles -----------------------------------------------------------

def test_percentile_needs_ten_samples_beyond_it():
    assert stats.percentile(range(1000), 99) == 989
    assert stats.percentile(range(999), 99) is None
    assert stats.percentile(range(100), 90) == 89
    assert stats.percentile(range(99), 90) is None
    assert stats.percentile([], 50) is None


def test_median_is_always_reported():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([]) is None


# -- metric names and units ------------------------------------------------

def test_benchmark_json_matches_the_harness():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCHMARK["per_layer"]] == layers.PER_LAYER
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


def test_every_metric_name_is_well_formed_and_has_a_unit():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", entry["name"])
        assert entry["unit"]
    stats.check_metrics({n: stats.metric(1.0, "s") for n in names})


def test_report_prints_every_metric_with_its_unit_and_json_last():
    result = {
        "metrics": {"setup_s": stats.metric(1.25, "s"),
                    "wall_s": stats.metric(0.05, "s"),
                    "peak_rss_mb": stats.metric(205.0, "MB")},
        "also": {"hot_p99_ms": stats.metric(None, "ms"),
                 "qps": stats.metric(1500.0, "1/s")},
        "attempted": 200, "failed": 3, "info": {},
    }
    lines = run.report("perfbench serve-mixed", {"seed": 1}, result)
    rows = {line.split()[0]: line.split()[1:] for line in lines
            if line.startswith("  ")}
    assert rows == {"setup_s": ["1.25", "s"], "wall_s": ["0.05", "s"],
                    "peak_rss_mb": ["205", "MB"], "hot_p99_ms": ["n/a", "ms"],
                    "qps": ["1500", "1/s"], "error_rate": ["0.015", "ratio"]}
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert (last["correct"], last["attempted"], last["failed"]) == (
        False, 200, 3
    )
    assert last["metrics"] == result["metrics"]


@pytest.mark.parametrize("metrics", [
    {"bad name": {"value": 1.0, "unit": "s"}},
    {"wall_s": {"value": 1.0, "unit": ""}},
    {"wall_s": {"value": 1.0}},
    {"wall_s": {"value": None, "unit": "s"}},
    {"wall_s": {"value": float("nan"), "unit": "s"}},
])
def test_check_metrics_rejects_malformed_records(metrics):
    with pytest.raises(ValueError):
        stats.check_metrics(metrics)


# -- error rate ------------------------------------------------------------

def _hot_reply(checker, index, **changes):
    reply = {"ok": True, "tier": "hot",
             "fingerprint": checker.fingerprints[index],
             "elapsed_ms": 0.1, "result": checker.results[index]}
    reply.update(changes)
    return json.dumps(reply).encode()


def test_error_rate_counts_busy_non_ok_and_mismatched_replies():
    checker = serve_load.Checker()
    assert checker.check("hot", 0, _hot_reply(checker, 0)) is not None
    busy = {"ok": False, "status": "busy", "retry_after_s": 0.1}
    assert checker.check("hot", 1, json.dumps(busy).encode()) is None
    error = {"ok": False, "status": "error", "error": "boom"}
    assert checker.check("novel", None, json.dumps(error).encode()) is None
    wrong = dict(checker.results[2], max_p2p=1.0)
    assert checker.check("hot", 2, _hot_reply(checker, 2, result=wrong)) is None
    assert checker.check("hot", 3, _hot_reply(checker, 4)) is None
    assert (checker.attempted, checker.failed) == (5, 4)
    assert stats.error_rate(checker.failed, checker.attempted) == 0.8


def test_replies_for_one_fingerprint_must_agree_across_tiers():
    checker = serve_load.Checker()
    result = checker.results[5]
    first = {"ok": True, "tier": "executed", "fingerprint": "f" * 64,
             "elapsed_ms": 40.0, "result": result}
    again = dict(first, tier="hot",
                 result=dict(result, worst_vmin=result["worst_vmin"] + 1e-9))
    assert checker.check("novel", None, json.dumps(first).encode())
    assert checker.check("novel", None, json.dumps(again).encode()) is None


@pytest.fixture
def exports(tmp_path):
    texts, digests = campaign.load_references()
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    return tmp_path, texts, digests


def test_identical_exports_pass(exports):
    out, texts, digests = exports
    assert campaign.check_exports(out, texts, digests) == []


def test_missing_and_mismatched_exports_fail(exports):
    out, texts, digests = exports
    (out / "fig9.json").unlink()
    data = json.loads(texts["fig11a.json"])
    data["data"]["max_noise"] += 1.0
    (out / "fig11a.json").write_text(json.dumps(data, indent=2))
    (out / "fig7a.txt").write_text(texts["fig7a.txt"] + "extra\n")
    failed = campaign.check_exports(out, texts, digests)
    assert sorted(failed) == ["fig11a.json", "fig7a.txt", "fig9.json"]


def test_exports_within_the_kernel_tolerance_pass(exports):
    out, texts, digests = exports
    data = json.loads(texts["fig11a.json"])
    data["data"]["max_noise"] += 1e-7
    (out / "fig11a.json").write_text(json.dumps(data))
    assert campaign.check_exports(out, texts, digests) == []


def test_text_comparison_tolerates_only_small_numeric_drift():
    assert stats.text_close("v = 1.0000001 V", "v = 1.0000000 V")
    assert not stats.text_close("v = 1.001 V", "v = 1.000 V")
    assert not stats.text_close("v = 1.0 V", "w = 1.0 V")


# -- request stream ----------------------------------------------------------

def _take(seed, n=2000):
    return list(itertools.islice(serve_load.request_stream(seed), n))


def test_one_seed_always_yields_the_same_stream():
    assert _take(7) == _take(7)


def test_two_seeds_yield_different_streams():
    assert _take(7) != _take(8)
    novel = [data for kind, _, data in _take(7) if kind == "novel"]
    other = [data for kind, _, data in _take(8) if kind == "novel"]
    assert not set(novel) & set(other)


def test_every_block_holds_exactly_one_novel_request():
    stream = _take(3, 30 * serve_load.BLOCK)
    for start in range(0, len(stream), serve_load.BLOCK):
        block = stream[start:start + serve_load.BLOCK]
        assert sum(kind == "novel" for kind, _, _ in block) == 1
    novel = [data for kind, _, data in stream if kind == "novel"]
    hot = {data for kind, _, data in stream if kind == "hot"}
    assert len(set(novel)) == len(novel)
    assert not set(novel) & hot


def test_hot_draws_are_skewed():
    counts = {}
    for kind, index, _ in _take(5, 20000):
        if kind == "hot":
            counts[index] = counts.get(index, 0) + 1
    ranked = sorted(counts.values(), reverse=True)
    assert len(ranked) == serve_load.HOT_SET_SIZE
    assert ranked[0] > 10 * ranked[-1]


# -- failure without the program -------------------------------------------

def test_run_fails_without_program_sources(tmp_path, monkeypatch, capsys):
    bench = tmp_path / "perfbench"
    shutil.copytree(Path(run.__file__).parent, bench,
                    ignore=shutil.ignore_patterns("tests", "__pycache__"))
    monkeypatch.setattr(run, "ROOT", tmp_path)
    status = run.main(["--workload", "campaign-cold", "--seed", "1",
                       "--seconds", "1"])
    assert status != 0
    assert capsys.readouterr().out == ""
