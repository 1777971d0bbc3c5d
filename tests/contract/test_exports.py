"""Every export of a full-fidelity ``run all`` reproduces the committed
``results/``.

A file passes when its bytes equal the committed file.  A ``.json``
that differs passes only if every number is within the compiled
kernel's tolerance and everything else is equal; any other difference
fails, naming the file and the largest deviation.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro.pdn.kernels import KERNEL_TOLERANCE_V

from .conftest import RESULTS

#: File name → sha256, as committed in ``results/SHA256SUMS``.
DIGESTS = {
    name: digest
    for digest, name in map(
        str.split, (RESULTS / "SHA256SUMS").read_text().splitlines()
    )
}

#: What ``run all --output`` writes besides the contract's exports.
NOT_EXPORTS = {"telemetry.json", "campaign-manifest.json"}


def largest_deviation(ours, reference, where: str = "") -> tuple[float, str]:
    """The largest number deviation between two decoded JSON values and
    where it sits; ``inf`` where anything but a number differs.  A
    number deviates by ``|ours - reference| / max(1, |reference|)``:
    absolute at volt scale, relative above it."""
    if isinstance(ours, bool) or isinstance(reference, bool):
        same = type(ours) is type(reference) and ours == reference
        return (0.0 if same else math.inf), where
    if isinstance(ours, (int, float)) and isinstance(reference, (int, float)):
        return abs(ours - reference) / max(1.0, abs(reference)), where
    if isinstance(ours, dict) and isinstance(reference, dict):
        if ours.keys() != reference.keys():
            return math.inf, where
        pairs = [(ours[k], reference[k], f"{where}.{k}") for k in reference]
    elif isinstance(ours, list) and isinstance(reference, list):
        if len(ours) != len(reference):
            return math.inf, where
        pairs = [
            (a, b, f"{where}[{i}]")
            for i, (a, b) in enumerate(zip(ours, reference))
        ]
    else:
        return (0.0 if ours == reference else math.inf), where
    return max(
        (largest_deviation(*pair) for pair in pairs),
        key=lambda found: found[0],
        default=(0.0, where),
    )


def test_run_all_writes_exactly_the_contract_files(full_run):
    written = {path.name for path in full_run.iterdir()} - NOT_EXPORTS
    assert written == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_export_reproduces_results(full_run, name):
    reference = (RESULTS / name).read_bytes()
    ours = (full_run / name).read_bytes()
    if ours != reference:
        assert name.endswith(".json"), f"{name} differs from results/{name}"
        deviation, where = largest_deviation(
            json.loads(ours), json.loads(reference)
        )
        assert deviation <= KERNEL_TOLERANCE_V, (
            f"{name}: largest deviation {deviation:.3g} at {where or '$'} "
            f"(|ours - results| / max(1, |results|)) exceeds "
            f"KERNEL_TOLERANCE_V ({KERNEL_TOLERANCE_V:g})"
        )
    assert hashlib.sha256(reference).hexdigest() == DIGESTS[name], (
        f"results/{name} does not match results/SHA256SUMS"
    )


def test_comparator_reports_the_largest_deviation():
    ours = {"data": {"a": [1.0, 0.5], "b": True}}
    reference = {"data": {"a": [1.0, 0.5 + 1e-4], "b": True}}
    assert largest_deviation(ours, reference) == (
        pytest.approx(1e-4), ".data.a[1]"
    )
    assert largest_deviation({"x": 1e6}, {"x": 1e6 + 1.0})[0] == (
        pytest.approx(1e-6)
    )
    assert largest_deviation({"x": "a"}, {"x": "b"}) == (math.inf, ".x")
    assert largest_deviation([1, 2], [1]) == (math.inf, "")
    assert largest_deviation({"x": True}, {"x": 1}) == (math.inf, ".x")
