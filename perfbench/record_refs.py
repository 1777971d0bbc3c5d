"""Re-record the correctness references under ``perfbench/refs``.

    python3 perfbench/record_refs.py

Run it only when a change is meant to alter the program's outputs, and
say so in that change.  It records the quick ``run all`` exports (text
plus sha256 digests) and the serve hot set's fingerprints and results.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import shutil
import sys

import campaign
import serve_load
from program import Program
from run import ROOT


def record_campaign(program: Program) -> None:
    out = program.work / "out"
    _, done = program.run(
        campaign.run_all_args(program.work / "cache", out)
    )
    if done.status != 0:
        raise SystemExit(f"run all exited {done.status}")
    texts = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(out.iterdir())
        if path.suffix in (".json", ".txt")
        and path.name not in ("telemetry.json", "campaign-manifest.json")
    }
    payload = json.dumps(texts, sort_keys=True).encode("utf-8")
    with open(campaign.REFS, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                           filename="") as handle:
            handle.write(payload)
    campaign.DIGESTS.write_text("".join(
        f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {name}\n"
        for name, text in texts.items()
    ))


def record_serve(program: Program) -> None:
    child, port, _ = serve_load.start_server(program, False)
    conn = serve_load.Connection(port)
    try:
        entries = []
        for request in serve_load.hot_set():
            reply = conn.request(request)
            if not reply.get("ok"):
                raise SystemExit(f"hot-set request failed: {reply}")
            entries.append({"fingerprint": reply["fingerprint"],
                            "result": reply["result"]})
    finally:
        conn.close()
    serve_load.stop_server(child, port)
    serve_load.HOT_REFS.write_text(json.dumps(entries, indent=1) + "\n")


def main() -> int:
    work = ROOT / ".perfbench_work" / "record-refs"
    work.mkdir(parents=True, exist_ok=True)
    program = Program(ROOT, work)
    try:
        campaign.REFS_DIR.mkdir(exist_ok=True)
        record_campaign(program)
        record_serve(program)
    finally:
        program.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    print(f"references written under {campaign.REFS_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
