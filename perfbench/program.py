"""Fresh program processes, started and reaped from outside.

Every invocation is ``python3 perfbench/launch.py`` running the CLI of
the checkout's ``src/`` in a new interpreter, with the user's
``REPRO_*`` settings removed so only the arguments choose behaviour.
The BLAS thread count is left at the library default.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

LAUNCHER = Path(__file__).resolve().with_name("launch.py")


class BenchError(RuntimeError):
    """The program could not run the workload at all."""


def program_env(root: Path) -> dict:
    """The environment every program process runs under."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_") and key != "PYTHONPATH"
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


@dataclass
class Exit:
    """One finished invocation as seen from outside."""

    status: int
    wall_s: float
    setup_s: float
    import_s: float
    peak_rss_mb: float
    spans: list = field(default_factory=list)


class Child:
    """One running program process."""

    def __init__(self, program: "Program", args: list[str], trace: bool,
                 tag: str):
        self.report = program.work / f"{tag}.report.json"
        self.log = program.work / f"{tag}.log"
        self.report.unlink(missing_ok=True)
        command = [sys.executable, str(LAUNCHER), str(self.report),
                   "1" if trace else "0", "--", *args]
        with open(self.log, "wb") as log:
            self.spawned = time.monotonic()
            self.proc = subprocess.Popen(
                command, cwd=program.work, env=program.env,
                stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait(self, timeout: float) -> Exit:
        """Reap the process (killing it after *timeout* seconds) and
        read its launcher report."""
        killer = threading.Timer(timeout, self.proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            killer.cancel()
        ended = time.monotonic()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            report = json.loads(self.report.read_text())
        except (OSError, ValueError):
            report = {}
        imported = report.get("imported")
        return Exit(
            status=self.proc.returncode,
            wall_s=ended - self.spawned,
            setup_s=(imported - self.spawned) if imported else float("nan"),
            import_s=(
                imported - report["import_start"] if imported else float("nan")
            ),
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            spans=report.get("spans", []),
        )

    def log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log.read_text().splitlines()[-lines:])
        except OSError:
            return ""


class Program:
    """The checkout's program, run from a private work directory."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = program_env(root)
        self.children: list[Child] = []

    def compile_sources(self) -> None:
        """Byte-compile ``src/`` up front (a no-op when up to date), so
        no timed process pays a fresh checkout's first import."""
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(self.root / "src")],
            env=self.env, check=True, timeout=170,
            stdout=subprocess.DEVNULL,
        )

    def start(self, args: list[str], trace: bool = False) -> Child:
        child = Child(self, args, trace, f"p{len(self.children) + 1:03d}")
        self.children.append(child)
        return child

    def stop_all(self) -> None:
        """Kill and reap every process still running (error paths)."""
        for child in self.children:
            if child.proc.returncode is None:
                child.proc.kill()
                child.proc.wait()

    def run(self, args: list[str], trace: bool = False,
            timeout: float = 170.0) -> tuple[Child, Exit]:
        child = self.start(args, trace)
        return child, child.wait(timeout)
