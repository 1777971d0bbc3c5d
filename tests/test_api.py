"""Top-level package API surface tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_symbols(self):
        # The README quickstart's imports must exist at top level.
        assert callable(repro.StressmarkGenerator)
        assert callable(repro.reference_chip)
        assert callable(repro.ChipRunner)
        assert callable(repro.default_target)

    def test_error_hierarchy(self):
        from repro.errors import (
            ConfigError,
            ExperimentError,
            GenerationError,
            IsaError,
            MeasurementError,
            NetlistError,
            ReproError,
            SolverError,
            UarchError,
        )

        for exc in (
            ConfigError, ExperimentError, GenerationError, IsaError,
            MeasurementError, NetlistError, SolverError, UarchError,
        ):
            assert issubclass(exc, ReproError)
            assert issubclass(exc, Exception)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.core
        import repro.experiments
        import repro.isa
        import repro.machine
        import repro.mbench
        import repro.measure
        import repro.mitigation
        import repro.pdn
        import repro.uarch
        import repro.workloads

    def test_cli_import_leaves_heavy_dependencies_unloaded(self):
        """scipy backs only the MNA test oracle and networkx nothing, and
        the process pool is imported where ``--jobs N`` starts it, so
        starting the CLI must load none of them."""
        src = Path(repro.__file__).resolve().parents[1]
        heavy = {
            "scipy",
            "networkx",
            "multiprocessing",
            "concurrent.futures.process",
        }
        script = (
            "import sys\n"
            "import repro.cli\n"
            f"print(sorted({heavy!r} & set(sys.modules)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "[]"

    def test_no_production_module_imports_scipy(self):
        """numpy is the only runtime dependency: importing every module
        of the package loads no scipy (the MNA oracle that needs it
        ships with the tests)."""
        src = Path(repro.__file__).resolve().parents[1]
        script = (
            "import importlib, pkgutil, sys\n"
            "import repro\n"
            "names = [m.name for m in pkgutil.walk_packages("
            "repro.__path__, 'repro.')]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print(len(names), 'scipy' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        count, scipy_loaded = out.stdout.split()
        assert int(count) > 100
        assert scipy_loaded == "False"

    def test_subpackage_alls_resolve(self):
        import repro.analysis as analysis
        import repro.mitigation as mitigation
        import repro.pdn as pdn
        import repro.workloads as workloads

        for module in (analysis, mitigation, pdn, workloads):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"


class TestReadmeQuickstartPath:
    """The README's code path must work verbatim (light settings)."""

    def test_quickstart_flow(self, generator, chip, light_options):
        from repro import ChipRunner

        mark = generator.max_didt(freq_hz=2.6e6, synchronize=True)
        assert "didt" in mark.assembly()
        assert mark.delta_i > 0
        result = ChipRunner(chip).run(
            [mark.current_program()] * 6, light_options
        )
        assert len(result.p2p_by_core) == 6
        assert result.max_p2p > 30.0
