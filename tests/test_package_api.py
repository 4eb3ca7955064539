"""Tests for the top-level public API surface."""

import importlib

import pytest

import repro


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.hardware",
            "repro.games",
            "repro.bench",
            "repro.simulator",
            "repro.profiling",
            "repro.ml",
            "repro.core",
            "repro.baselines",
            "repro.scheduling",
            "repro.experiments",
            "repro.utils",
        ],
    )
    def test_subpackage_alls_resolve(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__, f"{module} missing docstring"
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_public_callables_documented(self):
        # Every public item exported at the top level carries a docstring.
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if callable(obj):
                assert obj.__doc__, f"repro.{name} missing docstring"


class TestImportCost:
    def test_serving_stack_imports_without_scipy(self):
        """scipy is a call-time import: two offline functions use it, nothing else.

        They are the Sigmoid baseline's ``curve_fit`` and the SVM's
        ``minimize``.  At module level scipy was most of what ``import
        repro`` cost (~1 s and ~70 MiB), paid by every serving process
        whether or not it ever fitted a curve or measured a frame series.
        Run in a child process: this one has long since imported scipy
        through some other test.
        """
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys; import repro, repro.serving, repro.sharding; "
            "sys.exit('scipy' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr or "scipy was imported"

    def test_measuring_ground_truth_imports_no_scipy(self):
        """The scene series is an in-repo recurrence, not a scipy filter.

        A QoS ledger measures ground truth on the serving path, so a
        measurement must leave scipy unloaded as well as ``import repro``.
        """
        import os
        import subprocess
        import sys

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            "import sys\n"
            "from repro.games import build_catalog\n"
            "from repro.simulator import GameInstance, run_colocations\n"
            "catalog = build_catalog()\n"
            "games = [GameInstance(catalog.get(n)) for n in ('H1Z1', 'Dota2')]\n"
            "(result,) = run_colocations([games])\n"
            "assert all(fps > 0 for fps in result.fps), result.fps\n"
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "sys.exit(f'scipy loaded: {loaded}' if loaded else 0)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr or "scipy was imported"
