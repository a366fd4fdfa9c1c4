"""The package surface and the benchmark's entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import costap as cs

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_every_public_name():
    public = {name for name, value in vars(cs).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert set(cs.__all__) == public
    assert len(cs.__all__) == len(public)
    for name in cs.__all__:
        assert getattr(cs, name) is not None
    for name in ("run", "qcqp_solve", "sdp_dual_solve", "cls_solve", "direct_update",
                 "bisect_root", "hermitian_sqrt", "CostapError", "main"):
        assert name in cs.__all__
    assert "waveform_solvers" not in cs.__all__


def test_star_import_matches_all():
    namespace = {}
    exec("from costap import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(cs.__all__)


def test_benchmark_lists_its_metrics():
    # the benchmark resolves its traced functions by name at import time,
    # so a rename in the package fails here
    out = subprocess.run([sys.executable, "bench/run.py", "--list-metrics"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert "matrix_ops.bisect_root.evals" in out.stdout


def test_benchmark_ladder_runs_every_route():
    # the traced mode's ladder calls the routes and the bundle's target map
    # with their own arguments, outside any run; a signature change there
    # fails here, not only in a full benchmark run
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "mc-demo", "--seed",
                          "1", "--seconds", "1", "--trace", "1"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]
    record = json.loads(out.stdout.strip().splitlines()[-1])
    assert record["correct"] is True
    for route in ("direct_update", "qcqp_solve", "sdp_dual_solve", "cls_solve"):
        assert f"ladder.mnl320_q25.waveform_solvers.{route}.s" in record["metrics"], route


def test_benchmark_self_tests_pass():
    # bench/test_bench.py pins the traced names and the per-run call counts
    # of the benchmark; a refactor that breaks either fails here
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "bench/test_bench.py"], cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stdout[-4000:] + out.stderr[-2000:]


def test_run_loads_no_scipy_signal():
    # scipy.signal costs tens of MB and most of a second to import; the
    # KMS noise term needs only scipy.linalg's banded solvers
    code = ("import sys, costap\n"
            "cfg = costap.load_scenario(costap.default_scenario_path())\n"
            "costap.run(cfg, 'qcqp', max_iter=1, rescale=True)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_python_m_costap_runs_the_cli():
    # a package __main__ runs the CLI without re-importing harness_cli,
    # which `python -m costap.harness_cli` does with a RuntimeWarning
    out = subprocess.run([sys.executable, "-m", "costap", "--help"], cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(
                             [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])})
    assert out.returncode == 0, out.stderr
    assert "usage: costap" in out.stdout
    assert "RuntimeWarning" not in out.stderr
