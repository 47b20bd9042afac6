"""The benchmark's traced mode still reaches every bound and the step loop.

``perfbench/tracer.py`` wraps functions by rebinding module attributes, so a
renamed traced function, or a dispatch path that holds a function object the
rebinding cannot see, would drop out of ``--trace 1`` without an error. These
tests run ``perfbench/child.py --trace`` on tiny configs and read the spans,
which must also carry every per-layer metric ``BENCHMARK.json`` names.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

QUAD = {"family": "quadratic", "dim": 2, "curvature": 1.0, "scatter": 1.0,
        "pop_oracle_size": 300}
# Per case: its config, the bound functions it must reach and the linalg
# functions it must reach (the tape's pass decomposes each chunk's GNCs and
# takes their log-determinants), and the wrapped linalg functions it must not
# reach: every tape scalar comes from the stacked eigenpairs, so no bound
# takes the diagonal log sums of a floored reconstruction.
CASES = {
    "bounds-terminal": (
        {"problem": QUAD,
         "train": {"n": 8, "b": 2, "lr": 0.1, "steps": 60, "mode": "sde",
                   "tail_checkpoints": 6, "tail_spacing": 2, "log_every": 60},
         "ensemble": {"dataset_seeds": 2, "run_seeds": 2}},
        ("terminal_bound_general", "terminal_bound_anisotropic",
         "terminal_bound_isotropic", "terminal_bound_loo", "fim_takeuchi_bound"),
        (), (),
    ),
    "bounds-traj": (
        {"problem": QUAD,
         "train": {"n": 6, "b": 1, "lr": 0.1, "steps": 5, "mode": "sde"},
         "ensemble": {"dataset_seeds": 1, "run_seeds": 2}},
        ("tape_from_records", "traj_bound_isotropic", "traj_bound_langevin",
         "traj_bound_anisotropic", "traj_bound_data_dependent",
         "terminal_bound_gradient_accum"),
        ("spd_from_matrix", "log_det"), ("trace_log_diag",),
    ),
}


def _summarize(spans):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.summarize(spans)


def _traced_metrics(command, config, tmp_path):
    """Per-layer metrics of one traced ``child.py`` run of ``command``."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    result_path, spans = tmp_path / "result.json", tmp_path / "spans.npz"
    spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(result_path),
         repr(spawn), str(ROOT / "src"), command, str(config_path),
         str(tmp_path / "out"), "--trace", str(spans)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(result_path.read_text())["exit_code"] == 0, proc.stderr
    return _summarize(spans)


@pytest.mark.parametrize("command", sorted(CASES))
def test_traced_run_reaches_every_bound(command, tmp_path):
    config, functions, linalg_functions, unreached = CASES[command]
    metrics = _traced_metrics(command, config, tmp_path)
    for name in functions:
        assert metrics[f"bounds.{name}.calls"] >= 1, name
    for name in linalg_functions:
        assert metrics[f"linalg.{name}.calls"] >= 1, name
    for name in unreached:
        assert metrics[f"linalg.{name}.calls"] == 0, name
    assert metrics["dynamics.sde_step.calls"] >= 1
    # run.py adds these two itself; every other per-layer metric must come
    # from the spans, or a traced benchmark run fails looking it up.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = {s["name"] for s in bench["per_layer"]} - set(metrics) - {
        "harness.output_bytes", "trace.overhead_s"}
    assert not missing, sorted(missing)


def test_traced_sgd_run_reaches_the_step_loop(tmp_path):
    """An SGD train run passes through the wrapped ``_run`` and
    ``sgd_step``, and each step's ``mean_grad``."""
    config = {"problem": QUAD,
              "train": {"n": 8, "b": 2, "lr": 0.1, "steps": 5, "log_every": 5}}
    metrics = _traced_metrics("train", config, tmp_path)
    assert metrics["dynamics.run.calls"] == 1
    assert metrics["dynamics.sgd_step.calls"] == 5
    assert metrics["problems.mean_grad.calls"] >= 5
    assert metrics["dynamics.updates"] == 5
