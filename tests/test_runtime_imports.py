"""The package runs on numpy alone; scipy is a test dependency only.

Each test starts a fresh interpreter, so what an earlier test imported cannot
hide an import the package itself makes. ``sys.modules["scipy"] = None``
makes every ``import scipy...`` fail there with ImportError.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

QUAD = {"family": "quadratic", "dim": 2, "curvature": 1.0, "scatter": 1.0,
        "pop_oracle_size": 300}
TRAIN = {"problem": {"family": "mlp", "in_dim": 3, "hidden": 4, "classes": 3,
                     "pop_oracle_size": 200},
         "train": {"n": 40, "b": 8, "lr": 0.2, "steps": 60, "log_every": 10,
                   "log_lambda1": True},
         "seed": 1}
TERMINAL = {"problem": QUAD,
            "train": {"n": 8, "b": 2, "lr": 0.1, "steps": 60, "mode": "sde",
                      "log_every": 60, "tail_checkpoints": 6,
                      "tail_spacing": 2},
            "bounds": ["fim-takeuchi", "terminal-loo"],
            "ensemble": {"dataset_seeds": 2, "run_seeds": 2},
            "seed": 1}

WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from gradnoise.bounds import influence_estimate
from gradnoise.harness import run_cli
from gradnoise.problems import QuadraticSpec, build_problem, generate_dataset

tmp = sys.argv[1]
for command, name in (("train", "train"), ("bounds-terminal", "terminal")):
    code = run_cli([command, "--config", f"{tmp}/{name}.json",
                    "--out", f"{tmp}/{name}"])
    assert code == 0, (command, code)
spec = QuadraticSpec(curvature=np.diag([0.5, 1.0, 2.0]), center=np.zeros(3),
                     scatter=1.0, pop_oracle_size=50)
dataset = generate_dataset(spec, seed=0, n=50)
w_star = dataset.features.mean(axis=0)
estimate = influence_estimate(build_problem(spec), w_star, dataset, index=3)
exact = (w_star - dataset.features[3]) / 49
assert np.allclose(estimate * 50 / 49, exact, rtol=0, atol=1e-8), estimate
"""


def _python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_and_influence_run_without_scipy(tmp_path):
    """train with log_lambda1, bounds-terminal with fim-takeuchi and
    terminal-loo, and influence_estimate, with scipy unimportable."""
    (tmp_path / "train.json").write_text(json.dumps(TRAIN))
    (tmp_path / "terminal.json").write_text(json.dumps(TERMINAL))
    _python(WITHOUT_SCIPY, tmp_path)
    with open(tmp_path / "train" / "trajectory.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 7
    assert all(math.isfinite(float(row["lambda1"])) for row in rows)
    with open(tmp_path / "terminal" / "bounds.csv", newline="") as f:
        names = [row["name"] for row in csv.DictReader(f)]
    assert names == ["fim-takeuchi", "terminal-loo"]


def test_importing_the_harness_loads_no_scipy():
    """Nor does it leave numpy.random to the first stream an invocation draws."""
    loaded = json.loads(_python(
        "import json, sys; import gradnoise.harness; "
        "print(json.dumps(sorted(sys.modules)))"))
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []
    assert "numpy.random" in loaded
