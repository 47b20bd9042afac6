"""The package runs on numpy alone; scipy is a test dependency only.

Each test starts a fresh interpreter, so what an earlier test imported cannot
hide an import the package itself makes. ``sys.modules["scipy"] = None``
makes every ``import scipy...`` fail there with ImportError. The OpenBLAS
thread count is read in a fresh interpreter too: it is process state, and
one that loaded only numpy holds one OpenBLAS.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
from gradnoise.harness import run_cli

tmp = sys.argv[1]
for command, name in (("train", "train"), ("bounds-terminal", "terminal")):
    code = run_cli([command, "--config", f"{tmp}/{name}.json",
                    "--out", f"{tmp}/{name}"])
    assert code == 0, (command, code)
"""


# Records numpy's OpenBLAS thread count before and after importing the
# harness, then inside and after run_cli: a wrapped train command (exit 0), a
# missing config (exit 2, the command never starts) and a wrapped compare
# command that raises. With "set" as its second argument the script sets 3
# before the calls, a count no default gives on a 1- or 2-core machine, so
# that a restore shows. It also records the process's OS threads inside each
# command and after each call, and the count and threads after a 600 x 600
# GEMM that follows the calls. Prints null where no OpenBLAS is found.
BLAS_THREADS = """
import ctypes, json, os, sys
import numpy

def controls():
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")):
                get, put = (getattr(lib, name.format(op)) for op in ("get", "set"))
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                return get, put, hasattr(lib, "blas_thread_shutdown_")
    return None

def os_threads():
    return len(os.listdir("/proc/self/task"))

found = controls()
if found is None:
    print(json.dumps(None))
    sys.exit()
get, put, parks = found
out = {"parks": parks, "before_import": get()}
from gradnoise import harness
out["after_import"] = get()
if sys.argv[2] == "set":
    put(3)
out["set"] = get()

inside, inside_threads = [], []
train = harness._COMMANDS["train"]

def recording(config, out_dir=None):
    inside.append(get())
    inside_threads.append(os_threads())
    return train(config, out_dir=out_dir)

def failing(config, out_dir=None):
    inside.append(get())
    inside_threads.append(os_threads())
    raise RuntimeError("raised inside the command")

harness._COMMANDS["train"] = recording
harness._COMMANDS["compare"] = failing
tmp = sys.argv[1]
codes, after, after_threads = [], [], []
for command, config in (("train", "train"), ("train", "missing"),
                        ("compare", "train")):
    argv = [command, "--config", f"{tmp}/{config}.json", "--out", f"{tmp}/out"]
    try:
        codes.append(harness.run_cli(argv))
    except RuntimeError:
        codes.append("raised")
    after.append(get())
    after_threads.append(os_threads())
a = numpy.ones((600, 600))
a @ a
out.update(inside=inside, codes=codes, after=after,
           inside_threads=inside_threads, after_threads=after_threads,
           after_gemm=get(), after_gemm_threads=os_threads())
print(json.dumps(out))
"""


def _python(code, *args, env=None):
    env = dict(os.environ if env is None else env, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_commands_run_without_scipy(tmp_path):
    """train with log_lambda1 and bounds-terminal with fim-takeuchi and
    terminal-loo, with scipy unimportable."""
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


def _blas_threads(tmp_path, set_count=True, **env):
    (tmp_path / "train.json").write_text(json.dumps(
        {"problem": QUAD, "train": {"n": 20, "b": 4, "lr": 0.1, "steps": 10},
         "seed": 1}))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    out = json.loads(_python(BLAS_THREADS, tmp_path,
                             "set" if set_count else "keep",
                             env=dict(base, **env)))
    if out is None:
        pytest.skip("no OpenBLAS found")
    return out


def test_run_cli_runs_on_one_blas_thread_and_restores_the_count(tmp_path):
    """Importing the harness leaves the count alone; run_cli sets 1 for the
    command and restores the count it found after exit 0, after a config
    error (exit 2) and after a command that raises."""
    out = _blas_threads(tmp_path)
    assert out["after_import"] == out["before_import"]
    assert out["set"] == 3
    assert out["codes"] == [0, 2, "raised"]
    assert out["inside"] == [1, 1]
    assert out["after"] == [3, 3, 3]


def test_run_cli_parks_the_idle_blas_pool_and_a_gemm_restarts_it(tmp_path):
    """No OpenBLAS worker lives inside a command or after run_cli returns; the
    next threaded GEMM starts the pool again at the restored count."""
    out = _blas_threads(tmp_path)
    if not out["parks"]:
        pytest.skip("OpenBLAS exports no blas_thread_shutdown_")
    assert out["inside_threads"] == [1, 1]
    assert out["after_threads"] == [1, 1, 1]
    assert out["after_gemm"] == 3
    assert out["after_gemm_threads"] > 1


@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_run_cli_keeps_a_blas_thread_count_set_in_the_environment(tmp_path,
                                                                  variable):
    out = _blas_threads(tmp_path, set_count=False, **{variable: "2"})
    assert out["before_import"] == out["after_import"] == out["set"] == 2
    assert out["codes"] == [0, 2, "raised"]
    assert out["inside"] == [2, 2]
    assert out["after"] == [2, 2, 2]


@pytest.mark.parametrize("value", ["", "0"])
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_run_cli_pins_where_the_environment_names_no_count(tmp_path, variable,
                                                          value):
    """OpenBLAS reads an empty or zero variable as unset and takes the core
    count, so run_cli pins one thread as if the variable were absent."""
    out = _blas_threads(tmp_path, **{variable: value})
    assert out["codes"] == [0, 2, "raised"]
    assert out["inside"] == [1, 1]
    assert out["after"] == [3, 3, 3]
