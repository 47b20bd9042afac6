"""The four benchmark workloads: config generation and output checks.

Each workload is one ``gradnoise`` CLI invocation. ``make_config`` turns a
benchmark seed into a JSON config (same seed, same config, byte for byte);
``check_outputs`` reads what the invocation wrote and counts operations
(training runs and bound evaluations) attempted and failed.

Only the MLP warm start touches the package (its public
``init_from_teacher``); everything else here is plain data and file parsing.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

TRAJECTORY_HEADER = ["step", "train_loss", "test_loss", "grad_norm_sq",
                     "trace_c", "dist_init", "lambda1", "gap"]
BOUNDS_HEADER = ["name", "value", "core", "n_runs_used", "flags",
                 "R", "M", "n", "b", "eta", "T"]

# CLI bound name -> (report name in bounds.csv, scale column: R or M).
BOUND_REPORTS = {
    "terminal-general": ("terminal-general", "R"),
    "terminal-anisotropic": ("terminal-anisotropic", "R"),
    "terminal-isotropic": ("terminal-isotropic", "R"),
    "fim-takeuchi": ("fim-takeuchi", "M"),
    "traj-isotropic": ("trajectory-isotropic", "R"),
    "traj-langevin": ("trajectory-langevin", "R"),
    "traj-anisotropic": ("trajectory-anisotropic", "R"),
    "traj-data-dependent": ("trajectory-data-dependent", "M"),
    "terminal-gradient-accum": ("terminal-gradient-accumulation", "R"),
}

# Criterion-8 quadratic: A = diag(a), scatter diag(s), n=50, b=1, eta=2. The
# analytic terminal cores of this problem (tests/test_acceptance.py pins
# them to 5e-5) anchor the quad-sde-ensemble check. The slowest mode relaxes
# in 1/(eta a) = 25 steps, so 300 steps (half of criterion 8) leave the
# 40 x 3 tail stationary at half the cost.
QUAD_CURVATURE = (0.02, 0.025, 0.03)
QUAD_SCATTER = (1.0, 0.8, 1.2)
QUAD_ANCHORS = {"terminal-general": 0.13261, "terminal-anisotropic": 0.13544}
# Largest allowed |core / anchor - 1| at 16 x 4 runs of 300 steps (smaller
# grids let the anisotropic core collapse to 0 on some seeds). Frozen from the
# 40-seed sweep recorded in anchor_sweep.json (rule in anchor_sweep.py: the
# widest mean +- 4.5 sd of the two cores, sd ~0.11); never widen it.
QUAD_ANCHOR_TOLERANCE = 0.6

MLP = {"family": "mlp", "in_dim": 5, "hidden": 8, "classes": 3}
MLP_WARM_START_SCALE = 0.5


def _seeds(seed, label, count):
    """Independent 31-bit seeds for one workload, derived from the bench seed."""
    rng = np.random.default_rng([int(seed), sum(map(ord, label))])
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=count)]


def _mlp_warm_start(teacher_seed):
    """Teacher parameters times MLP_WARM_START_SCALE, shared by every run.

    Uses the package's public ``MlpProblem.init_from_teacher``; the caller has
    put the checkout's ``src`` on ``sys.path``.
    """
    from gradnoise.problems import MlpSpec, build_problem

    spec = MlpSpec(in_dim=MLP["in_dim"], hidden=MLP["hidden"],
                   classes=MLP["classes"], teacher_seed=teacher_seed)
    w0 = build_problem(spec).init_from_teacher(MLP_WARM_START_SCALE)
    return [float(x) for x in w0]


def _quad_config(seed):
    ds, run, oracle = _seeds(seed, "quad-sde-ensemble", 3)
    return "bounds-terminal", {
        "problem": {"family": "quadratic", "dim": 3,
                    "curvature": np.diag(QUAD_CURVATURE).tolist(),
                    "center": 0.0,
                    "scatter": np.diag(QUAD_SCATTER).tolist(),
                    "pop_oracle_size": 4000},
        "train": {"n": 50, "b": 1, "lr": 2.0, "steps": 300, "mode": "sde",
                  "burn_in": 150, "tail_checkpoints": 40, "tail_spacing": 3,
                  "dataset_seed": ds},
        "bounds": ["terminal-general", "terminal-anisotropic",
                   "terminal-isotropic", "fim-takeuchi"],
        "ensemble": {"dataset_seeds": 16, "run_seeds": 4},
        "seed": run, "oracle_seed": oracle,
    }


def _logistic_config(seed):
    ds, run, oracle = _seeds(seed, "logistic-traj-bounds", 3)
    return "bounds-traj", {
        "problem": {"family": "logistic", "dim": 20, "separation": 2.0,
                    "pop_oracle_size": 10000},
        "train": {"n": 500, "b": 10, "lr": 0.5, "steps": 100,
                  "dataset_seed": ds},
        "bounds": ["traj-isotropic", "traj-langevin", "traj-anisotropic",
                   "traj-data-dependent", "terminal-gradient-accum"],
        "ensemble": {"dataset_seeds": 2, "run_seeds": 2},
        "g_tilde": "population-gradient",
        "seed": run, "oracle_seed": oracle,
    }


def _mlp_base(label, seed):
    ds, run, oracle, teacher = _seeds(seed, label, 4)
    problem = dict(MLP, teacher_seed=teacher)
    train = {"n": 400, "b": 8, "lr": 0.5, "dataset_seed": ds,
             "w0": _mlp_warm_start(teacher)}
    return problem, train, {"seed": run, "oracle_seed": oracle}


def _mlp_terminal_config(seed):
    problem, train, seeds = _mlp_base("mlp-terminal-bounds", seed)
    train.update(steps=2000, log_every=2000, tail_checkpoints=20,
                 tail_spacing=10)
    return "bounds-terminal", dict(
        problem=problem, train=train,
        bounds=["terminal-general", "terminal-anisotropic"],
        ensemble={"dataset_seeds": 2, "run_seeds": 4}, **seeds)


def _mlp_train_config(seed):
    # Power-iteration cost follows the trajectory: over 8 seeds the HVP count
    # of a 1000-step run had IQR/median 0.56, with the batch order alone
    # enough to move it. So the trajectory (teacher, dataset, w0, run seed)
    # is fixed and the bench seed draws only the held-out oracle sample.
    problem, train, seeds = _mlp_base("mlp-train-spectral", 0)
    seeds["oracle_seed"] = _seeds(seed, "mlp-train-spectral-oracle", 1)[0]
    train.update(steps=4000, log_every=20, log_lambda1=True,
                 record_weights=True)
    return "train", dict(problem=problem, train=train, **seeds)


WORKLOADS = {
    "quad-sde-ensemble": _quad_config,
    "logistic-traj-bounds": _logistic_config,
    "mlp-terminal-bounds": _mlp_terminal_config,
    "mlp-train-spectral": _mlp_train_config,
}


def make_config(workload, seed):
    """Return (CLI subcommand, config dict) for one workload and bench seed."""
    return WORKLOADS[workload](seed)


def _finite(text):
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def read_bounds(out):
    """(header, {report name: row dict}) of an invocation's bounds.csv."""
    header, rows = _read_csv(Path(out) / "bounds.csv")
    return header, {row[0]: dict(zip(header, row)) for row in rows}


def _check_bounds(workload, config, out):
    """Return (failed training runs, failed bounds, messages)."""
    grid = config["ensemble"]["dataset_seeds"] * config["ensemble"]["run_seeds"]
    header, by_name = read_bounds(out)
    if header != BOUNDS_HEADER:
        return grid, len(config["bounds"]), [f"bounds.csv header {header}"]
    reports = json.loads((out / "bounds.json").read_text())
    json_names = [r["name"] for r in reports]
    if json_names != list(by_name):
        return grid, len(config["bounds"]), ["bounds.json and bounds.csv differ"]
    failed_runs = 0
    failed_bounds = 0
    messages = []
    for name in config["bounds"]:
        report, scale_key = BOUND_REPORTS[name]
        row = by_name.get(report)
        problems = []
        if row is None:
            problems.append("missing")
        elif not (_finite(row["value"]) and _finite(row["core"])):
            problems.append(f"not finite: value={row['value']} core={row['core']}")
        else:
            value, core = float(row["value"]), float(row["core"])
            scale = float(row[scale_key])
            used = int(row["n_runs_used"])
            if core < 0:
                problems.append(f"core {core} < 0")
            if value != core * scale:
                problems.append(f"value {value} != core*{scale_key}")
            if used != grid:
                problems.append(f"n_runs_used {used} != grid {grid}")
                failed_runs = max(failed_runs, grid - used)
            if "diverged-runs" in row["flags"].split("|"):
                failed_runs = max(failed_runs, 1)
            anchor = QUAD_ANCHORS.get(name) if workload == "quad-sde-ensemble" else None
            if anchor is not None and abs(core / anchor - 1.0) > QUAD_ANCHOR_TOLERANCE:
                problems.append(f"core {core:.5f} is off the anchor {anchor}")
        if problems:
            failed_bounds += 1
            messages.append(f"{name}: " + "; ".join(problems))
    return failed_runs, failed_bounds, messages


def _check_train(config, out):
    """Return (failed training runs, messages) for the train subcommand."""
    train = config["train"]
    header, rows = _read_csv(out / "trajectory.csv")
    if header != TRAJECTORY_HEADER:
        return 1, [f"trajectory.csv header {header}"]
    expected = [str(s) for s in range(0, train["steps"] + 1, train["log_every"])]
    messages = []
    if [row[0] for row in rows] != expected:
        messages.append(f"trajectory.csv has {len(rows)} rows, expected "
                        f"{len(expected)} (diverged?)")
    if not all(_finite(x) for row in rows for x in row):
        messages.append("trajectory.csv holds a non-finite value")
    weights = json.loads((out / "weights.json").read_text())
    dim = len(train["w0"])
    if [str(s) for s in weights["steps"]] != expected or any(
            len(w) != dim for w in weights["weights"]):
        messages.append("weights.json does not match the logged steps")
    if weights["w0"] != train["w0"]:
        messages.append("weights.json w0 differs from the config")
    return (1 if messages else 0), messages


def check_outputs(workload, command, config, out_dir, exit_code):
    """Check one invocation's outputs; return (attempted, failed, messages).

    Operations are training runs and bound evaluations. A run fails if it
    diverges; a bound fails if it is missing or not finite, or if a check on
    it fails. A nonzero exit fails every operation of the invocation.
    """
    out = Path(out_dir)
    if command == "train":
        attempted = 1
    else:
        ens = config["ensemble"]
        attempted = ens["dataset_seeds"] * ens["run_seeds"] + len(config["bounds"])
    if exit_code != 0:
        return attempted, attempted, [f"exit code {exit_code}"]
    try:
        if command == "train":
            failed, messages = _check_train(config, out)
        else:
            runs, bounds, messages = _check_bounds(workload, config, out)
            failed = runs + bounds
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return attempted, attempted, [f"unreadable output: {exc!r}"]
    return attempted, failed, messages
