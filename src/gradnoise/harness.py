"""Experiment orchestration: JSON configs, subcommands, CSV/JSON emission.

A JSON experiment config fully determines every output file; re-running a
command with the same config reproduces the files byte for byte. Floats are
written with the %.17g format (round-trip exact), file writes happen only in
the orchestrator after runs complete, and ensembles run serially in a fixed
grid order. :func:`run_cli` runs each command on one OpenBLAS thread (unless
``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set), so the bytes do not
depend on the machine's core count either.

Exit-code contract for :func:`run_cli`: 0 success, 2 configuration error,
3 numerical or divergence error.
"""

import argparse
import ctypes
import json
import numbers
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .dynamics import MODES, TrainConfig, loo_train, run_ensemble, train_run
from .errors import CapabilityError, ConfigError, GradnoiseError
from .gradstats import empirical_gnc, minibatch_gnc
from .linalg import (
    STATIONARY_MODES,
    solve_stationary_covariance,
    stationary_residual,
)
from .problems import (
    LogisticSpec,
    MlpSpec,
    QuadraticSpec,
    build_problem,
    dense_hessian,
    generate_dataset,
    population_oracle_sample,
)

TRAJECTORY_CSV_HEADER = ("step", "train_loss", "test_loss", "grad_norm_sq",
                         "trace_c", "dist_init", "lambda1", "gap")

# Bound name -> (input family, name of its function in ``bounds``, the
# ExperimentConfig fields it takes as keywords). The families are "tape" (a
# TrajectoryTape of the runs, weights recorded), "records" (the runs at the
# config's logging cadence), "ensemble" (the runs, read at their terminal
# state) and "pairs" (full / leave-one-out record pairs). The order fixes the
# row order of bounds.csv. Each function is looked up on ``bounds_mod`` when
# called, so a wrapper rebound onto that module (as perfbench's tracer does)
# reaches it.
_BOUND_TABLE = {
    "traj-isotropic": ("tape", "traj_bound_isotropic", ("g_tilde", "R")),
    "traj-langevin": ("tape", "traj_bound_langevin", ("g_tilde", "R")),
    "traj-anisotropic": ("tape", "traj_bound_anisotropic", ("g_tilde", "R")),
    "traj-data-dependent": ("tape", "traj_bound_data_dependent", ("M",)),
    "terminal-gradient-accum": ("records", "terminal_bound_gradient_accum",
                                ("R",)),
    "terminal-general": ("ensemble", "terminal_bound_general", ("R",)),
    "terminal-anisotropic": ("ensemble", "terminal_bound_anisotropic", ("R",)),
    "terminal-isotropic": ("ensemble", "terminal_bound_isotropic",
                           ("reference", "R")),
    "terminal-loo": ("pairs", "terminal_bound_loo", ("M",)),
    "fim-takeuchi": ("ensemble", "fim_takeuchi_bound", ("M",)),
}
# The bounds that train or evaluate on leave-one-out subsets of n - 1 examples.
_LOO_BOUNDS = ("traj-data-dependent", "terminal-loo")


def _bounds_of(*families):
    return tuple(name for name, (family, *_) in _BOUND_TABLE.items()
                 if family in families)


# The bounds each command evaluates when the config names none; every command
# takes any bound.
TRAJ_BOUNDS = _bounds_of("tape", "records")
TERMINAL_BOUNDS = _bounds_of("ensemble", "pairs")
SWEEP_BOUNDS = _bounds_of("ensemble")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see the README for the JSON schema.

    A top-level, ``ensemble`` or ``stationary`` key the JSON config leaves
    out takes the field default here (``stationary.modes`` fills
    ``stationary_modes``).
    """

    train: TrainConfig
    bound_names: tuple = ()
    stationary_modes: tuple = STATIONARY_MODES
    dataset_seeds: int = 2
    run_seeds: int = 2
    sweep_n: tuple = ()
    out_dir: str = "."
    g_tilde: str = "population-gradient"
    R: float = 1.0
    M: float = 1.0
    reference: str = "grand-mean"
    compare_seeds: int = 10


def _int_at_least(low):
    """Cast to an int >= ``low``; a bool or a non-integral number is rejected."""
    def cast(value):
        if isinstance(value, bool) or int(value) != value:
            raise TypeError("expected an integer")
        if value < low:
            raise ValueError(f"must be >= {low}")
        return int(value)
    return cast


_COUNT = _int_at_least(1)
_SEED = _int_at_least(0)


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite_float(value):
    """Cast a JSON number to a finite float; a bool or a string is rejected."""
    if not _is_number(value):
        raise TypeError("expected a number")
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


def _float_where(test, message):
    """Cast to a finite float for which ``test`` holds."""
    def cast(value):
        value = _finite_float(value)
        if not test(value):
            raise ValueError(message)
        return value
    return cast


_rate = _float_where(lambda x: x > 0, "must be > 0")


def _float_array(value):
    """Cast a JSON number or nested list of numbers to a finite float array."""
    if not all(map(_is_number, np.asarray(value, dtype=object).ravel())):
        raise TypeError("expected numbers")
    value = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(value)):
        raise ValueError("entries must be finite")
    return value


def _names_in(allowed):
    """Cast to a tuple of names, each one of ``allowed``."""
    def cast(value):
        if not isinstance(value, (list, tuple)) or not all(
                isinstance(x, str) for x in value):
            raise TypeError("expected a list of names")
        bad = [x for x in value if x not in allowed]
        if bad:
            raise ValueError("unknown names " + ", ".join(sorted(bad)))
        return tuple(value)
    return cast


def _one_of(*allowed):
    """Cast accepting exactly one of the strings ``allowed``."""
    def cast(value):
        if value not in allowed:
            raise ValueError("expected one of " + ", ".join(allowed))
        return value
    return cast


def _json_bool(value):
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


# Each config section's accepted keys, each with the cast that checks its
# value's type and range. A key the config leaves out is not passed on, so the
# field default of ExperimentConfig, TrainConfig or the problem spec applies.
_TOP = {
    "problem": dict, "train": dict, "ensemble": dict, "stationary": dict,
    "bounds": _names_in(_BOUND_TABLE),
    "sweep_n": lambda ns: tuple(map(_COUNT, ns)),
    "seed": _SEED, "oracle_seed": _SEED, "out_dir": str,
    "g_tilde": _one_of("zero", "population-gradient"),
    "R": _finite_float, "M": _finite_float,
    "reference": _one_of("grand-mean", "init"),
    "compare_seeds": _COUNT,
}
_TRAIN = {
    "n": _COUNT, "b": _COUNT, "steps": _COUNT, "lr": _rate,
    "lr_schedule": lambda pairs: tuple(
        (_int_at_least(-np.inf)(step), _rate(eta)) for step, eta in pairs),
    "mode": _one_of(*MODES), "dataset_seed": _SEED, "log_every": _COUNT,
    "record_weights": _json_bool, "burn_in": _int_at_least(0),
    "w0": lambda w0: None if w0 is None else _float_array(w0),
    "tail_checkpoints": _int_at_least(0), "tail_spacing": _COUNT,
    "log_lambda1": _json_bool,
}
_ENSEMBLE = {"dataset_seeds": _COUNT, "run_seeds": _COUNT}
_STATIONARY = {"modes": _names_in(STATIONARY_MODES)}
# problem.family -> the keys that family takes besides family itself and
# pop_oracle_size, which every family takes.
_PROBLEM = {
    "quadratic": {"dim": _COUNT, "curvature": _float_array,
                  "center": _float_array, "scatter": _float_array},
    "logistic": {"dim": _COUNT, "mean0": _float_array, "mean1": _float_array,
                 "separation": _finite_float, "cov": _float_array,
                 "balance": _float_where(lambda x: 0 < x < 1,
                                         "must lie in (0, 1)"),
                 "l2": _float_where(lambda x: x >= 0, "must be >= 0")},
    "mlp": {"in_dim": _COUNT, "hidden": _COUNT, "classes": _int_at_least(2),
            "teacher_seed": _SEED, "teacher_scale": _finite_float},
}


def _cast(name, value, cast):
    """``cast(value)``; a value the cast rejects is a ConfigError naming ``name``."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {name}: {value!r} ({exc})") from exc


def _section(name, cfg, table, unknown):
    """The keys of config section ``cfg``, each cast by ``table``; the dotted
    names of keys the table lacks are appended to ``unknown``."""
    values = {}
    for key, value in cfg.items():
        dotted = f"{name}.{key}" if name else key
        if key in table:
            values[key] = _cast(dotted, value, table[key])
        else:
            unknown.append(dotted)
    return values


def _build(cls, section, values, **given):
    """``cls(**given, **values)``; a field with no default that neither
    supplies is a ConfigError naming the key ``section.field``."""
    for f in fields(cls):
        if (f.name not in values and f.name not in given
                and f.default is MISSING and f.default_factory is MISSING):
            raise ConfigError(f"missing required key {section}.{f.name}")
    return cls(**given, **values)


def _spec(family, problem):
    """The problem spec of the cast ``problem`` keys. The defaults written
    here (quadratic dim 1, curvature, scatter and center; logistic
    separation 2) are those no spec field carries."""
    if family == "quadratic":
        dim = problem.pop("dim", None)
        center = problem.pop("center", 0.0)
        if np.ndim(center) == 0:
            center = np.full(dim or 1, float(center))
        elif dim is not None and center.shape != (dim,):
            raise ConfigError(f"bad value for problem.center: shape "
                              f"{center.shape} does not match problem.dim {dim}")
        return QuadraticSpec(center=center,
                             **{"curvature": 1.0, "scatter": 1.0, **problem})
    if family == "logistic":
        separation = problem.pop("separation", 2.0)
        if "dim" in problem and not {"mean0", "mean1"} & problem.keys():
            dim = problem["dim"]
            problem["mean1"] = np.full(dim, 0.5 * separation / np.sqrt(dim))
            problem["mean0"] = -problem["mean1"]
        return _build(LogisticSpec, "problem", problem)
    return _build(MlpSpec, "problem", problem)


def load_experiment_config(source, seed_override=None, out_override=None):
    """Parse and validate a config from a JSON path or an in-memory dict.

    Every unknown key anywhere in the document is collected and reported in
    one ConfigError, so a typo'd config fails loudly and completely; a value
    its key's cast rejects is a ConfigError naming the dotted key.
    ``seed_override`` (the CLI's ``--seed``) replaces the ``seed`` key. The
    top-level ``seed`` and ``oracle_seed`` keys fill the TrainConfig, which
    owns every seed of a command.
    """
    raw = source
    if isinstance(source, (str, Path)):
        try:
            with open(source) as f:
                raw = json.load(f)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {source}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {source} is a {type(raw).__name__}, not an object")
    unknown = []
    top = _section("", raw, _TOP, unknown)
    problem = top.pop("problem", {})
    family = _cast("problem.family", problem.pop("family", None),
                   _one_of(*_PROBLEM))
    problem = _section("problem", problem,
                       {"pop_oracle_size": _COUNT, **_PROBLEM[family]}, unknown)
    train = _section("train", top.pop("train", {}), _TRAIN, unknown)
    ensemble = _section("ensemble", top.pop("ensemble", {}), _ENSEMBLE, unknown)
    stationary = _section("stationary", top.pop("stationary", {}), _STATIONARY,
                          unknown)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))

    if seed_override is not None:
        top["seed"] = _cast("--seed", seed_override, _SEED)
    if out_override is not None:
        top["out_dir"] = str(out_override)
    if "bounds" in top:
        top["bound_names"] = top.pop("bounds")
    if "modes" in stationary:
        top["stationary_modes"] = stationary["modes"]
    if ("lr" in train) == ("lr_schedule" in train):
        raise ConfigError("train config needs exactly one of lr, lr_schedule")
    schedule = (train.pop("lr_schedule") if "lr_schedule" in train
                else ((1, train.pop("lr")),))
    seeds = {key: top.pop(key) for key in ("seed", "oracle_seed") if key in top}
    train = _build(TrainConfig, "train", train, spec=_spec(family, problem),
                   lr_schedule=schedule, **seeds)
    return ExperimentConfig(train=train, **ensemble, **top)


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def _out_dir(out_dir):
    """``out_dir`` as a Path, created with its parents if missing."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(_fmt(x) for x in row) + "\n")


def _write_json(path, payload):
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _trajectory_rows(record):
    k = len(record.steps)
    nan = float("nan")
    lam = record.lambda1 if record.lambda1 is not None else [nan] * k
    gap = record.gap if record.gap is not None else [nan] * k
    for i in range(k):
        yield (int(record.steps[i]), record.train_loss[i], record.test_loss[i],
               record.grad_norm_sq[i], record.trace_c[i], record.dist_init[i],
               lam[i], gap[i])


def estimate_generalization_error(runs):
    """Mean over the non-diverged records ``runs`` of (oracle-sample loss -
    training loss) at W_T: the last entries of ``test_loss`` and
    ``train_loss``, that of ``test_loss`` the only one an ensemble record
    evaluates (see ``dynamics.run_ensemble``).

    A diverged run's losses are those of its last logged state, not of W_T
    (its ensemble ``test_loss`` is all NaN), so it is left out, as every
    bound leaves it out. No runs at all is a ConfigError; runs that all
    diverged are a GradnoiseError.
    """
    if not runs:
        raise ConfigError("no runs to estimate the gap from")
    runs = [r for r in runs if not r.diverged]
    if not runs:
        raise GradnoiseError("every run diverged: no gap to estimate")
    return float(np.mean([r.test_loss[-1] - r.train_loss[-1] for r in runs]))


def cmd_train(config, out_dir=None):
    """Run one training process, write trajectory.csv (+ weights.json)."""
    record = train_run(config.train)
    payload = {
        "diverged": record.diverged,
        "diverged_step": record.diverged_step,
        "final_train_loss": float(record.train_loss[-1]) if len(record.train_loss) else None,
        "rows": len(record.steps),
    }
    if out_dir is not None:
        out = _out_dir(out_dir)
        _write_csv(out / "trajectory.csv", TRAJECTORY_CSV_HEADER,
                   _trajectory_rows(record))
        if record.weights is not None:
            _write_json(out / "weights.json", {
                "steps": [int(s) for s in record.steps],
                "weights": [[float(x) for x in w] for w in record.weights],
                "w0": [float(x) for x in record.w0],
                "final_w": [float(x) for x in record.final_w],
            })
    return payload, record


def _mean_curves(records):
    """Mean over ``records`` of each column of their trajectory rows, over
    the logged steps they all reached."""
    length = min(len(r.steps) for r in records)
    tables = [list(_trajectory_rows(r))[:length] for r in records]
    return [(rows[0][0], *(float(np.mean(col)) for col in list(zip(*rows))[1:]))
            for rows in zip(*tables)]


def cmd_compare(config, out_dir=None):
    """Paired SGD vs SDE runs; seed-averaged curves and terminal agreement
    over each mode's non-diverged runs."""
    spec = config.train.spec
    problem = build_problem(spec)
    oracle = population_oracle_sample(spec, config.train.oracle_seed)
    recs = {"sgd": [], "sde": []}
    for seed in range(config.train.seed, config.train.seed + config.compare_seeds):
        dataset = generate_dataset(spec, seed, config.train.n)
        for mode in ("sgd", "sde"):
            cfg = replace(config.train, mode=mode, seed=seed, dataset_seed=seed)
            recs[mode].append(train_run(cfg, dataset, oracle))
    summary = {
        "n_seeds": config.compare_seeds,
        "diverged_runs": sum(r.diverged for rs in recs.values() for r in rs),
    }
    # A diverged run's last losses are those of its last logged state, not
    # of W_T: every mean below is over the mode's non-diverged runs.
    for mode in ("sgd", "sde"):
        recs[mode] = [r for r in recs[mode] if not r.diverged]
        if not recs[mode]:
            raise GradnoiseError(f"every {mode} run of compare diverged")
        summary[f"terminal_test_loss_{mode}"] = float(
            np.mean([r.test_loss[-1] for r in recs[mode]]))
    summary["test_loss_abs_diff"] = abs(
        summary["terminal_test_loss_sgd"] - summary["terminal_test_loss_sde"])
    if problem.has_accuracy:
        for mode in ("sgd", "sde"):
            accs = [problem.accuracy(r.final_w, oracle.features, oracle.labels)
                    for r in recs[mode]]
            summary[f"terminal_accuracy_{mode}"] = float(np.mean(accs))
        summary["accuracy_abs_diff"] = abs(
            summary["terminal_accuracy_sgd"] - summary["terminal_accuracy_sde"])
    if out_dir is not None:
        out = _out_dir(out_dir)
        for mode in ("sgd", "sde"):
            _write_csv(out / f"compare_{mode}.csv", TRAJECTORY_CSV_HEADER,
                       _mean_curves(recs[mode]))
        _write_json(out / "compare_summary.json", summary)
    return summary


def _check_loo_size(names, n, b, key):
    """A ConfigError naming ``key`` unless every named leave-one-out bound can
    run at size ``n`` and batch ``b`` clipped to n: its subsets of n - 1
    examples need n - 1 > b."""
    b = min(b, n)
    loo = [name for name in names if name in _LOO_BOUNDS]
    if loo and n - 1 <= b:
        raise ConfigError(f"{key} leaves n={n}, b={b}, too small for {loo[0]}: "
                          "its leave-one-out subsets need n - 1 > b")


def _loo_pairs(ensemble):
    """Each ensemble record paired with its leave-one-out run: the same
    config on the record's dataset less example s mod n, s its dataset seed."""
    pairs = []
    for rec in ensemble:
        subset = np.delete(np.arange(rec.config.n), rec.dataset.seed % rec.config.n)
        pairs.append((rec, loo_train(rec.config, rec.dataset, subset, rec.oracle)))
    return pairs


def _reports(config, names, oracle=None):
    """Reports of the named bounds, in order, on one ``run_ensemble`` of
    ``config.train``, each carrying the runs' ``generalization_error_estimate``.

    The runs keep the config's cadence only if a named bound reads logged
    states (family "tape" or "records"); otherwise they are read at their
    terminal state. They record their weights and the tape is built only
    for tape bounds, and the tape's population half only for the bounds
    that read it: ``traj-anisotropic``, whose prior is shaped by the
    population GNC whatever its ``g_tilde``, and, with the
    population-gradient ``g_tilde``, every bound that takes ``g_tilde``;
    its leave-one-out gaps only for ``traj-data-dependent``.
    ``terminal-loo`` pairs the runs with their leave-one-out runs.
    ``oracle`` is passed on to ``run_ensemble``.
    """
    _check_loo_size(names, config.train.n, config.train.b, "train.b")
    families = {_BOUND_TABLE[name][0] for name in names}
    logged = bool(families & {"tape", "records"})
    train = (replace(config.train, record_weights=True) if "tape" in families
             else config.train)
    runs = run_ensemble(train, config.dataset_seeds, config.run_seeds,
                        terminal_only=not logged, oracle=oracle)
    gen = estimate_generalization_error(runs)
    inputs = {"records": runs, "ensemble": runs}
    if "tape" in families:
        inputs["tape"] = bounds_mod.tape_from_records(
            runs, population=(
                "traj-anisotropic" in names
                or (config.g_tilde == "population-gradient"
                    and any("g_tilde" in _BOUND_TABLE[name][2] for name in names))),
            leave_one_out="traj-data-dependent" in names)
    if "pairs" in families:
        inputs["pairs"] = _loo_pairs(runs)
    reports = []
    for name in names:
        family, fn, keys = _BOUND_TABLE[name]
        report = getattr(bounds_mod, fn)(
            inputs[family], **{key: getattr(config, key) for key in keys})
        report.components["generalization_error_estimate"] = gen
        reports.append(report)
    return reports


def _bounds_outputs(reports, out_dir):
    """Write ``reports`` to bounds.json and bounds.csv under ``out_dir``
    (nothing if it is None); returns them."""
    if out_dir is not None:
        rows = [(rep.name, rep.value, rep.core, rep.n_runs_used,
                 "|".join(rep.flags),
                 "" if rep.config.get("R") is None else rep.config["R"],
                 "" if rep.config.get("M") is None else rep.config["M"],
                 rep.config.get("n"), rep.config.get("b"),
                 rep.config.get("eta"), rep.config.get("T"))
                for rep in reports]
        out = _out_dir(out_dir)
        _write_json(out / "bounds.json",
                    [bounds_mod.report_to_json_dict(r) for r in reports])
        _write_csv(out / "bounds.csv",
                   ("name", "value", "core", "n_runs_used", "flags",
                    "R", "M", "n", "b", "eta", "T"), rows)
    return reports


def cmd_bounds_traj(config, out_dir=None):
    """Evaluate the named bounds (by default the trajectory bounds) on a
    freshly trained seed grid."""
    return _bounds_outputs(_reports(config, config.bound_names or TRAJ_BOUNDS),
                           out_dir)


def cmd_bounds_terminal(config, out_dir=None):
    """Evaluate the named bounds (by default the terminal bounds) on a
    freshly trained seed grid."""
    return _bounds_outputs(
        _reports(config, config.bound_names or TERMINAL_BOUNDS), out_dir)


def cmd_stationary(config, out_dir=None):
    """Solve the stationary covariance and check it against a long SDE tail."""
    train = config.train
    if not isinstance(train.spec, QuadraticSpec):
        raise CapabilityError(
            "the stationary command needs the quadratic family (analytic Hessian)")
    if train.tail_checkpoints == 0:
        d = train.spec.dim
        train = replace(train, tail_checkpoints=max(4 * d, 8), tail_spacing=d)
    train = replace(train, mode="sde")
    record = train_run(train)
    if record.diverged:
        raise GradnoiseError(
            f"stationary run diverged at step {record.diverged_step}")
    problem = build_problem(train.spec)
    dataset = record.dataset
    tail = record.tail_weights
    tail_mean, empirical = bounds_mod._covariance(tail)
    c = minibatch_gnc(empirical_gnc(problem, tail_mean, dataset), train.n, train.b)
    h = dense_hessian(problem, tail_mean, dataset.features, dataset.labels)
    eta = train.lr_at(train.steps)
    result = {"eta": eta, "modes": {}, "empirical": {
        "lambda": [[float(x) for x in row] for row in empirical],
        "tail_samples": int(tail.shape[0]),
    }}
    for mode in config.stationary_modes:
        lam = solve_stationary_covariance(h, c, eta, mode=mode, b=train.b)
        entry = {
            "lambda": [[float(x) for x in row] for row in lam],
            "residual": stationary_residual(lam, h, c, eta),
        }
        if mode == "general":
            denom = float(np.linalg.norm(lam))
            entry["empirical_rel_frobenius_error"] = (
                float(np.linalg.norm(empirical - lam)) / denom if denom else None)
        result["modes"][mode] = entry
    if out_dir is not None:
        _write_json(_out_dir(out_dir) / "stationary.json", result)
    return result


def cmd_sweep_n(config, out_dir=None):
    """Sweep the dataset size; one row per (n, named bound), each with the
    measured gap and, as ``seeds_used``, the runs the bound used."""
    if not config.sweep_n:
        raise ConfigError("sweep-n needs a nonempty sweep_n list")
    names = config.bound_names or SWEEP_BOUNDS
    # Each point clips b to n: check every size before the first grid trains.
    for n in config.sweep_n:
        _check_loo_size(names, n, config.train.b, "sweep_n")
    rows = []
    # The oracle sample does not depend on n: every size shares one draw.
    oracle = population_oracle_sample(config.train.spec, config.train.oracle_seed)
    for n in config.sweep_n:
        train = replace(config.train, n=n, b=min(config.train.b, n))
        reports = _reports(replace(config, train=train), names, oracle)
        for name, rep in zip(names, reports):
            rows.append((n, name, rep.core, rep.value,
                         rep.components["generalization_error_estimate"],
                         rep.n_runs_used))
    if out_dir is not None:
        _write_csv(_out_dir(out_dir) / "sweep.csv",
                   ("n", "bound", "core", "value", "gen_error", "seeds_used"),
                   rows)
    return rows


_COMMANDS = {
    "train": cmd_train,
    "compare": cmd_compare,
    "bounds-traj": cmd_bounds_traj,
    "bounds-terminal": cmd_bounds_terminal,
    "stationary": cmd_stationary,
    "sweep-n": cmd_sweep_n,
}


# (get, set) thread-count entry points of OpenBLAS under the names its builds
# export; numpy's wheels ship the first pair.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_controls():
    """(get, set) of the thread count of each OpenBLAS the process loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower()}
    except OSError:  # no /proc/self/maps outside Linux
        return []
    controls = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                controls.append((get, put))
                break
    return controls


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread; restore each count on exit.

    The bounds are read off many small d x d matrices (tape covariances,
    leave-one-out log-dets, Hessians), too small to gain from a second
    thread: it stalled an occasional call by 100 ms and spun a second core.
    The bits of a stacked ``eigh`` or GEMM also depend on the thread count.
    A count the user asked for through ``OPENBLAS_NUM_THREADS`` or
    ``OMP_NUM_THREADS`` is left alone.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ or "OMP_NUM_THREADS" in os.environ:
        controls = []
    else:
        controls = _openblas_thread_controls()
    previous = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, previous):
            put(count)


def run_cli(argv):
    """Argument parsing and dispatch; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="gradnoise",
        description="SGD gradient-noise analysis and generalization bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--jobs", type=int, default=None,
                       help="accepted and ignored: ensembles run serially")
    args = parser.parse_args(argv)
    with _one_blas_thread():
        try:
            config = load_experiment_config(
                args.config, seed_override=args.seed, out_override=args.out)
            result = _COMMANDS[args.command](config, out_dir=config.out_dir)
            if args.command == "train" and result[0]["diverged"]:
                print("run diverged at step "
                      f"{result[0]['diverged_step']}; partial record written",
                      file=sys.stderr)
                return 3
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except GradnoiseError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    return 0
