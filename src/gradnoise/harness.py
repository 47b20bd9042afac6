"""Experiment orchestration: JSON configs, subcommands, CSV/JSON emission.

A JSON experiment config fully determines every output file; re-running a
command with the same config reproduces the files byte for byte. Floats are
written with the %.17g format (round-trip exact), file writes happen only in
the orchestrator after runs complete, and ensembles run serially in a fixed
grid order.

Exit-code contract for :func:`run_cli`: 0 success, 2 configuration error,
3 numerical or divergence error.
"""

import json
import sys
from dataclasses import dataclass, replace
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
    generate_dataset,
    population_oracle_sample,
)

TRAJECTORY_CSV_HEADER = ("step", "train_loss", "test_loss", "grad_norm_sq",
                         "trace_c", "dist_init", "lambda1", "gap")

# Bound name -> (input family, evaluator(config, input)). The families are
# "tape" (a TrajectoryTape), "records" (trajectory records), "ensemble" (a
# TerminalEnsemble) and "pairs" (full / leave-one-out record pairs). The order
# fixes the row order of bounds.csv. Evaluators look each bound function up on
# ``bounds_mod`` when called, so a wrapper rebound onto that module (as
# perfbench's tracer does) reaches them.
_BOUND_TABLE = {
    "traj-isotropic": (
        "tape", lambda c, tape: bounds_mod.traj_bound_isotropic(
            tape, bounds_mod.GTildeChoice(kind=c.g_tilde), R=c.R)),
    "traj-langevin": (
        "tape", lambda c, tape: bounds_mod.traj_bound_langevin(
            tape, bounds_mod.GTildeChoice(kind=c.g_tilde), R=c.R)),
    "traj-anisotropic": (
        "tape", lambda c, tape: bounds_mod.traj_bound_anisotropic(
            tape, R=c.R)),
    "traj-data-dependent": (
        "records", lambda c, records: bounds_mod.traj_bound_data_dependent(
            records, M=c.M)),
    "terminal-gradient-accum": (
        "records", lambda c, records: bounds_mod.terminal_bound_gradient_accum(
            records, R=c.R)),
    "terminal-general": (
        "ensemble", lambda c, ens: bounds_mod.terminal_bound_general(
            ens, R=c.R)),
    "terminal-anisotropic": (
        "ensemble", lambda c, ens: bounds_mod.terminal_bound_anisotropic(
            ens, R=c.R)),
    "terminal-isotropic": (
        "ensemble", lambda c, ens: bounds_mod.terminal_bound_isotropic(
            ens, reference=c.reference, R=c.R)),
    "terminal-loo": (
        "pairs", lambda c, pairs: bounds_mod.terminal_bound_loo(
            pairs, M=c.M)),
    "fim-takeuchi": (
        "ensemble", lambda c, ens: bounds_mod.fim_takeuchi_bound(
            ens, M=c.M)),
}


def _bounds_of(*families):
    return tuple(name for name, (family, _) in _BOUND_TABLE.items()
                 if family in families)


TRAJ_BOUNDS = _bounds_of("tape", "records")
TERMINAL_BOUNDS = _bounds_of("ensemble", "pairs")
SWEEP_BOUNDS = _bounds_of("ensemble")

_TOP_KEYS = {"problem", "train", "bounds", "ensemble", "sweep_n", "seed",
             "oracle_seed", "out_dir", "g_tilde", "R", "M", "reference",
             "compare_seeds", "stationary"}
_PROBLEM_KEYS = {
    "quadratic": {"family", "dim", "curvature", "center", "scatter",
                  "pop_oracle_size"},
    "logistic": {"family", "dim", "mean0", "mean1", "separation", "cov",
                 "balance", "l2", "pop_oracle_size"},
    "mlp": {"family", "in_dim", "hidden", "classes", "teacher_seed",
            "teacher_scale", "pop_oracle_size"},
}
_TRAIN_KEYS = {"n", "b", "lr", "lr_schedule", "steps", "mode", "log_every",
               "record_weights", "burn_in", "init_scale", "w0", "cov_refresh",
               "dataset_seed", "tail_checkpoints", "tail_spacing",
               "log_lambda1"}
_ENSEMBLE_KEYS = {"dataset_seeds", "run_seeds"}
_STATIONARY_KEYS = {"modes", "b"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; see the README for the JSON schema."""

    spec: object
    train: TrainConfig
    bound_names: tuple
    dataset_seeds: int
    run_seeds: int
    sweep_n: tuple
    seed: int
    oracle_seed: int
    out_dir: str
    g_tilde: str
    R: float
    M: float
    reference: str
    compare_seeds: int
    stationary: dict  # "modes": tuple of STATIONARY_MODES names, "b": int


_REQUIRED = object()


def _read(cfg, name, cast, default=_REQUIRED):
    """``cast`` of the value at dotted key ``name``, or ``default`` if absent.

    A missing required key or a value ``cast`` rejects is a ConfigError that
    names the key.
    """
    key = name.rsplit(".", 1)[-1]
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {name}")
        return default
    try:
        return cast(cfg[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name}: {cfg[key]!r} ({exc})") from exc


def _positive_int(value):
    value = int(value)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _finite_float(value):
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("must be finite")
    return value


def _float_array(value):
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


def _check_keys(section, given, allowed, unknown):
    for key in given:
        if key not in allowed:
            unknown.append(f"{section}.{key}" if section else key)


def _parse_problem(cfg, unknown):
    family = _read(cfg, "problem.family", _one_of(*_PROBLEM_KEYS))
    _check_keys("problem", cfg, _PROBLEM_KEYS[family], unknown)
    if unknown:
        return None
    if family == "quadratic":
        dim = _read(cfg, "problem.dim", _positive_int, 1)
        center = _read(cfg, "problem.center", _float_array, 0.0)
        if np.ndim(center) == 0:
            center = np.full(dim, float(center))
        elif "dim" in cfg and center.shape != (dim,):
            raise ConfigError(f"bad value for problem.center: shape "
                              f"{center.shape} does not match problem.dim {dim}")
        return QuadraticSpec(
            curvature=_read(cfg, "problem.curvature", _float_array, 1.0),
            center=center,
            scatter=_read(cfg, "problem.scatter", _float_array, 1.0),
            pop_oracle_size=_read(cfg, "problem.pop_oracle_size", int, 10_000),
        )
    if family == "logistic":
        dim = _read(cfg, "problem.dim", _positive_int)
        if "mean0" in cfg or "mean1" in cfg:
            mean0 = _read(cfg, "problem.mean0", _float_array)
            mean1 = _read(cfg, "problem.mean1", _float_array)
        else:
            sep = _read(cfg, "problem.separation", _finite_float, 2.0)
            half = 0.5 * sep / np.sqrt(dim)
            mean1 = np.full(dim, half)
            mean0 = -mean1
        return LogisticSpec(
            dim=dim, mean0=mean0, mean1=mean1,
            cov=_read(cfg, "problem.cov", _float_array, 1.0),
            balance=_read(cfg, "problem.balance", _finite_float, 0.5),
            l2=_read(cfg, "problem.l2", _finite_float, 0.0),
            pop_oracle_size=_read(cfg, "problem.pop_oracle_size", int, 10_000),
        )
    return MlpSpec(
        in_dim=_read(cfg, "problem.in_dim", int),
        hidden=_read(cfg, "problem.hidden", int),
        classes=_read(cfg, "problem.classes", int),
        teacher_seed=_read(cfg, "problem.teacher_seed", int, 0),
        teacher_scale=_read(cfg, "problem.teacher_scale", _finite_float, 1.0),
        pop_oracle_size=_read(cfg, "problem.pop_oracle_size", int, 10_000),
    )


def _parse_schedule(train):
    has_lr = "lr" in train
    has_sched = "lr_schedule" in train
    if has_lr == has_sched:
        raise ConfigError("train config needs exactly one of lr, lr_schedule")
    if has_lr:
        return ((1, _read(train, "train.lr", float)),)
    return _read(train, "train.lr_schedule",
                 lambda pairs: tuple((int(s), float(e)) for s, e in pairs))


def load_experiment_config(source, seed_override=None, out_override=None):
    """Parse and validate a config from a JSON path or an in-memory dict.

    Every unknown key anywhere in the document is collected and reported in
    one ConfigError, so a typo'd config fails loudly and completely.
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
    _check_keys("", raw, _TOP_KEYS, unknown)
    train_raw = _read(raw, "train", dict)
    _check_keys("train", train_raw, _TRAIN_KEYS, unknown)
    ensemble = _read(raw, "ensemble", dict, {})
    _check_keys("ensemble", ensemble, _ENSEMBLE_KEYS, unknown)
    stationary = _read(raw, "stationary", dict, {})
    _check_keys("stationary", stationary, _STATIONARY_KEYS, unknown)
    spec = _parse_problem(_read(raw, "problem", dict), unknown)
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))

    seed = (int(seed_override) if seed_override is not None
            else _read(raw, "seed", int, 0))
    oracle_seed = _read(raw, "oracle_seed", int, 0)
    w0 = train_raw.get("w0")
    train = TrainConfig(
        spec=spec,
        n=_read(train_raw, "train.n", int),
        b=_read(train_raw, "train.b", int),
        lr_schedule=_parse_schedule(train_raw),
        steps=_read(train_raw, "train.steps", int),
        mode=_read(train_raw, "train.mode", _one_of(*MODES), "sgd"),
        seed=seed,
        dataset_seed=_read(train_raw, "train.dataset_seed", int, None),
        oracle_seed=oracle_seed,
        log_every=_read(train_raw, "train.log_every", int, 1),
        record_weights=_read(train_raw, "train.record_weights", _json_bool, False),
        burn_in=_read(train_raw, "train.burn_in", int, 0),
        w0=None if w0 is None else _read(train_raw, "train.w0", _float_array),
        init_scale=_read(train_raw, "train.init_scale", _finite_float, 1.0),
        cov_refresh=_read(train_raw, "train.cov_refresh", int, 1),
        tail_checkpoints=_read(train_raw, "train.tail_checkpoints", int, 0),
        tail_spacing=_read(train_raw, "train.tail_spacing", int, 1),
        log_lambda1=_read(train_raw, "train.log_lambda1", _json_bool, False),
    )
    compare_seeds = _read(raw, "compare_seeds", _positive_int, 10)
    stationary_b = _read(stationary, "stationary.b", _positive_int, train.b)
    return ExperimentConfig(
        spec=spec,
        train=train,
        bound_names=_read(raw, "bounds", _names_in(_BOUND_TABLE), ()),
        dataset_seeds=_read(ensemble, "ensemble.dataset_seeds", _positive_int, 2),
        run_seeds=_read(ensemble, "ensemble.run_seeds", _positive_int, 2),
        sweep_n=_read(raw, "sweep_n", lambda ns: tuple(map(_positive_int, ns)), ()),
        seed=seed,
        oracle_seed=oracle_seed,
        out_dir=str(out_override if out_override is not None
                    else raw.get("out_dir", ".")),
        g_tilde=_read(raw, "g_tilde", _one_of("zero", "population-gradient"),
                      "population-gradient"),
        R=_read(raw, "R", _finite_float, 1.0),
        M=_read(raw, "M", _finite_float, 1.0),
        reference=_read(raw, "reference", _one_of("grand-mean", "init"),
                        "grand-mean"),
        compare_seeds=compare_seeds,
        stationary={
            "modes": _read(stationary, "stationary.modes",
                           _names_in(STATIONARY_MODES), STATIONARY_MODES),
            "b": stationary_b},
    )


def _fmt(x):
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


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
    """Mean over runs of (oracle-sample loss - training loss) at W_T."""
    if hasattr(runs, "runs"):
        runs = runs.runs
    if not runs:
        raise ConfigError("no runs supplied")
    gaps = [r.final_test_loss - r.final_train_loss for r in runs]
    return float(np.mean(gaps))


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
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
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
    length = min(len(r.steps) for r in records)
    rows = []
    for i in range(length):
        rows.append((
            int(records[0].steps[i]),
            float(np.mean([r.train_loss[i] for r in records])),
            float(np.mean([r.test_loss[i] for r in records])),
            float(np.mean([r.grad_norm_sq[i] for r in records])),
            float(np.mean([r.trace_c[i] for r in records])),
            float(np.mean([r.dist_init[i] for r in records])),
            float("nan"), float("nan"),
        ))
    return rows


def cmd_compare(config, out_dir=None):
    """Paired SGD vs SDE runs; seed-averaged curves and terminal agreement."""
    problem = build_problem(config.spec)
    oracle = population_oracle_sample(config.spec, config.oracle_seed)
    recs = {"sgd": [], "sde": []}
    for j in range(config.compare_seeds):
        for mode in ("sgd", "sde"):
            cfg = replace(config.train, mode=mode, seed=config.seed + j,
                          dataset_seed=config.seed + j)
            recs[mode].append(train_run(cfg, oracle=oracle))
    summary = {
        "n_seeds": config.compare_seeds,
        "diverged_runs": sum(r.diverged for rs in recs.values() for r in rs),
    }
    for mode in ("sgd", "sde"):
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
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for mode in ("sgd", "sde"):
            _write_csv(out / f"compare_{mode}.csv", TRAJECTORY_CSV_HEADER,
                       _mean_curves(recs[mode]))
        _write_json(out / "compare_summary.json", summary)
    return summary


def _evaluate_bounds(config, names, inputs):
    """Reports of the named bounds, in order, each fed its family's input."""
    reports = []
    for name in names:
        family, evaluator = _BOUND_TABLE[name]
        reports.append(evaluator(config, inputs[family]))
    return reports


def _bounds_outputs(reports, out_dir):
    rows = []
    for rep in reports:
        rows.append((
            rep.name, rep.value, rep.core, rep.n_runs_used,
            "|".join(rep.flags),
            _fmt(rep.config.get("R")) if rep.config.get("R") is not None else "",
            _fmt(rep.config.get("M")) if rep.config.get("M") is not None else "",
            rep.config.get("n"), rep.config.get("b"),
            rep.config.get("eta"), rep.config.get("T"),
        ))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "bounds.json",
                    [bounds_mod.report_to_json_dict(r) for r in reports])
        _write_csv(out / "bounds.csv",
                   ("name", "value", "core", "n_runs_used", "flags",
                    "R", "M", "n", "b", "eta", "T"), rows)


def _trajectory_records(config):
    records = []
    base = config.train.effective_dataset_seed
    for i in range(config.dataset_seeds):
        for j in range(config.run_seeds):
            cfg = replace(config.train, record_weights=True,
                          dataset_seed=base + i, seed=config.seed + j)
            records.append(train_run(cfg))
    return records


def cmd_bounds_traj(config, out_dir=None):
    """Evaluate trajectory-based bounds on freshly trained runs."""
    names = [n for n in (config.bound_names or TRAJ_BOUNDS) if n in TRAJ_BOUNDS]
    if not names:
        raise ConfigError("no trajectory bounds selected")
    records = _trajectory_records(config)
    inputs = {"records": records}
    if any(_BOUND_TABLE[name][0] == "tape" for name in names):
        need_pop = ("traj-anisotropic" in names
                    or config.g_tilde == "population-gradient")
        inputs["tape"] = bounds_mod.tape_from_records(records, population=need_pop)
    reports = _evaluate_bounds(config, names, inputs)
    _bounds_outputs(reports, out_dir)
    return reports


def _loo_pairs(config):
    pairs = []
    base = config.train.effective_dataset_seed
    n = config.train.n
    for i in range(config.dataset_seeds):
        ds_seed = base + i
        dataset = generate_dataset(config.spec, ds_seed, n)
        drop = ds_seed % n
        subset = [k for k in range(n) if k != drop]
        for j in range(config.run_seeds):
            cfg = replace(config.train, dataset_seed=ds_seed,
                          seed=config.seed + j)
            full = train_run(cfg, dataset=dataset)
            loo = loo_train(cfg, dataset, subset)
            pairs.append((full, loo))
    return pairs


def cmd_bounds_terminal(config, out_dir=None):
    """Evaluate terminal-state bounds on a fresh ensemble."""
    names = [n for n in (config.bound_names or TERMINAL_BOUNDS)
             if n in TERMINAL_BOUNDS]
    if not names:
        raise ConfigError("no terminal bounds selected")
    families = {_BOUND_TABLE[name][0] for name in names}
    inputs = {}
    if "ensemble" in families:
        inputs["ensemble"] = run_ensemble(config.train, config.dataset_seeds,
                                          config.run_seeds)
    if "pairs" in families:
        inputs["pairs"] = _loo_pairs(config)
    reports = _evaluate_bounds(config, names, inputs)
    if "ensemble" in inputs:
        gen = estimate_generalization_error(inputs["ensemble"])
        for rep in reports:
            rep.components.setdefault("generalization_error_estimate", gen)
    _bounds_outputs(reports, out_dir)
    return reports


def cmd_stationary(config, out_dir=None):
    """Solve the stationary covariance and check it against a long SDE tail."""
    if not isinstance(config.spec, QuadraticSpec):
        raise CapabilityError(
            "the stationary command needs the quadratic family (analytic Hessian)")
    train = config.train
    if train.tail_checkpoints == 0:
        d = config.spec.dim
        train = replace(train, tail_checkpoints=max(4 * d, 8), tail_spacing=d)
    train = replace(train, mode="sde")
    record = train_run(train)
    if record.diverged:
        raise GradnoiseError(
            f"stationary run diverged at step {record.diverged_step}")
    problem = build_problem(config.spec)
    dataset = generate_dataset(config.spec, train.effective_dataset_seed, train.n)
    tail = record.tail_weights
    tail_mean = tail.mean(axis=0)
    centered = tail - tail_mean
    empirical = centered.T @ centered / max(tail.shape[0] - 1, 1)
    c = minibatch_gnc(empirical_gnc(problem, tail_mean, dataset), train.n, train.b)
    h = problem.exact_hessian(tail_mean, dataset.features, dataset.labels)
    eta = train.lr_at(train.steps)
    result = {"eta": eta, "modes": {}, "empirical": {
        "lambda": [[float(x) for x in row] for row in empirical],
        "tail_samples": int(tail.shape[0]),
    }}
    for mode in config.stationary["modes"]:
        lam = solve_stationary_covariance(h, c, eta, mode=mode,
                                          b=config.stationary["b"])
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
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "stationary.json", result)
    return result


def cmd_sweep_n(config, out_dir=None):
    """Sweep the dataset size; one row per (n, bound) plus the measured gap."""
    if not config.sweep_n:
        raise ConfigError("sweep-n needs a nonempty sweep_n list")
    names = [b for b in (config.bound_names or SWEEP_BOUNDS)]
    bad = [b for b in names if b not in SWEEP_BOUNDS]
    if bad:
        raise ConfigError(
            "sweep-n supports ensemble bounds only; unsupported: "
            + ", ".join(sorted(bad)))
    rows = []
    seeds_used = config.dataset_seeds * config.run_seeds
    for n in config.sweep_n:
        train = replace(config.train, n=n,
                        b=min(config.train.b, n))
        ensemble = run_ensemble(train, config.dataset_seeds, config.run_seeds)
        gen = estimate_generalization_error(ensemble)
        reports = _evaluate_bounds(config, names, {"ensemble": ensemble})
        for name, rep in zip(names, reports):
            rows.append((n, name, rep.core, rep.value, gen, seeds_used))
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "sweep.csv",
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


def run_cli(argv):
    """Argument parsing and dispatch; returns the process exit code."""
    import argparse

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
    try:
        config = load_experiment_config(args.config, seed_override=args.seed,
                                        out_override=args.out)
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
