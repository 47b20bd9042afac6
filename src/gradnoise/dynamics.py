"""Discrete training dynamics: SGD, its Euler-Maruyama SDE surrogate, and GLD.

A run is a Markov chain driven entirely by named substreams of the run seed
(batch sampling from ``(seed, "batch")``, Gaussian noise from
``(seed, "noise")``, initialization from ``(seed, "init")``), so SGD and SDE
runs with equal seeds share their batch stream and any single run is exactly
reproducible in isolation. A full-batch configuration (b = n) makes the SDE
noise covariance identically zero, and sgd/sde trajectories are then
bit-identical to plain gradient descent; GLD keeps its unit-covariance noise
regardless of the batch size.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .errors import ConfigError, InvalidInputError
from .gradstats import gnc_from_grads, minibatch_factor
from .linalg import SpdMatrix, log_det, spd_sqrt
from .problems import build_problem, generate_dataset, population_oracle_sample
from .seeding import substream

MODES = ("sgd", "sde", "gld")
DIVERGENCE_THRESHOLD = 1e12


@dataclass(frozen=True)
class TrainConfig:
    """Everything that determines one training run.

    ``lr_schedule`` is piecewise constant: a tuple of (step, eta) pairs sorted
    by step; the learning rate at update t (1-based) is the eta of the last
    pair whose step is <= t, and the schedule must cover step 1.

    ``dataset_seed`` defaults to ``seed`` when unset, so that a single-run
    config needs only one seed while ensembles can vary the two independently.
    ``tail_checkpoints`` weights are captured at the end of the run (spaced
    ``tail_spacing`` steps apart, ending at step T) without paying the logging
    cost; they feed stationary-covariance estimation. ``burn_in`` marks the
    steps that count as transient: every tail checkpoint must come after it,
    i.e. ``steps - (tail_checkpoints - 1) * tail_spacing > burn_in``.
    """

    spec: object
    n: int
    b: int
    lr_schedule: tuple
    steps: int
    mode: str = "sgd"
    seed: int = 0
    dataset_seed: int | None = None
    oracle_seed: int = 0
    log_every: int = 1
    record_weights: bool = False
    burn_in: int = 0
    w0: np.ndarray | None = None
    init_scale: float = 1.0
    cov_refresh: int = 1
    tail_checkpoints: int = 0
    tail_spacing: int = 1
    log_lambda1: bool = False
    log_alignment: bool = False
    divergence_threshold: float = DIVERGENCE_THRESHOLD

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n < 1 or not 1 <= self.b <= self.n:
            raise ConfigError(f"need 1 <= b <= n, got b={self.b}, n={self.n}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not 0 <= self.burn_in < self.steps:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < steps")
        if self.log_every < 1 or self.cov_refresh < 1 or self.tail_spacing < 1:
            raise ConfigError("log_every, cov_refresh, tail_spacing must be >= 1")
        if self.tail_checkpoints < 0:
            raise ConfigError("tail_checkpoints must be >= 0")
        if self.tail_checkpoints > 0:
            span = (self.tail_checkpoints - 1) * self.tail_spacing
            if span >= self.steps:
                raise ConfigError("tail checkpoints reach back past step 1")
            if self.steps - span <= self.burn_in:
                raise ConfigError(
                    f"first tail checkpoint (step {self.steps - span}) must come "
                    f"after burn_in={self.burn_in}"
                )
        sched = tuple((int(s), float(e)) for s, e in self.lr_schedule)
        if not sched:
            raise ConfigError("lr_schedule must have at least one (step, eta) pair")
        if any(e <= 0 for _, e in sched):
            raise ConfigError("every learning rate in the schedule must be positive")
        if sorted(sched) != list(sched):
            raise ConfigError("lr_schedule must be sorted by step")
        if sched[0][0] > 1:
            raise ConfigError("lr_schedule must cover step 1")
        object.__setattr__(self, "lr_schedule", sched)
        if self.w0 is not None:
            object.__setattr__(self, "w0", np.asarray(self.w0, dtype=float))

    @property
    def effective_dataset_seed(self):
        return self.seed if self.dataset_seed is None else self.dataset_seed

    def lr_at(self, t):
        eta = self.lr_schedule[0][1]
        for step, value in self.lr_schedule:
            if step <= t:
                eta = value
            else:
                break
        return eta


@dataclass
class TrajectoryRecord:
    """Per-logged-step series plus terminal state of one run."""

    config: TrainConfig
    dataset_seed: int
    steps: np.ndarray
    train_loss: np.ndarray
    test_loss: np.ndarray
    grad_norm_sq: np.ndarray
    trace_c: np.ndarray
    dist_init: np.ndarray
    alignment: np.ndarray | None
    lambda1: np.ndarray | None
    gap: np.ndarray | None
    gap_fig: np.ndarray | None
    weights: np.ndarray | None
    tail_weights: np.ndarray | None
    final_w: np.ndarray
    w0: np.ndarray
    diverged: bool
    diverged_step: int | None
    cov_refresh: int


@dataclass(frozen=True)
class TerminalRun:
    dataset_seed: int
    run_seed: int
    final_w: np.ndarray
    w0: np.ndarray
    final_train_loss: float
    final_test_loss: float
    diverged: bool
    tail_weights: np.ndarray | None


@dataclass(frozen=True)
class TerminalEnsemble:
    """Terminal states of a dataset-seed x run-seed grid, grouped by dataset."""

    runs: tuple
    config: TrainConfig

    def groups(self):
        by_dataset = {}
        for run in self.runs:
            by_dataset.setdefault(run.dataset_seed, []).append(run)
        return by_dataset


def sgd_step(problem, w, dataset, batch_indices, eta):
    """One SGD update: w - eta * (mean gradient over the batch)."""
    idx = np.asarray(batch_indices, dtype=int)
    grad = problem.mean_grad(w, dataset.features[idx], dataset.labels[idx])
    return w - eta * grad


def _noise_transform(problem, w, dataset, factor):
    """Square root of the floored minibatch covariance ``factor * Sigma`` at w."""
    grads = problem.per_example_grads(w, dataset.features, dataset.labels)
    sigma, _ = gnc_from_grads(grads)
    return spd_sqrt(SpdMatrix.from_matrix(factor * sigma))


def sde_step(problem, w, dataset, eta, rng, noise_sqrt=None):
    """One Euler-Maruyama step: w - eta G + eta C^{1/2} N.

    ``noise_sqrt`` is the covariance square root C^{1/2}, which callers
    compute and may reuse across steps. ``None`` means no noise term (the
    full-batch covariance is exactly zero): the step is then plain gradient
    descent bit-for-bit and draws nothing from ``rng``.
    """
    grad = problem.mean_grad(w, dataset.features, dataset.labels)
    if noise_sqrt is None:
        return w - eta * grad
    return w - eta * grad + eta * (noise_sqrt @ rng.standard_normal(w.shape[0]))


def gld_step(problem, w, dataset, eta, rng):
    """One Langevin step with identity noise covariance: w - eta G + eta N."""
    grad = problem.mean_grad(w, dataset.features, dataset.labels)
    return w - eta * grad + eta * rng.standard_normal(w.shape[0])


def _initial_weights(config, problem):
    if config.w0 is not None:
        if config.w0.shape != (problem.dim,):
            raise ConfigError(
                f"w0 has shape {config.w0.shape}, problem dim is {problem.dim}"
            )
        return config.w0.copy()
    rng = substream(config.seed, "init")
    return config.init_scale * rng.standard_normal(problem.dim) / math.sqrt(problem.dim)


def _logged_steps(steps, log_every):
    logged = set(range(0, steps + 1, log_every))
    logged.add(steps)
    return logged


def _tail_steps(config):
    if config.tail_checkpoints == 0:
        return set()
    last = config.steps
    return {last - k * config.tail_spacing for k in range(config.tail_checkpoints)}


def _run(config, dataset, oracle):
    problem = build_problem(config.spec)
    n = len(dataset)
    if n != config.n:
        raise ConfigError(f"dataset has {n} examples, config expects {config.n}")
    factor = minibatch_factor(n, config.b)
    w0 = _initial_weights(config, problem)
    rng_batch = substream(config.seed, "batch")
    rng_noise = substream(config.seed, "noise")

    logged = _logged_steps(config.steps, config.log_every)
    tails = _tail_steps(config)
    series = {k: [] for k in ("steps", "train_loss", "test_loss",
                              "grad_norm_sq", "trace_c", "dist_init")}
    opt_series = {"alignment": [], "lambda1": [], "gap": [], "gap_fig": []}
    weights = [] if config.record_weights else None
    tail_weights = []
    diverged = False
    diverged_step = None

    def log_state(t, w, eta):
        loss = problem.mean_loss(w, dataset.features, dataset.labels)
        if not np.isfinite(loss) or loss > config.divergence_threshold:
            return False
        series["steps"].append(t)
        series["train_loss"].append(loss)
        series["test_loss"].append(
            problem.mean_loss(w, oracle.features, oracle.labels)
        )
        grads = problem.per_example_grads(w, dataset.features, dataset.labels)
        mean = grads.mean(axis=0)
        series["grad_norm_sq"].append(float(mean @ mean))
        trace_sigma = float(np.mean(np.sum(grads * grads, axis=1)) - mean @ mean)
        series["trace_c"].append(factor * trace_sigma)
        series["dist_init"].append(float(np.linalg.norm(w - w0)))
        if config.log_alignment:
            ograds = problem.per_example_grads(w, oracle.features, oracle.labels)
            pop = SpdMatrix.from_matrix(gnc_from_grads(ograds)[0])
            sig = SpdMatrix.from_matrix(gnc_from_grads(grads)[0])
            opt_series["alignment"].append(log_det(pop) - log_det(sig))
        if config.log_lambda1:
            report = spectral.top_eigenvalue(
                problem, w, dataset, seed=config.seed, seed_labels=("spectral", t)
            )
            opt_series["lambda1"].append(report.lambda_1)
            opt_series["gap"].append(2.0 / eta - report.lambda_1)
            opt_series["gap_fig"].append(eta / 2.0 - report.lambda_1)
        if config.record_weights:
            weights.append(w.copy())
        return True

    eta0 = config.lr_at(1)
    log_state(0, w0, eta0)
    w = w0.copy()
    noise_sqrt = None
    with np.errstate(all="ignore"):
        for t in range(1, config.steps + 1):
            eta = config.lr_at(t)
            prev = w
            if config.mode == "sgd":
                idx = np.sort(rng_batch.choice(n, size=config.b, replace=False))
                w = sgd_step(problem, w, dataset, idx, eta)
            elif config.mode == "sde":
                if factor != 0.0 and (t - 1) % config.cov_refresh == 0:
                    try:
                        noise_sqrt = _noise_transform(problem, w, dataset, factor)
                    except InvalidInputError:  # the covariance overflowed
                        diverged, diverged_step = True, t
                        break
                w = sde_step(problem, w, dataset, eta, rng_noise,
                             noise_sqrt=noise_sqrt)
            else:  # gld
                w = gld_step(problem, w, dataset, eta, rng_noise)
            if not np.all(np.isfinite(w)):
                diverged, diverged_step, w = True, t, prev
                break
            if t in tails:
                tail_weights.append((t, w.copy()))
            if t in logged:
                if not log_state(t, w, eta):
                    diverged, diverged_step = True, t
                    break

    tail_weights.sort(key=lambda item: item[0])
    tail_arr = (
        np.array([wt for _, wt in tail_weights]) if tail_weights else None
    )
    return TrajectoryRecord(
        config=config,
        dataset_seed=config.effective_dataset_seed,
        steps=np.array(series["steps"], dtype=int),
        train_loss=np.array(series["train_loss"]),
        test_loss=np.array(series["test_loss"]),
        grad_norm_sq=np.array(series["grad_norm_sq"]),
        trace_c=np.array(series["trace_c"]),
        dist_init=np.array(series["dist_init"]),
        alignment=np.array(opt_series["alignment"]) if config.log_alignment else None,
        lambda1=np.array(opt_series["lambda1"]) if config.log_lambda1 else None,
        gap=np.array(opt_series["gap"]) if config.log_lambda1 else None,
        gap_fig=np.array(opt_series["gap_fig"]) if config.log_lambda1 else None,
        weights=np.array(weights) if config.record_weights else None,
        tail_weights=tail_arr,
        final_w=w,
        w0=w0,
        diverged=diverged,
        diverged_step=diverged_step,
        cov_refresh=config.cov_refresh,
    )


def train_run(config, dataset=None, oracle=None):
    """Run one training process; deterministic given the config.

    ``dataset``/``oracle`` can be passed to share them across runs (ensembles
    do); by default they are generated from the config's seeds.
    """
    if dataset is None:
        dataset = generate_dataset(config.spec, config.effective_dataset_seed, config.n)
    if oracle is None:
        oracle = population_oracle_sample(config.spec, config.oracle_seed)
    return _run(config, dataset, oracle)


def loo_train(config, dataset, subset, oracle=None):
    """Train on the subsample S_J with the same seed-stream construction.

    The subset must be larger than the batch size. Passing the full index set
    reproduces ``train_run`` exactly, which is the comparability contract the
    paired leave-one-out bound relies on.
    """
    subset = np.asarray(sorted(int(i) for i in subset), dtype=int)
    m = subset.shape[0]
    if m <= config.b:
        raise ConfigError(f"LOO subset size m={m} must exceed batch size b={config.b}")
    if m > len(dataset):
        raise ConfigError("subset indices exceed the dataset")
    sub = dataset.subset(subset)
    sub_config = replace(config, n=m)
    if oracle is None:
        oracle = population_oracle_sample(config.spec, config.oracle_seed)
    return _run(sub_config, sub, oracle)


def run_ensemble(config, n_dataset_seeds, n_run_seeds, jobs=1):
    """Grid of independent runs over dataset seeds x run seeds.

    Dataset seeds are ``base + i`` (base = the config's dataset seed), run
    seeds are ``config.seed + j``; results are merged in grid order regardless
    of the worker count.

    A :class:`TerminalRun` keeps only the terminal state, so each run logs
    only its initial and terminal states whatever the config's ``log_every``
    (tail checkpoints are captured outside logging). Logging never touches an
    RNG stream, so every run is bit-identical to ``train_run`` with the same
    seeds and any cadence, up to divergence: non-finite weights are still
    caught at every step, but the ``divergence_threshold`` loss test runs
    only at step T, and a diverged run's final losses are those of its last
    logged state.
    """
    if n_dataset_seeds < 1 or n_run_seeds < 1:
        raise ConfigError("seed grid must be at least 1 x 1")
    base_ds = config.effective_dataset_seed
    oracle = population_oracle_sample(config.spec, config.oracle_seed)
    datasets = {
        base_ds + i: generate_dataset(config.spec, base_ds + i, config.n)
        for i in range(n_dataset_seeds)
    }

    def one(i, j):
        cfg = replace(config, dataset_seed=base_ds + i, seed=config.seed + j,
                      log_every=config.steps)
        rec = _run(cfg, datasets[base_ds + i], oracle)
        return TerminalRun(
            dataset_seed=base_ds + i,
            run_seed=config.seed + j,
            final_w=rec.final_w,
            w0=rec.w0,
            final_train_loss=float(rec.train_loss[-1]) if len(rec.train_loss) else float("nan"),
            final_test_loss=float(rec.test_loss[-1]) if len(rec.test_loss) else float("nan"),
            diverged=rec.diverged,
            tail_weights=rec.tail_weights,
        )

    grid = [(i, j) for i in range(n_dataset_seeds) for j in range(n_run_seeds)]
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            runs = list(pool.map(lambda ij: one(*ij), grid))
    else:
        runs = [one(i, j) for i, j in grid]
    return TerminalEnsemble(runs=tuple(runs), config=config)
