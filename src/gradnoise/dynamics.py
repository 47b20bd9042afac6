"""Discrete training dynamics: SGD, its Euler-Maruyama SDE surrogate, and GLD.

A run is a Markov chain driven entirely by named substreams of the run seed
(batch sampling from ``(seed, "batch")``, Gaussian noise from
``(seed, "noise")``, initialization from ``(seed, "init")``), so any single
run is exactly reproducible in isolation. A full-batch configuration (b = n)
makes the SDE noise covariance identically zero, and sgd/sde trajectories are
then bit-identical to plain gradient descent; GLD keeps its unit-covariance
noise regardless of the batch size.

The batch stream: an SGD run draws its minibatches ``BATCH_BLOCK`` steps at a
time from ``(seed, "batch")`` (``_batch_block``). Each row of a block is a
uniform b-subset of range(n), drawn by Floyd's algorithm vectorized over the
block's rows, and sorted. Because the block length is fixed, a run's batch
stream does not depend on ``steps``: a T-step run uses the first T batches
of any longer run with the same seed. At b = n every batch is
``arange(n)`` and nothing is drawn.

The noise stream: an SDE or GLD run draws the k standard normals of each
step (k = n for the SDE's centered-gradient factor, k = d for GLD) from
``(seed, "noise")``, ``NOISE_BLOCK`` steps at a time as one (NOISE_BLOCK, k)
draw (``_noise_block``). Such a draw equals NOISE_BLOCK draws of k normals
bit for bit, so the block length is not part of the stream. An SDE run with
a zero noise factor (b = n) draws nothing.

The runs of a seed grid (an ensemble's dataset seeds x run seeds) train
together as one (R, d) weight stack, whatever their datasets: row r steps on
its own run's dataset, the step functions and every family's ``mean_grad``
take the stack, each run still draws from its own substreams in its own
order, and each run's record is bit-identical to that run trained alone. A
single run is a group of one. An ensemble skips the oracle loss before step T
(``run_ensemble``), so its ``test_loss`` is the one exception.

Full-batch steps (SDE and GLD) read the family's reduced data
(``full_batch_data``), built once per weight stack: on the quadratic, each
run's feature mean, not its n rows. ``mean_grad`` gives the same bits on it
as on the full data, so the records do not depend on the reduction.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import spectral
from .errors import ConfigError
from .gradstats import minibatch_factor
from .problems import Dataset, build_problem, generate_dataset, population_oracle_sample
from .seeding import substream

MODES = ("sgd", "sde", "gld")
DIVERGENCE_THRESHOLD = 1e12
# Steps per batch block. Part of the batch stream: changing it changes every
# SGD run.
BATCH_BLOCK = 256
# Steps per noise block. Not part of the noise stream (see the module
# docstring), so it is sized for memory: a grid holds R x NOISE_BLOCK x k
# normals at once. Larger blocks bought no time: on the quadratic SDE
# benchmark's command (64 runs, k = 50, bench seed 1, two fresh processes
# per size, 2 vCPU) the ``_noise_block`` calls took 12-17 ms at 16, 15-19
# at 32 and 17-22 at 64, and peak RSS rose from 39.0 MB to 40.7 and 43.9.
NOISE_BLOCK = 16


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
    tail_checkpoints: int = 0
    tail_spacing: int = 1
    log_lambda1: bool = False

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n < 1 or not 1 <= self.b <= self.n:
            raise ConfigError(f"need 1 <= b <= n, got b={self.b}, n={self.n}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if not 0 <= self.burn_in < self.steps:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < steps")
        if self.log_every < 1 or self.tail_spacing < 1:
            raise ConfigError("log_every, tail_spacing must be >= 1")
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
        if not all(0 < e < math.inf for _, e in sched):
            raise ConfigError("every learning rate in lr_schedule must be positive "
                              f"and finite, got {[e for _, e in sched]}")
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
    """Per-logged-step series plus terminal state of one run, with the
    ``dataset`` it trained on and the ``oracle`` sample it was evaluated on.

    ``test_loss`` is the oracle-sample loss at each logged state. A record
    from ``run_ensemble`` holds it at step T only (NaN at earlier states, all
    NaN if the run diverged), since an ensemble is read at W_T."""

    config: TrainConfig
    dataset: Dataset
    oracle: Dataset
    steps: np.ndarray
    train_loss: np.ndarray
    test_loss: np.ndarray
    grad_norm_sq: np.ndarray
    trace_c: np.ndarray
    dist_init: np.ndarray
    lambda1: np.ndarray | None
    gap: np.ndarray | None
    weights: np.ndarray | None
    tail_weights: np.ndarray | None
    final_w: np.ndarray
    w0: np.ndarray
    diverged_step: int | None

    @property
    def diverged(self):
        """Whether the run diverged, at update ``diverged_step`` (0 if its
        initial training loss already did)."""
        return self.diverged_step is not None


def sgd_step(problem, w, dataset, batch_indices, eta):
    """One SGD update: w - eta * (mean gradient over the batch).

    ``w`` is one weight vector with its (b,) batch, or an (R, d) stack with an
    (R, b) array whose row r is the batch of row r. For a stack, ``dataset``
    is one dataset that every row draws from, or a stack of R datasets
    ((R, n, p) features, (R, n) labels) whose row r is that of row r.
    """
    idx = np.asarray(batch_indices, dtype=int)
    if dataset.labels.ndim == 2:  # a stack of datasets: row r reads its own
        idx = (np.arange(idx.shape[0])[:, None], idx)
    grad = problem.mean_grad(w, dataset.features[idx], dataset.labels[idx])
    return w - eta * grad


def _batch_block(rng, n, b):
    """(BATCH_BLOCK, b) array whose row i is the sorted batch of step i.

    Floyd's algorithm draws a uniform k-subset with k integer draws: for
    j = n - k, ..., n - 1 take t uniform in [0, j] and add j if t is already
    chosen, else t. Here each draw is one ``rng.integers`` call over the
    block's rows, with a (rows, n) membership mask. When 2b > n the k = n - b
    left-out indices are drawn instead and each batch is the rest of its row,
    read off the mask in order; at b = n that draws nothing.
    """
    rows = np.arange(BATCH_BLOCK)
    drop = 2 * b > n
    k = n - b if drop else b
    mask = np.zeros((BATCH_BLOCK, n), dtype=bool)
    picks = np.empty((BATCH_BLOCK, k), dtype=np.intp)
    for col, j in enumerate(range(n - k, n)):
        t = rng.integers(0, j + 1, size=BATCH_BLOCK)
        t[mask[rows, t]] = j
        mask[rows, t] = True
        picks[:, col] = t
    if drop:
        return np.nonzero(~mask)[1].reshape(BATCH_BLOCK, b)
    picks.sort(axis=1)
    return picks


def _noise_transform(problem, w, dataset, factor):
    """d x n factor F of the minibatch covariance at w: F F^T = factor * Sigma.

    F = sqrt(factor / n) (grads - mean)^T, the scaled centered per-example
    gradients, so ``F z`` with z ~ N(0, I_n) has covariance exactly
    ``factor * Sigma`` and no d x d matrix is ever formed.
    """
    grads = problem.per_example_grads(w, dataset.features, dataset.labels)
    return math.sqrt(factor / grads.shape[0]) * (grads - grads.mean(axis=0)).T


def _noise_block(rng, k):
    """(NOISE_BLOCK, k) standard normals from ``rng``: row i holds the k
    normals of step i, bit-identical to NOISE_BLOCK draws of k normals."""
    return rng.standard_normal((NOISE_BLOCK, k))


def sde_step(problem, w, dataset, eta, z, noise_sqrt=None):
    """One Euler-Maruyama step: w - eta G + eta F z, with z ~ N(0, I_k).

    ``noise_sqrt`` is any d x k factor F of the noise covariance, F F^T = C:
    the d x n centered-gradient factor of ``_noise_transform`` or a symmetric
    root C^{1/2}. ``z`` holds the step's k = ``noise_sqrt.shape[-1]``
    standard normals; callers draw them and compute F, and may reuse F
    across steps. ``noise_sqrt=None`` means no noise term (the full-batch
    covariance is exactly zero): the step is then plain gradient descent
    bit-for-bit and ``z`` is ignored. For an (R, d) stack ``w``, ``z`` is
    (R, k), ``noise_sqrt`` an (R, d, k) stack of factors and ``dataset`` one
    dataset or a stack of R datasets, as in ``sgd_step``.
    """
    grad = problem.mean_grad(w, dataset.features, dataset.labels)
    if noise_sqrt is None:
        return w - eta * grad
    return w - eta * grad + eta * np.matmul(noise_sqrt, z[..., None])[..., 0]


def gld_step(problem, w, dataset, eta, z):
    """One Langevin step with identity noise covariance: w - eta G + eta z.

    ``z`` holds the step's standard normals, shaped like ``w``; for an (R, d)
    stack ``dataset`` is one dataset or a stack of R datasets.
    """
    grad = problem.mean_grad(w, dataset.features, dataset.labels)
    return w - eta * grad + eta * z


def _initial_weights(config, problem):
    if config.w0 is not None:
        if config.w0.shape != (problem.dim,):
            raise ConfigError(
                f"w0 has shape {config.w0.shape}, problem dim is {problem.dim}"
            )
        return config.w0.copy()
    rng = substream(config.seed, "init")
    return rng.standard_normal(problem.dim) / math.sqrt(problem.dim)


def _logged_steps(steps, log_every):
    logged = set(range(0, steps + 1, log_every))
    logged.add(steps)
    return logged


def _tail_steps(config):
    return {config.steps - k * config.tail_spacing
            for k in range(config.tail_checkpoints)}


_SERIES = ("steps", "train_loss", "test_loss", "grad_norm_sq", "trace_c",
          "dist_init", "lambda1", "gap")


class _Run:
    """One run of a group: its seed streams, logged series and checkpoints."""

    def __init__(self, config, problem, dataset, oracle, factor,
                 oracle_at_end=False):
        self.config = config
        self.problem = problem
        self.dataset = dataset
        self.oracle = oracle
        self.oracle_at_end = oracle_at_end
        self.factor = factor
        self.w0 = _initial_weights(config, problem)
        self.rng_batch = substream(config.seed, "batch")
        self.rng_noise = substream(config.seed, "noise")
        self.series = {k: [] for k in _SERIES}
        self.weights = []
        self.tail_weights = []
        self.noise_sqrt = None
        self.lanczos_start = None
        self.final_w = None
        self.diverged_step = None

    def log_state(self, t, w, eta):
        """Log the state at step t; False if its training loss diverged."""
        config, problem, dataset = self.config, self.problem, self.dataset
        loss = problem.mean_loss(w, dataset.features, dataset.labels)
        if not np.isfinite(loss) or loss > DIVERGENCE_THRESHOLD:
            return False
        series = self.series
        series["steps"].append(t)
        series["train_loss"].append(loss)
        series["test_loss"].append(
            math.nan if self.oracle_at_end and t != config.steps
            else problem.mean_loss(w, self.oracle.features, self.oracle.labels)
        )
        grads = problem.per_example_grads(w, dataset.features, dataset.labels)
        mean = grads.mean(axis=0)
        series["grad_norm_sq"].append(float(mean @ mean))
        trace_sigma = float(np.mean(np.sum(grads * grads, axis=1)) - mean @ mean)
        series["trace_c"].append(self.factor * trace_sigma)
        series["dist_init"].append(float(np.linalg.norm(w - self.w0)))
        if config.log_lambda1:
            # Each logged state starts Lanczos from the previous one's
            # eigenvector, so lambda1 depends on earlier states only.
            report = spectral.top_eigenvalue(
                problem, w, dataset, seed=config.seed,
                seed_labels=("spectral", t), start=self.lanczos_start,
            )
            self.lanczos_start = report.vector
            series["lambda1"].append(report.lambda_1)
            series["gap"].append(spectral.stability_gap(report.lambda_1, eta))
        if config.record_weights:
            self.weights.append(w.copy())
        return True

    def stop(self, w, diverged_step=None):
        self.final_w = w.copy()
        self.diverged_step = diverged_step

    def record(self):
        config, series = self.config, self.series
        return TrajectoryRecord(
            config=config,
            dataset=self.dataset,
            oracle=self.oracle,
            steps=np.array(series["steps"], dtype=int),
            train_loss=np.array(series["train_loss"]),
            test_loss=np.array(series["test_loss"]),
            grad_norm_sq=np.array(series["grad_norm_sq"]),
            trace_c=np.array(series["trace_c"]),
            dist_init=np.array(series["dist_init"]),
            lambda1=np.array(series["lambda1"]) if config.log_lambda1 else None,
            gap=np.array(series["gap"]) if config.log_lambda1 else None,
            weights=np.array(self.weights) if config.record_weights else None,
            tail_weights=np.array(self.tail_weights) if self.tail_weights else None,
            final_w=self.final_w,
            w0=self.w0,
            diverged_step=self.diverged_step,
        )


def _noise_stack(problem, runs, w):
    """The (R, d, n) stack of the runs' noise factors at the rows of ``w``.

    A factor that does not depend on w (``has_constant_noise``) is built once
    per run, at its first step. Each slice keeps the layout of the run's own
    factor (a transposed view), so the stacked product is bit-identical to
    the run's ``F @ z``.
    """
    for run, w_run in zip(runs, w):
        if run.noise_sqrt is None or not problem.has_constant_noise:
            run.noise_sqrt = _noise_transform(problem, w_run, run.dataset,
                                              run.factor)
    return np.array([run.noise_sqrt.T for run in runs]).transpose(0, 2, 1)


def _step_data(problem, runs, config):
    """What the runs' stacked step reads: their datasets as one stack,
    (R, n, p) features and (R, n) labels, or for a full-batch (SDE or GLD)
    step the family's ``full_batch_data`` of that stack."""
    features = np.array([run.dataset.features for run in runs])
    labels = np.array([run.dataset.labels for run in runs])
    if config.mode != "sgd":
        features, labels = problem.full_batch_data(features, labels)
    return Dataset(features, labels, None)


def _run_group(configs, datasets, oracle, *, oracle_at_end=False):
    """Records of runs whose configs differ only in their seeds; run i
    trains on ``datasets[i]``.

    The live runs advance as one (R, d) weight stack over the stack of their
    datasets (``_step_data``, rebuilt only when a run leaves): each step is
    one call of the mode's step function. Every run
    draws its batches or normals a block of steps at a time from its own
    substreams, in the order a single run does, so each record is
    bit-identical to the same config run as a group of one. A run whose
    weights turn non-finite keeps its previous state and leaves the stack,
    as does one whose logged training loss diverges (at step 0 it leaves
    before the first update, with ``diverged_step`` 0); the others go on.

    With ``oracle_at_end`` the oracle loss is evaluated only at step T:
    ``test_loss`` holds NaN at every earlier logged state, and a run that
    does not reach T has no finite entry. Every other field is unchanged.
    """
    config = configs[0]
    problem = build_problem(config.spec)
    n = config.n
    for dataset in datasets:
        if len(dataset) != n:
            raise ConfigError(f"dataset has {len(dataset)} examples, "
                              f"config expects {n}")
    factor = minibatch_factor(n, config.b)
    runs = [_Run(cfg, problem, dataset, oracle, factor, oracle_at_end)
            for cfg, dataset in zip(configs, datasets)]
    logged = _logged_steps(config.steps, config.log_every)
    tails = _tail_steps(config)
    # What a step draws: each live run's block of it comes every ``span``
    # steps (nothing for a full-batch SDE group).
    if config.mode == "sgd":
        span, draw = BATCH_BLOCK, lambda run: _batch_block(run.rng_batch, n, config.b)
    elif config.mode == "gld" or factor != 0.0:
        k = problem.dim if config.mode == "gld" else n
        span, draw = NOISE_BLOCK, lambda run: _noise_block(run.rng_noise, k)
    else:
        span = draw = None

    eta0 = config.lr_at(1)
    live = []
    for run in runs:
        if run.log_state(0, run.w0, eta0):
            live.append(run)
        else:
            run.stop(run.w0, diverged_step=0)
    if not live:
        return [run.record() for run in runs]
    w = np.array([run.w0 for run in live])
    data = _step_data(problem, live, config)
    noise_sqrt = block = drawn = None
    with np.errstate(all="ignore"):
        for t in range(1, config.steps + 1):
            eta = config.lr_at(t)
            if draw is not None:
                row = (t - 1) % span
                if row == 0:
                    block = np.array([draw(run) for run in live])
                drawn = block[:, row]
            if config.mode == "sgd":
                new = sgd_step(problem, w, data, drawn, eta)
            elif config.mode == "sde":
                if factor != 0.0 and (noise_sqrt is None
                                      or not problem.has_constant_noise):
                    noise_sqrt = _noise_stack(problem, live, w)
                new = sde_step(problem, w, data, eta, drawn,
                               noise_sqrt=noise_sqrt)
            else:  # gld
                new = gld_step(problem, w, data, eta, drawn)
            if np.isfinite(new).all() and t not in tails and t not in logged:
                w = new
                continue
            finite = np.isfinite(new).all(axis=1)
            tail = new.copy() if t in tails else None
            keep = []
            for i, run in enumerate(live):
                if not finite[i]:
                    run.stop(w[i], diverged_step=t)
                    continue
                if tail is not None:
                    run.tail_weights.append(tail[i])
                if t in logged and not run.log_state(t, new[i], eta):
                    run.stop(new[i], diverged_step=t)
                    continue
                keep.append(i)
            if len(keep) < len(live):
                live = [live[i] for i in keep]
                if not live:
                    break
                new = new[keep]
                data = _step_data(problem, live, config)
                noise_sqrt = None
                if block is not None:
                    block = block[keep]
            w = new
    for run, w_run in zip(live, w):
        run.stop(w_run)
    return [run.record() for run in runs]


def _run(config, dataset, oracle):
    """The record of one run: the group of one."""
    return _run_group((config,), (dataset,), oracle)[0]


def train_run(config, dataset=None, oracle=None):
    """Run one training process; deterministic given the config.

    ``dataset``/``oracle`` can be passed to share them across runs (seed
    grids do); by default they are drawn from the config's seeds. The record
    carries both.
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
    paired leave-one-out bound relies on. The record's dataset is S_J.
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


def run_ensemble(config, n_dataset_seeds, n_run_seeds, terminal_only=True,
                 oracle=None):
    """The runs of a dataset-seed x run-seed grid of ``config``, in grid order.

    Dataset seed ``base + i`` is outer (base = the config's dataset seed) and
    run seed ``config.seed + j`` inner. Each dataset and the population
    oracle are drawn once (the oracle only if ``oracle`` is None, as in
    ``train_run``), the runs of one dataset seed share its dataset object,
    and the whole grid trains as one weight stack (see ``_run_group``).
    Every run is bit-identical to ``train_run`` with the same seeds, except
    ``test_loss``: the oracle loss is read only at W_T (by
    ``harness.estimate_generalization_error``), so it is evaluated only at
    step T. ``test_loss`` keeps one entry per logged state, NaN before T; a
    run that reaches T has there the value ``train_run`` gives, and a
    diverged run's is all NaN.

    Ensembles are read at their terminal state, so with ``terminal_only``
    each run logs only its initial and terminal states whatever the config's
    ``log_every`` (tail checkpoints are captured outside logging). Logging
    never touches an RNG stream, so the weights do not depend on the
    cadence, up to divergence: non-finite weights are still caught at every
    step, but the ``DIVERGENCE_THRESHOLD`` loss test runs only at step T, and
    a diverged run's last losses are those of its last logged state.
    ``terminal_only=False`` keeps the config's cadence.
    """
    if n_dataset_seeds < 1 or n_run_seeds < 1:
        raise ConfigError("seed grid must be at least 1 x 1")
    if terminal_only:
        config = replace(config, log_every=config.steps)
    base = config.effective_dataset_seed
    if oracle is None:
        oracle = population_oracle_sample(config.spec, config.oracle_seed)
    configs, datasets = [], []
    for i in range(n_dataset_seeds):
        dataset = generate_dataset(config.spec, base + i, config.n)
        for j in range(n_run_seeds):
            configs.append(replace(config, dataset_seed=base + i,
                                   seed=config.seed + j))
            datasets.append(dataset)
    return tuple(_run_group(configs, datasets, oracle, oracle_at_end=True))
