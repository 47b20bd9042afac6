"""Per-layer spans around the public functions of each ``gradnoise`` module.

The package is not instrumented; instead ``install`` replaces each traced
function with a wrapper everywhere it is bound: the defining module, every
module that did ``from .x import name`` (including dict values such as the
harness's subcommand table) and, for methods, the problem classes. Spans
(name, start, end, parent, two work counts) stay in memory and ``save``
writes them once, when the run ends. ``summarize`` turns a span file into
the per-layer metrics.

Layers are the package modules: harness, dynamics, problems, gradstats,
linalg, spectral and bounds.
"""

import functools
import sys
import time

import numpy as np

LAYERS = ("harness", "dynamics", "problems", "gradstats", "linalg",
          "spectral", "bounds")
BOUND_FUNCTIONS = (
    "traj_bound_isotropic", "traj_bound_langevin", "traj_bound_anisotropic",
    "traj_bound_data_dependent", "terminal_bound_gradient_accum",
    "terminal_bound_general", "terminal_bound_anisotropic",
    "terminal_bound_isotropic", "terminal_bound_loo", "fim_takeuchi_bound",
)
PROBLEM_CLASSES = ("QuadraticProblem", "LogisticProblem", "MlpProblem")
PROBLEM_METHODS = ("per_example_grads", "mean_loss", "mean_grad", "hvp",
                   "exact_hessian")


def _rows(args, kwargs, out):
    """(rows, 0) for problem methods called as (self, w, features, labels)."""
    features = args[2] if len(args) > 2 else kwargs["features"]
    return features.shape[0], 0


def _floored(args, kwargs, out):
    return int(out.floored), 0


def _solve_bytes(args, kwargs, out):
    """Bytes of the d^2 x d^2 Kronecker matrix a general-mode solve builds."""
    mode = args[3] if len(args) > 3 else kwargs.get("mode", "general")
    d = np.shape(args[0])[0]
    return (8 * d**4 if mode == "general" else 0), 0


def _power_iteration(args, kwargs, out):
    return out.iterations_used, int(out.converged)


def _run_counts(args, kwargs, out):
    """(updates executed, states logged) of one training run."""
    config = args[0]
    updates = out.diverged_step if out.diverged else config.steps
    return updates, len(out.steps)


class _FirstSeen:
    """Work count 1 for the first call with given arguments, else 0."""

    def __init__(self):
        self.seen = set()

    def __call__(self, args, kwargs, out):
        key = repr((args, sorted(kwargs.items())))
        first = key not in self.seen
        self.seen.add(key)
        return int(first), 0


def _targets():
    """(module, attribute, span name, work counter) for each traced function.

    These are the functions the CLI subcommands reach, plus the public step
    functions of ``dynamics``.
    """
    t = [("harness", f"cmd_{c}", "harness.cmd", None)
         for c in ("train", "compare", "bounds_traj", "bounds_terminal",
                   "stationary", "sweep_n")]
    t += [("harness", "load_experiment_config", "harness.load_experiment_config", None),
          ("harness", "estimate_generalization_error",
           "harness.estimate_generalization_error", None)]
    t += [("dynamics", name, f"dynamics.{name}", None)
          for name in ("run_ensemble", "train_run", "loo_train", "sgd_step",
                       "sde_step", "gld_step")]
    # The per-run boundary: train_run, loo_train and run_ensemble all call it.
    t.append(("dynamics", "_run", "dynamics.run", _run_counts))
    t += [("problems", "dense_hessian", "problems.dense_hessian", None),
          ("problems", "build_problem", "problems.build_problem", None),
          ("problems", "generate_dataset", "problems.generate_dataset", _FirstSeen()),
          ("problems", "population_oracle_sample",
           "problems.population_oracle_sample", _FirstSeen())]
    t.append(("gradstats", "minibatch_factor", "gradstats.minibatch_factor", None))
    t += [("linalg", name, f"linalg.{name}", None)
          for name in ("spd_sqrt", "log_det", "stationary_residual",
                       "trace_log_diag")]
    t.append(("linalg", "solve_stationary_covariance",
              "linalg.solve_stationary_covariance", _solve_bytes))
    t.append(("spectral", "top_eigenvalue", "spectral.top_eigenvalue", _power_iteration))
    t += [("bounds", name, f"bounds.{name}", None)
          for name in ("tape_from_records",) + BOUND_FUNCTIONS]
    return t


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]

    def wrap(self, name, fn, counter=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                a, b = counter(args, kwargs, out) if counter and out is not None else (0, 0)
                spans[idx] = (nid, t0, t1, parent, a, b)

        return wrapper

    def install(self):
        """Wrap every target at every place the package binds it."""
        import gradnoise.harness  # noqa: F401  (imports every module)

        modules = [m for name, m in sys.modules.items()
                   if name == "gradnoise" or name.startswith("gradnoise.")]
        for module, attr, span, counter in _targets():
            original = getattr(sys.modules[f"gradnoise.{module}"], attr)
            _rebind(modules, original, self.wrap(span, original, counter))
        problems = sys.modules["gradnoise.problems"]
        for cls_name in PROBLEM_CLASSES:
            cls = getattr(problems, cls_name)
            for meth in PROBLEM_METHODS:
                if meth in vars(cls):
                    counter = _rows if meth in ("per_example_grads", "mean_loss") else None
                    setattr(cls, meth, self.wrap(f"problems.{meth}", vars(cls)[meth], counter))
        spd = sys.modules["gradnoise.linalg"].SpdMatrix
        spd.from_matrix = classmethod(self.wrap(
            "linalg.spd_from_matrix", vars(spd)["from_matrix"].__func__, _floored))

    def save(self, path):
        spans = np.array(self.spans, dtype=float).reshape(-1, 6)
        np.savez(path, names=np.array(self.names), name_id=spans[:, 0].astype(np.int32),
                 start=spans[:, 1], end=spans[:, 2], parent=spans[:, 3].astype(np.int64),
                 a=spans[:, 4], b=spans[:, 5])


def _rebind(modules, original, wrapped):
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)
            elif isinstance(value, dict):
                for k, v in value.items():
                    if v is original:
                        value[k] = wrapped


def summarize(path):
    """Per-layer metrics from a span file written by ``Tracer.save``."""
    data = np.load(path)
    names = list(data["names"])
    nid, parent = data["name_id"], data["parent"]
    dur = data["end"] - data["start"]
    a, b = data["a"], data["b"]
    count = len(nid)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=count)
    self_time = dur - child
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=np.int64)
    layer = layer_of[nid]

    # Outermost spans of each name and of each layer, so nesting within one
    # name or layer is not counted twice in total_s.
    name_mask = [0] * count
    layer_mask = [0] * count
    outer_name = np.ones(count, dtype=bool)
    outer_layer = np.ones(count, dtype=bool)
    for i in range(count):
        p = parent[i]
        if p >= 0:
            name_mask[i] = name_mask[p] | (1 << int(nid[p]))
            layer_mask[i] = layer_mask[p] | (1 << int(layer[p]))
            outer_name[i] = not name_mask[i] >> int(nid[i]) & 1
            outer_layer[i] = not layer_mask[i] >> int(layer[i]) & 1

    def sel(name):
        return nid == names.index(name)

    def ratio(num, den):
        return float(num) / float(den) if den else 0.0

    m = {"trace.spans": count}
    for i, lay in enumerate(LAYERS):
        s = layer == i
        m[f"{lay}.calls"] = int(s.sum())
        m[f"{lay}.self_s"] = float(self_time[s].sum())
        m[f"{lay}.total_s"] = float(dur[s & outer_layer].sum())
    for name in names:
        s = sel(name)
        m[f"{name}.calls"] = int(s.sum())
        m[f"{name}.self_s"] = float(self_time[s].sum())
        m[f"{name}.total_s"] = float(dur[s & outer_name].sum())

    for name in ("problems.per_example_grads", "problems.mean_loss"):
        m[f"{name}.rows"] = int(a[sel(name)].sum())
    for name in ("problems.generate_dataset", "problems.population_oracle_sample"):
        s = sel(name)
        m[f"{name}.distinct_ratio"] = ratio(a[s].sum(), s.sum())
    s = sel("linalg.spd_from_matrix")
    m["linalg.spd_from_matrix.floored_ratio"] = ratio(a[s].sum(), s.sum())
    m["linalg.solve_stationary_covariance.bytes_computed"] = int(
        a[sel("linalg.solve_stationary_covariance")].sum())
    s = sel("spectral.top_eigenvalue")
    m["spectral.top_eigenvalue.iterations"] = int(a[s].sum())
    m["spectral.top_eigenvalue.converged_ratio"] = ratio(b[s].sum(), s.sum())

    runs = sel("dynamics.run")
    updates = a[runs].sum()
    logged = b[runs].sum()
    # An ensemble keeps only each run's terminal state; every other caller
    # writes (train) or consumes (bounds-traj) the whole logged series.
    in_ensemble = has_parent & (nid[np.maximum(parent, 0)]
                                == names.index("dynamics.run_ensemble"))
    useful = np.where(in_ensemble, np.minimum(b, 1), b)[runs].sum()
    m["dynamics.runs"] = int(runs.sum())
    m["dynamics.updates"] = int(updates)
    m["dynamics.logged_states"] = int(logged)
    m["dynamics.us_per_update"] = ratio(1e6 * dur[runs].sum(), updates)
    m["dynamics.log_useful_ratio"] = ratio(useful, logged)
    return m
