"""Gradient-noise analysis for SGD and its diffusion surrogate.

The package studies how the mini-batch gradient noise of SGD shapes what the
algorithm generalizes: it simulates the discrete processes, measures noise
covariances along trajectories, solves for stationary weight covariances near
minima, and evaluates a family of information-theoretic generalization-bound
estimators on the results.
"""

from .bounds import (
    BoundReport,
    TrajectoryTape,
    fim_takeuchi_bound,
    report_to_json_dict,
    tape_from_records,
    terminal_bound_anisotropic,
    terminal_bound_general,
    terminal_bound_gradient_accum,
    terminal_bound_isotropic,
    terminal_bound_loo,
    traj_bound_anisotropic,
    traj_bound_data_dependent,
    traj_bound_isotropic,
    traj_bound_langevin,
)
from .dynamics import (
    TrainConfig,
    TrajectoryRecord,
    gld_step,
    loo_train,
    run_ensemble,
    sde_step,
    sgd_step,
    train_run,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    GradnoiseError,
    InvalidInputError,
    NumericalError,
    StabilityError,
)
from .gradstats import (
    empirical_gnc,
    gnc_from_grads,
    minibatch_factor,
    minibatch_gnc,
)
from .harness import (
    ExperimentConfig,
    estimate_generalization_error,
    load_experiment_config,
    run_cli,
)
from .linalg import (
    SpdMatrix,
    log_det,
    solve_stationary_covariance,
    spd_sqrt,
    stationary_residual,
    symmetrize,
    trace_log_diag,
)
from .problems import (
    Dataset,
    LogisticSpec,
    MlpSpec,
    QuadraticSpec,
    build_problem,
    dense_hessian,
    generate_dataset,
    population_oracle_sample,
)
from .spectral import SpectralReport, stability_gap, top_eigenvalue

__version__ = "0.1.0"
