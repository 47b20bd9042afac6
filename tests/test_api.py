"""The package's public names are a deliberate list.

A name that joins or leaves ``gradnoise`` has to be added to or removed from
this list, so the public API changes only on purpose. Submodules are left
out: which of them show up as attributes depends on what was imported.
"""

import types

import gradnoise

PUBLIC_NAMES = [
    "BoundReport",
    "CapabilityError",
    "ConfigError",
    "Dataset",
    "DomainError",
    "ExperimentConfig",
    "GradnoiseError",
    "InvalidInputError",
    "LogisticSpec",
    "MlpSpec",
    "NumericalError",
    "QuadraticSpec",
    "SpdMatrix",
    "SpectralReport",
    "StabilityError",
    "TrainConfig",
    "TrajectoryRecord",
    "TrajectoryTape",
    "build_problem",
    "dense_hessian",
    "empirical_gnc",
    "estimate_generalization_error",
    "fim_takeuchi_bound",
    "generate_dataset",
    "gld_step",
    "gnc_from_grads",
    "load_experiment_config",
    "log_det",
    "loo_train",
    "minibatch_factor",
    "minibatch_gnc",
    "population_oracle_sample",
    "report_to_json_dict",
    "run_cli",
    "run_ensemble",
    "sde_step",
    "sgd_step",
    "solve_stationary_covariance",
    "spd_sqrt",
    "stability_gap",
    "stationary_residual",
    "symmetrize",
    "tape_from_records",
    "terminal_bound_anisotropic",
    "terminal_bound_general",
    "terminal_bound_gradient_accum",
    "terminal_bound_isotropic",
    "terminal_bound_loo",
    "top_eigenvalue",
    "trace_log_diag",
    "train_run",
    "traj_bound_anisotropic",
    "traj_bound_data_dependent",
    "traj_bound_isotropic",
    "traj_bound_langevin",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(gradnoise).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert names == PUBLIC_NAMES
