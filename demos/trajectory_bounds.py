#!/usr/bin/env python3
"""Trajectory-level generalization bounds on a small quadratic problem.

Records full weight trajectories for a handful of runs, rebuilds the
per-step gradient statistics, and prints every trajectory bound side by
side. The isotropic and anisotropic cores are the same per-step KL against
a round prior and against one shaped like the population GNC, each at its
best scale. Here, with the zero reference, the anisotropic core sits below
the isotropic one; the gap is what a data-aligned prior covariance buys.
Nothing forces that order: unless the population GNC is a multiple of the
identity, the round prior is not among the shaped ones.
"""

import dataclasses

import numpy as np

from gradnoise import (
    QuadraticSpec,
    TrainConfig,
    tape_from_records,
    terminal_bound_gradient_accum,
    train_run,
    traj_bound_anisotropic,
    traj_bound_data_dependent,
    traj_bound_isotropic,
    traj_bound_langevin,
)


def main():
    spec = QuadraticSpec(
        curvature=np.diag([0.5, 0.9, 1.3]),
        center=np.zeros(3),
        scatter=np.array([[1.0, 0.3, 0.0],
                          [0.3, 0.7, 0.2],
                          [0.0, 0.2, 0.5]]),
        pop_oracle_size=20_000)
    base = TrainConfig(spec=spec, n=24, b=2, lr_schedule=((1, 0.15),),
                       steps=40, record_weights=True, dataset_seed=0)
    records = [train_run(dataclasses.replace(base, seed=s)) for s in range(4)]
    tape = tape_from_records(records, population=True, leave_one_out=True)

    reports = [
        traj_bound_isotropic(tape),
        traj_bound_isotropic(tape, "population-gradient"),
        traj_bound_langevin(tape),
        traj_bound_anisotropic(tape),
        traj_bound_data_dependent(tape),
        terminal_bound_gradient_accum(records),
    ]
    labels = ["isotropic (zero prior)", "isotropic (population prior)",
              "langevin", "anisotropic", "data-dependent", "gradient-accum"]
    print(f"{len(records)} runs, {tape.n_steps} recorded steps, "
          f"n={tape.config.n}, b={tape.config.b}")
    for label, rep in zip(labels, reports):
        flags = f"  flags={','.join(rep.flags)}" if rep.flags else ""
        print(f"  {label:<30s} core {rep.core:8.5f}  value {rep.value:8.5f}{flags}")


if __name__ == "__main__":
    main()
