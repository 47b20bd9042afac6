#!/usr/bin/env python3
"""Stationary covariance of the SGD diffusion on a quadratic.

Solves the discrete-time Lyapunov fixed point for each closed-form mode,
then checks the general solve against the empirical tail covariance of a
long simulated run.

Usage: python3 stationary_covariance.py [--steps 200000]
"""

import argparse

import numpy as np

from gradnoise import (
    QuadraticSpec,
    TrainConfig,
    build_problem,
    empirical_gnc,
    generate_dataset,
    minibatch_factor,
    solve_stationary_covariance,
    stationary_residual,
    train_run,
)
from gradnoise.linalg import STATIONARY_MODES


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=200_000)
    args = ap.parse_args()

    rng = np.random.default_rng(3)
    d = 4
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    curvature = (q * rng.uniform(0.4, 1.6, d)) @ q.T
    scatter = np.diag(rng.uniform(0.3, 1.2, d))
    spec = QuadraticSpec(curvature=curvature, center=np.zeros(d),
                         scatter=scatter, pop_oracle_size=100)

    n, b, eta = 40, 4, 0.05
    dataset = generate_dataset(spec, seed=0, n=n)
    problem = build_problem(spec)
    w_ref = dataset.features.mean(axis=0)
    sigma = empirical_gnc(problem, w_ref, dataset)
    c = minibatch_factor(n, b) * (sigma + sigma.T) / 2

    print(f"quadratic d={d}, n={n}, b={b}, eta={eta}")
    print(f"commutator norm |HC - CH| = {np.linalg.norm(curvature @ c - c @ curvature):.4f}")
    for mode in STATIONARY_MODES:
        lam = solve_stationary_covariance(curvature, c, eta, mode=mode, b=b)
        res = stationary_residual(lam, curvature, c, eta)
        print(f"  mode {mode:<20s} trace {np.trace(lam):10.6f}  residual {res:.2e}")

    # Long run from w_ref; the quadratic's gradient-noise covariance does not
    # depend on the iterate, so the run builds its noise factor once.
    cfg = TrainConfig(spec=spec, n=n, b=b, lr_schedule=((1, eta),),
                      steps=args.steps, mode="sde", seed=0, dataset_seed=0,
                      log_every=args.steps, tail_checkpoints=1000,
                      tail_spacing=20, w0=w_ref)
    record = train_run(cfg)
    empirical = np.cov(record.tail_weights.T, ddof=1)
    lam_general = solve_stationary_covariance(curvature, c, eta, mode="general")
    rel = np.linalg.norm(empirical - lam_general) / np.linalg.norm(lam_general)
    print(f"empirical tail covariance ({args.steps} steps, 1000 checkpoints):")
    print(f"  relative Frobenius error vs general solve = {rel:.3f}")


if __name__ == "__main__":
    main()
