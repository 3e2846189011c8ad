"""Generated configs of the benchmark's workloads (standard library only, so
that writing the set-up config does not import numpy before set-up is timed)."""

from __future__ import annotations

import copy

# The recipe of configs/example_run.json, kept here so that an edit to the
# example does not move the benchmark. output_dir and seed are set per round.
RECIPE = {
    "grid": {"dim": 2, "n": 32, "length": 6.283185307179586,
             "dealias_fraction": 0.6666666666666666},
    "exponents": {"p": 2, "q": 2, "r": 2, "alpha0": 0.5, "beta0": 0.5,
                  "gamma0": 0.0, "select": True},
    "params": {"mu": 0.9, "mu_r": 0.1, "c0": 0.5, "ca": 0.25, "cd": 0.75,
               "kappa": 1.0, "cv": 1.0, "rho": 1.0},
    "forcing_f": {"kind": "zero"},
    "forcing_g": {"kind": "zero"},
    "picard": {"horizon": 0.25, "nodes_per_unit": 256, "m_max": 30,
               "tol": 1e-09, "grading": 1.0},
    "initial_data": {"kind": "random", "amplitude": [0.1, 0.1, 0.1],
                     "sigma": [3.0, 3.0, 3.0]},
    "t_total": 1.0,
}

WORKLOADS = ("simulate-resume-2d", "picard-3d", "estimates-2d")

# Workloads whose round times are rescaled by the host reference (hostref.py):
# the solver workloads, whose commands keep one core busy, as the reference
# does. estimates-2d is not rescaled: its BLAS calls keep both cores busy, and
# rescaled, its spread over five runs grew from 0.08 to 0.19.
# picard-3d runs by hand only; BENCHMARK.json does not list it (see README.md).
RESCALED = ("simulate-resume-2d", "picard-3d")


def make_config(workload: str, seed: int, output_dir: str) -> dict:
    """The config the program gets; the seed only picks the initial data and
    the ensemble streams."""
    cfg = copy.deepcopy(RECIPE)
    if workload == "picard-3d":
        cfg["grid"]["n"] = 16
        cfg["grid"]["dim"] = 3
    cfg["seed"] = int(seed)
    cfg["output_dir"] = output_dir
    return cfg
