#!/usr/bin/env python3
"""Contraction-horizon study: fitted a-priori horizon T* versus the measured
per-sweep contraction ratios, across a sweep of data amplitudes, plus the
scalar bound recursion dominating the actual iterates."""

import argparse

import numpy as np

import micropolar as mp
from micropolar.analysis import fit_lemma_constants
from micropolar.kmbounds import (
    check_domination,
    k0_curves,
    km_recursion,
    local_horizon,
)
from micropolar.nonlinear import lambda_chain_cap

ZERO = mp.ForcingSpec.zero()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--amplitudes", type=float, nargs="+",
                    default=[0.05, 0.1, 0.2, 0.4, 0.8])
    args = ap.parse_args()

    grid = mp.GridSpec(dim=2, n=args.n)
    params = mp.CouplingParams()
    cfg = mp.select_intermediate(
        mp.ExponentConfig(p=2, q=2, r=4 / 3, alpha0=0.5, beta0=0.5, gamma0=0.25),
        lambda_cap=lambda_chain_cap(grid, params)).config
    constants = fit_lemma_constants(cfg, grid, params, ensemble=8,
                                    seed=args.seed)

    print(f"{'amp':>6s} {'T*':>8s} {'sweeps':>7s} {'ratio_1':>8s} "
          f"{'dominated':>10s}")
    for amp in args.amplitudes:
        rng = np.random.default_rng(args.seed)
        u0 = mp.leray_project(mp.random_field(grid, 2, rng, sigma=3.0,
                                              amplitude=amp))
        om0 = mp.random_field(grid, 1, rng, sigma=3.0, amplitude=amp)
        th0 = mp.random_field(grid, 1, rng, sigma=3.0, amplitude=amp)
        start = mp.start_state(u0, om0, th0)
        scan = np.linspace(0, 0.6, 97)
        hres = local_horizon(start, cfg, params, constants, scan)
        if hres.tstar is None:
            print(f"{amp:6.2f} {'none':>8s}")
            continue
        horizon = min(hres.tstar, 0.5)
        pic = mp.PicardConfig(horizon=horizon, nodes_per_unit=192, tol=1e-9,
                              m_max=30)
        traj, rep = mp.picard_solve(start, cfg, params, ZERO, ZERO, pic,
                                    record_norms=True)
        k0 = k0_curves(start, cfg, params, traj.times)
        tracker = km_recursion(k0, cfg, params, constants.inflated(1.1),
                               traj.times, grid,
                               m_max=len(rep.iterate_norms) + 2)
        excess = check_domination(tracker, rep.iterate_norms)
        dominated = max(excess.values()) <= 0.0
        ratio1 = rep.ratios[0] if rep.ratios else float("nan")
        print(f"{amp:6.2f} {hres.tstar:8.3f} {len(rep.iterations):7d} "
              f"{ratio1:8.3f} {str(dominated):>10s}")


if __name__ == "__main__":
    main()
