#!/usr/bin/env python3
"""Run the whole estimate-verification battery and print a summary table.

Covers semigroup smoothing/difference bounds, the Sobolev embedding ratios,
and the nine coupling-estimate constants, on a 2D grid with the standard
Hilbert exponent configuration.
"""

import argparse
import json
import os
import time

import micropolar as mp
from micropolar.analysis import (
    verify_bilinear,
    verify_embeddings,
    verify_holder_difference,
    verify_smoothing,
    vanishing_weight_proxy,
)
from micropolar.exponents import ESTIMATES
from micropolar.nonlinear import generators, lambda_chain_cap


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=32)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ensemble", type=int, default=60)
    ap.add_argument("--out", default="out/verification")
    args = ap.parse_args()

    grid = mp.GridSpec(dim=2, n=args.n)
    params = mp.CouplingParams()
    cfg = mp.select_intermediate(
        mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0),
        lambda_cap=lambda_chain_cap(grid, params)).config
    a_op, g_op, b_op = generators(grid, params)

    rows = []
    t0 = time.time()
    for name, op in (("stokes", a_op), ("gamma", g_op), ("laplace", b_op)):
        lam = 0.5 * op.min_positive_eigenvalue()
        for alpha in (0.25, 0.5, 0.75, 1.0):
            rep = verify_smoothing(op, alpha, lam, ensemble=args.ensemble,
                                   seed=args.seed)
            rows.append((f"smoothing {name} a={alpha}", rep))
        rep = verify_holder_difference(op, 0.5, ensemble=args.ensemble,
                                       seed=args.seed)
        rows.append((f"holder-difference {name}", rep))
        proxy = vanishing_weight_proxy(op, 0.5, ensemble=10, seed=args.seed)
        print(f"o(t^-a) proxy [{name}]: monotone={proxy['all_monotone']} "
              f"shrink>={proxy['min_shrink_factor']:.1f}")

    for alpha, p, k, s in ((0.5, 2.0, 1, 2.0), (0.25, 2.0, 0, 2.0),
                           (0.5, 2.0, 0, 6.0)):
        rep = verify_embeddings(alpha, p, k, s, grid, ensemble=args.ensemble,
                                seed=args.seed)
        rows.append((f"embedding a={alpha} -> W^{k},{s}", rep))

    for lemma in ESTIMATES:
        rep = verify_bilinear(lemma, cfg, grid, params,
                              ensemble=args.ensemble, seed=args.seed)
        rows.append((f"estimate {lemma}", rep))

    print(f"\n{'check':40s} {'max':>10s} {'median':>10s} verdict")
    summary = {}
    for name, rep in rows:
        print(f"{name:40s} {rep.ratio_max:10.4f} {rep.ratio_median:10.4f} "
              f"{'pass' if rep.verdict else 'FAIL'}")
        summary[name] = rep.to_dict()
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    print(f"\nwrote {args.out}/summary.json in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
