"""Output checks for the benchmark's commands.

Each check compares a command's output files with a quantity computed here
with numpy, or with a property the method must have. None compares with a
stored copy of earlier output. A failed check raises CheckFailed.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

ENERGY_DRIFT_GATE = 1e-3     # the acceptance suite's conservation gate
EXACT_RTOL = 1e-12           # quantities the program computes the same way
SOLENOIDAL_TOL = 1e-10       # max |k.u_hat| relative to max |k| |u_hat|

_NP_SCALAR = re.compile(r"^np\.\w+\((.*)\)$")


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def number(text: str) -> float:
    """A CSV cell as float; numpy scalar reprs such as np.float64(x) are read
    as x (numpy >= 2 prints them that way)."""
    m = _NP_SCALAR.match(text)
    return float(m.group(1) if m else text)


def read_table(path: str) -> dict:
    """Numeric CSV columns by name; non-numeric columns are kept as text."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(len(rows) >= 2, f"{path}: no data rows")
    cols = {}
    for i, name in enumerate(rows[0]):
        cells = [r[i] for r in rows[1:]]
        try:
            cols[name] = np.array([number(c) if c else math.nan for c in cells])
        except ValueError:
            cols[name] = cells
    return cols


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Solver outputs


def window_sweeps(iterations_csv: str, tol: float) -> dict:
    """Picard sweeps per window; every window's last sweep must reach tol."""
    it = read_table(iterations_csv)
    out = {}
    for w in sorted(set(int(x) for x in it["window"])):
        sel = it["window"] == w
        last = int(np.max(it["m"][sel]))
        final = float(np.max(it["total_diff"][sel & (it["m"] == last)]))
        require(final < tol, f"window {w}: final total_diff {final:.3e} >= tol {tol:.1e}")
        out[w] = last
    require(bool(out), f"{iterations_csv}: no iterations")
    return out


def window_nodes(times: np.ndarray, horizon: float) -> dict:
    """Nodes per window of a concatenated trajectory (shared end nodes count
    in both windows)."""
    mids = 0.5 * (times[1:] + times[:-1])
    wins = np.floor(mids / horizon + 1e-9).astype(int)
    return {int(w): int(np.sum(wins == w)) + 1 for w in np.unique(wins)}


def node_sweeps(sweeps: dict, nodes: dict) -> int:
    """Sum over windows of nodes x (sweeps + the initial pass)."""
    require(set(nodes) <= set(sweeps), "nodes in a window without iterations")
    return sum(n * (sweeps[w] + 1) for w, n in nodes.items())


def check_energy(nodes: dict, energy: dict, rho: float) -> None:
    """Kinetic energy from the node norms matches the ledger and does not
    increase; kinetic + heat stays within the conservation gate."""
    kinetic = 0.5 * rho * (nodes["l2_u"] ** 2 + nodes["l2_om"] ** 2)
    require(kinetic.size == energy["kinetic"].size, "energy and nodes differ in length")
    require(np.allclose(energy["t"], nodes["t"], rtol=0, atol=1e-12),
            "energy and nodes differ in times")
    err = np.max(np.abs(kinetic - energy["kinetic"])) / kinetic[0]
    require(err <= EXACT_RTOL, f"ledger kinetic energy off by {err:.2e} (relative)")
    check_kinetic_nonincreasing(nodes, rho)
    total = kinetic + energy["heat"]
    drift = float(np.max(np.abs(total - total[0])) / abs(total[0]))
    require(drift <= ENERGY_DRIFT_GATE, f"kinetic + heat drift {drift:.2e} > {ENERGY_DRIFT_GATE}")


def check_kinetic_nonincreasing(nodes: dict, rho: float) -> None:
    kinetic = 0.5 * rho * (nodes["l2_u"] ** 2 + nodes["l2_om"] ** 2)
    rise = float(np.max(np.diff(kinetic)))
    require(rise <= EXACT_RTOL * kinetic[0], f"kinetic energy increases by {rise:.2e}")


def check_efunctions(efun: dict) -> None:
    """The E-functions are running sups, so they never decrease."""
    names = [c for c in efun if c.startswith("E_")]
    require(bool(names), "no E-function columns")
    for c in names:
        require(bool(np.all(np.diff(efun[c]) >= 0)), f"{c} decreases")


def check_resume(sim_nodes: dict, res_nodes: dict, t_from: float) -> None:
    """The resumed run reproduces the uninterrupted run's nodes on [t_from, end]."""
    sel = sim_nodes["t"] >= t_from - 1e-12
    require(int(np.sum(sel)) == res_nodes["t"].size,
            f"resume has {res_nodes['t'].size} nodes, simulate {int(np.sum(sel))}")
    require(np.allclose(sim_nodes["t"][sel], res_nodes["t"], rtol=0, atol=1e-12),
            "resumed node times differ")
    for c in ("l2_u", "l2_om", "l2_th", "x_alpha0_u", "y_beta0_om", "z_gamma0_th"):
        a, b = sim_nodes[c][sel], res_nodes[c]
        err = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-300)))
        require(err <= EXACT_RTOL, f"resumed {c} differs by {err:.2e} (relative)")


def check_solenoidal(u_coeffs: np.ndarray, length: float) -> None:
    """k . u_hat = 0 at every node; u_coeffs has shape (nodes, dim, n, ..., n)
    in numpy's fftn layout."""
    dim, n = u_coeffs.shape[1], u_coeffs.shape[2]
    k1 = np.fft.fftfreq(n, d=1.0 / n) * (2.0 * np.pi / length)
    ks = np.meshgrid(*([k1] * dim), indexing="ij")
    div = sum(ks[i] * u_coeffs[:, i] for i in range(dim))
    kmag = np.sqrt(sum(k * k for k in ks))
    scale = float(np.max(kmag * np.sqrt(np.sum(np.abs(u_coeffs) ** 2, axis=1))))
    require(scale > 0, "zero velocity in checkpoint")
    defect = float(np.max(np.abs(div))) / scale
    require(defect <= SOLENOIDAL_TOL, f"checkpoint velocity divergence {defect:.2e}")


def check_last_state(t_end: float, state: tuple, nodes: dict, volume: float) -> None:
    """The checkpoint's last (u, om, th) has the last node row's L2 norms."""
    require(abs(t_end - float(nodes["t"][-1])) <= 1e-12, "checkpoint ends at another time")
    for c, coeffs in zip(("l2_u", "l2_om", "l2_th"), state):
        l2 = math.sqrt(volume * float(np.sum(np.abs(coeffs) ** 2)))
        want = float(nodes[c][-1])
        require(abs(l2 - want) <= EXACT_RTOL * max(want, 1e-300),
                f"checkpoint {c} {l2!r} != last node row {want!r}")


# ---------------------------------------------------------------------------
# Estimate outputs


def eigen_floors(params: dict, length: float) -> dict:
    """Smallest positive eigenvalue of each generator on the torus."""
    lam1 = (2.0 * math.pi / length) ** 2
    rho = params["rho"]
    return {"stokes": (params["mu"] + params["mu_r"]) / rho * lam1,
            "gamma": min(params["ca"] + params["cd"],
                         params["c0"] + 2.0 * params["cd"]) / rho * lam1,
            "laplace": params["kappa"] / (rho * params["cv"]) * lam1}


def smoothing_bound(a: float, lam: float, mu1: float) -> float:
    """sup over modes mu >= mu1 of sup_t t^a e^(lam t) mu^a e^(-mu t)."""
    return (a / math.e) ** a * (mu1 / (mu1 - lam)) ** a


_SMOOTHING_ID = re.compile(r"^2\.1 (stokes|gamma|laplace) smoothing a=([0-9.]+) lam=[0-9.]+$")


def check_smoothing_constants(reports: dict, params: dict, length: float) -> None:
    """verify 2.1: twelve constants, each in [0.99, 1] x the closed form with
    lam = mu1 / 2 (a round-off allowance of 1e-12 on the upper end)."""
    floors = eigen_floors(params, length)
    ids = reports["lemma_id"]
    require(len(ids) == 12, f"verify 2.1 gave {len(ids)} rows, want 12")
    for i, lemma in enumerate(ids):
        m = _SMOOTHING_ID.match(lemma)
        require(m is not None, f"unexpected 2.1 row {lemma!r}")
        op, a = m.group(1), float(m.group(2))
        mu1 = floors[op]
        bound = smoothing_bound(a, 0.5 * mu1, mu1)
        c = float(reports["fitted_constant"][i])
        require(0.99 * bound <= c <= bound * (1 + 1e-12),
                f"{lemma}: constant {c!r} outside [0.99, 1] x {bound!r}")


def check_microrotation_constant(reports: dict, params: dict, length: float,
                                 beta2: float) -> None:
    """verify 2.10: ||om||_q / ||Gamma^beta2 om|| is extremal on the lowest
    transverse mode, so the constant is (c_perp lambda1)^(-beta2)."""
    lam1 = (2.0 * math.pi / length) ** 2
    want = ((params["ca"] + params["cd"]) / params["rho"] * lam1) ** (-beta2)
    require(len(reports["lemma_id"]) == 1, "verify 2.10 gave more than one row")
    c = float(reports["fitted_constant"][0])
    require(abs(c - want) <= 1e-9 * max(1.0, want),
            f"2.10 constant {c!r} != (c_perp lambda1)^(-beta2) = {want!r}")


def check_tstar(verdicts: dict) -> None:
    t = verdicts.get("tstar")
    require(isinstance(t, (int, float)) and math.isfinite(t) and t > 0,
            f"tstar {t!r} is not finite and positive")
