"""The benchmark's workloads: generated configs, commands and their checks.

Each workload is a list of operations. An operation is one command run through
``micropolar.cli.dispatch`` together with the checks of its outputs. A round
runs every operation of the workload once, in order, in a fresh directory.
"""

from __future__ import annotations

import os

import numpy as np

from micropolar.checkpoint import checkpoint_read

import checks

RESUME_FROM = "checkpoint_w1.mpk"   # covers [0, 0.5] of the 1.0 run


class Round:
    """Paths of one round: its config and the directory the commands write.
    beta2 is the program's selected exponent, which the 2.10 closed form needs."""

    def __init__(self, root: str, cfg: dict, beta2: float):
        self.cfg = cfg
        self.beta2 = beta2
        self.config_path = os.path.join(root, "config.json")
        self.out = cfg["output_dir"]            # under root/run
        self.run_dir = os.path.dirname(self.out)

    def path(self, *parts) -> str:
        return os.path.join(self.run_dir, *parts)


def operations(workload: str, rnd: Round) -> list:
    """(label, argv, check) per operation; check(rnd) returns node sweeps."""
    cfg = rnd.config_path
    if workload == "simulate-resume-2d":
        return [
            ("simulate", ["simulate", "--config", cfg], _check_simulate),
            ("checkpoint resume",
             ["checkpoint", "resume", os.path.join(rnd.out, RESUME_FROM),
              "--config", cfg, "--out", rnd.path("resume")], _check_resume),
        ]
    if workload == "picard-3d":
        return [("picard", ["picard", "--config", cfg], _check_picard)]
    if workload == "estimates-2d":
        return [
            ("picard --fit-constants", ["picard", "--fit-constants", "--config", cfg],
             _check_fit_constants),
            ("verify 2.1", ["verify", "2.1", "--config", cfg, "--out", rnd.path("v2.1")],
             _check_verify_21),
            ("verify 2.10", ["verify", "2.10", "--config", cfg, "--out", rnd.path("v2.10")],
             _check_verify_210),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Checks per command


def _solver_sweeps(rnd: Round, outdir: str) -> tuple:
    """Per-window sweeps and node counts of a solver run's report."""
    pic = rnd.cfg["picard"]
    sweeps = checks.window_sweeps(os.path.join(outdir, "iterations.csv"), pic["tol"])
    nodes = checks.read_table(os.path.join(outdir, "nodes.csv"))
    return sweeps, nodes, checks.window_nodes(nodes["t"], pic["horizon"])


def _check_checkpoint(rnd: Round, path: str, nodes: dict) -> None:
    """Velocities in a checkpoint are solenoidal and its last state has the
    last node row's norms."""
    traj = checkpoint_read(path)
    u = np.stack([f.coeffs for f in traj.u])
    checks.check_solenoidal(u, rnd.cfg["grid"]["length"])
    j = len(traj.times) - 1
    state = tuple(f.coeffs for f in traj.state_at(j))
    volume = rnd.cfg["grid"]["length"] ** rnd.cfg["grid"]["dim"]
    checks.check_last_state(float(traj.times[j]), state, nodes, volume)


def _check_simulate(rnd: Round) -> int:
    v = checks.read_json(os.path.join(rnd.out, "verdicts.json"))
    checks.require(v.get("completed") is True and v.get("windows_converged") is True,
                   f"simulate verdicts {v}")
    sweeps, nodes, per_window = _solver_sweeps(rnd, rnd.out)
    want = round(rnd.cfg["t_total"] / rnd.cfg["picard"]["horizon"])
    checks.require(len(sweeps) == want, f"{len(sweeps)} windows, want {want}")
    energy = checks.read_table(os.path.join(rnd.out, "energy.csv"))
    checks.check_energy(nodes, energy, rnd.cfg["params"]["rho"])
    checks.check_efunctions(checks.read_table(os.path.join(rnd.out, "efunctions.csv")))
    for w in range(want):
        checks.require(os.path.isfile(os.path.join(rnd.out, f"checkpoint_w{w}.mpk")),
                       f"checkpoint_w{w}.mpk missing")
    _check_checkpoint(rnd, os.path.join(rnd.out, f"checkpoint_w{want - 1}.mpk"), nodes)
    return checks.node_sweeps(sweeps, per_window)


def _check_resume(rnd: Round) -> int:
    """The resumed windows reproduce simulate's; their sweeps are simulate's
    sweeps of the same windows, which the reproduction check makes exact."""
    v = checks.read_json(rnd.path("resume", "verdicts.json"))
    checks.require(v.get("completed") is True, f"resume verdicts {v}")
    res = checks.read_table(rnd.path("resume", "nodes.csv"))
    sim = checks.read_table(os.path.join(rnd.out, "nodes.csv"))
    t_from = float(v.get("resumed_from", -1.0))
    checks.require(abs(t_from - 0.5) <= 1e-12, f"resumed from {t_from}, want 0.5")
    checks.check_resume(sim, res, t_from)
    sweeps = checks.window_sweeps(os.path.join(rnd.out, "iterations.csv"),
                                  rnd.cfg["picard"]["tol"])
    return checks.node_sweeps(sweeps, checks.window_nodes(res["t"],
                                                          rnd.cfg["picard"]["horizon"]))


def _check_picard(rnd: Round) -> int:
    v = checks.read_json(os.path.join(rnd.out, "verdicts.json"))
    checks.require(v.get("converged") is True, f"picard verdicts {v}")
    sweeps, nodes, per_window = _solver_sweeps(rnd, rnd.out)
    checks.require(list(sweeps) == [0], "picard ran more than one window")
    checks.check_kinetic_nonincreasing(nodes, rnd.cfg["params"]["rho"])
    _check_checkpoint(rnd, os.path.join(rnd.out, "checkpoint_final.mpk"), nodes)
    return checks.node_sweeps(sweeps, per_window)


def _check_fit_constants(rnd: Round) -> int:
    v = checks.read_json(os.path.join(rnd.out, "verdicts.json"))
    checks.require(v.get("converged") is True, f"picard verdicts {v}")
    checks.check_tstar(v)
    sweeps, _nodes, per_window = _solver_sweeps(rnd, rnd.out)
    return checks.node_sweeps(sweeps, per_window)


def _check_verify_21(rnd: Round) -> int:
    reports = checks.read_table(rnd.path("v2.1", "reports.csv"))
    checks.check_smoothing_constants(reports, rnd.cfg["params"], rnd.cfg["grid"]["length"])
    return 0


def _check_verify_210(rnd: Round) -> int:
    reports = checks.read_table(rnd.path("v2.10", "reports.csv"))
    checks.check_microrotation_constant(reports, rnd.cfg["params"],
                                        rnd.cfg["grid"]["length"], rnd.beta2)
    return 0
