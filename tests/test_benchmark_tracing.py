"""The benchmark's per-layer tracer (perfbench/tracing.py) still finds every
layer it wraps by name, and counts the RHS evaluations of a window: each
assemble_rhs call takes a block of nodes, so the node rows of its calls,
not the calls, add up to every node in the first sweep and to the nodes
after node 0, the window's start state, in each later sweep.

The tracer rebinds names across the package and numpy.fft, so it runs in a
subprocess that the other tests never see."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROGRAM = """
import json, sys
import numpy as np
from perfbench.tracing import Tracer

tracer = Tracer()
tracer.install()
import micropolar as mp
import micropolar.solver as solver
from micropolar.cli import lambda_chain_cap

rows = []
traced = solver.assemble_rhs

def counting(grid, uh, *args, **kwargs):
    rows.append(uh.shape[0])
    return traced(grid, uh, *args, **kwargs)

solver.assemble_rhs = counting

grid, params = mp.GridSpec(dim=2, n=16), mp.CouplingParams()
base = mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0)
cfg = mp.select_intermediate(base, lambda_cap=lambda_chain_cap(grid, params)).config
rng = np.random.default_rng(1234)
u0 = mp.leray_project(mp.random_field(grid, 2, rng, sigma=4.0, amplitude=0.3))
om0, th0 = (mp.random_field(grid, 1, rng, sigma=4.0, amplitude=0.3) for _ in range(2))
pic = mp.PicardConfig(horizon=0.25, nodes_per_unit=32, tol=1e-10, m_max=30)
zero = mp.ForcingSpec.zero()
tracer.active = True
traj, rep = mp.picard_solve(mp.start_state(u0, om0, th0), cfg, params, zero, zero, pic)
tracer.active = False
counts, _ = tracer.snapshot()
json.dump({"missing": tracer.missing, "nodes": traj.node_count,
           "sweeps": len(rep.iterations), "converged": rep.converged,
           "rows": rows, "counts": counts}, sys.stdout)
"""


def test_tracer_wraps_every_layer_and_counts_node_evaluations():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROGRAM], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["missing"] == []
    assert out["converged"] and out["sweeps"] >= 3
    counts = out["counts"]
    assert counts["solver.picard_solve.calls"] == 1
    assert counts["solver.picard_step.calls"] == out["sweeps"]
    assert counts["nonlinear.assemble_rhs.calls"] == len(out["rows"])
    assert sum(out["rows"]) == out["nodes"] + (out["nodes"] - 1) * (out["sweeps"] - 1)
    assert counts["fields.fft_calls"] > 0
