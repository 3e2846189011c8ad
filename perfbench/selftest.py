#!/usr/bin/env python3
"""Self-tests of the benchmark's output checks.

Every check gets a valid synthetic output, which must pass, and corrupted
copies, which must fail, so no check passes unconditionally. Run with

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import unittest

import numpy as np

import checks
import run
from checks import CheckFailed

PARAMS = {"mu": 0.9, "mu_r": 0.1, "c0": 0.5, "ca": 0.25, "cd": 0.75,
          "kappa": 1.0, "cv": 1.0, "rho": 1.0}
LENGTH = 2.0 * math.pi
NODE_COLS = ("l2_u", "l2_om", "l2_th", "x_alpha0_u", "y_beta0_om", "z_gamma0_th")


def write_csv(path: str, header: list, rows: list) -> str:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            fh.write(",".join(str(x) for x in r) + "\n")
    return path


def node_table(times: np.ndarray) -> dict:
    decay = np.exp(-times)
    out = {"t": times.copy()}
    for i, c in enumerate(NODE_COLS):
        out[c] = (0.1 + 0.01 * i) * decay
    return out


def solenoidal_field(n: int, dim: int, nodes: int, rng) -> np.ndarray:
    k1 = np.fft.fftfreq(n, d=1.0 / n)
    ks = np.stack(np.meshgrid(*([k1] * dim), indexing="ij"))
    ksq = np.sum(ks * ks, axis=0)
    ksq[(0,) * dim] = 1.0
    u = rng.standard_normal((nodes, dim) + (n,) * dim) \
        + 1j * rng.standard_normal((nodes, dim) + (n,) * dim)
    div = np.sum(ks * u, axis=1)
    return u - ks[None] * (div / ksq)[:, None]


class Parsing(unittest.TestCase):
    def test_numpy_scalar_repr_is_read_as_its_value(self):
        self.assertEqual(checks.number("np.float64(0.25)"), 0.25)
        self.assertEqual(checks.number("1e-3"), 1e-3)
        with self.assertRaises(ValueError):
            checks.number("np.float64(abc)")

    def test_read_table_keeps_text_columns(self):
        with tempfile.TemporaryDirectory() as d:
            p = write_csv(os.path.join(d, "a.csv"), ["t", "name"], [[0.5, "x"], [1.0, "y"]])
            tab = checks.read_table(p)
        self.assertEqual(list(tab["t"]), [0.5, 1.0])
        self.assertEqual(tab["name"], ["x", "y"])


class Windows(unittest.TestCase):
    def iterations(self, d, finals):
        rows = []
        for w, final in enumerate(finals):
            rows += [[w, 1, 1e-3, "", "u", 0.5, 1e-3],
                     [w, 2, final, 0.1, "u", 0.5, final],
                     [w, 2, final, 0.1, "om", 0.5, final / 2]]
        return write_csv(os.path.join(d, "iterations.csv"),
                         ["window", "m", "total_diff", "ratio", "norm_tag",
                          "norm_exp", "diff"], rows)

    def test_converged_windows_pass(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(checks.window_sweeps(self.iterations(d, [1e-10, 2e-10]), 1e-9),
                             {0: 2, 1: 2})

    def test_unconverged_window_fails(self):
        with tempfile.TemporaryDirectory() as d:
            with self.assertRaises(CheckFailed):
                checks.window_sweeps(self.iterations(d, [1e-10, 2e-9]), 1e-9)

    def test_node_sweeps_counts_shared_end_nodes(self):
        times = np.linspace(0.0, 0.5, 9)
        nodes = checks.window_nodes(times, 0.25)
        self.assertEqual(nodes, {0: 5, 1: 5})
        self.assertEqual(checks.node_sweeps({0: 6, 1: 5}, nodes), 5 * 7 + 5 * 6)


class Energy(unittest.TestCase):
    def setUp(self):
        self.nodes = node_table(np.linspace(0.0, 1.0, 11))
        kinetic = 0.5 * (self.nodes["l2_u"] ** 2 + self.nodes["l2_om"] ** 2)
        self.energy = {"t": self.nodes["t"].copy(), "kinetic": kinetic.copy(),
                       "heat": kinetic[0] - kinetic}

    def test_consistent_ledger_passes(self):
        checks.check_energy(self.nodes, self.energy, 1.0)

    def test_ledger_kinetic_off_fails(self):
        self.energy["kinetic"][4] *= 1 + 1e-9
        with self.assertRaises(CheckFailed):
            checks.check_energy(self.nodes, self.energy, 1.0)

    def test_rising_kinetic_energy_fails(self):
        self.nodes["l2_u"][5] = self.nodes["l2_u"][3]
        self.energy["kinetic"] = 0.5 * (self.nodes["l2_u"] ** 2 + self.nodes["l2_om"] ** 2)
        with self.assertRaises(CheckFailed):
            checks.check_energy(self.nodes, self.energy, 1.0)

    def test_drift_above_gate_fails(self):
        self.energy["heat"] = self.energy["heat"] * (1 + 2e-3)
        with self.assertRaises(CheckFailed):
            checks.check_energy(self.nodes, self.energy, 1.0)

    def test_efunctions(self):
        efun = {"t": np.arange(4.0), "E_u_0.5": np.array([0.0, 1.0, 1.0, 2.0])}
        checks.check_efunctions(efun)
        efun["E_u_0.5"][3] = 0.5
        with self.assertRaises(CheckFailed):
            checks.check_efunctions(efun)


class Resume(unittest.TestCase):
    def setUp(self):
        self.sim = node_table(np.linspace(0.0, 1.0, 9))
        sel = self.sim["t"] >= 0.5
        self.res = {k: v[sel].copy() for k, v in self.sim.items()}

    def test_exact_reproduction_passes(self):
        checks.check_resume(self.sim, self.res, 0.5)

    def test_perturbed_resumed_row_fails(self):
        self.res["l2_th"][2] *= 1 + 1e-9
        with self.assertRaises(CheckFailed):
            checks.check_resume(self.sim, self.res, 0.5)

    def test_missing_row_fails(self):
        short = {k: v[:-1] for k, v in self.res.items()}
        with self.assertRaises(CheckFailed):
            checks.check_resume(self.sim, short, 0.5)


class Checkpoint(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(3)
        self.u2 = solenoidal_field(8, 2, 3, rng)
        self.u3 = solenoidal_field(6, 3, 2, rng)

    def test_solenoidal_velocity_passes(self):
        checks.check_solenoidal(self.u2, LENGTH)
        checks.check_solenoidal(self.u3, LENGTH)

    def test_non_solenoidal_velocity_fails(self):
        bad = self.u2.copy()
        bad[1, 0, 1, 0] += 1e-6      # longitudinal part on mode (1, 0)
        with self.assertRaises(CheckFailed):
            checks.check_solenoidal(bad, LENGTH)

    def test_last_state_matches_last_row(self):
        vol = LENGTH ** 2
        state = (self.u2[-1], self.u2[-1, :1], self.u2[-1, 1:])
        norms = [math.sqrt(vol * float(np.sum(np.abs(c) ** 2))) for c in state]
        nodes = {"t": np.array([0.0, 0.25]),
                 "l2_u": np.array([1.0, norms[0]]), "l2_om": np.array([1.0, norms[1]]),
                 "l2_th": np.array([1.0, norms[2]])}
        checks.check_last_state(0.25, state, nodes, vol)
        with self.assertRaises(CheckFailed):
            checks.check_last_state(0.5, state, nodes, vol)
        nodes["l2_om"][-1] *= 1 + 1e-9
        with self.assertRaises(CheckFailed):
            checks.check_last_state(0.25, state, nodes, vol)


class Estimates(unittest.TestCase):
    def smoothing_reports(self, factor=0.995):
        ids, consts = [], []
        for op in ("stokes", "gamma", "laplace"):
            for a in (0.25, 0.5, 0.75, 1.0):
                ids.append(f"2.1 {op} smoothing a={a} lam=0.5")
                consts.append(factor * checks.smoothing_bound(a, 0.5, 1.0))
        return {"lemma_id": ids, "fitted_constant": np.array(consts)}

    def test_smoothing_bound_closed_form(self):
        # a = 1, lam = mu1 / 2: (1/e) * 2
        self.assertAlmostEqual(checks.smoothing_bound(1.0, 0.5, 1.0), 2.0 / math.e)
        self.assertEqual(checks.eigen_floors(PARAMS, LENGTH),
                         {"stokes": 1.0, "gamma": 1.0, "laplace": 1.0})

    def test_constants_below_closed_form_pass(self):
        checks.check_smoothing_constants(self.smoothing_reports(), PARAMS, LENGTH)

    def test_constant_above_closed_form_fails(self):
        reps = self.smoothing_reports()
        reps["fitted_constant"][5] *= 1.01
        with self.assertRaises(CheckFailed):
            checks.check_smoothing_constants(reps, PARAMS, LENGTH)

    def test_constant_far_below_closed_form_fails(self):
        with self.assertRaises(CheckFailed):
            checks.check_smoothing_constants(self.smoothing_reports(0.98), PARAMS, LENGTH)

    def test_missing_row_fails(self):
        reps = self.smoothing_reports()
        reps = {"lemma_id": reps["lemma_id"][:-1], "fitted_constant": reps["fitted_constant"][:-1]}
        with self.assertRaises(CheckFailed):
            checks.check_smoothing_constants(reps, PARAMS, LENGTH)

    def test_microrotation_constant(self):
        params = dict(PARAMS, ca=0.5)          # c_perp = 1.25
        want = 1.25 ** -0.375
        checks.check_microrotation_constant(
            {"lemma_id": ["2.10"], "fitted_constant": np.array([want])}, params, LENGTH, 0.375)
        with self.assertRaises(CheckFailed):
            checks.check_microrotation_constant(
                {"lemma_id": ["2.10"], "fitted_constant": np.array([want + 1e-7])},
                params, LENGTH, 0.375)

    def test_tstar(self):
        checks.check_tstar({"tstar": 0.027})
        for bad in (None, 0.0, -1.0, math.inf, math.nan, "0.1"):
            with self.assertRaises(CheckFailed):
                checks.check_tstar({"tstar": bad})


class MetricNames(unittest.TestCase):
    """The metrics a run prints are exactly those BENCHMARK.json declares."""

    def setUp(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def declared(self, key):
        return {m["name"]: m["unit"] for m in self.spec[key]}

    def test_end_to_end(self):
        rounds = [{"wall": 2.0, "node_sweeps": 10, "rss_kb": 2048, "output_bytes": 5,
                   "reference_s": 0.025}]
        got = run.end_to_end_metrics([0.2], rounds, True)
        self.assertEqual({k: u for k, (_v, u) in got.items()}, self.declared("end_to_end"))
        self.assertTrue(all(v > 0 for v, _u in got.values()))

    def test_per_layer(self):
        class FakeTracer:
            counts, busy = {}, {}
        snap = ({}, {})
        rounds = [{"trace": (snap, snap), "cpu_user": 1.0, "cpu_sys": 0.1, "wall": 2.0}]
        got = run.per_layer_metrics(FakeTracer(), rounds, [0.02, 0.03])
        self.assertEqual({k: u for k, (_v, u) in got.items()}, self.declared("per_layer"))


if __name__ == "__main__":
    unittest.main()
