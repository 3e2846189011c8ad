"""Run configuration, command dispatch, seeding, and report serialization.

Exit codes: 0 all asserted checks passed, 1 an asserted check failed,
2 malformed configuration or usage.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .analysis import (
    dependence_ratio,
    energy_report,
    fit_decay,
    fit_lemma_constants,
    initial_distance,
    pde_residual,
    residual_refinement_order,
    time_hoelder_quotients,
    vanishing_weight_proxy,
    verify_bilinear,
    verify_embeddings,
    verify_holder_difference,
    verify_smoothing,
)
from .checkpoint import checkpoint_read, checkpoint_write, read_header
from .errors import (
    CheckpointError,
    ConfigurationError,
    PreconditionError,
    SingularOperatorError,
)
from .exponents import BASE, ESTIMATES, ExponentConfig, check_config, select_intermediate
from .fields import GridSpec, SpectralField, random_field
from .gronwall import (MAX_VIOLATION_FRACTION, gronwall_bound, gronwall_oracle,
                       violation_fraction)
from .nonlinear import CouplingParams, ForcingSpec, generators, lambda_chain_cap
from .operators import leray_project
from .solver import (PicardConfig, TrajectoryState, WeightedNorms, first_window, global_solve,
                     node_log, picard_solve, start_state, tag_components, window_horizons)

USAGE_ERROR = 2
CHECK_FAILED = 1


@dataclass(frozen=True)
class InitialDataSpec:
    kind: str = "random"          # "zero" | "random" | "single_mode"
    amplitude: tuple = (0.05, 0.05, 0.05)
    sigma: tuple = (2.0, 2.0, 2.0)
    mode: tuple = (1, 0)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "amplitude": list(self.amplitude),
                "sigma": list(self.sigma), "mode": list(self.mode)}

    @staticmethod
    def from_dict(d: dict) -> "InitialDataSpec":
        return InitialDataSpec(
            kind=d.get("kind", "random"),
            amplitude=tuple(float(x) for x in d.get("amplitude", (0.05, 0.05, 0.05))),
            sigma=tuple(float(x) for x in d.get("sigma", (2.0, 2.0, 2.0))),
            mode=tuple(int(x) for x in d.get("mode", (1, 0))))


def build_initial_data(grid: GridSpec, spec: InitialDataSpec, seed: int) -> tuple:
    om_comp = tag_components(grid.dim)["om"]
    if spec.kind == "zero":
        return (SpectralField.zero(grid, grid.dim), SpectralField.zero(grid, om_comp),
                SpectralField.zero(grid, 1))
    if spec.kind == "single_mode":
        k = (tuple(spec.mode) + (0,) * grid.dim)[: grid.dim]
        # the solver's products are alias-free only inside the 2/3 ball
        cutoff = grid.dealias_fraction * grid.n / 2.0
        if max(abs(ki) for ki in k) > cutoff + 1e-12:
            raise ConfigurationError(
                f"initial_data mode {list(k)} lies outside the dealias ball "
                f"|k_i| <= {cutoff:g} of the n = {grid.n} grid")
        amp_u = [0.0] * grid.dim
        # amplitude transverse to k so the mode is solenoidal
        amp_u[-1] = spec.amplitude[0] if k[-1] == 0 else 0.0
        if k[-1] != 0:
            amp_u[0] = spec.amplitude[0]
        u0 = leray_project(SpectralField.single_mode(grid, k, amp_u))
        om0 = SpectralField.single_mode(grid, k, [spec.amplitude[1]] * om_comp)
        th0 = SpectralField.single_mode(grid, k, spec.amplitude[2])
    else:
        rngs = np.random.SeedSequence(seed).spawn(3)
        u0 = leray_project(random_field(grid, grid.dim, np.random.default_rng(rngs[0]),
                                        sigma=spec.sigma[0], amplitude=spec.amplitude[0]))
        om0 = random_field(grid, om_comp, np.random.default_rng(rngs[1]),
                           sigma=spec.sigma[1], amplitude=spec.amplitude[1])
        th0 = random_field(grid, 1, np.random.default_rng(rngs[2]),
                           sigma=spec.sigma[2], amplitude=spec.amplitude[2])
    # the projection changes the velocity's norm: rescale it to the amplitude
    scale = u0.l2()
    if scale > 0:
        u0 = u0 * (spec.amplitude[0] / scale)
    return u0, om0, th0


@dataclass
class RunConfig:
    grid: GridSpec
    exponents: ExponentConfig
    params: CouplingParams
    forcing_f: ForcingSpec
    forcing_g: ForcingSpec
    picard: PicardConfig
    initial_data: InitialDataSpec
    seed: int = 0
    t_total: float = 1.0
    output_dir: str = "out"


def config_hash(cfg: RunConfig) -> str:
    """Hash of the inputs that set the trajectory; t_total and output_dir are
    left out, so a checkpoint resumes into any directory and any horizon."""
    canon = json.dumps(
        {"grid": cfg.grid.to_dict(), "exponents": cfg.exponents.to_dict(),
         "params": cfg.params.to_dict(), "forcing_f": cfg.forcing_f.to_dict(),
         "forcing_g": cfg.forcing_g.to_dict(), "picard": cfg.picard.to_dict(),
         "initial_data": cfg.initial_data.to_dict(), "seed": cfg.seed},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except ValueError as exc:       # invalid JSON or not UTF-8
        raise ConfigurationError(f"config is not valid JSON: {exc}") from None


@contextlib.contextmanager
def _config_fields():
    """Report a missing or malformed config field as a ConfigurationError."""
    try:
        yield
    except ConfigurationError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed config field: {exc}") from None


def load_config(path: str) -> RunConfig:
    raw = _read_json(path)
    with _config_fields():
        grid = GridSpec.from_dict(raw.get("grid", {}))
        exp_raw = dict(raw.get("exponents", {}))
        want_select = bool(exp_raw.pop("select", False))
        exps = ExponentConfig.from_dict(exp_raw)
        params = CouplingParams.from_dict(raw.get("params", {})) \
            if raw.get("params") else CouplingParams()
        cap = lambda_chain_cap(grid, params)
        searched = ("delta1", "delta2", "delta3") + ExponentConfig._INTERMEDIATES
        missing = [name for name in searched if getattr(exps, name) is None]
        if not want_select and 0 < len(missing) < len(searched):
            raise ConfigurationError(
                "exponents: a partial set of deltas and intermediates needs "
                "\"select\": true; missing " + ", ".join(missing))
        if want_select or missing:
            sel = select_intermediate(exps, lambda_cap=cap)
            if not sel.feasible:
                raise ConfigurationError(
                    "exponent selection infeasible: " + "; ".join(sel.binding[:4]))
            exps = sel.config
        verdict = check_config(exps, BASE, lambda_cap=cap)
        if not verdict.passed:
            raise ConfigurationError(
                "exponents: " + "; ".join(str(v) for v in verdict.violations[:4]))
        seed = int(raw.get("seed", 0))
        if seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
        t_total = float(raw.get("t_total", 1.0))
        if not math.isfinite(t_total):
            raise ConfigurationError(f"t_total must be a finite number, got {t_total}")
        return RunConfig(
            grid=grid, exponents=exps, params=params,
            forcing_f=ForcingSpec.from_dict(raw.get("forcing_f", {"kind": "zero"})),
            forcing_g=ForcingSpec.from_dict(raw.get("forcing_g", {"kind": "zero"})),
            picard=PicardConfig.from_dict(raw.get("picard", {})),
            initial_data=InitialDataSpec.from_dict(raw.get("initial_data", {})),
            seed=seed,
            t_total=t_total,
            output_dir=str(raw.get("output_dir", "out")))


# ---------------------------------------------------------------------------
# Report bundle


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


@dataclass
class ReportBundle:
    meta: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)   # name -> (columns, rows)
    verdicts: dict = field(default_factory=dict)

    def add_table(self, name: str, columns: list, rows: list,
                  provenance: str = "measured"):
        cols = list(columns)
        if "provenance" not in cols:
            cols.append("provenance")
            rows = [list(r) + [provenance] for r in rows]
        self.tables[name] = (cols, rows)

    def failed(self) -> bool:
        return any(v is False or v == "fail" for v in self.verdicts.values())


def write_report(bundle: ReportBundle, outdir: str) -> list:
    os.makedirs(outdir, exist_ok=True)
    paths = []
    meta_path = os.path.join(outdir, "meta.json")
    with open(meta_path, "w") as fh:
        json.dump(bundle.meta, fh, sort_keys=True, indent=1)
        fh.write("\n")
    paths.append(meta_path)
    for name in sorted(bundle.tables):
        cols, rows = bundle.tables[name]
        p = os.path.join(outdir, f"{name}.csv")
        with open(p, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
        paths.append(p)
    v_path = os.path.join(outdir, "verdicts.json")
    with open(v_path, "w") as fh:
        json.dump(bundle.verdicts, fh, sort_keys=True, indent=1)
        fh.write("\n")
    paths.append(v_path)
    return paths


def _new_bundle(cfg: RunConfig | None, command: str) -> ReportBundle:
    bundle = ReportBundle()
    bundle.meta = {"command": command}
    if cfg is not None:
        bundle.meta["config_hash"] = config_hash(cfg)
        bundle.meta["seed"] = cfg.seed
    return bundle


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_exponents(args) -> int:
    cfg_raw = _read_json(args.config)
    with _config_fields():
        exp_raw = dict(cfg_raw.get("exponents", cfg_raw))
        exp_raw.pop("select", None)
        exps = ExponentConfig.from_dict(exp_raw)
        grid = GridSpec.from_dict(cfg_raw["grid"]) if "grid" in cfg_raw else GridSpec()
        params = CouplingParams.from_dict(cfg_raw["params"]) if "params" in cfg_raw \
            else CouplingParams()
    cap = lambda_chain_cap(grid, params)
    if args.action == "check":
        result = check_config(exps, args.level, lambda_cap=cap)
        out = {"level": result.level, "passed": result.passed,
               "checked": result.checked,
               "violations": [{"label": v.label, "lhs": v.lhs,
                               "relation": v.relation, "rhs": v.rhs}
                              for v in result.violations]}
        print(json.dumps(out, indent=1, sort_keys=True))
        return 0 if result.passed else CHECK_FAILED
    sel = select_intermediate(exps, lambda_cap=cap)
    if not sel.feasible:
        print(json.dumps({"feasible": False, "binding": sel.binding,
                          "notes": sel.notes}, indent=1))
        return CHECK_FAILED
    out = {"feasible": True, "exponents": sel.config.to_dict()}
    print(json.dumps(out, indent=1, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "exponents.json"), "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
    return 0


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    pic = cfg.picard
    if getattr(args, "dt", None) is not None:
        pic = PicardConfig.from_dict({**pic.to_dict(),
                                      "nodes_per_unit": int(round(1.0 / args.dt))})
    if getattr(args, "refine", None):
        # refused before the exact 2 ** refine, whose size grows with refine,
        # when the window's node count is far past the index range
        if math.log2(pic.horizon * pic.nodes_per_unit) + args.refine > 2 * np.iinfo(np.intp).bits:
            raise ConfigurationError(f"--refine {args.refine} gives a window of {pic.horizon:g} "
                                     f"more nodes than an array can index")
        pic = PicardConfig.from_dict({**pic.to_dict(),
                                      "nodes_per_unit": pic.nodes_per_unit * 2 ** args.refine})
    cfg.picard = pic
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    return cfg


def _norm_table_rows(log: dict, cfg: RunConfig) -> tuple:
    """The nodes table of a node_log."""
    cols = ["t", "l2_u", "l2_om", "l2_th",
            "x_alpha0_u", "y_beta0_om", "z_gamma0_th"]
    keys = ["t", "u", "om", "th", *cfg.exponents.by_tag("base").items()]
    return cols, [[float(x) for x in row] for row in zip(*(log[key] for key in keys))]


def _iteration_table(reports, first: int) -> tuple:
    cols = ["window", "m", "total_diff", "ratio", "norm_tag", "norm_exp", "diff"]
    rows = []
    for w, rep in enumerate(reports, first):
        for rec in rep.iterations:
            for (tag, exp), val in sorted(rec.diffs.items()):
                rows.append([w, rec.m, rec.total,
                             rec.ratio if rec.ratio is not None else "",
                             tag, exp, val])
    return cols, rows


def _march(cfg: RunConfig, bundle: ReportBundle, start: TrajectoryState) -> int:
    """Solve from the start state to t_total, checkpoint each window's end
    and write the report.  Windows are numbered as in the march from t = 0,
    from the one the start state's time lies in (see first_window)."""
    first = first_window(cfg.picard, float(start.times[0]))
    chash = config_hash(cfg)
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)

    def hook(w, traj):
        window = first + w
        checkpoint_write(traj, os.path.join(outdir, f"checkpoint_w{window}.mpk"),
                         chash, window)

    result = global_solve(start, cfg.exponents, cfg.params,
                          cfg.forcing_f, cfg.forcing_g, cfg.picard,
                          cfg.t_total, checkpoint_hook=hook)
    bundle.add_table("nodes", *_norm_table_rows(result.log, cfg))
    bundle.add_table("iterations", *_iteration_table(result.reports, first))
    keys = sorted(result.e_sup)
    bundle.add_table("efunctions", ["t"] + [f"E_{tag}_{exp:.6g}" for tag, exp in keys],
                     [[float(t)] + [float(result.e_sup[k][j]) for k in keys]
                      for j, t in enumerate(result.log["t"])])
    elog = result.ledger
    bundle.add_table("energy", ["t", "kinetic", "heat", "dissipation", "total"],
                     [[float(elog.times[j]), elog.kinetic[j], elog.heat[j],
                       elog.dissipation[j], elog.total[j]]
                      for j in range(elog.times.size)])
    bundle.verdicts.update({
        "completed": result.completed,
        "windows_converged": all(r.converged for r in result.reports),
        "within_small_data_bound": ("not_evaluated" if result.e_bound is None
                                    else not result.bound_crossed),
    })
    if elog.conservative:
        bundle.verdicts["energy_relative_drift"] = elog.relative_drift
    write_report(bundle, outdir)
    return 0 if (result.completed and not bundle.failed()) else CHECK_FAILED


def _cmd_simulate(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    start = start_state(*build_initial_data(cfg.grid, cfg.initial_data, cfg.seed))
    return _march(cfg, _new_bundle(cfg, "simulate"), start)


def _cmd_picard(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    bundle = _new_bundle(cfg, "picard")
    start = start_state(*build_initial_data(cfg.grid, cfg.initial_data, cfg.seed))
    constants = None
    if args.fit_constants:
        constants = fit_lemma_constants(cfg.exponents, cfg.grid, cfg.params,
                                        cfg.forcing_f, cfg.forcing_g,
                                        ensemble=20, seed=cfg.seed)
    traj, rep = picard_solve(start, cfg.exponents, cfg.params,
                             cfg.forcing_f, cfg.forcing_g, cfg.picard,
                             constants=constants)
    for note in rep.notes:
        print(f"note: {note}", file=sys.stderr)
    bundle.add_table("iterations", *_iteration_table([rep], 0))
    log = node_log(traj, WeightedNorms(cfg.exponents, cfg.grid, cfg.params))
    bundle.add_table("nodes", *_norm_table_rows(log, cfg))
    outdir = cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    checkpoint_write(traj, os.path.join(outdir, "checkpoint_final.mpk"),
                     config_hash(cfg))
    bundle.verdicts = {"converged": rep.converged, "diverged": rep.diverged,
                       "iterations": len(rep.iterations)}
    if rep.tstar is not None:
        bundle.verdicts["tstar"] = rep.tstar
    write_report(bundle, outdir)
    return 0 if rep.converged else CHECK_FAILED


def _default_run(cfg: RunConfig, pic: PicardConfig, data: tuple | None = None):
    """picard_solve of the run with the Picard settings pic from the fields
    data, by default the configured initial data drawn with the run's seed."""
    if data is None:
        data = build_initial_data(cfg.grid, cfg.initial_data, cfg.seed)
    return picard_solve(start_state(*data), cfg.exponents, cfg.params,
                        cfg.forcing_f, cfg.forcing_g, pic)


def _verify_targets(target: str, cfg: RunConfig, seed: int, ensemble: int,
                    bundle: ReportBundle) -> list:
    """Run one verification target; returns EstimateReport-like dicts."""
    grid, params, exps = cfg.grid, cfg.params, cfg.exponents
    a_op, g_op, b_op = generators(grid, params)
    reports = []
    if target == "2.1":
        for name, op in (("stokes", a_op), ("gamma", g_op), ("laplace", b_op)):
            lam = 0.5 * op.min_positive_eigenvalue()
            for alpha in (0.25, 0.5, 0.75, 1.0):
                rep = verify_smoothing(op, alpha, lam, ensemble=ensemble, seed=seed)
                rep.lemma_id = f"2.1 {name} {rep.lemma_id}"
                reports.append(rep)
    elif target == "2.2":
        for name, op in (("stokes", a_op), ("gamma", g_op), ("laplace", b_op)):
            for alpha in (0.25, 0.5, 1.0):
                rep = verify_holder_difference(op, alpha, ensemble=ensemble, seed=seed)
                rep.lemma_id = f"2.2 {name} {rep.lemma_id}"
                reports.append(rep)
    elif target == "2.3":
        for name, op in (("stokes", a_op), ("laplace", b_op)):
            res = vanishing_weight_proxy(op, 0.5, ensemble=min(ensemble, 20), seed=seed)
            bundle.verdicts[f"2.3 {name} monotone"] = res["all_monotone"]
    elif target == "2.4":
        cases = [(0.5, exps.p, 1, float(exps.p)), (0.25, exps.p, 0, exps.p),
                 (0.5, exps.p, 0, 6.0)]
        for alpha, p, k, s in cases:
            reports.append(verify_embeddings(alpha, p, k, s, grid,
                                             ensemble=ensemble, seed=seed))
    elif target in ESTIMATES:
        reports.append(verify_bilinear(target, exps, grid, params,
                                       cfg.forcing_f, cfg.forcing_g,
                                       ensemble=ensemble, seed=seed))
    elif target in {"3.5", "dependence"}:
        u0, om0, th0 = build_initial_data(cfg.grid, cfg.initial_data, seed)
        base, _ = _default_run(cfg, cfg.picard, (u0, om0, th0))
        ratios = {}
        for delta in (1e-4, 5e-5):
            du = random_field(grid, grid.dim, np.random.default_rng(seed + 7),
                              amplitude=delta)
            up = leray_project(u0 + du)
            pert, _ = _default_run(cfg, cfg.picard, (up, om0, th0))
            d0 = initial_distance(u0, up, om0, om0, th0, th0, exps, params)
            dep = dependence_ratio(base, pert, exps, params, d0)
            ratios[delta] = max(dep.values())
        r1, r2 = ratios[1e-4], ratios[5e-5]
        bundle.verdicts["3.5 ratio agreement"] = abs(r1 - r2) <= 0.2 * max(r1, r2)
        bundle.add_table("dependence", ["delta", "max_ratio"],
                         [[d, r] for d, r in sorted(ratios.items())])
    elif target in {"theorem-2.1", "local-decay"}:
        # graded nodes resolve the small-t window where the power law lives
        min_npu = int(np.ceil(64.0 / cfg.picard.horizon))
        pic = PicardConfig.from_dict({
            **cfg.picard.to_dict(), "grading": 2.0,
            "nodes_per_unit": max(cfg.picard.nodes_per_unit, min_npu)})
        traj, rep = _default_run(cfg, pic)
        if not rep.converged:
            raise ConfigurationError("local-decay verification: run diverged")
        horizon = float(traj.times[-1])
        window = (max(2.0 * float(traj.times[1]), horizon / 256), horizon / 16)
        fits = fit_decay(node_log(traj, WeightedNorms(exps, grid, params)), exps,
                         window_small=window)
        bundle.add_table("decay", list(fits[0].to_row()),
                         [list(f.to_row().values()) for f in fits])
        bundle.verdicts["theorem-2.1 slopes"] = all(
            f.passed is not False for f in fits)
    elif target in {"theorem-2.2", "global-decay"}:
        _require_large_time_window(cfg)
        start = start_state(*build_initial_data(cfg.grid, cfg.initial_data, seed))
        result = global_solve(start, exps, params, cfg.forcing_f,
                              cfg.forcing_g, cfg.picard, cfg.t_total)
        fits = fit_decay(result.log, exps, window_large=(1.0, cfg.t_total),
                         rate_floor=exps.lam)
        bundle.add_table("decay", list(fits[0].to_row()),
                         [list(f.to_row().values()) for f in fits])
        bundle.verdicts["theorem-2.2 rates"] = all(
            f.passed is not False for f in fits)
    elif target in {"theorem-2.3", "residual"}:
        data = build_initial_data(cfg.grid, cfg.initial_data, seed)
        residual_levels = []
        for k in range(1, 4):  # skip the configured base level; too coarse
            pic = PicardConfig.from_dict({**cfg.picard.to_dict(),
                                          "nodes_per_unit": cfg.picard.nodes_per_unit * 2 ** k})
            traj, rep = _default_run(cfg, pic, data)
            if not rep.converged:
                raise ConfigurationError(
                    "residual verification refused: the run did not converge")
            residual_levels.append(pde_residual(traj, params, cfg.forcing_f,
                                                cfg.forcing_g, pic.linear_only))
        orders = residual_refinement_order(residual_levels)
        bundle.add_table("residual_orders", ["level", "order"],
                         [[k, o] for k, o in enumerate(orders)])
        bundle.verdicts["theorem-2.3 order>=1.8"] = all(o >= 1.8 for o in orders)
    elif target == "hoelder":
        _require_hoelder_steps(cfg)
        traj, _ = _default_run(cfg, cfg.picard)
        res = time_hoelder_quotients(traj, exps, params, alpha_hat=0.5,
                                     tau=float(traj.times[-1]) / 4)
        bundle.add_table("hoelder", ["h", "quotient"],
                         [[h, q] for h, q in sorted(res["quotients"].items())])
        bundle.verdicts["hoelder no growth as h halves"] = bool(
            np.isfinite(res["sup"]) and not res["small_h_blowup"])
    elif target == "energy":
        traj, _ = _default_run(cfg, cfg.picard)
        elog = energy_report(traj, params, cfg.forcing_f, cfg.forcing_g)
        bundle.add_table("energy", ["t", "kinetic", "heat", "total"],
                         [[float(elog.times[j]), elog.kinetic[j], elog.heat[j],
                           elog.total[j]] for j in range(elog.times.size)])
        if elog.conservative:
            bundle.verdicts["energy drift"] = elog.relative_drift
            bundle.verdicts["kinetic monotone"] = elog.kinetic_monotone()
    elif target == "4.3":
        rng = np.random.default_rng(seed)
        worst = 0.0
        rows = []
        for case in range(20):
            la = rng.integers(1, 3)
            lb = rng.integers(1, 3)
            a = rng.uniform(0.1, 2.0, la)
            al = rng.uniform(0.0, 0.8, la)
            b = rng.uniform(0.1, 2.0, lb)
            be = rng.uniform(0.0, 0.8, lb)
            bound = gronwall_bound(a, al, b, be, 1.0)
            oracle = gronwall_oracle(a, al, b, be, 1.0, times=bound.times)
            frac = violation_fraction(bound, oracle)
            worst = max(worst, frac)
            rows.append([case, frac])
        bundle.add_table("gronwall", ["case", "violation_fraction"], rows)
        bundle.verdicts["4.3 domination"] = worst <= MAX_VIOLATION_FRACTION
    else:
        raise ConfigurationError(f"unknown verification target {target!r}")
    return reports


def _require_large_time_window(cfg: RunConfig) -> None:
    """The large-time rates are fitted on t in [1, t_total], which needs at
    least 4 nodes; refuse before solving when the run cannot reach them."""
    times, offset = [np.zeros(1)], 0.0
    for horizon in window_horizons(cfg.picard, cfg.t_total):
        nodes = cfg.picard.node_grid(horizon=horizon)
        times.append(nodes[1:] + offset)
        offset += float(nodes[-1])
    times = np.concatenate(times)
    count = int(np.count_nonzero((times >= 1.0) & (times <= cfg.t_total)))
    if count < 4:
        raise ConfigurationError(
            f"theorem-2.2 fits decay rates on t in [1, t_total] and needs at "
            f"least 4 nodes there; t_total = {cfg.t_total:g} gives {count}; "
            f"use t_total >= {1.0 + cfg.picard.horizon:g}")


def _require_hoelder_steps(cfg: RunConfig) -> None:
    """verify hoelder compares the quotients of the three smallest dyadic h
    in [T/4, T] of the picard horizon T; refuse before solving when the node
    grid holds fewer."""
    nodes = cfg.picard.node_grid()
    count = int(np.count_nonzero(nodes >= nodes[-1] / 4 - 1e-12))
    steps = (count - 1).bit_length()  # the h = 2^k node steps with 2^k < count
    if steps < 3:
        raise ConfigurationError(
            f"verify hoelder compares the quotients of the three smallest "
            f"dyadic h in [T/4, T] and gets {steps}: raise "
            f"picard.nodes_per_unit (now {cfg.picard.nodes_per_unit:g}) for "
            f"the horizon {cfg.picard.horizon:g}")


def _cmd_verify(args) -> int:
    cfg = load_config(args.config) if args.config else _builtin_config()
    if args.seed is not None:
        cfg.seed = args.seed
    bundle = _new_bundle(cfg, f"verify {args.target}")
    reports = _verify_targets(args.target, cfg, cfg.seed, args.ensemble, bundle)
    rows = []
    for rep in reports:
        bundle.verdicts[rep.lemma_id] = "pass" if rep.verdict else "fail"
        for i, r in enumerate(np.asarray(rep.ratios)):
            rows.append([rep.lemma_id, i, float(r)])
    if rows:
        bundle.add_table("ratios", ["lemma_id", "sample", "ratio"], rows)
        bundle.add_table("reports",
                         ["lemma_id", "ensemble", "ratio_max", "ratio_median",
                          "fitted_constant", "verdict"],
                         [[r.lemma_id, r.ensemble_size, r.ratio_max,
                           r.ratio_median, r.fitted_constant,
                           "pass" if r.verdict else "fail"] for r in reports],
                         provenance="fitted")
    outdir = args.out or cfg.output_dir
    write_report(bundle, outdir)
    return CHECK_FAILED if bundle.failed() else 0


def _cmd_gronwall(args) -> int:
    bundle = _new_bundle(None, "gronwall")
    bound = gronwall_bound(args.a, args.alpha, args.b, args.beta, args.t_max)
    oracle = gronwall_oracle(args.a, args.alpha, args.b, args.beta, args.t_max,
                             times=bound.times)
    rows = [[float(t), float(bv), float(ov)]
            for t, bv, ov in zip(bound.times, bound.values, oracle.values)]
    bundle.add_table("gronwall", ["t", "bound", "oracle"], rows, provenance="bound")
    frac = violation_fraction(bound, oracle)
    bundle.verdicts["domination"] = frac <= MAX_VIOLATION_FRACTION
    bundle.verdicts["violation_fraction"] = frac
    write_report(bundle, args.out)
    return 0 if frac <= MAX_VIOLATION_FRACTION else CHECK_FAILED


def _cmd_checkpoint(args) -> int:
    if args.action == "info":
        print(json.dumps(read_header(args.path), indent=1, sort_keys=True))
        return 0
    if not args.config:
        raise ConfigurationError("checkpoint resume requires --config")
    cfg = _apply_overrides(load_config(args.config), args)
    ckpt_dir = os.path.dirname(os.path.realpath(args.path))
    if os.path.realpath(cfg.output_dir) == ckpt_dir:
        raise ConfigurationError(
            f"resume would overwrite the report of the run in {ckpt_dir}; "
            f"choose another report directory with --out")
    start = checkpoint_read(args.path, expected_hash=config_hash(cfg))
    t_end = float(start.times[0])
    if not window_horizons(cfg.picard, cfg.t_total, t_end):
        print("checkpoint already covers requested horizon")
        return 0
    bundle = _new_bundle(cfg, "checkpoint resume")
    bundle.verdicts["resumed_from"] = t_end
    return _march(cfg, bundle, start)


def _builtin_config() -> RunConfig:
    """Small 2D default used when verify runs without a config file."""
    grid = GridSpec(dim=2, n=32)
    base = ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0)
    params = CouplingParams()
    sel = select_intermediate(base, lambda_cap=lambda_chain_cap(grid, params))
    return RunConfig(
        grid=grid, exponents=sel.config, params=params,
        forcing_f=ForcingSpec.zero(), forcing_g=ForcingSpec.zero(),
        picard=PicardConfig(horizon=0.25, nodes_per_unit=128),
        initial_data=InitialDataSpec(amplitude=(0.05, 0.05, 0.05),
                                     sigma=(2.0, 2.0, 1.0)),
        seed=0, t_total=1.0, output_dir="out")


def _number(kind, admit, what: str):
    """argparse type: a number of the given kind that admit accepts."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not admit(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    return parse


def _positive(kind):
    return _number(kind, lambda v: 0 < v < math.inf, "a positive number")


_count = _number(int, lambda v: v >= 0, "a non-negative integer")
_step = _number(float, lambda v: 0 < v < math.inf and 1 / v < math.inf,
                "a positive number with a finite inverse")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="micropolar",
        description="Pseudospectral mild-solution solver and estimate "
                    "verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponents", help="check or select exponent configs")
    p_exp.add_argument("action", choices=["check", "select"])
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--level", default=BASE,
                       choices=["base", "regularity", "classical"])
    p_exp.add_argument("--out")

    def run_options(p):
        """The overrides _apply_overrides reads that enter config_hash."""
        p.add_argument("--seed", type=_count)
        p.add_argument("--dt", type=_step)
        p.add_argument("--refine", type=_count)

    for name in ("simulate", "picard"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        run_options(p)
        if name == "picard":
            p.add_argument("--fit-constants", action="store_true")

    p_ver = sub.add_parser("verify", help="verify an estimate or theorem")
    p_ver.add_argument("target")
    p_ver.add_argument("--config")
    p_ver.add_argument("--seed", type=_count)
    p_ver.add_argument("--ensemble", type=_positive(int), default=100)
    p_ver.add_argument("--out")

    p_gr = sub.add_parser("gronwall")
    p_gr.add_argument("--a", type=float, nargs="+", required=True)
    p_gr.add_argument("--alpha", type=float, nargs="+", required=True)
    p_gr.add_argument("--b", type=float, nargs="+", required=True)
    p_gr.add_argument("--beta", type=float, nargs="+", required=True)
    p_gr.add_argument("--t-max", type=float, default=1.0)
    p_gr.add_argument("--out", default="out")

    p_ck = sub.add_parser("checkpoint")
    p_ck.add_argument("action", choices=["info", "resume"])
    p_ck.add_argument("path")
    p_ck.add_argument("--config")
    p_ck.add_argument("--out")
    # a resume takes the overrides of the run it continues, to match its hash
    run_options(p_ck)
    return parser


def dispatch(argv: list) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        if args.command == "exponents":
            return _cmd_exponents(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "picard":
            return _cmd_picard(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gronwall":
            return _cmd_gronwall(args)
        if args.command == "checkpoint":
            return _cmd_checkpoint(args)
    except (ConfigurationError, CheckpointError, PreconditionError,
            SingularOperatorError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
