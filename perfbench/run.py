#!/usr/bin/env python3
"""Benchmark of the micropolar solver, its checkpoints and the estimate
ensembles.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ./src.
A run sets up once (import plus the first load_config), then runs whole rounds
of the workload's commands through micropolar.cli.dispatch: at least one, and
another as long as it should end within S seconds of the first. Between the
commands it times a fixed reference kernel (hostref.py); on the solver
workloads each round's time is rescaled by the passes made during the round,
so that it reads at a nominal host speed. Every round
writes into a fresh directory under perfbench/_work, which is removed after
its bytes are counted. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
RESULTS = os.path.join(BENCH, "_results")

SETUP_PROBES = 10  # extra set-ups in fresh interpreters; setup_s is the median

# Times one set-up in a fresh interpreter: import plus the first load_config.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import micropolar.cli
micropolar.cli.load_config(sys.argv[2])
print(time.perf_counter() - t0)
"""

from recipes import RESCALED, WORKLOADS, make_config  # noqa: E402  (standard library only)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def tree_bytes(path: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def cpu_times() -> tuple:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime, ru.ru_stime


def set_up(config_path: str, traced: bool):
    """Import the package and load the first config; returns (seconds, cli,
    config, tracer). In a traced run the wrappers go in before load_config so
    that exponent selection is traced; its set-up time is then not reported."""
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import micropolar.cli as cli
    import hostref  # noqa: F401  (keeps numpy's own FFTs, before any wrapper)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    cfg = cli.load_config(config_path)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    return elapsed, cli, cfg, tracer


def setup_probe(config_path: str) -> float:
    out = subprocess.run([sys.executable, "-c", PROBE, SRC, config_path],
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


class Between:
    """What a run does before each command and after a round's last, while the
    program is idle: a set-up probe, until all are made, so that set-up is
    timed across the run and not in one spell of the host; then a sample of
    the host reference."""

    def __init__(self, reference, setup_cfg: str, setups: list, probes: int):
        self.reference, self.setup_cfg, self.setups = reference, setup_cfg, setups
        self.probes_left = probes
        self.passes = []   # reference pass times, in order

    def __call__(self) -> None:
        if self.probes_left:
            self.setups.append(setup_probe(self.setup_cfg))
            self.probes_left -= 1
        self.reference.sample(self.passes)

    def finish(self) -> None:
        """The set-up probes the rounds left over."""
        while self.probes_left:
            self.setups.append(setup_probe(self.setup_cfg))
            self.probes_left -= 1


def run_round(index: int, args, run_root: str, cli, beta2: float, tracer,
              between: Between) -> dict:
    """One round: every command of the workload, then the checks of each."""
    import checks
    import workloads

    rd = os.path.join(run_root, f"round{index}")
    os.makedirs(rd)
    cfg = make_config(args.workload, args.seed, os.path.join(rd, "run", "out"))
    rnd = workloads.Round(rd, cfg, beta2)
    write_json(rnd.config_path, cfg)
    ops = workloads.operations(args.workload, rnd)

    before = tracer.snapshot() if tracer else None
    ref_mark = len(between.passes)
    cpu0 = cpu_times()
    results = []
    for label, argv, check in ops:
        between()
        t0 = time.perf_counter()
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        if tracer:
            tracer.active = True
        try:
            with contextlib.redirect_stdout(sys.stderr), span:
                rc = cli.dispatch(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        finally:
            if tracer:
                tracer.active = False
        results.append({"label": label, "rc": rc, "wall": time.perf_counter() - t0,
                        "check": check})
    cpu1 = cpu_times()
    between()
    after = tracer.snapshot() if tracer else None
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failed, problems, sweeps = 0, [], 0
    for res in results:
        check = res.pop("check")
        if res["rc"] != 0:
            failed += 1
            print(f"{res['label']}: exit code {res['rc']}", file=sys.stderr)
            continue
        try:
            sweeps += check(rnd)
        except checks.CheckFailed as exc:
            problems.append(f"{res['label']}: {exc}")
        except Exception as exc:   # a missing or malformed output file
            traceback.print_exc()
            problems.append(f"{res['label']}: {type(exc).__name__}: {exc}")
    out_bytes = tree_bytes(os.path.join(rd, "run"))
    shutil.rmtree(rd)
    return {"ops": results, "attempted": len(results), "failed": failed,
            "problems": problems, "wall": sum(r["wall"] for r in results),
            "node_sweeps": sweeps, "output_bytes": out_bytes, "rss_kb": rss_kb,
            "cpu_user": cpu1[0] - cpu0[0], "cpu_sys": cpu1[1] - cpu0[1],
            "reference_s": statistics.mean(between.passes[ref_mark:]),
            "trace": (before, after)}


def round_walls(rounds: list, rescale: bool) -> list:
    """Round wall times; with rescale, each at the nominal host speed by the
    reference passes made during its round (see hostref.py)."""
    import hostref

    if not rescale:
        return [r["wall"] for r in rounds]
    return [hostref.at_nominal(r["wall"], r["reference_s"]) for r in rounds]


def end_to_end_metrics(setups: list, rounds: list, rescale: bool) -> dict:
    """Set-up time is never rescaled: it is mostly imports, which the reference
    kernel does not track (rescaled, its spread over runs grew)."""
    walls = round_walls(rounds, rescale)
    rates = [r["node_sweeps"] / w for r, w in zip(rounds, walls)]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "node_sweeps_per_s": (statistics.median(rates), "1/s"),
        # sampled after the first round's commands, before any check ran
        "peak_rss_mb": (rounds[0]["rss_kb"] / 1024.0, "MB"),
        "output_mb": (statistics.median(r["output_bytes"] for r in rounds) / 1e6, "MB"),
    }


def per_layer_metrics(tracer, rounds: list, ref: list) -> dict:
    """Counts from the first round (they repeat exactly); times as the mean
    per round, as measured (not rescaled to the nominal host speed)."""
    n = len(rounds)

    def delta(r, kind, name):
        (c0, b0), (c1, b1) = r["trace"]
        src0, src1 = (c0, c1) if kind == "count" else (b0, b1)
        return src1.get(name, 0) - src0.get(name, 0)

    def mean_time(name):
        return sum(delta(r, "busy", name) for r in rounds) / n

    def first_count(name):
        return delta(rounds[0], "count", name)

    sel_calls = tracer.counts.get("exponents.select_intermediate.calls", 0)
    m = {
        "nonlinear.assemble_rhs_s": (mean_time("nonlinear.assemble_rhs"), "s"),
        "nonlinear.assemble_rhs_calls": (first_count("nonlinear.assemble_rhs.calls"), "count"),
        "fields.fft_calls": (first_count("fields.fft_calls"), "count"),
        "fields.fft_points": (first_count("fields.fft_points"), "count"),
        "solver.norms_s": (mean_time("solver.norms"), "s"),
        "solver.duhamel_s": (mean_time("solver.duhamel"), "s"),
        "solver.initial_trajectory_s": (mean_time("solver.initial_trajectory"), "s"),
        "solver.picard_solve_s": (mean_time("solver.picard_solve"), "s"),
        "solver.picard_sweeps": (first_count("solver.picard_step.calls"), "count"),
        "solver.windows": (first_count("solver.picard_solve.calls"), "count"),
        "checkpoint.write_s": (mean_time("checkpoint.write"), "s"),
        "checkpoint.write_mb": (first_count("checkpoint.write_bytes") / 1e6, "MB"),
        "checkpoint.read_s": (mean_time("checkpoint.read"), "s"),
        "checkpoint.read_mb": (first_count("checkpoint.read_bytes") / 1e6, "MB"),
        "analysis.fit_lemma_constants_s": (mean_time("analysis.fit_lemma_constants"), "s"),
        "analysis.verify_bilinear_s": (mean_time("analysis.verify_bilinear"), "s"),
        "analysis.verify_smoothing_s": (mean_time("analysis.verify_smoothing"), "s"),
        "analysis.ensemble_members": (first_count("analysis.ensemble_members"), "count"),
        "analysis.energy_report_s": (mean_time("analysis.energy_report"), "s"),
        "kmbounds.local_horizon_s": (mean_time("kmbounds.local_horizon"), "s"),
        # mean of one call, set-up and commands alike
        "exponents.select_intermediate_s": (
            tracer.busy.get("exponents.select_intermediate", 0.0) / max(sel_calls, 1), "s"),
        "cli.write_report_s": (mean_time("cli.write_report"), "s"),
        "process.cpu_s": (sum(r["cpu_user"] + r["cpu_sys"] for r in rounds) / n, "s"),
        "process.sys_s": (sum(r["cpu_sys"] for r in rounds) / n, "s"),
        "trace.wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "host.reference_s": (sum(ref) / len(ref), "s"),
    }
    for cmd in ("simulate", "checkpoint", "picard", "verify"):
        m[f"cli.{cmd}_s"] = (mean_time(f"cli.{cmd}"), "s")
    return m


def untraced_history(workload: str) -> list:
    path = os.path.join(RESULTS, f"untraced-{workload}.jsonl")
    if not os.path.isfile(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_trace(args, tracer, rounds: list) -> tuple:
    """Spans, self time per layer, per-round counts and tracing overhead."""
    n = len(rounds)
    self_s = {k: v / n for k, v in tracer.self_times().items()}
    # the latest untraced runs; both sides rescaled alike
    history = [h["wall_s"] for h in untraced_history(args.workload)][-10:]
    traced = statistics.median(round_walls(rounds, args.workload in RESCALED))
    overhead = None
    if history:
        base = statistics.median(history)
        overhead = {"traced_wall_s": traced, "untraced_median_wall_s": base,
                    "untraced_runs": len(history), "overhead_s": traced - base,
                    "overhead_share": (traced - base) / base}
    per_round = []
    for r in rounds:
        (c0, _b0), (c1, _b1) = r["trace"]
        per_round.append({k: c1[k] - c0.get(k, 0) for k in sorted(c1)})
    doc = {"workload": args.workload, "seed": args.seed, "rounds": n,
           "missing": tracer.missing, "overhead": overhead,
           "self_s_per_round": dict(sorted(self_s.items())),
           "counts_per_round": per_round,
           "spans": [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                      "end": s[4], "thread": s[5]} for s in tracer.spans]}
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json")
    write_json(path, doc)
    return path, self_s, overhead


def report(args, setups: list, rounds: list, tracer, ref: list) -> dict:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    ok_rounds = [r for r in rounds if r["failed"] == 0] or rounds
    print(f"{args.workload}: {len(rounds)} rounds, seed {args.seed}")
    for i, r in enumerate(rounds):
        ops = ", ".join(f"{o['label']} {o['wall']:.3f}s" for o in r["ops"])
        print(f"  round {i}: {r['wall']:.3f}s ({ops}); {r['node_sweeps']} node sweeps")
    if tracer is None:
        rescale = args.workload in RESCALED
        metrics = end_to_end_metrics(setups, ok_rounds, rescale)
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(RESULTS, f"untraced-{args.workload}.jsonl"), "a") as fh:
            fh.write(json.dumps({"seed": args.seed, "rounds": len(rounds),
                                 "round_walls": [r["wall"] for r in rounds],
                                 "round_references": [r["reference_s"] for r in rounds],
                                 "reference_s": sum(ref) / len(ref),
                                 **{k: v for k, (v, _u) in metrics.items()}}) + "\n")
        print(f"  set-ups: {', '.join(f'{s:.4f}' for s in setups)} s")
        print(f"  host reference: mean {sum(ref) / len(ref):.5f} s over {len(ref)} passes "
              f"between commands, per round "
              + ", ".join(f"{r['reference_s']:.5f}" for r in rounds)
              + " s; the round times above are as measured, wall_s and node_sweeps_per_s"
              + (" below are rescaled round by round" if rescale else " below are not"))
    else:
        metrics = per_layer_metrics(tracer, ok_rounds, ref)
        path, self_s, overhead = write_trace(args, tracer, ok_rounds)
        print(f"  spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        if tracer.missing:
            print(f"  missing layers (reported as 0): {', '.join(tracer.missing)}")
        print("  self time per round:")
        for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print(f"    {name:34s} {s:9.4f} s")
        if overhead:
            print(f"  tracing overhead: {overhead['overhead_s']:+.3f} s "
                  f"({100 * overhead['overhead_share']:+.1f}%) against the median of "
                  f"{overhead['untraced_runs']} untraced runs")
        else:
            print("  tracing overhead: no untraced run of this workload recorded yet")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    return {"correct": not problems,
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still removes its directory and waits for its set-up probe
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "micropolar", "__init__.py")):
        print(f"error: no micropolar package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_cfg = os.path.join(run_root, "setup.json")
        setup_dict = make_config(args.workload, args.seed,
                                 os.path.join(run_root, "setup-out"))
        write_json(setup_cfg, setup_dict)
        setup_s, cli, cfg, tracer = set_up(setup_cfg, bool(args.trace))
        import micropolar
        if not os.path.abspath(micropolar.__file__).startswith(SRC + os.sep):
            print(f"error: micropolar imported from {micropolar.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        import hostref
        setups = [setup_s]
        grid = setup_dict["grid"]
        between = Between(hostref.Reference(grid["dim"], grid["n"]), setup_cfg,
                          setups, 0 if tracer else SETUP_PROBES)
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(run_round(len(rounds), args, run_root, cli,
                                    cfg.exponents.beta2, tracer, between))
            elapsed = time.perf_counter() - start
            # another whole round only if it should end within the run
            if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
                break
        between.finish()
        result = report(args, setups, rounds, tracer, between.passes)
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
