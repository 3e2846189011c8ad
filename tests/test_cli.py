import csv
import json
import math
import os
import struct
import time

import numpy as np
import pytest

import micropolar as mp
from micropolar.cli import (
    InitialDataSpec,
    ReportBundle,
    build_initial_data,
    config_hash,
    dispatch,
    load_config,
    write_report,
)
from micropolar.errors import ConfigurationError, PreconditionError, SingularOperatorError
from micropolar.operators import divergence_defect


def _config_dict(outdir, n=16, horizon=0.25, npu=64, t_total=0.25, seed=1234):
    return {
        "grid": {"dim": 2, "n": n},
        "exponents": {"p": 2, "q": 2, "r": 2, "alpha0": 0.5, "beta0": 0.5,
                      "gamma0": 0.0, "select": True},
        "params": {"mu": 0.9, "mu_r": 0.1},
        "forcing_f": {"kind": "zero"},
        "forcing_g": {"kind": "zero"},
        "picard": {"horizon": horizon, "nodes_per_unit": npu, "m_max": 30,
                   "tol": 1e-9},
        "initial_data": {"kind": "random", "amplitude": [0.1, 0.1, 0.1],
                         "sigma": [3.0, 3.0, 3.0]},
        "t_total": t_total,
        "seed": seed,
        "output_dir": outdir,
    }


@pytest.fixture
def config_path(tmp_path):
    cfg = _config_dict(str(tmp_path / "out"))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_build_initial_data_kinds(grid2d):
    spec = InitialDataSpec(kind="random", amplitude=(0.2, 0.1, 0.3))
    u0, om0, th0 = build_initial_data(grid2d, spec, seed=4)
    assert u0.l2() == pytest.approx(0.2)
    assert divergence_defect(u0) <= 1e-12
    assert np.max(np.abs(th0.coeffs[:, 0, 0])) == 0.0
    z = build_initial_data(grid2d, InitialDataSpec(kind="zero"), seed=0)
    assert all(f.l2() == 0.0 for f in z)
    s = build_initial_data(grid2d, InitialDataSpec(kind="single_mode",
                                                   mode=(1, 0)), seed=0)
    assert divergence_defect(s[0]) <= 1e-12


def test_initial_data_outside_dealias_ball_refused(tmp_path, capsys):
    """A single mode outside the 2/3 ball (n = 32: |k_i| <= 10) is a usage
    error with one error line, not a run whose products alias."""
    grid = mp.GridSpec(dim=2, n=32)
    build_initial_data(grid, InitialDataSpec(kind="single_mode", mode=(10, 3)), seed=0)
    with pytest.raises(ConfigurationError, match="dealias ball"):
        build_initial_data(grid, InitialDataSpec(kind="single_mode", mode=(12, 3)), seed=0)
    cfg = _config_dict(str(tmp_path / "out"), n=32)
    cfg["initial_data"] = {"kind": "single_mode", "mode": [12, 3],
                           "amplitude": [0.1, 0.1, 0.1]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert dispatch(["picard", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_load_config_completes_exponents(config_path):
    cfg = load_config(config_path)
    assert cfg.exponents.has_intermediates and cfg.exponents.has_lambdas


def test_load_config_missing_file():
    assert dispatch(["picard", "--config", "/nonexistent.json"]) == 2


def test_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert dispatch(["picard", "--config", str(bad)]) == 2
    infeasible = tmp_path / "inf.json"
    cfg = _config_dict(str(tmp_path / "o"))
    cfg["exponents"] = {"p": 2, "q": 2, "r": 2, "alpha0": 0.5, "beta0": 0.5,
                        "gamma0": 0.5, "select": True}
    infeasible.write_text(json.dumps(cfg))
    assert dispatch(["picard", "--config", str(infeasible)]) == 2


def test_exponents_check_exit_codes(config_path, tmp_path, capsys):
    assert dispatch(["exponents", "check", "--config", config_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    bad = tmp_path / "badexp.json"
    bad.write_text(json.dumps({"exponents": {"p": 2, "q": 2, "r": 2,
                                             "alpha0": 0.5, "beta0": 0.5,
                                             "gamma0": 0.5}}))
    assert dispatch(["exponents", "check", "--config", str(bad)]) == 1
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations and all("lhs" in v for v in violations)


def test_exponents_select_roundtrip(config_path, capsys):
    assert dispatch(["exponents", "select", "--config", config_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["feasible"]
    cfg = mp.ExponentConfig.from_dict(out["exponents"])
    assert mp.check_config(cfg).passed


def test_picard_command_writes_reports(config_path, capsys):
    assert dispatch(["picard", "--config", config_path]) == 0
    cfg = load_config(config_path)
    files = set(os.listdir(cfg.output_dir))
    assert {"meta.json", "verdicts.json", "iterations.csv", "nodes.csv",
            "checkpoint_final.mpk"} <= files
    verdicts = json.loads(open(os.path.join(cfg.output_dir, "verdicts.json")).read())
    assert verdicts["converged"] is True
    header = open(os.path.join(cfg.output_dir, "nodes.csv")).readline().strip()
    assert header.split(",")[0] == "t" and "provenance" in header


def test_simulate_and_resume(config_path, tmp_path):
    assert dispatch(["simulate", "--config", config_path]) == 0
    cfg = load_config(config_path)
    files = os.listdir(cfg.output_dir)
    assert "efunctions.csv" in files and "energy.csv" in files
    with open(os.path.join(cfg.output_dir, "energy.csv")) as fh:
        cols = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh]
    assert rows and cols[:5] == ["t", "kinetic", "heat", "dissipation", "total"]
    for row in rows:
        for col, cell in zip(cols, row):
            if col != "provenance":
                float(cell)
    verdicts = json.loads(open(os.path.join(cfg.output_dir, "verdicts.json")).read())
    assert verdicts["within_small_data_bound"] == "not_evaluated"
    ck = os.path.join(cfg.output_dir, "checkpoint_w0.mpk")
    assert os.path.exists(ck)
    assert dispatch(["checkpoint", "info", ck]) == 0
    # same-horizon resume reports completion without extra work
    assert dispatch(["checkpoint", "resume", ck, "--config", config_path,
                     "--out", str(tmp_path / "resume")]) == 0


def test_checkpoint_resume_hash_guard(config_path, tmp_path):
    assert dispatch(["simulate", "--config", config_path]) == 0
    cfg = load_config(config_path)
    ck = os.path.join(cfg.output_dir, "checkpoint_w0.mpk")
    other = _config_dict(str(tmp_path / "out2"), seed=777)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    assert dispatch(["checkpoint", "resume", ck, "--config", str(other_path)]) == 2


def test_resume_refuses_format_version_2(config_path, tmp_path, capsys):
    """A checkpoint of format version 2, whose payload is the full spectrum,
    is refused with exit 2 and one error line."""
    from micropolar.checkpoint import MAGIC, checkpoint_read, read_header

    assert dispatch(["simulate", "--config", config_path]) == 0
    ck = os.path.join(load_config(config_path).output_dir, "checkpoint_w0.mpk")
    header = {**read_header(ck), "version": 2}
    head = json.dumps(header, sort_keys=True).encode()
    payload = b"".join(np.ascontiguousarray(f.coeffs, dtype="<c16").tobytes()
                       for f in checkpoint_read(ck).state_at(0))
    v2 = tmp_path / "v2.mpk"
    v2.write_bytes(MAGIC + struct.pack("<Q", len(head)) + head + payload)
    capsys.readouterr()
    rc = dispatch(["checkpoint", "resume", str(v2), "--config", config_path,
                   "--out", str(tmp_path / "resumed")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "format version 2 != 3" in err


@pytest.mark.parametrize("argv", [["picard", "--fit-constants"],
                                  ["verify", "2.5", "--ensemble", "4"]])
def test_estimates_use_the_grids_decay_rate_cap(tmp_path, capsys, argv):
    """On a short torus the selected decay rates exceed 1 but stay below the
    generators' smallest eigenvalue; the estimate checks accept them and the
    commands end in a verdict."""
    cfg = _config_dict(str(tmp_path / "out"))
    cfg["grid"]["length"] = 3.0
    cfg["params"] = {"mu": 1.8, "mu_r": 0.2}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert load_config(str(path)).exponents.lam1 > 1.0
    rc = dispatch(argv + ["--config", str(path), "--out", str(tmp_path / "v")])
    assert rc in (0, 1)
    assert json.loads((tmp_path / "v" / "verdicts.json").read_text())
    assert "Traceback" not in capsys.readouterr().err


def test_verify_embeddings_above_p_2(tmp_path, capsys):
    # the W^{1,s} row takes s = p, which 1/p - (2a-1)/3 <= 1/s <= 1/p admits
    cfg = _config_dict(str(tmp_path / "out"))
    cfg["exponents"]["p"] = 3
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    rc = dispatch(["verify", "2.4", "--config", str(path), "--ensemble", "2",
                   "--out", str(tmp_path / "v")])
    assert rc in (0, 1)
    verdicts = json.loads((tmp_path / "v" / "verdicts.json").read_text())
    assert "embedding a=0.5 p=3.0 -> W^1,3.0" in verdicts
    assert "Traceback" not in capsys.readouterr().err


def test_verify_embeddings_off_their_exponents_is_usage_error(tmp_path, capsys):
    # the L^6 row needs 1/6 <= 1/p: at p = 7 it is refused, not raised
    cfg = _config_dict(str(tmp_path / "out"))
    cfg["exponents"].update(p=7, q=7, r=7, gamma0=0.25)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["verify", "2.4", "--config", str(path), "--ensemble", "2",
                     "--out", str(tmp_path / "v")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: embedding exponents violate") and "Traceback" not in err


def _read_dir(path) -> dict:
    files = {}
    for name in os.listdir(path):
        with open(os.path.join(path, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_resume_extends_into_another_directory(tmp_path):
    # the t_total = 0.5 run's last checkpoint resumes to t_total = 1.0 under
    # another --out and reproduces the uninterrupted 1.0 run byte for byte
    paths = {}
    for t_total in (0.5, 1.0):
        paths[t_total] = tmp_path / f"run{t_total}.json"
        paths[t_total].write_text(json.dumps(
            _config_dict(str(tmp_path / "unused"), t_total=t_total)))
    short, full, resumed = (str(tmp_path / d) for d in ("short", "full", "resumed"))
    assert dispatch(["simulate", "--config", str(paths[0.5]), "--out", short]) == 0
    assert dispatch(["simulate", "--config", str(paths[1.0]), "--out", full]) == 0
    assert dispatch(["checkpoint", "resume", os.path.join(short, "checkpoint_w1.mpk"),
                     "--config", str(paths[1.0]), "--out", resumed]) == 0
    got, want = _read_dir(resumed), _read_dir(full)
    assert {"iterations.csv", "energy.csv", "efunctions.csv", "nodes.csv",
            "checkpoint_w2.mpk", "checkpoint_w3.mpk"} <= set(got)
    assert "checkpoint_w1.mpk" not in got
    for name in ("checkpoint_w2.mpk", "checkpoint_w3.mpk"):
        assert got[name] == want[name]
    rows = want["nodes.csv"].decode().splitlines()
    assert got["nodes.csv"].decode().splitlines() == \
        rows[:1] + [r for r in rows[1:] if float(r.split(",")[0]) >= 0.5]
    iterations = want["iterations.csv"].decode().splitlines()
    assert got["iterations.csv"].decode().splitlines() == \
        iterations[:1] + [r for r in iterations[1:] if r.split(",")[0] in ("2", "3")]
    verdicts = json.loads(got["verdicts.json"])
    assert verdicts["completed"] is True and verdicts["resumed_from"] == 0.5


def test_resume_takes_the_runs_overrides(tmp_path, capsys):
    """A run made with --seed and --dt resumes from its own config with the
    same flags (they enter the config hash) and reproduces the run's node
    rows from t = 0.5 on; without them the checkpoint is refused."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config_dict(str(tmp_path / "unused"), t_total=1.0)))
    flags = ["--seed", "1", "--dt", "0.0078125"]
    full, resumed = str(tmp_path / "full"), str(tmp_path / "resumed")
    assert dispatch(["simulate", "--config", str(path), "--out", full] + flags) == 0
    ck = os.path.join(full, "checkpoint_w1.mpk")
    capsys.readouterr()
    assert dispatch(["checkpoint", "resume", ck, "--config", str(path),
                     "--out", resumed]) == 2
    assert "checkpoint belongs to config" in capsys.readouterr().err
    assert dispatch(["checkpoint", "resume", ck, "--config", str(path),
                     "--out", resumed] + flags) == 0
    rows = _read_dir(full)["nodes.csv"].decode().splitlines()
    assert len(rows) == 1 + 128 + 1
    assert _read_dir(resumed)["nodes.csv"].decode().splitlines() == \
        rows[:1] + [r for r in rows[1:] if float(r.split(",")[0]) >= 0.5]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_simulate_bytes_do_not_depend_on_cpu_count(tmp_path):
    """simulate in a process pinned to one CPU and in one with the inherited
    CPU set writes byte-identical report directories, checkpoints included:
    a sweep's RHS blocks (two a sweep here) run on as many threads as the
    process has CPUs, and no node's bits depend on that."""
    import subprocess
    import sys

    cfg = _config_dict(str(tmp_path / "unused"), n=16, npu=256, t_total=0.5)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    one = min(os.sched_getaffinity(0))
    dirs = {}
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {one})), ("all", None)):
        dirs[name] = str(tmp_path / name)
        proc = subprocess.run([sys.executable, "-m", "micropolar", "simulate",
                               "--config", str(path), "--out", dirs[name]],
                              capture_output=True, text=True, env=env,
                              preexec_fn=pin, timeout=300)
        assert proc.returncode == 0, proc.stderr
    got, want = _read_dir(dirs["one"]), _read_dir(dirs["all"])
    assert {"checkpoint_w0.mpk", "checkpoint_w1.mpk", "nodes.csv"} <= set(want)
    assert got == want


def test_resume_refuses_to_overwrite_its_run(config_path, tmp_path, capsys):
    assert dispatch(["simulate", "--config", config_path]) == 0
    outdir = load_config(config_path).output_dir
    before = open(os.path.join(outdir, "nodes.csv"), "rb").read()
    capsys.readouterr()
    rc = dispatch(["checkpoint", "resume", os.path.join(outdir, "checkpoint_w0.mpk"),
                   "--config", config_path])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "--out" in err and "Traceback" not in err
    assert open(os.path.join(outdir, "nodes.csv"), "rb").read() == before


def test_resume_repeats_non_binary_windows(tmp_path, capsys):
    # horizon 0.1 is no binary fraction: the resumed march must cut its last
    # window as the uninterrupted one does, from the absolute window grid
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config_dict(str(tmp_path / "unused"), horizon=0.1,
                                            t_total=1.0)))
    full, resumed = str(tmp_path / "full"), str(tmp_path / "resumed")
    assert dispatch(["simulate", "--config", str(path), "--out", full]) == 0
    assert dispatch(["checkpoint", "resume", os.path.join(full, "checkpoint_w2.mpk"),
                     "--config", str(path), "--out", resumed]) == 0
    names = [f"checkpoint_w{w}.mpk" for w in range(3, 10)]
    got, want = _read_dir(resumed), _read_dir(full)
    assert "checkpoint_w10.mpk" not in got
    for name in names:
        assert got[name] == want[name], name
    # the last window ends at 0.9999999999999999, as the offsets add up:
    # that checkpoint covers t_total = 1
    rc = dispatch(["checkpoint", "resume", os.path.join(full, "checkpoint_w9.mpk"),
                   "--config", str(path), "--out", str(tmp_path / "again")])
    assert rc == 0
    assert "checkpoint already covers requested horizon" in capsys.readouterr().out


def test_resume_from_picard_checkpoint_numbers_windows_from_its_time(tmp_path):
    # picard's checkpoint_final.mpk says window 0 and ends at t = horizon:
    # the resumed march numbers its windows from that time, so the first
    # checkpoint it writes is checkpoint_w1.mpk
    from micropolar.checkpoint import read_header

    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config_dict(str(tmp_path / "unused"), horizon=0.1,
                                            t_total=0.3)))
    run, resumed = str(tmp_path / "run"), str(tmp_path / "resumed")
    assert dispatch(["picard", "--config", str(path), "--out", run]) == 0
    final = os.path.join(run, "checkpoint_final.mpk")
    assert read_header(final)["window"] == 0
    assert dispatch(["checkpoint", "resume", final, "--config", str(path),
                     "--out", resumed]) == 0
    assert sorted(name for name in os.listdir(resumed) if name.endswith(".mpk")) \
        == ["checkpoint_w1.mpk", "checkpoint_w2.mpk"]
    with open(os.path.join(resumed, "iterations.csv")) as fh:
        assert {row["window"] for row in csv.DictReader(fh)} == {"1", "2"}


def test_resume_after_a_partial_window_keeps_the_window_names(tmp_path):
    # a march to t_total 0.3 ends inside window 1 (horizon 0.25); extended to
    # 1.0, its resume first finishes window 1 and names every checkpoint as
    # the uninterrupted march does, by the window it ends
    from micropolar.checkpoint import read_header

    short, extended = tmp_path / "short.json", tmp_path / "extended.json"
    short.write_text(json.dumps(_config_dict(str(tmp_path / "unused"), t_total=0.3)))
    extended.write_text(json.dumps(_config_dict(str(tmp_path / "unused"), t_total=1.0)))
    run, resumed, full = (str(tmp_path / name) for name in ("run", "resumed", "full"))
    assert dispatch(["simulate", "--config", str(short), "--out", run]) == 0
    assert dispatch(["checkpoint", "resume", os.path.join(run, "checkpoint_w1.mpk"),
                     "--config", str(extended), "--out", resumed]) == 0
    assert dispatch(["simulate", "--config", str(extended), "--out", full]) == 0
    names = sorted(name for name in os.listdir(resumed) if name.endswith(".mpk"))
    assert names == ["checkpoint_w1.mpk", "checkpoint_w2.mpk", "checkpoint_w3.mpk"]
    for name in names:
        assert read_header(os.path.join(resumed, name))["t_end"] \
            == read_header(os.path.join(full, name))["t_end"]


def test_simulate_refuses_empty_march(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config_dict(str(tmp_path / "out"), t_total=0.0)))
    assert dispatch(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "t_total" in err and "Traceback" not in err


_MALFORMED_HEADERS = {
    "short-length": b"MPCKPT01" + b"\x05\x00\x00",
    "not-json": b"MPCKPT01" + struct.pack("<Q", 4) + b"\xff\xfe{}",
    "not-object": b"MPCKPT01" + struct.pack("<Q", 9) + b"[1, 2, 3]",
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_HEADERS))
def test_checkpoint_info_rejects_malformed_header(tmp_path, capsys, case):
    path = tmp_path / "bad.mpk"
    path.write_bytes(_MALFORMED_HEADERS[case])
    assert dispatch(["checkpoint", "info", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_gronwall_invalid_input_exit_code(tmp_path, capsys):
    rc = dispatch(["gronwall", "--a", "1", "--alpha", "1.2", "--b", "1",
                   "--beta", "0.5", "--out", str(tmp_path / "gr")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "[0, 1)" in err and "Traceback" not in err


def _two_runs(argv, tmp_path) -> list:
    outs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert dispatch(argv + ["--out", out]) == 0
        outs.append(_read_dir(out))
    return outs


@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_run_deterministic_bytes(config_path, tmp_path, command):
    # checkpoints included: no file records the output directory or the clock
    first, second = _two_runs([command, "--config", config_path], tmp_path)
    assert any(name.endswith(".mpk") for name in first)
    assert first == second


def test_verify_deterministic_bytes(config_path, tmp_path):
    first, second = _two_runs(["verify", "2.10", "--config", config_path,
                               "--seed", "7", "--ensemble", "12"], tmp_path)
    assert "ratios.csv" in first and "meta.json" in first
    assert first == second


def test_gronwall_command(tmp_path):
    out = str(tmp_path / "gr")
    rc = dispatch(["gronwall", "--a", "1.0", "--alpha", "0.25", "--b", "1.0",
                   "--beta", "0.5", "--t-max", "1.0", "--out", out])
    assert rc == 0
    verdicts = json.loads(open(os.path.join(out, "verdicts.json")).read())
    assert verdicts["domination"] is True


def test_report_bundle_idempotent(tmp_path):
    bundle = ReportBundle(meta={"command": "x", "created": "fixed"})
    bundle.add_table("demo", ["a", "b"], [[1, 2.5], [3, 4.0]])
    bundle.verdicts = {"ok": True}
    d1 = str(tmp_path / "r1")
    write_report(bundle, d1)
    first = {f: open(os.path.join(d1, f), "rb").read() for f in os.listdir(d1)}
    write_report(bundle, d1)
    second = {f: open(os.path.join(d1, f), "rb").read() for f in os.listdir(d1)}
    assert first == second
    rows = open(os.path.join(d1, "demo.csv")).read().splitlines()
    assert rows[0] == "a,b,provenance"
    assert rows[1].endswith("measured")


def test_empty_bundle_metadata_only(tmp_path):
    bundle = ReportBundle(meta={"command": "none", "created": "fixed"})
    paths = write_report(bundle, str(tmp_path / "empty"))
    names = {os.path.basename(p) for p in paths}
    assert names == {"meta.json", "verdicts.json"}


def test_config_hash_stable(config_path):
    cfg = load_config(config_path)
    assert config_hash(cfg) == config_hash(load_config(config_path))


def test_usage_error_exit_code():
    assert dispatch(["unknown-command"]) == 2
    assert dispatch(["checkpoint", "resume", "somepath"]) == 2


def test_verify_theorem_2_2_without_large_time_window(tmp_path, capsys):
    # the rates are fitted on [1, t_total]: t_total = 1 is refused before solving
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_config_dict(str(tmp_path / "out"), t_total=1.0)))
    start = time.perf_counter()
    rc = dispatch(["verify", "theorem-2.2", "--config", str(path)])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "t_total >= 1.25" in err
    assert "Traceback" not in err
    assert elapsed < 2.0


@pytest.mark.parametrize("exc", [PreconditionError, SingularOperatorError])
def test_dispatch_maps_precondition_errors(config_path, capsys, monkeypatch, exc):
    import micropolar.cli as cli

    def fail(args):
        raise exc("bad input")

    monkeypatch.setattr(cli, "_cmd_picard", fail)
    assert dispatch(["picard", "--config", config_path]) == 2
    assert capsys.readouterr().err == "error: bad input\n"


def test_builtin_config_verify(tmp_path):
    # verify runs without a config file on a built-in small setup
    rc = dispatch(["verify", "2.10", "--seed", "7", "--ensemble", "6",
                   "--out", str(tmp_path / "v")])
    assert rc == 0


def test_simulate_3d_pipeline(tmp_path):
    cfg = {
        "grid": {"dim": 3, "n": 8},
        "exponents": {"p": 2, "q": 2, "r": 2, "alpha0": 0.5, "beta0": 0.5,
                      "gamma0": 0.0, "select": True},
        "picard": {"horizon": 0.25, "nodes_per_unit": 48, "m_max": 30,
                   "tol": 1e-8},
        "initial_data": {"kind": "single_mode", "mode": [1, 0],
                         "amplitude": [0.1, 0.1, 0.1]},
        "t_total": 0.25,
        "seed": 3,
        "output_dir": str(tmp_path / "out3d"),
    }
    path = tmp_path / "run3d.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["simulate", "--config", str(path)]) == 0
    verdicts = json.loads(
        (tmp_path / "out3d" / "verdicts.json").read_text())
    assert verdicts["completed"] is True


def test_single_mode_initial_data_3d():
    import micropolar as mp
    from micropolar.operators import divergence_defect
    grid = mp.GridSpec(dim=3, n=8)
    spec = InitialDataSpec(kind="single_mode", mode=(1, 0),
                           amplitude=(0.2, 0.1, 0.3))
    u0, om0, th0 = build_initial_data(grid, spec, seed=0)
    assert u0.components == 3 and om0.components == 3 and th0.components == 1
    assert u0.l2() == pytest.approx(0.2)
    assert divergence_defect(u0) <= 1e-12
    # energy concentrated on the +-(1,0,0) pair only
    mask = abs(th0.coeffs[0]) > 0
    assert mask.sum() == 2


@pytest.mark.parametrize("target,ensemble", [
    ("2.1", 12), ("2.2", 12), ("2.3", 8), ("2.4", 24), ("2.5", 6),
    ("2.6", 6), ("2.7", 6), ("2.8", 6), ("2.9", 8), ("2.10", 8),
    ("2.11", 8), ("2.12", 8), ("2.13", 8), ("3.5", 4),
    ("theorem-2.1", 4), ("theorem-2.2", 4), ("theorem-2.3", 4),
    ("hoelder", 4), ("energy", 4), ("4.3", 4),
])
def test_all_verify_targets(tmp_path, target, ensemble):
    cfg = {
        "grid": {"dim": 2, "n": 16},
        "exponents": {"p": 2, "q": 2, "r": 2, "alpha0": 0.5, "beta0": 0.5,
                      "gamma0": 0.0, "select": True},
        "picard": {"horizon": 0.25, "nodes_per_unit": 64, "m_max": 30,
                   "tol": 1e-10},
        "initial_data": {"kind": "random", "amplitude": [0.1, 0.1, 0.1],
                         "sigma": [3.0, 3.0, 3.0]},
        "t_total": 2.0,
        "seed": 11,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = str(tmp_path / target)
    rc = dispatch(["verify", target, "--config", str(path), "--seed", "5",
                   "--ensemble", str(ensemble), "--out", out])
    assert rc == 0, f"verify {target} failed"
    assert os.path.exists(os.path.join(out, "verdicts.json"))


def test_load_config_with_explicit_exponents(tmp_path):
    import micropolar as mp
    from micropolar.cli import load_config as load
    base = _config_dict(str(tmp_path / "o"))
    sel = mp.select_intermediate(
        mp.ExponentConfig(p=2, q=2, r=2, alpha0=0.5, beta0=0.5, gamma0=0.0))
    base["exponents"] = sel.config.to_dict()  # fully explicit, no select flag
    path = tmp_path / "full.json"
    path.write_text(json.dumps(base))
    cfg = load(str(path))
    assert cfg.exponents == sel.config


def _partial_exponents_config(tmp_path, config_path, select: bool) -> str:
    """The selected exponents with delta3 removed and alpha1 = 5, which
    breaks alpha1 < 1-delta1 and the rows beside it."""
    exps = load_config(config_path).exponents.to_dict()
    del exps["delta3"]
    exps["alpha1"] = 5.0
    raw = _config_dict(str(tmp_path / "partial_out"))
    raw["exponents"] = dict(exps, select=True) if select else exps
    path = tmp_path / f"partial_{select}.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_exponents_check_applies_rows_of_set_variables(config_path, tmp_path, capsys):
    """With one delta missing, every row that reads only set variables is
    still checked, so the broken alpha1 rows fail the check."""
    path = _partial_exponents_config(tmp_path, config_path, select=False)
    assert dispatch(["exponents", "check", "--config", path]) == 1
    out = json.loads(capsys.readouterr().out)
    labels = {v["label"] for v in out["violations"]}
    assert out["passed"] is False
    assert {"alpha1 < 1-delta1", "2alpha1+delta1 <= 1+alpha0"} <= labels
    assert not any("delta3" in label for label in labels)
    cfg = mp.ExponentConfig.from_dict(json.loads(open(path).read())["exponents"])
    full = mp.check_config(load_config(config_path).exponents)
    assert 18 < mp.check_config(cfg).checked < full.checked


def test_load_config_refuses_partial_intermediates(config_path, tmp_path, capsys):
    """A partial set of deltas and intermediates is a usage error naming the
    missing keys, unless "select" asks for a fresh selection."""
    path = _partial_exponents_config(tmp_path, config_path, select=False)
    assert dispatch(["picard", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "missing delta3" in err
    assert not os.path.exists(tmp_path / "partial_out")
    selected = load_config(_partial_exponents_config(tmp_path, config_path, select=True))
    assert selected.exponents == load_config(config_path).exponents


def test_dt_and_refine_overrides(config_path):
    import argparse
    from micropolar.cli import _apply_overrides
    cfg = load_config(config_path)
    ns = argparse.Namespace(dt=0.005, refine=None, seed=None, out=None)
    assert _apply_overrides(cfg, ns).picard.nodes_per_unit == 200
    cfg2 = load_config(config_path)
    ns2 = argparse.Namespace(dt=None, refine=2, seed=None, out=None)
    assert _apply_overrides(cfg2, ns2).picard.nodes_per_unit == 64 * 4


@pytest.mark.parametrize("ensemble", ["0", "-3"])
def test_verify_rejects_empty_ensemble(tmp_path, capsys, ensemble):
    # an ensemble needs a member: below 1 is a usage error, not 12 failed checks
    out = tmp_path / "v"
    rc = dispatch(["verify", "2.1", "--ensemble", ensemble, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert [ln for ln in err.splitlines() if "error:" in ln] == [
        f"micropolar verify: error: argument --ensemble: must be a positive "
        f"number, got {ensemble}"]
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("dt", ["0", "-0.01"])
def test_nonpositive_dt_is_usage_error(config_path, tmp_path, capsys, dt):
    # a given --dt is never ignored: 0 or below is refused before any solve
    out = tmp_path / "p"
    rc = dispatch(["picard", "--config", config_path, "--dt", dt, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert sum("error:" in ln for ln in err.splitlines()) == 1
    assert "--dt" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "picard"])
@pytest.mark.parametrize("flags,picard", [
    (["--refine", "-1"], {}),               # not a halving: refused at parse time
    (["--refine", "60"], {}),
    (["--refine", "5000"], {}),             # past the float range
    (["--dt", "1e-300"], {}),
    (["--dt", "1e-320"], {}),               # 1/dt overflows
    ([], {"nodes_per_unit": 1e30}),
    ([], {"nodes_per_unit": math.inf}),     # how JSON reads 1e400
    ([], {"horizon": math.nan}),
    ([], {"tol": math.nan}),
], ids=["refine-negative", "refine-60", "refine-5000", "dt-1e-300", "dt-1e-320",
        "npu-1e30", "npu-inf", "horizon-nan", "tol-nan"])
def test_unusable_picard_settings_are_usage_errors(tmp_path, capsys, command, flags, picard):
    # a window with more nodes than an array can index, or a horizon or
    # tolerance that is not a number, is refused before any solve, with one
    # error line
    out = tmp_path / "o"
    cfg = _config_dict(str(out))
    cfg["picard"].update(picard)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    rc = dispatch([command, "--config", str(path), *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert sum("error:" in ln for ln in err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def first_checkpoint(tmp_path_factory):
    """checkpoint_w0.mpk of a one-window simulate of _config_dict."""
    run = tmp_path_factory.mktemp("run")
    path = run / "run.json"
    path.write_text(json.dumps(_config_dict(str(run / "out"))))
    assert dispatch(["simulate", "--config", str(path)]) == 0
    return str(run / "out" / "checkpoint_w0.mpk")


@pytest.mark.parametrize("command", ["simulate", "resume", "theorem-2.2"])
@pytest.mark.parametrize("t_total", [math.nan, math.inf, -math.inf])
def test_nonfinite_t_total_is_usage_error(tmp_path, capsys, first_checkpoint, command,
                                          t_total):
    # refused when the config is read, before a window is counted
    args = {"simulate": ["simulate"], "theorem-2.2": ["verify", "theorem-2.2"],
            "resume": ["checkpoint", "resume", first_checkpoint]}[command]
    out = tmp_path / "o"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_config_dict(str(out), t_total=t_total)))
    capsys.readouterr()
    rc = dispatch([*args, "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert sum("error:" in ln for ln in err.splitlines()) == 1
    assert "t_total" in err and "Traceback" not in err
    assert not out.exists()


def test_refused_refine_builds_no_large_integer(config_path, tmp_path, capsys):
    # 2 ** 100000000 alone would take 12.5 MB
    import tracemalloc

    tracemalloc.start()
    try:
        rc = dispatch(["picard", "--config", config_path, "--refine", "100000000",
                       "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert rc == 2 and "--refine" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "picard", "verify"])
def test_negative_seed_is_usage_error(config_path, tmp_path, capsys, command):
    out = tmp_path / "o"
    target = ["2.10", "--ensemble", "2"] if command == "verify" else []
    rc = dispatch([command, *target, "--config", config_path, "--seed", "-1",
                   "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert sum("error:" in ln for ln in err.splitlines()) == 1
    assert "--seed" in err
    assert not out.exists()


def test_negative_config_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "o"
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(_config_dict(str(out), seed=-4)))
    rc = dispatch(["simulate", "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert sum("error:" in ln for ln in err.splitlines()) == 1
    assert "seed" in err
    assert not out.exists()


@pytest.mark.parametrize("text", [
    "{not json",                                    # not JSON
    json.dumps({"params": [1, 2]}),                 # malformed params, no exponents
    json.dumps({"exponents": {"p": 2, "q": 2, "r": 2, "alpha0": 0.5,
                              "beta0": 0.5, "gamma0": 0.0},
                "grid": "2d"}),                     # malformed grid
])
@pytest.mark.parametrize("action", ["check", "select"])
def test_exponents_bad_config_is_usage_error(tmp_path, capsys, text, action):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = dispatch(["exponents", action, "--config", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert sum("error:" in ln for ln in err.splitlines()) == 1


EXAMPLE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs", "example_run.json")


def _verdicts(outdir) -> dict:
    with open(os.path.join(outdir, "reports.csv")) as fh:
        return {row["lemma_id"]: row["verdict"] for row in csv.DictReader(fh)}


def test_picard_prints_horizon_note_without_source_line(tmp_path, capsys):
    # the example's horizon 0.25 lies past its fitted T*; the note is one
    # plain stderr line, not a warning that names a source file
    assert dispatch(["picard", "--config", EXAMPLE, "--fit-constants",
                     "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "note: horizon 0.25 exceeds estimated contraction horizon T*=" in err
    assert ".py:" not in err


def test_verify_2_2_holds_within_holder_constant(tmp_path):
    # every row's constant is its extremal eigenmode's ratio, 0.99995 to 1.0
    # of holder_constant(a), and the random cross-check stays below the bound
    out = tmp_path / "v"
    assert dispatch(["verify", "2.2", "--config", EXAMPLE, "--seed", "2",
                     "--out", str(out)]) == 0
    assert set(_verdicts(out).values()) == {"pass"}


@pytest.mark.parametrize("target,rows", [("2.1", 12), ("2.2", 9)])
def test_verify_probe_rows_hold_for_slow_generators(tmp_path, target, rows):
    # rho = 10 puts the smallest eigenvalue mu1 of every generator at 0.1, so
    # the probes peak at t = 2a/mu1 (2.1, up to 20) and x*/mu1 (2.2, about 23
    # at a = 0.25): past t = 10, where the grid would end in absolute time
    with open(EXAMPLE) as fh:
        cfg = json.load(fh)
    cfg["params"]["rho"] = 10.0
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "v"
    assert dispatch(["verify", target, "--config", str(path), "--ensemble", "4",
                     "--out", str(out)]) == 0
    verdicts = _verdicts(out)
    assert len(verdicts) == rows and set(verdicts.values()) == {"pass"}


def _verify_2_2_scaled(tmp_path, monkeypatch, scale) -> dict:
    from micropolar import analysis

    curve = analysis.holder_ratio_curve
    monkeypatch.setattr(analysis, "holder_ratio_curve",
                        lambda *args: scale * curve(*args))
    out = tmp_path / "v"
    assert dispatch(["verify", "2.2", "--config", EXAMPLE, "--seed", "2",
                     "--ensemble", "20", "--out", str(out)]) == 1
    return _verdicts(out)


def test_verify_2_2_fails_past_holder_constant(tmp_path, monkeypatch):
    # every row's probe sits within 5e-5 of the bound, so scaled by 1.01 all
    # nine rows exceed it
    verdicts = _verify_2_2_scaled(tmp_path, monkeypatch, 1.01)
    assert len(verdicts) == 9 and set(verdicts.values()) == {"fail"}


def test_verify_2_2_fails_below_holder_constant(tmp_path, monkeypatch):
    # a difference kernel scaled by 0.9 puts every probe below bound / 1.05
    verdicts = _verify_2_2_scaled(tmp_path, monkeypatch, 0.9)
    assert len(verdicts) == 9 and set(verdicts.values()) == {"fail"}


def test_verify_2_1_fails_past_semigroup_constant(tmp_path, monkeypatch):
    # every row's max is its extremal probe's ratio, within 2e-4 of the bound
    from micropolar import analysis

    curve = analysis.smoothing_ratio_curve
    monkeypatch.setattr(analysis, "smoothing_ratio_curve",
                        lambda *args: 1.01 * curve(*args))
    out = tmp_path / "v"
    assert dispatch(["verify", "2.1", "--config", EXAMPLE, "--ensemble", "20",
                     "--out", str(out)]) == 1
    verdicts = _verdicts(out)
    assert len(verdicts) == 12 and set(verdicts.values()) == {"fail"}


def test_verify_2_1_fails_below_the_bound(tmp_path, monkeypatch):
    # with lam = mu1 / 2, a probe on the mode k = (2, 0), eigenvalue 4 mu1,
    # reaches the bound over (2 / (4 / 3.5))^a = 1.75^a, 1.15 or more below it
    from micropolar import analysis

    monkeypatch.setattr(analysis, "extremal_smoothing_probe", lambda op, comp:
                        mp.SpectralField.single_mode(op.grid, (2, 0), [0.0, 1.0][-comp:]))
    out = tmp_path / "v"
    assert dispatch(["verify", "2.1", "--config", EXAMPLE, "--out", str(out)]) == 1
    verdicts = _verdicts(out)
    assert len(verdicts) == 12 and set(verdicts.values()) == {"fail"}


@pytest.mark.parametrize("scale", [1.01, 1 / 1.01])
def test_verify_zero_order_fails_off_its_symbol(tmp_path, monkeypatch, scale):
    # the single-mode ratio must agree with the symbol's sup within 1e-6
    from micropolar import analysis

    symbol = analysis._zero_order_symbol

    def scaled(*args):
        modes, sups, amps = symbol(*args)
        return modes, scale * sups, amps

    for target in ("2.9", "2.10", "2.11", "2.12", "2.13"):
        out = tmp_path / target
        assert dispatch(["verify", target, "--config", EXAMPLE, "--out", str(out)]) == 0
        monkeypatch.setattr(analysis, "_zero_order_symbol", scaled)
        assert dispatch(["verify", target, "--config", EXAMPLE, "--out", str(out)]) == 1
        monkeypatch.undo()
        assert _verdicts(out) == {target: "fail"}


@pytest.mark.parametrize("target", ["2.12", "2.13"])
def test_verify_forcing_of_wrong_length_is_usage_error(tmp_path, capsys, target):
    cfg = _config_dict(str(tmp_path / "out"))
    cfg["forcing_f" if target == "2.12" else "forcing_g"] = {
        "kind": "linear", "c": [0.5, 0.5, 0.5]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert dispatch(["verify", target, "--config", str(path),
                     "--out", str(tmp_path / "v")]) == 2
    assert "forcing has 3 components, expected" in capsys.readouterr().err


def test_verify_hoelder_fails_on_rough_increments(tmp_path, monkeypatch):
    # u = |t - t*|^0.25 cos(y) e_x at the node t* = 0.15625: the quotient for
    # alpha_hat 1/2 grows like h^-0.25, by 4^0.25 over two halvings of h,
    # where the example's falls from 0.111 at h = 1/8 to 0.036 at h = 1/256
    from micropolar import cli
    from micropolar.analysis import time_hoelder_quotients
    from micropolar.fields import half_spectrum

    grid = mp.GridSpec(dim=2, n=32)
    times = np.linspace(0.0, 0.25, 65)
    mode = half_spectrum(mp.SpectralField.single_mode(grid, (0, 1), [1.0, 0.0]).coeffs)
    zeros = np.zeros((times.size, 1) + mode.shape[1:], dtype=np.complex128)
    rough = np.abs(times - 0.15625) ** 0.25
    coeffs = {"u": rough[:, None, None, None] * mode[None], "om": zeros,
              "th": zeros.copy()}
    traj = mp.TrajectoryState(times, grid, coeffs,
                              {tag: np.zeros_like(c) for tag, c in coeffs.items()})
    cfg = load_config(EXAMPLE)
    res = time_hoelder_quotients(traj, cfg.exponents, cfg.params, 0.5, tau=0.0625)
    hs = sorted(res["quotients"])
    assert res["quotients"][hs[0]] / res["quotients"][hs[2]] == pytest.approx(
        4 ** 0.25, rel=1e-9)
    assert res["small_h_blowup"]
    out = tmp_path / "v"
    assert dispatch(["verify", "hoelder", "--config", EXAMPLE, "--out", str(out)]) == 0
    monkeypatch.setattr(cli, "_default_run", lambda cfg, pic: (traj, None))
    assert dispatch(["verify", "hoelder", "--config", EXAMPLE, "--out", str(out)]) == 1
    with open(out / "verdicts.json") as fh:
        assert json.load(fh) == {"hoelder no growth as h halves": False}


def test_verify_hoelder_refuses_a_short_run(tmp_path, capsys, monkeypatch):
    # 16 nodes per unit put 4 nodes in [T/4, T] of the 0.25 horizon: two
    # dyadic h, too few to see the quotient grow, so a usage error before solving
    from micropolar import cli

    with open(EXAMPLE) as fh:
        cfg = json.load(fh)
    cfg["picard"]["nodes_per_unit"] = 16
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(cli, "_default_run", lambda cfg: pytest.fail("solved"))
    out = tmp_path / "v"
    assert dispatch(["verify", "hoelder", "--config", str(path), "--out", str(out)]) == 2
    assert "nodes_per_unit" in capsys.readouterr().err


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_report_norms_and_energy_match_per_node_fields(tmp_path, monkeypatch, dim, n):
    """The l2 columns of nodes.csv and the energy ledger, read from the
    trajectory's arrays in node blocks, write the bytes of the per-node
    field computation: state_at(j), SpectralField.l2 and the Parseval sum
    of the dissipation function of node j alone (its agreement with the
    transformed dissipation function is tests/test_analysis.py's)."""
    from micropolar import solver
    from micropolar.analysis import _dissipation_integrals
    from micropolar.cli import _norm_table_rows

    # blocks of 5 nodes, so that the ledger spans several blocks and a short one
    monkeypatch.setattr(solver, "RHS_BLOCK_BYTES",
                        5 * mp.GridSpec(dim=dim, n=n).num_modes * 8 * (11 if dim == 2 else 27))
    cfg_dict = _config_dict(str(tmp_path / "out"), n=n, t_total=0.5)
    cfg_dict["grid"]["dim"] = dim
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg_dict))
    cfg = load_config(str(path))
    start = mp.start_state(*build_initial_data(cfg.grid, cfg.initial_data, cfg.seed))
    windows = []
    result = mp.global_solve(start, cfg.exponents, cfg.params, cfg.forcing_f, cfg.forcing_g,
                             cfg.picard, cfg.t_total,
                             checkpoint_hook=lambda w, traj: windows.append(traj))
    p, vol = cfg.params, cfg.grid.volume
    assert len(result.reports) == 2 and len(windows[0].node_blocks()) >= 3
    _, rows = _norm_table_rows(result.log, cfg)
    elog = result.ledger
    # the run's nodes: each window's, a later window's node 0 being the
    # node that ended the one before
    nodes = [(w, j) for i, w in enumerate(windows) for j in range(i > 0, w.node_count)]
    assert len(nodes) == len(rows)
    got, want = [], []
    for k, ((window, j), row) in enumerate(zip(nodes, rows)):
        u, om, th = window.state_at(j)
        kinetic = 0.5 * p.rho * (u.l2() ** 2 + om.l2() ** 2)
        heat = p.rho * p.cv * vol * float(np.sum(th.mean_values()))
        dissipation = _dissipation_integrals(cfg.grid, u.half[np.newaxis],
                                             om.half[np.newaxis], p)[0]
        got.append(row[1:4] + [elog.kinetic[k], elog.heat[k], elog.dissipation[k],
                               elog.total[k]])
        want.append([u.l2(), om.l2(), th.l2(), kinetic, heat, dissipation,
                     kinetic + heat])
    assert [[repr(float(x)) for x in r] for r in got] \
        == [[repr(float(x)) for x in r] for r in want]
