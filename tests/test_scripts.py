import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_verification_suite_script(tmp_path):
    # the whole battery on a small grid: 27 ratio checks in summary.json and
    # three o(t^-a) proxies on stdout
    out = tmp_path / "suite"
    proc = _run_script("run_verification_suite.py", "--n", "8", "--ensemble", "4",
                       "--out", str(out))
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary) == 27
    assert sum(name.startswith("estimate ") for name in summary) == 9
    assert all(rep["verdict"] == "pass" for rep in summary.values())
    assert proc.stdout.count("o(t^-a) proxy") == 3


def test_contraction_study_script():
    # fitted constants, the a-priori horizon and the bound recursion: the
    # recursion dominates the measured iterates
    proc = _run_script("contraction_study.py", "--n", "8", "--amplitudes", "0.05")
    header, row = proc.stdout.splitlines()
    assert header.split() == ["amp", "T*", "sweeps", "ratio_1", "dominated"]
    cells = row.split()
    assert float(cells[0]) == 0.05 and cells[-1] == "True"


def test_decay_study_script(tmp_path):
    # a small-data global run whose three large-time rates meet the target
    out = tmp_path / "decay"
    proc = _run_script("decay_study.py", "--n", "8", "--t-total", "2",
                       "--out", str(out))
    assert proc.stdout.startswith("completed=True")
    assert proc.stdout.count("pass=True") == 3
    assert (out / "norms.csv").is_file()
    # the march's traced peak: one window's working set
    memory = re.search(r"^memory: traced peak ([\d.]+) MB$", proc.stdout, re.M)
    assert float(memory[1]) > 0
