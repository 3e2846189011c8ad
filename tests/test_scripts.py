import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_verification_suite_script(tmp_path):
    # the whole battery on a small grid: 27 ratio checks in summary.json and
    # three o(t^-a) proxies on stdout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    out = tmp_path / "suite"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "run_verification_suite.py"),
         "--n", "8", "--ensemble", "4", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary) == 27
    assert sum(name.startswith("estimate ") for name in summary) == 9
    assert all(rep["verdict"] == "pass" for rep in summary.values())
    assert proc.stdout.count("o(t^-a) proxy") == 3
