"""One round of every workload that BENCHMARK.json lists, run as the benchmark
runs it (perfbench/run.py): the recipe's config, the workload's commands
through micropolar.cli.dispatch, then each command's output checks.  A
command that exits non-zero or an output that fails its check shows here,
before a benchmark run would count it as incorrect.

The commands and checks come from perfbench/, whose modules import each other
by bare name, so the round runs in a subprocess with perfbench/ and src/ on
the path."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    WORKLOADS = [w["name"] for w in json.load(_fh)["workloads"]]

PROGRAM = """
import contextlib, json, os, sys
import checks, recipes, workloads
import micropolar.cli as cli

workload, root = sys.argv[1], sys.argv[2]
cfg = recipes.make_config(workload, 1, os.path.join(root, "run", "out"))
config_path = os.path.join(root, "config.json")
with open(config_path, "w") as fh:
    json.dump(cfg, fh)
rnd = workloads.Round(root, cfg, cli.load_config(config_path).exponents.beta2)
results = []
for label, argv, check in workloads.operations(workload, rnd):
    with contextlib.redirect_stdout(sys.stderr):
        rc = cli.dispatch(argv)
    problem = None
    if rc == 0:
        try:
            check(rnd)
        except checks.CheckFailed as exc:
            problem = str(exc)
    results.append({"label": label, "rc": rc, "problem": problem})
json.dump(results, sys.stdout)
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_round_passes_its_checks(workload, tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", PROGRAM, workload, str(tmp_path)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert results
    for res in results:
        assert res["rc"] == 0, (res["label"], proc.stderr)
        assert res["problem"] is None, res
