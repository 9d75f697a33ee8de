"""Start-up cost: a command loads SciPy only where it computes with it.

pytest itself has imported SciPy by now, so the checks run in a fresh
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import extctrl
from extctrl import power_prior_posterior

# Runs each command line of argv[1] through cli.main in one interpreter and
# prints, after the imports and after each command, its exit code and the
# SciPy modules loaded so far.
CHILD = """
import json, sys
import extctrl, extctrl.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = [["import", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    code = extctrl.cli.main(argv)
    steps.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(steps))
"""


def _write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_commands_start_without_scipy(tmp_path):
    rng = np.random.default_rng(7)
    lines = ["id,group,severe,age,outcome"]
    for i in range(120):
        trial = i < 60
        severe = int(rng.random() < (0.3 if trial else 0.6))
        age = 50.0 + 8.0 * rng.normal()
        lines.append(f"s{i},{'trial' if trial else 'external'},{severe},{age:.1f},"
                     f"{int(rng.random() < 0.35 + 0.2 * severe)}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    aggregate = _write_json(tmp_path / "aggregate.json", {
        "n": 80, "covariates": {"severe": 0.6, "age": 52.0}, "binary_covariates": ["severe"],
        "outcome": {"kind": "binary", "responders": 30}})
    weighting = _write_json(tmp_path / "weighting.json", {
        "method": "weighting", "dataset": str(data), "estimand": "att",
        "bootstrap": {"replicates": 20}})
    stc = _write_json(tmp_path / "stc.json", {
        "method": "stc", "dataset": str(data), "aggregate": aggregate,
        "bootstrap": {"replicates": 20}})
    scenario = _write_json(tmp_path / "scenario.json", {
        "n_trial": 60, "n_external": 60,
        "covariates": [{"name": "severe", "kind": "binary", "p": 0.4}],
        "assignment": [0.0, -1.0], "outcome_kind": "binary",
        "outcome_coefficients": [-0.5, 1.0], "effect": 0.1, "seed": 3})
    counts = {"x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5}
    power_prior = _write_json(tmp_path / "power_prior.json", {
        "method": "power_prior", "power_prior": {**counts, "assume_comparable": True}})
    out = tmp_path / "out"
    commands = [
        ["--out-dir", str(out / "weighting"), "run", weighting],
        ["--out-dir", str(out / "stc"), "run", stc],
        ["simulate", "--scenario", scenario, "--out", str(out / "sim.csv")],
        ["--out-dir", str(out / "power_prior"), "run", power_prior],
    ]
    src = str(Path(extctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.splitlines()[-1])
    assert [code for _, code, _ in steps] == [0] * 5, steps
    # Importing extctrl and running every command but the power prior loads no SciPy.
    for label, _, modules in steps[:-1]:
        assert modules == [], (label, modules)
    # The power prior imports scipy.special where it is computed, and gives
    # the posterior of the library call in this process.
    assert "scipy.special" in steps[-1][2]
    report = json.loads((out / "power_prior" / "report.json").read_text(encoding="utf-8"))
    want = power_prior_posterior(**counts).to_dict()
    assert report["posterior"] == json.loads(json.dumps(want))


def test_import_loads_no_numpy_random():
    # Importing numpy.random costs about 15 ms; only a bootstrap draws with it,
    # and it imports numpy.random when it runs.
    code = ("import sys, extctrl, extctrl.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))")
    src = str(Path(extctrl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
