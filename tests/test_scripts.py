"""Smoke tests of the scripts under scripts/: each runs as a program and writes
its CSVs."""

import csv
import os
import subprocess
import sys

import evcharge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(evcharge.__file__))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_desk_demo(tmp_path):
    proc = run_script("desk_demo.py", "--out-dir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in ("price_grid.csv", "noise_t0.csv", "structure_report.csv", "metrics.csv",
                 "metrics_samples.csv", "beta_path.csv", "fitted_surfaces.csv"):
        assert read_csv(tmp_path / name), name
    assert all(r["status"] == "pass" for r in read_csv(tmp_path / "structure_report.csv"))
    table = read_csv(tmp_path / "selection_table.csv")
    assert [r["epsilon"] for r in table] == ["Default", "0.050000", "0.150000", "0.300000", "RN"]


def test_full_scale_comparison(tmp_path):
    proc = run_script("full_scale_comparison.py", "--n-paths", "200", "--out-dir",
                      str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    rows = read_csv(tmp_path / "policy_comparison.csv")
    assert [r["policy"] for r in rows] == ["RN", "lam=0.25 alpha=0.5", "lam=0.5 alpha=0.5",
                                           "lam=0.75 alpha=0.75", "lam=1.0 alpha=0.95",
                                           "Default"]
    for r in rows:
        assert 0.0 <= float(r["risk"]) <= 1.0
        assert float(r["reward_se"]) >= 0.0
