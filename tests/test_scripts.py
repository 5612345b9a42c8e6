"""Smoke tests of the scripts under scripts/: each runs as a program and writes
its CSVs."""

import csv
import os
import subprocess
import sys
import tempfile

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


def test_identity_digest():
    # the saved tables are about 250 MB, so they go as soon as they are compared
    with tempfile.TemporaryDirectory() as tables:
        proc = run_script("identity_digest.py", "--save", tables)
        assert proc.returncode == 0, proc.stderr
        same = run_script("identity_digest.py", "--compare", tables, tables)
        assert same.returncode == 0, same.stderr
        saved = sorted(os.listdir(tables))
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    assert all(len(parts) == 3 for parts in lines)
    assert all(len(parts[2]) == 64 for parts in lines if parts[0] not in ("cvar", "fit"))
    names = [(kind, name) for kind, name, _ in lines]
    assert len(set(names)) == len(names)
    assert sum(kind == "family" for kind, _ in names) == 14
    assert sum(kind == "thresholds" for kind, _ in names) == 14
    assert ({name for kind, name in names if kind == "thresholds"}
            == {name for kind, name in names if kind == "family"})
    assert {name for kind, name in names if kind == "schedule"} == {"desk_scale", "full_scale"}
    # one file of tables per family and schedule line; a tree against itself
    # reads no drift and equal thresholds and fallback counts on every line
    assert saved == sorted(f"{kind} {name}.npz" for kind, name in names
                           if kind in ("family", "schedule"))
    assert sorted(line.split(" ", 2)[2] for line in same.stdout.splitlines()) == [
        "max|dV|=0 max|dpost|=0 thresholds=equal fallback_rows=equal"] * 16
    assert sorted(line.split(" ", 2)[:2] for line in same.stdout.splitlines()) == sorted(
        [kind, name] for kind, name in names if kind in ("family", "schedule"))
    # each preset: 7 families, Default and Never, from 2 start prices
    assert sum(kind == "score" for kind, _ in names) == 36
    assert {name.split(":", 2)[2] for kind, name in names if kind == "score"} == {
        name.split(":", 1)[1] for kind, name in names if kind == "family"} | {"default", "never"}
    # each preset: the (0.7, 0.9) family's and Never's four score floats
    cvar = {name: [float(x) for x in value.split(",")] for kind, name, value in lines
            if kind == "cvar"}
    assert set(cvar) == {"desk_scale:p0=20", "full_scale:p0=35"}
    assert all(len(floats) == 8 and floats[6] > 0.0 for floats in cvar.values())
    # the pipeline-desk fit: reward and risk l1 errors, then (lam, alpha) per epsilon
    fits = {name: [float(x) for x in value.split(",")] for kind, name, value in lines
            if kind == "fit"}
    assert list(fits) == ["pipeline-desk:seed=7:degree=8"]
    floats = fits["pipeline-desk:seed=7:degree=8"]
    assert len(floats) == 22 and floats[0] > 0.0 and floats[1] >= 0.0
    assert all(0.0 <= lam <= 1.0 and 0.005 <= alpha <= 0.995
               for lam, alpha in zip(floats[2::2], floats[3::2]))
    assert {name for kind, name in names if kind == "csv"} == {
        "solve/thresholds.csv", "solve/values_t0.csv", "verify/structure_report.csv",
        "simulate/metrics.csv", "simulate/trajectories.csv", "pipeline/beta_path.csv",
        "pipeline/fitted_surfaces.csv", "pipeline/metrics_samples.csv",
        "pipeline/selection_table.csv", "price-check/noise_t0.csv",
        "price-check/price_grid.csv"}
