import copy
import csv
import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evcharge
from evcharge import mdp, policy_eval, price_model
from evcharge.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_STRUCTURE, main
from evcharge.config import (
    DESK_SCALE,
    FULL_SCALE,
    SCHEMA,
    ConfigError,
    from_dict,
    load_config,
    preset,
)


def small_raw():
    raw = copy.deepcopy(DESK_SCALE)
    raw["simulation"]["n_paths"] = 50
    raw["tau"] = {"horizons": [2, 3], "probs": [0.5, 0.5]}
    return raw


class TestConfig:
    def test_desk_preset_loads(self):
        cfg = preset("desk_scale")
        assert cfg.mdp.r_max == 12
        assert cfg.mdp.horizon == max(cfg.tau.horizons)
        assert cfg.grid_span == 20

    def test_full_scale_preset_loads(self):
        cfg = preset("full_scale")
        assert cfg.mdp.r_max == 60 and cfg.mdp.x_max == 60
        assert cfg.pm.kappa_Y == pytest.approx(0.341)
        assert len(cfg.build_grid()) == 261
        assert cfg.tau.horizons == tuple(range(4, 17))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("warehouse")

    def test_missing_field_named(self):
        raw = small_raw()
        del raw["price_model"]["kappa_Y"]
        with pytest.raises(ConfigError, match="price_model.kappa_Y"):
            from_dict(raw)

    def test_missing_section_named(self):
        raw = small_raw()
        del raw["tau"]
        with pytest.raises(ConfigError, match="tau"):
            from_dict(raw)

    def test_bad_value_wrapped(self):
        raw = small_raw()
        raw["tau"]["probs"] = [0.5, 0.6]
        with pytest.raises(ConfigError, match="tau"):
            from_dict(raw)

    def test_yaml_round_trip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(small_raw()))
        cfg = load_config(str(path))
        assert cfg.n_paths == 50
        assert cfg.sample_grid() == [(l, a) for l in (0.0, 0.5, 1.0)
                                     for a in (0.1, 0.5, 0.9)]


# (section, key, bad value, field the error must name); section None is top level
BAD_FIELDS = [
    ("mdp", "x_max", 2.5, "mdp.x_max"),
    ("simulation", "risk_kind", "bogus", "simulation.risk_kind"),
    ("beta_search", "sample_alphas", [1.0], "sample_alphas"),
    ("simulation", "n_paths", "abc", "simulation.n_paths"),
    ("simulation", "p0", "abc", "simulation.p0"),
    ("simulation", "delta", "abc", "simulation.delta"),
    ("beta_search", "epsilons", ["x"], "beta_search.epsilons"),
    ("beta_search", "sample_lambdas", ["x"], "beta_search.sample_lambdas"),
    ("tau", "horizons", 4, "tau.horizons"),
    ("mdp", "c_f", "abc", "mdp.c_f"),
    ("mdp", "p_ref", "abc", "mdp.p_ref"),
    ("mdp", "gamma_h", "abc", "mdp.gamma_h"),
    ("mdp", "gamma_y_cap", "abc", "mdp.gamma_y_cap"),
    ("mdp", "r0", 1.5, "mdp.r0"),
    (None, "grid_span", 20.5, "grid_span"),
    # a non-string output directory wrote the CSVs under ./None or ./[1, 2]
    (None, "output_dir", None, "output_dir"),
    (None, "output_dir", [1, 2], "output_dir"),
    # an empty sample list left the pipeline nothing to fit
    ("beta_search", "sample_lambdas", [], "beta_search.sample_lambdas"),
    ("beta_search", "sample_alphas", [], "beta_search.sample_alphas"),
    # no epsilon left the selection table with only its Default and RN rows
    ("beta_search", "epsilons", [], "beta_search.epsilons"),
    # 36 basis columns over 9 samples: the fit interpolated, free between them
    ("beta_search", "degree", 5, "beta_search.degree"),
    ("beta_search", "sample_lambdas", [0.0, 0.0, 1.0], "beta_search.degree"),
    # r_max = 0 divides by zero in the indicator risk
    ("mdp", "r_max", 0, "mdp: r_max"),
    # a negative cap pays a negative linear-capped compensation rate
    ("mdp", "gamma_y_cap", -2.0, "mdp: gamma_y_cap"),
    # range errors of the price model, raised by PriceModelParams
    ("price_model", "kappa_Y", 0, "price_model: kappa_Y"),
    ("price_model", "sigma_Y", -1, "price_model: sigma_Y"),
    ("price_model", "seas_period", 0, "price_model: seas_period"),
    # a negative gamma_h makes V concave in the charge, so verify failed the
    # convexity check while solve, simulate and pipeline ran on
    ("mdp", "gamma_h", -0.05, "mdp: gamma_h"),
    # delta < 0 puts every path at risk, delta > 1 none
    ("simulation", "delta", -0.5, "simulation.delta"),
    ("simulation", "delta", 1.5, "simulation.delta"),
    # a key outside the schema, one per section and one at top level; a
    # misspelled optional field used to load with its default in its place
    ("price_model", "kappa_y", 0.341, "unknown field price_model.kappa_y"),
    ("mdp", "gamma_y_capp", 2.0, "unknown field mdp.gamma_y_capp"),
    ("tau", "prob", [1.0], "unknown field tau.prob"),
    ("simulation", "risk_knd", "shortage", "unknown field simulation.risk_knd"),
    ("beta_search", "degre", 7, "unknown field beta_search.degre"),
    # constraint_grid_n is not a field; a config that still carries it fails at load
    ("beta_search", "constraint_grid_n", 50, "unknown field beta_search.constraint_grid_n"),
    (None, "gird_span", 3, "unknown field gird_span"),
    # a kind name that is not a string fails as such, not as an unknown kind
    ("mdp", "gamma_y_kind", 3, "mdp.gamma_y_kind must be a string"),
    ("simulation", "risk_kind", ["indicator"], "simulation.risk_kind must be a string"),
]
# one id per field; a field's later cases add their value
BAD_FIELD_IDS = []
for _section, _key, _value, _ in BAD_FIELDS:
    _name = _key if _section is None else f"{_section}.{_key}"
    BAD_FIELD_IDS.append(f"{_name}={_value!r}" if _name in BAD_FIELD_IDS else _name)


@pytest.mark.parametrize("section,key,value,named", BAD_FIELDS, ids=BAD_FIELD_IDS)
def test_bad_field_fails_at_load(tmp_path, capsys, section, key, value, named):
    raw = small_raw()
    (raw if section is None else raw[section])[key] = value
    with pytest.raises(ConfigError, match=named):
        from_dict(raw)
    code = main(["price-check", "--config", write_cfg(tmp_path, raw),
                 "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert named in capsys.readouterr().err


DELETE = object()
UNKNOWN = "unknown_key"
SECTIONS = [section for section, body in SCHEMA.items() if isinstance(body, dict)]
FIELDS = ([(None, name) for name in SCHEMA]
          + [(section, key) for section in SECTIONS for key in SCHEMA[section]]
          + [(section, UNKNOWN) for section in [None] + SECTIONS])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))
VALUES = (st.just(DELETE) | SCALARS | st.lists(SCALARS, max_size=4)
          | st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


@given(field=st.sampled_from(FIELDS), value=VALUES)
@example(field=("price_model", "kappa_Y"), value=400.0)  # exp(2 kappa) overflows
@example(field=("price_model", "kappa_Y"), value=1e308)
@example(field=("mdp", "p_ref"), value=0.0)
@example(field=("mdp", "p_ref"), value=-0.05)
@example(field=("mdp", "gamma_y_cap"), value=-1.0)  # neither preset sets it
@example(field=("simulation", UNKNOWN), value="shortage")
@settings(max_examples=400, deadline=None)
def test_any_single_field_mutation_loads_or_raises_config_error(field, value):
    raw = copy.deepcopy(DESK_SCALE)
    section, key = field
    target = raw if section is None else raw[section]
    if value is DELETE:
        target.pop(key, None)
    else:
        target[key] = value
    try:
        from_dict(raw)
    except ConfigError:
        pass
    else:
        assert key != UNKNOWN or value is DELETE  # a key outside the schema never loads


# scipy modules loaded after importing the CLI, after solve, verify, simulate
# and price-check, and after a pipeline, in one interpreter
SCIPY_PROBE = """
import json, sys
from evcharge.cli import main
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
cfg, out, record = sys.argv[1:]
stages = {"import": loaded()}
for args in (["solve", "--horizon", "3"], ["verify", "--horizon", "3"], ["simulate"],
             ["price-check"]):
    assert main(args + ["--config", cfg, "--out-dir", out]) == 0, args
stages["commands"] = loaded()
assert main(["pipeline", "--config", cfg, "--out-dir", out]) == 0
stages["pipeline"] = loaded()
with open(record, "w") as fh:
    json.dump(stages, fh)
"""


def test_scipy_loads_only_for_the_pipeline_fits(tmp_path):
    src = os.path.dirname(os.path.dirname(evcharge.__file__))
    record = tmp_path / "scipy.json"
    subprocess.run([sys.executable, "-c", SCIPY_PROBE, write_cfg(tmp_path, small_raw()),
                    str(tmp_path / "out"), str(record)],
                   env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True)
    stages = json.loads(record.read_text())
    assert stages["import"] == []
    assert stages["commands"] == []
    assert "scipy.optimize" in stages["pipeline"]  # fit imports linprog where it runs


def write_cfg(tmp_path, raw):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    return str(path)


class TestCli:
    def test_solve_writes_outputs(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["solve", "--config", write_cfg(tmp_path, small_raw()),
                     "--horizon", "3", "--lam", "0.5", "--alpha", "0.9",
                     "--out-dir", out])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "thresholds.csv"))
        assert os.path.exists(os.path.join(out, "values_t0.csv"))

    def test_solve_byte_stable(self, tmp_path):
        cfg = write_cfg(tmp_path, small_raw())
        outs = []
        for name in ("a", "b"):
            out = str(tmp_path / name)
            assert main(["solve", "--config", cfg, "--horizon", "3",
                         "--out-dir", out]) == EXIT_OK
            with open(os.path.join(out, "values_t0.csv"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_verify_passes_and_writes_report(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["verify", "--config", write_cfg(tmp_path, small_raw()),
                     "--horizon", "3", "--lambdas", "0,1", "--alphas", "0.5",
                     "--out-dir", out])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "structure_report.csv"))

    def test_verify_passes_below_the_capacity_benchmark(self, tmp_path):
        # x_max = 3 over 2 periods reaches 6 of r_max = 12: no bonus above the
        # benchmark, so V still rises with the price at t = T
        raw = small_raw()
        raw["mdp"]["x_max"] = 3
        code = main(["verify", "--config", write_cfg(tmp_path, raw), "--horizon", "2",
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK

    @pytest.mark.parametrize("x_max,code", [(12, EXIT_STRUCTURE), (3, EXIT_OK)],
                             ids=["fast", "slow"])
    def test_verify_threshold_falling_in_beta(self, tmp_path, capsys, monkeypatch, x_max, code):
        # thresholds shifted down as lambda rises: every per-beta check still
        # passes, and only the cross-beta row fails, binding in the fast regime
        real = mdp.solve_horizons

        def falling(cfg, betas, pm, grid, horizons):
            return [{T: dataclasses.replace(sol, thresholds=sol.thresholds
                                            + round(100 * (1 - beta[0].lam)))
                     for T, sol in sols.items()}
                    for beta, sols in zip(betas, real(cfg, betas, pm, grid, horizons))]

        monkeypatch.setattr(mdp, "solve_horizons", falling)
        raw = small_raw()
        raw["mdp"]["x_max"] = x_max
        out = tmp_path / "out"
        assert main(["verify", "--config", write_cfg(tmp_path, raw), "--horizon", "2",
                     "--lambdas", "0,1", "--alphas", "0.5", "--out-dir", str(out)]) == code
        with open(out / "structure_report.csv") as fh:
            failed = [r["check"] for r in csv.DictReader(fh) if r["status"] == "fail"]
        name = "threshold_nondecreasing_in_beta" + ("" if x_max == 12 else "_info")
        assert failed == [name]
        assert f"{name} lam=- alpha=-: fail" in capsys.readouterr().out

    def test_config_file_not_a_mapping(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("- price_model\n- mdp\n")
        code = main(["solve", "--config", str(path), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert f"config file {path} is not a mapping" in capsys.readouterr().err

    def test_missing_field_exit_code(self, tmp_path, capsys):
        raw = small_raw()
        del raw["price_model"]["kappa_Y"]
        code = main(["solve", "--config", write_cfg(tmp_path, raw)])
        assert code == EXIT_CONFIG
        assert "price_model.kappa_Y" in capsys.readouterr().err

    def test_simulate_metrics(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["simulate", "--config", write_cfg(tmp_path, small_raw()),
                     "--lam", "0.5", "--alpha", "0.9", "--out-dir", out,
                     "--dump-paths", "3"])
        assert code == EXIT_OK
        with open(os.path.join(out, "metrics.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("policy,")
        assert {ln.split(",")[0] for ln in lines[1:]} == {"threshold", "default", "never"}
        assert os.path.exists(os.path.join(out, "trajectories.csv"))

    @pytest.mark.parametrize("dump", [1, 3, 80])  # 80 is more than the 50 paths
    def test_simulate_dumps_the_first_paths(self, tmp_path, dump):
        out = str(tmp_path / "out")
        assert main(["simulate", "--config", write_cfg(tmp_path, small_raw()),
                     "--lam", "0.5", "--alpha", "0.9", "--out-dir", out,
                     "--dump-paths", str(dump)]) == EXIT_OK
        with open(os.path.join(out, "trajectories.csv")) as fh:
            rows = list(csv.DictReader(fh))
        ids = sorted({int(row["path_id"]) for row in rows})
        assert ids == list(range(min(dump, 50)))
        for i in ids:
            path = [row for row in rows if int(row["path_id"]) == i]
            r = [int(row["r"]) for row in path]
            x = [int(row["x"]) for row in path]
            assert [int(row["t"]) for row in path] == list(range(len(path)))
            assert np.diff(r).tolist() == x[:-1] and x[-1] == 0

    @pytest.mark.parametrize("name", ["desk_scale", "full_scale"])
    def test_price_check(self, tmp_path, name):
        out = str(tmp_path / "out")
        assert main(["price-check", "--preset", name, "--out-dir", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "price_grid.csv"))
        assert os.path.exists(os.path.join(out, "noise_t0.csv"))

    def test_price_check_fails_on_rising_drift(self, tmp_path, capsys, monkeypatch):
        def doubling(t, params, grid):
            # row i moves to column min(2i, n - 1), so the drift grows with the price
            n = len(grid)
            mat = np.zeros((n, n))
            mat[np.arange(n), np.minimum(2 * np.arange(n), n - 1)] = 1.0
            return mat

        monkeypatch.setattr(price_model, "transition_matrix", doubling)
        code = main(["price-check", "--preset", "desk_scale", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_STRUCTURE
        assert "drift check FAILED" in capsys.readouterr().out

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC, EXIT_STRUCTURE}) == 4

    def test_non_finite_value_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(mdp, "softplus", lambda y: np.full_like(y, np.inf))
        with np.errstate(invalid="ignore"):
            code = main(["solve", "--preset", "desk_scale", "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        assert "non-finite value at T=4, t=4" in capsys.readouterr().err

    def test_seed_flag_checked_like_config_seed(self, tmp_path, capsys):
        code = main(["simulate", "--preset", "desk_scale", "--seed", "-1",
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "simulation.seed" in capsys.readouterr().err

    def test_pipeline_marks_infeasible_budget(self, tmp_path):
        raw = small_raw()
        raw["beta_search"]["epsilons"] = [-0.5, 0.5]  # indicator risks lie in [0, 1]
        out = str(tmp_path / "out")
        assert main(["pipeline", "--config", write_cfg(tmp_path, raw),
                     "--out-dir", out]) == EXIT_OK
        with open(os.path.join(out, "selection_table.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["epsilon"], r["feasible"]) for r in rows] == [
            ("Default", "-"), ("-0.500000", "false"), ("0.500000", "true"), ("RN", "-")]


# (arguments, flag the error must name); each failed as a traceback, or for
# --dump-paths -3 wrote all but the last three paths, or for a negative or NaN
# --tolerance failed the structure checks of a correct solve
BAD_FLAGS = [
    (["solve", "--horizon", "-1"], "--horizon"),
    (["solve", "--lam", "1.5"], "--lam"),
    (["simulate", "--alpha", "0"], "--alpha"),
    (["verify", "--lambdas", "2"], "--lambdas"),
    (["verify", "--alphas", "1.0"], "--alphas"),
    (["verify", "--lambdas", "abc"], "--lambdas"),
    (["simulate", "--dump-paths", "-3"], "--dump-paths"),
    (["verify", "--lambdas="], "--lambdas"),
    (["verify", "--alphas="], "--alphas"),
    (["verify", "--tolerance", "-1"], "--tolerance"),
    (["verify", "--tolerance", "nan"], "--tolerance"),
]


@pytest.mark.parametrize("argv,flag", BAD_FLAGS, ids=[" ".join(a) for a, _ in BAD_FLAGS])
def test_bad_flag_is_config_error(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    code = main(argv + ["--config", write_cfg(tmp_path, small_raw()), "--out-dir", str(out)])
    assert code == EXIT_CONFIG
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("config error: ") and flag in line
    assert not out.exists()


# a config file that cannot be read or parsed; each raised a traceback:
# FileNotFoundError, IsADirectoryError, UnicodeDecodeError and a yaml ParserError
UNREADABLE = ["missing", "directory", "binary", "malformed"]


def unreadable_config(tmp_path, case):
    if case == "missing":
        return tmp_path / "absent.yaml"
    if case == "directory":
        return tmp_path
    path = tmp_path / "cfg.yaml"
    if case == "binary":
        path.write_bytes(bytes(range(128, 256)))
    else:
        path.write_text("price_model: [1, 2\n")
    return path


@pytest.mark.parametrize("case", UNREADABLE)
def test_unreadable_config_file_is_config_error(tmp_path, capsys, case):
    path = str(unreadable_config(tmp_path, case))
    with pytest.raises(ConfigError, match="cannot be read"):
        load_config(path)
    code = main(["solve", "--config", path, "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {path} cannot be read")
    assert "Traceback" not in err


def test_pipeline_draws_once_and_scores_default_on_it(tmp_path, monkeypatch):
    calls = []
    real = policy_eval.draw

    def counting(*args):
        calls.append(args)
        return real(*args)

    path = write_cfg(tmp_path, small_raw())
    out = str(tmp_path / "out")
    monkeypatch.setattr(policy_eval, "draw", counting)
    assert main(["pipeline", "--config", path, "--out-dir", out]) == EXIT_OK
    assert len(calls) == 1
    monkeypatch.undo()
    cfg = load_config(path)
    want = policy_eval.estimate(policy_eval.ContinuousChargePolicy(cfg.mdp), cfg.tau, cfg.mdp,
                                cfg.pm, cfg.p0, cfg.n_paths, cfg.seed,
                                risk_kind=cfg.risk_kind, delta=cfg.delta)
    with open(os.path.join(out, "selection_table.csv")) as fh:
        default = next(csv.DictReader(fh))
    assert default["epsilon"] == "Default"
    assert (default["reward"], default["risk"]) == (f"{want.reward:.6f}", f"{want.risk:.6f}")


@pytest.mark.full_scale
def test_price_check_drift_matches_next_price_dist():
    # price-check reads the drift from transition_matrix; next_price_dist builds
    # the same law one price at a time
    cfg = preset("full_scale")
    grid = cfg.build_grid()
    for t in range(cfg.pm.seas_period):
        drift = price_model.transition_matrix(t, cfg.pm, grid) @ grid.points - grid.points
        want = [price_model.next_price_dist(p, t, cfg.pm, grid).mean() - p
                for p in grid.points[1:-1]]
        np.testing.assert_allclose(drift[1:-1], want, rtol=0, atol=1e-12)
