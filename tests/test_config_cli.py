import copy
import csv
import os
import subprocess
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import evcharge
from evcharge.cli import EXIT_CONFIG, EXIT_OK, EXIT_STRUCTURE, main
from evcharge.config import (
    DESK_SCALE,
    FULL_SCALE,
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
    ("beta_search", "constraint_grid_n", 2.5, "beta_search.constraint_grid_n"),
    (None, "grid_span", 20.5, "grid_span"),
]


@pytest.mark.parametrize("section,key,value,named", BAD_FIELDS,
                         ids=[k if s is None else f"{s}.{k}" for s, k, _, _ in BAD_FIELDS])
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
FIELDS = ([(None, name) for name in DESK_SCALE]
          + [(section, key) for section, body in DESK_SCALE.items() if isinstance(body, dict)
             for key in body])
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text(max_size=4))
VALUES = (st.just(DELETE) | SCALARS | st.lists(SCALARS, max_size=4)
          | st.dictionaries(st.text(max_size=3), SCALARS, max_size=2))


@given(field=st.sampled_from(FIELDS), value=VALUES)
@settings(max_examples=400, deadline=None)
def test_any_single_field_mutation_loads_or_raises_config_error(field, value):
    raw = copy.deepcopy(DESK_SCALE)
    section, key = field
    target = raw if section is None else raw[section]
    if value is DELETE:
        del target[key]
    else:
        target[key] = value
    try:
        from_dict(raw)
    except ConfigError:
        pass


def test_cli_import_skips_scipy_stats():
    src = os.path.dirname(os.path.dirname(evcharge.__file__))
    probe = "import sys, evcharge.cli; sys.exit('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


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

    def test_verify_empty_grid_is_config_error(self, tmp_path, capsys):
        code = main(["verify", "--config", write_cfg(tmp_path, small_raw()),
                     "--lambdas", "", "--alphas", "0.5"])
        assert code == EXIT_CONFIG
        assert "usage" in capsys.readouterr().err

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

    def test_price_check(self, tmp_path):
        out = str(tmp_path / "out")
        code = main(["price-check", "--config", write_cfg(tmp_path, small_raw()),
                     "--out-dir", out])
        assert code == EXIT_OK
        assert os.path.exists(os.path.join(out, "price_grid.csv"))
        assert os.path.exists(os.path.join(out, "noise_t0.csv"))

    def test_exit_codes_are_distinct(self):
        assert len({EXIT_OK, EXIT_CONFIG, EXIT_STRUCTURE}) == 3

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
