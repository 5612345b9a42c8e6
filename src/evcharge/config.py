"""Experiment configuration: YAML loading, validation, and shipped presets."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .mdp import MdpConfig
from .policy_eval import RISK_KINDS, TauDist
from .price_model import PriceGrid, PriceModelParams, build_grid
from .risk import RiskParams


class ConfigError(ValueError):
    """Invalid or incomplete experiment configuration; the message names the
    offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    pm: PriceModelParams
    mdp: MdpConfig            # horizon holds the largest tau
    tau: TauDist
    grid_span: int | None
    p0: float
    n_paths: int
    seed: int
    risk_kind: str
    delta: float
    degree: int
    constraint_grid_n: int
    epsilons: tuple[float, ...]
    sample_lambdas: tuple[float, ...]
    sample_alphas: tuple[float, ...]
    output_dir: str

    def __post_init__(self):
        # checked here so that a value replaced after loading (--seed) is checked too
        for field, value, low in (("grid_span", self.grid_span, 0),
                                  ("simulation.n_paths", self.n_paths, 2),
                                  ("simulation.seed", self.seed, 0),
                                  ("beta_search.degree", self.degree, 0),
                                  ("beta_search.constraint_grid_n", self.constraint_grid_n, 1)):
            if value is not None and value < low:
                raise ConfigError(f"{field} must be >= {low}, got {value}")

    def build_grid(self) -> PriceGrid:
        return build_grid(self.pm, span=self.grid_span)

    def sample_grid(self):
        return [(lam, alpha) for lam in self.sample_lambdas for alpha in self.sample_alphas]


FULL_SCALE = {
    "price_model": {
        "kappa_Y": 0.341, "mu_Y": -0.492, "sigma_Y": 5.350,
        "mu_J": -0.484, "sigma_J": 40.602, "jump_prob": 0.131,
        "seas_a": 13.586, "seas_b": -0.7597, "seas_c": 34.1362, "seas_period": 48,
    },
    "mdp": {
        # c_f: $2.00/hour access fee booked per 15-minute period
        "r_max": 60, "x_max": 60, "c_f": 0.5, "p_ref": 0.05,
        "gamma_h": 0.01, "r0": 0, "gamma_y_kind": "softplus",
    },
    # pinned wider than the escape-probability rule requires, to match the
    # case-study scale of ~260 distinct spot prices
    "grid_span": 130,
    "tau": {"horizons": list(TauDist.default().horizons),
            "probs": [float(p) for p in TauDist.default().probs]},
    "simulation": {"p0": 35.0, "n_paths": 100000, "seed": 42,
                   "risk_kind": "indicator", "delta": 0.3},
    "beta_search": {
        "degree": 10, "constraint_grid_n": 50,
        "epsilons": [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09, 0.10],
        "sample_lambdas": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "sample_alphas": [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95],
    },
    "output_dir": "out",
}

DESK_SCALE = {
    "price_model": {
        "kappa_Y": 0.341, "mu_Y": 0.0, "sigma_Y": 2.0,
        "mu_J": -0.5, "sigma_J": 6.0, "jump_prob": 0.1,
        "seas_a": 3.0, "seas_b": -1.0, "seas_c": 20.0, "seas_period": 12,
    },
    "mdp": {
        "r_max": 12, "x_max": 12, "c_f": 0.5, "p_ref": 0.05,
        "gamma_h": 0.01, "r0": 0, "gamma_y_kind": "softplus",
    },
    "grid_span": 20,
    "tau": {"horizons": [2, 3, 4], "probs": [0.3, 0.5, 0.2]},
    "simulation": {"p0": 20.0, "n_paths": 1000, "seed": 7,
                   "risk_kind": "indicator", "delta": 0.3},
    "beta_search": {
        "degree": 3, "constraint_grid_n": 20,
        "epsilons": [0.05, 0.15, 0.30],
        "sample_lambdas": [0.0, 0.5, 1.0],
        "sample_alphas": [0.1, 0.5, 0.9],
    },
    "output_dir": "out",
}

PRESETS = {"full_scale": FULL_SCALE, "desk_scale": DESK_SCALE}


_REQUIRED = object()


def _section(raw: dict, name: str) -> dict:
    if name not in raw:
        raise ConfigError(f"missing required section {name}")
    if not isinstance(raw[name], dict):
        raise ConfigError(f"section {name} must be a mapping, got {raw[name]!r}")
    return raw[name]


def _value(section: dict, section_name: str, key: str, default=_REQUIRED):
    if key in section:
        return section[key]
    if default is _REQUIRED:
        raise ConfigError(f"missing required field {section_name}.{key}")
    return default


def _is_integer(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _integer(section: dict, section_name: str, key: str, default=_REQUIRED) -> int:
    value = _value(section, section_name, key, default)
    if not _is_integer(value):
        raise ConfigError(f"{section_name}.{key} must be an integer, got {value!r}")
    return int(value)


def _number(section: dict, section_name: str, key: str, default=_REQUIRED) -> float:
    value = _value(section, section_name, key, default)
    if not _is_number(value):
        raise ConfigError(f"{section_name}.{key} must be a finite number, got {value!r}")
    return float(value)


def _list(section: dict, section_name: str, key: str, default=_REQUIRED,
          integers: bool = False) -> tuple:
    values = _value(section, section_name, key, default)
    is_element = _is_integer if integers else _is_number
    if not isinstance(values, (list, tuple)) or not all(is_element(v) for v in values):
        what = "integers" if integers else "finite numbers"
        raise ConfigError(f"{section_name}.{key} must be a list of {what}, got {values!r}")
    return tuple(int(v) if integers else float(v) for v in values)


def from_dict(raw: dict) -> ExperimentConfig:
    pm_raw, mdp_raw, tau_raw, sim, bs = (
        _section(raw, name) for name in ("price_model", "mdp", "tau", "simulation", "beta_search"))

    pm_fields = {k: _number(pm_raw, "price_model", k)
                 for k in ("kappa_Y", "mu_Y", "sigma_Y", "mu_J", "sigma_J",
                           "jump_prob", "seas_a", "seas_b", "seas_c")}
    pm_fields["seas_period"] = _integer(pm_raw, "price_model", "seas_period")
    try:
        pm = PriceModelParams(**pm_fields)
    except ValueError as exc:
        raise ConfigError(f"price_model: {exc}") from exc

    horizons = _list(tau_raw, "tau", "horizons", integers=True)
    probs = np.array(_list(tau_raw, "tau", "probs"))
    try:
        tau = TauDist(horizons, probs)
    except ValueError as exc:
        raise ConfigError(f"tau: {exc}") from exc

    mdp_fields = dict(
        r_max=_integer(mdp_raw, "mdp", "r_max"),
        x_max=_integer(mdp_raw, "mdp", "x_max"),
        c_f=_number(mdp_raw, "mdp", "c_f"),
        p_ref=_number(mdp_raw, "mdp", "p_ref"),
        gamma_h=_number(mdp_raw, "mdp", "gamma_h"),
        r0=_integer(mdp_raw, "mdp", "r0", 0),
        gamma_y_kind=mdp_raw.get("gamma_y_kind", "softplus"),
        gamma_y_cap=_number(mdp_raw, "mdp", "gamma_y_cap", 1.0),
    )
    try:
        mdp = MdpConfig(horizon=max(tau.horizons), **mdp_fields)
        mdp.check_compensation_lipschitz(pm)
    except ValueError as exc:
        raise ConfigError(f"mdp: {exc}") from exc

    grid_span = raw.get("grid_span")
    if grid_span is not None and not _is_integer(grid_span):
        raise ConfigError(f"grid_span must be an integer or null, got {grid_span!r}")
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError(f"output_dir must be a string, got {output_dir!r}")
    cfg = ExperimentConfig(
        pm=pm, mdp=mdp, tau=tau,
        grid_span=grid_span,
        p0=_number(sim, "simulation", "p0"),
        n_paths=_integer(sim, "simulation", "n_paths"),
        seed=_integer(sim, "simulation", "seed"),
        risk_kind=sim.get("risk_kind", "indicator"),
        delta=_number(sim, "simulation", "delta", 0.3),
        degree=_integer(bs, "beta_search", "degree", 10),
        constraint_grid_n=_integer(bs, "beta_search", "constraint_grid_n", 50),
        epsilons=_list(bs, "beta_search", "epsilons", [0.05]),
        sample_lambdas=_list(bs, "beta_search", "sample_lambdas"),
        sample_alphas=_list(bs, "beta_search", "sample_alphas"),
        output_dir=output_dir,
    )
    for field in ("sample_lambdas", "sample_alphas"):
        if not getattr(cfg, field):
            raise ConfigError(f"beta_search.{field} must not be empty")
    if not 0.0 <= cfg.delta <= 1.0:
        raise ConfigError(f"simulation.delta must be in [0, 1], got {cfg.delta}")
    if cfg.risk_kind not in RISK_KINDS:
        raise ConfigError(f"simulation.risk_kind: unknown practical risk kind "
                          f"{cfg.risk_kind!r}; expected one of {RISK_KINDS}")
    for lam, alpha in cfg.sample_grid():
        try:
            RiskParams(lam, alpha)
        except ValueError as exc:
            raise ConfigError(f"beta_search.sample_lambdas/sample_alphas: sampled beta "
                              f"({lam}, {alpha}): {exc}") from exc
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} is not a mapping")
    return from_dict(raw)


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return from_dict(PRESETS[name])
