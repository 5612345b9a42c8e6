"""Experiment configuration: YAML loading, validation, and shipped presets."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
    epsilons: tuple[float, ...]
    sample_lambdas: tuple[float, ...]
    sample_alphas: tuple[float, ...]
    output_dir: str

    def __post_init__(self):
        # checked here so that a value replaced after loading (--seed) is checked too
        for field, value, low in (("grid_span", self.grid_span, 0),
                                  ("simulation.n_paths", self.n_paths, 2),
                                  ("simulation.seed", self.seed, 0),
                                  ("beta_search.degree", self.degree, 0)):
            if value is not None and value < low:
                raise ConfigError(f"{field} must be >= {low}, got {value}")

    def build_grid(self) -> PriceGrid:
        try:
            return build_grid(self.pm, span=self.grid_span)
        except ValueError as exc:  # without grid_span, the escape rule found no span
            raise ConfigError(f"grid_span: {exc}; set grid_span") from exc

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
        "degree": 8,
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
        "degree": 2,
        "epsilons": [0.05, 0.15, 0.30],
        "sample_lambdas": [0.0, 0.5, 1.0],
        "sample_alphas": [0.1, 0.5, 0.9],
    },
    "output_dir": "out",
}

PRESETS = {"full_scale": FULL_SCALE, "desk_scale": DESK_SCALE}


def _is_integer(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _is_list(values, is_element) -> bool:
    return isinstance(values, (list, tuple)) and all(is_element(v) for v in values)


# a kind of value: what a message says it must be, its test and its conversion
INTEGER = ("an integer", _is_integer, int)
NUMBER = ("a finite number", _is_number, float)
STRING = ("a string", lambda v: isinstance(v, str), str)
INTEGERS = ("a list of integers", lambda v: _is_list(v, _is_integer), lambda v: tuple(map(int, v)))
NUMBERS = ("a list of finite numbers", lambda v: _is_list(v, _is_number),
           lambda v: tuple(map(float, v)))
INTEGER_OR_NULL = ("an integer or null", lambda v: v is None or _is_integer(v),
                   lambda v: None if v is None else int(v))
REQUIRED = object()

# every section of a config file maps each of its fields to (kind, default);
# grid_span and output_dir sit at the top level
SCHEMA = {
    "price_model": {**dict.fromkeys(("kappa_Y", "mu_Y", "sigma_Y", "mu_J", "sigma_J", "jump_prob",
                                     "seas_a", "seas_b", "seas_c"), (NUMBER, REQUIRED)),
                    "seas_period": (INTEGER, REQUIRED)},
    "mdp": {"r_max": (INTEGER, REQUIRED), "x_max": (INTEGER, REQUIRED), "c_f": (NUMBER, REQUIRED),
            "p_ref": (NUMBER, REQUIRED), "gamma_h": (NUMBER, REQUIRED), "r0": (INTEGER, 0),
            "gamma_y_kind": (STRING, "softplus"), "gamma_y_cap": (NUMBER, 1.0)},
    "tau": {"horizons": (INTEGERS, REQUIRED), "probs": (NUMBERS, REQUIRED)},
    "simulation": {"p0": (NUMBER, REQUIRED), "n_paths": (INTEGER, REQUIRED),
                   "seed": (INTEGER, REQUIRED), "risk_kind": (STRING, "indicator"),
                   "delta": (NUMBER, 0.3)},
    "beta_search": {"degree": (INTEGER, 8), "epsilons": (NUMBERS, [0.05]),
                    "sample_lambdas": (NUMBERS, REQUIRED), "sample_alphas": (NUMBERS, REQUIRED)},
    "grid_span": (INTEGER_OR_NULL, None),
    "output_dir": (STRING, "out"),
}


def _read(raw: dict, schema: dict, prefix: str = "") -> dict:
    """Check `raw` against `schema` and return its converted fields, defaults
    filled in; a section is read into a dict of its own."""
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown field {prefix}{key}")
    fields = {}
    for key, spec in schema.items():
        name = prefix + key
        if isinstance(spec, dict):
            if key not in raw:
                raise ConfigError(f"missing required section {name}")
            if not isinstance(raw[key], dict):
                raise ConfigError(f"section {name} must be a mapping, got {raw[key]!r}")
            fields[key] = _read(raw[key], spec, name + ".")
            continue
        (what, test, convert), default = spec
        if key not in raw and default is REQUIRED:
            raise ConfigError(f"missing required field {name}")
        value = raw.get(key, default)
        if not test(value):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        fields[key] = convert(value)
    return fields


def from_dict(raw: dict) -> ExperimentConfig:
    fields = _read(raw, SCHEMA)
    try:
        pm = PriceModelParams(**fields["price_model"])
    except ValueError as exc:
        raise ConfigError(f"price_model: {exc}") from exc
    try:
        tau = TauDist(**fields["tau"])
    except ValueError as exc:
        raise ConfigError(f"tau: {exc}") from exc
    try:
        mdp = MdpConfig(horizon=max(tau.horizons), **fields["mdp"])
        mdp.check_compensation_lipschitz(pm)
    except ValueError as exc:
        raise ConfigError(f"mdp: {exc}") from exc

    cfg = ExperimentConfig(pm=pm, mdp=mdp, tau=tau, grid_span=fields["grid_span"],
                           output_dir=fields["output_dir"], **fields["simulation"],
                           **fields["beta_search"])
    for field in ("epsilons", "sample_lambdas", "sample_alphas"):
        if not getattr(cfg, field):
            raise ConfigError(f"beta_search.{field} must not be empty")
    # the samples form a product grid, so the tensor basis has full column rank
    # exactly when each axis has degree + 1 distinct values
    distinct = [len(set(cfg.sample_lambdas)), len(set(cfg.sample_alphas))]
    if min(distinct) <= cfg.degree:
        raise ConfigError(f"beta_search.degree {cfg.degree} needs {cfg.degree + 1} distinct "
                          f"sample_lambdas and sample_alphas, got {distinct[0]} and {distinct[1]}")
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
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} is not a mapping")
    return from_dict(raw)


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return from_dict(PRESETS[name])
