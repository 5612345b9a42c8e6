"""Risk-averse dynamic EV charging: price model, mean-CVaR MDP solver,
threshold-policy analysis, Monte Carlo evaluation, and risk-parameter
selection."""

from .mdp import MdpConfig, MdpSolution, solve, verify_structure
from .price_model import DiscreteDist, PriceGrid, PriceModelParams, build_grid
from .risk import RiskParams, RiskSchedule

__all__ = [
    "DiscreteDist",
    "MdpConfig",
    "MdpSolution",
    "PriceGrid",
    "PriceModelParams",
    "RiskParams",
    "RiskSchedule",
    "build_grid",
    "solve",
    "verify_structure",
]
