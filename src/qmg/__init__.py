"""Quantum minority game simulator and analysis toolkit."""

from .game import (
    GameSpec,
    StrategyParams,
    StrategyProfile,
    classical_payoff,
    expected_payoff,
    max_symmetric_payoff,
)
from .states import InitialStateRecipe, StateFamily

__all__ = [
    "GameSpec",
    "InitialStateRecipe",
    "StateFamily",
    "StrategyParams",
    "StrategyProfile",
    "classical_payoff",
    "expected_payoff",
    "max_symmetric_payoff",
]
