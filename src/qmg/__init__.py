"""Quantum minority game simulator and analysis toolkit."""

from .core import LocalUnitary, PureState
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
    "LocalUnitary",
    "PureState",
    "StateFamily",
    "StrategyParams",
    "StrategyProfile",
    "classical_payoff",
    "expected_payoff",
    "max_symmetric_payoff",
]
