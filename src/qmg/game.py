"""The minority game engine.

Each of N players holds one qubit and plays an SU(2) strategy operator
on it. Players in the strict minority after measurement in the
computational basis receive payoff 1; ties and unanimity pay nothing.
Player i (1-based) acts on qubit i-1, the i-th most significant bit.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import LocalUnitary, PureState, apply_local, diagonal_expectation
from .states import InitialStateRecipe, build_pure


@dataclass(frozen=True)
class StrategyParams:
    """One player's strategy angles: theta in [0, pi], alpha, beta in [-pi, pi]."""

    theta: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must be in [0, pi], got {self.theta}")
        if not -math.pi <= self.alpha <= math.pi:
            raise ValueError(f"alpha must be in [-pi, pi], got {self.alpha}")
        if not -math.pi <= self.beta <= math.pi:
            raise ValueError(f"beta must be in [-pi, pi], got {self.beta}")


IDENTITY = StrategyParams(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class StrategyProfile:
    strategies: tuple

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not all(isinstance(s, StrategyParams) for s in self.strategies):
            raise TypeError("profile entries must be StrategyParams")

    @classmethod
    def symmetric(cls, params: StrategyParams, n: int) -> "StrategyProfile":
        return cls((params,) * n)

    def replace(self, player: int, params: StrategyParams) -> "StrategyProfile":
        """New profile with 1-based player's slot swapped out."""
        s = list(self.strategies)
        s[player - 1] = params
        return StrategyProfile(tuple(s))

    def __len__(self):
        return len(self.strategies)

    def __getitem__(self, i):
        return self.strategies[i]


@dataclass(frozen=True)
class GameSpec:
    """Player count plus the initial-state recipe (one qubit per player)."""

    n_players: int
    recipe: InitialStateRecipe

    def __post_init__(self):
        if self.n_players < 2:
            raise ValueError("need at least 2 players")
        if self.recipe.n_qubits != self.n_players:
            raise ValueError(
                f"recipe has {self.recipe.n_qubits} qubits for {self.n_players} players"
            )


def strategy_unitary(p: StrategyParams) -> LocalUnitary:
    """The SU(2) strategy matrix M(theta, alpha, beta)."""
    c = math.cos(p.theta / 2)
    s = math.sin(p.theta / 2)
    ea = cmath.exp(1j * p.alpha)
    eb = cmath.exp(1j * p.beta)
    m = np.array(
        [
            [ea * c, 1j * eb * s],
            [1j * s / eb, c / ea],
        ],
        dtype=complex,
    )
    return LocalUnitary(m)


def minority_winners(outcome: int, n_players: int) -> frozenset:
    """1-based players in the strict minority of a basis outcome.

    Ties (even N split) and unanimity leave everyone empty-handed.
    """
    if n_players < 2:
        raise ValueError("need at least 2 players")
    if not 0 <= outcome < 2**n_players:
        raise ValueError(f"outcome {outcome} out of range for {n_players} players")
    ones = outcome.bit_count()
    if 0 < ones < n_players / 2:
        winning_bit = 1
    elif n_players / 2 < ones < n_players:
        winning_bit = 0
    else:
        return frozenset()
    return frozenset(
        p
        for p in range(1, n_players + 1)
        if (outcome >> (n_players - p)) & 1 == winning_bit
    )


def minority_projector(n: int, player: int) -> frozenset:
    """All basis indices in which the given player is in the minority."""
    return frozenset(np.flatnonzero(minority_mask(n, player)).tolist())


def minority_mask(n: int, player: int) -> np.ndarray:
    """Boolean mask over the 2^n basis indices where the player wins.

    The rule of `minority_winners`, applied to every outcome at once.
    """
    if not 1 <= player <= n:
        raise ValueError(f"player {player} out of range for {n} players")
    outcomes = np.arange(2**n)
    twice_ones = 2 * sum((outcomes >> k) & 1 for k in range(n))
    bit = (outcomes >> (n - player)) & 1
    # a 1-bit wins if ones are the minority, a 0-bit if zeros are
    return np.where(bit == 1, twice_ones < n, twice_ones > n)


def final_state(initial: PureState, profile: StrategyProfile) -> PureState:
    """Apply every player's strategy unitary to their own qubit."""
    n = initial.n_qubits
    if len(profile) != n:
        raise ValueError(f"profile has {len(profile)} strategies for {n} qubits")
    state = initial
    for qubit, params in enumerate(profile.strategies):
        state = apply_local(state, strategy_unitary(params), qubit)
    return state


def expected_payoff(spec: GameSpec, profile: StrategyProfile, player: int) -> float:
    """Expected payoff Tr[rho_fin P_player] of the recipe's initial state.

    The identity component of a noisy initial state is invariant under
    the strategy unitaries, so the payoff separates exactly into
    f * (pure payoff) + (1-f) * k / 2^N; only the pure part is simulated.
    """
    winning = minority_projector(spec.n_players, player)
    psi = final_state(build_pure(spec.recipe), profile)
    pure = diagonal_expectation(psi, winning)
    f = spec.recipe.f
    if f >= 1.0:
        return pure
    return f * pure + (1 - f) * len(winning) / 2**spec.n_players


def classical_payoff(n: int) -> Fraction:
    """Mixed-strategy classical payoff: winning outcomes over all outcomes."""
    k = len(minority_projector(n, 1))
    return Fraction(k, 2**n)


def max_symmetric_payoff(n: int) -> Fraction:
    """Per-player ceiling: largest strict-minority group size over n."""
    if n < 2:
        raise ValueError("need at least 2 players")
    return Fraction((n - 1) // 2, n)
