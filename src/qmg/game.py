"""The minority game engine.

Each of N players holds one qubit and plays an SU(2) strategy operator
on it. Players in the strict minority after measurement in the
computational basis receive payoff 1; ties and unanimity pay nothing.
Player i (1-based) acts on qubit i-1, the i-th most significant bit.
`minority_mask` is the one form of that rule in the package.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from .core import LocalUnitary, PureState, apply_locals, diagonal_expectation
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


@functools.lru_cache(maxsize=128)  # every (n, player) with n <= MAX_QUBITS
def minority_projector(n: int, player: int) -> np.ndarray:
    """Read-only intp array of the basis indices where the player wins.

    The indices run in the iteration order of their frozenset, and that
    order fixes every payoff's summation order to the last bit. Memoised:
    repeated calls return the same array object.
    """
    winning = frozenset(np.flatnonzero(minority_mask(n, player)).tolist())
    idx = np.fromiter(winning, dtype=np.intp, count=len(winning))
    idx.setflags(write=False)
    return idx


def minority_mask(n: int, player: int) -> np.ndarray:
    """Boolean mask over the 2^n basis indices where the player wins.

    A player wins in the strict minority; ties and unanimity pay nothing.
    """
    if not 1 <= player <= n:
        raise ValueError(f"player {player} out of range for {n} players")
    outcomes = np.arange(2**n)
    twice_ones = 2 * sum((outcomes >> k) & 1 for k in range(n))
    bit = (outcomes >> (n - player)) & 1
    # a 1-bit wins if ones are the minority, a 0-bit if zeros are
    return np.where(bit == 1, twice_ones < n, twice_ones > n)


# Amplitudes per kernel call when payoffs are batched: one row at N = 12,
# 256 rows at N = 4. Bigger chunks raise peak memory: the N = 12 surface
# peaks near 2.9 MiB with 8-row chunks against 0.6 MiB with this budget.
PAYOFF_CHUNK = 2**12


def _unitaries(profile: StrategyProfile) -> np.ndarray:
    """(n, 2, 2) strategy matrices, one checked matrix per distinct strategy."""
    mats = {params: strategy_unitary(params).entries for params in set(profile.strategies)}
    return np.array([mats[params] for params in profile.strategies])


def final_state(initial: PureState, profile: StrategyProfile) -> PureState:
    """Apply every player's strategy unitary to their own qubit."""
    n = initial.n_qubits
    if len(profile) != n:
        raise ValueError(f"profile has {len(profile)} strategies for {n} qubits")
    rows = apply_locals(initial.amplitudes[None], _unitaries(profile)[None])
    return PureState(n, rows[0])


# Callers vary the profile far more often than the recipe. The state is
# frozen with read-only amplitudes, so one shared copy is safe. A miss
# calls the module-level build_pure, so a tracer that wraps it sees it.
@functools.lru_cache(maxsize=1)
def _initial_state(recipe: InitialStateRecipe) -> PureState:
    return build_pure(recipe)


# Every player's payoff under one profile reads the same final state;
# a miss calls the module-level final_state, as above.
@functools.lru_cache(maxsize=1)
def _final_state(recipe: InitialStateRecipe, profile: StrategyProfile) -> PureState:
    return final_state(_initial_state(recipe), profile)


def _with_noise_floor(spec: GameSpec, pure: float, winning: np.ndarray) -> float:
    """Payoff of the noisy start, given the payoff of its pure part.

    The identity component of a noisy initial state is invariant under
    the strategy unitaries, so the payoff separates exactly into
    f * (pure payoff) + (1-f) * k / 2^N; only the pure part is simulated.
    """
    f = spec.recipe.f
    if f >= 1.0:
        return pure
    return f * pure + (1 - f) * len(winning) / 2**spec.n_players


def expected_payoff(spec: GameSpec, profile: StrategyProfile, player: int) -> float:
    """Expected payoff Tr[rho_fin P_player] of the recipe's initial state."""
    winning = minority_projector(spec.n_players, player)
    pure = diagonal_expectation(_final_state(spec.recipe, profile), winning)
    return _with_noise_floor(spec, pure, winning)


def expected_payoffs(
    spec: GameSpec, profiles: Sequence[StrategyProfile], player: int
) -> List[float]:
    """`expected_payoff` of one player under each profile, bit for bit.

    The profiles run through the kernel PAYOFF_CHUNK amplitudes at a
    time, so memory stays bounded however many there are.
    """
    n = spec.n_players
    if any(len(profile) != n for profile in profiles):
        raise ValueError(f"every profile needs {n} strategies")
    winning = minority_projector(n, player)
    initial = _initial_state(spec.recipe).amplitudes
    size = max(1, PAYOFF_CHUNK // 2**n)
    payoffs = []
    for start in range(0, len(profiles), size):
        chunk = profiles[start:start + size]
        unitaries = np.array([_unitaries(profile) for profile in chunk])
        rows = apply_locals(np.broadcast_to(initial, (len(chunk), 2**n)), unitaries)
        for probs in np.abs(rows) ** 2:
            # one 1-D sum per row in the projector's order, as diagonal_expectation
            pure = float(np.sum(probs[winning]))
            payoffs.append(_with_noise_floor(spec, pure, winning))
    return payoffs


def classical_payoff(n: int) -> Fraction:
    """Mixed-strategy classical payoff: winning outcomes over all outcomes.

    A player wins as one of m < n/2 agreeing players, with m of either
    bit value; the other m - 1 come from the remaining n - 1 players.
    """
    if n < 2:
        raise ValueError("need at least 2 players")
    wins = 2 * sum(math.comb(n - 1, m - 1) for m in range(1, (n - 1) // 2 + 1))
    return Fraction(wins, 2**n)


def max_symmetric_payoff(n: int) -> Fraction:
    """Per-player ceiling: largest strict-minority group size over n."""
    if n < 2:
        raise ValueError("need at least 2 players")
    return Fraction((n - 1) // 2, n)
