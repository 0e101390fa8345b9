"""The minority game engine.

Each of N players holds one qubit and plays an SU(2) strategy operator
on it. Players in the strict minority after measurement in the
computational basis receive payoff 1; ties and unanimity pay nothing.
Player i (1-based) acts on qubit i-1, the i-th most significant bit.
`minority_mask` is the one form of that rule, `final_amplitudes` builds
final states, and `_payoff` turns each into a payoff for every caller.
"""
from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, List, Sequence

import numpy as np

from .core import _check_qubit_count, apply_locals, distinct_columns
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
    """One strategy per player, compared field by field and hashed once."""

    strategies: tuple

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if not all(isinstance(s, StrategyParams) for s in self.strategies):
            raise TypeError("profile entries must be StrategyParams")

    def __hash__(self):
        if "_hash" not in vars(self):  # on first use: most profiles are never hashed
            object.__setattr__(self, "_hash", hash(self.strategies))
        return self._hash

    @classmethod
    def symmetric(cls, params: StrategyParams, n: int) -> "StrategyProfile":
        return cls((params,) * n)

    def replace(self, player: int, params: StrategyParams) -> "StrategyProfile":
        """New profile with 1-based player's slot swapped out."""
        if not 1 <= player <= len(self):
            raise ValueError(f"player {player} out of range for {len(self)} players")
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
        if not isinstance(self.n_players, numbers.Integral):
            raise ValueError(f"n_players must be an int, got {self.n_players!r}")
        if self.n_players < 2:
            raise ValueError("need at least 2 players")
        if self.recipe.n_qubits != self.n_players:
            raise ValueError(
                f"recipe has {self.recipe.n_qubits} qubits for {self.n_players} players"
            )


def strategy_unitary(p: StrategyParams) -> np.ndarray:
    """The SU(2) strategy matrix M(theta, alpha, beta), a read-only (2, 2) array."""
    c = math.cos(p.theta / 2)
    s = math.sin(p.theta / 2)
    ea = cmath.exp(1j * p.alpha)
    eb = cmath.exp(1j * p.beta)
    m = np.array([[ea * c, 1j * eb * s], [1j * s / eb, c / ea]], dtype=complex)
    m.setflags(write=False)
    return m


@functools.cache  # one entry per (n, player): n > MAX_QUBITS raises, uncached
def minority_projector(n: int, player: int) -> np.ndarray:
    """Read-only intp array of the basis indices where the player wins.

    The indices run in their frozenset's iteration order, which `_payoff`
    keeps as every payoff's summation order. Memoised: repeated calls
    return the same array object.
    """
    winning = frozenset(np.flatnonzero(minority_mask(n, player)).tolist())
    idx = np.fromiter(winning, dtype=np.intp, count=len(winning))
    idx.setflags(write=False)
    return idx


@functools.cache  # one entry per (n, player): n > MAX_QUBITS raises, uncached
def minority_mask(n: int, player: int) -> np.ndarray:
    """Read-only boolean mask over the 2^n basis indices where the player wins.

    n is checked against MAX_QUBITS before the 2^n outcomes are built.
    Memoised: repeated calls return the same array object.
    """
    if not 1 <= player <= n:
        raise ValueError(f"player {player} out of range for {n} players")
    _check_qubit_count(n)
    outcomes = np.arange(2**n)
    twice_ones = 2 * sum((outcomes >> k) & 1 for k in range(n))
    bit = (outcomes >> (n - player)) & 1
    # a 1-bit wins if ones are the minority, a 0-bit if zeros are
    mask = np.where(bit == 1, twice_ones < n, twice_ones > n)
    mask.setflags(write=False)
    return mask


# The one budget of every batched call: amplitudes per kernel call (four
# rows at N = 12, 1024 at N = 4) and deviations per Gram einsum of the
# best-response search, read when it runs. 2^15 would take a twelve-player
# N = 12 Nash check past the 2 MiB bound of
# tests/test_analysis.py::test_nash_check_memory_builds_partial_states_in_chunks.
PAYOFF_CHUNK = 2**14


def _unitaries(profiles: Sequence[StrategyProfile]) -> np.ndarray:
    """(B, n, 2, 2) strategy matrices, one matrix per distinct strategy object.

    Keyed by identity, not value: a symmetric profile holds one object n
    times, a deviation search's profiles share all but one, and hashing
    every frozen strategy would cost more than building the matrix.
    """
    distinct = {id(p): p for profile in profiles for p in profile.strategies}
    slot = {key: k for k, key in enumerate(distinct)}
    mats = np.array([strategy_unitary(params) for params in distinct.values()])
    index = [slot[id(p)] for profile in profiles for p in profile.strategies]
    return mats[index].reshape(len(profiles), -1, 2, 2)


def _pure(spec: GameSpec) -> GameSpec:
    """The spec at f = 1, which every f of its recipe shares until the payoff."""
    if spec.recipe.f == 1.0:
        return spec
    return replace(spec, recipe=replace(spec.recipe, f=1.0))


# The initial states of the last four recipes, each as its read-only
# `distinct_columns`: a pass of the `nash` benchmark workload cycles through
# four recipes, and a smaller memo rebuilds a state on almost every search.
# A miss calls the module-level build_pure, so a tracer that wraps it sees it.
@functools.lru_cache(maxsize=4)
def _initial_state(recipe: InitialStateRecipe) -> tuple[np.ndarray, np.ndarray]:
    return distinct_columns(build_pure(recipe))


def final_amplitudes(spec: GameSpec, profiles: Sequence[StrategyProfile]) -> Iterator[np.ndarray]:
    """Read-only (B, 2^N) blocks of final amplitudes, one row per profile.

    Each block is one `apply_locals` call on at most PAYOFF_CHUNK
    amplitudes, which applies every player's strategy unitary to their own
    qubit of the recipe's memoised initial state. Blocks come in the
    profiles' order, all in one work pair, so each is valid only until
    the next is requested. Raises ValueError, before any block, unless
    every profile holds N strategies.
    """
    n = spec.n_players
    if any(len(profile) != n for profile in profiles):
        raise ValueError(f"every profile needs {n} strategies")
    columns, spread = _initial_state(_pure(spec).recipe)
    size = max(1, PAYOFF_CHUNK // 2**n)
    work = np.empty((2, min(size, len(profiles)) << n), dtype=complex)
    for start in range(0, len(profiles), size):
        yield apply_locals(columns, spread, _unitaries(profiles[start:start + size]), work)


# Every player's payoff under one profile reads the same amplitude row, and
# so does every f of one recipe: callers key it on the `_pure` spec.
@functools.lru_cache(maxsize=1)
def _amplitudes(spec: GameSpec, profile: StrategyProfile) -> np.ndarray:
    return next(final_amplitudes(spec, [profile]))[0]


def _payoff(spec: GameSpec, amplitudes: np.ndarray, winning: np.ndarray) -> float:
    """Payoff from one row of final amplitudes and the winning indices.

    Every payoff in the package sums here: only the winning amplitudes
    are squared, and their probabilities are summed as one 1-D array in
    `minority_projector`'s order, which the committed tables depend on
    (pinned by
    tests/test_analysis.py::TestLockstepSearch::test_reported_payoffs_sum_in_the_projectors_order).
    The identity component of a noisy initial state is invariant under
    the strategy unitaries, so the payoff is f * (pure payoff) +
    (1-f) * k / 2^N exactly.
    """
    pure = float(np.sum(np.abs(amplitudes[winning]) ** 2))
    f = spec.recipe.f
    return f * pure + (1 - f) * len(winning) / 2**spec.n_players


def expected_payoff(spec: GameSpec, profile: StrategyProfile, player: int) -> float:
    """Expected payoff Tr[rho_fin P_player] of the recipe's initial state."""
    winning = minority_projector(spec.n_players, player)
    return _payoff(spec, _amplitudes(_pure(spec), profile), winning)


def expected_payoffs(
    spec: GameSpec, profiles: Sequence[StrategyProfile], player: int
) -> List[float]:
    """`expected_payoff` of one player under each profile, bit for bit."""
    winning = minority_projector(spec.n_players, player)
    payoffs = []
    for rows in final_amplitudes(spec, profiles):
        payoffs += [_payoff(spec, row, winning) for row in rows]
    return payoffs


def classical_payoff(n: int) -> Fraction:
    """Mixed-strategy classical payoff: winning outcomes over all outcomes.

    A player wins as one of m < n/2 agreeing players, with m of either
    bit value; the other m - 1 come from the remaining n - 1 players, so
    the wins are twice the lower tail of row n - 1 of Pascal's triangle.
    By the row's symmetry that is the whole row, 2^(n-1), less its
    middle entries: one for odd n, two equal ones for even n.
    """
    if n < 2:
        raise ValueError("need at least 2 players")
    return Fraction(2 ** (n - 1) - (2 - n % 2) * math.comb(n - 1, (n - 1) // 2), 2**n)


def max_symmetric_payoff(n: int) -> Fraction:
    """Per-player ceiling: largest strict-minority group size over n."""
    if n < 2:
        raise ValueError("need at least 2 players")
    return Fraction((n - 1) // 2, n)
