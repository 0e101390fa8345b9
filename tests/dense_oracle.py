"""Reference paths the package's fast paths are tested against.

The package simulates only the pure part of a noisy start
f|psi><psi| + (1-f)I/2^n and adds the identity part as an exact floor.
This module evolves the full 2^n x 2^n density matrix instead, so the
tests can check that split against a brute-force computation. It also
holds the per-outcome minority rule that `game.minority_mask` is pinned
to, and the per-qubit apply that `core.apply_locals` matches bit for bit,
with `final_state`, its loop over the players, as the reference for
`game.final_amplitudes`, and `nash_check_per_player`, one best-response
search per player, as the reference for `analysis.nash_check`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Union

import numpy as np

from qmg.core import (
    CONSTRUCTION_TOL,
    LocalUnitary,
    PureState,
    _check_qubit_count,
    _frozen_array,
)
from qmg.analysis import NASH_TOLERANCE, DeviationReport, best_response
from qmg.game import GameSpec, StrategyProfile, strategy_unitary
from qmg.states import InitialStateRecipe, build_pure


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


def _check_qubit_index(n_qubits: int, qubit_index: int) -> None:
    if not 0 <= qubit_index < n_qubits:
        raise IndexError(
            f"qubit index {qubit_index} out of range for {n_qubits} qubits"
        )


def apply_local(state: PureState, u: LocalUnitary, qubit_index: int) -> PureState:
    """Apply u to one qubit of a pure state, validating the result."""
    n = state.n_qubits
    _check_qubit_index(n, qubit_index)
    psi = np.moveaxis(state.amplitudes.reshape([2] * n), qubit_index, 0).reshape(2, -1)
    amps = np.moveaxis((u.entries @ psi).reshape([2] * n), 0, qubit_index)
    return PureState(n, amps.reshape(-1))


def final_state(initial: PureState, profile: StrategyProfile) -> PureState:
    """Apply every player's strategy unitary to their own qubit, in turn."""
    if len(profile) != initial.n_qubits:
        raise ValueError(
            f"profile has {len(profile)} strategies for {initial.n_qubits} qubits"
        )
    state = initial
    for qubit, params in enumerate(profile.strategies):
        state = apply_local(state, strategy_unitary(params), qubit)
    return state


@dataclass(frozen=True)
class MixedState:
    """Hermitian, unit-trace density matrix over the 2^n basis."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        dim = 2**self.n_qubits
        rho = _frozen_array(self.matrix, (dim, dim))
        if np.max(np.abs(rho - rho.conj().T)) > CONSTRUCTION_TOL:
            raise ValueError("density matrix not Hermitian")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr} != 1")
        object.__setattr__(self, "matrix", rho)

    @classmethod
    def from_pure(cls, state: PureState) -> "MixedState":
        rho = np.outer(state.amplitudes, state.amplitudes.conj())
        return cls(state.n_qubits, rho)

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))


def apply_local_mixed(state: MixedState, u: LocalUnitary, qubit_index: int) -> MixedState:
    """Conjugate a density matrix by a single-qubit unitary: rho -> U rho U†."""
    n = state.n_qubits
    _check_qubit_index(n, qubit_index)
    rho = state.matrix.reshape([2] * (2 * n))
    rho = np.moveaxis(rho, (qubit_index, n + qubit_index), (0, 1)).reshape(2, 2, -1)
    rho = np.einsum("ab,bdx,cd->acx", u.entries, rho, u.entries.conj())
    rho = np.moveaxis(rho.reshape([2] * (2 * n)), (0, 1), (qubit_index, n + qubit_index))
    return MixedState(n, rho.reshape(2**n, 2**n))


def make_noisy(state: PureState, f: float) -> MixedState:
    """f |psi><psi| + (1-f)/2^n * I."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"f must be in [0, 1], got {f}")
    dim = 2**state.n_qubits
    rho = f * np.outer(state.amplitudes, state.amplitudes.conj())
    rho += (1 - f) / dim * np.eye(dim)
    return MixedState(state.n_qubits, rho)


def build_initial(recipe: InitialStateRecipe) -> Union[PureState, MixedState]:
    """Dispatch a recipe to its constructor; mixed only when f < 1."""
    psi = build_pure(recipe)
    if recipe.f < 1.0:
        return make_noisy(psi, recipe.f)
    return psi


def dense_final_state(rho: MixedState, profile: StrategyProfile) -> MixedState:
    """Conjugate rho by every player's strategy unitary on their own qubit."""
    for qubit, params in enumerate(profile.strategies):
        rho = apply_local_mixed(rho, strategy_unitary(params), qubit)
    return rho


def dense_expectation(rho: MixedState, indices: Iterable[int]) -> float:
    """Tr[rho P] for the diagonal projector onto the given basis indices."""
    return float(np.sum(rho.diagonal()[np.fromiter(indices, dtype=np.intp)]))


def nash_check_per_player(
    spec: GameSpec,
    candidate: StrategyProfile,
    grid_resolution: int = 25,
    tolerance: float = NASH_TOLERANCE,
) -> List[DeviationReport]:
    """`analysis.nash_check` without the orbit shortcut: every player searched."""
    return [
        best_response(spec, candidate, player, grid_resolution, tolerance)
        for player in range(1, spec.n_players + 1)
    ]
