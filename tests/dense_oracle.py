"""Density-matrix reference path for the noise-split tests.

The package simulates only the pure part of a noisy start
f|psi><psi| + (1-f)I/2^n and adds the identity part as an exact floor.
This module evolves the full 2^n x 2^n density matrix instead, so the
tests can check that split against a brute-force computation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from qmg.core import (
    CONSTRUCTION_TOL,
    LocalUnitary,
    PureState,
    _check_qubit_count,
    _check_qubit_index,
    _frozen_array,
)
from qmg.game import StrategyProfile, strategy_unitary
from qmg.states import InitialStateRecipe, build_pure


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
