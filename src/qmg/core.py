"""Dense state-vector algebra for small qubit registers.

States are normalised length-2^n complex vectors; noise never needs a
density matrix because the game adds it as an exact affine floor.
Qubit 0 is the most significant bit of the basis index, so for n=4 the
basis label |1000> is index 8.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

# Construction-time tolerance; test oracles use a looser 1e-10.
CONSTRUCTION_TOL = 1e-12

# Dense storage only; 2^12 amplitudes is the intended ceiling.
MAX_QUBITS = 12


def _frozen_array(a, shape, dtype=complex) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    if arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("non-finite entries")
    arr.setflags(write=False)
    return arr


def _check_qubit_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over the 2^n computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        amps = _frozen_array(self.amplitudes, (2**self.n_qubits,))
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-9:
            raise ValueError(f"state not normalized: |psi| = {norm}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, n_qubits: int, amplitudes) -> "PureState":
        """Build a state, normalizing the given amplitude vector."""
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if not np.isfinite(norm) or norm == 0:
            raise ValueError("amplitude vector must be finite and nonzero")
        return cls(n_qubits, amps / norm)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass(frozen=True)
class LocalUnitary:
    """A 2x2 unitary applied to a single qubit."""

    entries: np.ndarray

    def __post_init__(self):
        u = _frozen_array(self.entries, (2, 2))
        if np.max(np.abs(u @ u.conj().T - np.eye(2))) > CONSTRUCTION_TOL:
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "entries", u)


def _check_qubit_index(n_qubits: int, qubit_index: int) -> None:
    if not 0 <= qubit_index < n_qubits:
        raise IndexError(
            f"qubit index {qubit_index} out of range for {n_qubits} qubits"
        )


def apply_local(state: PureState, u: LocalUnitary, qubit_index: int) -> PureState:
    """Apply u to one qubit of a pure state (stride-wise, no Kronecker blowup)."""
    n = state.n_qubits
    _check_qubit_index(n, qubit_index)
    psi = state.amplitudes.reshape([2] * n)
    psi = np.moveaxis(psi, qubit_index, 0).reshape(2, -1)
    out = u.entries @ psi
    out = np.moveaxis(out.reshape([2] * n), 0, qubit_index).reshape(-1)
    return PureState(n, out)


def diagonal_expectation(state: PureState, indices: Iterable[int]) -> float:
    """<psi|P|psi> for the diagonal projector onto the given basis indices.

    The sum runs in the iteration order of `indices`; the committed
    tables depend on that order to the last bit.
    """
    idx = np.fromiter(indices, dtype=np.intp)
    dim = 2**state.n_qubits
    if idx.size and (idx.min() < 0 or idx.max() >= dim):
        raise IndexError(f"basis index out of range for dimension {dim}")
    return float(np.sum(state.probabilities()[idx]))
