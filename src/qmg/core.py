"""Dense state-vector algebra for small qubit registers.

States are normalised length-2^n complex vectors; noise never needs a
density matrix because the game adds it as an exact affine floor.
Local unitaries are applied to every qubit in one pass.
Qubit 0 is the most significant bit of the basis index, so for n=4 the
basis label |1000> is index 8.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def apply_locals(state: PureState, unitaries: Sequence[LocalUnitary]) -> PureState:
    """Apply unitaries[q] to qubit q for every qubit in one pass.

    Stride-wise, with no Kronecker blowup; the state is validated once,
    at the end. The moveaxis/reshape/matmul step is kept as is: the
    copy-free forms (a strided matmul, the elementwise update) round
    differently in the last bit, and the committed tables depend on
    these bits.
    """
    n = state.n_qubits
    if len(unitaries) != n:
        raise ValueError(f"{len(unitaries)} unitaries for {n} qubits")
    amps = state.amplitudes
    for q, u in enumerate(unitaries):
        psi = np.moveaxis(amps.reshape([2] * n), q, 0).reshape(2, -1)
        amps = np.moveaxis((u.entries @ psi).reshape([2] * n), 0, q).reshape(-1)
    return PureState(n, amps)


def diagonal_expectation(state: PureState, indices: Iterable[int]) -> float:
    """<psi|P|psi> for the diagonal projector onto the given basis indices.

    The sum runs in the iteration order of `indices`; the committed
    tables depend on that order to the last bit. An intp array is used
    without a copy.
    """
    if isinstance(indices, np.ndarray):
        idx = np.asarray(indices, dtype=np.intp)
    else:
        idx = np.fromiter(indices, dtype=np.intp)
    dim = 2**state.n_qubits
    if idx.size and (idx.min() < 0 or idx.max() >= dim):
        raise IndexError(f"basis index out of range for dimension {dim}")
    return float(np.sum(state.probabilities()[idx]))
