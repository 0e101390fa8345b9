"""Dense state-vector algebra for small qubit registers.

States are normalised length-2^n complex vectors; noise never needs a
density matrix because the game adds it as an exact affine floor.
`apply_locals` is the one kernel that applies local unitaries: it takes
a batch of amplitude rows with one unitary per row and qubit, costs one
(2, 2) @ (2, 2^(n-1)) BLAS product and one transpose copy per qubit, and
checks every result row's norm at once; that is the only check a final
state gets. Payoffs are read from those rows by `game`, so this module
has no expectation values.
Qubit 0 is the most significant bit of the basis index, so for n=4 the
basis label |1000> is index 8.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _check_unit_rows(rows: np.ndarray) -> None:
    """Reject any amplitude row whose norm is off 1 by more than 1e-9.

    A non-finite row has a nan or inf norm and is rejected too.
    """
    norms = np.linalg.norm(rows, axis=1)
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))
    if bad.size:
        raise ValueError(f"state not normalized: |psi| = {norms[bad[0]]}")


@dataclass(frozen=True)
class PureState:
    """Normalized state vector over the 2^n computational basis."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        amps = _frozen_array(self.amplitudes, (2**self.n_qubits,))
        _check_unit_rows(amps[None])
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_amplitudes(cls, n_qubits: int, amplitudes) -> "PureState":
        """Build a state, normalizing the given amplitude vector."""
        amps = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(amps)
        if not np.isfinite(norm) or norm == 0:
            raise ValueError("amplitude vector must be finite and nonzero")
        return cls(n_qubits, amps / norm)


@dataclass(frozen=True)
class LocalUnitary:
    """A 2x2 unitary applied to a single qubit."""

    entries: np.ndarray

    def __post_init__(self):
        u = _frozen_array(self.entries, (2, 2))
        if np.max(np.abs(u @ u.conj().T - np.eye(2))) > CONSTRUCTION_TOL:
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "entries", u)


def apply_locals(amplitudes: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Apply unitaries[b, q] to qubit q of row b, for every row and qubit.

    amplitudes is (B, 2^n) and unitaries is (B, n, 2, 2); the result is a
    new read-only (B, 2^n) array. Qubit q sits in front of a
    (B, 2, 2^(n-1)) view when its unitary is applied; transposing the
    product brings qubit q+1 to the front, and after the last qubit the
    rows are back in natural order. Both operands are made contiguous
    first, so every product is a BLAS product on materialised rows; the
    committed tables depend on the last bits of that product. Every
    result row is checked to have unit norm.
    """
    amps = np.ascontiguousarray(amplitudes, dtype=complex)
    us = np.ascontiguousarray(unitaries, dtype=complex)
    if amps.ndim != 2 or us.ndim != 4 or us.shape[2:] != (2, 2):
        raise ValueError(
            f"expected (B, 2^n) rows and (B, n, 2, 2) unitaries, "
            f"got {amps.shape} and {us.shape}"
        )
    rows, n = us.shape[:2]
    _check_qubit_count(n)
    if amps.shape != (rows, 2**n):
        raise ValueError(f"{amps.shape} rows for {rows} sets of {n} unitaries")
    half = 2 ** (n - 1)
    x = amps.reshape(rows, 2, half)
    for q in range(n):
        x = (us[:, q] @ x).transpose(0, 2, 1).reshape(rows, 2, half)
    out = x.reshape(rows, 2**n)
    _check_unit_rows(out)
    out.setflags(write=False)
    return out

