"""Dense state-vector algebra for small qubit registers.

A state is a normalised length-2^n complex vector, a plain array; noise
never needs a density matrix because the game adds it as an exact affine
floor. This module holds the qubit ceiling, the two checks every state
passes (qubit count before a 2^n vector is built, unit norm after) and
`apply_locals`, the one kernel that applies local unitaries: it takes a
batch of amplitude rows with one unitary per row and qubit, costs one
(2, 2) @ (2, 2^(n-1)) BLAS product and one copy per qubit, and checks
every result row's norm at once; that is the only check a final state
gets. Payoffs are read from those rows by `game`, so this module has no
expectation values.
Qubit 0 is the most significant bit of the basis index, so for n=4 the
basis label |1000> is index 8.
"""
from __future__ import annotations

import numpy as np

# Dense storage only; 2^12 amplitudes is the intended ceiling.
MAX_QUBITS = 12


def _check_qubit_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def _check_unit_rows(rows: np.ndarray) -> None:
    """Reject any complex amplitude row whose norm is off 1 by more than 1e-9.

    The norm is the square root of the row's sum of squares over its
    real and imaginary parts. A non-finite row has a nan or inf norm and
    is rejected too.
    """
    parts = rows.view(float)
    norms = np.sqrt(np.einsum("ij,ij->i", parts, parts))
    bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-9))
    if bad.size:
        raise ValueError(f"state not normalized: |psi| = {norms[bad[0]]}")


def apply_locals(amplitudes: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Apply unitaries[b, q] to qubit q of row b, for every row and qubit.

    amplitudes is (B, 2^n) and unitaries is (B, n, 2, 2); the result is a
    new read-only (B, 2^n) array. Both operands are made contiguous
    first, and qubit q's unitary is one BLAS product with a contiguous
    (B, 2, 2^(n-1)) array whose first axis is qubit q. The committed
    tables depend on the last bits of that product. Its shape and
    contiguity fix them: each column's bits depend only on the two
    amplitudes in it, not on where the column sits, so the copies
    between products may order the columns as they like. The tests pin
    every n up to MAX_QUBITS to a per-qubit oracle, bit for bit.

    Those copies work in two groups: the leading ceil(n/2) qubits, then
    the trailing floor(n/2). Within a group of k qubits, each copy
    rotates only that group's axes, bringing its next qubit to the
    front, so it moves runs of 2^(n-k) contiguous amplitudes. The copy
    after a group's last qubit puts the group, back in order, behind the
    other group; after both groups the rows are in natural order again.
    Every result row is checked to have unit norm.
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
    lead = (n + 1) // 2
    x = amps.reshape(rows, 2, half)
    for first, size, behind in ((0, lead, n - lead), (lead, n - lead, lead)):
        # axes: the qubit just applied, the group's other qubits, the other group
        split = (rows, 2, 2**size // 2, 2**behind)
        for j in range(size):
            y = (us[:, first + j] @ x).reshape(split)
            y = y.transpose(0, 2, 1, 3) if j < size - 1 else y.transpose(0, 3, 2, 1)
            x = y.reshape(rows, 2, half)
    out = x.reshape(rows, 2**n)
    _check_unit_rows(out)
    out.setflags(write=False)
    return out
