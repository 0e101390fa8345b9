"""Dense state-vector algebra for small qubit registers.

A state is a normalised length-2^n complex vector, a plain array; noise
never needs a density matrix because the game adds it as an exact affine
floor. This module holds the qubit ceiling, the two checks every state
passes (qubit count before a 2^n vector is built, unit norm after) and
`apply_locals`, the one kernel that applies local unitaries: it takes one
state's `distinct_columns` and one unitary per row and qubit, costs one
(2, 2) @ (2, W) BLAS product and one copy per qubit, and checks every
result row's norm, the only check a final state gets; `game` reads payoffs.
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


def distinct_columns(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A 2^n state's distinct columns over its leading qubits, and their spread.

    Read as a (2^ceil(n/2), 2^floor(n/2)) grid, one column per trailing
    pattern, the state's distinct columns, compared by bytes, come in
    order of first appearance, the first repeated until their count K is
    a power of two: a read-only (2^ceil(n/2), K) array, returned with the
    read-only index of each trailing pattern's column.
    """
    n = state.size.bit_length() - 1
    grid = state.reshape(2 ** ((n + 1) // 2), -1)
    patterns, size = grid.T.tobytes(), grid.shape[0] * grid.itemsize
    first = {}
    spread = np.array([first.setdefault(patterns[i:i + size], len(first))
                       for i in range(0, len(patterns), size)])
    spread.setflags(write=False)
    keys = list(first)
    keys += keys[:1] * ((1 << (len(keys) - 1).bit_length()) - len(keys))
    return np.frombuffer(b"".join(keys), dtype=grid.dtype).reshape(len(keys), -1).T, spread


def apply_locals(columns: np.ndarray, spread: np.ndarray, unitaries: np.ndarray) -> np.ndarray:
    """Apply unitaries[b, q] to qubit q of row b, for every row and qubit.

    Every row starts from one state, given as its `distinct_columns`;
    unitaries is (B, n, 2, 2) and the result is a new read-only (B, 2^n)
    array of rows checked to have unit norm. Both operands are made
    contiguous first, and qubit q's unitary is one BLAS product with a
    contiguous (B, 2, W) array whose first axis is qubit q. The committed
    tables depend on the last bits of that product. Its shape and
    contiguity fix them; while W is a power of two, each column's bits
    depend only on its two amplitudes, so the copies between products
    may order the columns as they like. At W = 6 (n = 4, three distinct
    columns) OpenBLAS moves some columns' bits, hence the padding of K.
    The tests pin every n up to MAX_QUBITS to a per-qubit oracle, bit
    for bit, for random states and every family's.

    The copies work in two groups: the leading ceil(n/2) qubits, which
    act on each trailing pattern's column alone and so run on the K
    distinct columns at W = 2^(ceil(n/2)-1) * K, then the trailing
    floor(n/2) at W = 2^(n-1). Within a group, each copy rotates only
    that group's axes, bringing its next qubit to the front. The copy
    after a group's last qubit puts the group, back in order, behind the
    other group (after the leading group, it also spreads the K columns
    back); after both, the rows are in natural order.
    """
    us = np.ascontiguousarray(unitaries, dtype=complex)
    if us.ndim != 4 or us.shape[2:] != (2, 2):
        raise ValueError(f"expected (B, n, 2, 2) unitaries, got {us.shape}")
    rows, n = us.shape[:2]
    _check_qubit_count(n)
    lead, k = (n + 1) // 2, columns.shape[-1]
    if columns.shape + spread.shape != (2**lead, k, 2 ** (n - lead)) or bin(k).count("1") != 1:
        raise ValueError(f"{columns.shape} columns, {spread.shape} spread for {n} qubits")
    x = np.empty((rows, 2, columns.size // 2), dtype=complex)
    x.reshape(rows, 2**lead, k)[:] = columns
    for first, size, behind in ((0, lead, k), (lead, n - lead, 2**lead)):
        # axes: the qubit just applied, the group's other qubits, the other group
        split = (rows, 2, 2**size // 2, behind)
        for j in range(size):
            y = (us[:, first + j] @ x).reshape(split)
            y = y.transpose(0, 2, 1, 3) if j < size - 1 else y.transpose(0, 3, 2, 1)
            x = (y if first or j < size - 1 else y.take(spread, axis=1)).reshape(rows, 2, -1)
    out = x.reshape(rows, 2**n)
    _check_unit_rows(out)
    out.setflags(write=False)
    return out
