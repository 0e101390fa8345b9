"""Dense state-vector algebra for small qubit registers.

A state is a normalised length-2^n complex vector, a plain array. This
module holds the qubit ceiling, the two checks every state passes (qubit
count before a 2^n vector is built, unit norm after), `distinct_columns`
and `apply_locals`, the one kernel that applies local unitaries. Qubit 0
is the most significant bit of the basis index, so for n=4 the basis
label |1000> is index 8.
"""
from __future__ import annotations

import numpy as np

# The largest n of any 2^n array (states, kernel rows, minority masks),
# checked before one is built; the kernel is pinned bit for bit at every n
# up to it. ROADMAP item 3 raises it, by measurement.
MAX_QUBITS = 12


def _check_qubit_count(n_qubits: int) -> None:
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")


def _check_unit_rows(rows: np.ndarray) -> None:
    """Reject any complex amplitude row whose norm is off 1 by more than 1e-9,
    or is not finite."""
    parts = rows.view(float)
    # each row's sum of squares as one (1, m) @ (m, 1) product, which runs
    # on NumPy 1.x too and costs less than einsum
    norms = np.sqrt((parts[:, None] @ parts[..., None]).ravel())
    off = np.abs(norms - 1.0)
    if not off.max() <= 1e-9:  # a nan norm fails here too
        bad = np.flatnonzero(~(off <= 1e-9))[0]
        raise ValueError(f"state not normalized: |psi| = {norms[bad]}")


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


def apply_locals(
    columns: np.ndarray, spread: np.ndarray, unitaries: np.ndarray, work: np.ndarray
) -> np.ndarray:
    """Apply unitaries[b, q] to qubit q of row b, for every row and qubit.

    Every row starts from one state, given as its `distinct_columns`;
    unitaries is (B, n, 2, 2) and the result is a read-only (B, 2^n) array
    of unit-norm rows. Raises ValueError for any other shape, an n past
    MAX_QUBITS, a column count K that is no power of two, a bad `work` or
    a row off unit norm.

    Work pair: every product and copy writes into one of the two rows of
    `work`, a C-contiguous complex (2, >= B * 2^n) array that must not
    overlap the operands. The result is a view of `work`, valid until it
    is written again, as by the next call given the same pair. Pinned by
    tests/test_core.py::TestApplyLocals::test_a_given_pair_holds_every_row_sized_buffer.

    Bit rules: both operands are made contiguous, and qubit q's unitary
    is one BLAS product with a contiguous (B, 2, W) array whose first axis
    is qubit q; that shape and contiguity fix the last bits the committed
    tables depend on. While W is a power of two each column's bits depend
    only on its two amplitudes, so the copies may order the columns
    freely; at W = 6 (n = 4, K = 3) OpenBLAS moves some, hence K's
    padding. Pinned by
    tests/test_core.py::TestApplyLocals::test_family_states_keep_the_oracle_bytes
    and tests/test_core.py::TestDistinctColumns::test_k_is_a_power_of_two_within_the_trailing_patterns.

    The leading ceil(n/2) qubits act on each trailing pattern's column
    alone, so they run on the K distinct columns at W = 2^(ceil(n/2)-1) * K
    and end with a copy and a gather that spread them back; the trailing
    floor(n/2) run at W = 2^(n-1) and end with a rotation and a 2-D
    transpose that leave the rows in natural order.
    """
    us = np.ascontiguousarray(unitaries, dtype=complex)
    if us.ndim != 4 or us.shape[2:] != (2, 2):
        raise ValueError(f"expected (B, n, 2, 2) unitaries, got {us.shape}")
    rows, n = us.shape[:2]
    _check_qubit_count(n)
    lead, k = (n + 1) // 2, columns.shape[-1]
    if columns.shape + spread.shape != (2**lead, k, 2 ** (n - lead)) or bin(k).count("1") != 1:
        raise ValueError(f"{columns.shape} columns, {spread.shape} spread for {n} qubits")
    full = rows << n
    if (work.dtype != complex or work.ndim != 2 or len(work) != 2 or work.shape[1] < full
            or not work.flags.c_contiguous):
        raise ValueError(f"work must be a C-contiguous complex (2, >= {full}) array")
    here, there = work[0, :full], work[1, :full]
    here[:rows * columns.size].reshape(rows, 2**lead, k)[...] = columns
    for first, size, behind in ((0, lead, k), (lead, n - lead, 2**lead)):
        if not size:  # n = 1: no trailing group
            break
        # views of the rows: the group's input, which each rotation
        # rewrites, and each product, whose axes are the qubit just
        # applied, the group's other qubits and the other group
        length = (rows << size) * behind
        x, y = here[:length].reshape(rows, 2, -1), there[:length].reshape(rows, 2, -1)
        rotated = y.reshape(rows, 2, -1, behind).transpose(0, 2, 1, 3)
        into = x.reshape(rotated.shape)
        for q in range(first, first + size - 1):
            np.matmul(us[:, q], x, out=y)
            into[...] = rotated
        np.matmul(us[:, first + size - 1], x, out=y)
        if not first:
            # take copies an input that is not contiguous, and a "raise"
            # take its out; "clip" never clips a valid spread
            x.reshape(rows, k, -1, 2)[...] = y.reshape(rows, 2, -1, k).transpose(0, 3, 2, 1)
            x.reshape(rows, k, -1).take(
                spread, axis=1, out=there.reshape(rows, spread.size, -1), mode="clip"
            )
        else:
            into[...] = rotated
            there.reshape(rows, behind, -1)[...] = x.reshape(rows, -1, behind).transpose(0, 2, 1)
        here, there = there, here
    out = here.reshape(rows, 2**n)
    _check_unit_rows(out)
    out.setflags(write=False)
    return out
