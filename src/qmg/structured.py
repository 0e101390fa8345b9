"""Symmetric payoffs from block generating functions, with no 2^N vector.

Each family in `states._FAMILIES` is a sum of K <= 3 terms c_k v_k^(m)
over m = N/b blocks of b <= 3 qubits. When every player plays one
unitary U, the final state is sum_k c_k w_k^(m) with w_k = U^(b) v_k, so
player 1's payoff is the real part of sum_kl c_k conj(c_l) times the
winning coefficients of P^a_kl(z) Q_kl(z)^(m-1). Here
Q_kl(z) = sum_y w_k[y] conj(w_l[y]) z^|y| is one block's polynomial, and
P^a_kl keeps the terms of player 1's block whose first bit, player 1's,
is a. Bit 0 wins at weight j with 2j > N, bit 1 with 2j < N.

`game.expected_payoff` and `game.expected_payoffs` route here a profile
whose N strategies are all equal when N >= `game.STRUCTURED_MIN_N`; see
there for the rule and its pins.
"""
from __future__ import annotations

import numpy as np

from .states import _FAMILIES, InitialStateRecipe


def symmetric_payoffs(recipe: InitialStateRecipe, unitaries: np.ndarray, budget: int) -> list:
    """Player 1's pure payoff when every player plays unitaries[g], per g.

    unitaries is (G, 2, 2). The polynomials are read at the N + 1 roots
    of unity, where the power is elementwise and the winning coefficients
    are one linear form. A slice of G holds at most four (N + 1, K, K, G)
    arrays at once, so G runs in slices that keep them within `budget`
    values together. Each step is elementwise or a sequential sum in a
    fixed order, so a profile's payoff has the same bits in any batch
    (pinned by tests/test_structured.py::test_a_payoff_has_its_bits_in_any_batch).
    """
    n = recipe.n_qubits
    block, _, terms, renormalise = _FAMILIES[recipe.family]
    c, v = (np.array(column, dtype=complex) for column in zip(*terms(recipe)))
    pairs = (c[:, None] * c.conj())[None, :, :, None]  # c_k conj(c_l)
    weights = [bin(y).count("1") for y in range(2**block)]
    # roots[t, j] = omega^(tj) at omega = e^(2 pi i/(N + 1)); win[t, a] sums
    # omega^(-tj) / (N + 1) over the weights j where bit a wins, so
    # sum_t win[t, a] T(omega^t) is the sum of those coefficients of any T
    # of degree N. reads[y] reads a block outcome y's z^|y| at every root,
    # and firsts[y] weighs it, in player 1's block, by player 1's bit.
    roots = np.exp(2j * np.pi / (n + 1) * np.outer(np.arange(n + 1), np.arange(n + 1)))
    twice = 2 * np.arange(n + 1)
    win = roots.conj() @ np.array([twice > n, twice < n]).T / (n + 1)
    reads = [roots[:, j, None, None, None] for j in weights]
    firsts = [win[:, y >> (block - 1), None, None, None] * r for y, r in enumerate(reads)]
    used = np.flatnonzero(v.any(axis=0))
    size = max(1, budget // (4 * (n + 1) * len(c) ** 2))
    payoffs = []
    for start in range(0, len(unitaries), size):
        u = np.moveaxis(unitaries[start:start + size], 0, -1)  # (2, 2, G)
        ub = u
        for _ in range(block - 1):  # U^(b), (2^b, 2^b, G)
            d = 2 * len(ub)
            ub = (ub[:, None, :, None] * u[None, :, None, :]).reshape(d, d, -1)
        w = sum(v[:, col, None, None] * ub[None, :, col] for col in used)  # (K, 2^b, G)
        prod = w[:, None] * w[None].conj()  # (K, K, 2^b, G)
        values = _power(_read(reads, prod), n // block - 1)
        values *= _read(firsts, prod)
        values *= pairs
        values = values.reshape(-1, values.shape[-1])
        payoffs += np.add.accumulate(values, axis=0, out=values)[-1].real.tolist()
    if renormalise:  # by the squared norm sum_kl c_k conj(c_l) <v_l|v_k>^m
        norm_sq = (pairs.ravel() * (v @ v.conj().T).ravel() ** (n // block)).sum().real
        payoffs = [p / norm_sq for p in payoffs]
    return payoffs


def _read(polys: list, prod: np.ndarray) -> np.ndarray:
    """sum_y polys[y] * prod[:, :, y], added in order of y."""
    total = polys[0] * prod[:, :, 0]
    for y in range(1, len(polys)):
        total += polys[y] * prod[:, :, y]
    return total


def _power(x: np.ndarray, k: int) -> np.ndarray:
    """x ** k elementwise by repeated squaring, a new array."""
    out = np.ones_like(x)
    while k:
        if k & 1:
            out *= x
        k >>= 1
        if k:
            x = x * x
    return out
