"""Paper claims that the tests check and no command computes.

Pareto dominance between payoff vectors (the W3 product against the GHZ
equilibrium), the 6-player noiseless equilibrium payoff of Eq. 8,
which is `qmg.analysis.payoff_formula_eq9` at f = 1. Also the classical
payoff as a sum of binomials, the reference for the closed form in
`qmg.game.classical_payoff`, the GHZ equilibrium payoff at every N as
an exact weight sum, and the exact values of the committed tables'
cells, as fractions or closed forms in them.
"""
from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

PARETO_MARGIN = 1e-10


def payoff_formula_eq8(x: float) -> float:
    """6-player noiseless equilibrium payoff: 1/4 + x^2/16."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return 0.25 + x**2 / 16


def classical_payoff_sum(n: int) -> Fraction:
    """Mixed-strategy classical payoff, summed over minority sizes: a player
    wins as one of m < n/2 agreeing players, with m of either bit value;
    the other m - 1 come from the remaining n - 1 players."""
    wins = 2 * sum(math.comb(n - 1, m - 1) for m in range(1, (n - 1) // 2 + 1))
    return Fraction(wins, 2**n)


def ghz_equilibrium_payoff_exact(n: int) -> Fraction:
    """Player 1's payoff from the n-qubit GHZ state when every player plays
    M(pi/2, alpha, beta) with n(alpha - beta) = -pi, as `ne_strategy(n)`
    does, exactly.

    Write M(theta, alpha, beta) = [[e^{i alpha} c, i e^{i beta} s],
    [i e^{-i beta} s, e^{-i alpha} c]], with c = cos(theta/2) and
    s = sin(theta/2), as `qmg.game.strategy_unitary` does; at theta = pi/2,
    c = s = 2^(-1/2). An outcome of Hamming weight w gets the amplitude
    (A + B) / sqrt(2), with A = 2^(-n/2) e^{i alpha (n-w)} (i e^{-i beta})^w
    from |0...0> and B = 2^(-n/2) (i e^{i beta})^(n-w) e^{-i alpha w} from
    |1...1>. Since |A| = |B| = 2^(-n/2) and
    A conj(B) = 2^-n e^{i n (alpha - beta)} i^(2w-n), its probability is
    2^-n (1 + Re(e^{i n (alpha - beta)} i^(2w-n))). At n(alpha - beta) = -pi
    that is 2^-n (1 - Re(i^(2w-n))): 2^-n at odd n, where i^(2w-n) is +-i,
    and at even n, 2^(1-n) if w - n/2 is odd and 0 if it is even. Player 1
    wins with bit 1 when 2w < n, in C(n-1, w-1) outcomes of weight w, and
    with bit 0 when 2w > n, in C(n-1, w).
    """
    wins = 0  # 2^n times the payoff
    for w in range(n + 1):
        scaled = 1 if n % 2 else 2 * ((w - n // 2) % 2)  # 2^n times the probability
        if 0 < w and 2 * w < n:
            wins += scaled * math.comb(n - 1, w - 1)
        elif 2 * w > n:
            wins += scaled * math.comb(n - 1, w)
    return Fraction(wins, 2**n)


# The 6-player GHZ equilibrium payoff, M(pi/2, -pi/12, pi/12) for everyone.
GHZ6_EQUILIBRIUM_PAYOFF = Fraction(5, 16)
# Under identity play each W3 block holds exactly one 1, so the ones are a
# 2-of-6 minority and a player's bit is 1 with probability 1/3.
W3_PRODUCT_PAYOFF = Fraction(1, 3)


def payoff_formula_eq9_exact(x: Fraction, f: Fraction) -> Fraction:
    """Eq. 9 at rational x and f: (3 + f + f x^2)/16, exactly."""
    return (3 + f + f * x**2) / 16


def crossover_ghz_strategy_payoff(x: Fraction) -> Fraction:
    """The 4-player mixture's payoff under M(pi/2, -pi/8, pi/8): x^2/4."""
    return x**2 / 4


class ParetoResult(enum.Enum):
    A_DOMINATES = "ADominates"
    B_DOMINATES = "BDominates"
    EQUAL = "Equal"
    INCOMPARABLE = "Incomparable"


def pareto_compare(payoffs_a: Sequence[float], payoffs_b: Sequence[float]) -> ParetoResult:
    """Componentwise dominance with a small strictness margin."""
    a = np.asarray(payoffs_a, dtype=float)
    b = np.asarray(payoffs_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("payoff vectors differ in length")
    diff = a - b
    if np.all(np.abs(diff) <= PARETO_MARGIN):
        return ParetoResult.EQUAL
    if np.all(diff >= -PARETO_MARGIN):
        return ParetoResult.A_DOMINATES
    if np.all(diff <= PARETO_MARGIN):
        return ParetoResult.B_DOMINATES
    return ParetoResult.INCOMPARABLE
