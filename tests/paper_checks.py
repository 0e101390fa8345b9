"""Paper claims that the tests check and no command computes.

Pareto dominance between payoff vectors (the W3 product against the GHZ
equilibrium), the 6-player noiseless equilibrium payoff of Eq. 8,
which is `qmg.analysis.payoff_formula_eq9` at f = 1. Also the classical
payoff as a sum of binomials, the reference for the closed form in
`qmg.game.classical_payoff`, and the exact values of the committed
tables' cells, as fractions or closed forms in them.
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
