"""Paper claims that the tests check and no command computes.

Pareto dominance between payoff vectors (the W3 product against the GHZ
equilibrium), the 6-player noiseless equilibrium payoff of Eq. 8,
which is `qmg.analysis.payoff_formula_eq9` at f = 1. Also the classical
payoff as a sum of binomials, the reference for the closed form in
`qmg.game.classical_payoff`, the GHZ and Bell-product payoffs at every N
as exact weight sums, the Bell equilibrium check's best gain as a 2x2
eigenproblem, and the exact values of the committed tables' cells, as
fractions or closed forms in them.
"""
from __future__ import annotations

import cmath
import enum
import math
from decimal import Decimal, localcontext
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


def bell_product_payoff_exact(n: int) -> Fraction:
    """Every player's payoff from the product of n/2 Bell pairs
    (|01> + |10>)/sqrt(2), at even n >= 4, when both players of each pair
    play M(pi/2, alpha, beta), exactly; alpha and beta may differ between
    pairs.

    In the notation of `ghz_equilibrium_payoff_exact`, a pair's 01 and 10
    amplitudes after M (x) M are (M_00 M_11 + M_01 M_10)/sqrt(2) =
    (c^2 - s^2)/sqrt(2) = 0, and its 00 and 11 amplitudes
    2 M_00 M_01/sqrt(2) and 2 M_10 M_11/sqrt(2) have modulus
    2cs/sqrt(2) = 2^(-1/2). So each pair ends in 00 or 11 with probability
    1/2 whatever alpha and beta are, and an outcome whose k pairs end in 11
    has weight w = 2k and probability 2^(-n/2). Player 1 wins with bit 1
    when 2w < n, in C(n/2 - 1, k - 1) outcomes of weight w, and with bit 0
    when 2w > n, in C(n/2 - 1, k): the n/2 pairs play the classical game,
    and the payoff is `qmg.game.classical_payoff` of n/2.
    """
    pairs = n // 2
    wins = 0  # 2^(n/2) times the payoff
    for k in range(pairs + 1):
        w = 2 * k
        if 0 < k and 2 * w < n:
            wins += math.comb(pairs - 1, k - 1)
        elif 2 * w > n:
            wins += math.comb(pairs - 1, k)
    return Fraction(wins, 2**pairs)


def bell_equilibrium_gain(n: int) -> float:
    """Player 1's best gain on the n-qubit Bell product, at even n >= 4,
    when every other player plays M = M(pi/2, -pi/2n, pi/2n), as
    `ne_strategy(n)` does; in O(n) float64.

    By `bell_product_payoff_exact`, the other K = n/2 - 1 pairs end in 00
    or 11 with probability 1/2 each, so j of them show 11 with weight
    C(K, j)/2^K. Player 2, the deviator's partner, turns their pair into
    (|0> M|1> + |1> M|0>)/sqrt(2), so row c of the deviator's block in
    `qmg.analysis._dense_deviations` is v_c/sqrt(2) times the rest, with
    v_0 = M|1> and v_1 = M|0>. Bit r wins when the partner shows q and j
    pairs show 11 if 2(1 + q + 2j) < n for r = 1, or 2(q + 2j) > n for
    r = 0; with W_r[q] the weight of those j, the Gram forms are
    G_r = V diag(W_r) V^dagger / 2, V the rows v_0 and v_1. As in
    `qmg.analysis._DeviationEvaluator.exact_optima`, the best payoff is
    Tr G_1 + lambda_max(G_0 - G_1); the incumbent pays
    sum_r M_r G_r M_r^dagger, M_r row r of M.

    Observed, not proved: at every n tested (4 to 300 here), the gain is 0
    when n = 2 (mod 4), within 1.7e-16, and 1/2 - classical_payoff(n/2)
    when n = 0 (mod 4): 0.5, 0.375 and 0.3125 at n = 4, 8 and 12, and
    0.0795892 at n = 200.
    """
    c = s = math.sqrt(0.5)
    ea, eb = cmath.exp(-1j * math.pi / (2 * n)), cmath.exp(1j * math.pi / (2 * n))
    m = np.array([[ea * c, 1j * eb * s], [1j * s / eb, c / ea]])
    others = n // 2 - 1
    weights = [math.comb(others, j) / 2**others for j in range(others + 1)]
    w1 = [sum(p for j, p in enumerate(weights) if 2 * (1 + q + 2 * j) < n) for q in (0, 1)]
    w0 = [sum(p for j, p in enumerate(weights) if 2 * (q + 2 * j) > n) for q in (0, 1)]
    v = m[:, ::-1].T  # rows M|1> and M|0>
    g0, g1 = ((v * w) @ v.conj().T / 2 for w in (w0, w1))
    best = np.trace(g1).real + np.linalg.eigvalsh(g0 - g1)[-1]
    incumbent = sum((row @ g @ row.conj()).real for row, g in zip(m, (g0, g1)))
    return float(best - incumbent)


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


def crossover_bell_strategy_payoff(x: Fraction) -> Decimal:
    """The 4-player mixture's payoff under M(pi/4, 0, 0) for everyone:
    1/8 - x^2/16 + x sqrt(1 - x^2)/(4 sqrt(2)), in 40-digit Decimal.

    The mixture is sqrt(1 - x^2) |P>|P> + (x/sqrt(2)) (|0000> + |1111>),
    P = (|01> + |10>)/sqrt(2). In the notation of
    `ghz_equilibrium_payoff_exact` at alpha = beta = 0, c = cos(pi/8),
    s = sin(pi/8), M (x) M takes |P> to (i|00> + |01> + |10> + i|11>)/2,
    since c^2 - s^2 = 2cs = 2^(-1/2). Player 1 wins only at 1000 and 0111.
    Both get i/4 from |P>|P> (a 10 or 01 pair beside a 00 or 11 one), and
    i(sc^3 - cs^3) = i/4 from the cat terms, so each has probability
    (sqrt(1 - x^2)/4 + x/(4 sqrt(2)))^2, and twice that is the form above.
    It equals `crossover_ghz_strategy_payoff`, x^2/4, at x = sqrt(2/3),
    where both are 1/6: 1/8 - 1/24 + 1/12.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        d = Decimal(x.numerator) / x.denominator
        return 1 / Decimal(8) - d * d / 16 + d * (1 - d * d).sqrt() / (4 * Decimal(2).sqrt())


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
