"""Game-theoretic analysis on top of the engine.

Best-response search on the deviator's 2x2 Gram form: a coarse grid
screened on (theta, alpha - beta), with only the points that can win
scored exactly, then coordinate-wise refinement, finished by the exact
top eigenvector; its memory grows with one theta plane, never the grid),
Nash-equilibrium verification via the unilateral-deviation inequality,
Pareto comparison, the closed-form 6-player payoff formulas, the
N-player entangler-payoff conjecture, and parameter sweeps that produce
figure-ready tables.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .game import (
    IDENTITY,
    GameSpec,
    StrategyParams,
    StrategyProfile,
    classical_payoff,
    expected_payoff,
    expected_payoffs,
    final_amplitudes,
    minority_mask,
)
from .states import InitialStateRecipe, StateFamily

NASH_TOLERANCE = 1e-4
REFINEMENT_MIN_STEP = 1e-6
# Coarse-grid points evaluated at once; bounds best-response memory
# for any grid. A grid of 25 is one chunk for the screen (1225 points)
# and for its survivors (at most 15625).
GRID_CHUNK = 2**15
# The exact optimum replaces the refined grid point only when it pays
# more by this margin, so flat optima keep their grid point.
EXACT_OPTIMUM_MARGIN = 1e-12
# A grid point is scored exactly when its (theta, alpha - beta) screen
# value is this close to the screen's maximum. The screen differs from
# the exact score by rounding only (at most 4.4e-16 measured), so the
# margin keeps every point that can be the grid maximum.
GRID_SCREEN_MARGIN = 1e-9

PARETO_MARGIN = 1e-10


def ne_strategy(n: int) -> StrategyParams:
    """The known symmetric equilibrium strategy M(pi/2, -pi/2n, pi/2n)."""
    return StrategyParams(math.pi / 2, -math.pi / (2 * n), math.pi / (2 * n))


def entangler_ne_strategy(n: int) -> StrategyParams:
    """Equilibrium strategy for the exponential-entangler initial state.

    That state carries a relative phase i on |1...1>; shifting the GHZ
    equilibrium phases by pi/(4n) absorbs it, giving
    M(pi/2, -pi/4n, pi/4n). At gamma=pi/2 this reproduces the GHZ
    equilibrium payoff exactly.
    """
    return StrategyParams(math.pi / 2, -math.pi / (4 * n), math.pi / (4 * n))


def payoff_formula_eq8(x: float) -> float:
    """6-player noiseless equilibrium payoff: 1/4 + x^2/16."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    return 0.25 + x**2 / 16


def payoff_formula_eq9(x: float, f: float) -> float:
    """6-player equilibrium payoff with noise: (3 + f + f x^2)/16."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"f must be in [0, 1], got {f}")
    return (3 + f + f * x**2) / 16


def conjecture_eq14(gamma: float, payoff_classical: float, payoff_quantum: float) -> float:
    """Conjectured N-player payoff as a function of the entangler angle."""
    if not 0.0 <= gamma <= math.pi / 2:
        raise ValueError(f"gamma must be in [0, pi/2], got {gamma}")
    for name, v in (("payoff_classical", payoff_classical), ("payoff_quantum", payoff_quantum)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {v}")
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    return (payoff_classical - payoff_quantum / 2) * (c - s) ** 2 + (
        payoff_quantum / 2
    ) * (c + s) ** 2


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of a best-response search for one player."""

    player: int
    candidate: StrategyProfile
    best_deviation: StrategyParams
    best_deviation_payoff: float
    equilibrium_payoff: float
    max_gain: float
    is_nash_within_tol: bool
    grid_resolution: int
    refinement_steps: int


@dataclass(frozen=True)
class SweepRow:
    """One gridpoint of a sweep or surface; absent axes stay None."""

    x: Optional[float] = None
    f: Optional[float] = None
    gamma: Optional[float] = None
    theta: Optional[float] = None
    alpha: Optional[float] = None
    payoff_simulated: float = 0.0
    payoff_analytic: Optional[float] = None
    abs_error: Optional[float] = None


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


def _su2_batch(thetas: np.ndarray, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Stack of strategy matrices, shape (G, 2, 2)."""
    c = np.cos(thetas / 2)
    s = np.sin(thetas / 2)
    ea = np.exp(1j * alphas)
    eb = np.exp(1j * betas)
    m = np.empty((len(thetas), 2, 2), dtype=complex)
    m[:, 0, 0] = ea * c
    m[:, 0, 1] = 1j * eb * s
    m[:, 1, 0] = 1j * s / eb
    m[:, 1, 1] = c / ea
    return m


class _DeviationEvaluator:
    """Payoffs of one player deviating while the rest stay fixed.

    The other players' unitaries are applied once up front, leaving the
    2 x 2^(n-1) block b with the deviator's qubit first. For a deviation
    with rows m_0, m_1 the pure payoff is sum_r m_r G_r m_r^dagger with
    the 2x2 Gram matrices G_r = (b * mask_r) b^dagger, so each candidate
    costs O(1) once G is built; the noise floor stays affine on top.
    """

    def __init__(self, spec: GameSpec, candidate: StrategyProfile, player: int):
        n = spec.n_players
        partial = final_amplitudes(spec, [candidate.replace(player, IDENTITY)])[0]
        q = player - 1
        self._block = np.moveaxis(partial.reshape([2] * n), q, 0).reshape(2, -1)
        mask = minority_mask(n, player)
        self._mask = np.moveaxis(mask.reshape([2] * n), q, 0).reshape(-1)
        rows = self._mask.reshape(2, -1)
        self._gram = np.stack([(self._block * r) @ self._block.conj().T for r in rows])
        self._f = spec.recipe.f
        self._mixed_floor = (1 - self._f) * np.count_nonzero(mask) / 2**n

    def payoffs(self, thetas, alphas, betas) -> np.ndarray:
        """Payoffs at a batch of deviations, from the Gram form."""
        mats = _su2_batch(
            np.atleast_1d(np.asarray(thetas, dtype=float)),
            np.atleast_1d(np.asarray(alphas, dtype=float)),
            np.atleast_1d(np.asarray(betas, dtype=float)),
        )
        pure = np.einsum("grc,rcd,grd->g", mats, self._gram, mats.conj()).real
        return self._f * pure + self._mixed_floor

    def dense_payoff(self, theta: float, alpha: float, beta: float) -> float:
        """Payoff at one deviation from the full 2 x 2^(n-1) product."""
        m = _su2_batch(np.array([theta]), np.array([alpha]), np.array([beta]))[0]
        probs = np.abs(m @ self._block).ravel() ** 2
        return float(self._f * probs[self._mask].sum() + self._mixed_floor)

    def exact_optimum(self) -> np.ndarray:
        """(theta, alpha, beta) of the exact best deviation.

        Unitarity turns the pure payoff into Tr G_1 + m_0 (G_0 - G_1)
        m_0^dagger, which the top eigenvector x of G_0 - G_1 maximises
        as m_0 = x^dagger.
        """
        _, vecs = np.linalg.eigh(self._gram[0] - self._gram[1])
        x0, x1 = vecs[:, -1]
        theta = 2 * math.atan2(abs(x1), abs(x0))
        alpha = -np.angle(x0)
        beta = -np.angle(x1) - math.pi / 2
        return np.array([theta, _wrap_angle(alpha), _wrap_angle(beta)])


def _wrap_angle(v: float) -> float:
    """The same angle in [-pi, pi)."""
    return (v + math.pi) % (2 * math.pi) - math.pi


_THETA_BOX = (0.0, math.pi)
_ANGLE_BOX = (-math.pi, math.pi)


def _grid_argmax(ev: _DeviationEvaluator, steps: int) -> Tuple[np.ndarray, float]:
    """First maximum of `ev.payoffs` over the (theta, alpha, beta) grid.

    The Gram-form payoff depends on alpha and beta only through
    alpha - beta, so a screen first scores the g * (2g - 1) distinct
    (theta, alpha - beta) pairs at beta = 0. Only the grid points whose
    screen value is within GRID_SCREEN_MARGIN of the screen's maximum
    are then scored by `ev.payoffs`, in ravel order: every point that
    can win is kept, so the point and its value are those of the full
    grid. Both steps take whole theta planes, as many as fit in
    GRID_CHUNK points, so memory grows with one plane (g^2), never with
    the whole grid (g^3).
    """
    thetas = np.linspace(*_THETA_BOX, steps)
    angles = np.linspace(*_ANGLE_BOX, steps)
    diffs = np.arange(1 - steps, steps) * (2 * math.pi / (steps - 1))
    planes = max(1, GRID_CHUNK // diffs.size)
    screen = np.concatenate([
        ev.payoffs(np.repeat(t, diffs.size), np.tile(diffs, t.size), 0.0)
        for t in (thetas[i:i + planes] for i in range(0, steps, planes))
    ]).reshape(steps, diffs.size)
    keep = screen >= screen.max() - GRID_SCREEN_MARGIN
    # the screen column of each (alpha_i, beta_j): i - j + steps - 1
    column = np.subtract.outer(np.arange(steps), np.arange(steps)) + steps - 1

    best_val = -math.inf
    planes = max(1, GRID_CHUNK // steps**2)
    for p in range(0, steps, planes):
        if not keep[p:p + planes].any():
            continue
        points = np.flatnonzero(keep[p:p + planes, column]) + p * steps**2
        for s in range(0, points.size, GRID_CHUNK):
            t, i, j = np.unravel_index(points[s:s + GRID_CHUNK], (steps,) * 3)
            vals = ev.payoffs(thetas[t], angles[i], angles[j])
            k = int(np.argmax(vals))
            if vals[k] > best_val:  # strict: the first maximum wins across chunks
                best_val = float(vals[k])
                best = np.array([thetas[t[k]], angles[i[k]], angles[j[k]]])
    return best, best_val


def best_response(
    spec: GameSpec,
    candidate: StrategyProfile,
    player: int,
    grid_resolution: int = 25,
    tolerance: float = NASH_TOLERANCE,
) -> DeviationReport:
    """Search the full (theta, alpha, beta) box for the player's best deviation.

    Coarse grid first: `_grid_argmax` screens it on (theta, alpha - beta)
    and scores only the survivors exactly, so it picks the point the full
    grid picks at O(g^2) cost plus the survivors. Then coordinate-wise
    interval shrinking around the running optimum until every step is
    below 1e-6, all on the 2x2 Gram form, so memory grows with one
    theta plane of the grid, never with the whole grid. The exact optimum
    from the top eigenvector then replaces the refined point if it pays
    more. Both reported payoffs come from the dense product at their
    single point.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    ev = _DeviationEvaluator(spec, candidate, player)
    inc = candidate[player - 1]
    equilibrium_payoff = ev.dense_payoff(inc.theta, inc.alpha, inc.beta)

    best, best_val = _grid_argmax(ev, grid_resolution)

    boxes = (_THETA_BOX, _ANGLE_BOX, _ANGLE_BOX)
    steps = np.array([b[1] - b[0] for b in boxes]) / (grid_resolution - 1)
    rounds = 0
    while steps.max() > REFINEMENT_MIN_STEP:
        rounds += 1
        for coord in range(3):
            lo = max(boxes[coord][0], best[coord] - steps[coord])
            hi = min(boxes[coord][1], best[coord] + steps[coord])
            scan = np.linspace(lo, hi, 11)
            args = [np.full_like(scan, best[c]) for c in range(3)]
            args[coord] = scan
            vals = ev.payoffs(*args)
            j = int(np.argmax(vals))
            if vals[j] > best_val:
                best_val = float(vals[j])
                best[coord] = scan[j]
            steps[coord] /= 5
    exact = ev.exact_optimum()
    if ev.payoffs(*exact)[0] > best_val + EXACT_OPTIMUM_MARGIN:
        best = exact

    theta = float(np.clip(best[0], *_THETA_BOX))
    alpha, beta = (float(np.clip(v, *_ANGLE_BOX)) for v in best[1:])
    best_val = ev.dense_payoff(theta, alpha, beta)
    gain = best_val - equilibrium_payoff
    return DeviationReport(
        player=player,
        candidate=candidate,
        best_deviation=StrategyParams(theta, alpha, beta),
        best_deviation_payoff=best_val,
        equilibrium_payoff=equilibrium_payoff,
        max_gain=gain,
        is_nash_within_tol=gain <= tolerance,
        grid_resolution=grid_resolution,
        refinement_steps=rounds,
    )


def nash_check(
    spec: GameSpec,
    candidate: StrategyProfile,
    grid_resolution: int = 25,
    tolerance: float = NASH_TOLERANCE,
) -> List[DeviationReport]:
    """Best-response search for every player; NE iff no player gains."""
    return [
        best_response(spec, candidate, player, grid_resolution, tolerance)
        for player in range(1, spec.n_players + 1)
    ]


def payoff_surface(
    spec: GameSpec, theta_steps: int = 25, alpha_steps: int = 25
) -> List[SweepRow]:
    """Player 1 payoff when everyone plays M(theta, alpha, -alpha) on a grid."""
    if theta_steps < 2 or alpha_steps < 2:
        raise ValueError("steps must be >= 2")
    points = [
        (theta, alpha)
        for theta in np.linspace(*_THETA_BOX, theta_steps)
        for alpha in np.linspace(*_ANGLE_BOX, alpha_steps)
    ]
    profiles = [
        StrategyProfile.symmetric(StrategyParams(theta, alpha, -alpha), spec.n_players)
        for theta, alpha in points
    ]
    return [
        SweepRow(theta=float(theta), alpha=float(alpha), payoff_simulated=payoff)
        for (theta, alpha), payoff in zip(points, expected_payoffs(spec, profiles, 1))
    ]


def _ne_payoff(recipe: InitialStateRecipe) -> float:
    n = recipe.n_qubits
    if recipe.family is StateFamily.EXPONENTIAL_ENTANGLER:
        strategy = entangler_ne_strategy(n)
    else:
        strategy = ne_strategy(n)
    return expected_payoff(GameSpec(n, recipe), StrategyProfile.symmetric(strategy, n), 1)


def _sweep_axis(stop: float, steps: int) -> List[float]:
    """steps evenly spaced points from 0 to stop, inclusive."""
    if steps < 2:
        raise ValueError("steps must be >= 2")
    return [float(v) for v in np.linspace(0.0, stop, steps)]


def _ne_row(
    recipe: InitialStateRecipe, analytic: Optional[float], **axes: float
) -> SweepRow:
    """Simulated equilibrium payoff at one sweep point, beside its formula."""
    sim = _ne_payoff(recipe)
    return SweepRow(
        **axes,
        payoff_simulated=sim,
        payoff_analytic=analytic,
        abs_error=None if analytic is None else abs(sim - analytic),
    )


def mixture_recipe(n: int, x: float = 1.0, f: float = 1.0) -> InitialStateRecipe:
    """The GHZ/Bell mixture that `sweep_x` and `sweep_f` play on."""
    return InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, n, x=x, f=f)


def entangler_recipe(n: int, gamma: float = math.pi / 2) -> InitialStateRecipe:
    """The entangled state that `sweep_gamma` plays on."""
    return InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, n, gamma=gamma)


def _mixture_row(n: int, x: float, f: float) -> SweepRow:
    return _ne_row(
        mixture_recipe(n, x, f),
        payoff_formula_eq9(x, f) if n == 6 else None,
        x=x,
        f=f,
    )


def sweep_x(n: int = 6, f: float = 1.0, steps: int = 11) -> List[SweepRow]:
    """Simulated equilibrium payoff vs the closed-form value across x."""
    return [_mixture_row(n, x, f) for x in _sweep_axis(1.0, steps)]


def sweep_f(n: int = 6, x: float = 1.0, steps: int = 11) -> List[SweepRow]:
    """Simulated equilibrium payoff vs the closed-form value across f."""
    return [_mixture_row(n, x, f) for f in _sweep_axis(1.0, steps)]


def conjecture_endpoints(
    n: int,
    payoff_classical: Optional[float] = None,
    payoff_quantum: Optional[float] = None,
) -> Tuple[float, float]:
    """The conjecture's payoffs at gamma = 0 and pi/2 for n players.

    A value not given defaults to the classical payoff and to the
    simulated entangler equilibrium payoff at gamma = pi/2; the latter
    builds a 2^n state, so n must then be at most MAX_QUBITS.
    """
    if payoff_classical is None:
        payoff_classical = float(classical_payoff(n))
    if payoff_quantum is None:
        payoff_quantum = _ne_payoff(entangler_recipe(n))
    return payoff_classical, payoff_quantum


def sweep_gamma(
    n: int = 6,
    steps: int = 11,
    payoff_classical: Optional[float] = None,
    payoff_quantum: Optional[float] = None,
) -> List[SweepRow]:
    """Simulated entangler payoff vs the conjectured formula across gamma.

    The conjecture is reported, not asserted; only the endpoints are
    expected to agree.
    """
    gammas = _sweep_axis(math.pi / 2, steps)
    payoff_classical, payoff_quantum = conjecture_endpoints(
        n, payoff_classical, payoff_quantum
    )
    return [
        _ne_row(
            entangler_recipe(n, gamma),
            conjecture_eq14(gamma, payoff_classical, payoff_quantum),
            gamma=gamma,
        )
        for gamma in gammas
    ]
