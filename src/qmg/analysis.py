"""Game-theoretic analysis on top of the engine.

Best responses and Nash checks on each deviator's 2x2 Gram form
(`best_response`, `nash_check`), the closed-form 6-player payoff
formula, the N-player entangler-payoff conjecture, and parameter sweeps
that produce figure-ready tables.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import game
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
    minority_projector,
)
from .states import _FAMILIES, InitialStateRecipe, StateFamily

NASH_TOLERANCE = 1e-4
REFINEMENT_MIN_STEP = 1e-6
# The exact optimum replaces the grid point only when it pays more by
# this margin, so flat optima keep their grid point.
EXACT_OPTIMUM_MARGIN = 1e-12
# A grid point is scored only if its (theta, alpha - beta) screen value
# reaches the exact optimum's payoff less EXACT_OPTIMUM_MARGIN and this,
# which absorbs the screen's rounding (within 1e-14 in TestGridScreen); pinned by
# tests/test_analysis.py::TestGridScreen::test_screen_rounding_within_its_margin_keeps_the_tied_point.
GRID_SCREEN_MARGIN = 1e-12


def ne_strategy(n: int) -> StrategyParams:
    """The known symmetric equilibrium strategy M(pi/2, -pi/2n, pi/2n)."""
    return StrategyParams(math.pi / 2, -math.pi / (2 * n), math.pi / (2 * n))


def entangler_ne_strategy(n: int) -> StrategyParams:
    """Equilibrium strategy M(pi/2, -pi/4n, pi/4n) for the exponential
    entangler: shifting the GHZ equilibrium phases by pi/(4n) absorbs the
    state's relative phase i on |1...1>, so at gamma=pi/2 it reproduces
    the GHZ equilibrium payoff exactly."""
    return StrategyParams(math.pi / 2, -math.pi / (4 * n), math.pi / (4 * n))


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
    """Outcome of a best-response search for one player. `refinement_steps`
    is `_refinement_rounds` of the grid: see there."""

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
    """Each listed player's payoffs when deviating, from 2x2 Gram matrices:
    f * sum_r m_r G_kr m_r^dagger + mixed_floor for the k-th player (0-based
    k) at deviation rows m_0, m_1, with `gram` their (P, 2, 2, 2) array.
    Nothing here reads a state, so any engine that builds it can drive the
    search."""

    def __init__(self, gram: np.ndarray, f: float, mixed_floor: float):
        self._gram = gram
        self._f = f
        self._mixed_floor = mixed_floor
        # the screen's coefficients, each (P, 1): see `screen_w`
        g0, g1 = gram[:, 0], gram[:, 1]
        self._a = (g0[:, 0, 0] + g0[:, 1, 1] + g1[:, 0, 0] + g1[:, 1, 1]).real[:, None] / 2
        self._b = (g0[:, 0, 0] + g1[:, 1, 1] - g0[:, 1, 1] - g1[:, 0, 0]).real[:, None] / 2
        self._d = g0[:, 0, 1] - g1[:, 0, 1]

    def payoffs(self, k: int, thetas, alphas, betas) -> np.ndarray:
        """The k-th listed player's payoffs at the 1-D deviation arrays,
        `game.PAYOFF_CHUNK` deviations per einsum, read when the call runs."""
        payoffs = np.empty(len(thetas))
        for c in range(0, len(thetas), game.PAYOFF_CHUNK):
            cols = slice(c, c + game.PAYOFF_CHUNK)
            mats = _su2_batch(thetas[cols], alphas[cols], betas[cols])
            pure = np.einsum("grc,rcd,grd->g", mats, self._gram[k], mats.conj()).real
            np.multiply(self._f, pure, out=payoffs[cols])
        payoffs += self._mixed_floor
        return payoffs

    def exact_optima(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each listed player's exact best (theta, alpha, beta), (P, 3), and
        its payoff, (P,).

        Unitarity turns the pure payoff into Tr G_1 + m_0 (G_0 - G_1) m_0^dagger,
        which the top eigenvector x of G_0 - G_1 maximises as m_0 = x^dagger, at
        Tr G_1 + its eigenvalue. One stacked `eigh` serves every player, and
        whole-array `np.angle` and `%` give alpha and beta the scalar calls' bits.
        Theta stays on Python complexes, as numpy's `abs` and `arctan2` move its
        last bit. Pinned by
        tests/test_analysis.py::TestLockstepSearch::test_exact_optima_equal_the_scalar_steps_on_random_gram_forms.
        """
        vals, vecs = np.linalg.eigh(self._gram[:, 0] - self._gram[:, 1])
        top = vecs[:, :, -1]
        thetas = [2 * math.atan2(abs(x1), abs(x0)) for x0, x1 in top.tolist()]
        phases = (-np.angle(top) - [0, math.pi / 2] + math.pi) % (2 * math.pi) - math.pi
        pure = np.trace(self._gram[:, 1], axis1=1, axis2=2).real + vals[:, -1]
        return np.column_stack([thetas, phases]), self._f * pure + self._mixed_floor

    def screen_w(self, diffs) -> np.ndarray:
        """(P, len(diffs)): each listed player's w = Re(-i e^{i alpha} D) at
        every alpha in `diffs`. Expanding the Gram form, the pure payoff at
        (theta, alpha, 0) is a + b cos(theta) + sin(theta) w, with
        a = (G_000 + G_011 + G_100 + G_111)/2,
        b = (G_000 + G_111 - G_011 - G_100)/2 and D = G_001 - G_101.
        """
        d = self._d
        return np.multiply.outer(d.real, np.sin(diffs)) + np.multiply.outer(d.imag, np.cos(diffs))

    def screen(self, k, thetas, w) -> np.ndarray:
        """f (a + b cos(theta) + sin(theta) w) + mixed_floor for the listed
        players at `k` (an index or a slice), up to rounding. At each
        player's largest w, a (P, 1) column, it is each theta plane's
        maximum, since sin(theta) >= 0; at one theta and one player's row
        of w, it is that plane's row."""
        pure = self._a[k] + self._b[k] * np.cos(thetas) + np.sin(thetas) * w
        return self._f * pure + self._mixed_floor


def _dense_deviations(
    spec: GameSpec, candidate: StrategyProfile, players: Sequence[int]
) -> Tuple[_DeviationEvaluator, Callable[..., np.ndarray]]:
    """The listed players' evaluator on the dense engine, and the function
    that gives their reported payoffs.

    With the other players' unitaries applied, the k-th player's
    2 x 2^(n-1) block b_k has its qubit first, so player 1's minority mask
    serves every player: G_kr = (b_k * mask_r) b_k^dagger. The function
    scores each deviation's product with its block through `game._payoff`
    with player 1's indices; it holds the P blocks (P * 2^n amplitudes).
    """
    n = spec.n_players
    partials = [candidate.replace(player, IDENTITY) for player in players]
    rows = itertools.chain.from_iterable(final_amplitudes(spec, partials))
    blocks = np.empty((len(partials), 2, 2 ** (n - 1)), dtype=complex)
    for block, player, row in zip(blocks, players, rows):
        high = 2 ** (player - 1)  # the basis states of the qubits before the player's
        block.reshape(2, high, -1)[...] = row.reshape(high, 2, -1).transpose(1, 0, 2)
    mask = minority_mask(n, 1).reshape(2, -1)
    gram = np.array([(b * mask[:, None]) @ b.conj().T for b in blocks])
    winning = minority_projector(n, 1)
    f = spec.recipe.f

    def dense_payoffs(thetas, alphas, betas) -> np.ndarray:
        mats = _su2_batch(thetas.ravel(), alphas.ravel(), betas.ravel())
        mats = mats.reshape(len(thetas), -1, 2, 2)
        return np.array([
            [game._payoff(spec, row.ravel(), winning) for row in m @ block]
            for m, block in zip(mats, blocks)
        ])

    return _DeviationEvaluator(gram, f, (1 - f) * winning.size / 2**n), dense_payoffs


def _check_steps(name: str, steps) -> None:
    """Raise ValueError unless a step count is an int >= 2."""
    if not isinstance(steps, numbers.Integral) or steps < 2:
        raise ValueError(f"{name} must be an int >= 2, got {steps!r}")


_THETA_BOX = (0.0, math.pi)
_ANGLE_BOX = (-math.pi, math.pi)


def _best_deviations(ev: _DeviationEvaluator, steps: int) -> np.ndarray:
    """Each listed player's best deviation, a (P, 3) array: the grid's
    first maximum of `ev.payoffs` in ravel order, replaced by the exact
    optimum when that pays more by EXACT_OPTIMUM_MARGIN, bit for bit.

    The exact optima come first, so only the grid points whose screen, a
    closed form in theta and alpha - beta, reaches the floor below (see
    GRID_SCREEN_MARGIN) are scored: only a theta plane whose screen
    maximum reaches it has its (2g - 1) row read, and its survivors are
    scored in one `ev.payoffs` call per plane and player. Memory holds
    the P (3g - 1) screen values and one plane's survivors, up to g^2
    points, never the grid's g^3.
    """
    exact, exact_val = ev.exact_optima()
    thetas = np.linspace(*_THETA_BOX, steps)
    angles = np.linspace(*_ANGLE_BOX, steps)
    diffs = np.arange(1 - steps, steps) * (2 * math.pi / (steps - 1))
    w = ev.screen_w(diffs)
    planes = ev.screen(slice(None), thetas, w.max(axis=1, keepdims=True))
    floor = exact_val - (EXACT_OPTIMUM_MARGIN + GRID_SCREEN_MARGIN)
    survives = np.empty(diffs.size, dtype=bool)
    # entry (i, j) reads the screen column of (alpha_i, beta_j): i - j + steps - 1
    pairs = np.ndarray((steps, steps), bool, survives, steps - 1, (1, -1))

    best = np.zeros((len(planes), 3))
    best_val = np.full(len(planes), -math.inf)
    for k, t in zip(*np.nonzero(planes >= floor[:, None])):
        np.greater_equal(ev.screen(k, thetas[t], w[k]), floor[k], out=survives)
        i, j = np.nonzero(pairs)
        vals = ev.payoffs(k, np.full(i.size, thetas[t]), angles[i], angles[j])
        m = int(vals.argmax())
        if vals[m] > best_val[k]:  # strict: the first maximum wins across planes
            best_val[k] = vals[m]
            best[k] = thetas[t], angles[i[m]], angles[j[m]]
    better = exact_val > best_val + EXACT_OPTIMUM_MARGIN
    best[better] = exact[better]
    return best


def _refinement_rounds(steps: int) -> int:
    """The number of /5 rounds, by a coordinate refinement's float
    divisions, that take the widest grid step to REFINEMENT_MIN_STEP or
    below. Reports keep it as `refinement_steps`; no refinement runs."""
    step = (_ANGLE_BOX[1] - _ANGLE_BOX[0]) / (steps - 1)
    rounds = 0
    while step > REFINEMENT_MIN_STEP:
        step /= 5
        rounds += 1
    return rounds


def _best_responses(
    spec: GameSpec,
    candidate: StrategyProfile,
    players: Sequence[int],
    grid_resolution: int,
    tolerance: float,
) -> List[DeviationReport]:
    """One report per listed player, from one search that runs them in lockstep.

    Checks its arguments as `best_response` says. Each best deviation
    comes from `_best_deviations`, both reported payoffs from the dense
    product at their single point, and each report equals a search for
    that player alone, bit for bit (pinned by
    tests/test_analysis.py::TestLockstepSearch::test_reports_equal_the_per_player_search).
    """
    _check_steps("grid_resolution", grid_resolution)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tolerance!r}")
    ev, dense_payoffs = _dense_deviations(spec, candidate, players)

    best = _best_deviations(ev, grid_resolution)
    incumbents = [(s.theta, s.alpha, s.beta) for s in (candidate[p - 1] for p in players)]
    # (3, P, 2) angles: each player's incumbent, then its best deviation
    points = np.stack([incumbents, best], axis=2).transpose(1, 0, 2).copy()
    rounds = _refinement_rounds(grid_resolution)
    reports = []
    for player, deviation, (equilibrium_payoff, best_payoff) in zip(
        players, best.tolist(), dense_payoffs(*points).tolist()
    ):
        gain = best_payoff - equilibrium_payoff
        reports.append(DeviationReport(
            player=player,
            candidate=candidate,
            best_deviation=StrategyParams(*deviation),
            best_deviation_payoff=best_payoff,
            equilibrium_payoff=equilibrium_payoff,
            max_gain=gain,
            is_nash_within_tol=gain <= tolerance,
            grid_resolution=grid_resolution,
            refinement_steps=rounds,
        ))
    return reports


def best_response(
    spec: GameSpec,
    candidate: StrategyProfile,
    player: int,
    grid_resolution: int = 25,
    tolerance: float = NASH_TOLERANCE,
) -> DeviationReport:
    """Search the full (theta, alpha, beta) box for the player's best deviation.

    The one-player case of the lockstep search `_best_responses`. Raises
    ValueError unless grid_resolution is an int >= 2 and tolerance is
    finite and positive (the CLI's rule).
    """
    return _best_responses(spec, candidate, [player], grid_resolution, tolerance)[0]


def nash_check(
    spec: GameSpec,
    candidate: StrategyProfile,
    grid_resolution: int = 25,
    tolerance: float = NASH_TOLERANCE,
) -> List[DeviationReport]:
    """Best-response search for every player; NE iff no player gains.

    Players i and j are interchangeable when they hold equal strategies
    and their blocks (of the family's block size in `_FAMILIES`) hold the
    same multiset of strategies: a permutation within blocks and a swap
    of whole blocks then takes i to j and fixes the profile, the state
    and the noise floor, and the minority payoff is symmetric under
    relabelling the players. One lockstep `_best_responses` search, which
    validates grid_resolution and tolerance as `best_response` does, runs
    the first player of each class; every other member gets that report
    with `player` set.
    """
    block = _FAMILIES[spec.recipe.family][0]
    keys = [(s.theta, s.alpha, s.beta) for s in candidate.strategies]
    blocks = [tuple(sorted(keys[b : b + block])) for b in range(0, len(keys), block)]
    firsts = {}  # class key -> the class's first player
    leads = [firsts.setdefault((key, blocks[p // block]), p + 1) for p, key in enumerate(keys)]
    searched = _best_responses(spec, candidate, list(firsts.values()), grid_resolution, tolerance)
    reports = {report.player: report for report in searched}
    return [
        reports[lead] if lead == player else replace(reports[lead], player=player)
        for player, lead in enumerate(leads, 1)
    ]


def payoff_surface(
    spec: GameSpec, theta_steps: int = 25, alpha_steps: int = 25
) -> List[SweepRow]:
    """Player 1 payoff when everyone plays M(theta, alpha, -alpha) on a grid."""
    _check_steps("theta_steps", theta_steps)
    _check_steps("alpha_steps", alpha_steps)
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
    _check_steps("steps", steps)
    return [float(v) for v in np.linspace(0.0, stop, steps)]


def _ne_row(sim: float, analytic: Optional[float], **axes: float) -> SweepRow:
    """Simulated equilibrium payoff at one sweep point, beside its formula."""
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
        _ne_payoff(mixture_recipe(n, x, f)),
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
    """Simulated entangler payoff vs the conjectured formula across gamma;
    the conjecture is reported, not asserted (only the endpoints agree).
    The axis ends at pi/2 exactly, so a quantum endpoint not given is the
    last point's simulated payoff, as `conjecture_endpoints` would build it."""
    gammas = _sweep_axis(math.pi / 2, steps)
    sims = [_ne_payoff(entangler_recipe(n, gamma)) for gamma in gammas]
    payoff_classical, payoff_quantum = conjecture_endpoints(
        n, payoff_classical, sims[-1] if payoff_quantum is None else payoff_quantum
    )
    return [
        _ne_row(sim, conjecture_eq14(gamma, payoff_classical, payoff_quantum), gamma=gamma)
        for gamma, sim in zip(gammas, sims)
    ]
