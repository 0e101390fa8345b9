"""Reference paths the package's fast paths are tested against.

The package simulates only the pure part of a noisy start
f|psi><psi| + (1-f)I/2^n and adds the identity part as an exact floor.
This module evolves the full 2^n x 2^n density matrix instead, so the
tests can check that split against a brute-force computation. It also
holds the per-outcome minority rule that `game.minority_mask` is pinned
to, and the per-qubit apply that `core.apply_locals` matches bit for bit,
with `final_state`, its loop over the players, as the reference for
`game.final_amplitudes`. `best_response_per_player` is the reference
for `analysis.best_response`: one player's search on its own, from the
exhaustive grid over all g^3 points, and `nash_check_per_player`, which
runs it for every player, is the reference for `analysis.nash_check`.
`exact_optimum` takes one player's exact best deviation from its Gram
form in scalar steps, wrapping alpha and beta into [-pi, pi) with
`_wrap_angle`: the reference that `analysis._DeviationEvaluator.exact_optima`,
which takes every player's in whole-array steps, matches bit for bit.
A pure state here is what `states.build_pure` returns: a read-only,
norm-checked array of 2^n amplitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

import numpy as np

from qmg.core import _check_qubit_count, _check_unit_rows
from qmg.analysis import (
    _ANGLE_BOX,
    _THETA_BOX,
    EXACT_OPTIMUM_MARGIN,
    NASH_TOLERANCE,
    REFINEMENT_MIN_STEP,
    DeviationReport,
    _su2_batch,
)
from qmg.game import (
    IDENTITY,
    GameSpec,
    StrategyParams,
    StrategyProfile,
    final_amplitudes,
    minority_mask,
    minority_projector,
    strategy_unitary,
)
from qmg.states import InitialStateRecipe, build_pure


def minority_winners(outcome: int, n_players: int) -> frozenset:
    """1-based players in the strict minority of a basis outcome.

    Ties (even N split) and unanimity leave everyone empty-handed.
    """
    if n_players < 2:
        raise ValueError("need at least 2 players")
    if not 0 <= outcome < 2**n_players:
        raise ValueError(f"outcome {outcome} out of range for {n_players} players")
    ones = outcome.bit_count()
    if 0 < ones < n_players / 2:
        winning_bit = 1
    elif n_players / 2 < ones < n_players:
        winning_bit = 0
    else:
        return frozenset()
    return frozenset(
        p
        for p in range(1, n_players + 1)
        if (outcome >> (n_players - p)) & 1 == winning_bit
    )


def qubit_count(amps: np.ndarray) -> int:
    """n for a vector of 2^n amplitudes."""
    n = len(amps).bit_length() - 1
    if len(amps) != 2**n:
        raise ValueError(f"{len(amps)} amplitudes is no power of 2")
    return n


def pure_state(amps) -> np.ndarray:
    """A read-only copy of a unit-norm amplitude vector, checked as build_pure checks."""
    amps = np.array(amps, dtype=complex)
    _check_qubit_count(qubit_count(amps))
    _check_unit_rows(amps[None])
    amps.setflags(write=False)
    return amps


def normalized(amps) -> np.ndarray:
    """`pure_state` of an amplitude vector divided by its norm."""
    amps = np.asarray(amps, dtype=complex)
    return pure_state(amps / np.linalg.norm(amps))


def _check_qubit_index(n_qubits: int, qubit_index: int) -> None:
    if not 0 <= qubit_index < n_qubits:
        raise IndexError(
            f"qubit index {qubit_index} out of range for {n_qubits} qubits"
        )


def apply_local(state: np.ndarray, u: np.ndarray, qubit_index: int) -> np.ndarray:
    """Apply the (2, 2) u to one qubit of a pure state, validating the result."""
    n = qubit_count(state)
    _check_qubit_index(n, qubit_index)
    psi = np.moveaxis(state.reshape([2] * n), qubit_index, 0).reshape(2, -1)
    amps = np.moveaxis((u @ psi).reshape([2] * n), 0, qubit_index)
    return pure_state(amps.reshape(-1))


def final_state(initial: np.ndarray, profile: StrategyProfile) -> np.ndarray:
    """Apply every player's strategy unitary to their own qubit, in turn."""
    if len(profile) != qubit_count(initial):
        raise ValueError(
            f"profile has {len(profile)} strategies for {len(initial)} amplitudes"
        )
    state = initial
    for qubit, params in enumerate(profile.strategies):
        state = apply_local(state, strategy_unitary(params), qubit)
    return state


@dataclass(frozen=True)
class MixedState:
    """Hermitian, unit-trace density matrix over the 2^n basis."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n_qubits)
        dim = 2**self.n_qubits
        rho = np.array(self.matrix, dtype=complex)
        if rho.shape != (dim, dim) or not np.all(np.isfinite(rho)):
            raise ValueError(f"expected a finite ({dim}, {dim}) matrix")
        rho.setflags(write=False)
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("density matrix not Hermitian")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-9:
            raise ValueError(f"density matrix trace {tr} != 1")
        object.__setattr__(self, "matrix", rho)

    @classmethod
    def from_pure(cls, state: np.ndarray) -> "MixedState":
        return cls(qubit_count(state), np.outer(state, state.conj()))

    def diagonal(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))


def apply_local_mixed(state: MixedState, u: np.ndarray, qubit_index: int) -> MixedState:
    """Conjugate a density matrix by a single-qubit unitary: rho -> U rho U†."""
    n = state.n_qubits
    _check_qubit_index(n, qubit_index)
    rho = state.matrix.reshape([2] * (2 * n))
    rho = np.moveaxis(rho, (qubit_index, n + qubit_index), (0, 1)).reshape(2, 2, -1)
    rho = np.einsum("ab,bdx,cd->acx", u, rho, u.conj())
    rho = np.moveaxis(rho.reshape([2] * (2 * n)), (0, 1), (qubit_index, n + qubit_index))
    return MixedState(n, rho.reshape(2**n, 2**n))


def make_noisy(state: np.ndarray, f: float) -> MixedState:
    """f |psi><psi| + (1-f)/2^n * I."""
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"f must be in [0, 1], got {f}")
    dim = len(state)
    rho = f * np.outer(state, state.conj())
    rho += (1 - f) / dim * np.eye(dim)
    return MixedState(qubit_count(state), rho)


def build_initial(recipe: InitialStateRecipe) -> Union[np.ndarray, MixedState]:
    """Dispatch a recipe to its constructor; mixed only when f < 1."""
    psi = build_pure(recipe)
    if recipe.f < 1.0:
        return make_noisy(psi, recipe.f)
    return psi


def dense_final_state(rho: MixedState, profile: StrategyProfile) -> MixedState:
    """Conjugate rho by every player's strategy unitary on their own qubit."""
    for qubit, params in enumerate(profile.strategies):
        rho = apply_local_mixed(rho, strategy_unitary(params), qubit)
    return rho


def dense_expectation(rho: MixedState, indices: Iterable[int]) -> float:
    """Tr[rho P] for the diagonal projector onto the given basis indices."""
    return float(np.sum(rho.diagonal()[np.fromiter(indices, dtype=np.intp)]))


class PlayerEvaluator:
    """Payoffs of one player deviating while the rest stay fixed.

    The other players' unitaries are applied once up front, leaving the
    2 x 2^(n-1) block b with the deviator's qubit first. For a deviation
    with rows m_0, m_1 the pure payoff is sum_r m_r G_r m_r^dagger with
    the 2x2 Gram matrices G_r = (b * mask_r) b^dagger, so each candidate
    costs O(1) once G is built; the noise floor stays affine on top.
    """

    def __init__(self, spec: GameSpec, candidate: StrategyProfile, player: int):
        n = spec.n_players
        partial = next(final_amplitudes(spec, [candidate.replace(player, IDENTITY)]))[0]
        q = player - 1
        self._block = np.moveaxis(partial.reshape([2] * n), q, 0).reshape(2, -1)
        mask = minority_mask(n, player)
        rows = np.moveaxis(mask.reshape([2] * n), q, 0).reshape(2, -1)
        self._gram = np.stack([(self._block * r) @ self._block.conj().T for r in rows])
        self._f = spec.recipe.f
        self._mixed_floor = (1 - self._f) * np.count_nonzero(mask) / 2**n
        # the block's layout puts the deviator's qubit first, where player
        # 1's qubit is, so player 1's winning indices select its wins
        self._winning = minority_projector(n, 1)

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
        """Payoff at one deviation from the full 2 x 2^(n-1) product,
        summed in `minority_projector`'s order as every payoff is."""
        m = _su2_batch(np.array([theta]), np.array([alpha]), np.array([beta]))[0]
        probs = np.abs(m @ self._block).ravel() ** 2
        return float(self._f * np.sum(probs[self._winning]) + self._mixed_floor)

    def exact_optimum(self) -> np.ndarray:
        """(theta, alpha, beta) of the exact best deviation: `exact_optimum`
        of this player's Gram form."""
        return exact_optimum(self._gram)


def _wrap_angle(v: float) -> float:
    """The same angle in [-pi, pi)."""
    return (v + math.pi) % (2 * math.pi) - math.pi


def exact_optimum(gram: np.ndarray) -> np.ndarray:
    """(theta, alpha, beta) of the exact best deviation for one (2, 2, 2)
    Gram form, in scalar steps.

    Unitarity turns the pure payoff into Tr G_1 + m_0 (G_0 - G_1)
    m_0^dagger, which the top eigenvector x of G_0 - G_1 maximises
    as m_0 = x^dagger.
    """
    _, vecs = np.linalg.eigh(gram[0] - gram[1])
    x0, x1 = vecs[:, -1]
    theta = 2 * math.atan2(abs(x1), abs(x0))
    alpha = -np.angle(x0)
    beta = -np.angle(x1) - math.pi / 2
    return np.array([theta, _wrap_angle(alpha), _wrap_angle(beta)])


def grid_argmax(ev: PlayerEvaluator, steps: int) -> Tuple[np.ndarray, float]:
    """First maximum of `ev.payoffs` over all g^3 (theta, alpha, beta)
    grid points, in ravel order: the exhaustive grid search."""
    thetas = np.linspace(*_THETA_BOX, steps)
    angles = np.linspace(*_ANGLE_BOX, steps)
    points = np.stack([g.ravel() for g in np.meshgrid(thetas, angles, angles, indexing="ij")])
    vals = ev.payoffs(*points)
    k = int(np.argmax(vals))
    return points[:, k], float(vals[k])


def best_response_per_player(
    spec: GameSpec,
    candidate: StrategyProfile,
    player: int,
    grid_resolution: int = 25,
    tolerance: float = NASH_TOLERANCE,
) -> DeviationReport:
    """One player's best-response search on its own.

    `grid_argmax` scores every grid point, and the exact optimum from the
    top eigenvector replaces the grid's first maximum if it pays more by
    EXACT_OPTIMUM_MARGIN, both on the 2x2 Gram form. Both reported
    payoffs come from the dense product at their single point.
    `refinement_steps` counts, for the table, the rounds a
    three-coordinate refinement would take: each round divides every
    coordinate's step by 5, until every step is at most 1e-6.
    """
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be >= 2")
    ev = PlayerEvaluator(spec, candidate, player)
    inc = candidate[player - 1]
    equilibrium_payoff = ev.dense_payoff(inc.theta, inc.alpha, inc.beta)

    best, best_val = grid_argmax(ev, grid_resolution)

    boxes = (_THETA_BOX, _ANGLE_BOX, _ANGLE_BOX)
    steps = np.array([b[1] - b[0] for b in boxes]) / (grid_resolution - 1)
    rounds = 0
    while steps.max() > REFINEMENT_MIN_STEP:
        rounds += 1
        steps /= 5
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


def nash_check_per_player(
    spec: GameSpec,
    candidate: StrategyProfile,
    grid_resolution: int = 25,
    tolerance: float = NASH_TOLERANCE,
) -> List[DeviationReport]:
    """`analysis.nash_check` without its classes of interchangeable players
    or the lockstep search: every player searched on its own by
    `best_response_per_player`."""
    return [
        best_response_per_player(spec, candidate, player, grid_resolution, tolerance)
        for player in range(1, spec.n_players + 1)
    ]
