import collections
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    PlayerEvaluator,
    best_response_per_player,
    exact_optimum,
    final_state,
    minority_winners,
    nash_check_per_player,
)
from paper_checks import (
    ParetoResult,
    bell_equilibrium_gain,
    pareto_compare,
    payoff_formula_eq8,
)
from qmg import analysis, game, structured
from qmg.analysis import (
    NASH_TOLERANCE,
    DeviationReport,
    best_response,
    conjecture_endpoints,
    conjecture_eq14,
    entangler_ne_strategy,
    nash_check,
    ne_strategy,
    payoff_formula_eq9,
    payoff_surface,
    sweep_f,
    sweep_gamma,
    sweep_x,
    _DeviationEvaluator,
    _dense_deviations,
)
from qmg.core import apply_locals
from qmg.game import (
    IDENTITY,
    GameSpec,
    StrategyParams,
    StrategyProfile,
    classical_payoff,
    expected_payoff,
)
from qmg.states import InitialStateRecipe, StateFamily, build_pure

PI = math.pi


def ghz_spec(n):
    return GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))


class TestFormulas:
    def test_eq8_values(self):
        assert payoff_formula_eq8(1.0) == 5 / 16
        assert payoff_formula_eq8(0.0) == 0.25
        assert abs(payoff_formula_eq8(0.5) - 17 / 64) < 1e-15

    def test_eq9_values(self):
        assert payoff_formula_eq9(1.0, 1.0) == 5 / 16
        for x in (0.0, 0.3, 1.0):
            assert payoff_formula_eq9(x, 0.0) == 3 / 16
        assert abs(payoff_formula_eq9(0.0, 0.5) - 7 / 32) < 1e-15

    def test_eq8_eq9_consistent_at_full_fidelity(self):
        for x in np.linspace(0, 1, 11):
            assert abs(payoff_formula_eq8(x) - payoff_formula_eq9(x, 1.0)) < 1e-15

    def test_domains(self):
        with pytest.raises(ValueError):
            payoff_formula_eq8(1.5)
        with pytest.raises(ValueError):
            payoff_formula_eq9(0.5, -0.1)
        with pytest.raises(ValueError, match=re.escape("x must be in [0, 1], got 1.5")):
            payoff_formula_eq9(1.5, 1.0)
        with pytest.raises(ValueError, match=re.escape("gamma must be in [0, pi/2], got 2.0")):
            conjecture_eq14(2.0, 0.1875, 0.3125)
        with pytest.raises(ValueError,
                           match=re.escape("payoff_classical must be in [0, 1], got 1.5")):
            conjecture_eq14(0.0, 1.5, 0.3125)

    def test_conjecture_limits(self):
        c, q = 3 / 16, 5 / 16
        assert abs(conjecture_eq14(0.0, c, q) - c) < 1e-15
        assert abs(conjecture_eq14(PI / 2, c, q) - q) < 1e-15

    def test_conjecture_interior_matches_simulation(self):
        # entangler NE payoff at gamma=pi/3 agrees with the formula
        gamma = PI / 3
        spec = GameSpec(
            6, InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 6, gamma=gamma)
        )
        sim = expected_payoff(
            spec, StrategyProfile.symmetric(entangler_ne_strategy(6), 6), 1
        )
        assert abs(sim - conjecture_eq14(gamma, 3 / 16, 5 / 16)) < 1e-9


class TestPareto:
    def test_w3_dominates_ghz_equilibrium(self):
        a = [1 / 3] * 6
        b = [5 / 16] * 6
        assert pareto_compare(a, b) is ParetoResult.A_DOMINATES

    def test_equal(self):
        assert pareto_compare([0.1, 0.2], [0.1, 0.2]) is ParetoResult.EQUAL

    def test_incomparable(self):
        assert pareto_compare([0.3, 0.1], [0.2, 0.2]) is ParetoResult.INCOMPARABLE

    def test_antisymmetry(self):
        a, b = [0.4, 0.5], [0.3, 0.5]
        assert pareto_compare(a, b) is ParetoResult.A_DOMINATES
        assert pareto_compare(b, a) is ParetoResult.B_DOMINATES

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pareto_compare([1.0], [1.0, 2.0])


class TestBestResponse:
    def test_ghz6_equilibrium_has_no_profitable_deviation(self):
        candidate = StrategyProfile.symmetric(ne_strategy(6), 6)
        report = best_response(ghz_spec(6), candidate, 1, grid_resolution=15)
        assert abs(report.equilibrium_payoff - 5 / 16) < 1e-9
        assert report.max_gain <= 1e-6

    def test_unentangled_best_response_is_classical(self):
        spec = GameSpec(
            6, InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 6, gamma=0.0)
        )
        candidate = StrategyProfile.symmetric(StrategyParams(PI / 2, 0, 0), 6)
        report = best_response(spec, candidate, 1, grid_resolution=9)
        assert abs(report.best_deviation_payoff - float(classical_payoff(6))) < 1e-6

    def test_single_player_slice_closed_form(self):
        # others at identity on |0000>: deviator wins only on |1000>,
        # with probability sin^2(theta/2), maximized at theta=pi
        spec = GameSpec(
            4, InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 4, gamma=0.0)
        )
        candidate = StrategyProfile.symmetric(IDENTITY, 4)
        report = best_response(spec, candidate, 1, grid_resolution=9)
        assert abs(report.best_deviation_payoff - 1.0) < 1e-9
        assert abs(report.best_deviation.theta - PI) < 1e-4

    def test_refinement_never_below_incumbent_payoff(self):
        report = best_response(
            ghz_spec(6), StrategyProfile.symmetric(ne_strategy(6), 6), 2
        )
        assert report.best_deviation_payoff >= report.equilibrium_payoff - 1e-12
        assert report.refinement_steps > 0

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            best_response(ghz_spec(6), StrategyProfile.symmetric(ne_strategy(6), 6), 1, 1)

    @pytest.mark.parametrize("grid", [1, 0, -3, 2.5, 25.0, True, "25"])
    def test_rejects_grid_that_is_not_an_int_of_at_least_two(self, grid):
        candidate = StrategyProfile.symmetric(ne_strategy(4), 4)
        with pytest.raises(ValueError, match="grid_resolution"):
            best_response(ghz_spec(4), candidate, 1, grid)
        with pytest.raises(ValueError, match="grid_resolution"):
            nash_check(ghz_spec(4), candidate, grid)

    @pytest.mark.parametrize("tolerance", [math.inf, -math.inf, math.nan, 0.0, -1e-4])
    def test_rejects_tolerance_that_is_not_finite_and_positive(self, tolerance):
        # with inf the identity profile on GHZ-4 passed as Nash at max_gain 1.0;
        # with nan no profile was ever Nash
        candidate = StrategyProfile.symmetric(IDENTITY, 4)
        with pytest.raises(ValueError, match="tolerance"):
            nash_check(ghz_spec(4), candidate, 3, tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            best_response(ghz_spec(4), candidate, 1, 3, tolerance)

    def test_numpy_int_grid_is_accepted(self):
        candidate = StrategyProfile.symmetric(ne_strategy(4), 4)
        assert best_response(ghz_spec(4), candidate, 1, np.int64(3)) == best_response(
            ghz_spec(4), candidate, 1, 3
        )


class TestNashCheck:
    def test_ghz6_candidate_is_nash(self):
        reports = nash_check(
            ghz_spec(6), StrategyProfile.symmetric(ne_strategy(6), 6), 9, 1e-4
        )
        assert len(reports) == 6
        assert all(r.is_nash_within_tol for r in reports)

    def test_mixture_candidate_is_nash(self):
        spec = GameSpec(6, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.3))
        reports = nash_check(
            spec, StrategyProfile.symmetric(ne_strategy(6), 6), 9, 1e-4
        )
        assert all(r.is_nash_within_tol for r in reports)

    def test_identity_profile_is_not_nash(self):
        reports = nash_check(
            ghz_spec(6), StrategyProfile.symmetric(IDENTITY, 6), 9, 1e-4
        )
        assert not any(r.is_nash_within_tol for r in reports)
        assert max(r.max_gain for r in reports) > 0.1

    def test_initial_state_is_built_once(self, monkeypatch):
        calls = []

        def counted(recipe):
            calls.append(recipe)
            return build_pure(recipe)

        monkeypatch.setattr(game, "build_pure", counted)
        game._initial_state.cache_clear()
        nash_check(ghz_spec(6), StrategyProfile.symmetric(ne_strategy(6), 6), 3, 1e-4)
        assert len(calls) == 1

    def test_report_invariants(self):
        reports = nash_check(
            ghz_spec(6), StrategyProfile.symmetric(ne_strategy(6), 6), 5, 1e-4
        )
        for r in reports:
            assert isinstance(r, DeviationReport)
            assert abs(
                r.max_gain - (r.best_deviation_payoff - r.equilibrium_payoff)
            ) < 1e-15
            assert r.is_nash_within_tol == (r.max_gain <= 1e-4)


class TestBellEquilibrium:
    """`bell_equilibrium_gain`, the 2x2 reduction of the Bell product's
    check at `ne_strategy(N)`, against the dense search."""

    @pytest.mark.parametrize("n", range(4, 13, 2))
    def test_the_dense_search_finds_its_gain_for_every_player(self, n):
        spec = GameSpec(n, InitialStateRecipe(StateFamily.BELL_PRODUCT, n))
        reports = nash_check(spec, StrategyProfile.symmetric(ne_strategy(n), n))
        want = bell_equilibrium_gain(n)
        assert [r.player for r in reports] == list(range(1, n + 1))
        for r in reports:
            assert abs(r.max_gain - want) <= 1e-12, r.player


class TestSurface:
    def test_n4_ghz_maximum_near_known_equilibrium(self):
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 4))
        rows = payoff_surface(spec, theta_steps=17, alpha_steps=17)
        best = max(rows, key=lambda r: r.payoff_simulated)
        at_ne = expected_payoff(
            spec,
            StrategyProfile.symmetric(StrategyParams(PI / 2, -PI / 8, PI / 8), 4),
            1,
        )
        # the 17-point grid hits theta=pi/2 and alpha=-pi/8 exactly
        assert abs(best.theta - PI / 2) < 1e-12
        assert abs(best.payoff_simulated - at_ne) < 1e-12

    def test_bell_product_surface_capped_at_classical(self):
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 4, x=0.0))
        rows = payoff_surface(spec, theta_steps=21, alpha_steps=21)
        assert max(r.payoff_simulated for r in rows) <= 1 / 8 + 1e-6

    def test_theta_zero_row_constant_in_alpha(self):
        for family, kwargs in [
            (StateFamily.GHZ, {}),
            (StateFamily.GHZ_BELL_MIXTURE, {"x": 0.5}),
            (StateFamily.W3_PRODUCT, {}),
            (StateFamily.EXPONENTIAL_ENTANGLER, {"gamma": 1.0}),
        ]:
            spec = GameSpec(6, InitialStateRecipe(family, 6, **kwargs))
            rows = [r for r in payoff_surface(spec, 5, 9) if r.theta == 0.0]
            values = [r.payoff_simulated for r in rows]
            assert max(values) - min(values) < 1e-12

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            payoff_surface(ghz_spec(6), 1, 5)

    @pytest.mark.parametrize(
        "steps, name", [((3.0, 3), "theta_steps"), ((3, 2.5), "alpha_steps")]
    )
    def test_rejects_float_steps(self, steps, name):
        with pytest.raises(ValueError, match=f"{name} must be an int >= 2, got"):
            payoff_surface(ghz_spec(4), *steps)


class TestSweeps:
    def test_sweep_x_matches_eq8(self):
        rows = sweep_x(n=6, f=1.0, steps=11)
        assert len(rows) == 11
        assert max(r.abs_error for r in rows) < 1e-9

    def test_sweep_f_matches_eq9(self):
        rows = sweep_f(n=6, x=1.0, steps=11)
        assert max(r.abs_error for r in rows) < 1e-9
        assert abs(rows[0].payoff_simulated - 3 / 16) < 1e-9

    def test_sweep_f_builds_its_state_once(self, monkeypatch):
        # build_pure never reads f, so the memo ignores it
        calls = []

        def counted(recipe):
            calls.append(recipe)
            return build_pure(recipe)

        monkeypatch.setattr(game, "build_pure", counted)
        game._initial_state.cache_clear()
        rows = sweep_f(n=6, x=0.5, steps=11)
        assert len(rows) == 11 and len(calls) == 1
        assert calls[0].f == 1.0

    def test_sweep_f_runs_the_kernel_once(self, monkeypatch):
        # nothing before the payoff reads f, so the memoised amplitude
        # row is keyed on the recipe's other fields and every point of the
        # sweep reads it; N = 6 stays on the dense engine
        calls = []

        def counted(columns, spread, unitaries, *args):
            calls.append(len(unitaries))
            return apply_locals(columns, spread, unitaries, *args)

        monkeypatch.setattr(game, "apply_locals", counted)
        game._evaluation.cache_clear()
        rows = sweep_f(n=6, x=0.5, steps=11)
        assert len(rows) == 11 and calls == [1]

    def test_sweep_f_evaluates_the_structured_payoff_once(self, monkeypatch):
        # at N = 12 every f reads one structured payoff, and no kernel runs
        calls = []
        symmetric_payoffs = structured.symmetric_payoffs

        def counted(recipe, unitaries, budget):
            calls.append(len(unitaries))
            return symmetric_payoffs(recipe, unitaries, budget)

        monkeypatch.setattr(structured, "symmetric_payoffs", counted)
        monkeypatch.setattr(game, "apply_locals", None)
        game._evaluation.cache_clear()
        rows = sweep_f(n=12, x=0.5, steps=11)
        assert len(rows) == 11 and calls == [1]

    def test_sweep_gamma_endpoints(self):
        rows = sweep_gamma(n=6, steps=11, payoff_classical=3 / 16, payoff_quantum=5 / 16)
        assert abs(rows[0].payoff_simulated - 3 / 16) < 1e-9
        assert abs(rows[-1].payoff_simulated - 5 / 16) < 1e-9
        assert rows[0].abs_error < 1e-9
        assert rows[-1].abs_error < 1e-9

    def test_sweep_gamma_defaults(self):
        rows = sweep_gamma(n=6, steps=3)
        assert abs(rows[-1].payoff_analytic - 5 / 16) < 1e-9

    @pytest.mark.parametrize("n, steps", [(4, 2), (6, 11), (12, 11)])
    def test_sweep_gamma_builds_one_state_per_point(self, monkeypatch, n, steps):
        # the quantum endpoint is the last point's payoff, not a second
        # build; from STRUCTURED_MIN_N up no point builds a state
        calls = []

        def counted(recipe):
            calls.append(recipe)
            return build_pure(recipe)

        monkeypatch.setattr(game, "build_pure", counted)
        game._initial_state.cache_clear()
        game._evaluation.cache_clear()
        rows = sweep_gamma(n, steps)
        assert len(rows) == steps
        assert len(calls) == (steps if n < game.STRUCTURED_MIN_N else 0)

    def test_rejects_tiny_sweeps(self):
        with pytest.raises(ValueError):
            sweep_x(steps=1)

    @pytest.mark.parametrize("sweep", [sweep_x, sweep_f, sweep_gamma])
    @pytest.mark.parametrize("steps", [2.5, 3.0])
    def test_rejects_float_steps(self, sweep, steps):
        with pytest.raises(ValueError, match=f"steps must be an int >= 2, got {steps}"):
            sweep(6, steps=steps)

    def test_conjecture_endpoints_beyond_max_qubits(self):
        # the simulated default needs a 2^30 state; a given one needs none
        with pytest.raises(ValueError, match="n_qubits"):
            conjecture_endpoints(30)
        assert conjecture_endpoints(30, payoff_quantum=0.4) == (
            float(classical_payoff(30)),
            0.4,
        )


class TestFalseNashRegression:
    # A grid search can stall here at the incumbent's own payoff
    # 0.323760145581752, giving max_gain 0 and a false Nash verdict.
    PROFILE = StrategyProfile(
        tuple(
            StrategyParams(*t)
            for t in [
                (0.574, 2.9633, 2.4988),
                (0, -PI, -PI),
                (2.6161, 0.9572, -1.5799),
                (2.9351, -0.3789, 1.7188),
                (1.5737, -1.9895, -1.2822),
                (1.8046, -2.2431, -3.0553),
            ]
        )
    )

    def test_exact_best_response_finds_the_gain(self):
        report = best_response(ghz_spec(6), self.PROFILE, 2, grid_resolution=25)
        assert abs(report.equilibrium_payoff - 0.323760145581752) < 1e-12
        assert abs(report.best_deviation_payoff - 0.3239089391090645) < 1e-12
        assert abs(report.max_gain - 1.488e-4) < 1e-7
        assert report.max_gain > NASH_TOLERANCE
        assert not report.is_nash_within_tol


def _recipes(max_n=6):
    """Every family at n <= max_n, with noise f < 1 on the mixture."""
    even = list(range(2, max_n + 1, 2))
    return st.one_of(
        st.builds(InitialStateRecipe, st.just(StateFamily.GHZ), st.integers(2, max_n)),
        st.builds(
            InitialStateRecipe,
            st.just(StateFamily.BELL_PRODUCT),
            st.sampled_from(even),
        ),
        st.builds(
            InitialStateRecipe,
            st.just(StateFamily.GHZ_BELL_MIXTURE),
            st.sampled_from(even),
            x=st.floats(0, 1, allow_nan=False),
            f=st.floats(0, 0.99, allow_nan=False),
        ),
        st.builds(
            InitialStateRecipe,
            st.just(StateFamily.EXPONENTIAL_ENTANGLER),
            st.integers(2, max_n),
            gamma=st.floats(0, PI / 2, allow_nan=False),
        ),
        st.builds(
            InitialStateRecipe,
            st.just(StateFamily.W3_PRODUCT),
            st.sampled_from(list(range(3, max_n + 1, 3))),
        ),
    )


def _random_points(rng, size):
    return (
        rng.uniform(0, PI, size),
        rng.uniform(-PI, PI, size),
        rng.uniform(-PI, PI, size),
    )


@st.composite
def _deviation_cases(draw, max_n=6):
    """(spec, random candidate profile, deviating player, numpy rng)."""
    recipe = draw(_recipes(max_n))
    n = recipe.n_qubits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    profile = StrategyProfile(
        tuple(StrategyParams(*map(float, t)) for t in zip(*_random_points(rng, n)))
    )
    player = draw(st.integers(1, n))
    return GameSpec(n, recipe), profile, player, rng


def _exact_best_payoff(spec, profile, player):
    """Top of f * (Tr G_1 + m_0 (G_0 - G_1) m_0^dagger) + floor over unit m_0.

    Built from the dense final state and the per-outcome minority rule,
    apart from the evaluator under test.
    """
    n = spec.n_players
    psi = final_state(build_pure(spec.recipe), profile.replace(player, IDENTITY))
    block = np.moveaxis(psi.reshape([2] * n), player - 1, 0).reshape(2, -1)
    mask = np.array([player in minority_winners(b, n) for b in range(2**n)])
    rows = np.moveaxis(mask.reshape([2] * n), player - 1, 0).reshape(2, -1)
    g0, g1 = ((block * r) @ block.conj().T for r in rows)
    pure = np.trace(g1).real + np.linalg.eigvalsh(g0 - g1)[-1]
    f = spec.recipe.f
    return f * pure + (1 - f) * np.count_nonzero(mask) / 2**n


def _players_points(rng, n_players, size):
    """(3, P, size) random deviations, `size` per player."""
    return np.reshape(_random_points(rng, n_players * size), (3, n_players, size))


class TestGramFormAgainstDenseOracle:
    @given(_deviation_cases())
    @settings(max_examples=60, deadline=None)
    def test_gram_payoffs_match_dense_product(self, case):
        # every player at once, each at its own deviations
        spec, profile, _, rng = case
        ev, dense_payoffs = _dense_deviations(spec, profile, range(1, spec.n_players + 1))
        points = _players_points(rng, spec.n_players, 16)
        gram = np.array([ev.payoffs(k, *points[:, k]) for k in range(spec.n_players)])
        dense = dense_payoffs(*points)
        assert gram.shape == dense.shape == (spec.n_players, 16)
        assert np.max(np.abs(gram - dense)) < 1e-12

    @given(_deviation_cases())
    @settings(max_examples=30, deadline=None)
    def test_best_deviation_beats_brute_dense_grid(self, case):
        spec, profile, player, _ = case
        report = best_response(spec, profile, player, grid_resolution=3)
        _, dense_payoffs = _dense_deviations(spec, profile, [player])
        thetas = np.linspace(0, PI, 9)
        angles = np.linspace(-PI, PI, 9)
        grid = np.meshgrid(thetas, angles, angles, indexing="ij")
        brute = dense_payoffs(*(axis.reshape(1, -1) for axis in grid)).max()
        assert report.best_deviation_payoff >= brute - 1e-12

    @given(_deviation_cases())
    @settings(max_examples=40, deadline=None)
    def test_best_deviation_payoff_is_its_expected_payoff(self, case):
        spec, profile, player, _ = case
        report = best_response(spec, profile, player, grid_resolution=3)
        replayed = expected_payoff(
            spec, profile.replace(player, report.best_deviation), player
        )
        assert abs(report.best_deviation_payoff - replayed) < 1e-12

    @given(_deviation_cases())
    @settings(max_examples=40, deadline=None)
    def test_best_deviation_is_the_exact_optimum(self, case):
        # a 3-point grid alone misses the optimum by up to 0.05 here
        spec, profile, player, _ = case
        report = best_response(spec, profile, player, grid_resolution=3)
        exact = _exact_best_payoff(spec, profile, player)
        assert abs(report.best_deviation_payoff - exact) < 1e-12

    @given(_deviation_cases(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_exact_optimum_value_is_the_payoff_at_its_point(self, case):
        # every family, the mixture at f < 1: the eigenvalue's payoff
        # against the independent dense optimum and the Gram-form einsum
        spec, profile, _, _ = case
        ev = _all_players(spec, profile)
        points, values = ev.exact_optima()
        assert points.shape == (spec.n_players, 3) and values.shape == (spec.n_players,)
        for k, (point, value) in enumerate(zip(points, values)):
            assert abs(value - _exact_best_payoff(spec, profile, k + 1)) < 1e-12
            assert abs(value - ev.payoffs(k, *point[:, None])[0]) < 1e-14


# every family once, with noise f < 1 on the mixture
_FAMILY_SPECS = [
    GameSpec(6, InitialStateRecipe(StateFamily.GHZ, 6)),
    GameSpec(6, InitialStateRecipe(StateFamily.BELL_PRODUCT, 6)),
    GameSpec(6, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.5, f=0.9)),
    GameSpec(6, InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 6, gamma=0.7)),
    GameSpec(6, InitialStateRecipe(StateFamily.W3_PRODUCT, 6)),
]

_strategies = st.builds(
    StrategyParams,
    st.floats(0, PI, allow_nan=False),
    st.floats(-PI, PI, allow_nan=False),
    st.floats(-PI, PI, allow_nan=False),
)


def _assert_matches_per_player_search(reports, reference):
    assert [r.player for r in reports] == [r.player for r in reference]
    for r, ref in zip(reports, reference):
        assert abs(r.max_gain - ref.max_gain) < 1e-12
        assert abs(r.best_deviation_payoff - ref.best_deviation_payoff) < 1e-12
        assert abs(r.equilibrium_payoff - ref.equilibrium_payoff) < 1e-12
        assert r.is_nash_within_tol == ref.is_nash_within_tol


def _spy_on_the_search(monkeypatch):
    """Record the players of every lockstep search; returns the record."""
    searched = []
    search = analysis._best_responses

    def counted(spec, candidate, players, *args):
        searched.append(list(players))
        return search(spec, candidate, players, *args)

    monkeypatch.setattr(analysis, "_best_responses", counted)
    return searched


# each family's block size, written out apart from `states._FAMILIES`
_BLOCK_SIZES = {
    StateFamily.GHZ: 1,
    StateFamily.EXPONENTIAL_ENTANGLER: 1,
    StateFamily.BELL_PRODUCT: 2,
    StateFamily.GHZ_BELL_MIXTURE: 2,
    StateFamily.W3_PRODUCT: 3,
}


def _classes(spec, profile):
    """The players grouped by their strategy and by their block's multiset
    of strategies; players and classes in player order."""
    block = _BLOCK_SIZES[spec.recipe.family]
    classes = {}
    for p, strategy in enumerate(profile.strategies):
        start = p - p % block
        mates = collections.Counter(profile.strategies[start : start + block])
        classes.setdefault((strategy, frozenset(mates.items())), []).append(p + 1)
    return list(classes.values())


def _assert_classes_match_per_player_search(reports, reference, classes):
    """Each class's first player's report equals its per-player search bit
    for bit; every other member's is that report with `player` set, and
    within 1e-12 of its own per-player search."""
    for first, *members in classes:
        assert reports[first - 1] == reference[first - 1]
        for p in members:
            assert reports[p - 1] == dataclasses.replace(reports[first - 1], player=p)
    _assert_matches_per_player_search(reports, reference)


# the NE with player 4 at identity, N = 6: player 4 is a class alone, and
# its blockmates (3 for Bell and the mixture, 5 and 6 for W3) split off
_PLAYER_4_OFF_CLASSES = {
    StateFamily.GHZ: [[1, 2, 3, 5, 6], [4]],
    StateFamily.EXPONENTIAL_ENTANGLER: [[1, 2, 3, 5, 6], [4]],
    StateFamily.BELL_PRODUCT: [[1, 2, 5, 6], [3], [4]],
    StateFamily.GHZ_BELL_MIXTURE: [[1, 2, 5, 6], [3], [4]],
    StateFamily.W3_PRODUCT: [[1, 2, 3], [4], [5, 6]],
}


class TestNashCheckOrbits:
    @pytest.mark.parametrize("spec", _FAMILY_SPECS, ids=lambda s: s.recipe.family.value)
    @pytest.mark.parametrize(
        "strategy",
        [ne_strategy(6), StrategyParams(1.1, 0.4, -2.3)],
        ids=["equilibrium", "random"],
    )
    def test_symmetric_profile_searches_once(self, spec, strategy, monkeypatch):
        candidate = StrategyProfile.symmetric(strategy, 6)
        reference = nash_check_per_player(spec, candidate, 9)
        searched = _spy_on_the_search(monkeypatch)
        reports = nash_check(spec, candidate, 9)
        assert searched == [[1]]
        assert all(r == dataclasses.replace(reports[0], player=r.player) for r in reports)
        _assert_matches_per_player_search(reports, reference)

    @pytest.mark.parametrize("spec", _FAMILY_SPECS, ids=lambda s: s.recipe.family.value)
    def test_other_profile_makes_one_search_over_every_player(self, spec, monkeypatch):
        # one search of each class's first player serves all six players
        candidate = StrategyProfile.symmetric(ne_strategy(6), 6).replace(4, IDENTITY)
        classes = _PLAYER_4_OFF_CLASSES[spec.recipe.family]
        assert _classes(spec, candidate) == classes
        reference = nash_check_per_player(spec, candidate, 9)
        searched = _spy_on_the_search(monkeypatch)
        reports = nash_check(spec, candidate, 9)
        assert searched == [[first for first, *_ in classes]]
        _assert_classes_match_per_player_search(reports, reference, classes)

    @given(_recipes(max_n=8), _strategies)
    @settings(max_examples=25, deadline=None)
    def test_symmetric_reports_match_the_per_player_search(self, recipe, strategy):
        spec = GameSpec(recipe.n_qubits, recipe)
        candidate = StrategyProfile.symmetric(strategy, recipe.n_qubits)
        _assert_matches_per_player_search(
            nash_check(spec, candidate, 5), nash_check_per_player(spec, candidate, 5)
        )

    @given(_deviation_cases())
    @settings(max_examples=20, deadline=None)
    def test_other_profiles_are_searched_per_player(self, case):
        spec, profile, _, _ = case
        assert nash_check(spec, profile, 5) == nash_check_per_player(spec, profile, 5)

    @pytest.mark.parametrize("spec", _FAMILY_SPECS, ids=lambda s: s.recipe.family.value)
    def test_one_player_off_the_symmetric_strategy(self, spec):
        candidate = StrategyProfile.symmetric(ne_strategy(6), 6).replace(4, IDENTITY)
        _assert_classes_match_per_player_search(
            nash_check(spec, candidate, 5),
            nash_check_per_player(spec, candidate, 5),
            _PLAYER_4_OFF_CLASSES[spec.recipe.family],
        )

    @given(_recipes(max_n=8), _strategies, _strategies, st.data())
    @settings(max_examples=40, deadline=None)
    def test_players_on_two_strategies_are_searched_once_per_class(
        self, recipe, a, b, data
    ):
        # random profiles draw distinct strategies, so their classes are
        # singletons; here each player holds one of two
        n = recipe.n_qubits
        spec = GameSpec(n, recipe)
        picks = st.lists(st.sampled_from([a, b]), min_size=n, max_size=n)
        profile = StrategyProfile(data.draw(picks))
        grid = data.draw(st.sampled_from([2, 5, 9]))
        classes = _classes(spec, profile)
        reference = nash_check_per_player(spec, profile, grid)
        with pytest.MonkeyPatch.context() as mp:
            searched = _spy_on_the_search(mp)
            reports = nash_check(spec, profile, grid)
        assert searched == [[first for first, *_ in classes]]
        _assert_classes_match_per_player_search(reports, reference, classes)

    def test_bell_players_on_one_strategy_with_other_partners_stay_apart(self, monkeypatch):
        # players 1 and 3 both hold a, but 1's partner holds b and 3's holds
        # a; players 1 and 6 are interchangeable from different places in
        # their blocks
        a, b = StrategyParams(1.1, 0.4, -2.3), StrategyParams(0.3, -1.2, 2.9)
        spec = GameSpec(6, InitialStateRecipe(StateFamily.BELL_PRODUCT, 6))
        profile = StrategyProfile((a, b, a, a, b, a))
        classes = [[1, 6], [2, 5], [3, 4]]
        assert _classes(spec, profile) == classes
        reference = nash_check_per_player(spec, profile, 9)
        searched = _spy_on_the_search(monkeypatch)
        reports = nash_check(spec, profile, 9)
        assert searched == [[1, 2, 3]]
        _assert_classes_match_per_player_search(reports, reference, classes)
        # one report for players 1 and 3 would be wrong: they gain 0.111 and 0.190
        assert reports[2].max_gain - reports[0].max_gain > 0.05


class TestLockstepSearch:
    """One search runs every listed player; each report equals the
    per-player reference search in `dense_oracle`, bit for bit."""

    @given(_deviation_cases(max_n=8), st.sampled_from([2, 3, 5, 9, 25]))
    @settings(max_examples=40, deadline=None)
    def test_reports_equal_the_per_player_search(self, case, grid):
        spec, profile, player, _ = case
        assert nash_check(spec, profile, grid) == nash_check_per_player(spec, profile, grid)
        assert best_response(spec, profile, player, grid) == best_response_per_player(
            spec, profile, player, grid
        )
        # every player's exact optimum, whether or not it is reported
        exact, _ = _all_players(spec, profile).exact_optima()
        for k, point in enumerate(exact):
            oracle = PlayerEvaluator(spec, profile, k + 1).exact_optimum()
            assert point.tobytes() == oracle.tobytes()

    def test_exact_optima_equal_the_scalar_steps_on_random_gram_forms(self):
        # 200 random Gram forms: a theta from numpy's vectorised abs and
        # arctan2 differs from the scalar steps in the last bit on 50 rows
        rng = np.random.default_rng(200)
        z = rng.normal(size=(200, 2, 2, 4)) + 1j * rng.normal(size=(200, 2, 2, 4))
        gram = np.einsum("prax,prbx->prab", z, z.conj())
        points, _ = _DeviationEvaluator(gram, 0.9, 0.05).exact_optima()
        assert points.tobytes() == np.array([exact_optimum(g) for g in gram]).tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @given(case=_deviation_cases(max_n=6), grid=st.sampled_from([2, 3, 5, 9, 25]))
    @settings(max_examples=8, deadline=None)
    def test_chunk_boundaries_keep_each_players_first_maximum(self, chunk, case, grid):
        # the reference scores its whole grid in one call and reads no
        # budget; each call here scores one player's survivors on one
        # theta plane, split into PAYOFF_CHUNK deviations per einsum
        spec, profile, _, _ = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(game, "PAYOFF_CHUNK", chunk)
            reports = nash_check(spec, profile, grid)
        assert reports == nash_check_per_player(spec, profile, grid)

    def test_every_einsum_holds_at_most_grid_chunk_pairs(self, monkeypatch):
        # six players in two classes: the first of the five on the
        # equilibrium strategy ties its exact optimum on the whole
        # theta = pi plane, whose 81 survivors must split at 64 deviations,
        # and the partial states (2^6 amplitudes each) go one per kernel
        # call; the screen and the exact step make no einsum
        spec = ghz_spec(6)
        candidate = StrategyProfile.symmetric(ne_strategy(6), 6).replace(2, IDENTITY)
        reference = nash_check_per_player(spec, candidate, 9)
        sizes, amplitudes = [], []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def einsum(self, *operands, **kwargs):
                out = np.einsum(*operands, **kwargs)
                sizes.append(out.size)
                return out

        def counting_apply_locals(columns, spread, unitaries, *args):
            out = apply_locals(columns, spread, unitaries, *args)
            amplitudes.append(out.size)
            return out

        monkeypatch.setattr(analysis, "np", CountingNumpy())
        monkeypatch.setattr(game, "apply_locals", counting_apply_locals)
        monkeypatch.setattr(game, "PAYOFF_CHUNK", 64)
        reports = nash_check(spec, candidate, 9)
        _assert_classes_match_per_player_search(reports, reference, [[1, 3, 4, 5, 6], [2]])
        assert sizes == [64, 17]
        assert amplitudes and max(amplitudes) <= 64

    def test_reported_payoffs_sum_in_the_projectors_order(self, monkeypatch):
        # every payoff sums in minority_projector's order: each reported
        # payoff of a non-symmetric nash_check and of a best_response gets
        # player 1's memoised projector array itself
        spec = GameSpec(6, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.5, f=0.9))
        candidate = StrategyProfile.symmetric(ne_strategy(6), 6).replace(2, IDENTITY)
        winning = []
        payoff = game._payoff

        def recorded(spec, amplitudes, indices):
            winning.append(indices)
            return payoff(spec, amplitudes, indices)

        monkeypatch.setattr(game, "_payoff", recorded)
        nash_check(spec, candidate, 5)
        best_response(spec, candidate, 3, 5)
        # two reported payoffs per searched report: the classes [1], [2] and
        # [3, 4, 5, 6], then one
        assert len(winning) == 2 * 3 + 2
        assert all(w is game.minority_projector(6, 1) for w in winning)

    @pytest.mark.parametrize(
        "recipe, grid",
        [
            (InitialStateRecipe(StateFamily.BELL_PRODUCT, 10), 25),
            (InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 10, x=0.5, f=0.9), 9),
            (InitialStateRecipe(StateFamily.GHZ, 12), 25),
            (InitialStateRecipe(StateFamily.W3_PRODUCT, 12), 5),
            (InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 12, gamma=0.7), 3),
        ],
        ids=lambda v: v.family.value if isinstance(v, InitialStateRecipe) else str(v),
    )
    def test_large_cases_equal_the_per_player_search(self, recipe, grid):
        n = recipe.n_qubits
        rng = np.random.default_rng(n * grid)
        profile = StrategyProfile(
            tuple(StrategyParams(*map(float, t)) for t in zip(*_random_points(rng, n)))
        )
        spec = GameSpec(n, recipe)
        assert nash_check(spec, profile, grid) == nash_check_per_player(spec, profile, grid)

    def test_ghz6_equilibrium_is_the_same_at_one_and_at_six_players(self):
        # nash_check_ghz6.csv: a symmetric profile is one class, searched
        # for player 1 alone
        spec = ghz_spec(6)
        candidate = StrategyProfile.symmetric(ne_strategy(6), 6)
        lockstep = analysis._best_responses(spec, candidate, range(1, 7), 25, NASH_TOLERANCE)
        assert lockstep == nash_check(spec, candidate, 25)
        assert lockstep == nash_check_per_player(spec, candidate, 25)


def _spy_on_payoffs(monkeypatch):
    """Record (player index, theta, deviations) of every Gram-form `payoffs`
    call, each on one theta plane; returns the record."""
    calls = []
    payoffs = _DeviationEvaluator.payoffs

    def counted(self, k, *args):
        scores = payoffs(self, k, *args)
        assert len(set(args[0].tolist())) == 1  # one theta plane
        calls.append((k, args[0][0], len(scores)))
        return scores

    monkeypatch.setattr(_DeviationEvaluator, "payoffs", counted)
    return calls


class TestSearchWork:
    """The search scores only the grid points whose closed-form screen
    reaches the exact optimum's payoff less EXACT_OPTIMUM_MARGIN +
    GRID_SCREEN_MARGIN, one (player, theta plane) pair per `payoffs` call,
    and nothing else: the exact optimum's payoff is its eigenvalue's."""

    @pytest.mark.parametrize("search", ["best_response", "nash_check"])
    def test_payoffs_calls_are_one_per_survivor_plane_of_each_player_in_order(
        self, search, monkeypatch
    ):
        spec = GameSpec(6, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.5, f=0.9))
        candidate = StrategyProfile.symmetric(ne_strategy(6), 6).replace(2, IDENTITY)
        # nash_check searches the first player of each class: [1], [2] and
        # [3, 4, 5, 6]
        players = [3] if search == "best_response" else [1, 2, 3]
        # each (player, plane) pair that holds a survivor, in order, with its
        # theta and survivor count, from the exhaustive grid: a point
        # survives if it reaches its player's exact value less both margins
        ev = _dense_deviations(spec, candidate, players)[0]
        _, vals = _full_grid(ev, 25)
        margin = analysis.EXACT_OPTIMUM_MARGIN + analysis.GRID_SCREEN_MARGIN
        keep = vals >= ev.exact_optima()[1][:, None] - margin
        survivors = keep.reshape(len(players), 25, -1).sum(axis=2)
        thetas = np.linspace(0, PI, 25)
        expected = [(k, thetas[t], survivors[k, t]) for k, t in zip(*np.nonzero(survivors))]
        calls = _spy_on_payoffs(monkeypatch)
        if search == "best_response":
            reports = [best_response(spec, candidate, 3, 25)]
        else:
            reports = nash_check(spec, candidate, 25)
        # the closed-form screen and the exact step make no call
        assert calls == expected
        assert all(r.refinement_steps == 8 for r in reports)

    def test_random_bell_check_scores_no_point(self, monkeypatch):
        # every player's exact optimum beats its whole grid by more than
        # both margins, so no theta plane reaches the floor
        rng = np.random.default_rng(10)
        profile = StrategyProfile(
            tuple(StrategyParams(*map(float, t)) for t in zip(*_random_points(rng, 10)))
        )
        spec = GameSpec(10, InitialStateRecipe(StateFamily.BELL_PRODUCT, 10))
        reference = nash_check_per_player(spec, profile, 25)
        calls = _spy_on_payoffs(monkeypatch)
        assert nash_check(spec, profile, 25) == reference
        assert calls == []

    def test_ghz6_equilibrium_scores_only_its_tied_points(self, monkeypatch):
        # the 26 points that tie the exact optimum within rounding, all on
        # the theta = pi/2 plane; the first, (pi/2, -3pi/4, -7pi/12), is kept
        calls = _spy_on_payoffs(monkeypatch)
        report = nash_check(ghz_spec(6), StrategyProfile.symmetric(ne_strategy(6), 6), 25)[0]
        assert calls == [(0, PI / 2, 26)]
        angles = np.linspace(-PI, PI, 25).tolist()
        assert report.best_deviation == StrategyParams(PI / 2, angles[3], angles[5])

    def test_refinement_steps_count_the_rounds_of_the_three_coordinate_loop(self):
        for grid in range(2, 401):
            # the step arithmetic of the coordinate refinement that once
            # ran after the grid: each round divides each coordinate's step
            # by 5, until the largest is at most REFINEMENT_MIN_STEP
            boxes = ((0.0, PI), (-PI, PI), (-PI, PI))
            steps = [(top - bottom) / (grid - 1) for bottom, top in boxes]
            rounds = 0
            while max(steps) > 1e-6:
                rounds += 1
                for coord in range(3):
                    steps[coord] /= 5
            assert analysis._refinement_rounds(grid) == rounds, grid


def _full_grid(ev, steps):
    """Every (theta, alpha, beta) grid point in ravel order, as a (3, g^3)
    array, with every listed player's `ev.payoffs` score there, (P, g^3)."""
    thetas = np.linspace(0, PI, steps)
    angles = np.linspace(-PI, PI, steps)
    grid = np.meshgrid(thetas, angles, angles, indexing="ij")
    points = np.stack([axis.ravel() for axis in grid])
    return points, np.array([ev.payoffs(k, *points) for k in range(len(ev._gram))])


def _full_grid_argmax(ev, steps):
    """The exhaustive grid search: each player's first maximum in ravel order."""
    points, vals = _full_grid(ev, steps)
    k = vals.argmax(axis=1)
    return points[:, k].T, vals[np.arange(len(k)), k]


def _reference_search(ev, steps):
    """The exhaustive search: each player's first grid maximum in ravel
    order, replaced by the exact optimum when that pays more by
    EXACT_OPTIMUM_MARGIN."""
    best, value = _full_grid_argmax(ev, steps)
    exact, exact_value = ev.exact_optima()
    better = exact_value > value + analysis.EXACT_OPTIMUM_MARGIN
    best[better] = exact[better]
    return best


def _all_players(spec, profile):
    return _dense_deviations(spec, profile, range(1, spec.n_players + 1))[0]


def _assert_screen_is_the_payoff_at_beta_zero(ev, steps):
    """The plane maxima and each plane's screen row against the Gram-form
    einsum, within 1e-14, for every listed player."""
    players = len(ev._gram)
    thetas = np.linspace(0, PI, steps)
    diffs = np.arange(1 - steps, steps) * (2 * PI / (steps - 1))
    pairs = np.meshgrid(thetas, diffs, indexing="ij")
    pair_thetas, pair_alphas = (axis.ravel() for axis in pairs)
    vals = np.array([
        ev.payoffs(k, pair_thetas, pair_alphas, np.zeros_like(pair_alphas))
        for k in range(players)
    ]).reshape(players, steps, diffs.size)
    w = ev.screen_w(diffs)
    assert w.shape == (players, diffs.size)
    maxima = ev.screen(slice(None), thetas, w.max(axis=1, keepdims=True))
    assert maxima.shape == (players, steps)
    assert np.max(np.abs(maxima - vals.max(axis=2))) < 1e-14
    for k in range(players):
        rows = np.array([ev.screen(k, theta, w[k]) for theta in thetas])
        assert np.max(np.abs(rows - vals[k])) < 1e-14


class TestGridScreen:
    @given(_deviation_cases(max_n=8), st.sampled_from([2, 3, 5, 9, 25]))
    @settings(max_examples=80, deadline=None)
    def test_screen_picks_what_the_full_grid_picks(self, case, steps):
        spec, profile, _, _ = case
        ev = _all_players(spec, profile)
        best = analysis._best_deviations(ev, steps)
        assert np.array_equal(best, _reference_search(ev, steps))

    @given(_deviation_cases(max_n=8), st.sampled_from([2, 3, 5, 9, 25]))
    @settings(max_examples=80, deadline=None)
    def test_closed_form_screen_is_the_payoff_at_beta_zero(self, case, steps):
        # every family, the mixture at f < 1
        spec, profile, _, _ = case
        _assert_screen_is_the_payoff_at_beta_zero(_all_players(spec, profile), steps)

    @pytest.mark.parametrize(
        "recipe",
        [
            InitialStateRecipe(family, n, **kwargs)
            for n in (10, 12)
            for family, kwargs in [
                (StateFamily.GHZ, {}),
                (StateFamily.BELL_PRODUCT, {}),
                (StateFamily.GHZ_BELL_MIXTURE, {"x": 0.5, "f": 0.9}),
                (StateFamily.EXPONENTIAL_ENTANGLER, {"gamma": 0.7}),
            ]
        ]
        + [InitialStateRecipe(StateFamily.W3_PRODUCT, 12)],
        ids=lambda r: f"{r.family.value}-{r.n_qubits}",
    )
    def test_closed_form_screen_rounding_at_large_n(self, recipe):
        # the rounding that GRID_SCREEN_MARGIN absorbs, where the payoffs
        # sum the most terms
        n = recipe.n_qubits
        spec = GameSpec(n, recipe)
        rng = np.random.default_rng(n)
        for profile in (
            StrategyProfile(
                tuple(StrategyParams(*map(float, t)) for t in zip(*_random_points(rng, n)))
            ),
            StrategyProfile.symmetric(ne_strategy(n), n),
        ):
            _assert_screen_is_the_payoff_at_beta_zero(_all_players(spec, profile), 25)

    @given(_deviation_cases(max_n=8))
    @settings(max_examples=60, deadline=None)
    def test_payoff_depends_on_alpha_minus_beta_only(self, case):
        # the screen rests on this; a Gram form that breaks it fails here
        spec, profile, _, rng = case
        ev = _all_players(spec, profile)
        points = _players_points(rng, spec.n_players, 64)
        for k, (theta, alpha, beta) in enumerate(points.transpose(1, 0, 2)):
            diff = ev.payoffs(k, theta, alpha - beta, np.zeros_like(beta))
            assert np.max(np.abs(ev.payoffs(k, theta, alpha, beta) - diff)) < 1e-14

    @pytest.mark.parametrize("player", range(1, 7))
    def test_ghz6_equilibrium_keeps_the_tied_point(self, player):
        # 26 grid points tie within rounding; nash_check_ghz6.csv pins the
        # one the exhaustive search picks, a phase-equivalent copy of M
        ev, _ = _dense_deviations(
            ghz_spec(6), StrategyProfile.symmetric(ne_strategy(6), 6), [player]
        )
        _, (vals,) = _full_grid(ev, 25)
        assert np.count_nonzero(vals >= vals.max() - 1e-12) == 26
        best = analysis._best_deviations(ev, 25)
        assert np.allclose(best, [[PI / 2, -3 * PI / 4, -7 * PI / 12]], atol=1e-15)
        assert np.array_equal(best, _reference_search(ev, 25))

    def test_screen_rounding_within_its_margin_keeps_the_tied_point(self, monkeypatch):
        # a screen that reads 1.5e-12 low, past what EXACT_OPTIMUM_MARGIN
        # alone absorbs: GRID_SCREEN_MARGIN still lets the tied points be
        # scored, where a floor without it leaves the exact (pi/2, 0, pi/6)
        ev, _ = _dense_deviations(ghz_spec(6), StrategyProfile.symmetric(ne_strategy(6), 6), [1])
        screen = _DeviationEvaluator.screen
        monkeypatch.setattr(
            _DeviationEvaluator, "screen", lambda self, *args: screen(self, *args) - 1.5e-12
        )
        best = analysis._best_deviations(ev, 25)
        assert np.allclose(best, [[PI / 2, -3 * PI / 4, -7 * PI / 12]], atol=1e-15)
        assert np.array_equal(best, _reference_search(ev, 25))

    @pytest.mark.parametrize("gap, kept", [(5e-13, True), (9e-13, True), (1.5e-12, False)])
    def test_grid_point_near_the_exact_optimum(self, gap, kept):
        # a Gram form whose optimum lies just off the theta = pi/2 plane:
        # the grid's best points pay f * gap less than the exact optimum,
        # and they are kept while that is within EXACT_OPTIMUM_MARGIN, so
        # they must be scored although they do not tie it within rounding
        angles = np.linspace(-PI, PI, 25)
        theta = PI / 2 + 2 * math.asin(math.sqrt(gap))
        (target,) = analysis._su2_batch(np.array([theta]), angles[[3]], angles[[5]])[:, 0]
        gram = np.stack([np.outer(target.conj(), target), np.zeros((2, 2))])[None]
        ev = _DeviationEvaluator(gram, 0.9, 0.05)
        best = analysis._best_deviations(ev, 25)
        assert np.array_equal(best, _reference_search(ev, 25))
        assert (best[0, 0] == PI / 2) == kept

    @pytest.mark.parametrize("steps", [2, 5, 25])
    def test_all_ties_keep_the_first_point(self, steps):
        # at n = 2 nobody ever wins: every point survives the screen
        ev = _all_players(ghz_spec(2), StrategyProfile.symmetric(IDENTITY, 2))
        _, exact_value = ev.exact_optima()
        assert exact_value.tolist() == [0.0, 0.0]
        best = analysis._best_deviations(ev, steps)
        assert best.tolist() == [[0.0, -PI, -PI]] * 2
        assert np.array_equal(best, _reference_search(ev, steps))


# every family at every n <= 8 it allows, with noise f < 1 on the mixture
_SEAM_RECIPES = (
    [InitialStateRecipe(StateFamily.GHZ, n) for n in range(2, 9)]
    + [InitialStateRecipe(StateFamily.BELL_PRODUCT, n) for n in (2, 4, 6, 8)]
    + [
        InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, n, x=0.5, f=0.9)
        for n in (2, 4, 6, 8)
    ]
    + [
        InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, n, gamma=0.7)
        for n in range(2, 9)
    ]
    + [InitialStateRecipe(StateFamily.W3_PRODUCT, n) for n in (3, 6)]
)


@pytest.mark.parametrize(
    "recipe", _SEAM_RECIPES, ids=lambda r: f"{r.family.value}-{r.n_qubits}"
)
def test_search_reads_only_the_gram_form(recipe):
    # an engine that builds (gram, f, floor) by other means drives the same
    # search: the evaluator keeps no 2^n block or mask, and one rebuilt
    # from a copy of its Gram array finds the same points, bit for bit
    n = recipe.n_qubits
    rng = np.random.default_rng(n)
    profile = StrategyProfile(
        tuple(StrategyParams(*map(float, t)) for t in zip(*_random_points(rng, n)))
    )
    ev, _ = _dense_deviations(GameSpec(n, recipe), profile, range(1, n + 1))
    assert all(np.size(value) <= n * 8 for value in vars(ev).values())
    rebuilt = _DeviationEvaluator(ev._gram.copy(), ev._f, ev._mixed_floor)
    got, want = analysis._best_deviations(rebuilt, 9), analysis._best_deviations(ev, 9)
    assert got.tobytes() == want.tobytes()
    for got, want in zip(rebuilt.exact_optima(), ev.exact_optima()):
        assert got.tobytes() == want.tobytes()


def _peak_bytes(search, *args, **kwargs):
    """tracemalloc's peak over one call of the search."""
    tracemalloc.start()
    try:
        search(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_best_response_memory_does_not_grow_with_grid():
    # a (grid^3, 2, 2^(n-1)) array here would take 64000 * 2^12 * 16 B = 4.2 GB
    # at grid 40, and one unchunked grid-100 batch peaks near 160 MB; at
    # grid 400 any grid^3 index or meshgrid array takes 512 MB
    n = 12
    candidate = StrategyProfile.symmetric(ne_strategy(n), n)
    runs = [
        (best_response, (ghz_spec(n), candidate, 1), grid) for grid in (40, 100, 400)
    ]
    # every player of a non-symmetric profile in one search: the plane
    # maxima and the exact step hold all ten players at once
    rng = np.random.default_rng(10)
    profile = StrategyProfile(
        tuple(StrategyParams(*map(float, t)) for t in zip(*_random_points(rng, 10)))
    )
    bell = GameSpec(10, InitialStateRecipe(StateFamily.BELL_PRODUCT, 10))
    # at grid 800 a screen of every (theta, alpha - beta) pair peaked at
    # 117.7 MiB; the closed-form plane maxima hold P * g values
    runs += [(nash_check, (bell, profile), grid) for grid in (100, 800)]
    for search, args, grid in runs:
        assert _peak_bytes(search, *args, grid_resolution=grid) < 64 * 2**20, (
            search.__name__, grid,
        )
    # a (g, g) index array of each (alpha_i, beta_j)'s screen column peaked
    # at 5.8 MiB here; the (2g - 1) survivor buffer read through one
    # diagonal view peaks near 0.75 MiB
    assert _peak_bytes(nash_check, bell, profile, grid_resolution=800) < 2 * 2**20
    # at n = 2 nobody wins, so every point of every plane survives the
    # screen: scored plane by plane this peaks near 1.6 MiB, and joining the
    # survivors of every plane into one call would hold the whole grid
    ties = (ghz_spec(2), StrategyProfile.symmetric(IDENTITY, 2), 1)
    assert _peak_bytes(best_response, *ties, grid_resolution=100) < 8 * 2**20
    # a plane's survivors scored in one call peaked at 20.1 MiB here; in
    # slices of at most PAYOFF_CHUNK points the peak stays near 3.4 MiB
    deviator = StrategyProfile.symmetric(ne_strategy(6), 6).replace(2, IDENTITY)
    assert _peak_bytes(nash_check, ghz_spec(6), deviator, grid_resolution=600) < 4 * 2**20


def test_one_deviator_check_holds_one_block_per_class():
    # the search keeps each searched player's 2 x 2^(n-1) block to the end;
    # searching all twelve players held twelve (a 1.2 to 1.3 MiB peak), and
    # the first players of the two classes hold two (near 0.75 MiB)
    n = 12
    candidate = StrategyProfile.symmetric(ne_strategy(n), n).replace(n, IDENTITY)
    assert _peak_bytes(nash_check, ghz_spec(n), candidate, grid_resolution=25) < 0.9 * 2**20


def test_surface_memory_stays_within_one_chunk():
    # four N=12 rows per kernel call, every call in one work pair, peak
    # near 0.69 MiB (two rows 0.44 MiB, eight 1.19 MiB); sixteen-row chunks
    # take 2.19 MiB, so a chunk that grows that far fails here
    spec = GameSpec(12, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 12, x=0.5))
    assert _peak_bytes(payoff_surface, spec, 25, 25) < 1.5 * 2**20


def test_nash_check_memory_builds_partial_states_in_chunks():
    # twelve players at N = 12: the chunked build, four partial states per
    # kernel call, peaks near 1.63 MiB (two per call 1.38 MiB); eight per
    # call take 2.13 MiB and all twelve in one call 2.63 MiB
    rng = np.random.default_rng(12)
    profile = StrategyProfile(
        tuple(StrategyParams(*map(float, t)) for t in zip(*_random_points(rng, 12)))
    )
    bell = GameSpec(12, InitialStateRecipe(StateFamily.BELL_PRODUCT, 12))
    assert _peak_bytes(nash_check, bell, profile, grid_resolution=25) < 2 * 2**20


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_grid_chunks_keep_the_first_maximum(chunk, monkeypatch):
    # at n = 2 nobody ever wins, so every grid point ties at payoff 0 and
    # the report must keep the first one; chunking must not move it
    cases = [(2, IDENTITY), (4, ne_strategy(4))]
    runs = [
        (ghz_spec(n), StrategyProfile.symmetric(params, n), player)
        for n, params in cases
        for player in (1, 2)
    ]
    whole = [best_response(*run, grid_resolution=5) for run in runs]
    monkeypatch.setattr(game, "PAYOFF_CHUNK", chunk)
    assert [best_response(*run, grid_resolution=5) for run in runs] == whole
    for spec, profile, _ in runs:
        ev = _all_players(spec, profile)
        assert np.array_equal(analysis._best_deviations(ev, 5), _reference_search(ev, 5))
