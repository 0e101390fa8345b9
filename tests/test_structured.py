"""The structured engine for symmetric profiles, against the dense engine.

`structured.symmetric_payoffs` serves every symmetric profile at
N >= `game.STRUCTURED_MIN_N`; the dense engine (`game.final_amplitudes`)
stays the oracle at every N <= MAX_QUBITS, and item 5's exact references
in `paper_checks` pin both.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper_checks import bell_product_payoff_exact, ghz_equilibrium_payoff_exact
from qmg import game, structured
from qmg.analysis import entangler_ne_strategy, ne_strategy
from qmg.core import MAX_QUBITS
from qmg.game import (
    GameSpec,
    StrategyParams,
    StrategyProfile,
    expected_payoff,
    expected_payoffs,
    final_amplitudes,
    minority_projector,
    strategy_unitary,
)
from qmg.states import InitialStateRecipe, StateFamily

PI = math.pi

strategy_params = st.builds(
    StrategyParams,
    st.floats(0, PI, allow_nan=False),
    st.floats(-PI, PI, allow_nan=False),
    st.floats(-PI, PI, allow_nan=False),
)


def recipes_at(ns):
    """Every family at the qubit counts in ns that it allows, noisy starts included."""
    fidelity = st.floats(0, 1, allow_nan=False)
    even, thirds = [n for n in ns if n % 2 == 0], [n for n in ns if n % 3 == 0]
    return st.one_of(
        st.builds(InitialStateRecipe, st.just(StateFamily.GHZ), st.sampled_from(ns), f=fidelity),
        st.builds(
            InitialStateRecipe, st.just(StateFamily.BELL_PRODUCT), st.sampled_from(even), f=fidelity
        ),
        st.builds(
            InitialStateRecipe,
            st.just(StateFamily.GHZ_BELL_MIXTURE),
            st.sampled_from(even),
            x=st.floats(0, 1, allow_nan=False),
            f=fidelity,
        ),
        st.builds(
            InitialStateRecipe,
            st.just(StateFamily.EXPONENTIAL_ENTANGLER),
            st.sampled_from(ns),
            gamma=st.floats(0, PI / 2, allow_nan=False),
            f=fidelity,
        ),
        st.builds(
            InitialStateRecipe, st.just(StateFamily.W3_PRODUCT), st.sampled_from(thirds), f=fidelity
        ),
    )


def dense_payoffs(spec, profile):
    """Every player's payoff from the dense engine's final amplitudes."""
    row = next(final_amplitudes(spec, [profile]))[0]
    n = spec.n_players
    return [game._payoff(spec, row, minority_projector(n, p)) for p in range(1, n + 1)]


def structured_payoff(recipe, params):
    """Player 1's pure payoff when every player plays params."""
    u = strategy_unitary(params)[None]
    return structured.symmetric_payoffs(recipe, u, game.PAYOFF_CHUNK)[0]


# every family at N = 7-12, with several x, gamma and f < 1
FAMILY_CASES = (
    [InitialStateRecipe(StateFamily.GHZ, n) for n in range(7, 13)]
    + [InitialStateRecipe(StateFamily.BELL_PRODUCT, n) for n in (8, 10, 12)]
    + [InitialStateRecipe(StateFamily.W3_PRODUCT, n) for n in (9, 12)]
    + [
        InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, n, x=x, f=f)
        for n in (8, 10, 12)
        for x in (0.0, 0.3, 0.5, 1.0)
        for f in (1.0, 0.9, 0.25)
    ]
    + [
        InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, n, gamma=gamma)
        for n in (7, 10, 11, 12)
        for gamma in (0.0, 0.3, 0.7, PI / 2)
    ]
)


class TestAgainstTheDenseEngine:
    @pytest.mark.parametrize(
        "recipe",
        FAMILY_CASES,
        ids=lambda r: f"{r.family.value}-{r.n_qubits}-x{r.x}-f{r.f}-g{r.gamma:.2f}",
    )
    def test_every_player_within_1e_12(self, recipe):
        n = recipe.n_qubits
        spec = GameSpec(n, recipe)
        rng = np.random.default_rng(n)
        for _ in range(3):
            t, a, b = rng.uniform(0, PI), *rng.uniform(-PI, PI, 2)
            profile = StrategyProfile.symmetric(StrategyParams(t, a, b), n)
            dense = dense_payoffs(spec, profile)
            got = [expected_payoff(spec, profile, p) for p in range(1, n + 1)]
            assert got == [got[0]] * n  # one evaluation serves every player
            assert max(abs(g - d) for g, d in zip(got, dense)) <= 1e-12

    @given(recipes_at(list(range(2, MAX_QUBITS + 1))), strategy_params)
    @settings(max_examples=150, deadline=None)
    def test_the_pure_payoff_at_every_n(self, recipe, params):
        # the function itself at every N the dense engine reaches, N < 7 too
        pure = InitialStateRecipe(recipe.family, recipe.n_qubits, x=recipe.x, gamma=recipe.gamma)
        spec = GameSpec(recipe.n_qubits, pure)
        profile = StrategyProfile.symmetric(params, recipe.n_qubits)
        assert abs(structured_payoff(recipe, params) - dense_payoffs(spec, profile)[0]) <= 1e-12


class TestExactReferences:
    @pytest.mark.parametrize("n", range(7, 13))
    def test_ghz_equilibrium(self, n):
        spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
        profile = StrategyProfile.symmetric(ne_strategy(n), n)
        want = float(ghz_equilibrium_payoff_exact(n))
        for player in range(1, n + 1):
            assert abs(expected_payoff(spec, profile, player) - want) <= 1e-12

    @pytest.mark.parametrize("n", range(7, 13))
    def test_entangler_equilibrium_pays_what_ghz_pays(self, n):
        recipe = InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, n, gamma=PI / 2)
        profile = StrategyProfile.symmetric(entangler_ne_strategy(n), n)
        want = float(ghz_equilibrium_payoff_exact(n))
        assert abs(expected_payoff(GameSpec(n, recipe), profile, n) - want) <= 1e-12

    @pytest.mark.parametrize("n", (8, 10, 12))
    def test_bell_product(self, n):
        spec = GameSpec(n, InitialStateRecipe(StateFamily.BELL_PRODUCT, n))
        want = float(bell_product_payoff_exact(n))
        rng = np.random.default_rng(n)
        for _ in range(3):
            params = StrategyParams(PI / 2, *map(float, rng.uniform(-PI, PI, 2)))
            profile = StrategyProfile.symmetric(params, n)
            assert abs(expected_payoff(spec, profile, 1) - want) <= 1e-12


@given(
    recipes_at(list(range(2, MAX_QUBITS + 1))),
    st.lists(strategy_params, min_size=1, max_size=12),
    st.sampled_from([1, 200, game.PAYOFF_CHUNK]),
)
@settings(max_examples=80, deadline=None)
def test_a_payoff_has_its_bits_in_any_batch(recipe, params, budget):
    # elementwise steps and sums in a fixed order: no BLAS product or
    # pairwise reduction whose order follows the batch size
    unitaries = np.array([strategy_unitary(p) for p in params])
    batch = structured.symmetric_payoffs(recipe, unitaries, budget)
    assert batch == [structured_payoff(recipe, p) for p in params]
    assert batch[1:] == structured.symmetric_payoffs(recipe, unitaries[1:], budget)


class TestRouting:
    """Symmetric profiles at N >= STRUCTURED_MIN_N take the structured
    engine; every other payoff takes the dense one."""

    @staticmethod
    def _forbid(monkeypatch, *names):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense engine ran")

        for name in names:
            monkeypatch.setattr(game, name, refuse)

    def test_the_threshold(self):
        assert game.STRUCTURED_MIN_N == 7

    @pytest.mark.parametrize("n", range(2, 7))
    def test_symmetric_payoffs_below_the_threshold_stay_dense(self, monkeypatch, n):
        calls = []
        amplitudes = game.final_amplitudes

        def counted(spec, profiles):
            calls.append(len(profiles))
            return amplitudes(spec, profiles)

        monkeypatch.setattr(game, "final_amplitudes", counted)
        monkeypatch.setattr(structured, "symmetric_payoffs", None)
        game._evaluation.cache_clear()
        spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
        profile = StrategyProfile.symmetric(ne_strategy(n), n)
        expected_payoff(spec, profile, 1)
        expected_payoffs(spec, [profile] * 3, 2)
        assert calls == [1, 3]

    @pytest.mark.parametrize("n", range(7, 13))
    def test_symmetric_payoffs_from_the_threshold_build_no_state(self, monkeypatch, n):
        self._forbid(monkeypatch, "build_pure", "apply_locals")
        game._initial_state.cache_clear()
        game._evaluation.cache_clear()
        recipe = InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, n, gamma=0.4, f=0.8)
        spec = GameSpec(n, recipe)
        profile = StrategyProfile.symmetric(entangler_ne_strategy(n), n)
        single = [expected_payoff(spec, profile, p) for p in range(1, n + 1)]
        assert expected_payoffs(spec, [profile] * 2, n) == single[-1:] * 2

    def test_equal_strategies_are_symmetric_whatever_the_objects(self, monkeypatch):
        self._forbid(monkeypatch, "final_amplitudes")
        game._evaluation.cache_clear()
        n = 8
        profile = StrategyProfile(tuple(StrategyParams(1.0, 0.5, -0.5) for _ in range(n)))
        spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
        expected_payoff(spec, profile, 3)

    def test_one_different_strategy_stays_dense(self, monkeypatch):
        monkeypatch.setattr(structured, "symmetric_payoffs", None)
        game._evaluation.cache_clear()
        n = 10
        profile = StrategyProfile.symmetric(ne_strategy(n), n).replace(4, game.IDENTITY)
        spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
        expected_payoff(spec, profile, 1)
        expected_payoffs(spec, [profile], 4)

    def test_a_mixed_batch_keeps_its_order(self):
        n = 10
        spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, n, x=0.4, f=0.7))
        rng = np.random.default_rng(3)
        symmetric = [
            StrategyProfile.symmetric(StrategyParams(rng.uniform(0, PI), *rng.uniform(-PI, PI, 2)), n)
            for _ in range(3)
        ]
        others = [s.replace(2, game.IDENTITY) for s in symmetric]
        batch = [symmetric[0], others[0], others[1], symmetric[1], symmetric[2], others[2]]
        got = expected_payoffs(spec, batch, 2)
        assert got == [expected_payoff(spec, p, 2) for p in batch]
        assert got[0] != got[1]

    @pytest.mark.parametrize("n", [13, 30])
    def test_past_the_dense_ceiling_raises_as_before(self, n):
        spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
        profile = StrategyProfile.symmetric(ne_strategy(n), n)
        message = f"n_qubits must be in \\[1, {MAX_QUBITS}\\], got {n}"
        with pytest.raises(ValueError, match=message):
            expected_payoff(spec, profile, 1)
        with pytest.raises(ValueError, match=message):
            expected_payoffs(spec, [profile], 1)

    @pytest.mark.parametrize("length", [6, 9])
    def test_a_profile_of_the_wrong_length_raises(self, length):
        spec = GameSpec(8, InitialStateRecipe(StateFamily.GHZ, 8))
        profile = StrategyProfile.symmetric(ne_strategy(8), length)
        with pytest.raises(ValueError, match="every profile needs 8 strategies"):
            expected_payoff(spec, profile, 1)
        with pytest.raises(ValueError, match="every profile needs 8 strategies"):
            expected_payoffs(spec, [profile], 1)
