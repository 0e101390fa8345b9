import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import MixedState, build_initial, dense_expectation, dense_final_state
from qmg.game import (
    IDENTITY,
    GameSpec,
    StrategyParams,
    StrategyProfile,
    classical_payoff,
    expected_payoff,
    final_state,
    max_symmetric_payoff,
    minority_mask,
    minority_projector,
    minority_winners,
    strategy_unitary,
)
from qmg.states import InitialStateRecipe, StateFamily, build_pure

PI = math.pi
RNG = np.random.default_rng(11)

angle = st.floats(-PI, PI, allow_nan=False)
theta_angle = st.floats(0, PI, allow_nan=False)


def random_params():
    return StrategyParams(
        float(RNG.uniform(0, PI)),
        float(RNG.uniform(-PI, PI)),
        float(RNG.uniform(-PI, PI)),
    )


def random_profile(n):
    return StrategyProfile(tuple(random_params() for _ in range(n)))


class TestStrategyUnitary:
    def test_identity(self):
        u = strategy_unitary(StrategyParams(0, 0, 0))
        assert np.allclose(u.entries, np.eye(2))

    def test_ne_strategy_entries(self):
        u = strategy_unitary(StrategyParams(PI / 2, -PI / 12, PI / 12)).entries
        c = math.cos(PI / 4)
        assert abs(abs(u[0, 0]) - c) < 1e-12
        assert abs(abs(u[0, 1]) - c) < 1e-12
        assert abs(u[0, 0] - np.exp(-1j * PI / 12) * c) < 1e-12
        assert abs(u[0, 1] - 1j * np.exp(1j * PI / 12) * c) < 1e-12

    def test_pareto_strategy_entries(self):
        u = strategy_unitary(StrategyParams(PI / 4, 0, 0)).entries
        c, s = math.cos(PI / 8), math.sin(PI / 8)
        assert np.allclose(u, [[c, 1j * s], [1j * s, c]])

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            StrategyParams(-0.1, 0, 0)
        with pytest.raises(ValueError):
            StrategyParams(1, 4.0, 0)

    def test_su2_membership_1000_random_triples(self):
        for _ in range(1000):
            u = strategy_unitary(random_params()).entries
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
            assert abs(np.linalg.det(u) - 1) < 1e-12

    @given(theta_angle, angle, angle)
    @settings(max_examples=200, deadline=None)
    def test_su2_membership_property(self, theta, alpha, beta):
        u = strategy_unitary(StrategyParams(theta, alpha, beta)).entries
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-12


class TestMinorityRule:
    def test_player1_minority_n4(self):
        assert minority_winners(0b1000, 4) == {1}
        assert minority_winners(0b0111, 4) == {1}

    def test_even_split_nobody_wins(self):
        assert minority_winners(0b0011, 4) == frozenset()

    def test_unanimity_nobody_wins(self):
        assert minority_winners(0, 4) == frozenset()
        assert minority_winners(15, 4) == frozenset()

    def test_two_winners_n6(self):
        assert minority_winners(0b110000, 6) == {1, 2}

    def test_projector_n4_player1(self):
        proj = minority_projector(4, 1)
        assert proj == {8, 7}

    def test_projector_cardinalities_n6(self):
        for player in range(1, 7):
            assert len(minority_projector(6, player)) == 12

    def test_projector_empty_n2(self):
        assert minority_projector(2, 1) == frozenset()

    def test_player_out_of_range(self):
        with pytest.raises(ValueError):
            minority_projector(4, 5)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_mask_matches_minority_winners(self, n):
        for player in range(1, n + 1):
            mask = minority_mask(n, player)
            assert mask.shape == (2**n,) and mask.dtype == bool
            expected = [player in minority_winners(b, n) for b in range(2**n)]
            assert mask.tolist() == expected
        with pytest.raises(ValueError):
            minority_mask(n, n + 1)

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_winner_count_is_minority_size(self, n, data):
        outcome = data.draw(st.integers(0, 2**n - 1))
        winners = minority_winners(outcome, n)
        ones = outcome.bit_count()
        if ones in (0, n) or 2 * ones == n:
            assert winners == frozenset()
        else:
            assert len(winners) == min(ones, n - ones)


class TestFinalState:
    def test_identity_profile(self):
        psi = build_pure(InitialStateRecipe(StateFamily.GHZ, 4))
        out = final_state(psi, StrategyProfile.symmetric(IDENTITY, 4))
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_all_bitflips_fix_ghz_up_to_phase(self):
        psi = build_pure(InitialStateRecipe(StateFamily.GHZ, 4))
        flip = StrategyParams(PI, 0, 0)
        out = final_state(psi, StrategyProfile.symmetric(flip, 4))
        overlap = abs(np.vdot(out.amplitudes, psi.amplitudes))
        assert abs(overlap - 1) < 1e-12

    def test_player_order_irrelevant(self):
        psi = build_pure(InitialStateRecipe(StateFamily.W3_PRODUCT, 6))
        profile = random_profile(6)
        forward = final_state(psi, profile)
        state = psi
        from qmg.core import apply_local

        for q in reversed(range(6)):
            state = apply_local(state, strategy_unitary(profile[q]), q)
        assert np.max(np.abs(forward.amplitudes - state.amplitudes)) < 1e-12

    def test_length_mismatch(self):
        psi = build_pure(InitialStateRecipe(StateFamily.GHZ, 4))
        with pytest.raises(ValueError):
            final_state(psi, StrategyProfile.symmetric(IDENTITY, 3))


class TestExpectedPayoff:
    def test_ghz6_equilibrium_payoff(self):
        spec = GameSpec(6, InitialStateRecipe(StateFamily.GHZ, 6))
        ne = StrategyParams(PI / 2, -PI / 12, PI / 12)
        payoff = expected_payoff(spec, StrategyProfile.symmetric(ne, 6), 1)
        assert abs(payoff - 5 / 16) < 1e-9

    def test_ghz_identity_pays_nothing(self):
        for n in (4, 6):
            spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
            assert expected_payoff(spec, StrategyProfile.symmetric(IDENTITY, n), 1) == 0

    def test_w3_product_identity_pays_third(self):
        spec = GameSpec(6, InitialStateRecipe(StateFamily.W3_PRODUCT, 6))
        payoff = expected_payoff(spec, StrategyProfile.symmetric(IDENTITY, 6), 1)
        assert abs(payoff - 1 / 3) < 1e-12

    def test_symmetric_state_equal_payoffs(self):
        spec = GameSpec(6, InitialStateRecipe(StateFamily.GHZ, 6))
        params = StrategyParams(1.1, 0.4, -0.3)
        payoffs = [
            expected_payoff(spec, StrategyProfile.symmetric(params, 6), p)
            for p in range(1, 7)
        ]
        assert max(payoffs) - min(payoffs) < 1e-10

    def test_noise_separation_matches_dense_path(self):
        # full density-matrix evolution as the brute-force oracle, N=4
        for _ in range(50):
            f = float(RNG.uniform(0, 1))
            recipe = InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 4, x=0.6, f=f)
            spec = GameSpec(4, recipe)
            profile = random_profile(4)
            fast = expected_payoff(spec, profile, 1)
            rho = dense_final_state(build_initial(recipe), profile)
            assert isinstance(rho, MixedState)
            dense = dense_expectation(rho, minority_projector(4, 1))
            assert abs(fast - dense) < 1e-10

    @pytest.mark.parametrize("n", [4, 6])
    def test_payoff_conservation(self, n):
        recipe = InitialStateRecipe(StateFamily.GHZ, n)
        spec = GameSpec(n, recipe)
        weights = np.array(
            [len(minority_winners(b, n)) for b in range(2**n)], dtype=float
        )
        for _ in range(100):
            profile = random_profile(n)
            total = sum(
                expected_payoff(spec, profile, p) for p in range(1, n + 1)
            )
            probs = np.abs(final_state(build_pure(recipe), profile).amplitudes) ** 2
            assert abs(total - probs @ weights) < 1e-10

    def test_classical_equivalence_on_unentangled_state(self):
        for n in (4, 6):
            recipe = InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, n, gamma=0.0)
            spec = GameSpec(n, recipe)
            uniform = StrategyParams(PI / 2, 0, 0)
            payoff = expected_payoff(spec, StrategyProfile.symmetric(uniform, n), 1)
            assert abs(payoff - float(classical_payoff(n))) < 1e-10

    def test_payoff_within_bounds_random_profiles(self):
        spec = GameSpec(6, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.4))
        for _ in range(20):
            payoff = expected_payoff(spec, random_profile(6), 1)
            assert 0 <= payoff <= float(max_symmetric_payoff(6)) * 6


class TestBaselines:
    def test_classical_payoffs_exact(self):
        assert classical_payoff(4) == Fraction(1, 8)
        assert classical_payoff(6) == Fraction(3, 16)
        assert classical_payoff(2) == 0

    def test_max_symmetric_payoffs(self):
        assert max_symmetric_payoff(6) == Fraction(1, 3)
        assert max_symmetric_payoff(4) == Fraction(1, 4)
        assert max_symmetric_payoff(2) == 0


class TestGameSpec:
    def test_recipe_size_must_match(self):
        with pytest.raises(ValueError):
            GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 6))
