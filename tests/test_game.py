import cmath
import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    MixedState,
    apply_local,
    build_initial,
    dense_expectation,
    dense_final_state,
    final_state,
    make_noisy,
    minority_winners,
)
from paper_checks import (
    bell_product_payoff_exact,
    classical_payoff_sum,
    ghz_equilibrium_payoff_exact,
)
from qmg import game
from qmg.analysis import nash_check, ne_strategy, payoff_surface
from qmg.core import apply_locals, distinct_columns
from qmg.game import (
    IDENTITY,
    GameSpec,
    StrategyParams,
    StrategyProfile,
    classical_payoff,
    expected_payoff,
    expected_payoffs,
    final_amplitudes,
    max_symmetric_payoff,
    minority_mask,
    minority_projector,
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


fidelity = st.floats(0, 1, allow_nan=False)

# every family at N <= 8, noisy starts included
recipes = st.one_of(
    st.builds(InitialStateRecipe, st.just(StateFamily.GHZ), st.integers(2, 8), f=fidelity),
    st.builds(
        InitialStateRecipe,
        st.just(StateFamily.BELL_PRODUCT),
        st.sampled_from([2, 4, 6, 8]),
        f=fidelity,
    ),
    st.builds(
        InitialStateRecipe,
        st.just(StateFamily.GHZ_BELL_MIXTURE),
        st.sampled_from([2, 4, 6, 8]),
        x=st.floats(0, 1, allow_nan=False),
        f=fidelity,
    ),
    st.builds(
        InitialStateRecipe,
        st.just(StateFamily.EXPONENTIAL_ENTANGLER),
        st.integers(2, 8),
        gamma=st.floats(0, PI / 2, allow_nan=False),
        f=fidelity,
    ),
    st.builds(
        InitialStateRecipe, st.just(StateFamily.W3_PRODUCT), st.sampled_from([3, 6]), f=fidelity
    ),
)
strategy_params = st.builds(StrategyParams, theta_angle, angle, angle)


@st.composite
def games(draw):
    """A recipe and a profile that repeats some strategies and varies others."""
    recipe = draw(recipes)
    pool = draw(st.lists(strategy_params, min_size=1, max_size=3))
    picks = draw(
        st.lists(st.sampled_from(pool), min_size=recipe.n_qubits, max_size=recipe.n_qubits)
    )
    return recipe, StrategyProfile(tuple(picks))


@st.composite
def payoff_cases(draw):
    """A game and the 1-based player whose payoff is asked for."""
    recipe, profile = draw(games())
    return recipe, profile, draw(st.integers(1, recipe.n_qubits))


def final_row(recipe, profile):
    """The package's final amplitudes of one profile."""
    return next(final_amplitudes(GameSpec(recipe.n_qubits, recipe), [profile]))[0]


def dense_payoffs(spec, profile):
    """Every player's payoff from the package's dense final amplitudes,
    whichever engine `expected_payoff` routes the profile to."""
    row = final_row(spec.recipe, profile)
    n = spec.n_players
    return [game._payoff(spec, row, minority_projector(n, p)) for p in range(1, n + 1)]


def dense_payoff(recipe, profile, player):
    """Tr[rho_fin P_player] from the full density matrix."""
    rho = dense_final_state(make_noisy(build_pure(recipe), recipe.f), profile)
    return dense_expectation(rho, minority_projector(recipe.n_qubits, player))


class TestStrategyUnitary:
    def test_identity(self):
        u = strategy_unitary(StrategyParams(0, 0, 0))
        assert np.allclose(u, np.eye(2))

    def test_ne_strategy_entries(self):
        u = strategy_unitary(StrategyParams(PI / 2, -PI / 12, PI / 12))
        c = math.cos(PI / 4)
        assert abs(abs(u[0, 0]) - c) < 1e-12
        assert abs(abs(u[0, 1]) - c) < 1e-12
        assert abs(u[0, 0] - np.exp(-1j * PI / 12) * c) < 1e-12
        assert abs(u[0, 1] - 1j * np.exp(1j * PI / 12) * c) < 1e-12

    def test_pareto_strategy_entries(self):
        u = strategy_unitary(StrategyParams(PI / 4, 0, 0))
        c, s = math.cos(PI / 8), math.sin(PI / 8)
        assert np.allclose(u, [[c, 1j * s], [1j * s, c]])

    @given(theta_angle, angle, angle)
    @settings(max_examples=200, deadline=None)
    def test_read_only_matrix_with_the_scalar_bits(self, theta, alpha, beta):
        # the committed tables carry these bits: Python's complex arithmetic,
        # not numpy's (`analysis._su2_batch` differs in the last bit)
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        ea, eb = cmath.exp(1j * alpha), cmath.exp(1j * beta)
        want = np.array([[ea * c, 1j * eb * s], [1j * s / eb, c / ea]], dtype=complex)
        u = strategy_unitary(StrategyParams(theta, alpha, beta))
        assert u.shape == (2, 2) and u.dtype == complex
        assert not u.flags.writeable
        assert u.tobytes() == want.tobytes()

    def test_one_matrix_per_distinct_strategy(self, monkeypatch):
        calls = []

        def counted(params):
            calls.append(params)
            return strategy_unitary(params)

        monkeypatch.setattr(game, "strategy_unitary", counted)
        p, q, r = random_params(), random_params(), random_params()
        # the second profile shares p and q with the first: one matrix each
        rows = [(p, q, p, p), (r, q, p, r)]
        mats = game._unitaries([StrategyProfile(row) for row in rows])
        assert calls == [p, q, r]
        want = np.array([[strategy_unitary(s) for s in row] for row in rows])
        assert mats.tobytes() == want.tobytes()
        # the kernel reads one C-contiguous complex (B, n, 2, 2) stack
        assert mats.shape == (2, 4, 2, 2) and mats.dtype == complex
        assert mats.flags.c_contiguous

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            StrategyParams(-0.1, 0, 0)
        with pytest.raises(ValueError):
            StrategyParams(1, 4.0, 0)

    def test_su2_membership_1000_random_triples(self):
        for _ in range(1000):
            u = strategy_unitary(random_params())
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
            assert abs(np.linalg.det(u) - 1) < 1e-12

    @given(theta_angle, angle, angle)
    @settings(max_examples=200, deadline=None)
    def test_su2_membership_property(self, theta, alpha, beta):
        u = strategy_unitary(StrategyParams(theta, alpha, beta))
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
        assert frozenset(proj) == {8, 7}

    def test_projector_cardinalities_n6(self):
        for player in range(1, 7):
            assert len(minority_projector(6, player)) == 12

    def test_projector_empty_n2(self):
        assert frozenset(minority_projector(2, 1)) == frozenset()

    def test_player_out_of_range(self):
        with pytest.raises(ValueError):
            minority_projector(4, 5)

    def test_too_many_players_fail_before_building(self):
        # 2^30 outcomes would take 8 GiB of indices; the check comes first
        with pytest.raises(ValueError, match="n_qubits"):
            minority_mask(30, 1)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_mask_matches_minority_winners(self, n):
        for player in range(1, n + 1):
            mask = minority_mask(n, player)
            assert mask.shape == (2**n,) and mask.dtype == bool
            expected = [player in minority_winners(b, n) for b in range(2**n)]
            assert mask.tolist() == expected
        with pytest.raises(ValueError):
            minority_mask(n, n + 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_moving_a_players_qubit_first_gives_player_ones_mask(self, n):
        # the best-response search keeps one mask for every deviator on this
        first = minority_mask(n, 1)
        for player in range(1, n + 1):
            mask = minority_mask(n, player).reshape([2] * n)
            moved = np.moveaxis(mask, player - 1, 0).reshape(-1)
            assert np.array_equal(moved, first), player

    def test_mask_is_memoised_and_read_only(self):
        mask = minority_mask(6, 2)
        assert minority_mask(6, 2) is mask
        assert not mask.flags.writeable

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
        recipe = InitialStateRecipe(StateFamily.GHZ, 4)
        out = final_row(recipe, StrategyProfile.symmetric(IDENTITY, 4))
        assert np.allclose(out, build_pure(recipe))

    def test_all_bitflips_fix_ghz_up_to_phase(self):
        recipe = InitialStateRecipe(StateFamily.GHZ, 4)
        flip = StrategyParams(PI, 0, 0)
        out = final_row(recipe, StrategyProfile.symmetric(flip, 4))
        overlap = abs(np.vdot(out, build_pure(recipe)))
        assert abs(overlap - 1) < 1e-12

    def test_player_order_irrelevant(self):
        recipe = InitialStateRecipe(StateFamily.W3_PRODUCT, 6)
        profile = random_profile(6)
        forward = final_row(recipe, profile)
        state = build_pure(recipe)
        for q in reversed(range(6)):
            state = apply_local(state, strategy_unitary(profile[q]), q)
        assert np.max(np.abs(forward - state)) < 1e-12

    def test_length_mismatch(self):
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 4))
        with pytest.raises(ValueError):
            next(final_amplitudes(spec, [StrategyProfile.symmetric(IDENTITY, 3)]))


class TestPayoffPath:
    @given(games())
    @settings(max_examples=100, deadline=None)
    def test_final_state_bit_identical_to_sequential_apply_local(self, case):
        recipe, profile = case
        state = final_state(build_pure(recipe), profile)
        assert np.array_equal(final_row(recipe, profile), state)

    @given(st.lists(payoff_cases(), min_size=2, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_interleaved_payoffs_match_dense_oracle(self, cases):
        # forward then backward, so every memo is hit after other recipes
        for recipe, profile, player in cases + cases[::-1]:
            spec = GameSpec(recipe.n_qubits, recipe)
            fast = expected_payoff(spec, profile, player)
            assert abs(fast - dense_payoff(recipe, profile, player)) < 1e-10

    def test_memoised_initial_state_is_read_only(self):
        recipe = InitialStateRecipe(StateFamily.GHZ, 4)
        expected_payoff(GameSpec(4, recipe), random_profile(4), 1)
        initial = game._initial_state(game._state_key(recipe))
        assert initial is game._initial_state(game._state_key(recipe))
        for array in initial:  # the distinct columns and their spread
            with pytest.raises(ValueError):
                array[0] = 0
        winning = minority_projector(4, 1)
        with pytest.raises(ValueError):
            winning[0] = 0

    @pytest.mark.parametrize("n", [2, 4, 7, 12])
    def test_winning_indices_keep_the_projector_order(self, n):
        for player in range(1, n + 1):
            winning = minority_projector(n, player)
            assert winning is minority_projector(n, player)
            assert winning.dtype == np.intp
            order = frozenset(np.flatnonzero(minority_mask(n, player)).tolist())
            assert winning.tolist() == list(order)

    def test_every_payoff_goes_through_the_projector(self, monkeypatch):
        # the benchmark tracer counts the projector once per payoff
        calls = []
        projector = game.minority_projector

        def counted(n, player):
            calls.append((n, player))
            return projector(n, player)

        monkeypatch.setattr(game, "minority_projector", counted)
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 4))
        profile = random_profile(4)
        for _ in range(2):
            for player in range(1, 5):
                expected_payoff(spec, profile, player)
        assert calls == [(4, p) for p in range(1, 5)] * 2

    def test_initial_state_misses_go_through_build_pure(self, monkeypatch):
        # a memo miss reaches the module-level build_pure the tracer wraps;
        # the memo holds four recipes and drops the least recently used
        built = _count_builds(monkeypatch)
        ghz = InitialStateRecipe(StateFamily.GHZ, 4)
        bell = InitialStateRecipe(StateFamily.BELL_PRODUCT, 4)
        e1, e2, e3 = (
            InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 4, gamma=gamma)
            for gamma in (0.3, 0.7, 1.1)
        )
        profile = random_profile(4)
        for recipe in (ghz, ghz, bell, bell, ghz, e1, e2, e3, ghz, bell):
            expected_payoff(GameSpec(4, recipe), profile, 1)
        assert built == [ghz, bell, e1, e2, e3, bell]

    def test_noisy_payoff_is_f_times_the_pure_payoff_plus_the_floor(self):
        recipe = InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.5, f=0.9)
        twin = GameSpec(6, dataclasses.replace(recipe, f=1.0))
        assert game._state_key(twin.recipe) == game._state_key(recipe)
        profile = random_profile(6)
        for player in (1, 6):
            k = len(minority_projector(6, player))
            want = 0.9 * expected_payoff(twin, profile, player) + (1 - 0.9) * k / 2**6
            game._evaluation.cache_clear()  # a miss, then a hit
            assert expected_payoff(GameSpec(6, recipe), profile, player) == want
            assert expected_payoff(GameSpec(6, recipe), profile, player) == want

    def test_a_nash_pass_builds_each_initial_state_once(self, monkeypatch):
        # the benchmark's nash pass: GHZ, the noisy mixture and Bell at
        # N = 10, then GHZ at N = 12, in turn and then again
        built = _count_builds(monkeypatch)
        mixture = InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 10, x=0.5, f=0.9)
        recipes = [
            InitialStateRecipe(StateFamily.GHZ, 10),
            mixture,
            InitialStateRecipe(StateFamily.BELL_PRODUCT, 10),
            InitialStateRecipe(StateFamily.GHZ, 12),
        ]
        for recipe in recipes * 2:
            n = recipe.n_qubits
            profile = StrategyProfile.symmetric(ne_strategy(n), n)
            nash_check(GameSpec(n, recipe), profile, grid_resolution=3)
        # final_amplitudes builds the mixture at f = 1: build_pure never reads f
        assert built == [recipes[0], dataclasses.replace(mixture, f=1.0)] + recipes[2:]


def _count_builds(monkeypatch):
    """Clear the initial-state memo and record each recipe that reaches
    `build_pure` from then on; returns the record."""
    built = []
    build_pure = game.build_pure

    def counted(recipe):
        built.append(recipe)
        return build_pure(recipe)

    monkeypatch.setattr(game, "build_pure", counted)
    game._initial_state.cache_clear()
    return built


def profiles_for(n):
    return st.lists(strategy_params, min_size=n, max_size=n).map(
        lambda s: StrategyProfile(tuple(s))
    )


def _non_symmetric_surface():
    """625 N = 12 profiles, a 25 x 25 surface's batch, none symmetric, so
    all of them take the dense engine."""
    rng = np.random.default_rng(625)
    return [
        StrategyProfile(tuple(StrategyParams(*map(float, t)) for t in _random_angles(rng, 12)))
        for _ in range(625)
    ]


def _random_angles(rng, n):
    """n (theta, alpha, beta) triples drawn uniformly from their boxes."""
    return zip(rng.uniform(0, PI, n), rng.uniform(-PI, PI, n), rng.uniform(-PI, PI, n))


# every family at every N in 9..12 that it allows, the mixture at three x
LARGE_RECIPES = (
    [InitialStateRecipe(StateFamily.GHZ, n) for n in range(9, 13)]
    + [InitialStateRecipe(StateFamily.BELL_PRODUCT, n) for n in (10, 12)]
    + [
        InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, n, x=x)
        for n in (10, 12)
        for x in (0.0, 0.5, 1.0)
    ]
    + [
        InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, n, gamma=gamma)
        for n in range(9, 13)
        for gamma in (PI / 2, 0.7)
    ]
    + [InitialStateRecipe(StateFamily.W3_PRODUCT, n) for n in (9, 12)]
)


@st.composite
def batches(draw, max_n=8):
    """A recipe, 1-5 profiles for it, some symmetric, a player and a kernel budget.

    The budget holds one row, two rows or the default, so the batch
    often crosses a chunk boundary.
    """
    recipe = draw(recipes.filter(lambda r: r.n_qubits <= max_n))
    n = recipe.n_qubits
    # symmetric profiles take the structured engine at N >= 7, so batches
    # there are mixed
    symmetric = strategy_params.map(lambda p: StrategyProfile.symmetric(p, n))
    profiles = draw(st.lists(st.one_of(profiles_for(n), symmetric), min_size=1, max_size=5))
    budget = draw(st.sampled_from([2**n, 2 * 2**n, game.PAYOFF_CHUNK]))
    return recipe, profiles, draw(st.integers(1, n)), budget


class TestBatchedPayoffs:
    @given(recipes, st.sampled_from([1, 3]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_apply_local_for_every_family(self, recipe, rows, data):
        n = recipe.n_qubits
        psi = build_pure(recipe)
        profiles = [data.draw(profiles_for(n)) for _ in range(rows)]
        work = np.empty((2, rows << n), dtype=complex)
        out = apply_locals(*distinct_columns(psi), game._unitaries(profiles), work)
        for got, profile in zip(out, profiles):
            state = psi
            for q, params in enumerate(profile.strategies):
                state = apply_local(state, strategy_unitary(params), q)
            assert np.array_equal(got, state)

    @given(batches())
    @settings(max_examples=60, deadline=None)
    def test_batch_equals_one_payoff_at_a_time(self, case):
        recipe, profiles, player, budget = case
        spec = GameSpec(recipe.n_qubits, recipe)
        with mock.patch.object(game, "PAYOFF_CHUNK", budget):
            batched = expected_payoffs(spec, profiles, player)
        assert batched == [expected_payoff(spec, p, player) for p in profiles]

    @given(
        recipes.filter(lambda r: r.n_qubits <= 6),
        st.integers(2, 4),
        st.integers(2, 4),
        st.sampled_from([1, 3, 64]),
    )
    @settings(max_examples=40, deadline=None)
    def test_surface_is_the_pointwise_payoff(self, recipe, theta_steps, alpha_steps, rows):
        n = recipe.n_qubits
        spec = GameSpec(n, recipe)
        with mock.patch.object(game, "PAYOFF_CHUNK", rows * 2**n):
            surface = payoff_surface(spec, theta_steps, alpha_steps)
        pointwise = [
            expected_payoff(
                spec,
                StrategyProfile.symmetric(
                    StrategyParams(row.theta, row.alpha, -row.alpha), n
                ),
                1,
            )
            for row in surface
        ]
        assert [row.payoff_simulated for row in surface] == pointwise

    @pytest.mark.parametrize(
        "recipe", LARGE_RECIPES, ids=lambda r: f"{r.family.value}-{r.n_qubits}-x{r.x}-g{r.gamma:.2f}"
    )
    def test_default_budget_batches_bit_for_bit_at_large_n(self, recipe):
        # under the default budget these N run several rows per kernel
        # call; five profiles leave a part-filled last chunk at N = 11, 12
        n = recipe.n_qubits
        spec = GameSpec(n, recipe)
        rng = np.random.default_rng(n)
        profiles = [
            StrategyProfile(tuple(StrategyParams(*map(float, t)) for t in _random_angles(rng, n)))
            for _ in range(5)
        ]
        # and symmetric ones between them, which take the structured engine
        for k in (4, 2, 0):
            profiles.insert(k, StrategyProfile.symmetric(profiles[k][0], n))
        for player in (1, n):
            batched = expected_payoffs(spec, profiles, player)
            assert batched == [expected_payoff(spec, p, player) for p in profiles]

    def test_n12_surface_runs_four_rows_per_kernel_call(self, monkeypatch):
        # a budget that slips back to one or two rows per call fails here;
        # a surface's size in non-symmetric profiles, which stay dense
        rows = []

        def counted(columns, spread, u, *args):
            rows.append(len(u))
            return apply_locals(columns, spread, u, *args)

        monkeypatch.setattr(game, "apply_locals", counted)
        spec = GameSpec(12, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 12, x=0.5))
        expected_payoffs(spec, _non_symmetric_surface(), 1)
        assert rows == [4] * 156 + [1]  # ceil(625 / 4) calls

    def test_surface_hands_one_work_pair_to_every_kernel_call(self, monkeypatch):
        # the batch allocates its pair once, sized for a full chunk
        pairs = []

        def recorded(columns, spread, u, work=None):
            pairs.append(work)
            return apply_locals(columns, spread, u, work)

        monkeypatch.setattr(game, "apply_locals", recorded)
        spec = GameSpec(12, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 12, x=0.5))
        expected_payoffs(spec, _non_symmetric_surface(), 1)
        assert len(pairs) == 157 and all(work is pairs[0] for work in pairs)
        assert pairs[0].shape == (2, game.PAYOFF_CHUNK)

    def test_profile_length_is_checked(self):
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 4))
        with pytest.raises(ValueError):
            expected_payoffs(spec, [random_profile(4), random_profile(3)], 1)


class TestFinalStateMemo:
    @given(st.lists(payoff_cases(), min_size=2, max_size=6), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_interleaved_calls_give_the_unmemoised_payoffs(self, cases, rnd):
        def fresh(recipe, profile, player):
            game._evaluation.cache_clear()
            return expected_payoff(GameSpec(recipe.n_qubits, recipe), profile, player)

        want = [fresh(*case) for case in cases]
        order = list(range(len(cases))) * 2
        rnd.shuffle(order)
        for i in order:
            recipe, profile, player = cases[i]
            got = expected_payoff(GameSpec(recipe.n_qubits, recipe), profile, player)
            assert got == want[i]

    def test_one_final_state_per_profile(self, monkeypatch):
        # a memo miss calls final_amplitudes through the module, as patched here
        built = []
        build = game.final_amplitudes

        def counted(spec, profiles):
            built.append(list(profiles))
            return build(spec, profiles)

        monkeypatch.setattr(game, "final_amplitudes", counted)
        game._evaluation.cache_clear()
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 4))
        first, second = random_profile(4), random_profile(4)
        for profile in (first, first, second):
            for player in range(1, 5):
                expected_payoff(spec, profile, player)
        assert built == [[first], [second]]

    def test_an_equal_profile_object_hits_the_memo(self, monkeypatch):
        built = []
        build = game.final_amplitudes

        def counted(spec, profiles):
            built.append(list(profiles))
            return build(spec, profiles)

        monkeypatch.setattr(game, "final_amplitudes", counted)
        game._evaluation.cache_clear()
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 4))
        first = random_profile(4)
        # new StrategyParams objects too, so nothing is shared but the values
        second = StrategyProfile(tuple(StrategyParams(*vars(p).values()) for p in first))
        assert second is not first and second == first and hash(second) == hash(first)
        payoff = expected_payoff(spec, first, 2)
        assert expected_payoff(spec, second, 2) == payoff
        assert built == [[first]]

    @pytest.mark.parametrize("n", [6, 12])
    def test_a_warm_noisy_payoff_builds_no_spec_or_recipe(self, monkeypatch, n):
        # the memo is keyed on the recipe's fields other than f
        recipe = InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, n, x=0.5, f=0.9)
        spec = GameSpec(n, recipe)
        profile = StrategyProfile.symmetric(ne_strategy(n), n)
        expected_payoff(spec, profile, 1)
        built = []
        for cls in (GameSpec, InitialStateRecipe):
            def counted(self, post_init=cls.__post_init__):
                built.append(type(self))
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        for player in range(1, n + 1):
            expected_payoff(spec, profile, player)
        assert built == []
        dataclasses.replace(spec, recipe=dataclasses.replace(recipe, f=1.0))
        assert built == [InitialStateRecipe, GameSpec]  # the count sees a rebuild

    def test_memoised_row_is_read_only(self):
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 4))
        profile = random_profile(4)
        expected_payoff(spec, profile, 1)
        row = game._evaluation(game._state_key(spec.recipe), profile)
        assert row is game._evaluation(game._state_key(spec.recipe), profile)
        with pytest.raises(ValueError):
            row[0] = 0


class TestInvariants:
    @given(games())
    @settings(max_examples=60, deadline=None)
    def test_payoffs_sum_to_expected_minority_size(self, case):
        recipe, profile = case
        n = recipe.n_qubits
        spec = GameSpec(n, recipe)
        total = sum(expected_payoff(spec, profile, p) for p in range(1, n + 1))
        sizes = np.array([len(minority_winners(b, n)) for b in range(2**n)], dtype=float)
        rho = dense_final_state(make_noisy(build_pure(recipe), recipe.f), profile)
        assert abs(total - rho.diagonal() @ sizes) < 1e-10
        assert total <= (n - 1) // 2 + 1e-12

    @given(
        st.sampled_from(
            [(StateFamily.GHZ, n) for n in range(2, 9)]
            + [(StateFamily.BELL_PRODUCT, n) for n in (2, 4, 6, 8)]
            + [(StateFamily.W3_PRODUCT, n) for n in (3, 6)]
        ),
        strategy_params,
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetric_play_pays_players_equally(self, family_n, params):
        family, n = family_n
        spec = GameSpec(n, InitialStateRecipe(family, n))
        profile = StrategyProfile.symmetric(params, n)
        payoffs = [expected_payoff(spec, profile, p) for p in range(1, n + 1)]
        assert max(payoffs) - min(payoffs) < 1e-10

    @given(payoff_cases(), fidelity)
    @settings(max_examples=60, deadline=None)
    def test_noisy_payoff_is_affine_in_f(self, case, f):
        recipe, profile, player = case
        n = recipe.n_qubits

        def payoff(fid):
            spec = GameSpec(n, dataclasses.replace(recipe, f=fid))
            return expected_payoff(spec, profile, player)

        assert payoff(0.0) == len(minority_projector(n, player)) / 2**n
        assert abs(payoff(f) - (f * payoff(1.0) + (1 - f) * payoff(0.0))) < 1e-12


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
            probs = np.abs(final_state(build_pure(recipe), profile)) ** 2
            assert abs(total - probs @ weights) < 1e-10

    def test_profile_length_is_checked(self):
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 4))
        with pytest.raises(ValueError):
            expected_payoff(spec, random_profile(3), 1)

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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_classical_payoff_counts_winning_outcomes(self, n):
        assert classical_payoff(n) == Fraction(len(minority_projector(n, 1)), 2**n)

    def test_classical_payoff_is_the_binomial_sum(self):
        for n in range(2, 401):
            assert classical_payoff(n) == classical_payoff_sum(n), n

    def test_classical_payoff_closed_form_at_large_n(self):
        # one binomial: the sum over minority sizes would take minutes here
        assert float(classical_payoff(100_000)) == 0.49747687378580324

    def test_classical_payoff_needs_two_players(self):
        with pytest.raises(ValueError):
            classical_payoff(1)

    def test_max_symmetric_payoffs(self):
        assert max_symmetric_payoff(6) == Fraction(1, 3)
        assert max_symmetric_payoff(4) == Fraction(1, 4)
        assert max_symmetric_payoff(2) == 0

    def test_max_symmetric_payoff_needs_two_players(self):
        with pytest.raises(ValueError, match="need at least 2 players"):
            max_symmetric_payoff(1)


class TestGhzEquilibrium:
    """`ghz_equilibrium_payoff_exact`: every player's payoff from the GHZ
    state under `ne_strategy(N)`."""

    def test_is_the_classical_payoff_at_odd_n_and_at_n_minus_1_at_even_n(self):
        for n in range(3, 301):
            want = classical_payoff_sum(n - 1 if n % 2 == 0 else n)
            assert ghz_equilibrium_payoff_exact(n) == want, n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_the_dense_engine_pays_it_to_every_player(self, n):
        spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
        profile = StrategyProfile.symmetric(ne_strategy(n), n)
        want = float(ghz_equilibrium_payoff_exact(n))
        for payoff in dense_payoffs(spec, profile):
            assert abs(payoff - want) <= 1e-12


class TestBellProduct:
    """`bell_product_payoff_exact`: every player's payoff from the Bell
    product when each pair plays M(pi/2, alpha, beta)."""

    def test_is_the_classical_payoff_of_the_pairs(self):
        for n in range(4, 301, 2):
            assert bell_product_payoff_exact(n) == classical_payoff_sum(n // 2), n

    @pytest.mark.parametrize("n", range(4, 13, 2))
    def test_the_dense_engine_pays_it_to_every_player(self, n):
        spec = GameSpec(n, InitialStateRecipe(StateFamily.BELL_PRODUCT, n))
        want = float(bell_product_payoff_exact(n))
        for _ in range(3):
            pairs = [StrategyParams(PI / 2, *RNG.uniform(-PI, PI, 2)) for _ in range(n // 2)]
            profile = StrategyProfile(tuple(p for p in pairs for _ in range(2)))
            for payoff in dense_payoffs(spec, profile):
                assert abs(payoff - want) <= 1e-12


class TestStrategyProfile:
    @pytest.mark.parametrize("player", [0, -1, 5])
    def test_replace_rejects_players_out_of_range(self, player):
        with pytest.raises(ValueError):
            random_profile(4).replace(player, IDENTITY)

    def test_equal_profiles_hash_equal(self):
        profile = random_profile(5)
        copy = StrategyProfile(list(profile.strategies))
        assert copy == profile and hash(copy) == hash(profile)
        assert hash(profile) == hash(profile.strategies)
        other = profile.replace(3, IDENTITY)
        assert other != profile and hash(other) == hash(other.strategies)
        replaced = dataclasses.replace(other, strategies=profile.strategies)
        assert replaced == profile and hash(replaced) == hash(profile)

    def test_rejects_entries_that_are_not_strategies(self):
        with pytest.raises(TypeError, match="profile entries must be StrategyParams"):
            StrategyProfile((IDENTITY, (0.0, 0.0, 0.0)))


class TestGameSpec:
    def test_needs_two_players(self):
        with pytest.raises(ValueError, match="need at least 2 players"):
            GameSpec(1, InitialStateRecipe(StateFamily.GHZ, 2))

    def test_recipe_size_must_match(self):
        with pytest.raises(ValueError):
            GameSpec(4, InitialStateRecipe(StateFamily.GHZ, 6))

    @pytest.mark.parametrize("n", [4.0, 4.5, "4"])
    def test_rejects_non_int_player_count(self, n):
        with pytest.raises(ValueError, match=f"n_players must be an int, got {n!r}"):
            GameSpec(n, InitialStateRecipe(StateFamily.GHZ, 4))

    def test_accepts_numpy_int_sizes(self):
        spec = GameSpec(np.int64(4), InitialStateRecipe(StateFamily.GHZ, np.int64(4)))
        assert expected_payoff(spec, StrategyProfile.symmetric(IDENTITY, 4), 1) == 0.0
