import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    MixedState,
    apply_local,
    apply_local_mixed,
    dense_expectation,
    normalized,
    pure_state,
    qubit_count,
)
from qmg import game
from qmg.core import MAX_QUBITS, _check_unit_rows, apply_locals, distinct_columns
from qmg.game import GameSpec, StrategyParams, strategy_unitary
from qmg.states import InitialStateRecipe, StateFamily, build_pure

RNG = np.random.default_rng(7)


def random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return normalized(amps)


def random_unitary():
    theta = RNG.uniform(0, math.pi)
    alpha, beta = RNG.uniform(-math.pi, math.pi, size=2)
    return strategy_unitary(StrategyParams(theta, alpha, beta))


def basis(n, index):
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return pure_state(amps)


def kron_apply(state, u, qubit):
    """Brute-force oracle: materialize the full I x ... x u x ... x I."""
    ops = [np.eye(2, dtype=complex)] * qubit_count(state)
    ops[qubit] = u
    full = reduce(np.kron, ops)
    return full @ state


class TestPureState:
    """`_check_unit_rows`, the check every initial state and final row passes."""

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            _check_unit_rows(np.array([[1.0, 1.0, 0, 0]], dtype=complex))
        rows = np.array([[1, 0], [0.6, 0.8j], [0.6, 0.8 + 1e-8]], dtype=complex)
        with pytest.raises(ValueError, match=r"\|psi\| = 1\.0000000"):
            _check_unit_rows(rows)
        _check_unit_rows(rows[:2])

    def test_rejects_nonfinite(self):
        for bad in (float("nan"), float("inf"), complex(0, float("inf"))):
            rows = np.array([[1, 0], [bad, 0]], dtype=complex)
            with pytest.raises(ValueError, match="not normalized"):
                _check_unit_rows(rows)

    def test_threshold_is_1e_9(self):
        for off in (-9.9e-10, 9.9e-10):
            _check_unit_rows(np.array([[1 + off, 0]], dtype=complex))
        for off in (-1.1e-9, 1.1e-9):
            with pytest.raises(ValueError, match="not normalized"):
                _check_unit_rows(np.array([[0, 1j * (1 + off)]], dtype=complex))

    @given(st.integers(1, MAX_QUBITS), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_norms_agree_with_linalg_norm(self, n, seed):
        # a row passes exactly when np.linalg.norm puts it within 1e-9 of 1
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(3, 2**n)) + 1j * rng.normal(size=(3, 2**n))
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        rows[1] *= 1 + rng.uniform(-3e-9, 3e-9)
        if np.all(np.abs(np.linalg.norm(rows, axis=1) - 1) <= 1e-9):
            _check_unit_rows(rows)
        else:
            with pytest.raises(ValueError, match="not normalized"):
                _check_unit_rows(rows)


class TestMixedState:
    def test_rejects_nonhermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            MixedState(1, m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            MixedState(1, np.eye(2, dtype=complex))

    def test_from_pure_is_projector(self):
        psi = random_state(2)
        rho = MixedState.from_pure(psi).matrix
        assert np.allclose(rho @ rho, rho)


class TestApplyLocal:
    def test_identity_is_noop(self):
        psi = random_state(3)
        out = apply_local(psi, np.eye(2, dtype=complex), 1)
        assert np.allclose(out, psi)

    def test_bitflip_on_msb(self):
        # M(pi,0,0) is i*sigma_x; qubit 0 is the most significant bit
        out = apply_local(basis(4, 0), strategy_unitary(StrategyParams(math.pi, 0, 0)), 0)
        assert abs(out[8] - 1j) < 1e-12
        assert np.sum(np.abs(out) > 1e-12) == 1

    def test_half_rotation(self):
        out = apply_local(basis(1, 0), strategy_unitary(StrategyParams(math.pi / 2, 0, 0)), 0)
        expected = np.array([1, 1j]) / math.sqrt(2)
        assert np.allclose(out, expected, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_local(basis(2, 0), np.eye(2, dtype=complex), 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_kronecker_oracle(self, n):
        for _ in range(20):
            psi = random_state(n)
            u = random_unitary()
            q = int(RNG.integers(n))
            got = apply_local(psi, u, q)
            assert np.max(np.abs(got - kron_apply(psi, u, q))) < 1e-10

    def test_disjoint_qubits_commute(self):
        psi = random_state(4)
        u, v = random_unitary(), random_unitary()
        ab = apply_local(apply_local(psi, u, 1), v, 3)
        ba = apply_local(apply_local(psi, v, 3), u, 1)
        assert np.max(np.abs(ab - ba)) < 1e-12

    def test_norm_preserved_1000_random_pairs(self):
        for _ in range(1000):
            n = int(RNG.integers(1, 5))
            psi = apply_local(random_state(n), random_unitary(), int(RNG.integers(n)))
            assert abs(np.linalg.norm(psi) - 1) < 1e-12


def sequential(psi, us):
    """The oracle: one validated apply_local per qubit, in qubit order."""
    for q, u in enumerate(us):
        psi = apply_local(psi, u, q)
    return psi


def family_recipes():
    """Every family at every valid N up to MAX_QUBITS, at x = 0, 0.5 and 1."""
    for family in StateFamily:
        for n in range(2, MAX_QUBITS + 1):
            for x in (0.0, 0.5, 1.0):
                try:
                    recipe = InitialStateRecipe(family, n, x=x)
                except ValueError:  # n is no multiple of the family's block
                    continue
                yield pytest.param(recipe, id=f"{family.value}-{n}-x{x}")


class TestDistinctColumns:
    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_columns_spread_back_to_the_state_bytes(self, n):
        psi = random_state(n)
        columns, spread = distinct_columns(psi)
        assert spread.dtype == np.intp
        assert np.ascontiguousarray(columns[:, spread]).tobytes() == psi.tobytes()

    @pytest.mark.parametrize("recipe", list(family_recipes()))
    def test_k_is_a_power_of_two_within_the_trailing_patterns(self, recipe):
        n = recipe.n_qubits
        psi = build_pure(recipe)
        columns, spread = distinct_columns(psi)
        k = columns.shape[1]
        assert columns.shape[0] == 2 ** ((n + 1) // 2) and spread.shape == (2 ** (n // 2),)
        assert k & (k - 1) == 0 and k <= 2 ** (n // 2)
        # the padding repeats a column and only distinct columns come before it
        distinct = len(set(spread.tolist()))
        assert k // 2 < distinct <= k and set(spread.tolist()) == set(range(distinct))
        assert np.ascontiguousarray(columns[:, spread]).tobytes() == psi.tobytes()

    def test_exact_column_counts(self):
        mixture = build_pure(InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 12, x=0.5))
        assert distinct_columns(mixture)[0].shape == (64, 4)
        assert distinct_columns(random_state(12))[0].shape == (64, 64)
        assert distinct_columns(random_state(11))[0].shape == (64, 32)

    def test_columns_are_compared_by_bytes(self):
        # the columns (s, +0) and (s, -0) are equal under ==, not in bits
        s = math.sqrt(0.5)
        psi = np.array([s, s, 0.0, -0.0], dtype=complex)
        assert np.array_equal(psi.reshape(2, 2)[:, 0], psi.reshape(2, 2)[:, 1])
        columns, spread = distinct_columns(psi)
        assert columns.shape == (2, 2) and spread.tolist() == [0, 1]

    def test_results_are_read_only(self):
        columns, spread = distinct_columns(random_state(4))
        with pytest.raises(ValueError):
            columns[0, 0] = 0
        with pytest.raises(ValueError):
            spread[0] = 0


class TestApplyLocals:
    @pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
    def test_bit_identical_to_sequential_apply_local(self, n):
        # a caller-given pair, longer than the call needs and filled with
        # nan, gives the same bytes as the pair the call allocates itself
        work = np.full((2, (3 << n) + 5), np.nan, dtype=complex)
        for rows in (1, 3):
            psi = random_state(n)
            us = [[random_unitary() for _ in range(n)] for _ in range(rows)]
            for out in (apply_locals(*distinct_columns(psi), np.array(us)),
                        apply_locals(*distinct_columns(psi), np.array(us), work)):
                assert out.shape == (rows, 2**n)
                for got, row in zip(out, us):
                    assert got.tobytes() == sequential(psi, row).tobytes()
                with pytest.raises(ValueError):
                    out[0, 0] = 0

    def test_a_given_pair_holds_every_row_sized_buffer(self):
        # four N = 12 rows are 256 KiB; one row-sized temporary is 64 KiB
        n, rows = MAX_QUBITS, 4
        columns, spread = distinct_columns(random_state(n))
        us = np.array([[random_unitary() for _ in range(n)] for _ in range(rows)])
        work = np.empty((2, rows << n), dtype=complex)
        tracemalloc.start()
        try:
            out = apply_locals(columns, spread, us, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10
        assert np.shares_memory(out, work)

    def test_rejects_a_pair_that_cannot_hold_the_rows(self):
        columns, spread = distinct_columns(random_state(3))
        us = np.array([[random_unitary()] * 3] * 2)
        for work in (np.empty((2, 15), dtype=complex), np.empty((3, 16), dtype=complex),
                     np.empty((2, 16)), np.empty((2, 32), dtype=complex)[:, ::2],
                     np.empty(32, dtype=complex), np.empty((2, 1, 16), dtype=complex)):
            with pytest.raises(ValueError, match="work"):
                apply_locals(columns, spread, us, work)

    @given(st.integers(1, MAX_QUBITS), st.sampled_from([1, 3]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_batches_match_the_oracle(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        psi = normalized(rng.normal(size=2**n) + 1j * rng.normal(size=2**n))
        thetas = rng.uniform(0, math.pi, size=(rows, n))
        phases = rng.uniform(-math.pi, math.pi, size=(rows, n, 2))
        us = [
            [strategy_unitary(StrategyParams(t, *ab)) for t, ab in zip(ts, abs_)]
            for ts, abs_ in zip(thetas, phases)
        ]
        out = apply_locals(*distinct_columns(psi), np.array(us))
        for got, row in zip(out, us):
            assert np.array_equal(got, sequential(psi, row))

    @pytest.mark.parametrize("recipe", list(family_recipes()))
    def test_family_states_keep_the_oracle_bytes(self, recipe):
        # a family state has few distinct columns, so the leading group runs
        # at a narrower product width than 2^(n-1); tobytes tells -0 from +0
        n = recipe.n_qubits
        psi = build_pure(recipe)
        symmetric = [[random_unitary()] * n for _ in range(3)]
        identity_slot = [row[:] for row in symmetric]
        for row in identity_slot:
            row[int(RNG.integers(n))] = np.eye(2, dtype=complex)
        for us in ([[random_unitary() for _ in range(n)] for _ in range(3)],
                   symmetric, identity_slot):
            out = apply_locals(*distinct_columns(psi), np.array(us))
            for got, row in zip(out, us):
                assert got.tobytes() == sequential(psi, row).tobytes()

    def test_length_mismatch(self):
        columns, spread = distinct_columns(random_state(3))
        with pytest.raises(ValueError):
            apply_locals(columns, spread, np.array([[random_unitary()] * 2]))
        with pytest.raises(ValueError):
            apply_locals(columns, spread, np.array([[random_unitary()] * 4]))
        with pytest.raises(ValueError):
            apply_locals(columns, spread, np.array([[random_unitary()] * 3])[0])
        with pytest.raises(ValueError):
            apply_locals(columns, spread[:1], np.array([[random_unitary()] * 3]))

    def test_rejects_a_column_count_that_is_no_power_of_two(self):
        psi = build_pure(InitialStateRecipe(StateFamily.GHZ, 4))
        columns, spread = distinct_columns(psi)
        assert columns.shape == (4, 4) and len(set(spread.tolist())) == 3
        with pytest.raises(ValueError, match="columns"):
            apply_locals(columns[:, :3], spread, np.array([[random_unitary()] * 4]))

    def test_result_is_read_only(self):
        psi = random_state(2)
        out = apply_locals(*distinct_columns(psi), np.array([[random_unitary()] * 2]))
        with pytest.raises(ValueError):
            out[0, 0] = 0

    def test_broadcast_operands_give_the_materialised_bits(self):
        psi = random_state(6)
        row = [random_unitary() for _ in range(6)]
        columns, spread = distinct_columns(psi)
        us = np.array([row])
        want = apply_locals(columns, spread, np.repeat(us, 3, axis=0))
        got = apply_locals(columns, spread, np.broadcast_to(us, (3, 6, 2, 2)))
        assert np.array_equal(got, want)
        assert np.array_equal(got[0], sequential(psi, row))

    def test_every_row_is_norm_checked(self):
        columns, spread = distinct_columns(random_state(2))
        us = np.array([[np.eye(2)] * 2] * 3, dtype=complex)
        us[2, 1] *= 1.001  # not unitary: only the last row loses its norm
        with pytest.raises(ValueError, match="not normalized"):
            apply_locals(columns, spread, us)
        us[2, 1] = np.nan
        with pytest.raises(ValueError, match="not normalized"):
            apply_locals(columns, spread, us)


class TestApplyLocalMixed:
    def test_identity_is_noop(self):
        rho = MixedState.from_pure(random_state(2))
        out = apply_local_mixed(rho, np.eye(2, dtype=complex), 0)
        assert np.allclose(out.matrix, rho.matrix)

    def test_consistent_with_pure_path(self):
        psi = random_state(3)
        u = random_unitary()
        via_pure = MixedState.from_pure(apply_local(psi, u, 2)).matrix
        via_mixed = apply_local_mixed(MixedState.from_pure(psi), u, 2).matrix
        assert np.max(np.abs(via_pure - via_mixed)) < 1e-12

    def test_maximally_mixed_invariant(self):
        n = 3
        rho = MixedState(n, np.eye(2**n, dtype=complex) / 2**n)
        out = apply_local_mixed(rho, random_unitary(), 1)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_trace_and_hermiticity_preserved(self):
        rho = MixedState.from_pure(random_state(3))
        for q in range(3):
            rho = apply_local_mixed(rho, random_unitary(), q)
        assert abs(np.trace(rho.matrix) - 1) < 1e-12
        assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) < 1e-12


def diagonal_expectation(state, indices):
    """<psi|P|psi> as a noiseless game reads it: `game._payoff` at f = 1."""
    n = qubit_count(state)
    spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
    return game._payoff(spec, state, np.fromiter(indices, dtype=np.intp))


class TestDiagonalExpectation:
    def test_pure_hit(self):
        assert diagonal_expectation(basis(4, 0), {0}) == 1.0

    def test_pure_miss(self):
        assert diagonal_expectation(basis(4, 0), {8}) == 0.0

    def test_maximally_mixed_uniform(self):
        n = 4
        rho = MixedState(n, np.eye(2**n, dtype=complex) / 2**n)
        assert abs(dense_expectation(rho, {1, 2, 3}) - 3 / 16) < 1e-12

    @given(st.integers(2, 4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_value_in_unit_interval(self, n, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = normalized(amps)
        indices = data.draw(st.sets(st.integers(0, 2**n - 1)))
        if indices:
            value = diagonal_expectation(psi, indices)
            assert -1e-12 <= value <= 1 + 1e-12
            assert abs(value - dense_expectation(MixedState.from_pure(psi), indices)) < 1e-12
