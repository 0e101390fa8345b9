import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import MixedState, apply_local_mixed, dense_expectation
from qmg.core import LocalUnitary, PureState, apply_local, diagonal_expectation
from qmg.game import StrategyParams, strategy_unitary

RNG = np.random.default_rng(7)


def random_state(n):
    amps = RNG.normal(size=2**n) + 1j * RNG.normal(size=2**n)
    return PureState.from_amplitudes(n, amps)


def random_unitary():
    theta = RNG.uniform(0, math.pi)
    alpha, beta = RNG.uniform(-math.pi, math.pi, size=2)
    return strategy_unitary(StrategyParams(theta, alpha, beta))


def basis(n, index):
    amps = np.zeros(2**n, dtype=complex)
    amps[index] = 1.0
    return PureState(n, amps)


def kron_apply(state, u, qubit):
    """Brute-force oracle: materialize the full I x ... x u x ... x I."""
    ops = [np.eye(2, dtype=complex)] * state.n_qubits
    ops[qubit] = u.entries
    full = reduce(np.kron, ops)
    return full @ state.amplitudes


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PureState(2, np.array([1.0, 1.0, 0, 0]))

    def test_from_amplitudes_normalizes(self):
        psi = PureState.from_amplitudes(1, [3.0, 4.0])
        assert np.allclose(psi.amplitudes, [0.6, 0.8])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PureState(2, np.array([1.0, 0, 0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PureState.from_amplitudes(1, [1.0, float("nan")])


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


class TestLocalUnitary:
    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            LocalUnitary(np.array([[1, 1], [0, 1]], dtype=complex))


class TestApplyLocal:
    def test_identity_is_noop(self):
        psi = random_state(3)
        out = apply_local(psi, LocalUnitary(np.eye(2, dtype=complex)), 1)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_bitflip_on_msb(self):
        # M(pi,0,0) is i*sigma_x; qubit 0 is the most significant bit
        out = apply_local(basis(4, 0), strategy_unitary(StrategyParams(math.pi, 0, 0)), 0)
        assert abs(out.amplitudes[8] - 1j) < 1e-12
        assert np.sum(np.abs(out.amplitudes) > 1e-12) == 1

    def test_half_rotation(self):
        out = apply_local(basis(1, 0), strategy_unitary(StrategyParams(math.pi / 2, 0, 0)), 0)
        expected = np.array([1, 1j]) / math.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            apply_local(basis(2, 0), LocalUnitary(np.eye(2, dtype=complex)), 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_kronecker_oracle(self, n):
        for _ in range(20):
            psi = random_state(n)
            u = random_unitary()
            q = int(RNG.integers(n))
            got = apply_local(psi, u, q).amplitudes
            assert np.max(np.abs(got - kron_apply(psi, u, q))) < 1e-10

    def test_disjoint_qubits_commute(self):
        psi = random_state(4)
        u, v = random_unitary(), random_unitary()
        ab = apply_local(apply_local(psi, u, 1), v, 3)
        ba = apply_local(apply_local(psi, v, 3), u, 1)
        assert np.max(np.abs(ab.amplitudes - ba.amplitudes)) < 1e-12

    def test_norm_preserved_1000_random_pairs(self):
        for _ in range(1000):
            n = int(RNG.integers(1, 5))
            psi = apply_local(random_state(n), random_unitary(), int(RNG.integers(n)))
            assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12


class TestApplyLocalMixed:
    def test_identity_is_noop(self):
        rho = MixedState.from_pure(random_state(2))
        out = apply_local_mixed(rho, LocalUnitary(np.eye(2, dtype=complex)), 0)
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


class TestDiagonalExpectation:
    def test_pure_hit(self):
        assert diagonal_expectation(basis(4, 0), {0}) == 1.0

    def test_pure_miss(self):
        assert diagonal_expectation(basis(4, 0), {8}) == 0.0

    def test_maximally_mixed_uniform(self):
        n = 4
        rho = MixedState(n, np.eye(2**n, dtype=complex) / 2**n)
        assert abs(dense_expectation(rho, {1, 2, 3}) - 3 / 16) < 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            diagonal_expectation(basis(2, 0), {4})

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=50, deadline=None)
    def test_value_in_unit_interval(self, n, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi = PureState.from_amplitudes(n, amps)
        indices = data.draw(st.sets(st.integers(0, 2**n - 1)))
        if indices:
            value = diagonal_expectation(psi, indices)
            assert -1e-12 <= value <= 1 + 1e-12
