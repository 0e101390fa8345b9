import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import build_initial, make_noisy
from qmg.states import (
    InitialStateRecipe,
    StateFamily,
    build_pure,
    make_bell_product,
    make_exponential,
    make_ghz,
    make_ghz_bell_mixture,
    make_w3_product,
)


def taylor_expm(matrix, terms=60):
    """Matrix exponential by plain Taylor summation (test oracle only)."""
    acc = np.eye(matrix.shape[0], dtype=complex)
    term = np.eye(matrix.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ matrix / k
        acc = acc + term
    return acc


class TestGhz:
    def test_n2(self):
        psi = make_ghz(2)
        assert np.allclose(psi.amplitudes[[0, 3]], 1 / math.sqrt(2))
        assert np.allclose(psi.amplitudes[[1, 2]], 0)

    def test_n6(self):
        psi = make_ghz(6)
        assert abs(psi.amplitudes[0] - 1 / math.sqrt(2)) < 1e-12
        assert abs(psi.amplitudes[63] - 1 / math.sqrt(2)) < 1e-12

    def test_self_overlap(self):
        psi = make_ghz(4)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1) < 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_ghz(1)


class TestBellProduct:
    def test_n2(self):
        psi = make_bell_product(2)
        assert np.allclose(psi.amplitudes[[1, 2]], 1 / math.sqrt(2))

    def test_n4(self):
        psi = make_bell_product(4)
        nonzero = np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0]
        assert set(nonzero) == {5, 6, 9, 10}
        assert np.allclose(psi.amplitudes[nonzero], 0.5)

    def test_n6_matches_tensor_expansion(self):
        # independent oracle: expand (|01>+|10>)/sqrt(2) term by term
        expected = np.zeros(64)
        for a in (1, 2):
            for b in (1, 2):
                for c in (1, 2):
                    expected[(a << 4) | (b << 2) | c] = 1 / (2 * math.sqrt(2))
        psi = make_bell_product(6)
        assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            make_bell_product(3)


class TestGhzBellMixture:
    def test_x1_is_ghz(self):
        assert np.allclose(
            make_ghz_bell_mixture(6, 1.0).amplitudes, make_ghz(6).amplitudes
        )

    def test_x0_is_bell_product(self):
        assert np.allclose(
            make_ghz_bell_mixture(6, 0.0).amplitudes, make_bell_product(6).amplitudes
        )

    def test_intermediate_amplitudes_n4(self):
        x = 1 / math.sqrt(2)
        psi = make_ghz_bell_mixture(4, x)
        assert abs(psi.amplitudes[0] - 0.5) < 1e-12
        assert abs(psi.amplitudes[15] - 0.5) < 1e-12
        # Bell terms carry sqrt(1-x^2) times the product amplitude 1/2
        assert abs(psi.amplitudes[5] - 0.5 * math.sqrt(0.5)) < 1e-12

    def test_unit_norm_without_renormalization_kick(self):
        for x in np.linspace(0, 1, 21):
            psi = make_ghz_bell_mixture(6, float(x))
            assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    def test_continuity_in_x(self):
        prev = make_ghz_bell_mixture(6, 0.5).amplitudes
        step = 1e-4
        nxt = make_ghz_bell_mixture(6, 0.5 + step).amplitudes
        assert np.max(np.abs(nxt - prev)) < 1e-3

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            make_ghz_bell_mixture(4, 1.2)
        with pytest.raises(ValueError):
            make_ghz_bell_mixture(5, 0.5)


class TestNoisy:
    def test_f1_is_projector(self):
        psi = make_ghz(2)
        rho = make_noisy(psi, 1.0).matrix
        assert np.allclose(rho, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    def test_f0_is_maximally_mixed(self):
        rho = make_noisy(make_ghz(3), 0.0).matrix
        assert np.allclose(rho, np.eye(8) / 8)

    def test_half_noise_diagonal(self):
        amps = np.zeros(4)
        amps[0] = 1.0
        from qmg.core import PureState

        rho = make_noisy(PureState(2, amps), 0.5)
        assert np.allclose(rho.diagonal(), [0.625, 0.125, 0.125, 0.125])

    def test_diagonal_formula_random_state(self):
        rng = np.random.default_rng(3)
        from qmg.core import PureState

        psi = PureState.from_amplitudes(3, rng.normal(size=8) + 1j * rng.normal(size=8))
        f = 0.7
        rho = make_noisy(psi, f)
        expected = f * np.abs(psi.amplitudes) ** 2 + (1 - f) / 8
        assert np.max(np.abs(rho.diagonal() - expected)) < 1e-12

    def test_rejects_bad_f(self):
        with pytest.raises(ValueError):
            make_noisy(make_ghz(2), -0.1)


class TestExponential:
    def test_gamma_zero_is_ground(self):
        psi = make_exponential(4, 0.0)
        assert abs(psi.amplitudes[0] - 1) < 1e-12

    def test_gamma_max(self):
        psi = make_exponential(4, math.pi / 2)
        assert abs(psi.amplitudes[0] - 1 / math.sqrt(2)) < 1e-12
        assert abs(psi.amplitudes[15] - 1j / math.sqrt(2)) < 1e-12

    def test_gamma_third(self):
        psi = make_exponential(2, math.pi / 3)
        assert abs(psi.amplitudes[0] - math.sqrt(3) / 2) < 1e-12
        assert abs(psi.amplitudes[3] - 0.5j) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_matrix_exponential_oracle(self, n):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        xn = x
        for _ in range(n - 1):
            xn = np.kron(xn, x)
        for gamma in (0.0, 0.4, 1.1, math.pi / 2):
            j = taylor_expm(1j * gamma / 2 * xn)
            ground = np.zeros(2**n, dtype=complex)
            ground[0] = 1.0
            expected = j @ ground
            got = make_exponential(n, gamma).amplitudes
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_exponential(4, 2.0)


class TestW3Product:
    def test_single_w3(self):
        psi = make_w3_product(3)
        nonzero = np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0]
        assert set(nonzero) == {1, 2, 4}
        assert np.allclose(psi.amplitudes[nonzero], 1 / math.sqrt(3))

    def test_two_factors_nine_terms(self):
        psi = make_w3_product(6)
        nonzero = np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0]
        assert len(nonzero) == 9
        assert np.allclose(psi.amplitudes[nonzero], 1 / 3)

    def test_every_term_has_two_ones(self):
        psi = make_w3_product(6)
        for b in np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0]:
            assert int(b).bit_count() == 2
            # exactly one 1-bit per triple of qubits
            assert (int(b) >> 3).bit_count() == 1

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            make_w3_product(4)


class TestRecipeAndDispatch:
    def test_mixture_needs_even_n(self):
        with pytest.raises(ValueError):
            InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 5)

    def test_w3_needs_multiple_of_three(self):
        with pytest.raises(ValueError):
            InitialStateRecipe(StateFamily.W3_PRODUCT, 4)

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            InitialStateRecipe(StateFamily.GHZ, 4, x=-0.1)
        with pytest.raises(ValueError):
            InitialStateRecipe(StateFamily.GHZ, 4, f=1.1)
        with pytest.raises(ValueError):
            InitialStateRecipe(StateFamily.GHZ, 4, gamma=3.0)

    def test_ghz_dispatch(self):
        state = build_initial(InitialStateRecipe(StateFamily.GHZ, 6))
        assert np.allclose(state.amplitudes, make_ghz(6).amplitudes)

    def test_noisy_dispatch_composes(self):
        recipe = InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.5, f=0.8)
        rho = build_initial(recipe)
        expected = make_noisy(make_ghz_bell_mixture(6, 0.5), 0.8)
        assert np.max(np.abs(rho.matrix - expected.matrix)) < 1e-12

    def test_entangler_dispatch_gamma_zero(self):
        recipe = InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 4, gamma=0.0)
        state = build_initial(recipe)
        assert abs(state.amplitudes[0] - 1) < 1e-12

    @given(
        st.sampled_from(list(StateFamily)),
        st.integers(1, 2),
        st.floats(0, 1),
        st.floats(0, math.pi / 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_pure_state_normalized(self, family, size, x, gamma):
        n = {StateFamily.W3_PRODUCT: 3 * size}.get(family, 2 * size + 2)
        recipe = InitialStateRecipe(family, n, x=x, gamma=gamma)
        psi = build_pure(recipe)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12
