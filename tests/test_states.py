import hashlib
import itertools
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import build_initial, make_noisy
from qmg.states import _FAMILIES, InitialStateRecipe, StateFamily, build_pure

DIGESTS = pathlib.Path(__file__).with_name("state_digests.json")


def pure(family, n, **params):
    """The pure state of the recipe (family, n, params)."""
    return build_pure(InitialStateRecipe(family, n, **params))


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
        psi = pure(StateFamily.GHZ, 2)
        assert np.allclose(psi.amplitudes[[0, 3]], 1 / math.sqrt(2))
        assert np.allclose(psi.amplitudes[[1, 2]], 0)

    def test_n6(self):
        psi = pure(StateFamily.GHZ, 6)
        assert abs(psi.amplitudes[0] - 1 / math.sqrt(2)) < 1e-12
        assert abs(psi.amplitudes[63] - 1 / math.sqrt(2)) < 1e-12

    def test_self_overlap(self):
        psi = pure(StateFamily.GHZ, 4)
        assert abs(np.vdot(psi.amplitudes, psi.amplitudes) - 1) < 1e-12

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n_qubits must be >= 2"):
            InitialStateRecipe(StateFamily.GHZ, 1)


class TestBellProduct:
    def test_n2(self):
        psi = pure(StateFamily.BELL_PRODUCT, 2)
        assert np.allclose(psi.amplitudes[[1, 2]], 1 / math.sqrt(2))

    def test_n4(self):
        psi = pure(StateFamily.BELL_PRODUCT, 4)
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
        psi = pure(StateFamily.BELL_PRODUCT, 6)
        assert np.max(np.abs(psi.amplitudes - expected)) < 1e-12

    def test_rejects_odd(self):
        with pytest.raises(ValueError, match="bell requires even n_qubits"):
            InitialStateRecipe(StateFamily.BELL_PRODUCT, 3)


class TestGhzBellMixture:
    def test_x1_is_ghz(self):
        assert np.allclose(
            pure(StateFamily.GHZ_BELL_MIXTURE, 6, x=1.0).amplitudes,
            pure(StateFamily.GHZ, 6).amplitudes,
        )

    def test_x0_is_bell_product(self):
        assert np.allclose(
            pure(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.0).amplitudes,
            pure(StateFamily.BELL_PRODUCT, 6).amplitudes,
        )

    def test_intermediate_amplitudes_n4(self):
        x = 1 / math.sqrt(2)
        psi = pure(StateFamily.GHZ_BELL_MIXTURE, 4, x=x)
        assert abs(psi.amplitudes[0] - 0.5) < 1e-12
        assert abs(psi.amplitudes[15] - 0.5) < 1e-12
        # Bell terms carry sqrt(1-x^2) times the product amplitude 1/2
        assert abs(psi.amplitudes[5] - 0.5 * math.sqrt(0.5)) < 1e-12

    def test_unit_norm_without_renormalization_kick(self):
        for x in np.linspace(0, 1, 21):
            psi = pure(StateFamily.GHZ_BELL_MIXTURE, 6, x=float(x))
            assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12

    def test_continuity_in_x(self):
        prev = pure(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.5).amplitudes
        step = 1e-4
        nxt = pure(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.5 + step).amplitudes
        assert np.max(np.abs(nxt - prev)) < 1e-3

    def test_domain_checks(self):
        with pytest.raises(ValueError, match=r"x must be in \[0, 1\], got 1.2"):
            InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 4, x=1.2)
        with pytest.raises(ValueError, match="mixture requires even n_qubits"):
            InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 5, x=0.5)


class TestNoisy:
    def test_f1_is_projector(self):
        psi = pure(StateFamily.GHZ, 2)
        rho = make_noisy(psi, 1.0).matrix
        assert np.allclose(rho, np.outer(psi.amplitudes, psi.amplitudes.conj()))

    def test_f0_is_maximally_mixed(self):
        rho = make_noisy(pure(StateFamily.GHZ, 3), 0.0).matrix
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
            make_noisy(pure(StateFamily.GHZ, 2), -0.1)


class TestExponential:
    def test_gamma_zero_is_ground(self):
        psi = pure(StateFamily.EXPONENTIAL_ENTANGLER, 4, gamma=0.0)
        assert abs(psi.amplitudes[0] - 1) < 1e-12

    def test_gamma_max(self):
        psi = pure(StateFamily.EXPONENTIAL_ENTANGLER, 4, gamma=math.pi / 2)
        assert abs(psi.amplitudes[0] - 1 / math.sqrt(2)) < 1e-12
        assert abs(psi.amplitudes[15] - 1j / math.sqrt(2)) < 1e-12

    def test_gamma_third(self):
        psi = pure(StateFamily.EXPONENTIAL_ENTANGLER, 2, gamma=math.pi / 3)
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
            got = pure(StateFamily.EXPONENTIAL_ENTANGLER, n, gamma=gamma).amplitudes
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"gamma must be in \[0, pi/2\], got 2.0"):
            InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 4, gamma=2.0)


class TestW3Product:
    def test_single_w3(self):
        psi = pure(StateFamily.W3_PRODUCT, 3)
        nonzero = np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0]
        assert set(nonzero) == {1, 2, 4}
        assert np.allclose(psi.amplitudes[nonzero], 1 / math.sqrt(3))

    def test_two_factors_nine_terms(self):
        psi = pure(StateFamily.W3_PRODUCT, 6)
        nonzero = np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0]
        assert len(nonzero) == 9
        assert np.allclose(psi.amplitudes[nonzero], 1 / 3)

    def test_every_term_has_two_ones(self):
        psi = pure(StateFamily.W3_PRODUCT, 6)
        for b in np.nonzero(np.abs(psi.amplitudes) > 1e-12)[0]:
            assert int(b).bit_count() == 2
            # exactly one 1-bit per triple of qubits
            assert (int(b) >> 3).bit_count() == 1

    def test_rejects_bad_n(self):
        message = "w3 product requires n_qubits divisible by 3"
        with pytest.raises(ValueError, match=message):
            InitialStateRecipe(StateFamily.W3_PRODUCT, 4)


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
        assert np.allclose(state.amplitudes, pure(StateFamily.GHZ, 6).amplitudes)

    def test_noisy_dispatch_composes(self):
        recipe = InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.5, f=0.8)
        rho = build_initial(recipe)
        expected = make_noisy(pure(StateFamily.GHZ_BELL_MIXTURE, 6, x=0.5), 0.8)
        assert np.max(np.abs(rho.matrix - expected.matrix)) < 1e-12

    @pytest.mark.parametrize("family", list(StateFamily))
    def test_too_many_qubits_fail_before_building(self, family):
        # a 2^30 vector would take 16 GiB; the check must come first
        recipe = InitialStateRecipe(family, 30)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n_qubits"):
                build_pure(recipe)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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


class TestPlayerSymmetry:
    """`analysis.nash_check` copies one player's report to every player of
    a symmetric profile. That is exact only while every family's state is
    invariant under qubit permutations that carry any qubit to any other:
    permutations within a block, and swaps of whole blocks."""

    @pytest.mark.parametrize("family", list(StateFamily))
    def test_block_vectors_are_symmetric_in_their_qubits(self, family):
        block, _, terms, _ = _FAMILIES[family]
        recipe = InitialStateRecipe(family, 6, x=0.6, gamma=0.7)
        for _, v in terms(recipe):
            t = v.reshape([2] * block)
            for perm in itertools.permutations(range(block)):
                assert np.array_equal(np.transpose(t, perm), t)

    @pytest.mark.parametrize("family", list(StateFamily))
    def test_every_qubit_can_be_carried_to_the_first(self, family):
        block = _FAMILIES[family][0]
        n = 6
        t = pure(family, n, x=0.6, gamma=0.7).amplitudes.reshape([2] * n)
        for j in range(n):
            b, r = divmod(j, block)
            axes = list(range(n))
            axes[:block], axes[b * block:(b + 1) * block] = (
                axes[b * block:(b + 1) * block], axes[:block]
            )
            axes[:block] = axes[r:block] + axes[:r]  # in-block rotation
            assert axes[0] == j
            assert np.allclose(np.transpose(t, axes), t, rtol=0, atol=1e-15)


def state_digests():
    """SHA-256 of the amplitude bytes `build_pure` returns, per family and N.

    One digest per family and N = 2..12 hashes every recipe in order:
    the mixture over the 101-point x grid and the x values of sweep_x,
    sweep_f and the crossover scan, the entangler over 11 gamma values.
    The committed tables depend on the last bits of these states, so
    state_digests.json holds json.dumps(state_digests(), indent=1,
    sort_keys=True) as computed by the `build_pure` that made those tables.
    """
    grids = (
        np.linspace(0, 1, 101),
        np.linspace(0, 1, 11),
        np.arange(0, 1 + 0.01 / 2, 0.01),
        [0.5, 1.0],
    )
    xs = sorted({float(x) for grid in grids for x in grid})
    gammas = [float(g) for g in np.linspace(0, math.pi / 2, 11)]
    params = {
        StateFamily.GHZ_BELL_MIXTURE: [{"x": x} for x in xs],
        StateFamily.EXPONENTIAL_ENTANGLER: [{"gamma": g} for g in gammas],
    }
    digests = {}
    for family in StateFamily:
        for n in range(2, 13):
            try:
                recipes = [
                    InitialStateRecipe(family, n, **p) for p in params.get(family, [{}])
                ]
            except ValueError:
                continue  # n is not a multiple of the family's block
            h = hashlib.sha256()
            for recipe in recipes:
                h.update(build_pure(recipe).amplitudes.tobytes())
            digests[f"{family.value}-{n}"] = h.hexdigest()
    return digests


def test_pure_states_match_recorded_digests():
    assert state_digests() == json.loads(DIGESTS.read_text())
