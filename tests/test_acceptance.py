"""Acceptance suite: one test per headline claim, each printing a
pass/fail line (run with -s to see them)."""
import math
from fractions import Fraction

import numpy as np
import pytest

from qmg.analysis import (
    best_response,
    conjecture_eq14,
    entangler_ne_strategy,
    nash_check,
    ne_strategy,
    payoff_formula_eq9,
    sweep_gamma,
)
from dense_oracle import (
    MixedState,
    apply_local,
    build_initial,
    dense_expectation,
    dense_final_state,
    minority_winners,
)
from paper_checks import ParetoResult, pareto_compare
from qmg.game import (
    IDENTITY,
    GameSpec,
    StrategyParams,
    StrategyProfile,
    classical_payoff,
    expected_payoff,
    final_amplitudes,
    max_symmetric_payoff,
    minority_projector,
    strategy_unitary,
)
from qmg.states import InitialStateRecipe, StateFamily

PI = math.pi
NE6 = StrategyProfile.symmetric(ne_strategy(6), 6)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def mixture_spec(n, x, f=1.0):
    return GameSpec(n, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, n, x=x, f=f))


def test_criterion_1_classical_baselines():
    ok = classical_payoff(4) == Fraction(1, 8) and classical_payoff(6) == Fraction(3, 16)
    report("1. classical payoffs 1/8 (N=4) and 3/16 (N=6), exact rationals", ok)


def test_criterion_2_ghz6_equilibrium_payoff():
    spec = GameSpec(6, InitialStateRecipe(StateFamily.GHZ, 6))
    payoff = expected_payoff(spec, NE6, 1)
    report("2. GHZ6 equilibrium payoff 5/16 within 1e-9", abs(payoff - 5 / 16) < 1e-9)


def test_criterion_3_eq8_reproduction():
    errors = []
    for x in np.arange(0, 1.0001, 0.1):
        sim = expected_payoff(mixture_spec(6, float(x)), NE6, 1)
        errors.append(abs(sim - (0.25 + x * x / 16)))
    report(f"3. Eq. 8 sweep, max |error| = {max(errors):.2e} < 1e-9", max(errors) < 1e-9)


def test_criterion_4_eq9_reproduction():
    errors = []
    for x in np.arange(0, 1.0001, 0.1):
        for f in np.arange(0, 1.0001, 0.1):
            sim = expected_payoff(mixture_spec(6, float(x), float(f)), NE6, 1)
            errors.append(abs(sim - payoff_formula_eq9(float(x), float(f))))
    f0 = expected_payoff(mixture_spec(6, 0.5, 0.0), NE6, 1)
    ok = max(errors) < 1e-9 and abs(f0 - 3 / 16) < 1e-9
    report(f"4. Eq. 9 (x,f) grid, max |error| = {max(errors):.2e} < 1e-9", ok)


def test_criterion_5_nash_verification():
    worst = 0.0
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        reports = nash_check(mixture_spec(6, x), NE6, grid_resolution=25, tolerance=1e-4)
        worst = max(worst, max(r.max_gain for r in reports))
        if not all(r.is_nash_within_tol for r in reports):
            report(f"5. NE verification failed at x={x}", False)
    report(f"5. NE at x in {{0,.25,.5,.75,1}}, max gain {worst:.2e} <= 1e-4", worst <= 1e-4)


def test_criterion_6_w_product_optimum():
    spec = GameSpec(6, InitialStateRecipe(StateFamily.W3_PRODUCT, 6))
    profile = StrategyProfile.symmetric(IDENTITY, 6)
    payoffs = [expected_payoff(spec, profile, p) for p in range(1, 7)]
    ok = all(abs(p - 1 / 3) < 1e-12 for p in payoffs)
    ok = ok and max_symmetric_payoff(6) == Fraction(1, 3)
    verdict = pareto_compare(payoffs, [5 / 16] * 6)
    ok = ok and verdict is ParetoResult.A_DOMINATES
    report("6. W3xW3 identity play pays 1/3 = max, Pareto-dominates GHZ6 NE", ok)


def test_criterion_7_entangler_limits():
    # gamma=0: unentangled, best response cannot beat the classical payoff
    flat = GameSpec(6, InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 6, gamma=0.0))
    candidate = StrategyProfile.symmetric(StrategyParams(PI / 2, 0, 0), 6)
    br = best_response(flat, candidate, 1, grid_resolution=9)
    ok = abs(br.best_deviation_payoff - float(classical_payoff(6))) < 1e-6
    # gamma=pi/2: equilibrium payoff equals the GHZ value 5/16
    full = GameSpec(6, InitialStateRecipe(StateFamily.EXPONENTIAL_ENTANGLER, 6, gamma=PI / 2))
    ne = StrategyProfile.symmetric(entangler_ne_strategy(6), 6)
    payoff = expected_payoff(full, ne, 1)
    ok = ok and abs(payoff - 5 / 16) < 1e-9
    report("7. entangler: gamma=0 gives classical 3/16, gamma=pi/2 gives 5/16", ok)


def test_criterion_8_conjecture_report():
    rows = sweep_gamma(n=6, steps=11, payoff_classical=3 / 16, payoff_quantum=5 / 16)
    assert len(rows) == 11
    interior = max(r.abs_error for r in rows[1:-1])
    print(f"   conjecture table: interior max |error| = {interior:.2e} (reported only)")
    ok = rows[0].abs_error < 1e-9 and rows[-1].abs_error < 1e-9
    report("8. Eq. 14 table emitted; gamma endpoints agree within 1e-9", ok)


def _best_symmetric_payoff(spec, grid=21, min_step=1e-6):
    """Best payoff over symmetric profiles, full (theta, alpha, beta) box."""
    def value(t, a, b):
        profile = StrategyProfile.symmetric(StrategyParams(t, a, b), spec.n_players)
        return expected_payoff(spec, profile, 1)

    best_val, best = -1.0, None
    for t in np.linspace(0, PI, grid):
        for a in np.linspace(-PI, PI, grid):
            for b in np.linspace(-PI, PI, grid):
                v = value(t, a, b)
                if v > best_val:
                    best_val, best = v, [t, a, b]
    boxes = [(0, PI), (-PI, PI), (-PI, PI)]
    steps = [(hi - lo) / (grid - 1) for lo, hi in boxes]
    while max(steps) > min_step:
        for c in range(3):
            lo = max(boxes[c][0], best[c] - steps[c])
            hi = min(boxes[c][1], best[c] + steps[c])
            for s in np.linspace(lo, hi, 11):
                trial = list(best)
                trial[c] = s
                v = value(*trial)
                if v > best_val:
                    best_val, best = v, trial
            steps[c] /= 5
    return best_val


def test_criterion_9_four_player_regions():
    a = StrategyProfile.symmetric(StrategyParams(PI / 4, 0, 0), 4)
    b = StrategyProfile.symmetric(StrategyParams(PI / 2, -PI / 8, PI / 8), 4)
    xs = np.arange(0, 1.0001, 0.01)
    crossings = []
    prev = None
    for x in xs:
        spec = mixture_spec(4, float(x))
        diff = expected_payoff(spec, a, 1) - expected_payoff(spec, b, 1)
        if prev is not None and prev > 0 >= diff:
            crossings.append(float(x))
        prev = diff
    target = math.sqrt(2 / 3)
    ok = len(crossings) == 1 and abs(crossings[0] - target) <= 0.01 + 1e-12
    loc = crossings[0] if crossings else float("nan")
    print(f"   measured crossover at x = {loc:.4f} (sqrt(2/3) = {target:.4f})")

    best = _best_symmetric_payoff(mixture_spec(4, 0.0), grid=13)
    print(f"   x=0 best symmetric payoff = {best:.9f}")
    ok = ok and best <= 1 / 8 + 1e-6
    report("9. N=4 crossover within one step of sqrt(2/3); no advantage at x=0", ok)


def test_criterion_10_property_suites():
    rng = np.random.default_rng(2024)

    def rand_params():
        return StrategyParams(
            float(rng.uniform(0, PI)),
            float(rng.uniform(-PI, PI)),
            float(rng.uniform(-PI, PI)),
        )

    # SU(2) membership, 1000 random triples
    for _ in range(1000):
        u = strategy_unitary(rand_params()).entries
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(u) - 1) < 1e-12

    # norm/trace preservation through the full pipeline
    for n in (4, 6):
        spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
        profile = StrategyProfile(tuple(rand_params() for _ in range(n)))
        out = final_amplitudes(spec, [profile])[0]
        assert abs(np.linalg.norm(out) - 1) < 1e-12
    rho = build_initial(InitialStateRecipe(StateFamily.GHZ, 4, f=0.5))
    rho_out = dense_final_state(rho, StrategyProfile(tuple(rand_params() for _ in range(4))))
    assert abs(np.trace(rho_out.matrix) - 1) < 1e-12

    # noise separation vs the dense density-matrix path, N=4
    for _ in range(25):
        f = float(rng.uniform(0, 1))
        recipe = InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 4, x=0.7, f=f)
        spec = GameSpec(4, recipe)
        profile = StrategyProfile(tuple(rand_params() for _ in range(4)))
        fast = expected_payoff(spec, profile, 1)
        dense_state = dense_final_state(build_initial(recipe), profile)
        assert isinstance(dense_state, MixedState)
        dense = dense_expectation(dense_state, minority_projector(4, 1))
        assert abs(fast - dense) < 1e-10

    # stride-wise application vs explicit Kronecker products, N <= 4
    from functools import reduce

    for n in (2, 3, 4):
        for _ in range(10):
            amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            amps /= np.linalg.norm(amps)
            from qmg.core import PureState

            psi = PureState(n, amps)
            u = strategy_unitary(rand_params())
            q = int(rng.integers(n))
            ops = [np.eye(2, dtype=complex)] * n
            ops[q] = u.entries
            oracle = reduce(np.kron, ops) @ amps
            got = apply_local(psi, u, q).amplitudes
            assert np.max(np.abs(got - oracle)) < 1e-10

    # payoff conservation, 100 random profiles at N=4 and N=6
    for n in (4, 6):
        recipe = InitialStateRecipe(StateFamily.GHZ, n)
        spec = GameSpec(n, recipe)
        weights = np.array([len(minority_winners(b, n)) for b in range(2**n)])
        for _ in range(100):
            profile = StrategyProfile(tuple(rand_params() for _ in range(n)))
            total = sum(expected_payoff(spec, profile, p) for p in range(1, n + 1))
            probs = np.abs(final_amplitudes(spec, [profile])[0]) ** 2
            assert abs(total - probs @ weights) < 1e-10

    report("10. property suites (SU(2), norms, noise split, Kronecker, conservation)", True)
