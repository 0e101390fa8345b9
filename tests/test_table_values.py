"""The committed tables' cells against their exact values.

`tests/test_tables.py` shows that each table regenerates byte for byte;
this file shows that the committed bytes are right. A covered cell with
10^e <= |cell| < 10^(e+1) must satisfy
|cell - exact| <= 1/2 * 10^(e-11) + 1e-15, in exact arithmetic: the first
term is half a unit in the 12th significant digit, the last that `.12g`
prints, and a 0 cell has none; the second is the engine's rounding (the
largest `abs_error` cell is 3.3e-16).

The 18 tied-point cells of `nash_check_ghz6.csv` (`best_theta`,
`best_alpha` and `best_beta` of six players) are checked against the
tied point (pi/2, -3pi/4, -7pi/12) and its payoff. Which of the grid
points that tie the equilibrium payoff is printed depends on the last
bits of the Gram form, and only `tests/test_tables.py` pins it.

No exact value covers the interior of `sweep_gamma.csv`'s
`payoff_simulated` and `abs_error` columns, which Eq. 14 only conjectures.
`crossover_n4.csv`'s `payoff_bell_strategy` column is irrational; its
closed form is checked in 40-digit Decimal.
"""
import csv
import math
import pathlib
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from paper_checks import (
    GHZ6_EQUILIBRIUM_PAYOFF,
    W3_PRODUCT_PAYOFF,
    classical_payoff_sum,
    crossover_bell_strategy_payoff,
    crossover_ghz_strategy_payoff,
    payoff_formula_eq9_exact,
)
from qmg.analysis import conjecture_eq14, ne_strategy
from qmg.game import GameSpec, StrategyParams, StrategyProfile, expected_payoff
from qmg.states import InitialStateRecipe, StateFamily

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"
ENGINE_ALLOWANCE = Fraction(1e-15)
# the point that `nash_check_ghz6.csv` prints for every player
GHZ6_TIED_POINT = (math.pi / 2, -3 * math.pi / 4, -7 * math.pi / 12)


def _rows(name):
    with open(RESULTS / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_exact(cell: str, exact, where: str) -> None:
    """The printed cell within its allowance of the exact value."""
    printed = Decimal(cell)
    gap = abs(Fraction(printed) - Fraction(exact))
    allowance = ENGINE_ALLOWANCE
    if printed:
        allowance += Fraction(10) ** (printed.adjusted() - 11) / 2
    assert gap <= allowance, f"{where}: {cell} is {float(gap):.3g} from {float(exact)!r}"


@pytest.mark.parametrize("name, exact", [
    ("ghz6_equilibrium_payoff.csv", GHZ6_EQUILIBRIUM_PAYOFF),
    ("w3_product_payoff.csv", W3_PRODUCT_PAYOFF),
])
def test_per_player_payoffs(name, exact):
    rows = _rows(name)
    assert [row["player"] for row in rows] == [str(p) for p in range(1, 7)]
    for row in rows:
        _assert_exact(row["payoff"], exact, f"{name} player {row['player']}")


@pytest.mark.parametrize("name, axis", [("sweep_x.csv", "x"), ("sweep_f.csv", "f")])
def test_mixture_sweeps_follow_eq9(name, axis):
    rows = _rows(name)
    assert len(rows) == 11
    for k, row in enumerate(rows):
        point = {"x": Fraction(1), "f": Fraction(1), axis: Fraction(k, 10)}
        where = f"{name} {axis} = {row[axis]}"
        _assert_exact(row["x"], point["x"], where)
        _assert_exact(row["f"], point["f"], where)
        exact = payoff_formula_eq9_exact(point["x"], point["f"])
        _assert_exact(row["payoff_simulated"], exact, where)
        _assert_exact(row["payoff_analytic"], exact, where)
        _assert_exact(row["abs_error"], 0, where)


def test_gamma_sweep_endpoints_and_conjecture():
    rows = _rows("sweep_gamma.csv")
    gammas = [k * math.pi / 20 for k in range(11)]
    assert len(rows) == len(gammas)
    classical, quantum = classical_payoff_sum(6), GHZ6_EQUILIBRIUM_PAYOFF
    ends = {0: classical, len(rows) - 1: quantum}
    for k, (row, gamma) in enumerate(zip(rows, gammas)):
        where = f"sweep_gamma.csv gamma = {row['gamma']}"
        _assert_exact(row["gamma"], gamma, where)
        analytic = conjecture_eq14(gamma, float(classical), float(quantum))
        _assert_exact(row["payoff_analytic"], analytic, where)
        if k in ends:
            _assert_exact(row["payoff_simulated"], ends[k], where)
            _assert_exact(row["abs_error"], 0, where)


def test_ghz6_nash_check_payoffs():
    rows = _rows("nash_check_ghz6.csv")
    assert [row["player"] for row in rows] == [str(p) for p in range(1, 7)]
    for row in rows:
        where = f"nash_check_ghz6.csv player {row['player']}"
        _assert_exact(row["best_deviation_payoff"], GHZ6_EQUILIBRIUM_PAYOFF, where)
        _assert_exact(row["equilibrium_payoff"], GHZ6_EQUILIBRIUM_PAYOFF, where)
        _assert_exact(row["max_gain"], 0, where)


def test_ghz6_nash_check_tied_point_pays_the_equilibrium():
    rows = _rows("nash_check_ghz6.csv")
    spec = GameSpec(6, InitialStateRecipe(StateFamily.GHZ, 6))
    incumbent = StrategyProfile.symmetric(ne_strategy(6), 6)
    for row in rows:
        player = int(row["player"])
        where = f"nash_check_ghz6.csv player {player}"
        printed = [row[column] for column in ("best_theta", "best_alpha", "best_beta")]
        for cell, exact in zip(printed, GHZ6_TIED_POINT):
            _assert_exact(cell, exact, where)
        deviation = StrategyParams(*map(float, printed))
        payoff = expected_payoff(spec, incumbent.replace(player, deviation), player)
        assert abs(payoff - GHZ6_EQUILIBRIUM_PAYOFF) <= 1e-12, where


def test_crossover_ghz_strategy_column():
    rows = _rows("crossover_n4.csv")
    assert len(rows) == 101
    for k, row in enumerate(rows):
        x = Fraction(k, 100)
        where = f"crossover_n4.csv x = {row['x']}"
        _assert_exact(row["x"], x, where)
        _assert_exact(row["payoff_ghz_strategy"], crossover_ghz_strategy_payoff(x), where)


def test_crossover_bell_strategy_column():
    rows = _rows("crossover_n4.csv")
    assert len(rows) == 101
    for k, row in enumerate(rows):
        x = Fraction(k, 100)
        where = f"crossover_n4.csv x = {row['x']}"
        _assert_exact(row["payoff_bell_strategy"], crossover_bell_strategy_payoff(x), where)


def test_crossover_bell_strategy_is_the_engines_payoff_for_every_player():
    profile = StrategyProfile.symmetric(StrategyParams(math.pi / 4, 0, 0), 4)
    for x in np.random.default_rng(5).uniform(0, 1, 8).tolist():
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 4, x=x))
        want = float(crossover_bell_strategy_payoff(Fraction(x)))
        for player in range(1, 5):
            assert abs(expected_payoff(spec, profile, player) - want) <= 1e-12, (x, player)


def test_crossover_columns_cross_at_the_root_of_two_thirds():
    with localcontext() as ctx:
        ctx.prec = 40
        x = (Decimal(2) / 3).sqrt()
    x, sixth = Fraction(x), Fraction(1, 6)
    assert abs(Fraction(crossover_bell_strategy_payoff(x)) - sixth) < Fraction(1, 10**35)
    assert abs(crossover_ghz_strategy_payoff(x) - sixth) < Fraction(1, 10**35)
