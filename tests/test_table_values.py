"""The committed tables' cells against their exact values.

`tests/test_tables.py` shows that each table regenerates byte for byte;
this file shows that the committed bytes are right. A covered cell must
satisfy |cell - exact| <= 1/2 * 10^-11 * |exact| + 1e-15, in exact
arithmetic: the first term is the `.12g` print, the second the engine's
rounding (the largest `abs_error` cell is 3.3e-16).

No exact value covers:
- the 18 tied-point cells of `nash_check_ghz6.csv` (`best_theta`,
  `best_alpha` and `best_beta` of six players): which of the grid points
  that tie the equilibrium payoff comes first depends on the last bits of
  the Gram form;
- `crossover_n4.csv`'s `payoff_bell_strategy` column, whose closed form
  was fitted, not derived;
- the interior of `sweep_gamma.csv`'s `payoff_simulated` and `abs_error`
  columns, which Eq. 14 only conjectures.
"""
import csv
import math
import pathlib
from fractions import Fraction

import pytest

from paper_checks import (
    GHZ6_EQUILIBRIUM_PAYOFF,
    W3_PRODUCT_PAYOFF,
    classical_payoff_sum,
    crossover_ghz_strategy_payoff,
    payoff_formula_eq9_exact,
)
from qmg.analysis import conjecture_eq14

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"
PRINT_RELATIVE = Fraction(1, 2 * 10**11)
ENGINE_ALLOWANCE = Fraction(1e-15)


def _rows(name):
    with open(RESULTS / name, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_exact(cell: str, exact, where: str) -> None:
    """The printed cell within its allowance of the exact value."""
    exact = Fraction(exact)
    gap = abs(Fraction(cell) - exact)
    assert gap <= PRINT_RELATIVE * abs(exact) + ENGINE_ALLOWANCE, (
        f"{where}: {cell} is {float(gap):.3g} from {float(exact)!r}"
    )


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


def test_crossover_ghz_strategy_column():
    rows = _rows("crossover_n4.csv")
    assert len(rows) == 101
    for k, row in enumerate(rows):
        x = Fraction(k, 100)
        where = f"crossover_n4.csv x = {row['x']}"
        _assert_exact(row["x"], x, where)
        _assert_exact(row["payoff_ghz_strategy"], crossover_ghz_strategy_payoff(x), where)
