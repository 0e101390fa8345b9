#!/usr/bin/env python3
"""Scan the 4-player GHZ/Bell mixture for the strategy-region crossover.

Evaluates the two symmetric candidate strategies M(pi/4,0,0) and
M(pi/2,-pi/8,pi/8) over an x grid and reports where their payoff
curves cross (expected near sqrt(2/3) ~ 0.8165).
"""
import math
import pathlib
import sys

import numpy as np

from qmg.cli import emit_table
from qmg.game import GameSpec, StrategyParams, StrategyProfile, expected_payoff
from qmg.states import InitialStateRecipe, StateFamily

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"
PI = math.pi
COLUMNS = ("x", "payoff_bell_strategy", "payoff_ghz_strategy")


def scan(step=0.01):
    bell_region = StrategyProfile.symmetric(StrategyParams(PI / 4, 0, 0), 4)
    ghz_region = StrategyProfile.symmetric(StrategyParams(PI / 2, -PI / 8, PI / 8), 4)
    rows = []
    for x in np.arange(0, 1 + step / 2, step):
        spec = GameSpec(4, InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, 4, x=float(x)))
        rows.append(
            (
                float(x),
                expected_payoff(spec, bell_region, 1),
                expected_payoff(spec, ghz_region, 1),
            )
        )
    return rows


def main() -> int:
    rows = scan()
    OUT.mkdir(exist_ok=True)
    path = OUT / "crossover_n4.csv"
    emit_table([dict(zip(COLUMNS, row)) for row in rows], "csv", str(path))
    crossings = [
        b[0]
        for a, b in zip(rows, rows[1:])
        if (a[1] - a[2]) > 0 >= (b[1] - b[2])
    ]
    print(f"wrote {path}")
    print(f"crossover(s) at x = {crossings}; sqrt(2/3) = {math.sqrt(2/3):.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
