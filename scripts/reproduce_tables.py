#!/usr/bin/env python3
"""Regenerate the headline result tables into results/.

Runs the 6-player sweeps (x, f, gamma), the GHZ equilibrium payoff,
the Nash check, and the W-product payoff, all through the CLI so each
table matches what a single `qmg ...` invocation would produce.
"""
import pathlib
import sys

from qmg.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

RUNS = [
    ["classical", "--n", "6"],
    ["payoff", "--n", "6", "--state", "ghz",
     "--symmetric", "pi/2,-pi/12,pi/12",
     "--output", "ghz6_equilibrium_payoff.csv"],
    ["payoff", "--n", "6", "--state", "w3", "--symmetric", "0,0,0",
     "--output", "w3_product_payoff.csv"],
    ["sweep-x", "--n", "6", "--steps", "11", "--output", "sweep_x.csv"],
    ["sweep-f", "--n", "6", "--x", "1.0", "--steps", "11",
     "--output", "sweep_f.csv"],
    ["sweep-gamma", "--n", "6", "--steps", "11",
     "--payoff-classical", "0.1875", "--payoff-quantum", "0.3125",
     "--output", "sweep_gamma.csv"],
    ["nash-check", "--n", "6", "--state", "ghz",
     "--symmetric", "pi/2,-pi/12,pi/12", "--grid", "25",
     "--output", "nash_check_ghz6.csv"],
]


def run_all() -> int:
    OUT.mkdir(exist_ok=True)
    for run in RUNS:
        args = list(run)
        if "--output" in args:
            i = args.index("--output") + 1
            args[i] = str(OUT / args[i])
        print("$ qmg " + " ".join(args))
        code = main(args)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run_all())
