#!/usr/bin/env python3
"""Record the reference outputs the workloads are checked against.

    python3 perfbench/record_refs.py

Writes refs/full.json and refs/tiny.json (random profile pools and the
values this commit's code gives for them) and copies the committed
headline tables into refs/tables/. The seeded random profiles are drawn
here, once; a run's --seed then picks among them, so every seed has
recorded references. Re-record only when a change is meant to alter
results, and say so in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads as w


def random_profile(rng, n):
    return [[rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi),
             rng.uniform(-math.pi, math.pi)] for _ in range(n)]


def record(size):
    from qmg import analysis, game
    from qmg.game import GameSpec, StrategyProfile
    from qmg.states import InitialStateRecipe, StateFamily

    p = w.SIZES[size]
    rng = random.Random(f"qmg-perfbench-{size}")

    def best_values(spec, prof, grid):
        return [r.best_deviation_payoff for r in analysis.nash_check(spec, prof, grid)]

    n, grid, br_n = p["nash_n"], p["grid"], p["br_n"]
    ne = StrategyProfile.symmetric(analysis.ne_strategy(n), n)
    bell_spec = GameSpec(n, InitialStateRecipe(StateFamily.BELL_PRODUCT, n))
    br_spec = GameSpec(br_n, InitialStateRecipe(StateFamily.GHZ, br_n))
    ne_ghz_spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
    nash = {
        "ghz_ne": best_values(ne_ghz_spec, ne, grid),
        "mixture_ne": best_values(GameSpec(n, InitialStateRecipe(
            StateFamily.GHZ_BELL_MIXTURE, n, x=w.MIXTURE_X, f=w.MIXTURE_F)), ne, grid),
        "bell_pool": [],
        "br_pool": [],
    }
    for _ in range(p["pools"]["bell"]):
        triples = random_profile(rng, n)
        best = best_values(bell_spec, w.make_profile(triples), grid)
        nash["bell_pool"].append({"profile": triples, "best": best})
    for _ in range(p["pools"]["br"]):
        triples = random_profile(rng, br_n)
        best = best_values(br_spec, w.make_profile(triples), grid)
        nash["br_pool"].append({"profile": triples, "best": best})

    n, steps = p["scan_n"], p["sweep_steps"]
    surface_spec = GameSpec(n, InitialStateRecipe(
        StateFamily.GHZ_BELL_MIXTURE, n, x=w.MIXTURE_X))
    ghz_spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))

    def payoffs(rows):
        return [r.payoff_simulated for r in rows]

    scan = {
        "surface": payoffs(analysis.payoff_surface(
            surface_spec, p["surface_steps"], p["surface_steps"])),
        "sweep_x": payoffs(analysis.sweep_x(n, w.SWEEP_X_F, steps)),
        "sweep_f": payoffs(analysis.sweep_f(n, w.SWEEP_F_X, steps)),
        "sweep_gamma": payoffs(analysis.sweep_gamma(n, steps)),
        "payoff_pool": [],
    }
    for _ in range(p["pools"]["payoff"]):
        triples = random_profile(rng, n)
        prof = w.make_profile(triples)
        scan["payoff_pool"].append({
            "profile": triples,
            "payoffs": [game.expected_payoff(ghz_spec, prof, i) for i in range(1, n + 1)],
        })
    return {"nash": nash, "scan": scan}


def copy_tables():
    """The committed headline tables, plus the README surface this code emits."""
    from qmg import cli

    dest = w.REFS / "tables"
    dest.mkdir(parents=True, exist_ok=True)
    for name, argv in w.TABLE_RUNS:
        if name is None:
            continue
        committed = run.ROOT / "results" / name
        if committed.exists():
            shutil.copyfile(committed, dest / name)
            continue
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / name
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv + ["--output", str(out)]) != 0:
                    raise SystemExit(f"error: qmg {' '.join(argv)} failed")
            shutil.copyfile(out, dest / name)
    shutil.copyfile(run.ROOT / "results" / w.CROSSOVER_REF, dest / w.CROSSOVER_REF)


def main():
    run.prepare_environment()
    copy_tables()
    for size in w.SIZES:
        refs = record(size)
        with open(w.REFS / f"{size}.json", "w", encoding="utf-8") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
        print(f"wrote {w.REFS / f'{size}.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
