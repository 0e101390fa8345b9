"""The benchmark's workloads: seeded jobs and the checks on their outputs.

Each job calls one public qmg function through its module attribute, so
the tracer's wrappers see it, and returns the raw result. Its check runs
afterwards, outside the timed region, and returns the number of result
rows or raises `CheckFailed`. Reference values were recorded by
`record_refs.py` at the commit that introduced the benchmark.

Why these workloads:
- nash: best-response grid kernel at N=10 and N=12 (about 94% of the
  time); where an exact 2x2 best response or chunked grid memory shows.
- scan: thousands of scalar payoffs at N=12 (about 85% of the time in
  `minority_projector`); the best-response kernel is never called.
- tables: the headline reproductions through `cli.main` at N <= 6, where
  per-call overhead dominates and added set-up or per-call cost shows.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFS = Path(__file__).resolve().parent / "refs"

WORKLOADS = ("nash", "scan", "tables")

# "tiny" exists for the smoke test only.
SIZES = {
    "full": {
        "nash_n": 10, "grid": 25, "br_n": 12, "br_players": 2,
        "scan_n": 12, "surface_steps": 25, "scan_profiles": 8, "sweep_steps": 11,
        "pools": {"bell": 8, "br": 6, "payoff": 32},
    },
    "tiny": {
        "nash_n": 6, "grid": 3, "br_n": 4, "br_players": 2,
        "scan_n": 4, "surface_steps": 3, "scan_profiles": 2, "sweep_steps": 3,
        "pools": {"bell": 2, "br": 2, "payoff": 4},
    },
}

MIXTURE_X = 0.5
MIXTURE_F = 0.9
SWEEP_X_F = 0.9
SWEEP_F_X = 0.5

VALUE_TOL = 1e-10   # scan values against the recorded references
EXACT_TOL = 1e-12   # equilibrium payoff, one-sided best value, payoff sums

# The seven runs of scripts/reproduce_tables.py, the README's N=4 surface
# and the N=4 crossover grid of scripts/crossover_scan.py.
TABLE_RUNS = (
    (None, ["classical", "--n", "6"]),
    ("ghz6_equilibrium_payoff.csv",
     ["payoff", "--n", "6", "--state", "ghz", "--symmetric", "pi/2,-pi/12,pi/12"]),
    ("w3_product_payoff.csv",
     ["payoff", "--n", "6", "--state", "w3", "--symmetric", "0,0,0"]),
    ("sweep_x.csv", ["sweep-x", "--n", "6", "--steps", "11"]),
    ("sweep_f.csv", ["sweep-f", "--n", "6", "--x", "1.0", "--steps", "11"]),
    ("sweep_gamma.csv",
     ["sweep-gamma", "--n", "6", "--steps", "11",
      "--payoff-classical", "0.1875", "--payoff-quantum", "0.3125"]),
    ("nash_check_ghz6.csv",
     ["nash-check", "--n", "6", "--state", "ghz",
      "--symmetric", "pi/2,-pi/12,pi/12", "--grid", "25"]),
    ("surface_n4.json",
     ["surface", "--n", "4", "--state", "mixture", "--x", "0",
      "--theta-steps", "25", "--alpha-steps", "25", "--format", "json"]),
)
CLASSICAL_SUMMARY = "classical payoff for n=6: 3/16 = 0.1875\n"
CROSSOVER_REF = "crossover_n4.csv"
CROSSOVER_STEP = 0.01
CROSSOVER_STRATEGIES = ("pi/4,0,0", "pi/2,-pi/8,pi/8")


class CheckFailed(Exception):
    """A job's output differs from what this commit's code produced."""


@dataclass
class Job:
    name: str
    module: str                      # qmg module the job calls into
    call: Callable[[], object]
    check: Callable[[object], int]   # result rows, or raises CheckFailed


def load_refs(size):
    with open(REFS / f"{size}.json", encoding="utf-8") as fh:
        return json.load(fh)


def build(workload, size, seed, workdir):
    """The workload's jobs for this seed, in the order the seed sets."""
    rng = random.Random(seed)
    jobs = {"nash": _nash, "scan": _scan, "tables": _tables}[workload](
        SIZES[size], size, rng, Path(workdir)
    )
    rng.shuffle(jobs)
    return jobs


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _check_payoffs(values, what):
    for v in values:
        _expect(-EXACT_TOL <= v <= 1 + EXACT_TOL, f"{what}: payoff {v!r} outside [0, 1]")


def _check_payoff_sum(values, n, what):
    """All players' payoffs together fill at most the largest minority."""
    cap = (n - 1) // 2
    _expect(sum(values) <= cap + EXACT_TOL, f"{what}: payoffs sum above {cap}")


def _check_close(got, want, tol, what):
    _expect(len(got) == len(want), f"{what}: {len(got)} values, expected {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        _expect(abs(g - w) <= tol, f"{what}[{i}]: {g!r} differs from reference {w!r}")


def make_profile(triples):
    """A strategy profile from (theta, alpha, beta) triples."""
    from qmg.game import StrategyParams, StrategyProfile

    return StrategyProfile(tuple(StrategyParams(*t) for t in triples))


# -- nash ---------------------------------------------------------------------
def _nash(p, size, rng, workdir):
    from qmg import analysis, game
    from qmg.game import GameSpec, StrategyProfile
    from qmg.states import InitialStateRecipe, StateFamily

    refs = load_refs(size)["nash"]
    n, grid, br_n = p["nash_n"], p["grid"], p["br_n"]

    def check_reports(spec, profile, best_refs, must_be_nash, what):
        """`best_refs` maps each 1-based player to its recorded best value."""
        def check(reports):
            _expect(len(reports) == len(best_refs), f"{what}: {len(reports)} reports")
            for report in reports:
                i = report.player
                label = f"{what} player {i}"
                dense = game.expected_payoff(spec, profile, i)
                _expect(abs(report.equilibrium_payoff - dense) <= EXACT_TOL,
                        f"{label}: equilibrium payoff {report.equilibrium_payoff!r}"
                        f" != dense payoff {dense!r}")
                _expect(report.best_deviation_payoff >= best_refs[i] - EXACT_TOL,
                        f"{label}: best deviation {report.best_deviation_payoff!r}"
                        f" below the recorded grid value {best_refs[i]!r}")
                _check_payoffs([report.best_deviation_payoff,
                                report.equilibrium_payoff], label)
                if must_be_nash:
                    _expect(report.is_nash_within_tol, f"{label}: not a Nash equilibrium")
            return len(reports)
        return check

    ne = StrategyProfile.symmetric(analysis.ne_strategy(n), n)
    bell = rng.choice(refs["bell_pool"])
    bell_profile = make_profile(bell["profile"])
    cases = (
        ("ghz_ne", InitialStateRecipe(StateFamily.GHZ, n), ne, refs["ghz_ne"], True),
        ("mixture_ne",
         InitialStateRecipe(StateFamily.GHZ_BELL_MIXTURE, n, x=MIXTURE_X, f=MIXTURE_F),
         ne, refs["mixture_ne"], True),
        ("bell_random", InitialStateRecipe(StateFamily.BELL_PRODUCT, n),
         bell_profile, bell["best"], False),
    )
    jobs = []
    for name, recipe, profile, best, must_be_nash in cases:
        spec = GameSpec(n, recipe)
        best_refs = {i: v for i, v in enumerate(best, start=1)}
        jobs.append(Job(
            f"nash_check:{name}", "analysis",
            lambda spec=spec, profile=profile: analysis.nash_check(spec, profile, grid),
            check_reports(spec, profile, best_refs, must_be_nash, name),
        ))

    br = rng.choice(refs["br_pool"])
    br_spec = GameSpec(br_n, InitialStateRecipe(StateFamily.GHZ, br_n))
    br_profile = make_profile(br["profile"])
    for player in rng.sample(range(1, br_n + 1), p["br_players"]):
        check = check_reports(br_spec, br_profile, {player: br["best"][player - 1]},
                              False, "best_response")
        jobs.append(Job(
            f"best_response:player{player}", "analysis",
            lambda player=player: analysis.best_response(br_spec, br_profile, player, grid),
            lambda report, check=check: check([report]),
        ))
    return jobs


# -- scan ---------------------------------------------------------------------
def _scan(p, size, rng, workdir):
    from qmg import analysis, game
    from qmg.game import GameSpec
    from qmg.states import InitialStateRecipe, StateFamily

    refs = load_refs(size)["scan"]
    n, steps = p["scan_n"], p["sweep_steps"]

    def check_rows(want, what):
        def check(rows):
            got = [r.payoff_simulated for r in rows]
            _check_close(got, want, VALUE_TOL, what)
            _check_payoffs(got, what)
            return len(rows)
        return check

    surface_spec = GameSpec(n, InitialStateRecipe(
        StateFamily.GHZ_BELL_MIXTURE, n, x=MIXTURE_X))
    jobs = [
        Job("payoff_surface", "analysis",
            lambda: analysis.payoff_surface(
                surface_spec, p["surface_steps"], p["surface_steps"]),
            check_rows(refs["surface"], "payoff_surface")),
        Job("sweep_x", "analysis", lambda: analysis.sweep_x(n, SWEEP_X_F, steps),
            check_rows(refs["sweep_x"], "sweep_x")),
        Job("sweep_f", "analysis", lambda: analysis.sweep_f(n, SWEEP_F_X, steps),
            check_rows(refs["sweep_f"], "sweep_f")),
        Job("sweep_gamma", "analysis", lambda: analysis.sweep_gamma(n, steps),
            check_rows(refs["sweep_gamma"], "sweep_gamma")),
    ]

    ghz_spec = GameSpec(n, InitialStateRecipe(StateFamily.GHZ, n))
    for k in rng.sample(range(len(refs["payoff_pool"])), p["scan_profiles"]):
        entry = refs["payoff_pool"][k]
        profile = make_profile(entry["profile"])

        def check(values, want=entry["payoffs"], what=f"expected_payoff:profile{k}"):
            _check_close(values, want, VALUE_TOL, what)
            _check_payoffs(values, what)
            _check_payoff_sum(values, n, what)
            return len(values)

        jobs.append(Job(
            f"expected_payoff:profile{k}", "game",
            lambda profile=profile: [game.expected_payoff(ghz_spec, profile, i)
                                     for i in range(1, n + 1)],
            check,
        ))
    return jobs


# -- tables -------------------------------------------------------------------
def _tables(p, size, rng, workdir):
    import numpy as np
    from qmg import cli

    def cli_call(argv):
        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                code = cli.main(argv)
            return code, out.getvalue()
        return call

    def read_output(result, path, what):
        code, text = result
        _expect(code == 0, f"{what}: exit code {code}: {text.strip()}")
        try:
            return path.read_bytes()
        except OSError as exc:
            raise CheckFailed(f"{what}: no table written: {exc}") from None
        finally:
            path.unlink(missing_ok=True)

    def count_records(data, path):
        if path.suffix == ".json":
            return len(json.loads(data))
        return data.count(b"\n") - 1

    jobs = []
    for ref_name, argv in TABLE_RUNS:
        what = argv[0] if ref_name is None else f"{argv[0]} {ref_name}"
        if ref_name is None:
            def check(result, what=what):
                code, text = result
                _expect(code == 0 and text == CLASSICAL_SUMMARY,
                        f"{what}: exit {code}, printed {text!r}")
                return 0
            jobs.append(Job(what, "cli", cli_call(argv), check))
            continue
        path = workdir / ref_name
        want = (REFS / "tables" / ref_name).read_bytes()

        def check(result, path=path, want=want, what=what):
            data = read_output(result, path, what)
            _expect(data == want, f"{what}: table differs from the committed one")
            return count_records(data, path)

        jobs.append(Job(what, "cli",
                        cli_call(argv + ["--output", str(path)]), check))

    crossover = [
        line.split(",")
        for line in (REFS / "tables" / CROSSOVER_REF).read_text().splitlines()[1:]
    ]
    xs = np.arange(0, 1 + CROSSOVER_STEP / 2, CROSSOVER_STEP)
    if len(xs) != len(crossover):
        raise CheckFailed("crossover grid does not match its reference table")
    for i, x in enumerate(xs):
        for column, strategy in enumerate(CROSSOVER_STRATEGIES, start=1):
            what = f"crossover x={crossover[i][0]} strategy={strategy}"
            path = workdir / f"crossover_{i}_{column}.csv"
            argv = ["payoff", "--n", "4", "--state", "mixture", "--x", repr(float(x)),
                    "--symmetric", strategy, "--output", str(path)]

            def check(result, path=path, want=crossover[i][column], what=what):
                lines = read_output(result, path, what).decode().splitlines()[1:]
                cells = dict(line.split(",") for line in lines)
                _expect(cells.get("1") == want,
                        f"{what}: player 1 payoff {cells.get('1')} != {want}")
                payoffs = [float(v) for v in cells.values()]
                _check_payoffs(payoffs, what)
                _check_payoff_sum(payoffs, 4, what)
                return len(lines)

            jobs.append(Job(what, "cli", cli_call(argv), check))
    return jobs
