"""Command-line harness: two tables drive every run.

`_COMMANDS` holds one row per subcommand: the runner that returns its
table records and summary line, whether it needs a strategy profile,
and the recipe of the state it builds (None when the run builds none:
the classical closed form, or the conjecture given --payoff-quantum).
`RunConfig` holds one field per flag, declared once by `_flag`: its
default, its converter, its domain (a predicate plus the phrase of the
`<flag> must be <phrase>, got <value>` error) and its help. `_FLAG_SPEC`
is derived from those fields in their order; `parse_config` converts and
checks each flag in one pass, and `RunConfig` checks the rules that join
several flags itself. A flag has one name, its field's name with "-" for
"_", on the command line (never abbreviated) and in a `--config` file.
Every bad command line, argparse's usage errors too, raises one
`CliError`. Angles are decimal radians or pi fractions ("pi/2",
"-pi/12"); a strategy is exactly three non-empty angles.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import analysis, game
from .analysis import DeviationReport, SweepRow
from .core import MAX_QUBITS
from .game import GameSpec, StrategyParams, StrategyProfile
from .states import InitialStateRecipe, StateFamily

_FAMILY_NAMES = tuple(family.value for family in StateFamily)

_PI_TOKEN = re.compile(
    r"^([+-]?)(\d+(?:\.\d+)?)?\s*pi(?:\s*/\s*(\d+(?:\.\d+)?))?$", re.IGNORECASE
)


class CliError(ValueError):
    """Invalid command line, config file, or parameter domain."""


def parse_angle(token: str) -> float:
    """Radians from a decimal literal or a pi fraction like '-pi/8'."""
    text = token.strip()
    m = _PI_TOKEN.match(text)
    if m:
        sign = -1.0 if m.group(1) == "-" else 1.0
        mult = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0:
            raise CliError(f"zero denominator in angle {token!r}")
        return sign * mult * math.pi / den
    try:
        return float(text)
    except ValueError:
        raise CliError(f"malformed angle token {token!r}") from None


def _parse_triple(text: str) -> Tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise CliError(f"expected 'theta,alpha,beta', got {text!r}")
    return tuple(parse_angle(p) for p in parts)


def _parse_profile(text: str) -> Tuple[Tuple[float, float, float], ...]:
    return tuple(_parse_triple(c) for c in text.split(";"))


# Every command's bound on --n, checked before anything is built: the
# exact classical payoff of n = 100000 players takes about 0.3 s.
MAX_PLAYERS = 100_000

_UNIT = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_AT_LEAST_TWO = (lambda v: v >= 2, ">= 2")


def _flag(default, converter, domain, help_text):
    """A RunConfig field that is a flag; domain is (predicate, phrase) or None."""
    return field(default=default, metadata={"flag": (converter, domain, help_text)})


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one CLI run; each field after command is a flag."""

    command: str
    n: int = _flag(6, int, (lambda v: 2 <= v <= MAX_PLAYERS, f"in [2, {MAX_PLAYERS}]"),
                   "number of players / qubits")
    state: str = _flag("ghz", str, (lambda v: v in _FAMILY_NAMES,
                                    "one of " + ", ".join(_FAMILY_NAMES)), "initial state family")
    x: float = _flag(1.0, float, _UNIT, "GHZ/Bell mixture weight")
    f: float = _flag(1.0, float, _UNIT, "fidelity, 1 = noiseless")
    gamma: float = _flag(math.pi / 2, parse_angle,
                         (lambda v: 0.0 <= v <= math.pi / 2, "in [0, pi/2]"), "entangler angle")
    symmetric: Optional[Tuple[float, float, float]] = _flag(
        None, _parse_triple, None, "shared strategy 'theta,alpha,beta'")
    profile: Optional[Tuple[Tuple[float, float, float], ...]] = _flag(
        None, _parse_profile, None, "per-player strategies 't,a,b;t,a,b;...'")
    player: int = _flag(1, int, None, "1-based player for best-response")
    grid: int = _flag(25, int, _AT_LEAST_TWO, "grid resolution per strategy axis")
    theta_steps: int = _flag(25, int, _AT_LEAST_TWO, "surface grid points along theta")
    alpha_steps: int = _flag(25, int, _AT_LEAST_TWO, "surface grid points along alpha")
    steps: int = _flag(11, int, _AT_LEAST_TWO, "number of sweep points")
    tolerance: float = _flag(analysis.NASH_TOLERANCE, float,
                             (lambda v: math.isfinite(v) and v > 0, "finite and positive"),
                             "payoff-gain tolerance for the NE verdict")
    payoff_classical: Optional[float] = _flag(None, float, _UNIT,
                                              "classical payoff fed to the conjecture")
    payoff_quantum: Optional[float] = _flag(None, float, _UNIT,
                                            "quantum payoff fed to the conjecture")
    output: Optional[str] = _flag(None, str, None, "path of the emitted table")
    format: str = _flag("csv", str, (lambda v: v in ("csv", "json"), "csv or json"),
                        "output format")

    def __post_init__(self):
        """Check the rules that join flags; parse_config checks each flag's domain."""
        if self.profile is not None and self.symmetric is not None:
            raise CliError("give --symmetric or --profile, not both")
        command = _COMMANDS[self.command]
        try:
            # building the recipe triggers the family's qubit-count rules; n is
            # checked before a profile of n strategies is built
            if command.recipe(self) is not None and self.n > MAX_QUBITS:
                raise CliError(f"n must be <= {MAX_QUBITS} to build a state, got {self.n}")
            # triggers angle-domain and profile-shape validation, also for a
            # profile given to a command that does not play one
            if command.needs_profile or self.symmetric is not None or self.profile is not None:
                self.strategy_profile()
        except ValueError as exc:
            raise CliError(str(exc)) from None
        if not 1 <= self.player <= self.n:
            raise CliError(f"player must be in [1, {self.n}], got {self.player}")

    def game_spec(self) -> GameSpec:
        """The game on the state of this command's row."""
        return GameSpec(self.n, _COMMANDS[self.command].recipe(self))

    def strategy_profile(self) -> StrategyProfile:
        if self.profile is not None:
            strategies = tuple(StrategyParams(*t) for t in self.profile)
            if len(strategies) != self.n:
                raise CliError(
                    f"profile has {len(strategies)} strategies for n={self.n}"
                )
            return StrategyProfile(strategies)
        if self.symmetric is None:
            raise CliError("command needs --symmetric or --profile")
        return StrategyProfile.symmetric(StrategyParams(*self.symmetric), self.n)


# name -> (converter, domain, help), one entry per RunConfig flag field
_FLAG_SPEC = {
    f.name.replace("_", "-"): f.metadata["flag"] for f in fields(RunConfig) if f.metadata
}


class _Parser(argparse.ArgumentParser):
    """The qmg parser: a usage error raises CliError, not SystemExit."""

    def __init__(self):
        super().__init__(prog="qmg", description="Quantum minority game simulator",
                         allow_abbrev=False)
        self.add_argument("command", choices=_COMMANDS)
        self.add_argument("--config", help="key=value file mirroring the flag names")
        for name, (_, domain, help_text) in _FLAG_SPEC.items():
            if domain is not None:
                help_text += f", {domain[1]}"
            self.add_argument(f"--{name}", default=None, help=help_text)

    def error(self, message):
        raise CliError(message)


def _read_config_file(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        if key not in _FLAG_SPEC:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def parse_config(args: Sequence[str]) -> RunConfig:
    """Parse tokens (plus any --config file) into a validated RunConfig.

    Explicit flags override config-file values.
    """
    ns = _PARSER.parse_args(list(args))

    file_values = {}
    if ns.config:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                file_values = _read_config_file(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise CliError(f"cannot read config file: {exc}") from None

    raw = {}
    for name, (conv, domain, _) in _FLAG_SPEC.items():
        attr = name.replace("-", "_")
        value = getattr(ns, attr)
        if value is None:
            value = file_values.get(name)
        if value is None:
            continue
        try:
            value = conv(value)
        except ValueError as exc:
            raise CliError(f"bad value for --{name}: {exc}") from None
        if domain is not None and not domain[0](value):
            raise CliError(f"{name} must be {domain[1]}, got {value}")
        raw[attr] = value

    return RunConfig(command=ns.command, **raw)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def render_table(rows, fmt: str) -> str:
    """Deterministic CSV or JSON text for a nonempty list of records."""
    if not rows:
        raise CliError("refusing to emit an empty table")
    columns = list(rows[0])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in rows:
            writer.writerow([_fmt(rec.get(c, "")) for c in columns])
        return buf.getvalue()
    if fmt == "json":
        clean = [
            {k: (float(_fmt(v)) if isinstance(v, float) else v) for k, v in rec.items()}
            for rec in rows
        ]
        return json.dumps(clean, indent=2) + "\n"
    raise CliError(f"unknown output format {fmt!r}")


def emit_table(rows, fmt: str, path: str) -> None:
    """Write the table; no file is created for an empty table."""
    text = render_table(rows, fmt)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _sweep_record(row: SweepRow) -> dict:
    """The row's set fields, in field order; absent axes leave no column."""
    return {k: v for k, v in vars(row).items() if v is not None}


_DEVIATION_COLUMNS = (
    "player", "best_theta", "best_alpha", "best_beta", "best_deviation_payoff",
    "equilibrium_payoff", "max_gain", "is_nash_within_tol", "grid_resolution",
    "refinement_steps",
)


def _deviation_record(report: DeviationReport) -> dict:
    best = report.best_deviation
    fields = dict(vars(report), best_theta=best.theta, best_alpha=best.alpha,
                  best_beta=best.beta)
    return {column: fields[column] for column in _DEVIATION_COLUMNS}


# Each runner returns (table records, summary line) for one command.
def _classical(config: RunConfig):
    n = config.n
    value = game.classical_payoff(n)
    try:
        exact = str(value)
    except ValueError:  # Python's limit on int-to-str digits
        limit = sys.get_int_max_str_digits()
        raise CliError(f"the exact payoff for n={n} has more than {limit} digits") from None
    rows = [{"n": n, "payoff": float(value)}]
    return rows, f"classical payoff for n={n}: {exact} = {float(value):.6g}"


def _conjecture(config: RunConfig):
    c, q = analysis.conjecture_endpoints(config.n, config.payoff_classical,
                                         config.payoff_quantum)
    value = analysis.conjecture_eq14(config.gamma, c, q)
    row = {"gamma": config.gamma, "payoff_classical": c, "payoff_quantum": q,
           "payoff_conjectured": value}
    return [row], f"conjectured payoff at gamma={config.gamma:.6g}: {value:.12g}"


def _payoff(config: RunConfig):
    spec = config.game_spec()
    profile = config.strategy_profile()
    rows = [
        {"player": p, "payoff": game.expected_payoff(spec, profile, p)}
        for p in range(1, config.n + 1)
    ]
    payoffs = ", ".join(f"{r['payoff']:.6g}" for r in rows)
    return rows, f"per-player payoffs: {payoffs}"


def _surface(config: RunConfig):
    rows = analysis.payoff_surface(config.game_spec(), config.theta_steps,
                                   config.alpha_steps)
    top = max(r.payoff_simulated for r in rows)
    summary = f"surface of {len(rows)} gridpoints, max payoff {top:.6g}"
    return [_sweep_record(r) for r in rows], summary


def _best_response(config: RunConfig):
    report = analysis.best_response(config.game_spec(), config.strategy_profile(),
                                    config.player, config.grid, config.tolerance)
    summary = (
        f"player {config.player}: best deviation payoff "
        f"{report.best_deviation_payoff:.6g}, max_gain {report.max_gain:.3g}"
    )
    return [_deviation_record(report)], summary


def _nash_check(config: RunConfig):
    reports = analysis.nash_check(config.game_spec(), config.strategy_profile(),
                                  config.grid, config.tolerance)
    is_nash = all(r.is_nash_within_tol for r in reports)
    worst = max(r.max_gain for r in reports)
    verdict = f"max_gain<{config.tolerance:g}" if is_nash else f"max_gain={worst:.3g}"
    summary = f"is_nash={'true' if is_nash else 'false'}, {verdict}"
    return [_deviation_record(r) for r in reports], summary


def _sweep(config: RunConfig, rows: List[SweepRow]):
    errors = [r.abs_error for r in rows if r.abs_error is not None]
    bound = f", max |error| {max(errors):.3g}" if errors else ""
    summary = f"{config.command} over {len(rows)} points{bound}"
    return [_sweep_record(r) for r in rows], summary


# The recipe a command builds; the sweeps ignore --state.
def _chosen_state(c: RunConfig) -> InitialStateRecipe:
    return InitialStateRecipe(StateFamily(c.state), c.n, x=c.x, f=c.f, gamma=c.gamma)


def _mixture(c: RunConfig) -> InitialStateRecipe:
    return analysis.mixture_recipe(c.n, c.x, c.f)


def _entangler(c: RunConfig) -> InitialStateRecipe:
    return analysis.entangler_recipe(c.n, c.gamma)


# The conjecture simulates its quantum endpoint unless it is given.
def _conjecture_state(c: RunConfig) -> Optional[InitialStateRecipe]:
    return analysis.entangler_recipe(c.n) if c.payoff_quantum is None else None


class _Command(NamedTuple):
    runner: Callable[[RunConfig], Tuple[List[dict], str]]
    needs_profile: bool
    # the run's state recipe from its config, or None when the run builds
    # no state, and then any --n in [2, MAX_PLAYERS] runs
    recipe: Callable[[RunConfig], Optional[InitialStateRecipe]]


# Runners reach the engine through module attributes, so a tracer that
# replaces those attributes sees every call.
_COMMANDS = {
    "payoff": _Command(_payoff, True, _chosen_state),
    "surface": _Command(_surface, False, _chosen_state),
    "best-response": _Command(_best_response, True, _chosen_state),
    "nash-check": _Command(_nash_check, True, _chosen_state),
    "sweep-x": _Command(lambda c: _sweep(c, analysis.sweep_x(c.n, c.f, c.steps)),
                        False, _mixture),
    "sweep-f": _Command(lambda c: _sweep(c, analysis.sweep_f(c.n, c.x, c.steps)),
                        False, _mixture),
    "sweep-gamma": _Command(lambda c: _sweep(c, analysis.sweep_gamma(
        c.n, c.steps, c.payoff_classical, c.payoff_quantum)), False, _entangler),
    "classical": _Command(_classical, False, lambda c: None),
    "conjecture": _Command(_conjecture, False, _conjecture_state),
}

_PARSER = _Parser()


def run(config: RunConfig) -> int:
    """Execute one run: print the summary, emit the table if requested.

    Exit codes: 0 on success, 1 for a rejected run, 3 when memory runs out.
    """
    try:
        rows, summary = _COMMANDS[config.command].runner(config)
        print(summary)
        if config.output:
            emit_table(rows, config.format, config.output)
            print(f"wrote {config.format} table to {config.output}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
