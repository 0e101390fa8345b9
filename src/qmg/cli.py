"""Command-line harness.

Subcommands dispatch to the engine and analysis modules, print a short
summary, and optionally write CSV/JSON tables. Angles are accepted as
decimal radians or as fractions of pi ("pi/2", "-pi/12").
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import analysis, game
from .analysis import DeviationReport, SweepRow
from .core import MAX_QUBITS
from .game import GameSpec, StrategyParams, StrategyProfile
from .states import InitialStateRecipe, StateFamily

COMMANDS = (
    "payoff",
    "surface",
    "best-response",
    "nash-check",
    "sweep-x",
    "sweep-f",
    "sweep-gamma",
    "classical",
    "conjecture",
)

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
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise CliError(f"expected 'theta,alpha,beta', got {text!r}")
    return tuple(parse_angle(p) for p in parts)


def _parse_profile(text: str) -> Tuple[Tuple[float, float, float], ...]:
    return tuple(_parse_triple(c) for c in text.split(";") if c.strip())


@dataclass(frozen=True)
class RunConfig:
    """Fully validated description of one CLI run."""

    command: str
    n: int = 6
    state: str = "ghz"
    x: float = 1.0
    f: float = 1.0
    gamma: float = math.pi / 2
    symmetric: Optional[Tuple[float, float, float]] = None
    profile: Optional[Tuple[Tuple[float, float, float], ...]] = None
    player: int = 1
    grid: int = 25
    theta_steps: int = 25
    alpha_steps: int = 25
    steps: int = 11
    tolerance: float = analysis.NASH_TOLERANCE
    payoff_classical: Optional[float] = None
    payoff_quantum: Optional[float] = None
    output: Optional[str] = None
    format: str = "csv"

    def recipe(self) -> InitialStateRecipe:
        """The recipe this command builds; the sweeps ignore --state."""
        if self.command in ("sweep-x", "sweep-f"):
            return analysis.mixture_recipe(self.n, self.x, self.f)
        if self.command == "sweep-gamma":
            return analysis.entangler_recipe(self.n, self.gamma)
        return InitialStateRecipe(
            StateFamily(self.state), self.n, x=self.x, f=self.f, gamma=self.gamma
        )

    def game_spec(self) -> GameSpec:
        return GameSpec(self.n, self.recipe())

    def strategy_profile(self) -> StrategyProfile:
        if self.profile is not None:
            if len(self.profile) != self.n:
                raise CliError(
                    f"profile has {len(self.profile)} strategies for n={self.n}"
                )
            return StrategyProfile(
                tuple(StrategyParams(*t) for t in self.profile)
            )
        triple = self.symmetric
        if triple is None:
            raise CliError("command needs --symmetric or --profile")
        return StrategyProfile.symmetric(StrategyParams(*triple), self.n)


_FLAG_SPEC = {
    # name -> (converter, help)
    "n": (int, "number of players / qubits"),
    "state": (str, "initial state family: " + ", ".join(_FAMILY_NAMES)),
    "x": (float, "GHZ/Bell mixture weight in [0,1]"),
    "f": (float, "fidelity in [0,1]; 1 = noiseless"),
    "gamma": (parse_angle, "entangler angle in [0, pi/2]"),
    "symmetric": (_parse_triple, "shared strategy 'theta,alpha,beta'"),
    "profile": (_parse_profile, "per-player strategies 't,a,b;t,a,b;...'"),
    "player": (int, "1-based player for best-response"),
    "grid": (int, "grid resolution per strategy axis"),
    "theta-steps": (int, "surface grid points along theta"),
    "alpha-steps": (int, "surface grid points along alpha"),
    "steps": (int, "number of sweep points"),
    "tolerance": (float, "payoff-gain tolerance for the NE verdict"),
    "payoff-classical": (float, "classical payoff fed to the conjecture"),
    "payoff-quantum": (float, "quantum payoff fed to the conjecture"),
    "output": (str, "path of the emitted table"),
    "format": (str, "output format: csv or json"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmg", description="Quantum minority game simulator"
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", help="key=value file mirroring the flag names")
    for name, (_, help_text) in _FLAG_SPEC.items():
        parser.add_argument(f"--{name}", default=None, help=help_text)
    return parser


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
        if key != "command" and key not in _FLAG_SPEC:
            raise CliError(f"config line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def parse_config(args: Sequence[str], config_text: Optional[str] = None) -> RunConfig:
    """Parse tokens (plus an optional config file) into a validated RunConfig.

    Explicit flags override config-file values.
    """
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(args))
    except SystemExit:
        raise CliError("invalid command line") from None

    file_values = {}
    if config_text is None and ns.config:
        try:
            with open(ns.config, encoding="utf-8") as fh:
                config_text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read config file: {exc}") from None
    if config_text is not None:
        file_values = _read_config_file(config_text)

    raw = {}
    for name, (conv, _) in _FLAG_SPEC.items():
        attr = name.replace("-", "_")
        value = getattr(ns, attr)
        if value is None:
            value = file_values.get(name)
        if value is None:
            continue
        try:
            raw[attr] = conv(value)
        except ValueError as exc:
            raise CliError(f"bad value for --{name}: {exc}") from None

    config = RunConfig(command=ns.command, **raw)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.state not in _FAMILY_NAMES:
        raise CliError(f"unknown state family {config.state!r}")
    if config.format not in ("csv", "json"):
        raise CliError(f"unknown output format {config.format!r}")
    if config.n < 2:
        raise CliError(f"n must be >= 2, got {config.n}")
    if not 0.0 <= config.x <= 1.0:
        raise CliError(f"x must be in [0, 1], got {config.x}")
    if not 0.0 <= config.f <= 1.0:
        raise CliError(f"f must be in [0, 1], got {config.f}")
    if not 0.0 <= config.gamma <= math.pi / 2:
        raise CliError(f"gamma must be in [0, pi/2], got {config.gamma}")
    for name in ("payoff-classical", "payoff-quantum"):
        value = getattr(config, name.replace("-", "_"))
        if value is not None and not 0.0 <= value <= 1.0:
            raise CliError(f"{name} must be in [0, 1], got {value}")
    if config.grid < 2:
        raise CliError(f"grid must be >= 2, got {config.grid}")
    if config.steps < 2:
        raise CliError(f"steps must be >= 2, got {config.steps}")
    if config.theta_steps < 2 or config.alpha_steps < 2:
        raise CliError("theta-steps and alpha-steps must be >= 2")
    if not (math.isfinite(config.tolerance) and config.tolerance > 0):
        raise CliError(
            f"tolerance must be finite and positive, got {config.tolerance}"
        )
    if config.profile is not None and config.symmetric is not None:
        raise CliError("give --symmetric or --profile, not both")
    try:
        if config.command in ("payoff", "nash-check", "best-response"):
            # triggers profile-shape and angle-domain validation
            config.strategy_profile()
        if config.command not in ("classical", "conjecture"):
            if config.n > MAX_QUBITS:
                raise CliError(
                    f"n must be <= {MAX_QUBITS} to build a state, got {config.n}"
                )
            # triggers the family's qubit-count rules
            config.recipe()
    except ValueError as exc:
        raise CliError(str(exc)) from None
    if not 1 <= config.player <= config.n:
        raise CliError(f"player must be in [1, {config.n}], got {config.player}")


def _token(value) -> str:
    """A flag value as parse_config reads it back; floats via repr."""
    if isinstance(value, tuple):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_token(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def render(config: RunConfig) -> List[str]:
    """Command-line tokens that parse back to the same RunConfig."""
    tokens = [config.command]
    for name in _FLAG_SPEC:
        value = getattr(config, name.replace("-", "_"))
        if value is not None:
            # one token, so argparse never reads a value like -1e-05 as a flag
            tokens.append(f"--{name}={_token(value)}")
    return tokens


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _rows_to_records(rows) -> List[dict]:
    records = []
    for row in rows:
        if isinstance(row, SweepRow):
            rec = {
                k: getattr(row, k)
                for k in ("x", "f", "gamma", "theta", "alpha")
                if getattr(row, k) is not None
            }
            rec["payoff_simulated"] = row.payoff_simulated
            if row.payoff_analytic is not None:
                rec["payoff_analytic"] = row.payoff_analytic
                rec["abs_error"] = row.abs_error
        elif isinstance(row, DeviationReport):
            rec = {
                "player": row.player,
                "best_theta": row.best_deviation.theta,
                "best_alpha": row.best_deviation.alpha,
                "best_beta": row.best_deviation.beta,
                "best_deviation_payoff": row.best_deviation_payoff,
                "equilibrium_payoff": row.equilibrium_payoff,
                "max_gain": row.max_gain,
                "is_nash_within_tol": row.is_nash_within_tol,
                "grid_resolution": row.grid_resolution,
                "refinement_steps": row.refinement_steps,
            }
        elif isinstance(row, dict):
            rec = dict(row)
        else:
            raise TypeError(f"cannot tabulate {type(row).__name__}")
        records.append(rec)
    return records


def render_table(rows, fmt: str) -> str:
    """Deterministic CSV or JSON text for a nonempty table."""
    if not rows:
        raise CliError("refusing to emit an empty table")
    records = _rows_to_records(rows)
    columns = list(records[0])
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for rec in records:
            writer.writerow([_fmt(rec.get(c, "")) for c in columns])
        return buf.getvalue()
    if fmt == "json":
        clean = [
            {k: (float(_fmt(v)) if isinstance(v, float) else v) for k, v in rec.items()}
            for rec in records
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


def _run_command(config: RunConfig):
    """Returns (rows, summary) for the configured command."""
    cmd = config.command
    if cmd == "classical":
        value = game.classical_payoff(config.n)
        rows = [{"n": config.n, "payoff": float(value)}]
        return rows, f"classical payoff for n={config.n}: {value} = {float(value):.6g}"

    if cmd == "conjecture":
        c = (
            config.payoff_classical
            if config.payoff_classical is not None
            else float(game.classical_payoff(config.n))
        )
        q = config.payoff_quantum if config.payoff_quantum is not None else 5 / 16
        value = analysis.conjecture_eq14(config.gamma, c, q)
        rows = [
            {
                "gamma": config.gamma,
                "payoff_classical": c,
                "payoff_quantum": q,
                "payoff_conjectured": value,
            }
        ]
        return rows, f"conjectured payoff at gamma={config.gamma:.6g}: {value:.12g}"

    if cmd == "payoff":
        spec = config.game_spec()
        profile = config.strategy_profile()
        rows = [
            {"player": p, "payoff": game.expected_payoff(spec, profile, p)}
            for p in range(1, config.n + 1)
        ]
        payoffs = ", ".join(f"{r['payoff']:.6g}" for r in rows)
        return rows, f"per-player payoffs: {payoffs}"

    if cmd == "surface":
        rows = analysis.payoff_surface(
            config.game_spec(), config.theta_steps, config.alpha_steps
        )
        top = max(r.payoff_simulated for r in rows)
        return rows, f"surface of {len(rows)} gridpoints, max payoff {top:.6g}"

    if cmd == "best-response":
        report = analysis.best_response(
            config.game_spec(),
            config.strategy_profile(),
            config.player,
            config.grid,
            config.tolerance,
        )
        summary = (
            f"player {config.player}: best deviation payoff "
            f"{report.best_deviation_payoff:.6g}, max_gain {report.max_gain:.3g}"
        )
        return [report], summary

    if cmd == "nash-check":
        reports = analysis.nash_check(
            config.game_spec(),
            config.strategy_profile(),
            config.grid,
            config.tolerance,
        )
        is_nash = all(r.is_nash_within_tol for r in reports)
        worst = max(r.max_gain for r in reports)
        verdict = (
            f"max_gain<{config.tolerance:g}" if is_nash else f"max_gain={worst:.3g}"
        )
        return reports, f"is_nash={'true' if is_nash else 'false'}, {verdict}"

    if cmd == "sweep-x":
        rows = analysis.sweep_x(config.n, config.f, config.steps)
    elif cmd == "sweep-f":
        rows = analysis.sweep_f(config.n, config.x, config.steps)
    elif cmd == "sweep-gamma":
        rows = analysis.sweep_gamma(
            config.n, config.steps, config.payoff_classical, config.payoff_quantum
        )
    else:
        raise CliError(f"unknown command {cmd!r}")
    errors = [r.abs_error for r in rows if r.abs_error is not None]
    bound = f", max |error| {max(errors):.3g}" if errors else ""
    return rows, f"{cmd} over {len(rows)} points{bound}"


def run(config: RunConfig) -> int:
    """Execute one run: print the summary, emit the table if requested.

    Exit codes: 0 on success, 1 for a rejected run, 3 when memory runs out.
    """
    try:
        rows, summary = _run_command(config)
        print(summary)
        if config.output:
            emit_table(rows, config.format, config.output)
            print(f"wrote {config.format} table to {config.output}")
    except (CliError, ValueError, IndexError) as exc:
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
