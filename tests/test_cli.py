import contextlib
import io
import json
import math
import pathlib
import re
import shlex
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmg import analysis
from qmg.cli import (
    _COMMANDS,
    _FLAG_SPEC,
    CliError,
    RunConfig,
    emit_table,
    main,
    parse_angle,
    parse_config,
    render_table,
    run,
)
from qmg.states import StateFamily

PI = math.pi


class TestParseAngle:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("pi/2", PI / 2),
            ("-pi/12", -PI / 12),
            ("pi", PI),
            ("-pi", -PI),
            ("2pi/3", 2 * PI / 3),
            ("0.5", 0.5),
            ("-1.25", -1.25),
            ("0", 0.0),
        ],
    )
    def test_tokens(self, token, expected):
        assert abs(parse_angle(token) - expected) < 1e-15

    def test_malformed(self):
        with pytest.raises(CliError):
            parse_angle("tau/2")


def _token(value) -> str:
    """A flag value as parse_config reads it back; floats via repr."""
    if isinstance(value, tuple):
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_token(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def render(config: RunConfig) -> list:
    """Command-line tokens that parse back to the same RunConfig."""
    tokens = [config.command]
    for name in _FLAG_SPEC:
        value = getattr(config, name.replace("-", "_"))
        if value is not None:
            # one token, so argparse never reads a value like -1e-05 as a flag
            tokens.append(f"--{name}={_token(value)}")
    return tokens


# each proper prefix of a flag's name that starts no other flag's name,
# such as "sym" for "symmetric": argparse's default abbreviation read it as
# that flag. "f" starts "format" too, and names a flag of its own.
_FLAG_NAMES = {*_FLAG_SPEC, "config"}
_PREFIXES = {
    name: [name[:k] for k in range(1, len(name))
           if sum(other.startswith(name[:k]) for other in _FLAG_NAMES) == 1]
    for name in _FLAG_NAMES
}


class TestParseConfig:
    def test_payoff_command(self):
        config = parse_config(
            ["payoff", "--n", "6", "--state", "ghz", "--symmetric", "pi/2,-pi/12,pi/12"]
        )
        assert config.command == "payoff"
        assert config.n == 6
        assert config.symmetric == (PI / 2, -PI / 12, PI / 12)

    def test_classical_command(self):
        assert parse_config(["classical", "--n", "4"]).n == 4

    def test_domain_error_names_field(self):
        with pytest.raises(CliError, match="x"):
            parse_config(["payoff", "--n", "6", "--state", "ghz", "--x", "1.5",
                          "--symmetric", "0,0,0"])

    def test_unknown_command(self):
        with pytest.raises(CliError):
            parse_config(["meow"])

    def test_invalid_line_leaves_the_shared_parser_usable(self, capsys):
        with pytest.raises(CliError):
            parse_config(["payoff", "--n"])
        assert parse_config(["classical", "--n", "4"]) == RunConfig("classical", n=4)

    def test_profile_length_checked(self):
        with pytest.raises(CliError, match="profile"):
            parse_config(["payoff", "--n", "4", "--profile", "0,0,0;0,0,0"])

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 6\nstate = ghz\nsymmetric = pi/2,-pi/12,pi/12\n",
                        encoding="utf-8")
        config = parse_config(["payoff", "--config", str(path), "--n", "4",
                               "--state", "mixture", "--x", "0.5"])
        assert config.n == 4  # flag wins
        assert config.state == "mixture"
        assert config.symmetric == (PI / 2, -PI / 12, PI / 12)  # from file

    def test_config_file_line_without_equals(self, tmp_path):
        # comment-only and blank lines are skipped, yet still counted
        path = tmp_path / "run.cfg"
        path.write_text("n = 4\n# comment\n\nfoo\n", encoding="utf-8")
        with pytest.raises(CliError,
                           match="^config line 4: expected key = value, got 'foo'$"):
            parse_config(["classical", "--config", str(path)])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            pytest.param(dict(command="payoff", n=4, symmetric=(0.0, 0.0, 0.0),
                              profile=((0.0, 0.0, 0.0),) * 4),
                         "give --symmetric or --profile, not both", id="symmetric and profile"),
            pytest.param(dict(command="nash-check", n=4), "command needs --symmetric or --profile",
                         id="no profile"),
            pytest.param(dict(command="payoff", n=13, symmetric=(0.0, 0.0, 0.0)),
                         "n must be <= 12 to build a state, got 13", id="past the dense ceiling"),
            pytest.param(dict(command="payoff", n=5, state="bell", symmetric=(0.0, 0.0, 0.0)),
                         "bell requires even n_qubits", id="family's qubit count"),
            pytest.param(dict(command="payoff", n=4, profile=((0.0, 0.0, 0.0),) * 3),
                         "profile has 3 strategies for n=4", id="profile length"),
            pytest.param(dict(command="classical", n=4, symmetric=(9.0, 0.0, 0.0)),
                         "theta must be in [0, pi], got 9.0", id="angle of an unplayed profile"),
            pytest.param(dict(command="best-response", n=4, symmetric=(0.0, 0.0, 0.0), player=5),
                         "player must be in [1, 4], got 5", id="player past n"),
        ],
    )
    def test_run_config_checks_the_rules_between_flags(self, kwargs, message):
        # built directly, with no command line, a RunConfig still checks them
        with pytest.raises(CliError, match=f"^{re.escape(message)}$"):
            RunConfig(**kwargs)

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("volume = 11\n", encoding="utf-8")
        with pytest.raises(CliError, match="unknown key"):
            parse_config(["classical", "--config", str(path)])
        # the command comes from the command line only
        path.write_text("command = nash-check\n", encoding="utf-8")
        with pytest.raises(CliError, match="unknown key 'command'"):
            parse_config(["payoff", "--symmetric", "0,0,0", "--config", str(path)])

    def test_one_letter_flag_is_its_own_name(self):
        # "--f" is the fidelity, not an abbreviation of "--format"
        config = parse_config(["payoff", "--n", "4", "--f", "0.5", "--symmetric", "0,0,0"])
        assert config.f == 0.5
        assert config.format == "csv"

    def test_no_flag_is_read_by_a_prefix(self):
        for name, prefixes in _PREFIXES.items():
            for prefix in prefixes:
                with pytest.raises(CliError, match=f"^unrecognized arguments: --{prefix} 1$"):
                    parse_config(["classical", f"--{prefix}", "1"])

    def test_round_trip(self):
        configs = [
            parse_config(["classical", "--n", "4"]),
            parse_config(
                ["payoff", "--n", "6", "--state", "mixture", "--x", "0.3",
                 "--f", "0.9", "--symmetric", "pi/2,-pi/12,pi/12",
                 "--output", "out.csv", "--format", "json"]
            ),
            parse_config(
                ["nash-check", "--n", "4", "--state", "ghz",
                 "--profile", "0,0,0;pi/2,0,0;pi,0,0;pi/4,-pi/8,pi/8",
                 "--grid", "7", "--tolerance", "1e-3"]
            ),
            parse_config(["conjecture", "--n", "6", "--payoff-classical", "0.00001"]),
            # renders as "-0.0,0.0,0.0", which argparse would take for a flag
            # if it were not joined to its flag as one token
            parse_config(["best-response", "--n", "4", "--symmetric=-0.0,0,0"]),
        ]
        for config in configs:
            assert parse_config(render(config)) == config


class TestEmitTable:
    ROWS = [{"player": 1, "payoff": 0.3125}, {"player": 2, "payoff": 0.3125}]

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_table(self.ROWS, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "player,payoff"
        assert lines[1] == "1,0.3125"
        assert path.read_text().endswith("\n")

    def test_json_layout(self, tmp_path):
        path = tmp_path / "t.json"
        emit_table(self.ROWS, "json", str(path))
        data = json.loads(path.read_text())
        assert data == [
            {"player": 1, "payoff": 0.3125},
            {"player": 2, "payoff": 0.3125},
        ]

    def test_deterministic_bytes(self):
        assert render_table(self.ROWS, "csv") == render_table(list(self.ROWS), "csv")
        assert render_table(self.ROWS, "json") == render_table(list(self.ROWS), "json")

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(CliError):
            emit_table([], "csv", str(path))
        assert not path.exists()

    def test_unknown_format_rejected(self):
        with pytest.raises(CliError, match="^unknown output format 'xml'$"):
            render_table(self.ROWS, "xml")

    def test_unwritable_path(self):
        with pytest.raises(CliError):
            emit_table(self.ROWS, "csv", "/nonexistent-dir/t.csv")


class TestRun:
    def test_classical_prints_eighth(self, capsys):
        assert main(["classical", "--n", "4"]) == 0
        assert "1/8" in capsys.readouterr().out

    def test_ghz6_payoff_json(self, tmp_path, capsys):
        path = tmp_path / "payoff.json"
        code = main(
            ["payoff", "--n", "6", "--state", "ghz",
             "--symmetric", "pi/2,-pi/12,pi/12",
             "--output", str(path), "--format", "json"]
        )
        assert code == 0
        data = json.loads(path.read_text())
        assert len(data) == 6
        assert data[0]["player"] == 1
        assert abs(data[0]["payoff"] - 0.3125) < 1e-9

    def test_nash_check_summary_true(self, capsys):
        code = main(
            ["nash-check", "--n", "6", "--state", "ghz",
             "--symmetric", "pi/2,-pi/12,pi/12", "--grid", "7"]
        )
        assert code == 0
        assert "is_nash=true" in capsys.readouterr().out

    def test_nash_check_summary_false_still_exits_zero(self, capsys):
        code = main(
            ["nash-check", "--n", "6", "--state", "ghz",
             "--symmetric", "0,0,0", "--grid", "5"]
        )
        assert code == 0
        assert "is_nash=false" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "state, off, interchangeable",
        [("ghz", 4, [1, 2, 3, 5, 6]), ("bell", 6, [1, 2, 3, 4])],
    )
    def test_nash_check_rows_of_interchangeable_players_agree(
        self, state, off, interchangeable, tmp_path
    ):
        # one player at identity: the players in the other blocks form one
        # class, so their rows differ only in the player column. Searched one
        # by one, Bell players 1-2 and 3-4 got different tied grid points
        path = tmp_path / "nash.csv"
        strategies = ["pi/2,-pi/12,pi/12"] * 6
        strategies[off - 1] = "0,0,0"
        assert main(["nash-check", "--n", "6", "--state", state,
                     "--profile", ";".join(strategies), "--output", str(path)]) == 0
        header, *lines = path.read_text().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        assert [row.pop("player") for row in rows] == [str(p) for p in range(1, 7)]
        first, *members = interchangeable
        assert all(rows[p - 1] == rows[first - 1] for p in members)
        assert rows[off - 1] != rows[first - 1]

    def test_sweep_x_csv_columns(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(["sweep-x", "--n", "6", "--steps", "5",
                     "--output", str(path)]) == 0
        header = path.read_text().splitlines()[0]
        assert header == "x,f,payoff_simulated,payoff_analytic,abs_error"

    def test_identical_config_identical_bytes(self, tmp_path):
        args = ["sweep-f", "--n", "6", "--steps", "5"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(args + ["--output", str(a)])
        main(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_flag_exits_nonzero(self, capsys):
        assert main(["payoff", "--n", "6", "--state", "ghz",
                     "--symmetric", "pi/2,oops,0"]) == 2

    def test_conjecture_value(self, capsys):
        code = main(["conjecture", "--n", "6", "--gamma", "pi/2",
                     "--payoff-classical", "0.1875", "--payoff-quantum", "0.3125"])
        assert code == 0
        assert "0.3125" in capsys.readouterr().out

    def test_conjecture_defaults_to_the_simulated_quantum_payoff(self, capsys):
        # at gamma = pi/2 the conjecture is the n-player entangler equilibrium
        assert main(["conjecture", "--n", "4", "--gamma", "pi/2"]) == 0
        value = float(capsys.readouterr().out.split()[-1])
        assert abs(value - 0.25) < 1e-12

    def test_best_response_runs(self, capsys):
        code = main(["best-response", "--n", "4", "--state", "ghz",
                     "--symmetric", "pi/2,-pi/8,pi/8", "--grid", "7",
                     "--player", "2"])
        assert code == 0
        assert "player 2" in capsys.readouterr().out

    def test_surface_emits_rows(self, tmp_path):
        path = tmp_path / "surface.csv"
        code = main(["surface", "--n", "4", "--state", "mixture", "--x", "0",
                     "--theta-steps", "5", "--alpha-steps", "5",
                     "--output", str(path)])
        assert code == 0
        assert len(path.read_text().splitlines()) == 26


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_every_command_writes_a_table(command, tmp_path):
    # flags a command does not read are accepted and ignored
    argv = [command, "--n", "4", "--grid", "3", "--steps", "3",
            "--theta-steps", "2", "--alpha-steps", "2"]
    if _COMMANDS[command].needs_profile:
        argv += ["--symmetric", "pi/2,-pi/8,pi/8"]
    path = tmp_path / "table.csv"
    assert main(argv + ["--output", str(path)]) == 0
    header, *rows = path.read_text().splitlines()
    assert header and rows


class TestCleanFailure:
    def test_n_above_dense_ceiling_rejected_before_any_state(self, capsys):
        # a 2^30 Bell product would be built before the state refused it
        assert main(["payoff", "--state", "bell", "--n", "30",
                     "--symmetric", "0,0,0"]) == 2
        assert "n must be <= 12 to build a state" in capsys.readouterr().err

    def test_n_at_dense_ceiling_accepted(self):
        assert parse_config(["payoff", "--n", "12", "--symmetric", "0,0,0"]).n == 12
        with pytest.raises(CliError, match="n must be <= 12"):
            parse_config(["payoff", "--n", "13", "--symmetric", "0,0,0"])

    def test_conjecture_past_the_ceiling_needs_its_quantum_payoff(self, capsys):
        assert main(["conjecture", "--n", "20"]) == 2
        assert capsys.readouterr().err == (
            "error: n must be <= 12 to build a state, got 20\n"
        )
        assert main(["conjecture", "--n", "20", "--payoff-quantum", "0.4"]) == 0

    def test_stateless_commands_keep_large_n(self, capsys):
        assert main(["classical", "--n", "13"]) == 0
        # the closed form builds no 2^n array
        assert main(["classical", "--n", "64"]) == 0
        # one binomial: its exact fraction has about 4200 digits here
        assert main(["classical", "--n", "14000"]) == 0
        assert capsys.readouterr().err == ""

    def test_classical_past_the_digit_limit_is_clean(self, capsys):
        # at Python's default limit of 4300 digits the exact fraction still
        # prints at n = 14294 and no longer at 14295; n = 10^6 is past the
        # bound on --n, so the binomial (about 15 s there) never runs
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(["classical", "--n", "14294"]) == 0
            assert capsys.readouterr().err == ""
            assert main(["classical", "--n", "14295"]) == 1
            assert capsys.readouterr().err == (
                "error: the exact payoff for n=14295 has more than 4300 digits\n"
            )
            start = time.perf_counter()
            assert main(["classical", "--n", "1000000"]) == 2
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err == (
                "error: n must be in [2, 100000], got 1000000\n"
            )
        finally:
            sys.set_int_max_str_digits(limit)

    def test_config_file_that_is_not_utf8_is_clean(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"n = 4\n\xff\n")
        assert main(["classical", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config file: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_memory_error_has_its_own_exit_code(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError("cannot allocate")

        monkeypatch.setattr(analysis, "best_response", exhausted)
        config = parse_config(["best-response", "--n", "4", "--state", "ghz",
                               "--symmetric", "0,0,0"])
        assert run(config) == 3
        assert capsys.readouterr().err == "error: out of memory: cannot allocate\n"

    # explicit ids, each the name its case already had: a case added
    # anywhere renames no other test
    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["payoff", "--n", "5", "--state", "bell", "--symmetric", "0,0,0"],
                         "bell requires even n_qubits",
                         id="argv0-bell requires even n_qubits"),
            pytest.param(["payoff", "--n", "4", "--state", "w3", "--symmetric", "0,0,0"],
                         "w3 product requires n_qubits divisible by 3",
                         id="argv1-w3 product requires n_qubits divisible by 3"),
            pytest.param(["payoff", "--n", "4", "--symmetric", "4,0,0"],
                         "theta must be in [0, pi], got 4.0",
                         id="argv2-theta must be in [0, pi], got 4.0"),
            pytest.param(["payoff", "--n", "4", "--symmetric", "0,0,0", "--tolerance", "nan"],
                         "tolerance must be finite and positive, got nan",
                         id="argv3-tolerance must be finite and positive, got nan"),
            pytest.param(["payoff", "--n", "4", "--symmetric", "0,0,0", "--tolerance", "inf"],
                         "tolerance must be finite and positive, got inf",
                         id="argv4-tolerance must be finite and positive, got inf"),
            pytest.param(["conjecture", "--n", "6", "--payoff-classical", "2"],
                         "payoff-classical must be in [0, 1], got 2.0",
                         id="argv5-payoff-classical must be in [0, 1], got 2.0"),
            pytest.param(["sweep-gamma", "--n", "4", "--steps", "3", "--payoff-quantum", "-0.5"],
                         "payoff-quantum must be in [0, 1], got -0.5",
                         id="argv6-payoff-quantum must be in [0, 1], got -0.5"),
            pytest.param(["conjecture", "--n", "6", "--payoff-quantum", "nan"],
                         "payoff-quantum must be in [0, 1], got nan",
                         id="argv7-payoff-quantum must be in [0, 1], got nan"),
            pytest.param(["surface", "--n", "4", "--theta-steps", "1"],
                         "theta-steps must be >= 2, got 1",
                         id="argv8-theta-steps must be >= 2, got 1"),
            pytest.param(["classical", "--format", "xml"],
                         "format must be csv or json, got xml",
                         id="argv9-format must be csv or json, got xml"),
            pytest.param(["payoff", "--state", "foo", "--symmetric", "0,0,0"],
                         "state must be one of ghz, bell, mixture, exp, w3, got foo",
                         id="argv10-state must be one of ghz, bell, mixture, exp, w3, got foo"),
            pytest.param(["classical", "--n", "4", "--symmetric", "9,0,0"],
                         "theta must be in [0, pi], got 9.0",
                         id="argv11-theta must be in [0, pi], got 9.0"),
            pytest.param(["surface", "--n", "4", "--theta-steps", "2", "--alpha-steps", "2",
                          "--profile", "9,0,0"],
                         "theta must be in [0, pi], got 9.0",
                         id="argv12-theta must be in [0, pi], got 9.0"),
            # n is checked before the n strategies or the exact binomial
            # are built; both once ended in a traceback or in no end
            pytest.param(["payoff", "--n", "99999999999999999999", "--symmetric", "pi/2,0,0"],
                         "n must be in [2, 100000], got 99999999999999999999",
                         id="argv13-n past the bound with a symmetric profile"),
            pytest.param(["conjecture", "--n", "99999999999999999999",
                          "--payoff-quantum", "0.4"],
                         "n must be in [2, 100000], got 99999999999999999999",
                         id="argv14-n past the bound in the conjecture"),
            pytest.param(["payoff", "--n", "13", "--symmetric", "9,0,0"],
                         "n must be <= 12 to build a state, got 13",
                         id="argv15-n past the dense ceiling before the profile"),
            # an empty field is a malformed token, never skipped
            pytest.param(["payoff", "--n", "4", "--symmetric", "pi/2,,0,0"],
                         "bad value for --symmetric: expected 'theta,alpha,beta', "
                         "got 'pi/2,,0,0'",
                         id="argv16-empty field inside a strategy"),
            pytest.param(["payoff", "--n", "4", "--symmetric", "pi/2,0,0,"],
                         "bad value for --symmetric: expected 'theta,alpha,beta', "
                         "got 'pi/2,0,0,'",
                         id="argv17-empty field after a strategy"),
            pytest.param(["payoff", "--n", "4", "--symmetric", ",pi/2,0"],
                         "bad value for --symmetric: malformed angle token ''",
                         id="argv18-empty angle at the front of a strategy"),
            pytest.param(["payoff", "--n", "2", "--profile", "0,0,0;;0,0,0"],
                         "bad value for --profile: expected 'theta,alpha,beta', got ''",
                         id="argv19-empty strategy inside a profile"),
            pytest.param(["best-response", "--n", "4", "--symmetric", "0,0,0", "--player", "5"],
                         "player must be in [1, 4], got 5",
                         id="argv20-player past n"),
            pytest.param(["payoff", "--n", "4", "--symmetric", "pi/0,0,0"],
                         "bad value for --symmetric: zero denominator in angle 'pi/0'",
                         id="argv21-zero denominator in an angle"),
            pytest.param(["payoff", "--n", "4", "--symmetric", "0,0,4"],
                         "beta must be in [-pi, pi], got 4.0",
                         id="argv22-beta must be in [-pi, pi], got 4.0"),
        ],
    )
    def test_domain_errors_are_clean(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            pytest.param(["sweep-x", "--n", "4", "--state", "w3"], 0, "", id="argv0-0-"),
            pytest.param(["sweep-f", "--n", "4", "--state", "w3"], 0, "", id="argv1-0-"),
            pytest.param(["sweep-gamma", "--n", "5", "--state", "bell"], 0, "", id="argv2-0-"),
            pytest.param(["sweep-x", "--n", "5"], 2, "error: mixture requires even n_qubits\n",
                         id="argv3-2-error: mixture requires even n_qubits\n"),
            pytest.param(["sweep-f", "--n", "5"], 2, "error: mixture requires even n_qubits\n",
                         id="argv4-2-error: mixture requires even n_qubits\n"),
        ],
    )
    def test_sweeps_validate_the_family_they_build(self, argv, code, err, capsys):
        assert main([*argv, "--steps", "3"]) == code
        assert capsys.readouterr().err == err

    def test_profile_and_symmetric_together_rejected(self, capsys):
        assert main(["payoff", "--n", "4", "--profile", "0,0,0;0,0,0;0,0,0;0,0,0",
                     "--symmetric", "4,0,0"]) == 2
        assert (capsys.readouterr().err
                == "error: give --symmetric or --profile, not both\n")

    @pytest.mark.parametrize(
        "command", [name for name, row in _COMMANDS.items() if row.needs_profile]
    )
    def test_profile_commands_need_a_profile(self, command, capsys):
        assert main([command, "--n", "4"]) == 2
        assert (capsys.readouterr().err
                == "error: command needs --symmetric or --profile\n")

    # argparse's own reason, once, with no usage block or second summary
    @pytest.mark.parametrize(
        "argv, reason",
        [
            pytest.param(["payoff", "--n"], "argument --n: expected one argument",
                         id="flag without its value"),
            pytest.param(["payoff", "--bogus", "1"], "unrecognized arguments: --bogus 1",
                         id="unknown flag"),
            pytest.param(["payof"], "argument command: invalid choice: 'payof'",
                         id="unknown command"),
            pytest.param([], "the following arguments are required: command",
                         id="empty argv"),
            # a flag is read under its full name only, never by a prefix
            pytest.param(["payoff", "--n", "4", "--sym", "pi/2,0,0"],
                         "unrecognized arguments: --sym pi/2,0,0",
                         id="abbreviated flag"),
            pytest.param(["payoff", "--n", "4", "--sta", "ghz", "--symmetric", "0,0,0"],
                         "unrecognized arguments: --sta ghz",
                         id="abbreviated flag before a full one"),
            pytest.param(["payoff", "--n", "4", "--p", "1"],
                         "unrecognized arguments: --p 1",
                         id="prefix of several flags"),
        ],
    )
    def test_usage_error_is_one_line(self, argv, reason, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {reason}")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: qmg")
        assert captured.err == ""

    def test_help_lists_every_flag_with_its_help_and_domain(self, monkeypatch, capsys):
        # wide enough that no help phrase wraps
        monkeypatch.setenv("COLUMNS", "400")
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert set(re.findall(r"^  --([a-z-]+)", out, re.MULTILINE)) == _FLAG_NAMES
        for name, (_, domain, help_text) in _FLAG_SPEC.items():
            if domain is not None:
                help_text += f", {domain[1]}"
            # the flag, its metavar, then its help text and nothing else
            line = rf"^  --{name} {name.replace('-', '_').upper()}\s+{re.escape(help_text)}$"
            assert re.search(line, out, re.MULTILINE), name

    def test_qmg_threads_is_not_read(self, monkeypatch):
        monkeypatch.setenv("QMG_THREADS", "not-a-number")
        assert parse_config(["classical", "--n", "4"]).n == 4


_HUGE = ["99999999999999999999", str(2**64), "-99999999999999999999"]
_BAD_NUMBERS = ["nan", "inf", "-inf", "1e400", "", "x", "0x10", "1_0"]
# step counts are small or past 2^63, where numpy refuses the size
# before it allocates anything
_INTS_FROM_TWO = ["2", "3", "1", "0", "-1", "2.5", *_HUGE, *_BAD_NUMBERS]
_UNIT_VALUES = ["0", "1", "0.5", "-0.0", "-1e-300", "1.0000000000000002", *_BAD_NUMBERS]
# "" puts empty fields in --symmetric as well as in --profile
_ANGLES = ["0", "pi/2", "-pi", "pi", "3.1415926535897936", "-pi/12", "pi/0", "tau", "nan", "inf",
           ""]
_TRIPLES = st.lists(st.sampled_from(_ANGLES), min_size=0, max_size=4).map(",".join)
_FUZZ_VALUES = {
    # past 12 only the stateless runs pass validation, so no case builds
    # more than 2^12 amplitudes; 100000 is the bound's edge for those runs
    "n": st.sampled_from(["2", "3", "4", "6", "12", "13", "100000", "100001", "1", "0", "-1",
                          *_HUGE, *_BAD_NUMBERS]),
    "state": st.sampled_from([*(f.value for f in StateFamily), "GHZ", "foo", ""]),
    "x": st.sampled_from(_UNIT_VALUES),
    "f": st.sampled_from(_UNIT_VALUES),
    "gamma": st.sampled_from(["0", "pi/2", "pi/4", "1.5707963267948968", "-1e-300",
                              *_ANGLES, *_BAD_NUMBERS]),
    "symmetric": _TRIPLES,
    "profile": st.lists(_TRIPLES, max_size=4).map(";".join),
    "player": st.sampled_from(["1", "2", "4", *_INTS_FROM_TWO]),
    "grid": st.sampled_from(_INTS_FROM_TWO),
    "theta-steps": st.sampled_from(_INTS_FROM_TWO),
    "alpha-steps": st.sampled_from(_INTS_FROM_TWO),
    "steps": st.sampled_from(_INTS_FROM_TWO),
    "tolerance": st.sampled_from(["1e-4", "5e-324", "1e308", "0", "-1e-4", *_BAD_NUMBERS]),
    "payoff-classical": st.sampled_from(_UNIT_VALUES),
    "payoff-quantum": st.sampled_from(_UNIT_VALUES),
    "output": st.sampled_from(["{tmp}/table", "/nonexistent-dir/t.csv", ""]),
    "format": st.sampled_from(["csv", "json", "xml", ""]),
    "config": st.sampled_from(["/nonexistent-dir/qmg.cfg", ""]),
}


@st.composite
def _argv(draw):
    """An argv, and whether some flag in it is spelled by a prefix alone."""
    argv = [draw(st.sampled_from([*_COMMANDS, "meow"]))]
    # in about one line in three, the first flag that has a prefix gets one
    abbreviate, abbreviated = draw(st.integers(0, 2)) == 2, False
    for name in draw(st.lists(st.sampled_from(list(_FUZZ_VALUES)), unique=True, max_size=6)):
        value = draw(_FUZZ_VALUES[name])
        if abbreviate and _PREFIXES[name]:
            name = draw(st.sampled_from(_PREFIXES[name]))
            abbreviate, abbreviated = False, True
        # a value like "-1" as its own token reads as a flag: that line is bad too
        argv += draw(st.sampled_from([[f"--{name}={value}"], [f"--{name}", value]]))
    return argv, abbreviated


def test_fuzzed_flags_cover_every_flag():
    assert set(_FUZZ_VALUES) == _FLAG_NAMES


@given(_argv())
@settings(max_examples=300, deadline=None)
def test_fuzzed_command_lines_exit_with_a_code_and_never_raise(case):
    # every command and flag, with values at and just past each domain's
    # edges, nan, inf, huge ints, malformed tokens and abbreviated names
    argv, abbreviated = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([token.replace("{tmp}", tmp) for token in argv])
    assert code in (0, 1, 2, 3)
    if abbreviated:
        assert code == 2
    if code:
        assert err.getvalue().splitlines()[-1].startswith("error: ")


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_COMMANDS = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    for line in block.splitlines()
    if line.startswith("qmg ")
]


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_examples_parse(line, tmp_path, monkeypatch):
    # each documented command also runs, writing any --output into tmp_path
    args = shlex.split(line)[1:]
    parse_config(args)
    monkeypatch.chdir(tmp_path)
    assert main(args) == 0
