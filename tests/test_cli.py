import json
import math
import pathlib
import re
import shlex

import pytest

from qmg import analysis
from qmg.cli import (
    _COMMANDS,
    CliError,
    RunConfig,
    emit_table,
    main,
    parse_angle,
    parse_config,
    render,
    render_table,
    run,
)

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

    def test_config_file_with_flag_override(self):
        text = "n = 6\nstate = ghz\nsymmetric = pi/2,-pi/12,pi/12\n"
        config = parse_config(["payoff", "--n", "4", "--state", "mixture",
                               "--x", "0.5"], config_text=text)
        assert config.n == 4  # flag wins
        assert config.state == "mixture"
        assert config.symmetric == (PI / 2, -PI / 12, PI / 12)  # from file

    def test_config_file_unknown_key(self):
        with pytest.raises(CliError, match="unknown key"):
            parse_config(["classical"], config_text="volume = 11\n")
        # the command comes from the command line only
        with pytest.raises(CliError, match="unknown key 'command'"):
            parse_config(["payoff", "--symmetric", "0,0,0"],
                         config_text="command = nash-check\n")

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
        assert capsys.readouterr().err == ""

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

    def test_qmg_threads_is_not_read(self, monkeypatch):
        monkeypatch.setenv("QMG_THREADS", "not-a-number")
        assert parse_config(["classical", "--n", "4"]).n == 4


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
README_COMMANDS = [
    line
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    for line in block.splitlines()
    if line.startswith("qmg ")
]


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_examples_parse(line):
    parse_config(shlex.split(line)[1:])
