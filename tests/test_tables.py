"""The committed headline tables regenerate byte for byte.

A one-ulp drift in any payoff shows up here as a changed CSV cell.
"""
import csv
import io
import pathlib
import runpy

import pytest

from qmg.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "results"
SCRIPTS = ROOT / "scripts"

# loaded from the file, not imported, since run_all() rewrites the list in place
RUNS = runpy.run_path(str(SCRIPTS / "reproduce_tables.py"))["RUNS"]


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[:1] + argv[-1:]))
def test_reproduce_tables_run_is_byte_identical(argv, tmp_path, capsys):
    args = list(argv)
    name = None
    if "--output" in args:
        i = args.index("--output") + 1
        name = args[i]
        args[i] = str(tmp_path / name)
    assert main(args) == 0, capsys.readouterr().err
    if name is not None:
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes()


def test_crossover_scan_is_byte_identical():
    scan = runpy.run_path(str(SCRIPTS / "crossover_scan.py"))["scan"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["x", "payoff_bell_strategy", "payoff_ghz_strategy"])
    for row in scan():
        writer.writerow([format(v, ".12g") for v in row])
    assert buf.getvalue().encode() == (RESULTS / "crossover_n4.csv").read_bytes()
