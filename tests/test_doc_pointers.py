"""Every test that the docs name as the pin of a rule exists, and so does
every package name they put in backticks.

A docstring, comment, README paragraph or CI comment names a pin as
`tests/<file>.py::<name>` or `tests/<file>.py::<Class>::<test>`. Each
such file must exist and define that class or function, with that
method; so renaming a pin fails here instead of leaving a stale pointer.
Likewise each backticked `<module>.<name>` or `<module>.<name>.<attr>`
of `core`, `game`, `analysis`, `states` or `cli` must be a function,
class or module-level assignment of `src/qmg/<module>.py`, and `<attr>`
a method of that class.
"""
import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = [*sorted((ROOT / "src" / "qmg").glob("*.py")), ROOT / "README.md",
           ROOT / ".github" / "workflows" / "tests.yml"]
POINTER = re.compile(r"\btests/(\w+\.py)::(\w+)(?:::(\w+))?")
# `cli.py` names a file, not a module attribute
NAME = re.compile(r"`(core|game|analysis|states|cli)\.(?!py`)(\w+)(?:\.(\w+))?`")


def _found(pattern):
    found = set()
    for source in SOURCES:
        for match in pattern.finditer(source.read_text(encoding="utf-8")):
            found.add((source.relative_to(ROOT).as_posix(), *match.groups()))
    return sorted(found, key=lambda p: (p[0], p[1], p[2], p[3] or ""))


POINTERS = _found(POINTER)
NAMES = _found(NAME)


def _definitions(body):
    return {node.name: node for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}


def test_the_docs_name_some_pins():
    assert POINTERS


@pytest.mark.parametrize("source, file, name, method", POINTERS, ids=[
    f"{source}->{file}::{name}" + (f"::{method}" if method else "")
    for source, file, name, method in POINTERS
])
def test_each_named_pin_is_defined(source, file, name, method):
    path = ROOT / "tests" / file
    assert path.is_file(), f"{source} names tests/{file}, which does not exist"
    defined = _definitions(ast.parse(path.read_text(encoding="utf-8")).body)
    assert name in defined, f"{source} names {name}, which tests/{file} does not define"
    if method is not None:
        node = defined[name]
        assert isinstance(node, ast.ClassDef), f"{source} names {name}::{method}, not a class"
        assert method in _definitions(node.body), f"{source} names {name}::{method}, not defined"


def _undefined(module, name, attr):
    """Why `module.name[.attr]` is not defined in src/qmg, or None if it is."""
    body = ast.parse((ROOT / "src" / "qmg" / f"{module}.py").read_text(encoding="utf-8")).body
    defined = _definitions(body)
    for node in body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    if name not in defined:
        return f"{module}.py does not define {name}"
    if attr is not None and not (isinstance(defined[name], ast.ClassDef)
                                 and attr in _definitions(defined[name].body)):
        return f"{module}.{name} has no method {attr}"
    return None


def test_the_docs_name_some_package_names():
    assert NAMES


@pytest.mark.parametrize("source, module, name, attr", NAMES, ids=[
    f"{source}->{module}.{name}" + (f".{attr}" if attr else "")
    for source, module, name, attr in NAMES
])
def test_each_backticked_name_is_defined(source, module, name, attr):
    problem = _undefined(module, name, attr)
    assert problem is None, f"{source}: {problem}"


def test_a_removed_name_fails_and_a_file_name_is_skipped():
    line = "`game.final_amplitude_chunks` yields blocks, as `cli.py` and `game.PAYOFF_CHUNK` say"
    found = [match.groups() for match in NAME.finditer(line)]
    assert found == [("game", "final_amplitude_chunks", None), ("game", "PAYOFF_CHUNK", None)]
    assert _undefined("game", "final_amplitude_chunks", None) == (
        "game.py does not define final_amplitude_chunks"
    )
    assert _undefined("game", "PAYOFF_CHUNK", None) is None
    assert _undefined("analysis", "_DeviationEvaluator", "exact_optima") is None
    assert _undefined("analysis", "_DeviationEvaluator", "gram") is not None
