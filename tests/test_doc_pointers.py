"""Every test that the docs name as the pin of a rule exists.

A docstring, comment, README paragraph or CI comment names a pin as
`tests/<file>.py::<name>` or `tests/<file>.py::<Class>::<test>`. Each
such file must exist and define that class or function, with that
method; so renaming a pin fails here instead of leaving a stale pointer.
"""
import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = [*sorted((ROOT / "src" / "qmg").glob("*.py")), ROOT / "README.md",
           ROOT / ".github" / "workflows" / "tests.yml"]
POINTER = re.compile(r"\btests/(\w+\.py)::(\w+)(?:::(\w+))?")


def _pointers():
    found = set()
    for source in SOURCES:
        for match in POINTER.finditer(source.read_text(encoding="utf-8")):
            found.add((source.relative_to(ROOT).as_posix(), *match.groups()))
    return sorted(found, key=lambda p: (p[0], p[1], p[2], p[3] or ""))


POINTERS = _pointers()


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
