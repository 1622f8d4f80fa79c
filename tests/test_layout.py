"""Rules on the package source: one function per first line, stdlib-only imports."""

import ast
import collections
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "effectbx").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_line_starts_two_functions(path):
    # profilers key a function by (file, first line, name), so two functions
    # that start on one line would share one entry and merge their counts
    starts = collections.Counter(
        node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef))
    )
    assert sorted(line for line, count in starts.items() if count > 1) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    # the package stays stdlib-only: every import is relative or names a
    # module of the standard library
    outside = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        outside += [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_run_laws_is_called_only_by_check():
    # one checker table decides how a report is named and how cap and seed
    # reach the runner, so ``checks.check`` is the runner's one caller
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.Module, ast.FunctionDef, ast.Lambda)):
                calls += [(path.name, getattr(scope, "name", None)) for node in ast.walk(scope)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "run_laws"]
    # each call is listed once for the module and once per function around it
    assert calls == [("checks.py", None), ("checks.py", "check")]


def test_bx_is_built_by_hand_only_where_a_get_is_not_a_view():
    # a bx whose gets are views of its state is the span of two lenses, built
    # by ``span_bx``, the combinators of transparent bx among them; the other
    # constructors of ``Bx`` are ``_mk``, which builds the corpus mutants
    # (the gets of mutant-get_l-get_l, its dual and mutant-get_l-get_r leave
    # the state domain; the other five have view gets), and ``switch_bx``,
    # whose gets read the environment
    builders = set()
    for path in SOURCES:
        for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(scope, ast.FunctionDef):
                builders |= {(path.name, scope.name) for node in ast.walk(scope)
                             if isinstance(node, ast.Call)
                             and getattr(node.func, "id", None) == "Bx"}
    assert builders == {
        ("bx.py", "span_bx"),
        ("corpus.py", "_mk"),
        ("examples.py", "switch_bx"),
    }


def test_transparency_is_analysed_only_for_a_bx_without_legs_and_by_the_corpus():
    # the combinators read a bx through ``bx.legs_of``, which analyses only a
    # bx without legs; the corpus checks each entry's declared transparency
    callers = set()
    for path in SOURCES:
        for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(scope, ast.FunctionDef):
                callers |= {(path.name, scope.name) for node in ast.walk(scope)
                            if isinstance(node, ast.Call)
                            and getattr(node.func, "id", None) == "analyze_transparency"}
    assert callers == {("bx.py", "legs_of"), ("corpus.py", "run_corpus")}


def test_only_lawcheck_catches_a_value_that_does_not_hash():
    # finding a value among a carrier's elements is written once, in
    # ``lawcheck.Positions``: no other module falls back on a scan when
    # hashing raises TypeError
    catchers = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(getattr(name, "id", None) == "TypeError" for name in caught):
                    catchers.append(path.name)
    assert set(catchers) <= {"lawcheck.py"}


def test_a_family_states_its_observation_once():
    # a family's equality and outcomes are derived from its ``observe``, so a
    # family passes ``observe``, or neither it nor ``equal`` (the state
    # transformer has no observation of its own); only a multiset of choices,
    # which has no canonical observation to compare, passes ``equal``
    calls = []
    for path in SOURCES:
        for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(scope, ast.FunctionDef):
                calls += [(path.name, scope.name, node) for node in ast.walk(scope)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "EffectFamily"]
    assert calls
    equal_by = set()
    for module, builder, node in calls:
        # with at most three positional arguments (name, unit, bind),
        # ``equal`` and ``observe`` can be passed only by keyword
        assert len(node.args) <= 3, (module, builder)
        keywords = {keyword.arg for keyword in node.keywords}
        assert "observe" in keywords or "equal" not in keywords, (module, builder)
        if "equal" in keywords:
            equal_by.add((module, builder))
    assert equal_by == {("effects.py", "choice_family")}


def test_no_init_only_stores_its_parameters():
    # a value type is declared by its fields, as a dataclass: an ``__init__``
    # is written by hand only when it converts or computes a field
    storers = []
    for path in SOURCES:
        for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(scope, ast.ClassDef):
                continue
            for init in scope.body:
                if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                    continue
                params = [arg.arg for arg in init.args.args[1:] + init.args.kwonlyargs]
                stored = [(target.attr, statement.value.id) for statement in init.body
                          if isinstance(statement, ast.Assign)
                          and isinstance(statement.value, ast.Name)
                          for target in statement.targets
                          if isinstance(target, ast.Attribute)
                          and getattr(target.value, "id", None) == "self"]
                if len(stored) == len(init.body) and stored == [(p, p) for p in params]:
                    storers.append((path.name, scope.name))
    assert storers == []


def test_only_the_live_view_writes_its_equality_and_hash():
    # dataclasses generate ``__eq__`` and ``__hash__`` over their fields; the
    # live view of a function quantifier answers as the decoded function does
    writers = set()
    for path in SOURCES:
        for scope in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(scope, ast.ClassDef):
                writers |= {(path.name, scope.name, node.name) for node in scope.body
                            if isinstance(node, ast.FunctionDef)
                            and node.name in ("__eq__", "__hash__")}
    assert writers == {("lawcheck.py", "_PartialFunction", "__eq__"),
                       ("lawcheck.py", "_PartialFunction", "__hash__")}
