"""Per-layer metrics from one profiled pass over the timed ops.

The pass runs under ``cProfile``.  Call counts and cumulative times are read
for named functions, found by their code objects; self time is attributed to
a layer by the module that defines the function, and to an effect family by
the factory function (``<name>_family``) that defines it.  The quantifier
spaces (``enumerate_functions``, ``enumerate_stateful``, ``values_over``)
nest inside one another, so their time is taken from span wrappers that the
pass installs around them and counts only the outermost call.
"""

from __future__ import annotations

import ast
import cProfile
import importlib
import pstats
import sys
import time
from pathlib import Path

FAMILIES = ("identity", "failure", "choice", "reader", "writer", "console")
SUBJECT_MODULES = ("bx", "combinators", "examples", "symlens")


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _mod(name):
    return importlib.import_module(f"effectbx.{name}")


def _definer(path: Path, names):
    """A function mapping a line of ``path`` to the name of the top-level
    function, among ``names``, whose definition contains it (or None)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    ranges = [(node.lineno, node.end_lineno, node.name) for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name in names]

    def definer(line):
        return next((name for first, last, name in ranges if first <= line <= last), None)

    return definer


class _Span:
    """Accumulates wall time of the outermost calls into a set of functions."""

    def __init__(self):
        self.depth = 0
        self.total = 0.0
        self._start = 0.0

    def wrap(self, fn):
        def spanned(*args, **kwargs):
            if self.depth == 0:
                self._start = time.perf_counter()
            self.depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.depth -= 1
                if self.depth == 0:
                    self.total += time.perf_counter() - self._start

        return spanned


def _install_space_spans(span: _Span):
    """Wrap the space builders everywhere effectbx refers to them; return a
    function that restores the originals."""
    lawcheck, stateful, effects = _mod("lawcheck"), _mod("stateful"), _mod("effects")
    patched = []
    for original in (lawcheck.enumerate_functions, stateful.enumerate_stateful):
        wrapped = span.wrap(original)
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "effectbx" and getattr(
                    module, original.__name__, None) is original:
                setattr(module, original.__name__, wrapped)
                patched.append((module, original.__name__, original))
    family = effects.EffectFamily
    patched.append((family, "values_over", family.values_over))
    family.values_over = span.wrap(family.values_over)

    def restore():
        for owner, name, original in patched:
            setattr(owner, name, original)

    return restore


def profile_pass(run_pass):
    """Run ``run_pass(wrap)`` once under the profiler, where ``wrap`` times
    each op's serialisation.  Returns the profile, the span of the space
    builders, that of serialisation and what ``run_pass`` returned.
    """
    space, serialise = _Span(), _Span()
    restore = _install_space_spans(space)
    profile = cProfile.Profile()
    try:
        profile.enable()
        try:
            result = run_pass(serialise.wrap)
        finally:
            profile.disable()
    finally:
        restore()
    return profile, space, serialise, result


def layer_metrics(profile, space, serialise, texts, assignments, witnesses):
    """The per-layer metrics of one profiled pass.

    ``texts`` are the serialised outputs of the pass's ops; ``assignments``
    and ``witnesses`` are counted from those outputs by the caller.
    """
    stats = pstats.Stats(profile).stats
    lawcheck, effects = _mod("lawcheck"), _mod("effects")
    package = Path(lawcheck.__file__).resolve().parent

    def stat(fn, index):
        """Field ``index`` of ``fn``'s pstats entry: 1 calls, 2 self time,
        3 cumulative time."""
        entry = stats.get(_key(fn))
        return entry[index] if entry else 0

    def calls(fn):
        return stat(fn, 1)

    def edge(caller, callee):
        """(calls, cumulative time) of ``callee`` when called by ``caller``."""
        entry = stats.get(callee if isinstance(callee, tuple) else _key(callee))
        if not entry:
            return 0, 0.0
        nc, _cc, _tt, ct = entry[4].get(_key(caller), (0, 0, 0.0, 0.0))
        return nc, ct

    module_self = {}
    inner_self = {}  # self time by defining function, for lawcheck and effects
    definers = {
        "lawcheck": _definer(package / "lawcheck.py", ("_assignments", "run_laws")),
        "effects": _definer(package / "effects.py", [f"{f}_family" for f in FAMILIES]),
    }
    for (filename, line, _name), (_cc, _nc, tt, _ct, _callers) in stats.items():
        path = Path(filename)
        if path.parent != package:
            continue
        module_self[path.stem] = module_self.get(path.stem, 0.0) + tt
        definer = definers.get(path.stem)
        owner = definer(line) if definer else None
        if owner:
            inner_self[owner] = inner_self.get(owner, 0.0) + tt

    corpus, compose = _mod("corpus"), _mod("compose")
    build_keys = {_key(entry.build) for entry in corpus.corpus_entries()}
    build_s = sum(edge(corpus.run_corpus, key)[1] for key in build_keys)
    evaluations = edge(lawcheck.run_laws, lawcheck.Law.evaluate)[0]
    report_s = serialise.total + edge(corpus.run_corpus, lawcheck.LawReport.to_dict)[1]

    metrics = {
        "lawcheck.assignments": (assignments, "count"),
        "lawcheck.evaluations": (evaluations, "count"),
        "lawcheck.evaluations_per_assignment": (
            evaluations / assignments if assignments else 0.0, "ratio"),
        "lawcheck.ff_calls": (calls(lawcheck.FiniteFunction.__call__), "count"),
        "lawcheck.ff_self_s": (stat(lawcheck.FiniteFunction.__call__, 2), "s"),
        "lawcheck.enum_self_s": (inner_self.get("_assignments", 0.0), "s"),
        "lawcheck.run_laws_self_s": (inner_self.get("run_laws", 0.0), "s"),
        "lawcheck.space_build_s": (space.total, "s"),
        "lawcheck.witnesses": (witnesses, "count"),
        "lawcheck.report_s": (report_s, "s"),
        "lawcheck.report_bytes": (sum(len(t.encode()) for t in texts), "bytes"),
    }
    for name, factory in (
        ("identity", effects.identity_family),
        ("failure", effects.failure_family),
        ("choice", effects.choice_family),
        ("reader", lambda: effects.reader_family((0,))),
        ("writer", effects.writer_family),
        ("console", effects.console_family),
    ):
        fam = factory()
        metrics[f"effects.{name}.bind_calls"] = (calls(fam.bind), "count")
        metrics[f"effects.{name}.equal_calls"] = (calls(fam.equal), "count")
        metrics[f"effects.{name}.self_s"] = (inner_self.get(f"{name}_family", 0.0), "s")
    stateful, lenses, bx = _mod("stateful"), _mod("lenses"), _mod("bx")
    metrics.update({
        "effects.self_s": (module_self.get("effects", 0.0), "s"),
        "stateful.bind_calls": (calls(stateful.Stateful.bind), "count"),
        "stateful.self_s": (module_self.get("stateful", 0.0), "s"),
        "lenses.theta_calls": (calls(lenses.theta), "count"),
        "lenses.self_s": (module_self.get("lenses", 0.0), "s"),
        "bx.build_s": (build_s, "s"),
        "bx.transparency_calls": (calls(bx.analyze_transparency), "count"),
        "bx.transparency_s": (stat(bx.analyze_transparency, 3), "s"),
        "bx.subject_self_s": (sum(module_self.get(m, 0.0) for m in SUBJECT_MODULES), "s"),
        "compose.compose_s": (stat(compose.compose, 3), "s"),
        "corpus.recheck_calls": (calls(corpus.recheck_witness), "count"),
        "corpus.recheck_s": (stat(corpus.recheck_witness, 3), "s"),
    })
    return metrics, module_self
