"""Pluggable effect families and their meta-checks.

An effect family packages one notion of effect as first-class data: how to
inject a pure value (``unit``), how to sequence (``bind``), an optional zero
that absorbs sequencing, and a decidable equality on effect values over finite
carriers.  Families also know how to enumerate their own effect values over a
finite domain, which is what makes exhaustive law checking possible.

Shipped families: identity, failure, finite choice, reader, writer (unbounded
or bounded drop-oldest log), scripted console, and a native-state family used
by the data-refinement construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Any, Callable, Iterable, Optional

from .errors import ScriptExhausted, UnobservableEffect
from .lawcheck import (
    FiniteDomain,
    Law,
    LawReport,
    enumerate_functions,
    run_laws,
    tuples_up_to,
)


@dataclass(frozen=True)
class EffectFamily:
    """A named, pluggable notion of effect.

    ``equal(x, y)`` compares two effect values structurally, their results
    with ``==``, and is total only for families with finite observability.
    ``enumerate_contexts`` lists the observation contexts equality
    quantifies over (environments for reader, input scripts for console);
    ``enumerate_values`` yields a deterministic finite listing (a tuple or a
    lazy ``Space``) of effect values over a given carrier, used by the law
    checker.  ``outcomes`` extracts the observable results of an effect
    value (all branches for choice, zero or one for failure, one per context
    for reader/console).
    """

    name: str
    unit: Callable[[Any], Any]
    bind: Callable[[Any, Callable[[Any], Any]], Any]
    zero: Any = None
    equal: Optional[Callable[[Any, Any], bool]] = None
    enumerate_contexts: Optional[tuple] = None
    enumerate_values: Optional[Callable[[FiniteDomain], Iterable]] = None
    outcomes: Optional[Callable[[Any], tuple]] = None

    def __repr__(self):
        return f"EffectFamily({self.name})"

    def values_over(self, dom: FiniteDomain) -> tuple:
        if self.enumerate_values is None:
            raise UnobservableEffect(f"{self.name}: no value enumerator")
        return self.enumerate_values(dom)

    def equal_values(self, x, y) -> bool:
        if self.equal is None:
            raise UnobservableEffect(f"{self.name}: no declared equality")
        return self.equal(x, y)

    def outcomes_of(self, x) -> tuple:
        if self.outcomes is None:
            raise UnobservableEffect(f"{self.name}: no outcome extractor")
        return self.outcomes(x)

    def map(self, m, f):
        return self.bind(m, lambda a: self.unit(f(a)))

    def then(self, m, n):
        return self.bind(m, lambda _: n)

    def mapm(self, f, xs):
        """Sequence ``f`` over ``xs`` left to right, collecting a tuple."""
        acc = self.unit(())
        for x in xs:
            acc = self.bind(acc, lambda ys, x=x: self.map(
                f(x),
                lambda y: ys + (y,),
            ))
        return acc


# ---------------------------------------------------------------------------
# identity


@cache
def identity_family() -> EffectFamily:
    """The identity effect, one shared instance (families are immutable): the
    default effect of every lens and symmetric lens."""
    return EffectFamily(
        name="identity",
        unit=lambda a: a,
        bind=lambda m, k: k(m),
        equal=lambda x, y: x == y,
        enumerate_values=lambda dom: tuple(dom.elements),
        outcomes=lambda x: (x,),
    )


def require_identity(fam: EffectFamily, what: str):
    """Refuse any family but the identity: ``what`` reads its effect values
    as plain values."""
    if fam.name != "identity":
        raise ValueError(f"{what} requires the identity effect, not {fam.name}")


# ---------------------------------------------------------------------------
# failure


@dataclass(frozen=True)
class Just:
    value: Any

    def __repr__(self):
        return f"Just({self.value!r})"


class _Nothing:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Nothing"


NOTHING = _Nothing()


def failure_family() -> EffectFamily:
    def bind(m, k):
        return k(m.value) if isinstance(m, Just) else NOTHING

    def equal(x, y):
        if isinstance(x, Just) and isinstance(y, Just):
            return x.value == y.value
        return x is NOTHING and y is NOTHING

    return EffectFamily(
        name="failure",
        unit=Just,
        bind=bind,
        zero=NOTHING,
        equal=equal,
        enumerate_values=lambda dom: (NOTHING,) + tuple(Just(a) for a in dom.elements),
        outcomes=lambda x: (x.value,) if isinstance(x, Just) else (),
    )


# ---------------------------------------------------------------------------
# finite choice (list monad; values are tuples of outcomes)


def choice_family(multiset: bool = False) -> EffectFamily:
    """List-monad effect.  Equality is order-sensitive by default; pass
    ``multiset=True`` to compare outcome multisets instead.  Enumerated
    values have at most two outcomes."""

    def bind(m, k):
        out = ()
        for a in m:
            out = out + tuple(k(a))
        return out

    def equal(x, y):
        if multiset:
            remaining = list(y)
            for a in x:
                for i, b in enumerate(remaining):
                    if a == b:
                        del remaining[i]
                        break
                else:
                    return False
            return not remaining
        return len(x) == len(y) and all(a == b for a, b in zip(x, y))

    return EffectFamily(
        name="choice" if not multiset else "choice-multiset",
        unit=lambda a: (a,),
        bind=bind,
        zero=(),
        equal=equal,
        enumerate_values=lambda dom: tuples_up_to(dom, 2),
        outcomes=lambda x: tuple(x),
    )


# ---------------------------------------------------------------------------
# reader


def reader_family(contexts, name: str = "reader") -> EffectFamily:
    """Environment monad over a finite context set.  Effect values are
    functions from environment to result; equality is pointwise."""

    ctxs = tuple(contexts)

    return EffectFamily(
        name=name,
        # each inner lambda on a line of its own, so that profilers, which
        # key a function by (file, first line, name), tell it from the outer
        unit=lambda a: (
            lambda _env: a
        ),
        bind=lambda m, k: (
            lambda env: k(m(env))(env)
        ),
        equal=lambda x, y: all(x(e) == y(e) for e in ctxs),
        enumerate_contexts=ctxs,
        enumerate_values=lambda dom: enumerate_functions(FiniteDomain("env", ctxs), dom),
        outcomes=lambda x: tuple(x(e) for e in ctxs),
    )


def ask():
    """The reader primitive returning the environment."""
    return lambda env: env


# ---------------------------------------------------------------------------
# writer


def writer_family(bound: Optional[int] = None) -> EffectFamily:
    """Writer monad whose log monoid is finite sequences under concatenation.

    With ``bound=n`` the log keeps only the most recent ``n`` entries
    (drop-oldest); bounded sequences still form a monoid, so the monad laws
    survive.  Enumerated values log nothing or one of ``"w0"``, ``"w1"``.
    """

    def cat(w1, w2):
        w = w1 + w2
        return w if bound is None else w[len(w) - bound:] if len(w) > bound else w

    def bind(m, k):
        a, w1 = m
        b, w2 = k(a)
        return (b, cat(w1, w2))

    def enumerate_values(dom):
        logs = [(), ("w0",), ("w1",)]
        return tuple((a, w) for a in dom.elements for w in logs)

    return EffectFamily(
        name="writer" if bound is None else f"writer<={bound}",
        unit=lambda a: (a, ()),
        bind=bind,
        equal=lambda x, y: x[0] == y[0] and x[1] == y[1],
        enumerate_values=enumerate_values,
        outcomes=lambda x: (x[0],),
    )


def tell(entries):
    """Writer primitive appending ``entries`` (a tuple) to the log."""
    return ((), tuple(entries))


# ---------------------------------------------------------------------------
# scripted console


class ConsoleWorld:
    """Deterministic substitute for terminal interaction.

    Holds a queue of pending input lines and an append-only transcript of
    ``("out", text)`` / ``("in", text)`` entries.  Reading from an empty queue
    raises ScriptExhausted unless the world is interactive, in which case it
    reads a line from the real terminal (the CLI is the only creator of
    interactive worlds) and raises ScriptExhausted at end of input.
    """

    def __init__(self, script=(), interactive: bool = False):
        self.pending = list(script)
        self.transcript = []
        self.interactive = interactive

    def write(self, text: str):
        self.transcript.append(("out", text))
        if self.interactive:
            print(text)

    def read(self) -> str:
        if self.pending:
            line = self.pending.pop(0)
        elif self.interactive:
            try:
                line = input()
            except EOFError:
                raise ScriptExhausted("console input ended") from None
        else:
            raise ScriptExhausted("console script exhausted")
        self.transcript.append(("in", line))
        return line

    def snapshot(self):
        return (tuple(self.pending), tuple(self.transcript))


@dataclass(frozen=True)
class _ConsoleValue:
    """An enumerated console value: a labelled ConsoleWorld -> result
    function whose repr is its label, so witnesses stay readable."""

    label: str
    run: Callable[[ConsoleWorld], Any]

    def __call__(self, world):
        return self.run(world)

    def __repr__(self):
        return self.label


def console_write(text: str):
    def run(world: ConsoleWorld):
        world.write(text)
        return ()

    return run


def console_read():
    return lambda world: world.read()


# the result of a read past the end of a script; no computation can return it
_EXHAUSTED = object()


def console_family(scripts=((),)) -> EffectFamily:
    """Console effect: values are functions ConsoleWorld -> result.

    Equality runs both values against every input script in ``scripts`` and
    demands identical results, identical remaining input and identical
    transcripts; a read past the end of a script is itself an observation that
    both sides must share.
    """

    scripts = tuple(tuple(s) for s in scripts)

    def observe(m, script):
        world = ConsoleWorld(script)
        try:
            result = m(world)
        except ScriptExhausted:
            return (_EXHAUSTED, world.snapshot())
        return (result, world.snapshot())

    def equal(x, y):
        for script in scripts:
            rx, wx = observe(x, script)
            ry, wy = observe(y, script)
            if wx != wy:
                return False
            if rx is _EXHAUSTED or ry is _EXHAUSTED:
                if not (rx is _EXHAUSTED and ry is _EXHAUSTED):
                    return False
            elif rx != ry:
                return False
        return True

    def enumerate_values(dom):
        values = []
        for a in dom.elements:
            values.append(_ConsoleValue(f"unit({a!r})", lambda w, a=a: a))
        for a in dom.elements:
            values.append(
                _ConsoleValue(
                    f"write;unit({a!r})", lambda w, a=a: (w.write("x"), a)[1]
                )
            )
        for a in dom.elements:
            values.append(
                _ConsoleValue(f"read;unit({a!r})", lambda w, a=a: (w.read(), a)[1])
            )
        return tuple(values)

    def outcomes(x):
        out = []
        for script in scripts:
            r, _ = observe(x, script)
            if r is not _EXHAUSTED:
                out.append(r)
        return tuple(out)

    return EffectFamily(
        name="console",
        # inner lambdas on lines of their own, as in reader_family
        unit=lambda a: (
            lambda world: a
        ),
        bind=lambda m, k: (
            lambda world: k(m(world))(world)
        ),
        equal=equal,
        enumerate_contexts=scripts,
        enumerate_values=enumerate_values,
        outcomes=outcomes,
    )


def console_run(comp, script):
    """Run a console-effect value against an input script.

    Returns ``(result, transcript)``; rerunning with the same script is
    bit-identical.  Raises ScriptExhausted if the computation reads past the
    script.
    """
    world = ConsoleWorld(tuple(script))
    result = comp(world)
    return result, tuple(world.transcript)


def load_console_script(path) -> tuple:
    """Read an input script from a plain-text file: one input line per line,
    UTF-8, no trailing-newline entry."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.endswith("\n"):
        text = text[:-1]
    return tuple(text.split("\n")) if text else ()


def transcript_records(transcript):
    """Serialize a transcript as a list of {dir, text} records."""
    return [{"dir": direction, "text": text} for direction, text in transcript]


# ---------------------------------------------------------------------------
# native state (base effect for the data-refinement construction)


@dataclass(frozen=True)
class NativeStateOps:
    """A base effect family owning mutable state natively: ``get_value`` is an
    effect value returning the state, ``set_value(s)`` replaces it."""

    family: EffectFamily
    get_value: Any
    set_value: Callable[[Any], Any]
    state_domain: FiniteDomain


def native_state_family(state_domain: FiniteDomain) -> NativeStateOps:
    states = tuple(state_domain.elements)

    def bind(m, k):
        def run(s):
            a, s1 = m(s)
            return k(a)(s1)

        return run

    def equal(x, y):
        return all(
            x(s)[0] == y(s)[0] and x(s)[1] == y(s)[1] for s in states
        )

    def enumerate_values(dom):
        return enumerate_functions(
            state_domain, tuple((a, s) for a in dom.elements for s in states)
        )

    fam = EffectFamily(
        name="native-state",
        unit=lambda a: (
            lambda s: (a, s)
        ),
        bind=bind,
        equal=equal,
        enumerate_contexts=states,
        enumerate_values=enumerate_values,
        outcomes=lambda x: tuple(x(s)[0] for s in states),
    )
    return NativeStateOps(
        family=fam,
        get_value=lambda s: (s, s),
        set_value=lambda s1: (
            lambda s: ((), s1)
        ),
        state_domain=state_domain,
    )


# ---------------------------------------------------------------------------
# meta-checks: monad laws, zero absorption, commutativity, morphisms


def _continuations(fam: EffectFamily, dom: FiniteDomain):
    # the continuations take the values as a Space, so that a function-valued
    # effect (reader, native state) gives a curried function space; the
    # values themselves stay a plain domain
    values = fam.values_over(dom)
    return FiniteDomain(f"{fam.name}-values", values), enumerate_functions(dom, values)


def check_monad_laws(fam: EffectFamily, dom: FiniteDomain, cap=None, seed=0) -> LawReport:
    """Verify left unit, right unit and associativity (plus zero absorption
    when the family declares a zero) over all enumerated effect values and
    continuations built from ``dom``."""
    if fam.equal is None:
        raise UnobservableEffect(f"{fam.name}: cannot check laws without equality")
    values, conts = _continuations(fam, dom)

    laws = [
        Law(
            "left-unit",
            [("a", dom), ("k", conts)],
            lambda e: fam.bind(fam.unit(e["a"]), e["k"]),
            lambda e: e["k"](e["a"]),
        ),
        Law(
            "right-unit",
            [("m", values)],
            lambda e: fam.bind(e["m"], fam.unit),
            lambda e: e["m"],
        ),
        Law(
            "associativity",
            [("m", values), ("k1", conts), ("k2", conts)],
            lambda e: fam.bind(fam.bind(e["m"], e["k1"]), e["k2"]),
            lambda e: fam.bind(e["m"], (
                lambda x: fam.bind(e["k1"](x), e["k2"])
            )),
        ),
    ]
    if fam.zero is not None:
        laws.append(
            Law(
                "zero-left",
                [("k", conts)],
                lambda e: fam.bind(fam.zero, e["k"]),
                lambda e: fam.zero,
            )
        )
        laws.append(
            Law(
                "zero-right",
                [("m", values)],
                lambda e: fam.bind(e["m"], (
                    lambda _x: fam.zero
                )),
                lambda e: fam.zero,
            )
        )
    return run_laws(
        f"monad-laws[{fam.name}/{dom.name}]", laws, fam.equal_values,
        cap=cap, seed=seed, effect=fam.name,
    )


def check_commutative(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain,
                      cap=None, seed=0) -> LawReport:
    """Check the swap law for every pair of enumerated effect values."""
    if fam.equal is None:
        raise UnobservableEffect(f"{fam.name}: cannot check laws without equality")
    law = Law(
        "commute",
        [("m", fam.values_over(dom_a)), ("n", fam.values_over(dom_b))],
        lambda e: fam.bind(e["m"], (
            lambda x: fam.map(e["n"], (
                lambda y: (x, y)
            ))
        )),
        lambda e: fam.bind(e["n"], (
            lambda y: fam.map(e["m"], (
                lambda x: (x, y)
            ))
        )),
    )
    return run_laws(
        f"commutativity[{fam.name}]", [law], fam.equal_values,
        cap=cap, seed=seed, effect=fam.name,
    )


def morphism_laws(prefix, phi, src: EffectFamily, dst: EffectFamily,
                  dom: FiniteDomain, m, conts, states):
    """The two laws of a monad morphism ``phi`` from ``src`` to ``dst``,
    named ``prefix`` + preserves-unit and preserves-bind: ``phi`` preserves
    unit at every ``a`` in ``dom`` and distributes over bind for the effect
    value quantifier ``m``, a (name, values) pair, and every continuation
    ``k`` in ``conts``.  When ``states`` is a domain, the ``dst`` values are
    state transformers, compared by running both sides at a quantified
    ``s``; when it is None they are compared as they are."""
    at = [] if states is None else [("s", states)]
    var = m[0]

    def observe(x, e):
        return x if states is None else x.run(e["s"])

    return [
        Law(
            f"{prefix}preserves-unit",
            [("a", dom), *at],
            lambda e: observe(phi(src.unit(e["a"])), e),
            lambda e: observe(dst.unit(e["a"]), e),
        ),
        Law(
            f"{prefix}preserves-bind",
            [m, ("k", conts), *at],
            lambda e: observe(phi(src.bind(e[var], e["k"])), e),
            lambda e: observe(dst.bind(phi(e[var]), (
                lambda a: phi(e["k"](a))
            )), e),
        ),
    ]


def check_monad_morphism(phi, src: EffectFamily, dst: EffectFamily,
                         dom: FiniteDomain, cap=None, seed=0) -> LawReport:
    """Verify that ``phi`` preserves unit and distributes over bind."""
    if dst.equal is None:
        raise UnobservableEffect(f"{dst.name}: cannot check laws without equality")
    values, conts = _continuations(src, dom)
    return run_laws(
        f"monad-morphism[{src.name}->{dst.name}]",
        morphism_laws("", phi, src, dst, dom, ("m", values), conts, None),
        dst.equal_values, cap=cap, seed=seed, effect=dst.name,
    )
