"""Pluggable effect families and their meta-checks.

An effect family packages one notion of effect as first-class data: how to
inject a pure value (``unit``), how to sequence (``bind``), an optional zero
that absorbs sequencing, and what an observer sees of an effect value over
finite carriers (``observe``).  A family states its observation once; its
decidable equality and its outcomes are derived from it.  Families also know
how to enumerate their own effect values over a finite domain, which is what
makes exhaustive law checking possible.

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
    Conjunction,
    FiniteDomain,
    Law,
    enumerate_functions,
    pointwise,
    stable_repr,
    tuples_up_to,
)


@dataclass(frozen=True)
class EffectFamily:
    """A named, pluggable notion of effect.

    ``observe(x, ctx)`` is what an observer sees of the effect value ``x``
    in the context ``ctx``: a pair ``(results, rest)`` of plain values
    compared by ``==``.  ``results`` is the tuple of results seen (all
    branches for choice, none for a failure or for a console read past its
    script); ``rest`` is the rest of what is seen (a writer's log, the
    console's world, the final native state).  ``enumerate_contexts`` lists
    the contexts an observer may pick (environments for reader, input
    scripts for console, states for native state); a family without them is
    observed once, in the context ``None``.

    The rest follows from ``observe``.  Unless ``equal`` is given, it is
    derived: for a family with contexts, a ``Conjunction`` of one part per
    context, in that order, which holds when both values are observed
    alike there and which ``run_laws`` walks context by context; for a
    family without, ``==`` on the values themselves, since such a value is
    its own observation.  ``equal`` is given only where the observation has
    no canonical form to compare (a multiset of values that may neither
    hash nor sort).  ``outcomes_of(x)`` joins the results over the
    contexts.  ``enumerate_values`` yields a deterministic finite listing
    (a tuple or a lazy ``Space``) of effect values over a given carrier,
    used by the law checker.
    """

    name: str
    unit: Callable[[Any], Any]
    bind: Callable[[Any, Callable[[Any], Any]], Any]
    zero: Any = None
    equal: Optional[Callable[[Any, Any], bool]] = None
    enumerate_contexts: Optional[tuple] = None
    enumerate_values: Optional[Callable[[FiniteDomain], Iterable]] = None
    observe: Optional[Callable[[Any, Any], tuple]] = None

    def __post_init__(self):
        observe, contexts = self.observe, self.enumerate_contexts
        if self.equal is not None or observe is None:
            return
        if contexts is None:
            equal = _same
        else:
            equal = Conjunction(_same_in(observe, ctx) for ctx in contexts)
        object.__setattr__(self, "equal", equal)

    def __repr__(self):
        return f"EffectFamily({self.name})"

    def values_over(self, dom: FiniteDomain) -> tuple:
        if self.enumerate_values is None:
            raise UnobservableEffect(f"{self.name}: no value enumerator")
        return self.enumerate_values(dom)

    @property
    def equal_values(self) -> Callable[[Any, Any], bool]:
        """The family's ``equal`` itself, so that a law runner given it
        calls ``equal`` with no frame in between; reading it raises
        UnobservableEffect when the family declares no equality."""
        if self.equal is None:
            raise UnobservableEffect(f"{self.name}: no declared equality")
        return self.equal

    def outcomes_of(self, x) -> tuple:
        if self.observe is None:
            raise UnobservableEffect(f"{self.name}: no outcome extractor")
        if self.enumerate_contexts is None:
            return self.observe(x, None)[0]
        return tuple(r for ctx in self.enumerate_contexts for r in self.observe(x, ctx)[0])

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


def _same(x, y):
    """The equality of a family without contexts, whose value is its own
    observation."""
    return x == y


def _same_in(observe, ctx):
    """The part of a family's equality at the context ``ctx``: ``x`` is
    observed there, then ``y``, and the two observations compared."""
    return lambda x, y: observe(x, ctx) == observe(y, ctx)


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
        enumerate_values=lambda dom: tuple(dom.elements),
        observe=lambda x, _ctx: ((x,), ()),
    )


def same_family(f1: EffectFamily, f2: EffectFamily) -> bool:
    """A family is its name and the contexts its equality observes, so two
    reader families over different environments differ."""
    return (f1.name, f1.enumerate_contexts) == (f2.name, f2.enumerate_contexts)


def require_same_family(f1: EffectFamily, f2: EffectFamily, name1: str, name2: str,
                         what: str):
    """Refuse two families that are not the same (see ``same_family``):
    ``what`` reads the values of both at one family."""
    if not same_family(f1, f2):
        raise ValueError(f"{name1} is at effect {f1.name} over contexts "
                         f"{f1.enumerate_contexts!r} but {name2} at {f2.name} over "
                         f"contexts {f2.enumerate_contexts!r}; {what} only at one effect")


def require_identity(fam: EffectFamily, what: str):
    """Refuse any family but the identity: ``what`` reads its effect values
    as plain values."""
    if fam.name != "identity":
        raise ValueError(f"{what} requires the identity effect, not {fam.name}")


# ---------------------------------------------------------------------------
# failure


@dataclass(slots=True, unsafe_hash=True, repr=False)
class _Tagged:
    """A value under a one-field tag: the base of ``Just`` and of the sum
    injections ``Left`` and ``Right``.  A tagged value is immutable by
    convention (nothing assigns to ``value`` after construction); the
    dataclass is not frozen, so that ``__init__``, which the failure family
    runs at every ``unit``, only stores the value.  It prints as
    ``Tag(value)`` with ``stable_repr`` of the value, so a set inside it
    prints in the same order in every process."""

    value: Any

    def __repr__(self):
        return f"{self.__class__.__name__}({stable_repr(self.value)})"


class Just(_Tagged):
    """The success value of the failure family, built at every ``unit``,
    printed ``Just(value)``."""

    __slots__ = ()


class _Singleton:
    """A class with one instance: constructing, copying or unpickling it
    gives that instance."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance


class _Nothing(_Singleton):
    def __repr__(self):
        return "Nothing"


NOTHING = _Nothing()


def failure_family() -> EffectFamily:
    def bind(m, k):
        return k(m.value) if isinstance(m, Just) else NOTHING

    return EffectFamily(
        name="failure",
        unit=Just,
        bind=bind,
        zero=NOTHING,
        enumerate_values=lambda dom: (NOTHING,) + tuple(Just(a) for a in dom.elements),
        observe=lambda x, _ctx: ((x.value,) if isinstance(x, Just) else (), ()),
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

    def same_multiset(x, y):
        remaining = list(y)
        for a in x:
            for i, b in enumerate(remaining):
                if a == b:
                    del remaining[i]
                    break
            else:
                return False
        return not remaining

    return EffectFamily(
        name="choice" if not multiset else "choice-multiset",
        unit=lambda a: (a,),
        bind=bind,
        zero=(),
        equal=same_multiset if multiset else None,
        enumerate_values=lambda dom: tuples_up_to(dom, 2),
        observe=lambda x, _ctx: (tuple(x), ()),
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
        enumerate_contexts=ctxs,
        enumerate_values=lambda dom: enumerate_functions(FiniteDomain("env", ctxs), dom),
        observe=lambda x, env: ((x(env),), ()),
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
        enumerate_values=enumerate_values,
        observe=lambda x, _ctx: ((x[0],), x[1]),
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

    __slots__ = ("pending", "transcript", "interactive")

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


def console_family(scripts=((),)) -> EffectFamily:
    """Console effect: values are functions ConsoleWorld -> result.

    A value is observed by running it against each input script in
    ``scripts``: its result, none for a read past the end of the script, and
    the world's remaining input and transcript.  So equal values give
    identical results, identical remaining input and identical transcripts,
    and a read past the end of a script is itself an observation that both
    sides must share.
    """

    scripts = tuple(tuple(s) for s in scripts)

    def observe(m, script):
        world = ConsoleWorld(script)
        try:
            results = (m(world),)
        except ScriptExhausted:
            results = ()
        return results, world.snapshot()

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

    return EffectFamily(
        name="console",
        # inner lambdas on lines of their own, as in reader_family
        unit=lambda a: (
            lambda world: a
        ),
        bind=lambda m, k: (
            lambda world: k(m(world))(world)
        ),
        enumerate_contexts=scripts,
        enumerate_values=enumerate_values,
        observe=observe,
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

    def observe(x, s):
        # one run per state: the result, then the final state
        a, s1 = x(s)
        return (a,), s1

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
        enumerate_contexts=states,
        enumerate_values=enumerate_values,
        observe=observe,
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
    # the values go to run_laws as values_over gives them: a function-valued
    # effect's (reader, native state) are a Space of functions, so an ``m``
    # over them is walked point by point like the continuations, which take
    # that Space as codomain and so are curried
    values = fam.values_over(dom)
    return values, enumerate_functions(dom, values)


def monad_laws(fam: EffectFamily, dom: FiniteDomain):
    """Left unit, right unit and associativity (plus zero absorption when
    the family declares a zero) over all enumerated effect values and
    continuations built from ``dom``."""
    values, conts = _continuations(fam, dom)
    bind, unit = fam.bind, fam.unit

    def nested(k1, k2):
        return lambda x: bind(k1(x), k2)

    laws = [
        Law(
            "left-unit",
            [("a", dom), ("k", conts)],
            lambda e: bind(unit(e["a"]), e["k"]),
            lambda e: e["k"](e["a"]),
        ),
        Law(
            "right-unit",
            [("m", values)],
            lambda e: bind(e["m"], unit),
            lambda e: e["m"],
        ),
        Law(
            "associativity",
            [("m", values), ("k1", conts), ("k2", conts)],
            lambda e: bind(bind(e["m"], e["k1"]), e["k2"]),
            lambda e: bind(e["m"], nested(e["k1"], e["k2"])),
        ),
    ]
    if fam.zero is not None:
        laws.append(
            Law(
                "zero-left",
                [("k", conts)],
                lambda e: bind(fam.zero, e["k"]),
                lambda e: fam.zero,
            )
        )
        laws.append(
            Law(
                "zero-right",
                [("m", values)],
                lambda e: bind(e["m"], (
                    lambda _x: fam.zero
                )),
                lambda e: fam.zero,
            )
        )
    return laws


def commutative_laws(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain):
    """The swap law for every pair of enumerated effect values."""
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
    return [law]


def morphism_laws(prefix, phi, src: EffectFamily, dst: EffectFamily,
                  dom: FiniteDomain, m, conts, states):
    """The two laws of a monad morphism ``phi`` from ``src`` to ``dst``,
    named ``prefix`` + preserves-unit and preserves-bind: ``phi`` preserves
    unit at every ``a`` in ``dom`` and distributes over bind for the effect
    value quantifier ``m``, a (name, values) pair, and every continuation
    ``k`` in ``conts``.  When ``states`` is a domain, the ``dst`` values are
    state transformers, compared ``pointwise`` at a quantified ``s``; when
    it is None they are compared as they are."""
    var = m[0]

    def law(name, quantifiers, lhs, rhs):
        if states is None:
            return Law(name, quantifiers, lhs, rhs)
        return pointwise(name, quantifiers, states, lhs, rhs)

    return [
        law(
            f"{prefix}preserves-unit",
            [("a", dom)],
            lambda e: phi(src.unit(e["a"])),
            lambda e: dst.unit(e["a"]),
        ),
        law(
            f"{prefix}preserves-bind",
            [m, ("k", conts)],
            lambda e: phi(src.bind(e[var], e["k"])),
            lambda e: dst.bind(phi(e[var]), (
                lambda a: phi(e["k"](a))
            )),
        ),
    ]


def monad_morphism_laws(src: EffectFamily, phi, dst: EffectFamily, dom: FiniteDomain):
    """``phi`` from ``src`` to ``dst`` preserves unit and distributes over
    bind."""
    values, conts = _continuations(src, dom)
    return morphism_laws("", phi, src, dst, dom, ("m", values), conts, None)
