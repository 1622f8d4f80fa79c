"""Generic enumeration-driven law runner.

Every equational law in the library is represented as data: a quantifier list
(variable name plus its finite domain) and two value builders, both closed
over the law's subject.  One runner walks the assignment space, compares both
sides with the subject's equality, and produces a machine-readable LawReport
with counterexample witnesses.

Checking is exhaustive up to one cap (default 10**6 assignments per law),
applied only by ``run_laws``; above it a seeded random sample is used,
one index per quantifier of a lazy ``Space``, so function spaces are
sampled without being built.  The mode is recorded in the report so
"pass" claims stay auditable.

Exhaustive checking evaluates only the points of a function a law reads, as
in Lazy SmallCheck (Runciman, Naylor & Lindblad, 2008): a function-valued
quantifier starts with no point assigned, and the runner branches on each
point the law reads.  An evaluation decides every total function that agrees
with the points it read, so the leaves of the walk partition the assignments,
and a report's ``checked`` is their number, the product of the quantifiers'
sizes (when sampled, the number of draws), not the evaluations made: it reads
as if every assignment had been evaluated.  A function into a space of
functions (a continuation whose values are reader or state-transformer
values) is curried: its points are pairs of an outer and an inner argument,
so the runner branches on one inner point at a time, and a law sees it as a
live view whose every point is fixed to the live view of its section.

The branching is a depth-first walk over one digit vector per function
quantifier, the candidate vector of Korat (Boyapati, Khurshid & Marinov,
2002), which also supplies its access list: a law sees a live view of the
vector, built once per law, a dict of the points assigned so far that it
calls by ``dict.__getitem__``, so reading an assigned point runs no Python
code (any other read answers as the decoded function does); a
first read of a point falls to ``__missing__``, which gives it the first
codomain value in place and appends it to a trail shared by the law's views,
and backtracking to a depth of the trail gives the deepest point above it
that has a value left its next value, undoing the points after it, in the
digits and the dict together.  No build, run or observation is interrupted,
so each one completes and covers a leaf; no node is copied, and a function
is decoded only to be compared, hashed or printed.

The walk is staged, as the checks it replaces are nested: a law holds at an
assignment when its sides, built once, agree when run at every state (for a
``pointwise`` law) and when observed by every part of the equality (a
``Conjunction`` over contexts, such as a reader's environments).  So the
walk is three nested loops, one per stage: the sides are built once per
leaf of the points read while building, run once per state per leaf of that
run's reads, and each part observes them on its own branch of the points it
reads.  Each loop repeats its stage until backtracking to the depth at which
the stage began finds no point above it with a value left, so a stage that
read nothing runs once.  Checking every context of every assignment as every
assignment of every context is sound for a conjunction.

A pointwise law whose sides begin with the same computation, as most of
the paper's laws do (``set a >> get`` against ``set a >> return a``), names
it ``first`` (see ``pointwise``), and its sides build the continuations
that follow it.  The build stage builds ``first`` and both continuations,
and the run stage runs ``first`` once at the state and binds both
continuations on that one result with ``first``'s family's ``bind``.  The
sides are compared as effect values and a run is a function of its state,
so both sides see what each would have computed alone; nothing is shared
across states or rows.  ``Law.evaluate`` does the same at ``env["s"]``, so
the walk and a witness read one statement of the law.

A sampled law takes the same walk over its draws: only the trail tells the
two modes apart.  The draws are grouped by their plain indices, those of
the quantifiers that are neither functions nor the state of a pointwise
law, and each group is a row whose first read of a point branches only on
the digits that the draws of the current node take there, and which runs
at each state its draws take, so a leaf covers the draws that agree with
the points it read and the state it ran at, a row drawn twice is built
once, and a function is decoded only for a witness.  The exhaustive walk
takes every codomain digit and every state, and a leaf covers the cube of
assignments that agree with it.  Every row walks, a row with no function
quantifier as one leaf that reads nothing.  A failing row is kept as its
indices and evaluated again from their decoded values to become a witness.

A failing law stops at its last witness, as QuickCheck (Claessen & Hughes,
2000) stops at its first counterexample.  A report keeps the first
``max_witnesses`` failures in enumeration order (by draw position, when
sampled), and every order in a row is at least the row's lowest: its
indices with 0 at each walked position, or the position of its first draw.
That bound grows from row to row, so once as many failures are kept and
the next row's bound is not below the last of them, no later assignment
can be a witness, and the walk stops before that row.  ``checked`` is still
the size of the space the verdict covers, and the witnesses are those that
walking all of it would give; a law that passes walks all of it.

The walk assumes what plain enumeration does not: that a side is a
function of the points it reads, that a run is a function of its state,
and that each part of the equality is a function of its arguments.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .errors import DomainTooLarge

DEFAULT_CAP = 1_000_000
DEFAULT_SAMPLE = 400

_ADDRESS = re.compile(r"0x[0-9a-fA-F]+")


def stable_repr(value) -> str:
    """repr with memory addresses masked, so reports stay byte-identical
    across runs even when witnesses contain function values.  A ``set`` or
    ``frozenset``, alone or at any depth inside an exact ``tuple``, ``list``
    or ``dict``, lists its elements in the order of their own stable repr,
    not in the order of their hashes (those of strings are salted per
    process, and None's is its address).  Everything else prints as
    ``repr``; a ``FiniteFunction`` and the tagged values of ``effects``
    print what they hold by ``stable_repr``, so a set inside them is
    ordered too."""
    kind = type(value)
    if kind is tuple or kind is list or kind is set or kind is frozenset:
        items = list(map(stable_repr, value))
        if kind is tuple:
            return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
        if kind is list:
            return f"[{', '.join(items)}]"
        if not items:
            return f"{kind.__name__}()"
        items.sort()
        return f"{{{', '.join(items)}}}" if kind is set else f"frozenset({{{', '.join(items)}}})"
    if kind is dict:
        return "{" + ", ".join(f"{stable_repr(k)}: {stable_repr(v)}"
                               for k, v in value.items()) + "}"
    return _ADDRESS.sub("0x..", repr(value))


class Positions:
    """Values kept at the position where each was first added, and found by
    ``==`` with identity first, as ``in`` finds them in a tuple: a value
    that hashes by its hash (and among the kept values that do not hash),
    one that does not by comparing it with every kept value.  ``values``
    lists the kept values in position order."""

    __slots__ = ("values", "_hashed", "_loose")

    def __init__(self, values=()):
        values = list(values)
        self._loose = []  # the positions of the kept values that do not hash
        try:  # when every value hashes and none repeats, the table is built in C
            self._hashed = dict(zip(values, range(len(values))))
        except TypeError:
            self._hashed = {}
        if len(self._hashed) == len(values):
            self.values = values
            return
        self.values, self._hashed = [], {}
        for x in values:
            self.add(x)

    def __len__(self):
        return len(self.values)

    def find(self, x) -> Optional[int]:
        """The position of the kept value equal to ``x``, or None."""
        values = self.values
        try:
            return self._hashed[x]
        except KeyError:  # x hashes, so it is none of the kept values that do not
            return next((i for i in self._loose if values[i] == x), None)
        except TypeError:  # x does not hash: compare it with every kept value
            try:
                return values.index(x)
            except ValueError:
                return None

    def add(self, x) -> int:
        """The position of ``x``, which is kept at the next one unless a value
        equal to it is kept already."""
        at = self.find(x)
        if at is None:
            at = len(self.values)
            self.values.append(x)
            try:
                self._hashed[x] = at
            except TypeError:
                self._loose.append(at)
        return at


@dataclass(frozen=True)
class FiniteDomain:
    """A finite carrier for exhaustive checking: distinct elements, ==-equality.
    ``position(x)`` is the index of the element equal to ``x``, or None
    outside the domain; an element is found as ``in`` finds it in a tuple,
    by identity and then ``==``, and by its hash when it hashes (see
    ``Positions``)."""

    name: str
    elements: tuple
    position: Callable[[Any], Optional[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        positions = Positions(elems)
        if len(positions) < len(elems):
            first = next(e for i, e in enumerate(elems) if positions.find(e) != i)
            raise ValueError(f"domain {self.name!r} has duplicate element {first!r}")
        object.__setattr__(self, "position", positions.find)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"FiniteDomain({self.name}, {list(self.elements)!r})"

    def table(self, values, otherwise):
        """The function that reads ``values[i]`` at the domain's ``i``-th
        element, found as ``position`` finds it, and calls ``otherwise(x)``
        at any other value ``x``."""
        position = self.position

        def at(x):
            i = position(x)
            return otherwise(x) if i is None else values[i]

        return at

    @functools.cached_property
    def _space(self):
        """The domain as a ``Space``, built once per domain, not once per
        law that quantifies over it."""
        return Space(len(self.elements), self.elements.__getitem__)


@dataclass(slots=True, unsafe_hash=True, repr=False)
class FiniteFunction:
    """A function given by its finite graph; hashable and printable so it can
    appear in witnesses.  It is the value that ``decode`` gives and a
    witness holds, immutable by convention (nothing assigns to ``keys`` or
    ``values`` after construction; the dataclass is not frozen, so that
    ``__init__`` only stores them); ``run_laws`` reads a quantifier it walks
    through a live view instead.  A key is looked up with ``tuple.index``,
    which tests ``is`` before ``==`` (as ``in`` does), so a key that is not
    equal to itself is still found by identity.  It prints as
    ``{k->v, ...}`` in key order, with ``stable_repr`` of each key and
    value."""

    keys: tuple
    values: tuple

    def __call__(self, x):
        try:
            return self.values[self.keys.index(x)]
        except ValueError:
            raise KeyError(f"{x!r} outside function domain") from None

    def __repr__(self):
        entries = ", ".join(f"{stable_repr(k)}->{stable_repr(v)}"
                            for k, v in zip(self.keys, self.values))
        return "{" + entries + "}"


@dataclass(frozen=True)
class FunctionForm:
    """How ``run_laws`` assigns a space of functions point by point: element
    ``i`` maps ``keys[j]`` to ``codomain[digit j of i in base
    len(codomain)]``, and ``wrap`` turns the live view of the function being
    assigned into the value a law sees; ``run_laws`` calls it once per law.

    A space of functions into a space of functions is curried: its keys are
    the pairs ``(k, x)`` of an outer key and an inner one, outer key major,
    its codomain is the inner codomain, and ``wrap`` gives a live view whose
    point ``k`` is fixed to the inner form's view of the section at ``k``,
    the points ``(k, x)``, so a law that reads one inner point assigns only
    that point."""

    keys: tuple
    codomain: tuple
    wrap: Callable[[Any], Any]


@dataclass(slots=True, eq=False, repr=False)
class Space:
    """A finite domain addressed by index: ``decode(i)`` builds element
    ``i < size`` on demand, so a space may exceed memory (or ``sys.maxsize``:
    use ``size``, not ``len``).  Iteration is in index order.  A space of
    functions also carries its ``functions`` form, which lets ``run_laws``
    assign a function one point at a time.  A space is immutable by
    convention; the dataclass is not frozen, so that ``__init__`` only
    stores its fields."""

    size: int
    decode: Callable[[int], Any]
    functions: Optional[FunctionForm] = None

    def __len__(self):
        return self.size

    def __iter__(self):
        return map(self.decode, range(self.size))

    def map(self, f) -> "Space":
        inner = self.functions
        form = inner and FunctionForm(inner.keys, inner.codomain,
                                      lambda g: f(inner.wrap(g)))
        return Space(self.size, lambda i: f(self.decode(i)), form)


def enumerate_functions(dom: FiniteDomain, cod) -> Space:
    """The space of all functions ``dom -> cod`` (``cod`` any finite
    iterable).  Index ``i`` maps the ``j``-th key of ``dom`` to the value
    whose position is digit ``j`` of ``i`` in base ``len(cod)``.

    When ``cod`` is a ``Space`` of functions with ``n`` keys and base ``b``,
    the form is curried (see ``FunctionForm``): index ``i`` is also
    ``sum d_jl * b**(j*n + l)`` over the digits ``d_jl`` of the inner value
    at key ``j``, so the numbering does not change, and the section at key
    ``j`` is the live view of the ``n`` digits from ``j * n``.  A live view
    is a dict of its points, so a ``dom`` whose keys do not all hash gives a
    space with no ``functions`` form, which ``run_laws`` enumerates plainly."""
    keys = tuple(dom.elements)
    values = tuple(cod)
    base = len(values)

    def decode(index):
        picks = []
        for _ in keys:
            index, digit = divmod(index, base)
            picks.append(values[digit])
        return FiniteFunction(keys, tuple(picks))

    try:
        hash(keys)
    except TypeError:  # a live view is a dict of its points: enumerate plainly
        return Space(base ** len(keys), decode)
    inner = cod.functions if isinstance(cod, Space) else None
    if inner is None:
        return Space(base ** len(keys), decode, FunctionForm(keys, values, lambda g: g))
    width = len(inner.keys)

    def curried(g):
        sections = tuple(
            inner.wrap(_PartialFunction(inner.keys, inner.codomain, g.digits, g.trail,
                                        g.start + j * width))
            for j in range(len(keys)))
        outer = _PartialFunction(keys, sections, list(range(len(keys))), g.trail)
        dict.update(outer, zip(keys, sections))
        return outer

    pairs = tuple((k, x) for k in keys for x in inner.keys)
    return Space(base ** len(keys), decode, FunctionForm(pairs, inner.codomain, curried))


def tuples_up_to(dom, max_len: int) -> tuple:
    """Every tuple of at most ``max_len`` elements of ``dom``, shorter tuples
    first and each length in lexicographic order of positions in ``dom``."""
    out = [()]
    layer = [()]
    for _ in range(max_len):
        layer = [t + (x,) for t in layer for x in dom]
        out.extend(layer)
    return tuple(out)


@dataclass(frozen=True)
class Law:
    """One equation: quantifiers plus two side builders.

    Each quantifier is ``(name, domain)``, where ``domain`` is a ``Space``, a
    ``FiniteDomain`` or any finite iterable.  ``lhs``/``rhs`` take ``env``,
    mapping variable names to chosen values, and return the values to
    compare (usually effect values); the law's subject is whatever they
    close over.  A ``pointwise`` law (see ``pointwise``) has a last
    quantifier ``s``, and its sides return computations that ``evaluate``
    runs at ``env["s"]``, or, when it has a ``first``, continuations that
    ``evaluate`` binds on the run of ``first(env)`` at ``env["s"]``.
    """

    name: str
    quantifiers: tuple
    lhs: Callable[[dict], Any]
    rhs: Callable[[dict], Any]
    pointwise: bool = False
    first: Optional[Callable[[dict], Any]] = None

    def __post_init__(self):
        object.__setattr__(self, "quantifiers", tuple(self.quantifiers))
        if self.first is not None and not self.pointwise:
            raise ValueError(f"law {self.name!r} has a first computation but is not pointwise")

    def evaluate(self, env):
        """Both sides at the one assignment ``env``, run at ``env["s"]`` when
        the law is pointwise, each bound on the one run of ``first(env)``
        when it has a ``first``: the reference that a witness,
        ``run_corpus``'s recheck and the tests' oracles evaluate.
        ``run_laws`` walks its rows without it."""
        if not self.pointwise:
            return self.lhs(env), self.rhs(env)
        s = env["s"]
        if self.first is None:
            return self.lhs(env).run(s), self.rhs(env).run(s)
        start = self.first(env)
        left, right = self.lhs(env), self.rhs(env)
        ran = start.run(s)
        bind = start.effect.bind
        return bind(ran, left), bind(ran, right)


def pointwise(name, quantifiers, states, lhs, rhs, first=None) -> Law:
    """A law between two computations observed at every state: it compares
    ``lhs(e).run(s)`` with ``rhs(e).run(s)`` over ``[*quantifiers, ("s",
    states)]``, where ``lhs`` and ``rhs`` build the computations (``Stateful``
    values) from the other quantifiers alone, reading them while they build.

    When both sides begin with the same computation, ``first`` builds it
    (a ``Stateful``), and ``lhs`` and ``rhs`` build each side's
    continuation instead: a function of ``first``'s ``(value, state)``
    pair, as ``Stateful.bind``'s continuation is, that returns an effect
    value.  The law then compares ``bind(m.run(s), lhs(e))`` with
    ``bind(m.run(s), rhs(e))``, where ``m = first(e)`` and ``bind`` is
    ``m.effect.bind``, so ``first`` runs once per state for both sides.
    The walk is described in the module docstring."""
    return Law(name, (*quantifiers, ("s", states)), lhs, rhs, pointwise=True, first=first)


class Conjunction:
    """An equality that holds when each of its ``parts`` holds.  A family
    with observation contexts derives its equality as one: one part per
    context, in the order of ``enumerate_contexts``, which holds when both
    values are observed alike there.  Called, it is ``all(part(x, y) for
    part in parts)``, written as a loop; ``run_laws`` walks each part on its
    own branch instead.  An equality that is not a ``Conjunction`` is one
    part.
    ``__code__`` is that of the call, so tools that key a callable by its
    code object, as profilers do, find a family's ``equal`` as they find a
    function."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)

    def __call__(self, x, y):
        for part in self.parts:
            if not part(x, y):
                return False
        return True

    @property
    def __code__(self):
        return Conjunction.__call__.__code__


@dataclass(frozen=True)
class Witness:
    inputs: dict
    lhs: str
    rhs: str
    env: dict = field(compare=False, repr=False, default_factory=dict)

    def to_dict(self):
        return {"inputs": self.inputs, "lhs": self.lhs, "rhs": self.rhs}


@dataclass(slots=True, unsafe_hash=True)
class LawResult:
    """One law's verdict: ``mode`` is how this law was checked, as a
    report's ``mode`` reads for a report of this law alone; only the
    report's ``mode`` is serialised.  A result is immutable by convention;
    the dataclass is not frozen, so that ``__init__`` only stores its
    fields."""

    name: str
    checked: int
    failures: tuple
    mode: str = "exhaustive"

    @property
    def ok(self):
        return not self.failures

    def to_dict(self):
        return {
            "name": self.name,
            "checked": self.checked,
            "failures": [w.to_dict() for w in self.failures],
        }


@dataclass(frozen=True)
class LawReport:
    """Verdict per law per instance, with witnesses for every failure."""

    subject: str
    mode: str
    laws: tuple
    effect: str = ""

    @property
    def ok(self):
        return all(r.ok for r in self.laws)

    def law(self, name) -> LawResult:
        for r in self.laws:
            if r.name == name:
                return r
        raise KeyError(name)

    @property
    def failing_laws(self):
        return tuple(r.name for r in self.laws if not r.ok)

    def to_dict(self):
        return {
            "bx": self.subject,
            "effect": self.effect,
            "mode": self.mode,
            "ok": self.ok,
            "laws": [r.to_dict() for r in self.laws],
        }

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary_lines(self):
        lines = []
        for r in self.laws:
            status = "pass" if r.ok else "FAIL"
            line = f"{status}  {self.subject}  {r.name}  ({r.checked} checked)"
            if not r.ok:
                w = r.failures[0]
                line += f"  witness inputs={w.inputs} lhs={w.lhs} rhs={w.rhs}"
            lines.append(line)
        return lines


def _as_space(values) -> Space:
    if isinstance(values, Space):
        return values
    if isinstance(values, FiniteDomain):
        return values._space
    values = tuple(values)
    return Space(len(values), values.__getitem__)


def _absent(name):
    """A class attribute that reads as the attribute ``name``, which a
    ``FiniteFunction`` lacks, reads on one: it raises ``AttributeError``."""
    def absent(_view):
        raise AttributeError(f"'FiniteFunction' object has no attribute {name!r}")

    return property(absent)


@dataclass(slots=True, eq=False, repr=False)
class _PartialFunction(dict):
    """The live view of a function quantifier that ``run_laws`` assigns
    point by point: a dict of the points assigned so far, so that a call,
    which is ``dict.__getitem__``, reads an assigned point without entering
    Python.  ``digits[start + j]`` is the codomain index given to
    ``domain[j]``, or None, and ``run_laws`` changes it in place together
    with the dict entry, so one view serves every node of the walk.  It is
    the only live view: a curried function is a view of its sections whose
    every point is fixed (its codomain is the sections), and section ``j``
    is a view with start ``j * width`` over its own slice of the
    quantifier's digits.  A first read falls to ``__missing__``, which gives
    the point digit 0, appends ``(view, key, index)`` to ``trail``, the
    access list that the views of one law share (a ``_Draws`` trail then
    gives the point the lowest digit its draws take there), and stores the
    point's value.  ``==``, ``!=``, ``hash``, ``repr`` and the copy and
    pickle protocols read the whole function in key order, assigning each
    unassigned point, and act on the decoded ``FiniteFunction``, so a view
    compares, hashes, prints and copies as the element ``decode`` picks,
    and a view is true even with no point assigned.  A key outside the domain raises ``KeyError`` as
    ``FiniteFunction`` does.

    Every other read answers as on the decoded function: ``keys`` and
    ``values`` are its tuples (``values`` reads every point), ``dict``'s
    other methods raise ``AttributeError``, and iteration, ``in``, ``len``,
    ``reversed`` and subscription raise ``TypeError``, so a law that
    reads a function another way than by calling it fails as it would on
    the decoded value, not silently on the points read so far.  Item
    assignment, item deletion and ``|=`` raise ``TypeError`` too; the walk
    reads and fills a view by ``dict``'s own methods."""

    domain: tuple
    codomain: tuple
    digits: list
    trail: list
    start: int = 0

    __call__ = dict.__getitem__
    (get, items, copy, pop, popitem, setdefault, update, clear,
     fromkeys) = map(_absent, ("get", "items", "copy", "pop", "popitem", "setdefault",
                               "update", "clear", "fromkeys"))
    __reversed__ = None

    @property
    def keys(self):
        return self.domain

    @property
    def values(self):
        return tuple(map(self, self.domain))

    def __iter__(self):
        raise TypeError("'FiniteFunction' object is not iterable")

    def __contains__(self, _x):
        raise TypeError("argument of type 'FiniteFunction' is not iterable")

    def __len__(self):
        raise TypeError("object of type 'FiniteFunction' has no len()")

    def __getitem__(self, _x):
        raise TypeError("'FiniteFunction' object is not subscriptable")

    def __setitem__(self, _x, _value):
        raise TypeError("'FiniteFunction' object does not support item assignment")

    def __delitem__(self, _x):
        raise TypeError("'FiniteFunction' object doesn't support item deletion")

    def __ior__(self, other):
        raise TypeError("unsupported operand type(s) for |=: 'FiniteFunction' and "
                        f"{type(other).__name__!r}")

    def __missing__(self, x):
        try:
            j = self.domain.index(x)
        except ValueError:
            raise KeyError(f"{x!r} outside function domain") from None
        index = self.start + j
        digits = self.digits
        if digits[index] is not None:  # x equals an assigned key but hashes unlike it
            return self.codomain[digits[index]]
        digits[index] = 0
        key = self.domain[j]
        self.trail.append((self, key, index))  # a _Draws trail may pick another digit
        return _add(self, key, self.codomain[digits[index]])

    def _decoded(self):
        return FiniteFunction(self.domain, self.values)

    def __eq__(self, other):
        return self._decoded() == other

    def __ne__(self, other):
        return self._decoded() != other

    def __hash__(self):
        return hash(self._decoded())

    def __bool__(self):
        return True

    def __repr__(self):
        return repr(self._decoded())

    def __reduce_ex__(self, _protocol):
        return FiniteFunction, (self.domain, self.values)


# the walk writes a view's points through dict's own methods: a point's
# first value (it is unassigned), its next value, and its removal
_add, _assign, _unassign = dict.setdefault, dict.__setitem__, dict.pop


class _Trail(list):
    """The trail of an exhaustive walk, Korat's access list: the points
    assigned so far as ``(view, key, digit index)``, in the order the law
    first read them.  ``rows`` are the law's rows, ``lazy`` its function
    quantifiers as ``(position, form)``, ``digits`` one live digit vector
    per function quantifier, None where unassigned, and ``states`` the
    state indices of a pointwise law.

    The walk asks a trail four things, and a ``_Draws`` trail answers them
    for sampled draws: ``runs()``, the state indices a pointwise leaf of the
    build runs at (all of them); ``failing(row, s)``, the assignments the
    current leaf covers at state ``s`` (those that agree with every point
    assigned), as the ``(order, indices)`` pairs ``_keep`` takes;
    ``backtrack(mark)``, which gives the deepest point above depth ``mark``
    that has a value left its next codomain value, undoing the points after
    it, and is False when it has undone every point above ``mark``; and
    ``lowest(row)``, the lowest order of the row's assignments, which grows
    from row to row."""

    __slots__ = ("rows", "lazy", "digits", "states")

    def __init__(self, rows, lazy, states=range(0)):
        self.rows = rows
        self.lazy = lazy
        self.digits = [[None] * len(form.keys) for _i, form in lazy]
        self.states = states

    def runs(self):
        return self.states

    def lowest(self, row):
        """The lowest order of the assignments of ``row``: its indices with
        0 at each walked position."""
        return tuple(0 if i is None else i for i in row)

    def failing(self, row, s):
        """The assignments of the current leaf, those that agree with
        ``row``, with ``s`` at the states of a pointwise law and with the
        assigned points, in enumeration order, each as ``(indices,
        indices)``: the order of an assignment is its index tuple."""
        indices = list(row)
        if s is not None:
            indices[-1] = s
        # the free keys, most significant first: earlier quantifiers, then later keys
        free = [(slot, j) for slot, digits in enumerate(self.digits)
                for j in reversed(range(len(digits))) if digits[j] is None]
        ranges = [range(len(self.lazy[slot][1].codomain)) for slot, _j in free]
        for picks in itertools.product(*ranges):
            filled = [list(digits) for digits in self.digits]
            for (slot, j), d in zip(free, picks):
                filled[slot][j] = d
            # the index of each function, as enumerate_functions numbers it
            for (i, form), digits in zip(self.lazy, filled):
                base = len(form.codomain)
                indices[i] = sum(d * base ** j for j, d in enumerate(digits))
            full = tuple(indices)
            yield full, full

    def backtrack(self, mark):
        while len(self) > mark:
            view, key, at = self[-1]
            digit = view.digits[at] + 1
            if digit < len(view.codomain):
                view.digits[at] = digit
                _assign(view, key, view.codomain[digit])
                return True
            list.pop(self)
            view.digits[at] = None
            _unassign(view, key)
        return False


class _Draws(_Trail):
    """The trail of a walk over sampled draws, whose first read of a point
    branches only on the digits that the draws of the current node take
    there.  ``draws`` are grouped by their indices with None at each
    position in ``walked`` (the function quantifiers, and the states of a
    pointwise law), and each group is a row whose draws are the first node.
    ``node`` holds the current node's draws as ``(position, indices)``
    pairs in draw order, with ``indices[slots[id(vector)]]`` the index of
    the function quantifier whose digit vector is ``vector``; the digit at
    its flat position ``p`` is ``index // base**p % base``, as
    ``enumerate_functions`` numbers it.

    ``append`` splits the node by that digit and enters the lowest one, and
    ``backtrack`` enters the next digit of the deepest point that has one
    left, returning to the node that each point it undoes split.  ``runs``
    splits the node by drawn state and enters each state's draws in turn.
    A leaf covers, and fails at, the draws of its node."""

    __slots__ = ("slots", "node", "branches")

    def __init__(self, draws, lazy, walked):
        groups = {}
        for position, indices in enumerate(draws):
            row = list(indices)
            for i in walked:
                row[i] = None
            groups.setdefault(tuple(row), []).append((position, indices))
        super().__init__(self._enter(groups), lazy)
        self.slots = {id(vector): i for (i, _form), vector in zip(lazy, self.digits)}
        self.node = []
        # per point: an iterator over its remaining (digit, draws), and the
        # node it split
        self.branches = []

    def _enter(self, groups):
        for row, self.node in groups.items():
            yield row

    def append(self, point):
        view, _key, at = point
        base = len(view.codomain)
        slot = self.slots[id(view.digits)]
        power = base ** at
        node = self.node
        if len(node) == 1:  # one draw: its digit, and the node stays
            alternatives = iter(())
            view.digits[at] = node[0][1][slot] // power % base
        else:
            split = {}
            for draw in node:
                split.setdefault(draw[1][slot] // power % base, []).append(draw)
            alternatives = iter(sorted(split.items()))
            view.digits[at], self.node = next(alternatives)
        self.branches.append((alternatives, node))
        list.append(self, point)

    def runs(self):
        split = {}
        for draw in self.node:
            split.setdefault(draw[1][-1], []).append(draw)
        for s, self.node in sorted(split.items()):
            yield s

    def failing(self, row, s):
        return self.node

    def lowest(self, row):
        """The position of the row's first draw, once the row is entered."""
        return self.node[0][0]

    def backtrack(self, mark):
        while len(self) > mark:
            following = next(self.branches[-1][0], None)
            if following is not None:
                view, key, at = self[-1]
                view.digits[at], self.node = following
                _assign(view, key, view.codomain[view.digits[at]])
                return True
            _alternatives, self.node = self.branches.pop()
            view, key, at = list.pop(self)
            view.digits[at] = None
            _unassign(view, key)
        return False


def _keep(found, order, indices, limit):
    """Insert ``(order, indices)`` into ``found``, which holds the ``limit``
    lowest orders seen, in order and each once; False when ``order`` is too
    late to be kept."""
    if len(found) >= limit and (not found or order >= found[-1][0]):
        return False
    at = bisect.bisect_left(found, order, key=lambda item: item[0])
    if at == len(found) or found[at][0] != order:  # another part's may be kept
        found.insert(at, (order, indices))
        del found[limit:]
    return True


def _assignments(spaces, cap, sample, seed, pointwise):
    """The mode of a law over ``spaces``, the size of the space its verdict
    covers (the product of the sizes, or ``sample``: the leaves of each part
    of the equality partition it) and the trail of its walk, whose
    rows hold one index per space, None at each function space (the walk
    assigns those point by point) and, for a ``pointwise`` law, at the last
    space, the states, which a row runs inside itself.  When there are at
    most ``cap`` assignments the trail is a ``_Trail`` over every row in
    order, whose pointwise leaves run at every state; else it is a
    ``_Draws`` over ``sample`` seeded draws, grouped into rows, whose
    pointwise leaves run at the states drawn."""
    lazy = [(i, d.functions) for i, d in enumerate(spaces[:-1] if pointwise else spaces)
            if d.functions]
    walked = [i for i, _form in lazy]
    if pointwise:
        walked.append(len(spaces) - 1)
    sizes = [d.size for d in spaces]
    total = math.prod(sizes)
    if total == 0:  # vacuous quantification: build no other space
        return "exhaustive", 0, _Trail(iter(()), lazy)
    if not spaces or total <= cap:
        ranges = list(map(range, sizes))
        for i in walked:
            ranges[i] = (None,)
        states = range(sizes[-1]) if pointwise else range(0)
        return "exhaustive", total, _Trail(itertools.product(*ranges), lazy, states)
    if sample is None:
        raise DomainTooLarge(f"{total} assignments exceeds cap {cap}")
    draws = _draws(spaces, sample, seed)
    return f"sampled(n={sample},seed={seed})", sample, _Draws(draws, lazy, walked)


def _draws(spaces, sample, seed):
    """``sample`` seeded draws of one index per space, each drawn as
    ``random.Random(seed).randrange(size)`` would draw it: ``getrandbits``
    of the size's bit length, again while it is not below the size."""
    getrandbits = random.Random(seed).getrandbits
    sizes = [(d.size, d.size.bit_length()) for d in spaces]
    for _ in range(sample):
        indices = []
        for size, bits in sizes:
            index = getrandbits(bits)
            while index >= size:
                index = getrandbits(bits)
            indices.append(index)
        yield tuple(indices)


def run_laws(subject_name: str, laws, equal,
             cap: Optional[int] = DEFAULT_CAP, sample: Optional[int] = DEFAULT_SAMPLE,
             seed: int = 0, max_witnesses: int = 3, effect: str = "") -> LawReport:
    """Run a list of laws and collect a LawReport named ``subject_name``.

    ``equal`` compares both sides; a ``Conjunction`` (the equality a family
    derives from its observation in each of its ``enumerate_contexts``) is
    walked part by part, and one with no parts always holds.  Each
    quantifier's domain is taken as a ``Space`` (a tuple of its elements
    unless it is one already).  A law with at most ``cap`` assignments (the
    product of the domain sizes) is checked exhaustively; one with more is
    checked on ``sample`` seeded draws instead, function-valued quantifiers
    included, each index drawn as ``random.Random(seed).randrange`` draws
    it.  ``cap=None`` means the default cap; pass ``sample=None`` to get
    DomainTooLarge instead of sampling.  A negative ``cap``, a ``sample``
    below 1 and a ``max_witnesses`` below 1 raise ValueError.

    The report is the one that evaluating every assignment (or every draw)
    with ``Law.evaluate`` and comparing by the whole of ``equal`` would
    give.  ``checked`` is the size of the space the verdict covers: the
    product of the domain sizes when exhaustive (0 for a vacuous law, 1 for
    a law with no quantifier), ``sample`` when sampled, duplicates included.
    The witnesses are the first ``max_witnesses`` failing assignments in
    enumeration order (by draw position, when sampled), each evaluated again
    by ``Law.evaluate`` from freshly decoded values.  Laws keep their order,
    and the report is deterministic.  A failing law stops once no later
    assignment can be a witness, so an exception that a side would raise
    past that point is not raised; one raised before it propagates.  The
    walk that gives this report without evaluating every assignment, and
    what it assumes of a law's sides, are described in the module
    docstring.
    """
    if cap is None:
        cap = DEFAULT_CAP
    if cap < 0:
        raise ValueError(f"cap must not be negative, not {cap}")
    if sample is not None and sample < 1:
        raise ValueError(f"sample must be at least 1 or None, not {sample}")
    if max_witnesses < 1:
        raise ValueError(f"max_witnesses must be at least 1, not {max_witnesses}")
    # an equality with no parts holds everywhere: it is walked as one part
    parts = (isinstance(equal, Conjunction) and equal.parts) or (equal,)
    results = []
    modes = set()
    for law in laws:
        spaces = [_as_space(dom) for _name, dom in law.quantifiers]
        names = [name for name, _dom in law.quantifiers]
        mode, checked, trail = _assignments(spaces, cap, sample, seed, law.pointwise)
        modes.add(mode)
        runs, failing, backtrack, lowest = (trail.runs, trail.failing, trail.backtrack,
                                             trail.lowest)
        lhs, rhs, pointwise, first = law.lhs, law.rhs, law.pointwise, law.first
        state = spaces[-1].decode if pointwise else None
        # the first failing assignments as (order, indices): the order is the
        # index tuple itself when exhaustive, the draw's position when sampled
        found = []
        # one env per law: a row decodes the plain indices that differ from
        # the previous row's, all of them on the first row
        env = {names[i]: form.wrap(_PartialFunction(form.keys, form.codomain, vector, trail))
               for (i, form), vector in zip(trail.lazy, trail.digits)}
        previous = (None,) * len(spaces)
        for row in trail.rows:
            # the witnesses are settled once no assignment of this row, nor
            # of a later row, can come before the last failure kept
            if len(found) >= max_witnesses and lowest(row) >= found[-1][0]:
                break
            for name, d, i, was in zip(names, spaces, row, previous):
                if i != was:
                    env[name] = d.decode(i)
            previous = row
            # one loop per stage, over the leaves of the points it reads: those
            # the trail holds above the depth at which the stage began
            while True:
                if first is not None:
                    start = first(env)
                    begin, bind = start.run, start.effect.bind
                x, y = lhs(env), rhs(env)
                if pointwise:
                    left, right = (x.run, y.run) if first is None else (x, y)
                built = len(trail)
                for s in runs() if pointwise else (None,):
                    while True:
                        if pointwise:
                            at = state(s)
                            if first is None:
                                x, y = left(at), right(at)
                            else:
                                ran = begin(at)
                                x, y = bind(ran, left), bind(ran, right)
                        ran = len(trail)
                        for part in parts:
                            while True:
                                if not part(x, y):
                                    for order, full in failing(row, s):
                                        if not _keep(found, order, full, max_witnesses):
                                            break
                                if len(trail) == ran or not backtrack(ran):
                                    break
                        if len(trail) == built or not backtrack(built):
                            break
                if not trail or not backtrack(0):
                    break
        failures = []
        for _order, indices in found:
            env = {name: d.decode(i) for name, d, i in zip(names, spaces, indices)}
            x, y = law.evaluate(env)
            failures.append(
                Witness(
                    inputs={k: stable_repr(v) for k, v in env.items()},
                    lhs=stable_repr(x),
                    rhs=stable_repr(y),
                    env=env,
                )
            )
        results.append(LawResult(law.name, checked, tuple(failures), mode))
    mode = "exhaustive" if modes <= {"exhaustive"} else ", ".join(sorted(modes - {"exhaustive"}))
    return LawReport(subject=subject_name, mode=mode, laws=tuple(results), effect=effect)
