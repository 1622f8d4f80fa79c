"""Effectful bx exemplars: partial inverses over a failing effect,
parse/print pairs, nondeterministic consistency restoration, environment
switching, change signalling/logging, memoizing interactive restoration, and
the composers case study in both symmetric-lens and bx form."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from functools import partial
from typing import Optional

from .bx import Bx, legs_of, span_bx
from .combinators import Left, Right
from .effects import (
    EffectFamily,
    Just,
    NOTHING,
    ask,
    console_write,
    failure_family,
    identity_family,
    tell,
)
from .errors import EffectbxError, KeyViolation
from .lawcheck import FiniteDomain
from .lenses import Lens
from .stateful import st_lift
from .symlens import SymLens, symlens_to_bx


# ---------------------------------------------------------------------------
# partial inverse pairs


def partial_bx(fam: EffectFamily, err, f, g, dom_a: FiniteDomain,
               dom_b: FiniteDomain, name: str = "partial") -> Bx:
    """Relate two types through partial inverse functions ``f``/``g`` (which
    return None where undefined); setting a value outside the relation yields
    ``err``, which must be a zero of the effect family.

    Both preconditions are checked on the declared domains: the zero property
    of ``err`` and the partial-inverse property of the pair.
    """
    _check_zero(fam, err, dom_a)
    f_at, g_at = _tabulate(f, dom_a), _tabulate(g, dom_b)
    _check_partial_inverses(f_at, g_at, dom_a, dom_b)

    # each update ignores the old state, so it is also the create
    def update_l(_s, a):
        b = f_at(a)
        return err if b is None else fam.unit((a, b))

    def update_r(_s, b):
        a = g_at(b)
        return err if a is None else fam.unit((a, b))

    states = tuple((a, b) for a, b in zip(dom_a, map(f_at, dom_a)) if b is not None)
    return span_bx(
        Lens(lambda s: s[0], update_l, partial(update_l, None), effect=fam),
        Lens(lambda s: s[1], update_r, partial(update_r, None), effect=fam),
        FiniteDomain(f"{name}-states", states), dom_a, dom_b, fam, name,
    )


def _tabulate(h, dom):
    """``h`` over ``dom``, computed once: the value at an element of the
    domain is read at its position in a table, and ``h`` is called only for
    a value outside the domain."""
    values, position = tuple(map(h, dom)), dom.position

    def at(x):
        i = position(x)
        return h(x) if i is None else values[i]

    return at


def _check_zero(fam, err, dom):
    marker = object()  # fresh, so no continuation output can masquerade as err
    probes = [fam.bind(err, lambda _x: fam.unit(marker))]
    if len(dom.elements) > 0:
        probes.append(fam.bind(fam.unit(dom.elements[0]), lambda _x: err))
    for p in probes:
        if not fam.equal_values(p, err):
            raise EffectbxError(f"{err!r} is not a zero of {fam.name}")


def _check_partial_inverses(f, g, dom_a, dom_b):
    for a in dom_a:
        b = f(a)
        if b is not None and g(b) != a:
            raise EffectbxError(
                f"not partial inverses: f({a!r})={b!r} but g({b!r})={g(b)!r}"
            )
    for b in dom_b:
        a = g(b)
        if a is not None and f(a) != b:
            raise EffectbxError(
                f"not partial inverses: g({b!r})={a!r} but f({a!r})={f(a)!r}"
            )


def inv_bx() -> Bx:
    """Exact reciprocal relation over five rationals, failing on zero."""
    dom = FiniteDomain(
        "rationals",
        (Fraction(0), Fraction(2), Fraction(1, 2), Fraction(4), Fraction(1, 4)),
    )
    fam = failure_family()
    recip = lambda x: None if x == 0 else Fraction(1) / x
    return partial_bx(fam, NOTHING, recip, recip, dom, dom, name="inv")


def read_some_bx() -> Bx:
    """Relate the ints 0 and 1 to their printed form over the failing effect.
    Setting an unparsable string (the domain has ``"junk"``) fails, except
    that re-setting the current string is always a no-op."""
    fam = failure_family()
    dom_a = FiniteDomain("ints", (0, 1))
    dom_b = FiniteDomain("strings", ("0", "1", "junk"))

    def parse(text):
        try:
            return int(text)
        except ValueError:
            return None

    def printed(a):
        return (a, str(a))

    def update_r(s, b1):
        return fam.unit(s) if s[1] == b1 else create_r(b1)

    def create_r(b):
        a = parse(b)
        return NOTHING if a is None else fam.unit((a, b))

    # Laws are quantified over the printed graph only; setting the right side
    # can leave it (e.g. alternative renderings), which the laws tolerate.
    states = tuple(printed(a) for a in dom_a)
    return span_bx(
        Lens(view=lambda s: s[0],
             update=lambda _s, a: printed(a), create=printed),
        Lens(lambda s: s[1], update_r, create_r, effect=fam),
        FiniteDomain("read-some-states", states), dom_a, dom_b, fam, "read-some",
    )


# ---------------------------------------------------------------------------
# nondeterministic consistency restoration


def nondet_bx(fam: EffectFamily, ok, bs, as_, dom_a: FiniteDomain,
              dom_b: FiniteDomain, name: str = "nondet") -> Bx:
    """Restore consistency by branching over the injected candidate lists.

    ``ok`` decides consistency of a pair; ``bs(a)``/``as_(b)`` list candidate
    opposite values in authoritative order.  The side conditions (candidates
    are consistent) are verified on the declared domains up front.  Setting a
    value that is already consistent keeps the opposite side; otherwise every
    candidate becomes one outcome, and an empty candidate list yields the
    empty outcome list.
    """
    for a in dom_a:
        for b in bs(a):
            if not ok(a, b):
                raise EffectbxError(f"bs({a!r}) offers inconsistent {b!r}")
    for b in dom_b:
        for a in as_(b):
            if not ok(a, b):
                raise EffectbxError(f"as({b!r}) offers inconsistent {a!r}")

    def create_l(a):
        return fam.bind(tuple(bs(a)), (
            lambda b: fam.unit((a, b))
        ))

    def create_r(b):
        return fam.bind(tuple(as_(b)), (
            lambda a: fam.unit((a, b))
        ))

    def update_l(s, a1):
        return fam.unit((a1, s[1])) if ok(a1, s[1]) else create_l(a1)

    def update_r(s, b1):
        return fam.unit((s[0], b1)) if ok(s[0], b1) else create_r(b1)

    states = tuple((a, b) for a in dom_a for b in dom_b if ok(a, b))
    return span_bx(
        Lens(lambda s: s[0], update_l, create_l, effect=fam),
        Lens(lambda s: s[1], update_r, create_r, effect=fam),
        FiniteDomain(f"{name}-states", states), dom_a, dom_b, fam, name,
    )


# ---------------------------------------------------------------------------
# environment switching


def switch_bx(fam: EffectFamily, family_of_bx, name: str = "switch") -> Bx:
    """Dispatch every operation through a bx chosen by the reader context.

    Well-behaved whenever each member of the family is, but not transparent:
    the gets consult the environment, not just the state.  ``family_of_bx``
    is called once per context, when the bx is built.
    """
    contexts = fam.enumerate_contexts or ()
    if not contexts:
        raise EffectbxError("switch_bx needs a reader family with contexts")
    members = tuple(family_of_bx(c) for c in contexts)
    pick = st_lift(fam, ask())

    def member(c):
        return members[contexts.index(c)]

    def set_l(a):
        return pick.bind(lambda c: member(c).set_l(a))

    def set_r(b):
        return pick.bind(lambda c: member(c).set_r(b))

    return Bx(
        name=name,
        effect=fam,
        get_l=pick.bind(lambda c: member(c).get_l),
        set_l=set_l,
        get_r=pick.bind(lambda c: member(c).get_r),
        set_r=set_r,
        state_domain=members[0].state_domain,
        dom_a=members[0].dom_a,
        dom_b=members[0].dom_b,
    )


# ---------------------------------------------------------------------------
# signalling wrappers


def signal_bx(sig_a, sig_b, bx: Bx) -> Bx:
    """Fire a signal whenever a set actually changes the view; unchanged sets
    stay silent, which is what keeps the wrapper well-behaved.  The paper
    states this wrapper for any bx; here it is the span of ``bx``'s legs
    (see ``legs_of``) with signalled updates, so an opaque ``bx`` is refused
    with ``NotTransparent``."""
    left, right = legs_of(bx)
    return span_bx(_signalled(bx.effect, sig_a, left), _signalled(bx.effect, sig_b, right),
                   bx.state_domain, bx.dom_a, bx.dom_b, bx.effect, f"signal({bx.name})")


def _signalled(fam: EffectFamily, sig, leg: Lens) -> Lens:
    """``leg`` at ``fam`` whose update is followed by ``sig`` of the new
    view when it differs from the old one."""
    view, update = leg.view, leg.update

    def signalled(s, v1):
        if view(s) != v1:
            return fam.bind(update(s, v1), lambda t: fam.map(sig(v1), (
                lambda _u: t
            )))
        return update(s, v1)

    return Lens(view=view, update=signalled, create=leg.create, effect=fam)


def log_bx(bx: Bx) -> Bx:
    """Writer-effect specialization: log each changed view, tagged by side."""
    return replace(signal_bx(
        lambda a: tell((Left(a),)),
        lambda b: tell((Right(b),)),
        bx,
    ), name=f"log({bx.name})")


def alert_bx(bx: Bx) -> Bx:
    """Console-effect specialization: announce which side changed."""
    return replace(signal_bx(
        lambda _a: console_write("Left"),
        lambda _b: console_write("Right"),
        bx,
    ), name=f"alert({bx.name})")


# ---------------------------------------------------------------------------
# memoizing (interactive) consistency restoration


def dynamic_bx(fam: EffectFamily, f, g, dom_a: Optional[FiniteDomain] = None,
               dom_b: Optional[FiniteDomain] = None,
               state_domain: Optional[FiniteDomain] = None,
               name: str = "dynamic") -> Bx:
    """Learn consistency restorations as they happen.

    State is ((a, b), forward-memo, backward-memo) where the memos are
    association tuples keyed by (new view, old opposite view).  A set with an
    unchanged view is a no-op; a memo hit replays the recorded answer without
    consulting ``f``/``g``; a miss asks and records.
    """

    def update_l(state, a1):
        (a, b), fs, bs = state
        if a == a1:
            return fam.unit(state)
        hit = _assoc_lookup(fs, (a1, b))
        if hit is not None:
            return fam.unit(((a1, hit), fs, bs))
        return fam.bind(f(a1, b), (
            lambda b1: fam.unit(((a1, b1), (((a1, b), b1),) + fs, bs))
        ))

    def update_r(state, b1):
        (a, b), fs, bs = state
        if b == b1:
            return fam.unit(state)
        hit = _assoc_lookup(bs, (a, b1))
        if hit is not None:
            return fam.unit(((hit, b1), fs, bs))
        return fam.bind(g(a, b1), (
            lambda a1: fam.unit(((a1, b1), fs, (((a, b1), a1),) + bs))
        ))

    return span_bx(
        Lens(lambda st: st[0][0], update_l, effect=fam),
        Lens(lambda st: st[0][1], update_r, effect=fam),
        state_domain, dom_a, dom_b, fam, name,
    )


def _assoc_lookup(table, key):
    for k, v in table:
        if k == key:
            return v
    return None


def dynamic_memo_states(dom_a: FiniteDomain, dom_b: FiniteDomain) -> FiniteDomain:
    """A checkable state domain for dynamic_bx: every view pair, with memo
    tables of at most one entry each."""
    f_tables = [()] + [
        (((a1, b), b1),)
        for a1 in dom_a for b in dom_b for b1 in dom_b
    ]
    b_tables = [()] + [
        (((a, b1), a1),)
        for a in dom_a for b1 in dom_b for a1 in dom_a
    ]
    states = tuple(
        ((a, b), fs, bs)
        for a in dom_a
        for b in dom_b
        for fs in f_tables
        for bs in b_tables
    )
    return FiniteDomain("dynamic-states", states)


def dynamic_search_bx(p, dom_a: FiniteDomain, dom_b: FiniteDomain) -> Bx:
    """Memoizing restoration whose oracle scans the declared enumerations for
    the first consistent candidate, failing when none exists."""
    fam = failure_family()

    def f(a1, _b):
        for b1 in dom_b:
            if p(a1, b1):
                return Just(b1)
        return NOTHING

    def g(_a, b1):
        for a1 in dom_a:
            if p(a1, b1):
                return Just(a1)
        return NOTHING

    return dynamic_bx(
        fam, f, g, dom_a=dom_a, dom_b=dom_b,
        state_domain=dynamic_memo_states(dom_a, dom_b),
        name="dynamic-search",
    )


def match_console(parse=None):
    """The fixed interactive prompt pair: announce the new value, ask for a
    replacement of the stale opposite value, read the answer."""

    def matcher(new_value, stale_opposite):
        def run(world):
            world.write("Setting " + str(new_value))
            world.write("Replacement for " + str(stale_opposite) + "?")
            answer = world.read()
            return parse(answer) if parse else answer

        return run

    return matcher


def dynamic_console_bx(fam: EffectFamily, parse=None) -> Bx:
    """Interactive memoizing restorer over the scripted console."""
    m = match_console(parse)
    return dynamic_bx(
        fam,
        lambda a1, b: m(a1, b),
        lambda a, b1: m(b1, a),
        name="dynamic-console",
    )


# ---------------------------------------------------------------------------
# composers case study


def render_dates(dates) -> str:
    if dates is None:
        return "????"
    return f"{dates[0]}--{dates[1]}"


def _dates_key(dates):
    return (0,) if dates is None else (1,) + tuple(dates)


def _triple_key(triple):
    name, nation, dates = triple
    return (name, nation, _dates_key(dates))


def _require_unique_names(pairs_or_triples, what):
    seen = set()
    for item in pairs_or_triples:
        name = item[0]
        if name in seen:
            raise KeyViolation(f"{what} repeats name {name!r}")
        seen.add(name)


def _ordered_by_names(names, triples):
    """The triples (of distinct names) whose names are among ``names``, in
    that order, then the others in sorted order."""
    by_name = {triple[0]: triple for triple in triples}
    first = [by_name.pop(name) for name in names if name in by_name]
    return first + sorted(by_name.values(), key=_triple_key)


def _dated_rows(rows, dated):
    """Each (name, nation) row as a triple with the first dates that
    ``dated``, a list of (name, dates) pairs, gives its name, or None."""
    first = {}
    for name, dates in dated:
        first.setdefault(name, dates)
    return [(name, nation, first.pop(name, None)) for name, nation in rows]


def composers_symlens() -> SymLens:
    """Triples of (name, nation, dates) against ordered (name, nation) rows.

    The complement remembers (name, dates) in row order.  Updates keep the
    row order of retained names and append new names in sorted order; dates
    for names first seen on the row side default to the unknown marker.
    Names are keys; a view that repeats a name is rejected.
    """

    def put_r(m, c):
        _require_unique_names(m, "left view")
        triples = _ordered_by_names([name for name, _dates in c], m)
        rows = tuple((name, nation) for name, nation, _d in triples)
        c1 = tuple((name, dates) for name, _n, dates in triples)
        return rows, c1

    def put_l(rows, c):
        _require_unique_names(rows, "right view")
        triples = _dated_rows(rows, c)
        c1 = tuple((name, dates) for name, _n, dates in triples)
        return frozenset(triples), c1

    return SymLens(put_r=put_r, put_l=put_l, missing=())


def composers_bx() -> Bx:
    """The same synchronization as a bx over the identity effect: the span of
    two lenses out of the ordered triple list."""

    def update_l(l, m):
        _require_unique_names(m, "left view")
        return tuple(_ordered_by_names([name for name, _n, _d in l], m))

    def update_r(l, rows):
        _require_unique_names(rows, "right view")
        return tuple(_dated_rows(rows, [(name, dates) for name, _n, dates in l]))

    # from no triples, an update is the initialiser
    return span_bx(
        Lens(frozenset, update_l, partial(update_l, ())),
        Lens(lambda l: tuple((name, nation) for name, nation, _d in l), update_r,
             partial(update_r, ())),
        None, None, None, identity_family(), "composers",
    )


def composers_universe():
    """A small checkable instance: two composers with fixed nations and two
    possible dates values each."""
    nations = {"Bea": "AT", "Kim": "DE"}
    names = tuple(nations)
    dates_options = (None, ("1", "2"))
    triples = []
    for name in names:
        for dates in dates_options:
            triples.append((name, nations[name], dates))
    left_views = []
    for size in range(3):
        left_views.extend(_distinct_name_sets(triples, size))
    rows = tuple((name, nations[name]) for name in names)
    right_views = []
    for size in range(3):
        right_views.extend(_ordered_rows(rows, size))
    complements = []
    name_dates = tuple((name, d) for name in names for d in dates_options)
    for size in range(3):
        complements.extend(_ordered_rows(name_dates, size))
    return (
        FiniteDomain("composer-sets", tuple(left_views)),
        FiniteDomain("composer-rows", tuple(right_views)),
        FiniteDomain("composer-complements", tuple(dict.fromkeys(complements))),
    )


def _distinct_name_sets(triples, size):
    return [frozenset(combo) for combo in itertools.combinations(triples, size)
            if len({t[0] for t in combo}) == size]


def _ordered_rows(items, size):
    return [combo for combo in itertools.permutations(items, size)
            if len({x[0] for x in combo}) == size]


def composers_symlens_bx() -> Bx:
    """The symmetric-lens composers simulated as a bx on consistent triples,
    with the small-universe domains attached for law checking."""
    dom_a, dom_b, _dom_c = composers_universe()
    return symlens_to_bx(composers_symlens(), dom_a, dom_b, name="composers-symlens")


# ---------------------------------------------------------------------------
# differential scenario runner


def _encode_left(view):
    return sorted(
        [[n, na, None if d is None else list(d)] for n, na, d in view],
        key=lambda row: (row[0], row[1]),
    )


def _encode_right(view):
    return [[n, na] for n, na in view]


def _decode_left(rows):
    triples = []
    for row in rows:
        name, nation, dates = row
        triples.append((name, nation, None if dates is None else tuple(dates)))
    return frozenset(triples)


def _decode_right(rows):
    return tuple((name, nation) for name, nation in rows)


def default_composers_script():
    """The shipped six-step scenario: seed the left side, read the rows,
    append a row, read the triples, fill in the new dates, read the rows
    again, then rewrite the row order."""
    bach = ["J. S. Bach", "German", ["1685", "1750"]]
    tavener_row = ["John Tavener", "British"]
    tavener_fixed = ["John Tavener", "British", ["1944", "2013"]]
    return [
        {"op": "setL", "value": [bach]},
        {"op": "getR"},
        {"op": "setR", "value": [["J. S. Bach", "German"], tavener_row]},
        {"op": "getL"},
        {"op": "setL", "value": [bach, tavener_fixed]},
        {"op": "getR"},
        {
            "op": "setR",
            "value": [
                ["Hendrik Andriessen", "Dutch"],
                ["J. S. Bach", "German"],
                tavener_row,
                ["J-B Lully", "French"],
            ],
        },
        {"op": "getL"},
    ]


class _BxRunner:
    def __init__(self, bx: Bx):
        self.bx = bx
        self.state = bx.init_r(())

    def apply(self, op, value=None):
        if op == "getL":
            a, self.state = self.bx.get_l.run(self.state)
            return a
        if op == "getR":
            b, self.state = self.bx.get_r.run(self.state)
            return b
        if op == "setL":
            _, self.state = self.bx.set_l(value).run(self.state)
            return None
        if op == "setR":
            _, self.state = self.bx.set_r(value).run(self.state)
            return None
        raise ValueError(f"unknown op {op!r}")

    def views(self):
        a, _ = self.bx.get_l.run(self.state)
        b, _ = self.bx.get_r.run(self.state)
        return a, b


def composers_scenario(script) -> dict:
    """Replay a scripted scenario against the symmetric-lens and bx
    implementations side by side.

    Each step records both implementations' observable views and whether they
    agree; the report is JSON-ready.
    """
    sym = _BxRunner(symlens_to_bx(composers_symlens()))
    native = _BxRunner(composers_bx())
    steps = []
    all_ok = True
    for i, step in enumerate(script):
        op = step["op"]
        raw = step.get("value")
        if op == "setL":
            value = _decode_left(raw)
        elif op == "setR":
            value = _decode_right(raw)
        else:
            value = None
        out_sym = sym.apply(op, value)
        out_bx = native.apply(op, value)
        if op in ("getL", "getR"):
            agree = out_sym == out_bx
        else:
            agree = sym.views() == native.views()
        all_ok = all_ok and agree
        a_sym, b_sym = sym.views()
        steps.append(
            {
                "step": i + 1,
                "op": op,
                "symlens": _render_output(op, out_sym),
                "bx": _render_output(op, out_bx),
                "left_view": _encode_left(a_sym),
                "right_view": _encode_right(b_sym),
                "agree": agree,
            }
        )
    return {"steps": steps, "ok": all_ok}


def _render_output(op, out):
    if op == "getL":
        return _encode_left(out)
    if op == "getR":
        return _encode_right(out)
    return None
