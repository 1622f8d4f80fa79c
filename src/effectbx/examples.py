"""Effectful bx exemplars: partial inverses over a failing effect,
parse/print pairs, nondeterministic consistency restoration, environment
switching, change signalling/logging, memoizing interactive restoration, and
the composers case study in both symmetric-lens and bx form."""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from typing import Optional

from .bx import Bx, InitBx
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
from .stateful import Stateful, st_gets, st_lift, st_set, st_unit
from .symlens import SymLens, symlens_to_bx


# ---------------------------------------------------------------------------
# partial inverse pairs


def partial_bx(fam: EffectFamily, err, f, g, dom_a: FiniteDomain,
               dom_b: FiniteDomain, name: str = "partial") -> InitBx:
    """Relate two types through partial inverse functions ``f``/``g`` (which
    return None where undefined); setting a value outside the relation yields
    ``err``, which must be a zero of the effect family.

    Both preconditions are checked on the declared domains: the zero property
    of ``err`` and the partial-inverse property of the pair.
    """
    _check_zero(fam, err, dom_a)
    _check_partial_inverses(f, g, dom_a, dom_b)

    fail = st_lift(fam, err).then(st_unit(fam, ()))

    def set_l(a1):
        b1 = f(a1)
        if b1 is None:
            return fail
        return st_set(fam, (a1, b1))

    def set_r(b1):
        a1 = g(b1)
        if a1 is None:
            return fail
        return st_set(fam, (a1, b1))

    def init_l(a):
        b = f(a)
        return err if b is None else fam.unit((a, b))

    def init_r(b):
        a = g(b)
        return err if a is None else fam.unit((a, b))

    states = tuple((a, f(a)) for a in dom_a if f(a) is not None)
    return InitBx(
        name=name,
        effect=fam,
        get_l=st_gets(fam, lambda s: s[0]),
        set_l=set_l,
        get_r=st_gets(fam, lambda s: s[1]),
        set_r=set_r,
        state_domain=FiniteDomain(f"{name}-states", states),
        dom_a=dom_a,
        dom_b=dom_b,
        init_l=init_l,
        init_r=init_r,
    )


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


def inv_bx() -> InitBx:
    """Exact reciprocal relation over five rationals, failing on zero."""
    dom = FiniteDomain(
        "rationals",
        (Fraction(0), Fraction(2), Fraction(1, 2), Fraction(4), Fraction(1, 4)),
    )
    fam = failure_family()
    recip = lambda x: None if x == 0 else Fraction(1) / x
    return partial_bx(fam, NOTHING, recip, recip, dom, dom, name="inv")


def read_some_bx() -> InitBx:
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

    def set_r(b1):
        def run(s):
            _a, b = s
            if b == b1:
                return fam.unit(((), s))
            a1 = parse(b1)
            if a1 is None:
                return NOTHING
            return fam.unit(((), (a1, b1)))

        return Stateful(fam, run)

    def init_r(b):
        a = parse(b)
        return NOTHING if a is None else fam.unit((a, b))

    # Laws are quantified over the printed graph only; setting the right side
    # can leave it (e.g. alternative renderings), which the laws tolerate.
    states = tuple((a, str(a)) for a in dom_a)
    return InitBx(
        name="read-some",
        effect=fam,
        get_l=st_gets(fam, lambda s: s[0]),
        set_l=lambda a1: st_set(fam, (a1, str(a1))),
        get_r=st_gets(fam, lambda s: s[1]),
        set_r=set_r,
        state_domain=FiniteDomain("read-some-states", states),
        dom_a=dom_a,
        dom_b=dom_b,
        init_l=lambda a: fam.unit((a, str(a))),
        init_r=init_r,
    )


# ---------------------------------------------------------------------------
# nondeterministic consistency restoration


def nondet_bx(fam: EffectFamily, ok, bs, as_, dom_a: FiniteDomain,
              dom_b: FiniteDomain, name: str = "nondet") -> InitBx:
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

    def set_l(a1):
        def run(s):
            a, b = s
            if ok(a1, b):
                return fam.unit(((), (a1, b)))
            return fam.bind(
                tuple(bs(a1)), lambda b1: fam.unit(((), (a1, b1)))
            )

        return Stateful(fam, run)

    def set_r(b1):
        def run(s):
            a, b = s
            if ok(a, b1):
                return fam.unit(((), (a, b1)))
            return fam.bind(
                tuple(as_(b1)), lambda a1: fam.unit(((), (a1, b1)))
            )

        return Stateful(fam, run)

    states = tuple((a, b) for a in dom_a for b in dom_b if ok(a, b))
    return InitBx(
        name=name,
        effect=fam,
        get_l=st_gets(fam, lambda s: s[0]),
        set_l=set_l,
        get_r=st_gets(fam, lambda s: s[1]),
        set_r=set_r,
        state_domain=FiniteDomain(f"{name}-states", states),
        dom_a=dom_a,
        dom_b=dom_b,
        init_l=lambda a: fam.bind(tuple(bs(a)), lambda b: fam.unit((a, b))),
        init_r=lambda b: fam.bind(tuple(as_(b)), lambda a: fam.unit((a, b))),
    )


# ---------------------------------------------------------------------------
# environment switching


def switch_bx(fam: EffectFamily, family_of_bx, name: str = "switch") -> Bx:
    """Dispatch every operation through a bx chosen by the reader context.

    Well-behaved whenever each member of the family is, but not transparent:
    the gets consult the environment, not just the state.
    """
    contexts = fam.enumerate_contexts or ()
    if not contexts:
        raise EffectbxError("switch_bx needs a reader family with contexts")
    sample = family_of_bx(contexts[0])
    pick = st_lift(fam, ask())
    return Bx(
        name=name,
        effect=fam,
        get_l=pick.bind(lambda c: family_of_bx(c).get_l),
        set_l=lambda a: pick.bind(lambda c: family_of_bx(c).set_l(a)),
        get_r=pick.bind(lambda c: family_of_bx(c).get_r),
        set_r=lambda b: pick.bind(lambda c: family_of_bx(c).set_r(b)),
        state_domain=sample.state_domain,
        dom_a=sample.dom_a,
        dom_b=sample.dom_b,
    )


# ---------------------------------------------------------------------------
# signalling wrappers


def signal_bx(sig_a, sig_b, bx: Bx) -> Bx:
    """Fire a signal whenever a set actually changes the view; unchanged sets
    stay silent, which is what keeps the wrapper well-behaved."""
    fam = bx.effect

    def set_l(a1):
        return bx.get_l.bind(
            lambda a: bx.set_l(a1).then(
                st_lift(fam, sig_a(a1) if a != a1 else fam.unit(()))
            )
        )

    def set_r(b1):
        return bx.get_r.bind(
            lambda b: bx.set_r(b1).then(
                st_lift(fam, sig_b(b1) if b != b1 else fam.unit(()))
            )
        )

    return replace(bx, name=f"signal({bx.name})", set_l=set_l, set_r=set_r)


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

    def set_l(a1):
        def run(state):
            (a, b), fs, bs = state
            if a == a1:
                return fam.unit(((), state))
            hit = _assoc_lookup(fs, (a1, b))
            if hit is not None:
                return fam.unit(((), ((a1, hit), fs, bs)))
            return fam.bind(
                f(a1, b),
                lambda b1: fam.unit(
                    ((), ((a1, b1), (((a1, b), b1),) + fs, bs))
                ),
            )

        return Stateful(fam, run)

    def set_r(b1):
        def run(state):
            (a, b), fs, bs = state
            if b == b1:
                return fam.unit(((), state))
            hit = _assoc_lookup(bs, (a, b1))
            if hit is not None:
                return fam.unit(((), ((hit, b1), fs, bs)))
            return fam.bind(
                g(a, b1),
                lambda a1: fam.unit(
                    ((), ((a1, b1), fs, (((a, b1), a1),) + bs))
                ),
            )

        return Stateful(fam, run)

    return Bx(
        name=name,
        effect=fam,
        get_l=st_gets(fam, lambda st: st[0][0]),
        set_l=set_l,
        get_r=st_gets(fam, lambda st: st[0][1]),
        set_r=set_r,
        state_domain=state_domain,
        dom_a=dom_a,
        dom_b=dom_b,
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


def dynamic_search_bx(p, dom_a: FiniteDomain, dom_b: FiniteDomain,
                      name: str = "dynamic-search") -> Bx:
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
        name=name,
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


def dynamic_console_bx(fam: EffectFamily, parse=None,
                       name: str = "dynamic-console") -> Bx:
    """Interactive memoizing restorer over the scripted console."""
    m = match_console(parse)
    return dynamic_bx(
        fam,
        lambda a1, b: m(a1, b),
        lambda a, b1: m(b1, a),
        name=name,
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


def _partition_by_name(items, name):
    hits = [x for x in items if x[0] == name]
    rest = [x for x in items if x[0] != name]
    return hits, rest


def composers_symlens() -> SymLens:
    """Triples of (name, nation, dates) against ordered (name, nation) rows.

    The complement remembers (name, dates) in row order.  Updates keep the
    row order of retained names and append new names in sorted order; dates
    for names first seen on the row side default to the unknown marker.
    Names are keys; a view that repeats a name is rejected.
    """

    def put_r(m, c):
        _require_unique_names(m, "left view")
        leftover = sorted(m, key=_triple_key)
        acc = []
        for name, _dates in c:
            hits, leftover = _partition_by_name(leftover, name)
            acc = hits + acc
        triples = list(reversed(acc)) + sorted(leftover, key=_triple_key)
        rows = tuple((name, nation) for name, nation, _d in triples)
        c1 = tuple((name, dates) for name, _n, dates in triples)
        return rows, c1

    def put_l(rows, c):
        _require_unique_names(rows, "right view")
        remaining = list(c)
        acc = []
        for name, nation in rows:
            hits, remaining = _partition_by_name(remaining, name)
            dates = hits[0][1] if hits else None
            acc = [(name, nation, dates)] + acc
        triples = list(reversed(acc))
        m = frozenset(triples)
        c1 = tuple((name, dates) for name, _n, dates in triples)
        return m, c1

    return SymLens(put_r=put_r, put_l=put_l, missing=())


def composers_bx() -> InitBx:
    """The same synchronization as a bx over the identity effect; the hidden
    state is the ordered triple list."""
    fam = identity_family()

    def get_l(l):
        return fam.unit((frozenset(l), l))

    def set_l(m):
        _require_unique_names(m, "left view")

        def run(l):
            leftover = sorted(m, key=_triple_key)
            acc = []
            for name, _nation, _dates in l:
                hits, leftover = _partition_by_name(leftover, name)
                acc = hits + acc
            out = tuple(reversed(acc)) + tuple(sorted(leftover, key=_triple_key))
            return fam.unit(((), out))

        return Stateful(fam, run)

    def get_r(l):
        return fam.unit((tuple((name, nation) for name, nation, _d in l), l))

    def set_r(rows):
        _require_unique_names(rows, "right view")

        def run(l):
            remaining = list(l)
            acc = []
            for name, nation in rows:
                hits, remaining = _partition_by_name(remaining, name)
                dates = hits[0][2] if hits else None
                acc = [(name, nation, dates)] + acc
            return fam.unit(((), tuple(reversed(acc))))

        return Stateful(fam, run)

    def init_l(m):
        _require_unique_names(m, "left view")
        return tuple(sorted(m, key=_triple_key))

    def init_r(rows):
        _require_unique_names(rows, "right view")
        return tuple((name, nation, None) for name, nation in rows)

    return InitBx(
        name="composers",
        effect=fam,
        get_l=Stateful(fam, get_l),
        set_l=set_l,
        get_r=Stateful(fam, get_r),
        set_r=set_r,
        state_domain=None,
        dom_a=None,
        dom_b=None,
        init_l=init_l,
        init_r=init_r,
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


def composers_symlens_bx(name: str = "composers-symlens") -> InitBx:
    """The symmetric-lens composers simulated as a bx on consistent triples,
    with the small-universe domains attached for law checking."""
    dom_a, dom_b, _dom_c = composers_universe()
    return symlens_to_bx(composers_symlens(), dom_a, dom_b, name=name)


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
    def __init__(self, bx: InitBx):
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
