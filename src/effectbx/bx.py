"""The bidirectional interface: two entangled views over a hidden state, with
get/set per side, and the law suites that decide well-behavedness,
overwritability, stability, transparency and initialization."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Optional

from .effects import EffectFamily, identity_family, require_identity
from .errors import NoInitializers, UnobservableEffect
from .lawcheck import FiniteDomain, Law, LawReport, run_laws
from .lenses import Lens
from .stateful import Stateful, get_set_laws, st_get, st_gets, st_set, st_unit


@dataclass(frozen=True, kw_only=True)
class Bx:
    """A bx between views A and B over hidden state S.

    ``get_l``/``get_r`` are computations returning the view; ``set_l``/
    ``set_r`` accept a new view value and restore consistency, possibly with
    effects.  The finite domains make the instance checkable; they may be
    declared larger than the reachable state set.
    """

    name: str
    effect: EffectFamily
    get_l: Stateful
    set_l: Callable[[Any], Stateful]
    get_r: Stateful
    set_r: Callable[[Any], Stateful]
    state_domain: Optional[FiniteDomain] = None
    dom_a: Optional[FiniteDomain] = None
    dom_b: Optional[FiniteDomain] = None

    def with_initializers(self, init_l, init_r) -> "InitBx":
        """This bx as an ``InitBx`` with the given initializers."""
        return InitBx(**{f.name: getattr(self, f.name) for f in fields(Bx)},
                      init_l=init_l, init_r=init_r)


@dataclass(frozen=True, kw_only=True)
class InitBx(Bx):
    """A bx with initializers building a starting state from either view
    (effect values over the state type)."""

    init_l: Callable[[Any], Any]
    init_r: Callable[[Any], Any]


def _side_laws(bx: Bx):
    """The get/set laws of each side (``stateful.get_set_laws``): left over
    ``a``, ``a2``, right over ``b``, ``b2``."""
    return (
        get_set_laws(bx.get_l, bx.set_l, bx.dom_a, bx.state_domain,
                     ("get_l", "set_l"), ("a", "a2")),
        get_set_laws(bx.get_r, bx.set_r, bx.dom_b, bx.state_domain,
                     ("get_r", "set_r"), ("b", "b2")),
    )


def seven_laws(bx: Bx):
    """The well-behavedness suite: get/get, set/get and get/set per side plus
    cross-side get commutation."""
    left, right = _side_laws(bx)
    return [
        *left[:3],
        *right[:3],
        Law(
            "get_l-get_r",
            [("s", bx.state_domain)],
            lambda e: bx.get_l.bind(lambda a: bx.get_r.map(lambda b: (a, b))).run(e["s"]),
            lambda e: bx.get_r.bind(lambda b: bx.get_l.map(lambda a: (a, b))).run(e["s"]),
        ),
    ]


def overwritable_laws(bx: Bx):
    """A later set fully overwrites an earlier one, per side."""
    left, right = _side_laws(bx)
    return [left[3], right[3]]


# ---------------------------------------------------------------------------
# transparency


@dataclass(frozen=True)
class TransparencyAnalysis:
    """``read_l``/``read_r`` are the views at each of ``states``, where
    ``tuple.index`` finds a state by ``==`` (never by its repr)."""

    transparent: bool
    states: tuple
    read_l: Optional[tuple]
    read_r: Optional[tuple]
    opaque_states: tuple = ()
    resolve_l: Optional[Callable] = None
    resolve_r: Optional[Callable] = None

    def read_l_fn(self):
        return lambda s: self._read(self.read_l, self.resolve_l, s)

    def read_r_fn(self):
        return lambda s: self._read(self.read_r, self.resolve_r, s)

    def _read(self, views, resolve, s):
        try:
            return views[self.states.index(s)]
        except ValueError:
            pass
        # states reached outside the declared domain still resolve, as long
        # as the get stays a pure query there
        fresh = resolve(s) if resolve else None
        if fresh is None:
            raise UnobservableEffect(f"get is not a pure query at state {s!r}")
        return fresh[0]


def analyze_transparency(bx: Bx) -> TransparencyAnalysis:
    """A bx is transparent when both gets are pure queries: at every state the
    get returns some view value with no base effect and no state change.  The
    extracted read maps are returned for transparent bx.

    Candidate view values come from the effect value's own outcomes (falling
    back to the declared view domain), then get is compared against the pure
    query returning that candidate.  Extraction assumes the family's unit is
    injective (true for every shipped family over non-empty carriers); a
    non-injective unit could make the extracted maps ambiguous.
    """
    if bx.state_domain is None:
        raise UnobservableEffect("transparency analysis needs a state domain")
    fam = bx.effect
    read_l, read_r = [], []
    opaque = []
    for s in bx.state_domain:
        a_hit = _extract_pure(fam, bx.get_l, s, bx.dom_a)
        b_hit = _extract_pure(fam, bx.get_r, s, bx.dom_b)
        if a_hit is None or b_hit is None:
            opaque.append(s)
            continue
        read_l.append(a_hit[0])
        read_r.append(b_hit[0])
    states = bx.state_domain.elements
    if opaque:
        return TransparencyAnalysis(False, states, None, None, tuple(opaque))
    return TransparencyAnalysis(
        True,
        states,
        tuple(read_l),
        tuple(read_r),
        resolve_l=lambda s: _extract_pure(fam, bx.get_l, s, bx.dom_a),
        resolve_r=lambda s: _extract_pure(fam, bx.get_r, s, bx.dom_b),
    )


def _extract_pure(fam, getter, s, dom):
    eff = getter.run(s)
    candidates = []
    if fam.outcomes is not None:
        for result in fam.outcomes_of(eff):
            candidates.append(result[0])
            break
    if dom is not None:
        candidates.extend(dom.elements)
    for v in candidates:
        if fam.equal_values(eff, fam.unit((v, s))):
            return (v,)
    return None


# ---------------------------------------------------------------------------
# consistency relation and stability


def consistent_pairs(bx: Bx):
    """All (a, b) pairs observable by reading both sides in sequence,
    collecting across nondeterministic outcomes; the consistency relation."""
    pairs = []
    probe = bx.get_l.bind(lambda a: bx.get_r.map(lambda b: (a, b)))
    for s in bx.state_domain:
        for result in bx.effect.outcomes_of(probe.run(s)):
            pair = result[0]
            if pair not in pairs:
                pairs.append(pair)
    return tuple(pairs)


def stability_laws(bx: Bx):
    """Every consistent pair survives its two sets, in either order."""
    pairs = consistent_pairs(bx)
    return [
        Law(
            "stable-set_l-first",
            [("p", pairs), ("s", bx.state_domain)],
            lambda e: bx.set_l(e["p"][0]).then(bx.set_r(e["p"][1])).then(bx.get_l).run(e["s"]),
            lambda e: bx.set_l(e["p"][0]).then(bx.set_r(e["p"][1]))
            .then(st_unit(bx.effect, e["p"][0])).run(e["s"]),
        ),
        Law(
            "stable-set_r-first",
            [("p", pairs), ("s", bx.state_domain)],
            lambda e: bx.set_r(e["p"][1]).then(bx.set_l(e["p"][0])).then(bx.get_r).run(e["s"]),
            lambda e: bx.set_r(e["p"][1]).then(bx.set_l(e["p"][0]))
            .then(st_unit(bx.effect, e["p"][1])).run(e["s"]),
        ),
    ]


# ---------------------------------------------------------------------------
# initialization


def init_laws(bx: InitBx):
    fam = bx.effect
    return [
        Law(
            "init_l-get_l",
            [("a", bx.dom_a)],
            lambda e: fam.bind(bx.init_l(e["a"]), lambda s: bx.get_l.run(s)),
            lambda e: fam.bind(bx.init_l(e["a"]), lambda s: fam.unit((e["a"], s))),
        ),
        Law(
            "init_r-get_r",
            [("b", bx.dom_b)],
            lambda e: fam.bind(bx.init_r(e["b"]), lambda s: bx.get_r.run(s)),
            lambda e: fam.bind(bx.init_r(e["b"]), lambda s: fam.unit((e["b"], s))),
        ),
    ]


# ---------------------------------------------------------------------------
# the per-bx suites


SUITES = {
    "seven": seven_laws,
    "overwritable": overwritable_laws,
    "stability": stability_laws,
    "init": init_laws,
}


def check_suite(bx: Bx, suite: str, cap=None, seed=0) -> LawReport:
    """Run the laws of ``SUITES[suite]`` on ``bx``: well-behavedness
    ("seven"), a later set fully overwriting an earlier one ("overwritable"),
    every consistent pair surviving its sets in either order ("stability"),
    or initialising then getting the initialised value ("init", which
    needs an ``InitBx``)."""
    if suite == "init" and not isinstance(bx, InitBx):
        raise NoInitializers(f"{bx.name} has no initializers")
    return run_laws(
        bx.name if suite == "seven" else f"{bx.name}:{suite}", SUITES[suite](bx),
        bx.effect.equal_values, cap=cap, seed=seed, effect=bx.effect.name,
    )


def check_seven_laws(bx: Bx, cap=None, seed=0) -> LawReport:
    return check_suite(bx, "seven", cap, seed)


def check_init_laws(bx: InitBx, cap=None, seed=0) -> LawReport:
    return check_suite(bx, "init", cap, seed)


# ---------------------------------------------------------------------------
# lens subsumption


def lens_to_bx(l: Lens, source_domain: FiniteDomain, view_domain: FiniteDomain,
               fam: Optional[EffectFamily] = None, name: str = "lens") -> Bx:
    """Simulate a lens at the identity effect as a bx at ``fam`` (the identity
    by default): the hidden state is the source itself, the left view is the
    whole source, the right view is the lens view.  A lens with ``create``
    gives an ``InitBx``."""
    require_identity(l.effect, "lens_to_bx")
    fam = fam or identity_family()
    parts = dict(
        name=name,
        effect=fam,
        get_l=st_get(fam),
        set_l=lambda a: st_set(fam, a),
        get_r=st_gets(fam, l.view),
        set_r=lambda b: st_get(fam).bind(lambda s: st_set(fam, l.update(s, b))),
        state_domain=source_domain,
        dom_a=source_domain,
        dom_b=view_domain,
    )
    if l.create is None:
        return Bx(**parts)
    return InitBx(**parts, init_l=lambda a: fam.unit(a), init_r=lambda b: fam.unit(l.create(b)))
