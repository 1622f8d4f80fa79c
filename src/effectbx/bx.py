"""The bidirectional interface: two entangled views over a hidden state, with
get/set per side, the law suites that decide well-behavedness,
overwritability, stability, transparency and initialization, the bx of a
span of two lenses, and the legs that the combinators of bx combine."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Optional

from .effects import EffectFamily, identity_family, require_identity, same_family
from .errors import NoInitializers, NotTransparent, UnobservableEffect
from .lawcheck import FiniteDomain, Law, Positions, pointwise
from .lenses import Lens, identity_lens, lift_lens
from .stateful import Stateful, get_set_laws, st_exec, st_gets, then_cont, unit_cont


@dataclass(frozen=True, kw_only=True)
class Bx:
    """A bx between views A and B over hidden state S.

    ``get_l``/``get_r`` are computations returning the view; ``set_l``/
    ``set_r`` accept a new view value and restore consistency, possibly with
    effects.  The finite domains make the instance checkable; they may be
    declared larger than the reachable state set.  The initializers build a
    starting state (an effect value) from either view; like a lens's
    ``create`` they are optional, and a bx with both is ``initialisable``.
    ``legs`` is set by ``span_bx`` only: each leg with the get, set and
    initializer built from it (read them with ``legs_of``).
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
    init_l: Optional[Callable[[Any], Any]] = None
    init_r: Optional[Callable[[Any], Any]] = None
    legs: Optional[tuple] = None

    @property
    def initialisable(self) -> bool:
        return self.init_l is not None and self.init_r is not None


def dual(bx: Bx) -> Bx:
    """Exchange the two sides, their domains, their initializers and their
    legs; preserves transparency, overwritability and initialisability.  A
    right-side law of ``bx`` is the matching left-side law of its dual."""
    return replace(
        bx,
        name=f"dual({bx.name})",
        get_l=bx.get_r,
        set_l=bx.set_r,
        get_r=bx.get_l,
        set_r=bx.set_l,
        dom_a=bx.dom_b,
        dom_b=bx.dom_a,
        init_l=bx.init_r,
        init_r=bx.init_l,
        legs=None if bx.legs is None else bx.legs[::-1],
    )


def require_initialisable(bx: Bx):
    if not bx.initialisable:
        raise NoInitializers(f"{bx.name} has no initializers")


def _require_domains(bx: Bx, fields=("state_domain", "dom_a", "dom_b")):
    """Refuse a bx without the state and view domains its laws quantify
    over (or without those of ``fields``)."""
    missing = [f for f in fields if getattr(bx, f) is None]
    if missing:
        raise UnobservableEffect(f"{bx.name} declares no {', '.join(missing)}")


def _side_laws(bx: Bx):
    """The get/set laws of each side (``stateful.get_set_laws``): left over
    ``a``, ``a2``, right over ``b``, ``b2``."""
    _require_domains(bx)
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
        pointwise(
            "get_l-get_r", [], bx.state_domain,
            lambda e: bx.get_l.bind(
                lambda a: bx.get_r.map(
                    lambda b: (a, b)
                )
            ),
            lambda e: bx.get_r.bind(
                lambda b: bx.get_l.map(
                    lambda a: (a, b)
                )
            ),
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
    """``read_l``/``read_r`` map a state to its view (None when the bx is
    opaque); ``opaque_states`` are the states where a get is not a pure
    query."""

    transparent: bool
    read_l: Optional[Callable]
    read_r: Optional[Callable]
    opaque_states: tuple


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
    if opaque:
        return TransparencyAnalysis(False, None, None, tuple(opaque))
    states = bx.state_domain
    return TransparencyAnalysis(
        True,
        _read_map(fam, bx.get_l, bx.dom_a, states, tuple(read_l)),
        _read_map(fam, bx.get_r, bx.dom_b, states, tuple(read_r)),
        (),
    )


def _read_map(fam, getter, dom, states: FiniteDomain, views):
    """The read map of a transparent side: the view at each state of the
    domain ``states`` is the one at its position there, so a state is
    found by ``==``, never by repr.  A state outside the domain still
    resolves, as long as the get stays a pure query there; its view is
    kept in a memo, so each such state is read from the get once."""
    position = states.position
    outside, memo = Positions(), []

    def read(s):
        at = position(s)
        if at is not None:
            return views[at]
        at = outside.find(s)
        if at is None:
            fresh = _extract_pure(fam, getter, s, dom)
            if fresh is None:
                raise UnobservableEffect(f"get is not a pure query at state {s!r}")
            at = outside.add(s)
            memo.append(fresh[0])
        return memo[at]

    return read


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
    _require_domains(bx, ("state_domain",))
    pairs = Positions()
    probe = bx.get_l.bind(
        lambda a: bx.get_r.map(
            lambda b: (a, b)
        )
    )
    for s in bx.state_domain:
        for result in bx.effect.outcomes_of(probe.run(s)):
            pairs.add(result[0])
    return tuple(pairs.values)


def stability_laws(bx: Bx):
    """Every consistent pair survives its two sets, in either order: both
    sides begin with the two sets, then get a view or return it."""
    _require_domains(bx)
    pairs = consistent_pairs(bx)
    fam = bx.effect
    get_l_after, get_r_after = then_cont(bx.get_l), then_cont(bx.get_r)
    return [
        pointwise(
            "stable-set_l-first", [("p", pairs)], bx.state_domain,
            lambda e: get_l_after,
            lambda e: unit_cont(fam, e["p"][0]),
            first=lambda e: bx.set_l(e["p"][0]).then(bx.set_r(e["p"][1])),
        ),
        pointwise(
            "stable-set_r-first", [("p", pairs)], bx.state_domain,
            lambda e: get_r_after,
            lambda e: unit_cont(fam, e["p"][1]),
            first=lambda e: bx.set_r(e["p"][1]).then(bx.set_l(e["p"][0])),
        ),
    ]


# ---------------------------------------------------------------------------
# initialization


def _init_law(bx: Bx, side, var):
    """Initialising from the left view then getting it returns that view;
    named for ``side``, quantified over ``var``."""
    fam = bx.effect
    return Law(
        f"init_{side}-get_{side}",
        [(var, bx.dom_a)],
        lambda e: fam.bind(bx.init_l(e[var]), (
            lambda s: bx.get_l.run(s)
        )),
        lambda e: fam.bind(bx.init_l(e[var]), (
            lambda s: fam.unit((e[var], s))
        )),
    )


def init_laws(bx: Bx):
    """The left initializer law, and the right one as the dual's left; an
    ``initialisable`` bx has them."""
    require_initialisable(bx)
    _require_domains(bx)
    return [_init_law(bx, "l", "a"), _init_law(dual(bx), "r", "b")]


# ---------------------------------------------------------------------------
# spans of lenses


def span_bx(left: Lens, right: Lens, state_domain: Optional[FiniteDomain],
            dom_a: Optional[FiniteDomain], dom_b: Optional[FiniteDomain],
            fam: EffectFamily, name: str) -> Bx:
    """The bx at ``fam`` of a span of two lenses out of the hidden state: each
    get is its leg's ``view`` and each set its leg's ``update``.  The bx is
    initialisable when both legs have a ``create``, and it keeps its legs
    (see ``legs_of``).

    A leg at the identity effect is pure: its new state is returned at once.
    A leg at ``fam`` is monadic: a set binds the effect value of its update,
    and its ``create`` is the initialiser as it is.  The combinators of
    transparent bx (``pair_bx``, ``sum_bx``, ``list_ibx``, ``compose``,
    ``signal_bx``) are spans of monadic legs made from their components'
    legs.  A leg at any other effect raises ``ValueError``."""
    get_l, get_r = st_gets(fam, left.view), st_gets(fam, right.view)
    set_l, init_l = _leg(left, fam, name)
    set_r, init_r = _leg(right, fam, name)
    if left.create is None or right.create is None:
        init_l = init_r = None
    return Bx(
        name=name,
        effect=fam,
        get_l=get_l,
        set_l=set_l,
        get_r=get_r,
        set_r=set_r,
        state_domain=state_domain,
        dom_a=dom_a,
        dom_b=dom_b,
        init_l=init_l,
        init_r=init_r,
        legs=((left, (get_l, set_l, init_l)), (right, (get_r, set_r, init_r))),
    )


def _leg(leg: Lens, fam: EffectFamily, name: str):
    """The set and the initialiser of one leg of ``span_bx``; each set is a
    single closure, and the inner lambdas are on lines of their own, as in
    ``Stateful.bind``."""
    bind, unit, update, create = fam.bind, fam.unit, leg.update, leg.create
    if leg.effect.name == "identity":
        def set_(v):
            return Stateful(fam, (
                lambda s: unit(((), update(s, v)))
            ))

        return set_, lambda v: unit(create(v))
    if not same_family(leg.effect, fam):
        raise ValueError(f"{name}: a leg at effect {leg.effect.name} is neither pure "
                         f"nor at the bx's effect {fam.name}")

    def done(s1):
        return unit(((), s1))

    def set_(v):
        return Stateful(fam, (
            lambda s: bind(update(s, v), done)
        ))

    return set_, create


def legs_of(bx: Bx) -> tuple:
    """The left and right legs of ``bx`` at its effect: lenses out of its
    state whose views are its gets' views and whose updates and creates are
    its sets and initializers.

    A span's legs are those ``span_bx`` built it from (a pure leg lifted
    with ``lift_lens``), as long as its six operations are still the ones
    built from them; a ``replace`` of an operation leaves a bx without
    legs (the six are compared as a tuple, so by identity first).  A bx
    without legs gets legs whose views are the read maps of
    ``analyze_transparency`` and whose updates run its sets, and an opaque
    one is refused with ``NotTransparent``."""
    fam = bx.effect
    sides = ((bx.get_l, bx.set_l, bx.init_l), (bx.get_r, bx.set_r, bx.init_r))
    if bx.legs is not None and tuple(ops for _leg, ops in bx.legs) == sides:
        return tuple(leg if same_family(leg.effect, fam) else lift_lens(fam, leg)
                     for leg, _ops in bx.legs)
    analysis = analyze_transparency(bx)
    if not analysis.transparent:
        raise NotTransparent(bx.name)
    return tuple(_set_leg(fam, read, set_, init) for read, (_get, set_, init)
                 in zip((analysis.read_l, analysis.read_r), sides))


def _set_leg(fam, read, set_, init) -> Lens:
    """The leg at ``fam`` of one side of a bx without legs: its view is the
    side's read map, its update runs the side's set."""

    def update(s, v):
        return st_exec(set_(v), s)

    return Lens(view=read, update=update, create=init, effect=fam)


def lens_to_bx(l: Lens, source_domain: FiniteDomain, view_domain: FiniteDomain,
               fam: Optional[EffectFamily] = None, name: str = "lens") -> Bx:
    """Simulate a lens at the identity effect as a bx at ``fam`` (the identity
    by default): the span of the identity lens and ``l``, so the hidden state
    is the source itself, the left view is the whole source and the right
    view is the lens view.  The bx is initialisable exactly when the lens has
    a ``create``.  ``identity_bx``, ``iso_bx`` and ``const_bx`` are such bx,
    each of a one-line lens."""
    require_identity(l.effect, "lens_to_bx")
    return span_bx(identity_lens(), l, source_domain, source_domain, view_domain,
                   fam or identity_family(), name)
