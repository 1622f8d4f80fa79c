"""Composition of transparent bx over the join state space, the identity bx,
and equivalence checking via state bijections."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

from .bx import (
    Bx,
    _require_domains,
    dual,
    legs_of,
    lens_to_bx,
    require_initialisable,
    span_bx,
)
from .effects import EffectFamily, require_same_family
from .errors import EffectbxError, MiddleTypeMismatch, NotBijective
from .lawcheck import FiniteDomain, Law, Positions, pointwise
from .lenses import Lens, identity_lens, theta
from .stateful import Stateful, st_eval, st_exec


def identity_bx(fam: EffectFamily, dom: FiniteDomain, name: str = "identity") -> Bx:
    """Both views are the state itself: the bx of the identity lens;
    transparent, overwritable and initialisable."""
    return lens_to_bx(identity_lens(), dom, dom, fam, name=name)


def _check_middle(bx1: Bx, bx2: Bx):
    """Refuse middle domains that do not hold the same elements: two carriers
    without duplicates do when the elements of both together are no more
    than either's."""
    if bx1.dom_b is None or bx2.dom_a is None:
        raise MiddleTypeMismatch("composition needs declared middle domains")
    left, right = bx1.dom_b.elements, bx2.dom_a.elements
    if len(Positions(left + right)) > min(len(left), len(right)):
        raise MiddleTypeMismatch(
            f"middle domains disagree: {bx1.name} right vs {bx2.name} left"
        )


def _join_states(bx1, bx2, r1: Lens, l2: Lens) -> FiniteDomain:
    """The pairs of component states whose shared middle views agree,
    materialized by filtering the product with the views of ``bx1``'s right
    leg ``r1`` and ``bx2``'s left leg ``l2``, each read once per state."""
    left = [(s1, r1.view(s1)) for s1 in bx1.state_domain]
    right = [(s2, l2.view(s2)) for s2 in bx2.state_domain]
    pairs = tuple((s1, s2) for s1, b1 in left for s2, b2 in right if b1 == b2)
    return FiniteDomain(f"{bx1.name};{bx2.name}-join", pairs)


def join_states_general(bx1: Bx, bx2: Bx) -> FiniteDomain:
    """Eval-based join predicate; meaningful for identity-effect bx only,
    where comparing the two get computations directly is decidable."""
    fam = bx1.effect
    if fam.name != "identity":
        raise EffectbxError("general join predicate requires the identity effect")
    pairs = tuple(
        (s1, s2)
        for s1 in bx1.state_domain
        for s2 in bx2.state_domain
        if fam.equal_values(st_eval(bx1.get_r, s1), st_eval(bx2.get_l, s2))
    )
    return FiniteDomain(f"{bx1.name};{bx2.name}-join", pairs)


def compose(bx1: Bx, bx2: Bx) -> Bx:
    """Sequential composition over the join state space: the pullback of
    ``bx1``'s right leg and ``bx2``'s left leg (see ``legs_of``), a span of
    two monadic lenses out of the pairs of component states.

    Both arguments must be transparent, have state domains and be at one
    effect.  A get is the view of its end's leg.  Setting one end updates
    the matching component's leg, reads the updated middle view through
    that component's other leg, and pushes it into the other component's
    leg; initialising is the same with the legs' creates.  The composite
    is initialisable when both components are.  ``_compose_by_theta`` is
    the reference formulation it agrees with pointwise on join states.
    """
    _check_middle(bx1, bx2)
    for bx in (bx1, bx2):
        _require_domains(bx, ("state_domain",))
    l1, r1 = legs_of(bx1)
    l2, r2 = legs_of(bx2)
    require_same_family(bx1.effect, bx2.effect, bx1.name, bx2.name, "bx combine")
    fam = bx1.effect
    return span_bx(
        _pushing_leg(fam, l1, r1, l2, 0), _pushing_leg(fam, r2, l2, r1, 1),
        _join_states(bx1, bx2, r1, l2), bx1.dom_a, bx2.dom_b, fam, f"{bx1.name};{bx2.name}",
    )


def _pushing_leg(fam: EffectFamily, lead: Lens, mid: Lens, follow: Lens, at: int) -> Lens:
    """The composite's leg at ``lead``'s end, whose component state is at
    index ``at`` of the pair state: its view is ``lead``'s.  An update or
    create goes through ``lead``, reads the new middle view through
    ``mid`` (the same component's other leg) and pushes it into ``follow``
    (the other component's leg facing the middle)."""

    def chained(first, push):
        def after(t):
            return fam.map(push(mid.view(t)), (
                lambda u: (t, u) if at == 0 else (u, t)
            ))

        return fam.bind(first, after)

    def update(state, v):
        other = state[1 - at]
        return chained(lead.update(state[at], v), (
            lambda w: follow.update(other, w)
        ))

    def create(v):
        return chained(lead.create(v), follow.create)

    return Lens(view=lambda state: lead.view(state[at]), update=update, effect=fam,
                create=None if lead.create is None or follow.create is None else create)


def compose_init(bx1: Bx, bx2: Bx) -> Bx:
    require_initialisable(bx1)
    require_initialisable(bx2)
    return compose(bx1, bx2)


def _theta_lens(fam: EffectFamily, get: Stateful, set_, at: int) -> Lens:
    """Lens at the bx's effect focusing component ``at`` of the pair state;
    its update reads the changed middle view with ``get`` and pushes it
    into the other component with ``set_``."""

    def update(state, new):
        other = state[1 - at]
        return fam.bind(st_eval(get, new), lambda b: fam.map(st_exec(set_(b), other), (
            lambda other_new: (new, other_new) if at == 0 else (other_new, new)
        )))

    return Lens(view=lambda state: state[at], update=update, effect=fam)


def _compose_by_theta(bx1: Bx, bx2: Bx) -> Bx:
    """The reference formulation of ``compose``: the composite's four
    operations widen the components' with ``theta`` through lenses at the
    bx's effect onto the pair state."""
    phi = partial(theta, _theta_lens(bx1.effect, bx1.get_r, bx2.set_l, 0))
    psi = partial(theta, _theta_lens(bx1.effect, bx2.get_l, bx1.set_r, 1))
    return replace(
        compose(bx1, bx2),
        get_l=phi(bx1.get_l),
        set_l=lambda a: phi(bx1.set_l(a)),
        get_r=psi(bx2.get_r),
        set_r=lambda c: psi(bx2.set_r(c)),
    )


# ---------------------------------------------------------------------------
# equivalence via state bijections


@dataclass(frozen=True)
class StateBijection:
    forward: Callable
    backward: Callable


def _check_bijection(h: StateBijection, dom1: FiniteDomain, dom2: FiniteDomain):
    images = set()  # the positions in dom2 of the forward images so far
    for s in dom1:
        t = h.forward(s)
        at = dom2.position(t)
        if at is None:
            raise NotBijective(f"forward image {t!r} outside codomain")
        if at in images:
            raise NotBijective(f"forward not injective at {s!r}")
        images.add(at)
        if not h.backward(t) == s:
            raise NotBijective(f"backward(forward({s!r})) != {s!r}")
    if len(dom1) != len(dom2):
        raise NotBijective("forward not onto the codomain")


def iota(h: StateBijection, fam: EffectFamily, m: Stateful) -> Stateful:
    """Transport a computation along a state bijection."""

    def forward(pair):
        return (pair[0], h.forward(pair[1]))

    return Stateful(fam, lambda t: fam.map(m.run(h.backward(t)), forward))


def _iota_laws(bx1: Bx, bx2: Bx, h: StateBijection, side, var):
    """The left-side equivalence laws, named for ``side`` and quantified over
    ``var``: the two operations transported along ``h``, and the
    initializer."""
    fam = bx1.effect
    return (
        pointwise(
            f"iota-get_{side}", [], bx2.state_domain,
            lambda e: iota(h, fam, bx1.get_l),
            lambda e: bx2.get_l,
        ),
        pointwise(
            f"iota-set_{side}", [(var, bx1.dom_a)], bx2.state_domain,
            lambda e: iota(h, fam, bx1.set_l(e[var])),
            lambda e: bx2.set_l(e[var]),
        ),
        Law(
            f"h-init_{side}",
            [(var, bx1.dom_a)],
            lambda e: fam.map(bx1.init_l(e[var]), h.forward),
            lambda e: bx2.init_l(e[var]),
        ),
    )


def equivalence_laws(bx1: Bx, other: Bx, h: StateBijection):
    """Transporting bx1's operations along ``h`` yields those of ``other``
    (at one effect), including the initializers when both are
    initialisable.  The right-side laws are the left-side laws of the two
    duals."""
    require_same_family(bx1.effect, other.effect, bx1.name, other.name, "bx combine")
    _check_bijection(h, bx1.state_domain, other.state_domain)
    get_l, set_l, init_l = _iota_laws(bx1, other, h, "l", "a")
    get_r, set_r, init_r = _iota_laws(dual(bx1), dual(other), h, "r", "b")
    laws = [get_l, set_l, get_r, set_r]
    if bx1.initialisable and other.initialisable:
        laws += [init_l, init_r]
    return laws


def left_identity_bijection(bx: Bx) -> StateBijection:
    """bx  ==>  identity ; bx, sending s to (view s, s) by its left leg."""
    read_l = legs_of(bx)[0].view
    return StateBijection(
        forward=lambda s: (read_l(s), s),
        backward=lambda pair: pair[1],
    )


def right_identity_bijection(bx: Bx) -> StateBijection:
    """bx  ==>  bx ; identity, sending s to (s, view s) by its right leg."""
    read_r = legs_of(bx)[1].view
    return StateBijection(
        forward=lambda s: (s, read_r(s)),
        backward=lambda pair: pair[0],
    )


def assoc_bijection() -> StateBijection:
    """((s1, s2), s3)  <->  (s1, (s2, s3)) for reassociating compositions."""
    return StateBijection(
        forward=lambda st: (st[0][0], (st[0][1], st[1])),
        backward=lambda st: ((st[0], st[1][0]), st[1][1]),
    )
