"""Standard bx-building combinators: constants, projections, pairing, sums,
retentive lists, and isomorphism-derived bx.  Pairing, sums and lists are
spans of lenses made from their components' legs."""

from __future__ import annotations

from dataclasses import replace

from .bx import Bx, _require_domains, dual, legs_of, lens_to_bx, require_initialisable, span_bx
from .compose import _require_same_effect
from .effects import EffectFamily, Just, NOTHING, _Tagged
from .errors import EffectbxError
from .lawcheck import FiniteDomain, tuples_up_to
from .lenses import Lens, fst_lens, snd_lens


class Left(_Tagged):
    """The left injection of a sum value."""

    __slots__ = ()


class Right(_Tagged):
    """The right injection of a sum value."""

    __slots__ = ()


class _Uninit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "UNINIT"


#: Marker for the inactive component slot of a sum state; reading it is an error.
UNINIT = _Uninit()


def _unit_domain():
    return FiniteDomain("unit", ((),))


def const_bx(fam: EffectFamily, a, dom: FiniteDomain) -> Bx:
    """Relates the unit type to values of ``dom``; the hidden state is the
    current right-hand value, seeded with ``a``: the dual of the bx of the
    lens from ``dom`` onto the unit."""
    to_unit = Lens(
        view=lambda _s: (),
        update=lambda s, _u: s,
        create=lambda _u: a,
    )
    return replace(dual(lens_to_bx(to_unit, dom, _unit_domain(), fam)),
                   name=f"const({a!r})")


def _product_domain(name, d1: FiniteDomain, d2: FiniteDomain) -> FiniteDomain:
    return FiniteDomain(name, tuple((x, y) for x in d1 for y in d2))


def fst_ibx(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain,
            default_b) -> Bx:
    """Pair state against its first component; ``default_b`` fills the hidden
    slot when initializing from the projection side."""
    pairs = _product_domain("pairs", dom_a, dom_b)
    return lens_to_bx(fst_lens(default_b), pairs, dom_a, fam, name="fst")


def snd_ibx(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain,
            default_a) -> Bx:
    pairs = _product_domain("pairs", dom_a, dom_b)
    return lens_to_bx(snd_lens(default_a), pairs, dom_b, fam, name="snd")


def _legs_of_both(bx1: Bx, bx2: Bx):
    """The legs ``l1, r1, l2, r2`` of two bx with declared domains at one
    effect."""
    _require_domains(bx1)
    _require_domains(bx2)
    legs = (*legs_of(bx1), *legs_of(bx2))
    _require_same_effect(bx1, bx2)
    return legs


def pair_bx(bx1: Bx, bx2: Bx) -> Bx:
    """Componentwise pairing over the product state space: the span of the
    products of the components' left legs and of their right legs (see
    ``legs_of``).

    Both components must be transparent, declare their domains and be at
    one effect.  A get returns the pair of the components' views.  A set
    runs the left component's update at ``s[0]`` before the right
    component's at ``s[1]``, through the family's ``bind``, and returns the
    pair of the new states; this ordering of the sets' effects is part of
    the combinator's contract for non-commutative effect families.  It is
    the widening of each component through ``left`` and ``right``
    (``left(s1).then(right(s2))``) without building the widenings; tests
    keep that form as the reference.  The pair is initialisable when both
    components are.
    """
    l1, r1, l2, r2 = _legs_of_both(bx1, bx2)
    fam = bx1.effect
    return span_bx(
        _pair_lens(fam, l1, l2),
        _pair_lens(fam, r1, r2),
        _product_domain(f"{bx1.name}x{bx2.name}", bx1.state_domain, bx2.state_domain),
        _product_domain("a1xa2", bx1.dom_a, bx2.dom_a),
        _product_domain("b1xb2", bx1.dom_b, bx2.dom_b),
        fam, f"pair({bx1.name},{bx2.name})",
    )


def _pair_lens(fam: EffectFamily, l1: Lens, l2: Lens) -> Lens:
    """The product of two lenses at ``fam``: views, updates and creates
    componentwise, the first lens's effect before the second's."""
    view1, update1, create1 = l1.view, l1.update, l1.create
    view2, update2, create2 = l2.view, l2.update, l2.create

    def update(s, v):
        s2, v2 = s[1], v[1]

        def second(t1):
            return fam.map(update2(s2, v2), (
                lambda t2: (t1, t2)
            ))

        return fam.bind(update1(s[0], v[0]), second)

    def create(v):
        return fam.bind(create1(v[0]), lambda t1: fam.map(create2(v[1]), (
            lambda t2: (t1, t2)
        )))

    return Lens(view=lambda s: (view1(s[0]), view2(s[1])), update=update,
                create=None if create1 is None or create2 is None else create, effect=fam)


# ---------------------------------------------------------------------------
# sums


def either_domain(dom_a: FiniteDomain, dom_b: FiniteDomain) -> FiniteDomain:
    return FiniteDomain(
        f"either-{dom_a.name}-{dom_b.name}",
        tuple(Left(x) for x in dom_a) + tuple(Right(y) for y in dom_b),
    )


def _injection_bx(fam, dom_x, dom_y, default_x, tag_x, tag_y, views, name):
    """Inject ``dom_x`` into the sum ``views`` of ``tag_x``- and
    ``tag_y``-tagged values; the old x value is retained while the sum side
    holds a ``tag_y`` value, and ``default_x`` fills it when initializing
    from one.  The state is (x, optional y), and the bx is the span of its
    two lenses."""
    states = FiniteDomain(
        f"{name}-states",
        tuple((x, NOTHING) for x in dom_x)
        + tuple((x, Just(y)) for x in dom_x for y in dom_y),
    )

    def view(s):
        x, my = s
        return tag_y(my.value) if isinstance(my, Just) else tag_x(x)

    def update(s, v):
        if isinstance(v, tag_x):
            return (v.value, NOTHING)
        return (s[0], Just(v.value))

    to_x = Lens(
        view=lambda s: s[0],
        update=lambda s, x: (x, s[1]),
        create=lambda x: (x, NOTHING),
    )
    to_sum = Lens(
        view=view,
        update=update,
        create=lambda v: update((default_x, NOTHING), v),
    )
    return span_bx(to_x, to_sum, states, dom_x, views, fam, name)


def inl_bx(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain,
           default_a) -> Bx:
    """Inject the left type into a sum; the old left value is retained while
    the sum side holds a right value."""
    return _injection_bx(fam, dom_a, dom_b, default_a, Left, Right,
                         either_domain(dom_a, dom_b), "inl")


def inr_bx(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain,
           default_b) -> Bx:
    """Mirror image of inl_bx: relates the right type to the sum."""
    return _injection_bx(fam, dom_b, dom_a, default_b, Right, Left,
                         either_domain(dom_a, dom_b), "inr")


def sum_bx(bx1: Bx, bx2: Bx) -> Bx:
    """Tagged choice between two bx; the inactive component's state is
    retained across switches so it can be restored.

    State is (flag, s1, s2) with flag picking the live component.  Both
    components must be transparent, declare their domains and be at one
    effect, and the sum is the span of the sums of their left legs and of
    their right legs (see ``legs_of``): a get is the live component's view,
    and a set runs the update of the component its value is tagged for.
    The sum is initialisable when both components are; initialization
    populates only the active slot, and the other holds an explicit
    uninitialized marker whose observation is an error.
    """
    l1, r1, l2, r2 = _legs_of_both(bx1, bx2)
    fam = bx1.effect
    states = FiniteDomain(
        f"sum-{bx1.name}-{bx2.name}",
        tuple(
            (flag, s1, s2)
            for flag in (True, False)
            for s1 in bx1.state_domain
            for s2 in bx2.state_domain
        ),
    )
    return span_bx(
        _sum_lens(fam, l1, l2),
        _sum_lens(fam, r1, r2),
        states,
        either_domain(bx1.dom_a, bx2.dom_a),
        either_domain(bx1.dom_b, bx2.dom_b),
        fam, f"sum({bx1.name},{bx2.name})",
    )


def _sum_lens(fam: EffectFamily, l1: Lens, l2: Lens) -> Lens:
    """The sum of two lenses at ``fam`` out of (flag, s1, s2): a ``Left``
    view is ``l1``'s at ``s1``, a ``Right`` one ``l2``'s at ``s2``."""

    def view(state):
        flag, s1, s2 = state
        if (s1 if flag else s2) is UNINIT:
            raise EffectbxError("sum: reading an uninitialized component slot")
        return Left(l1.view(s1)) if flag else Right(l2.view(s2))

    def update(state, v):
        _flag, s1, s2 = state
        if isinstance(v, Left):
            return fam.map(l1.update(s1, v.value), lambda t1: (True, t1, s2))
        return fam.map(l2.update(s2, v.value), lambda t2: (False, s1, t2))

    def create(v):
        if isinstance(v, Left):
            return fam.map(l1.create(v.value), lambda s1: (True, s1, UNINIT))
        return fam.map(l2.create(v.value), lambda s2: (False, UNINIT, s2))

    return Lens(view=view, update=update, effect=fam,
                create=None if l1.create is None or l2.create is None else create)


# ---------------------------------------------------------------------------
# retentive lists


def list_ibx(bx: Bx, max_len: int = 2) -> Bx:
    """Lift an initialisable element bx to lists (represented as tuples);
    a bx without initializers is refused with ``NoInitializers``, one
    without declared domains with ``UnobservableEffect``.

    Retentive: shortening a list keeps the surplus element states around so a
    later lengthening restores them; lengthening past the stored states calls
    the element initializer for the new elements.  The state is (count,
    states) with 0 <= count <= len(states); a negative count is rejected at
    construction, and declared domains cover lists up to ``max_len``.  The
    bx is the span of the list maps of the element's two legs (see
    ``legs_of``): a get is the element's view at each counted state, and a
    set runs the element's update on each stored state in turn.
    """
    if max_len < 0:
        raise ValueError("list_ibx: max_len must be non-negative")
    require_initialisable(bx)
    _require_domains(bx)
    left_leg, right_leg = legs_of(bx)
    element_states = tuples_up_to(bx.state_domain, max_len)
    states = FiniteDomain(
        f"list-{bx.name}",
        tuple((n, cs) for cs in element_states for n in range(len(cs) + 1)),
    )
    return span_bx(
        _list_lens(bx.effect, left_leg),
        _list_lens(bx.effect, right_leg),
        states,
        FiniteDomain("lists-a", tuples_up_to(bx.dom_a, max_len)),
        FiniteDomain("lists-b", tuples_up_to(bx.dom_b, max_len)),
        bx.effect, f"list({bx.name})",
    )


def _list_lens(fam: EffectFamily, leg: Lens) -> Lens:
    """The list map of ``leg`` at ``fam`` out of (count, states): the views
    of the counted states; an update updates the stored states in turn and
    creates the ones past them."""
    view1, update1, create1 = leg.view, leg.update, leg.create

    def updates(xs, cs):
        if not xs:
            return fam.unit(tuple(cs))
        if not cs:
            return fam.mapm(create1, xs)
        return fam.bind(
            update1(cs[0], xs[0]),
            lambda c1: fam.map(
                updates(xs[1:], cs[1:]),
                lambda rest: (c1,) + tuple(rest),
            ),
        )

    def view(state):
        n, cs = state
        if n < 0 or n > len(cs):
            raise EffectbxError(f"list state count {n} out of range")
        return tuple(map(view1, cs[:n]))

    def update(state, xs):
        return fam.map(updates(tuple(xs), state[1]), (
            lambda cs1: (len(xs), tuple(cs1))
        ))

    def create(xs):
        return fam.map(fam.mapm(create1, tuple(xs)), (
            lambda cs: (len(xs), tuple(cs))
        ))

    return Lens(view=view, update=update, create=create, effect=fam)


# ---------------------------------------------------------------------------
# isomorphisms


def iso_bx(fam: EffectFamily, forward, backward, dom_a: FiniteDomain,
           dom_b: FiniteDomain, name: str = "iso") -> Bx:
    """Lift a bijection between the view types to a bx with state A: the bx
    of the lens whose view is ``forward`` and whose update and create are
    ``backward``."""
    return lens_to_bx(Lens(forward, lambda _s, b: backward(b), backward),
                      dom_a, dom_b, fam, name=name)


def swap_bx(fam: EffectFamily, dom_x: FiniteDomain, dom_y: FiniteDomain) -> Bx:
    return iso_bx(
        fam,
        lambda p: (p[1], p[0]),
        lambda p: (p[1], p[0]),
        _product_domain("xy", dom_x, dom_y),
        _product_domain("yx", dom_y, dom_x),
        name="swap",
    )


def assoc_bx(fam: EffectFamily, dom_x, dom_y, dom_z) -> Bx:
    lhs = FiniteDomain(
        "assoc-l", tuple(((x, y), z) for x in dom_x for y in dom_y for z in dom_z)
    )
    rhs = FiniteDomain(
        "assoc-r", tuple((x, (y, z)) for x in dom_x for y in dom_y for z in dom_z)
    )
    return iso_bx(
        fam,
        lambda s: (s[0][0], (s[0][1], s[1])),
        lambda t: ((t[0], t[1][0]), t[1][1]),
        lhs,
        rhs,
        name="assoc",
    )


def unitl_bx(fam: EffectFamily, dom: FiniteDomain) -> Bx:
    rhs = FiniteDomain("unitl", tuple(((), a) for a in dom))
    return iso_bx(
        fam,
        lambda a: ((), a),
        lambda p: p[1],
        dom,
        rhs,
        name="unitl",
    )


def unitr_bx(fam: EffectFamily, dom: FiniteDomain) -> Bx:
    rhs = FiniteDomain("unitr", tuple((a, ()) for a in dom))
    return iso_bx(
        fam,
        lambda a: (a, ()),
        lambda p: p[0],
        dom,
        rhs,
        name="unitr",
    )
