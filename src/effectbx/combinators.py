"""Standard bx-building combinators: constants, projections, pairing, sums,
retentive lists, and isomorphism-derived bx."""

from __future__ import annotations

from dataclasses import replace

from .bx import Bx, dual, lens_to_bx, require_initialisable, span_bx
from .compose import _require_same_effect, _require_transparent
from .effects import EffectFamily, Just, NOTHING, _Tagged
from .errors import EffectbxError
from .lawcheck import FiniteDomain, tuples_up_to
from .lenses import Lens, fst_lens, snd_lens
from .stateful import st_exec



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


def pair_bx(bx1: Bx, bx2: Bx) -> Bx:
    """Componentwise pairing over the product state space: the span of two
    monadic lenses out of the pair of component states.

    Both components must be transparent and at one effect.  A get returns
    the pair of the components' views, found by their read maps, so at a
    state outside the declared domain it raises ``UnobservableEffect`` where
    a component's get is not a pure query.  A set runs the left component's
    set at ``s[0]`` before the right component's at ``s[1]``, through the
    family's ``bind``, and returns the pair of the new states; this ordering
    of the sets' effects is part of the combinator's contract for
    non-commutative effect families.  It is the widening of each component
    through ``left`` and ``right`` (``left(s1).then(right(s2))``) without
    building the widenings; tests keep that form as the reference.  The
    pair is initialisable when both components are.
    """
    a1, a2 = _require_transparent(bx1), _require_transparent(bx2)
    _require_same_effect(bx1, bx2)
    fam = bx1.effect
    bind, unit = fam.bind, fam.unit

    # the left leg of components c1, c2 (their duals give the right leg);
    # each continuation is a def of its own, as in Stateful.bind
    def leg(c1, c2, read1, read2):
        set1, set2, init1, init2 = c1.set_l, c2.set_l, c1.init_l, c2.init_l

        def update(s, v):
            s2 = s[1]

            def after_first(p1):
                t1 = p1[1]

                def after_second(p2):
                    return unit((t1, p2[1]))

                return bind(set2(v[1]).run(s2), after_second)

            return bind(set1(v[0]).run(s[0]), after_first)

        def create(v):
            return bind(init1(v[0]), lambda s1: fam.map(init2(v[1]), (
                lambda s2: (s1, s2)
            )))

        return Lens(view=lambda s: (read1(s[0]), read2(s[1])), update=update,
                    create=None if init1 is None or init2 is None else create, effect=fam)

    return span_bx(
        leg(bx1, bx2, a1.read_l, a2.read_l),
        leg(dual(bx1), dual(bx2), a1.read_r, a2.read_r),
        _product_domain(f"{bx1.name}x{bx2.name}", bx1.state_domain, bx2.state_domain),
        _product_domain("a1xa2", bx1.dom_a, bx2.dom_a),
        _product_domain("b1xb2", bx1.dom_b, bx2.dom_b),
        fam, f"pair({bx1.name},{bx2.name})",
    )


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
    components must be transparent and at one effect, and the sum is the
    span of two monadic lenses out of that state: a get reads the live
    component's read map (outside the declared states it raises
    ``UnobservableEffect`` where that component's get is not a pure query),
    and a set runs the set of the component its value is tagged for.  The
    sum is initialisable when both components are; initialization populates
    only the active slot, and the other holds an explicit uninitialized
    marker whose observation is an error.
    """
    a1, a2 = _require_transparent(bx1), _require_transparent(bx2)
    _require_same_effect(bx1, bx2)
    fam = bx1.effect

    # the left leg of components c1, c2 (their duals give the right leg)
    def leg(c1, c2, read1, read2):
        def view(state):
            flag, s1, s2 = state
            if (s1 if flag else s2) is UNINIT:
                raise EffectbxError("sum: reading an uninitialized component slot")
            return Left(read1(s1)) if flag else Right(read2(s2))

        def update(state, v):
            _flag, s1, s2 = state
            if isinstance(v, Left):
                return fam.bind(c1.set_l(v.value).run(s1), lambda p: fam.unit((True, p[1], s2)))
            return fam.bind(c2.set_l(v.value).run(s2), lambda p: fam.unit((False, s1, p[1])))

        def create(v):
            if isinstance(v, Left):
                return fam.map(c1.init_l(v.value), lambda s1: (True, s1, UNINIT))
            return fam.map(c2.init_l(v.value), lambda s2: (False, UNINIT, s2))

        return Lens(view=view, update=update, effect=fam,
                    create=None if c1.init_l is None or c2.init_l is None else create)

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
        leg(bx1, bx2, a1.read_l, a2.read_l),
        leg(dual(bx1), dual(bx2), a1.read_r, a2.read_r),
        states,
        either_domain(bx1.dom_a, bx2.dom_a),
        either_domain(bx1.dom_b, bx2.dom_b),
        fam, f"sum({bx1.name},{bx2.name})",
    )


# ---------------------------------------------------------------------------
# retentive lists


def list_ibx(bx: Bx, max_len: int = 2) -> Bx:
    """Lift an initialisable element bx to lists (represented as tuples);
    a bx without initializers is refused with ``NoInitializers``.

    Retentive: shortening a list keeps the surplus element states around so a
    later lengthening restores them; lengthening past the stored states calls
    the element initializer for the new elements.  The state is (count,
    states) with 0 <= count <= len(states); a negative count is rejected at
    construction, and declared domains cover lists up to ``max_len``.  The
    bx is the span of two monadic lenses out of that state: a get reads the
    element's read map at each counted state (outside the declared states
    it raises ``UnobservableEffect`` where the element's get is not a pure
    query), and a set runs the element's set on each stored state in turn.
    """
    if max_len < 0:
        raise ValueError("list_ibx: max_len must be non-negative")
    require_initialisable(bx)
    analysis = _require_transparent(bx)
    fam = bx.effect

    def sets(set_op, init_op, xs, cs):
        if not xs:
            return fam.unit(tuple(cs))
        if not cs:
            return fam.mapm(init_op, xs)
        return fam.bind(
            st_exec(set_op(xs[0]), cs[0]),
            lambda c1: fam.map(
                sets(set_op, init_op, xs[1:], cs[1:]),
                lambda rest: (c1,) + tuple(rest),
            ),
        )

    # the left leg of element ``c`` (its dual gives the right leg)
    def leg(c, read):
        def view(state):
            n, cs = state
            if n < 0 or n > len(cs):
                raise EffectbxError(f"list state count {n} out of range")
            return tuple(map(read, cs[:n]))

        def update(state, xs):
            return fam.map(sets(c.set_l, c.init_l, tuple(xs), state[1]), (
                lambda cs1: (len(xs), tuple(cs1))
            ))

        def create(xs):
            return fam.map(fam.mapm(c.init_l, tuple(xs)), (
                lambda cs: (len(xs), tuple(cs))
            ))

        return Lens(view=view, update=update, create=create, effect=fam)

    element_states = tuples_up_to(bx.state_domain, max_len)
    states = FiniteDomain(
        f"list-{bx.name}",
        tuple((n, cs) for cs in element_states for n in range(len(cs) + 1)),
    )
    return span_bx(
        leg(bx, analysis.read_l),
        leg(dual(bx), analysis.read_r),
        states,
        FiniteDomain("lists-a", tuples_up_to(bx.dom_a, max_len)),
        FiniteDomain("lists-b", tuples_up_to(bx.dom_b, max_len)),
        fam, f"list({bx.name})",
    )


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
