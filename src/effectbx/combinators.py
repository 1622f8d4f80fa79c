"""Standard bx-building combinators: constants, projections, pairing, sums,
retentive lists, and isomorphism-derived bx."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .bx import Bx, InitBx, lens_to_bx
from .compose import _require_transparent
from .effects import EffectFamily, Just, NOTHING
from .errors import EffectbxError
from .lawcheck import FiniteDomain, tuples_up_to
from .lenses import fst_lens, left, right, snd_lens
from .stateful import Stateful, st_eval, st_exec, st_get, st_gets, st_set, st_unit



@dataclass(frozen=True)
class Left:
    value: Any

    def __repr__(self):
        return f"Left({self.value!r})"


@dataclass(frozen=True)
class Right:
    value: Any

    def __repr__(self):
        return f"Right({self.value!r})"


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


def const_bx(fam: EffectFamily, a, dom: FiniteDomain, name: Optional[str] = None) -> InitBx:
    """Relates the unit type to values of ``dom``; the hidden state is the
    current right-hand value, seeded with ``a``."""
    return InitBx(
        name=name or f"const({a!r})",
        effect=fam,
        get_l=st_unit(fam, ()),
        set_l=lambda _u: st_unit(fam, ()),
        get_r=st_get(fam),
        set_r=lambda b: st_set(fam, b),
        state_domain=dom,
        dom_a=_unit_domain(),
        dom_b=dom,
        init_l=lambda _u: fam.unit(a),
        init_r=lambda b: fam.unit(b),
    )


def _product_domain(name, d1: FiniteDomain, d2: FiniteDomain) -> FiniteDomain:
    return FiniteDomain(name, tuple((x, y) for x in d1 for y in d2))


def fst_ibx(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain,
            default_b) -> InitBx:
    """Pair state against its first component; ``default_b`` fills the hidden
    slot when initializing from the projection side."""
    pairs = _product_domain("pairs", dom_a, dom_b)
    return lens_to_bx(fst_lens(default_b), pairs, dom_a, fam, name="fst")


def snd_ibx(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain,
            default_a) -> InitBx:
    pairs = _product_domain("pairs", dom_a, dom_b)
    return lens_to_bx(snd_lens(default_a), pairs, dom_b, fam, name="snd")


def pair_bx(bx1: Bx, bx2: Bx) -> Bx:
    """Componentwise pairing over the product state space.

    Both components must be transparent.  Effect ordering is fixed: the left
    component's operation always runs before the right component's, and this
    ordering is part of the combinator's contract for non-commutative effect
    families.
    """
    _require_transparent(bx1)
    _require_transparent(bx2)
    fam = bx1.effect
    paired = Bx(
        name=f"pair({bx1.name},{bx2.name})",
        effect=fam,
        get_l=left(bx1.get_l).bind(
            lambda a1: right(bx2.get_l).map(lambda a2: (a1, a2))
        ),
        set_l=lambda a: left(bx1.set_l(a[0])).then(right(bx2.set_l(a[1]))),
        get_r=left(bx1.get_r).bind(
            lambda b1: right(bx2.get_r).map(lambda b2: (b1, b2))
        ),
        set_r=lambda b: left(bx1.set_r(b[0])).then(right(bx2.set_r(b[1]))),
        state_domain=_product_domain(
            f"{bx1.name}x{bx2.name}", bx1.state_domain, bx2.state_domain
        ),
        dom_a=_product_domain("a1xa2", bx1.dom_a, bx2.dom_a),
        dom_b=_product_domain("b1xb2", bx1.dom_b, bx2.dom_b),
    )
    if isinstance(bx1, InitBx) and isinstance(bx2, InitBx):
        return paired.with_initializers(
            lambda a: fam.bind(
                bx1.init_l(a[0]),
                lambda s1: fam.map(bx2.init_l(a[1]), lambda s2: (s1, s2)),
            ),
            lambda b: fam.bind(
                bx1.init_r(b[0]),
                lambda s1: fam.map(bx2.init_r(b[1]), lambda s2: (s1, s2)),
            ),
        )
    return paired


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
    from one."""
    states = FiniteDomain(
        f"{name}-states",
        tuple((x, NOTHING) for x in dom_x)
        + tuple((x, Just(y)) for x in dom_x for y in dom_y),
    )

    def get_r_run(s):
        x, my = s
        view = tag_y(my.value) if isinstance(my, Just) else tag_x(x)
        return fam.unit((view, s))

    def set_r(v):
        if isinstance(v, tag_x):
            return st_set(fam, (v.value, NOTHING))
        return st_get(fam).bind(lambda s: st_set(fam, (s[0], Just(v.value))))

    def init_r(v):
        if isinstance(v, tag_x):
            return fam.unit((v.value, NOTHING))
        return fam.unit((default_x, Just(v.value)))

    return InitBx(
        name=name,
        effect=fam,
        get_l=st_gets(fam, lambda s: s[0]),
        set_l=lambda x: st_get(fam).bind(lambda s: st_set(fam, (x, s[1]))),
        get_r=Stateful(fam, get_r_run),
        set_r=set_r,
        state_domain=states,
        dom_a=dom_x,
        dom_b=views,
        init_l=lambda x: fam.unit((x, NOTHING)),
        init_r=init_r,
    )


def inl_bx(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain,
           default_a) -> InitBx:
    """Inject the left type into a sum; the old left value is retained while
    the sum side holds a right value."""
    return _injection_bx(fam, dom_a, dom_b, default_a, Left, Right,
                         either_domain(dom_a, dom_b), "inl")


def inr_bx(fam: EffectFamily, dom_a: FiniteDomain, dom_b: FiniteDomain,
           default_b) -> InitBx:
    """Mirror image of inl_bx: relates the right type to the sum."""
    return _injection_bx(fam, dom_b, dom_a, default_b, Right, Left,
                         either_domain(dom_a, dom_b), "inr")


def sum_bx(bx1: Bx, bx2: Bx) -> Bx:
    """Tagged choice between two bx; the inactive component's state is
    retained across switches so it can be restored.

    State is (flag, s1, s2) with flag picking the live component.  Both
    components must be transparent.  Initialization populates only the active
    slot; the other holds an explicit uninitialized marker whose observation
    is an error.
    """
    _require_transparent(bx1)
    _require_transparent(bx2)
    fam = bx1.effect

    def active(side_get, s):
        if s is UNINIT:
            raise EffectbxError("sum: reading an uninitialized component slot")
        return side_get.run(s)

    def get_side(get1, get2):
        def run(state):
            flag, s1, s2 = state
            if flag:
                return fam.bind(
                    active(get1, s1), lambda p: fam.unit((Left(p[0]), state))
                )
            return fam.bind(
                active(get2, s2), lambda p: fam.unit((Right(p[0]), state))
            )

        return Stateful(fam, run)

    def set_side(setter1, setter2):
        def set_op(v):
            def run(state):
                _flag, s1, s2 = state
                if isinstance(v, Left):
                    return fam.bind(
                        setter1(v.value).run(s1),
                        lambda p: fam.unit(((), (True, p[1], s2))),
                    )
                return fam.bind(
                    setter2(v.value).run(s2),
                    lambda p: fam.unit(((), (False, s1, p[1]))),
                )

            return Stateful(fam, run)

        return set_op

    states = FiniteDomain(
        f"sum-{bx1.name}-{bx2.name}",
        tuple(
            (flag, s1, s2)
            for flag in (True, False)
            for s1 in bx1.state_domain
            for s2 in bx2.state_domain
        ),
    )
    summed = Bx(
        name=f"sum({bx1.name},{bx2.name})",
        effect=fam,
        get_l=get_side(bx1.get_l, bx2.get_l),
        set_l=set_side(bx1.set_l, bx2.set_l),
        get_r=get_side(bx1.get_r, bx2.get_r),
        set_r=set_side(bx1.set_r, bx2.set_r),
        state_domain=states,
        dom_a=either_domain(bx1.dom_a, bx2.dom_a),
        dom_b=either_domain(bx1.dom_b, bx2.dom_b),
    )
    if isinstance(bx1, InitBx) and isinstance(bx2, InitBx):
        def init_side(init1, init2):
            def init(v):
                if isinstance(v, Left):
                    return fam.map(init1(v.value), lambda s1: (True, s1, UNINIT))
                return fam.map(init2(v.value), lambda s2: (False, UNINIT, s2))

            return init

        return summed.with_initializers(
            init_side(bx1.init_l, bx2.init_l), init_side(bx1.init_r, bx2.init_r)
        )
    return summed


# ---------------------------------------------------------------------------
# retentive lists


def list_ibx(bx: InitBx, max_len: int = 2) -> InitBx:
    """Lift an initialisable element bx to lists (represented as tuples).

    Retentive: shortening a list keeps the surplus element states around so a
    later lengthening restores them; lengthening past the stored states calls
    the element initializer for the new elements.  The state is (count,
    states) with 0 <= count <= len(states); a negative count is rejected at
    construction, and declared domains cover lists up to ``max_len``.
    """
    if max_len < 0:
        raise ValueError("list_ibx: max_len must be non-negative")
    _require_transparent(bx)
    fam = bx.effect

    def gets_list(side_get):
        def run(state):
            n, cs = state
            if n < 0 or n > len(cs):
                raise EffectbxError(f"list state count {n} out of range")
            return fam.map(
                fam.mapm(lambda c: st_eval(side_get, c), cs[:n]),
                lambda vs: (tuple(vs), state),
            )

        return Stateful(fam, run)

    def sets(set_op, init_op, xs, cs):
        if not xs:
            return fam.unit(tuple(cs))
        if not cs:
            return fam.mapm(init_op, xs)
        return fam.bind(
            set_op(xs[0], cs[0]),
            lambda c1: fam.map(
                sets(set_op, init_op, xs[1:], cs[1:]),
                lambda rest: (c1,) + tuple(rest),
            ),
        )

    def set_list(side_set, side_init):
        def set_op(xs):
            def run(state):
                _n, cs = state
                return fam.map(
                    sets(
                        lambda x, c: st_exec(side_set(x), c),
                        side_init,
                        tuple(xs),
                        cs,
                    ),
                    lambda cs1: ((), (len(xs), tuple(cs1))),
                )

            return Stateful(fam, run)

        return set_op

    def init_list(side_init):
        return lambda xs: fam.map(
            fam.mapm(side_init, tuple(xs)), lambda cs: (len(xs), tuple(cs))
        )

    element_states = tuples_up_to(bx.state_domain, max_len)
    states = FiniteDomain(
        f"list-{bx.name}",
        tuple((n, cs) for cs in element_states for n in range(len(cs) + 1)),
    )
    return InitBx(
        name=f"list({bx.name})",
        effect=fam,
        get_l=gets_list(bx.get_l),
        set_l=set_list(bx.set_l, bx.init_l),
        get_r=gets_list(bx.get_r),
        set_r=set_list(bx.set_r, bx.init_r),
        state_domain=states,
        dom_a=FiniteDomain("lists-a", tuples_up_to(bx.dom_a, max_len)),
        dom_b=FiniteDomain("lists-b", tuples_up_to(bx.dom_b, max_len)),
        init_l=init_list(bx.init_l),
        init_r=init_list(bx.init_r),
    )


# ---------------------------------------------------------------------------
# isomorphisms


def iso_bx(fam: EffectFamily, forward, backward, dom_a: FiniteDomain,
           dom_b: FiniteDomain, name: str = "iso") -> InitBx:
    """Lift a bijection between the view types to a bx with state A."""
    return InitBx(
        name=name,
        effect=fam,
        get_l=st_get(fam),
        set_l=lambda a: st_set(fam, a),
        get_r=st_gets(fam, forward),
        set_r=lambda b: st_set(fam, backward(b)),
        state_domain=dom_a,
        dom_a=dom_a,
        dom_b=dom_b,
        init_l=lambda a: fam.unit(a),
        init_r=lambda b: fam.unit(backward(b)),
    )


def swap_bx(fam: EffectFamily, dom_x: FiniteDomain, dom_y: FiniteDomain) -> InitBx:
    return iso_bx(
        fam,
        lambda p: (p[1], p[0]),
        lambda p: (p[1], p[0]),
        _product_domain("xy", dom_x, dom_y),
        _product_domain("yx", dom_y, dom_x),
        name="swap",
    )


def assoc_bx(fam: EffectFamily, dom_x, dom_y, dom_z) -> InitBx:
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


def unitl_bx(fam: EffectFamily, dom: FiniteDomain) -> InitBx:
    rhs = FiniteDomain("unitl", tuple(((), a) for a in dom))
    return iso_bx(fam, lambda a: ((), a), lambda p: p[1], dom, rhs, name="unitl")


def unitr_bx(fam: EffectFamily, dom: FiniteDomain) -> InitBx:
    rhs = FiniteDomain("unitr", tuple((a, ()) for a in dom))
    return iso_bx(fam, lambda a: (a, ()), lambda p: p[0], dom, rhs, name="unitr")
