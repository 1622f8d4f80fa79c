"""Composition of transparent bx over the join state space, the identity bx,
duality, and equivalence checking via state bijections."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bx import Bx, InitBx, TransparencyAnalysis, analyze_transparency
from .effects import EffectFamily
from .errors import MiddleTypeMismatch, NotBijective, NotTransparent
from .lawcheck import FiniteDomain, Law, LawReport, run_laws
from .lenses import Lens, theta
from .stateful import Stateful, st_eval, st_exec, st_get, st_set


def identity_bx(fam: EffectFamily, dom: FiniteDomain, name: str = "identity") -> InitBx:
    """Both views are the state itself; transparent and overwritable."""
    return InitBx(
        name=name,
        effect=fam,
        get_l=st_get(fam),
        set_l=lambda a: st_set(fam, a),
        get_r=st_get(fam),
        set_r=lambda b: st_set(fam, b),
        state_domain=dom,
        dom_a=dom,
        dom_b=dom,
        init_l=lambda a: fam.unit(a),
        init_r=lambda b: fam.unit(b),
    )


def dual(bx: Bx) -> Bx:
    """Exchange the two sides; preserves transparency and overwritability."""
    flipped = Bx(
        name=f"dual({bx.name})",
        effect=bx.effect,
        get_l=bx.get_r,
        set_l=bx.set_r,
        get_r=bx.get_l,
        set_r=bx.set_l,
        state_domain=bx.state_domain,
        dom_a=bx.dom_b,
        dom_b=bx.dom_a,
    )
    if isinstance(bx, InitBx):
        return flipped.with_initializers(bx.init_r, bx.init_l)
    return flipped


def _require_transparent(bx: Bx) -> TransparencyAnalysis:
    analysis = analyze_transparency(bx)
    if not analysis.transparent:
        raise NotTransparent(bx.name)
    return analysis


def _check_middle(bx1: Bx, bx2: Bx):
    if bx1.dom_b is None or bx2.dom_a is None:
        raise MiddleTypeMismatch("composition needs declared middle domains")
    left_elems = list(bx1.dom_b.elements)
    right_elems = list(bx2.dom_a.elements)
    if not (
        all(any(x == y for y in right_elems) for x in left_elems)
        and all(any(x == y for y in left_elems) for x in right_elems)
    ):
        raise MiddleTypeMismatch(
            f"middle domains disagree: {bx1.name} right vs {bx2.name} left"
        )


def join_states(bx1: Bx, bx2: Bx) -> FiniteDomain:
    """The pairs of component states whose shared middle views agree,
    materialized by filtering the product with the transparent predicate."""
    return _join_states(bx1, bx2, _require_transparent(bx1), _require_transparent(bx2))


def _join_states(bx1, bx2, a1, a2) -> FiniteDomain:
    read_r1 = a1.read_r_fn()
    read_l2 = a2.read_l_fn()
    pairs = tuple(
        (s1, s2)
        for s1 in bx1.state_domain
        for s2 in bx2.state_domain
        if read_r1(s1) == read_l2(s2)
    )
    return FiniteDomain(f"{bx1.name};{bx2.name}-join", pairs)


def join_states_general(bx1: Bx, bx2: Bx) -> FiniteDomain:
    """Eval-based join predicate; meaningful for identity-effect bx only,
    where comparing the two get computations directly is decidable."""
    from .errors import EffectbxError

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


def compose(bx1: Bx, bx2: Bx, via_theta: bool = False) -> Bx:
    """Sequential composition over the join state space.

    Both arguments must be transparent; setting one end sets the matching
    component, reads the updated middle view, and pushes it into the other
    component.  ``via_theta`` switches to the equivalent formulation that
    widens component computations with ``theta`` through lenses at the bx's
    effect onto the pair state; the two routes agree pointwise on join
    states.
    """
    _check_middle(bx1, bx2)
    a1 = _require_transparent(bx1)
    a2 = _require_transparent(bx2)
    if via_theta:
        composed = _compose_theta(bx1, bx2, a1, a2)
    else:
        composed = _compose_direct(bx1, bx2, a1, a2)
    if isinstance(bx1, InitBx) and isinstance(bx2, InitBx):
        return _attach_init(composed, bx1, bx2)
    return composed


def compose_init(bx1: InitBx, bx2: InitBx) -> InitBx:
    out = compose(bx1, bx2)
    assert isinstance(out, InitBx)
    return out


def _compose_direct(bx1, bx2, a1, a2) -> Bx:
    fam = bx1.effect
    read_l1 = a1.read_l_fn()
    read_r1 = a1.read_r_fn()
    read_l2 = a2.read_l_fn()
    read_r2 = a2.read_r_fn()

    def set_l(a):
        def run(state):
            s1, s2 = state
            return fam.bind(
                bx1.set_l(a).run(s1),
                lambda p1: fam.bind(
                    bx2.set_l(read_r1(p1[1])).run(s2),
                    lambda p2: fam.unit(((), (p1[1], p2[1]))),
                ),
            )

        return Stateful(fam, run)

    def set_r(c):
        def run(state):
            s1, s2 = state
            return fam.bind(
                bx2.set_r(c).run(s2),
                lambda p2: fam.bind(
                    bx1.set_r(read_l2(p2[1])).run(s1),
                    lambda p1: fam.unit(((), (p1[1], p2[1]))),
                ),
            )

        return Stateful(fam, run)

    return Bx(
        name=f"{bx1.name};{bx2.name}",
        effect=fam,
        get_l=Stateful(fam, lambda st: fam.unit((read_l1(st[0]), st))),
        set_l=set_l,
        get_r=Stateful(fam, lambda st: fam.unit((read_r2(st[1]), st))),
        set_r=set_r,
        state_domain=_join_states(bx1, bx2, a1, a2),
        dom_a=bx1.dom_a,
        dom_b=bx2.dom_b,
    )


def _lens_left(bx1: Bx, bx2: Bx) -> Lens:
    """Lens at the bx's effect focusing the first component of the pair
    state; its update pushes the changed middle view into the second
    component."""
    fam = bx1.effect

    def update(state, s1_new):
        _s1, s2 = state
        return fam.bind(
            st_eval(bx1.get_r, s1_new),
            lambda b: fam.map(st_exec(bx2.set_l(b), s2), lambda s2_new: (s1_new, s2_new)),
        )

    return Lens(view=lambda st: st[0], update=update, effect=fam)


def _lens_right(bx1: Bx, bx2: Bx) -> Lens:
    fam = bx1.effect

    def update(state, s2_new):
        s1, _s2 = state
        return fam.bind(
            st_eval(bx2.get_l, s2_new),
            lambda b: fam.map(st_exec(bx1.set_r(b), s1), lambda s1_new: (s1_new, s2_new)),
        )

    return Lens(view=lambda st: st[1], update=update, effect=fam)


def _compose_theta(bx1, bx2, a1, a2) -> Bx:
    fam = bx1.effect
    phi = lambda m: theta(_lens_left(bx1, bx2), m)
    psi = lambda m: theta(_lens_right(bx1, bx2), m)
    return Bx(
        name=f"{bx1.name};{bx2.name}",
        effect=fam,
        get_l=phi(bx1.get_l),
        set_l=lambda a: phi(bx1.set_l(a)),
        get_r=psi(bx2.get_r),
        set_r=lambda c: psi(bx2.set_r(c)),
        state_domain=_join_states(bx1, bx2, a1, a2),
        dom_a=bx1.dom_a,
        dom_b=bx2.dom_b,
    )


def _attach_init(composed: Bx, bx1: InitBx, bx2: InitBx) -> InitBx:
    fam = composed.effect

    def init_l(a):
        return fam.bind(
            bx1.init_l(a),
            lambda s1: fam.bind(
                st_eval(bx1.get_r, s1),
                lambda b: fam.map(bx2.init_l(b), lambda s2: (s1, s2)),
            ),
        )

    def init_r(c):
        return fam.bind(
            bx2.init_r(c),
            lambda s2: fam.bind(
                st_eval(bx2.get_l, s2),
                lambda b: fam.map(bx1.init_r(b), lambda s1: (s1, s2)),
            ),
        )

    return composed.with_initializers(init_l, init_r)


# ---------------------------------------------------------------------------
# equivalence via state bijections


@dataclass(frozen=True)
class StateBijection:
    forward: Callable
    backward: Callable


def _check_bijection(h: StateBijection, dom1: FiniteDomain, dom2: FiniteDomain):
    images = []
    for s in dom1:
        t = h.forward(s)
        if not any(t == u for u in dom2.elements):
            raise NotBijective(f"forward image {t!r} outside codomain")
        if any(t == u for u in images):
            raise NotBijective(f"forward not injective at {s!r}")
        images.append(t)
        if not h.backward(t) == s:
            raise NotBijective(f"backward(forward({s!r})) != {s!r}")
    if len(images) != len(dom2.elements):
        raise NotBijective("forward not onto the codomain")


def iota(h: StateBijection, fam: EffectFamily, m: Stateful) -> Stateful:
    """Transport a computation along a state bijection."""
    return Stateful(
        fam,
        lambda t: fam.map(
            m.run(h.backward(t)), lambda pair: (pair[0], h.forward(pair[1]))
        ),
    )


def check_equivalence(bx1: Bx, bx2: Bx, h: StateBijection, cap=None, seed=0) -> LawReport:
    """Verify that transporting bx1's operations along ``h`` yields bx2's,
    including the initializers when both sides carry them."""
    _check_bijection(h, bx1.state_domain, bx2.state_domain)
    fam = bx1.effect
    laws = [
        Law(
            "iota-get_l",
            [("s", bx2.state_domain)],
            lambda e: iota(h, fam, bx1.get_l).run(e["s"]),
            lambda e: bx2.get_l.run(e["s"]),
        ),
        Law(
            "iota-set_l",
            [("a", bx1.dom_a), ("s", bx2.state_domain)],
            lambda e: iota(h, fam, bx1.set_l(e["a"])).run(e["s"]),
            lambda e: bx2.set_l(e["a"]).run(e["s"]),
        ),
        Law(
            "iota-get_r",
            [("s", bx2.state_domain)],
            lambda e: iota(h, fam, bx1.get_r).run(e["s"]),
            lambda e: bx2.get_r.run(e["s"]),
        ),
        Law(
            "iota-set_r",
            [("b", bx1.dom_b), ("s", bx2.state_domain)],
            lambda e: iota(h, fam, bx1.set_r(e["b"])).run(e["s"]),
            lambda e: bx2.set_r(e["b"]).run(e["s"]),
        ),
    ]
    if isinstance(bx1, InitBx) and isinstance(bx2, InitBx):
        laws.append(
            Law(
                "h-init_l",
                [("a", bx1.dom_a)],
                lambda e: fam.map(bx1.init_l(e["a"]), h.forward),
                lambda e: bx2.init_l(e["a"]),
            )
        )
        laws.append(
            Law(
                "h-init_r",
                [("b", bx1.dom_b)],
                lambda e: fam.map(bx1.init_r(e["b"]), h.forward),
                lambda e: bx2.init_r(e["b"]),
            )
        )
    return run_laws(
        f"{bx1.name}=={bx2.name}", laws, fam.equal_values, cap=cap, seed=seed,
        effect=fam.name,
    )


def left_identity_bijection(bx: Bx) -> StateBijection:
    """bx  ==>  identity ; bx, sending s to (read_l s, s)."""
    read_l = _require_transparent(bx).read_l_fn()
    return StateBijection(
        forward=lambda s: (read_l(s), s),
        backward=lambda pair: pair[1],
    )


def right_identity_bijection(bx: Bx) -> StateBijection:
    """bx  ==>  bx ; identity, sending s to (s, read_r s)."""
    read_r = _require_transparent(bx).read_r_fn()
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
