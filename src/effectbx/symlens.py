"""Symmetric lenses over an effect family (pure ones are the symmetric lenses
at the identity effect), lens spans, and bx."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from .bx import InitBx
from .effects import EffectFamily, Just, NOTHING, identity_family, require_identity
from .errors import DomainTooLarge
from .lawcheck import FiniteDomain, Law, LawReport, run_laws
from .lenses import Lens
from .stateful import Stateful, st_gets

_CLOSURE_ROUNDS = 64


@dataclass(frozen=True)
class SymLens:
    """Two put functions over a shared complement.

    put_r maps (new left view, old complement) to a value of ``effect`` over
    (right view, new complement); put_l is symmetric.  At the identity effect
    (the default) that value is the plain pair.  ``missing`` is the
    complement to use when there is no history yet.
    """

    put_r: Callable[[Any, Any], Any]
    put_l: Callable[[Any, Any], Any]
    missing: Any
    effect: EffectFamily = field(default_factory=identity_family)


def identity_symlens() -> SymLens:
    return SymLens(
        put_r=lambda a, _c: (a, a),
        put_l=lambda b, _c: (b, b),
        missing=None,
    )


def dual_symlens(sl: SymLens) -> SymLens:
    return replace(sl, put_r=sl.put_l, put_l=sl.put_r)


def check_symlens_laws(sl: SymLens, dom_a: FiniteDomain, dom_b: FiniteDomain,
                       dom_c: FiniteDomain, cap=None, seed=0) -> LawReport:
    """Chasing a put with the opposite put equals chasing it with a pure
    return, over the lens's effect family: after one put the complement is
    fully consistent.  At the identity effect the opposite put with the
    returned view is a fixed point."""
    fam = sl.effect
    laws = [
        Law(
            "put_r-put_l",
            [("a", dom_a), ("c", dom_c)],
            lambda e: fam.bind(
                sl.put_r(e["a"], e["c"]), lambda bc: sl.put_l(bc[0], bc[1])
            ),
            lambda e: fam.bind(
                sl.put_r(e["a"], e["c"]),
                lambda bc: fam.unit((e["a"], bc[1])),
            ),
        ),
        Law(
            "put_l-put_r",
            [("b", dom_b), ("c", dom_c)],
            lambda e: fam.bind(
                sl.put_l(e["b"], e["c"]), lambda ac: sl.put_r(ac[0], ac[1])
            ),
            lambda e: fam.bind(
                sl.put_l(e["b"], e["c"]),
                lambda ac: fam.unit((e["b"], ac[1])),
            ),
        ),
    ]
    return run_laws("symlens-laws", laws, fam.equal_values, cap=cap, seed=seed)


def symlens_compose(sl1: SymLens, sl2: SymLens) -> SymLens:
    """Sequential composition over paired complements, at ``sl1``'s
    effect."""
    fam = sl1.effect

    def put_r(a, c):
        c1, c2 = c
        return fam.bind(
            sl1.put_r(a, c1),
            lambda bc1: fam.map(
                sl2.put_r(bc1[0], c2),
                lambda cc2: (cc2[0], (bc1[1], cc2[1])),
            ),
        )

    def put_l(z, c):
        c1, c2 = c
        return fam.bind(
            sl2.put_l(z, c2),
            lambda bc2: fam.map(
                sl1.put_l(bc2[0], c1),
                lambda ac1: (ac1[0], (ac1[1], bc2[1])),
            ),
        )

    return SymLens(put_r=put_r, put_l=put_l, missing=(sl1.missing, sl2.missing),
                   effect=fam)


def lift_symlens(fam: EffectFamily, sl: SymLens) -> SymLens:
    """A symmetric lens at the identity effect as one at ``fam`` whose puts
    return the unit of the pure result."""
    require_identity(sl.effect, "lift_symlens")
    return SymLens(
        put_r=lambda a, c: fam.unit(sl.put_r(a, c)),
        put_l=lambda b, c: fam.unit(sl.put_l(b, c)),
        missing=sl.missing,
        effect=fam,
    )


# ---------------------------------------------------------------------------
# consistent-triple closure and the bx simulation


def consistent_triples(sl: SymLens, dom_a: FiniteDomain,
                       dom_b: FiniteDomain) -> FiniteDomain:
    """Materialize the consistent (a, b, c) triples of a symmetric lens at
    the identity effect by closure: seed with the puts applied to the missing
    complement, then iterate set-transitions until no new triple appears.
    Raises DomainTooLarge if the closure has not converged after 64 rounds
    (e.g. a complement that grows without bound)."""
    triples = []

    def add(t):
        if not any(t == u for u in triples):
            triples.append(t)
            return True
        return False

    for a in dom_a:
        b, c = sl.put_r(a, sl.missing)
        add((a, b, c))
    for b in dom_b:
        a, c = sl.put_l(b, sl.missing)
        add((a, b, c))
    for _ in range(_CLOSURE_ROUNDS):
        changed = False
        for (a, b, c) in list(triples):
            for a1 in dom_a:
                b1, c1 = sl.put_r(a1, c)
                changed |= add((a1, b1, c1))
            for b1 in dom_b:
                a1, c1 = sl.put_l(b1, c)
                changed |= add((a1, b1, c1))
        if not changed:
            return FiniteDomain("consistent-triples", tuple(triples))
    raise DomainTooLarge(
        f"consistent triples not closed after {_CLOSURE_ROUNDS} rounds "
        f"({len(triples)} found)"
    )


def symlens_to_bx(sl: SymLens, dom_a: Optional[FiniteDomain] = None,
                  dom_b: Optional[FiniteDomain] = None,
                  name: str = "symlens") -> InitBx:
    """Simulate a symmetric lens at the identity effect as an identity-effect
    bx whose state is a consistent triple.

    The declared state domain is the closure of the puts from the missing
    complement when the view domains are supplied; otherwise it is left
    undeclared and the bx is usable but not law-checkable.
    """
    require_identity(sl.effect, "symlens_to_bx")
    fam = identity_family()

    def set_l(a1):
        def run(t):
            _a, _b, c = t
            b1, c1 = sl.put_r(a1, c)
            return fam.unit(((), (a1, b1, c1)))

        return Stateful(fam, run)

    def set_r(b1):
        def run(t):
            _a, _b, c = t
            a1, c1 = sl.put_l(b1, c)
            return fam.unit(((), (a1, b1, c1)))

        return Stateful(fam, run)

    def init_l(a):
        b, c = sl.put_r(a, sl.missing)
        return fam.unit((a, b, c))

    def init_r(b):
        a, c = sl.put_l(b, sl.missing)
        return fam.unit((a, b, c))

    states = None
    if dom_a is not None and dom_b is not None:
        states = consistent_triples(sl, dom_a, dom_b)
    return InitBx(
        name=name,
        effect=fam,
        get_l=st_gets(fam, lambda t: t[0]),
        set_l=set_l,
        get_r=st_gets(fam, lambda t: t[1]),
        set_r=set_r,
        state_domain=states,
        dom_a=dom_a,
        dom_b=dom_b,
        init_l=init_l,
        init_r=init_r,
    )


def bx_to_symlens(bx: InitBx) -> SymLens:
    """Flatten an identity-effect bx into a symmetric lens whose complement is
    the optional hidden state; an absent complement routes through the bx's
    initializer."""
    require_identity(bx.effect, "bx_to_symlens")

    def put_r(a, mc):
        m = bx.set_l(a).then(bx.get_r)
        s = bx.init_l(a) if mc is NOTHING else mc.value
        b, s1 = m.run(s)
        return (b, Just(s1))

    def put_l(b, mc):
        m = bx.set_r(b).then(bx.get_l)
        s = bx.init_r(b) if mc is NOTHING else mc.value
        a, s1 = m.run(s)
        return (a, Just(s1))

    return SymLens(put_r=put_r, put_l=put_l, missing=NOTHING)


# ---------------------------------------------------------------------------
# lens spans


def symlens_to_lens_span(sl: SymLens):
    """Split a symmetric lens at the identity effect into two asymmetric
    lenses out of the triple state."""
    require_identity(sl.effect, "symlens_to_lens_span")

    def fixup_r(c, a1):
        b1, c1 = sl.put_r(a1, c)
        return (a1, b1, c1)

    def fixup_l(c, b1):
        a1, c1 = sl.put_l(b1, c)
        return (a1, b1, c1)

    left_leg = Lens(
        view=lambda t: t[0],
        update=lambda t, a1: fixup_r(t[2], a1),
        create=lambda a1: fixup_r(sl.missing, a1),
    )
    right_leg = Lens(
        view=lambda t: t[1],
        update=lambda t, b1: fixup_l(t[2], b1),
        create=lambda b1: fixup_l(sl.missing, b1),
    )
    return left_leg, right_leg


def lens_span_to_symlens(l1: Lens, l2: Lens) -> SymLens:
    """Fuse two lenses at the identity effect sharing a source into a
    symmetric lens whose complement is the optional source."""
    require_identity(l1.effect, "lens_span_to_symlens")
    require_identity(l2.effect, "lens_span_to_symlens")

    def put_r(a, mc):
        c1 = l1.create(a) if mc is NOTHING else l1.update(mc.value, a)
        return (l2.view(c1), Just(c1))

    def put_l(b, mc):
        c1 = l2.create(b) if mc is NOTHING else l2.update(mc.value, b)
        return (l1.view(c1), Just(c1))

    return SymLens(put_r=put_r, put_l=put_l, missing=NOTHING)
