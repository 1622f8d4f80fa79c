"""Symmetric lenses over an effect family (pure ones are the symmetric lenses
at the identity effect), lens spans, and bx."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from .bx import Bx, legs_of, require_initialisable, span_bx
from .effects import (
    EffectFamily,
    Just,
    NOTHING,
    identity_family,
    require_identity,
    require_same_family,
)
from .errors import DomainTooLarge
from .lawcheck import FiniteDomain, Law, Positions
from .lenses import Lens

_CLOSURE_ROUNDS = 64
_MAX_TRIPLES = 100_000


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


def symlens_laws(sl: SymLens, dom_a: FiniteDomain, dom_b: FiniteDomain, dom_c: FiniteDomain):
    """Chasing a put with the opposite put equals chasing it with a pure
    return, over the lens's effect family: after one put the complement is
    fully consistent.  At the identity effect the opposite put with the
    returned view is a fixed point."""
    return [
        _round_trip(sl, "put_r-put_l", "a", dom_a, dom_c),
        _round_trip(dual_symlens(sl), "put_l-put_r", "b", dom_b, dom_c),
    ]


def _round_trip(sl: SymLens, name, var, dom, dom_c):
    """``put_r`` chased by ``put_l`` equals ``put_r`` chased by a return of
    the view put, quantified over ``var``; the other round trip is this law
    of the dual."""
    fam = sl.effect
    return Law(
        name,
        [(var, dom), ("c", dom_c)],
        lambda e: fam.bind(
            sl.put_r(e[var], e["c"]), lambda bc: sl.put_l(bc[0], bc[1])
        ),
        lambda e: fam.bind(
            sl.put_r(e[var], e["c"]),
            lambda bc: fam.unit((e[var], bc[1])),
        ),
    )


def symlens_compose(sl1: SymLens, sl2: SymLens) -> SymLens:
    """Sequential composition over paired complements, both at one
    effect."""
    require_same_family(sl1.effect, sl2.effect, "sl1", "sl2", "symmetric lenses compose")
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
    the identity effect by closure: apply every put to the missing
    complement, then to the complement of each triple the previous round
    found, until a round finds none, keeping the triples in the order found.
    A triple is looked up as ``FiniteDomain`` finds an element (see
    ``Positions``).  Raises DomainTooLarge as soon as more than
    ``_MAX_TRIPLES`` triples are found (e.g. a complement that records
    history and so doubles the frontier every round), or if the closure has
    not converged after 64 rounds (a complement that grows without
    bound)."""
    triples = Positions()
    complements = [sl.missing]
    for _ in range(_CLOSURE_ROUNDS + 1):
        known = len(triples)
        for t in (step for c in complements for step in _puts(sl, dom_a, dom_b, c)):
            triples.add(t)
            if len(triples) > _MAX_TRIPLES:
                raise DomainTooLarge(f"consistent triples exceed the bound of "
                                     f"{_MAX_TRIPLES} triples")
        if len(triples) == known:
            return FiniteDomain("consistent-triples", tuple(triples.values))
        complements = [c for _a, _b, c in triples.values[known:]]
    raise DomainTooLarge(f"consistent triples not closed after {_CLOSURE_ROUNDS} "
                         f"rounds ({len(triples)} found)")


def _puts(sl: SymLens, dom_a, dom_b, c):
    """The triple each put of a view in ``dom_a``, then in ``dom_b``, gives
    from complement ``c``."""
    return ([(a, *sl.put_r(a, c)) for a in dom_a]
            + [(a, b, c1) for b in dom_b for a, c1 in [sl.put_l(b, c)]])


def symlens_to_bx(sl: SymLens, dom_a: Optional[FiniteDomain] = None,
                  dom_b: Optional[FiniteDomain] = None,
                  name: str = "symlens") -> Bx:
    """Simulate a symmetric lens at the identity effect as an identity-effect
    bx whose state is a consistent triple: the span of the two lenses of
    ``symlens_to_lens_span``.

    The declared state domain is the closure of the puts from the missing
    complement when the view domains are supplied; otherwise it is left
    undeclared and the bx is usable but not law-checkable.
    """
    require_identity(sl.effect, "symlens_to_bx")
    states = None
    if dom_a is not None and dom_b is not None:
        states = consistent_triples(sl, dom_a, dom_b)
    return span_bx(*symlens_to_lens_span(sl), states, dom_a, dom_b,
                   identity_family(), name)


def bx_to_symlens(bx: Bx) -> SymLens:
    """Flatten a transparent identity-effect bx into a symmetric lens whose
    complement is the optional hidden state: ``lens_span_to_symlens`` of its
    legs (see ``legs_of``), so an opaque bx is refused with
    ``NotTransparent``.  An absent complement routes through the bx's
    initializer, so a bx without one is refused with ``NoInitializers``."""
    require_identity(bx.effect, "bx_to_symlens")
    require_initialisable(bx)
    return lens_span_to_symlens(*legs_of(bx))


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
    return SymLens(put_r=_span_put(l1, l2), put_l=_span_put(l2, l1), missing=NOTHING)


def _span_put(l1: Lens, l2: Lens):
    """Push a view through ``l1`` into the optional source, then read it
    through ``l2``."""

    def put(v, mc):
        c1 = l1.create(v) if mc is NOTHING else l1.update(mc.value, v)
        return (l2.view(c1), Just(c1))

    return put
