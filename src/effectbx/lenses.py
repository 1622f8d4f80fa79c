"""Asymmetric lenses over an effect family (pure ones are the lenses at the
identity effect), and the embedding of a computation over a view into a
computation over a source."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

from .effects import EffectFamily, identity_family, morphism_laws, require_identity
from .lawcheck import FiniteDomain, Law, enumerate_functions
from .stateful import Stateful, enumerate_stateful, state_family


@dataclass(frozen=True)
class Lens:
    """view/update/create between a source and a view; update and create
    return values of ``effect``, view stays pure.  At the identity effect
    (the default) those values are plain sources.

    Well-behaved: view(update(s, v)) == v and update(s, view(s)) == s.
    Very well-behaved (overwritable) adds update(update(s, v), v') ==
    update(s, v').  ``create`` builds a source from a view alone; projection
    lenses must be given an explicit default for the hidden component.
    """

    view: Callable[[Any], Any]
    update: Callable[[Any, Any], Any]
    create: Optional[Callable[[Any], Any]] = None
    effect: EffectFamily = field(default_factory=identity_family)


def identity_lens() -> Lens:
    return Lens(
        lambda a: a,
        lambda _s, v: v,
        lambda v: v,
    )


_NO_DEFAULT = object()


def fst_lens(default_b=_NO_DEFAULT) -> Lens:
    """Project the first component.  ``create`` exists only when a default for
    the hidden component is supplied explicitly; no value is invented."""
    create = None if default_b is _NO_DEFAULT else (lambda v: (v, default_b))
    return Lens(
        lambda s: s[0],
        lambda s, v: (v, s[1]),
        create,
    )


def snd_lens(default_a=_NO_DEFAULT) -> Lens:
    create = None if default_a is _NO_DEFAULT else (lambda v: (default_a, v))
    return Lens(
        lambda s: s[1],
        lambda s, v: (s[0], v),
        create,
    )


def lift_lens(fam: EffectFamily, l: Lens) -> Lens:
    """A lens at the identity effect as a lens at ``fam`` whose update and
    create return the unit of the pure result."""
    require_identity(l.effect, "lift_lens")
    return Lens(
        view=l.view,
        update=lambda s, v: fam.unit(l.update(s, v)),
        create=None if l.create is None else (lambda v: fam.unit(l.create(v))),
        effect=fam,
    )


def lens_compose(l1: Lens, l2: Lens) -> Lens:
    """Compose a source->mid lens with a mid->view lens, at ``l1``'s effect."""
    fam = l1.effect

    def update(s, v1):
        return fam.bind(l2.update(l1.view(s), v1), lambda mid: l1.update(s, mid))

    def create(v1):
        return fam.bind(l2.create(v1), l1.create)

    return Lens(
        view=lambda s: l2.view(l1.view(s)),
        update=update,
        create=create if (l1.create and l2.create) else None,
        effect=fam,
    )


# ---------------------------------------------------------------------------
# theta: widening a computation through a lens


def theta(l: Lens, m: Stateful) -> Stateful:
    """Embed a computation on the view type into one on the source type:
    read the source, take the view, run the computation on it, push the
    updated view back through the lens, store the new source.

    A lens at another effect than the computation's is lifted into the
    computation's family with ``lift_lens``, which takes only lenses at the
    identity effect."""
    fam = m.effect
    if l.effect.name != fam.name:
        l = lift_lens(fam, l)

    def run(s):
        v = l.view(s)
        return fam.bind(
            m.run(v),
            lambda pair: fam.map(l.update(s, pair[1]), (
                lambda s1: (pair[0], s1)
            )),
        )

    return Stateful(fam, run)


def left(m: Stateful) -> Stateful:
    """Lift a computation on S1 to the product state (S1, S2)."""
    return theta(fst_lens(), m)


def right(m: Stateful) -> Stateful:
    """Lift a computation on S2 to the product state (S1, S2)."""
    return theta(snd_lens(), m)


# ---------------------------------------------------------------------------
# law suites


def lens_laws(l: Lens, dom_a: FiniteDomain, dom_b: FiniteDomain):
    """Round-tripping (update-view, view-update) plus the overwrite law, over
    the lens's effect family.  At the identity effect they are the pure laws
    view(update(s, v)) == v, update(s, view(s)) == s and
    update(update(s, v), v2) == update(s, v2)."""
    fam = l.effect
    return [
        Law(
            "update-view",
            [("s", dom_a), ("v", dom_b)],
            lambda e: fam.map(l.update(e["s"], e["v"]), l.view),
            lambda e: fam.unit(e["v"]),
        ),
        Law(
            "view-update",
            [("s", dom_a)],
            lambda e: l.update(e["s"], l.view(e["s"])),
            lambda e: fam.unit(e["s"]),
        ),
        Law(
            "update-update",
            [("s", dom_a), ("v", dom_b), ("v2", dom_b)],
            lambda e: fam.bind(
                l.update(e["s"], e["v"]), lambda s1: l.update(s1, e["v2"])
            ),
            lambda e: l.update(e["s"], e["v2"]),
        ),
    ]


def theta_morphism_laws(l: Lens, fam: EffectFamily, source_domain: FiniteDomain,
                        view_domain: FiniteDomain, value_domain: FiniteDomain):
    """The widening is a monad morphism from ``state_family(fam)`` to itself
    when the lens is very well-behaved: it preserves unit and distributes
    over bind, pointwise over sources."""
    st = state_family(fam)
    computations = enumerate_stateful(fam, view_domain, value_domain)
    return morphism_laws("theta-", partial(theta, l), st, st, value_domain,
                         ("m", computations),
                         enumerate_functions(value_domain, computations), source_domain)
