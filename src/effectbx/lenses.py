"""Asymmetric lenses, their effectful-update variant, and the embedding of a
computation over a view into a computation over a source."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional

from .effects import EffectFamily, identity_family, morphism_laws
from .lawcheck import FiniteDomain, Law, LawReport, enumerate_functions, run_laws
from .stateful import Stateful, enumerate_stateful, state_family


@dataclass(frozen=True)
class Lens:
    """view/update/create between a source and a view.

    Well-behaved: view(update(s, v)) == v and update(s, view(s)) == s.
    Very well-behaved (overwritable) adds update(update(s, v), v') ==
    update(s, v').  ``create`` builds a source from a view alone; projection
    lenses must be given an explicit default for the hidden component.
    """

    view: Callable[[Any], Any]
    update: Callable[[Any, Any], Any]
    create: Optional[Callable[[Any], Any]] = None


@dataclass(frozen=True)
class MLens:
    """Lens with effectful update/create: mupdate and mcreate land in an
    effect family, mview stays pure."""

    effect: EffectFamily
    mview: Callable[[Any], Any]
    mupdate: Callable[[Any, Any], Any]
    mcreate: Optional[Callable[[Any], Any]] = None


def identity_lens() -> Lens:
    return Lens(lambda a: a, lambda _s, v: v, lambda v: v)


_NO_DEFAULT = object()


def fst_lens(default_b=_NO_DEFAULT) -> Lens:
    """Project the first component.  ``create`` exists only when a default for
    the hidden component is supplied explicitly; no value is invented."""
    create = None if default_b is _NO_DEFAULT else (lambda v: (v, default_b))
    return Lens(lambda s: s[0], lambda s, v: (v, s[1]), create)


def snd_lens(default_a=_NO_DEFAULT) -> Lens:
    create = None if default_a is _NO_DEFAULT else (lambda v: (default_a, v))
    return Lens(lambda s: s[1], lambda s, v: (s[0], v), create)


def lens_to_mlens(fam: EffectFamily, l: Lens) -> MLens:
    return MLens(
        effect=fam,
        mview=l.view,
        mupdate=lambda s, v: fam.unit(l.update(s, v)),
        mcreate=None if l.create is None else (lambda v: fam.unit(l.create(v))),
    )


def mlens_compose(l1: MLens, l2: MLens) -> MLens:
    """Compose a source->mid lens with a mid->view lens."""
    fam = l1.effect

    def mupdate(s, v1):
        return fam.bind(
            l2.mupdate(l1.mview(s), v1), lambda mid: l1.mupdate(s, mid)
        )

    def mcreate(v1):
        return fam.bind(l2.mcreate(v1), l1.mcreate)

    return MLens(
        effect=fam,
        mview=lambda s: l2.mview(l1.mview(s)),
        mupdate=mupdate,
        mcreate=mcreate if (l1.mcreate and l2.mcreate) else None,
    )


# ---------------------------------------------------------------------------
# theta: widening a computation through a lens


def theta(l, m: Stateful) -> Stateful:
    """Embed a computation on the view type into one on the source type:
    read the source, take the view, run the computation on it, push the
    updated view back through the lens, store the new source.

    Accepts a pure Lens (lifted into the computation's effect family) or an
    MLens; both share this one code path."""
    fam = m.effect
    if isinstance(l, Lens):
        l = lens_to_mlens(fam, l)

    def run(s):
        v = l.mview(s)
        return fam.bind(
            m.run(v),
            lambda pair: fam.map(l.mupdate(s, pair[1]), lambda s1: (pair[0], s1)),
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


def _mlens_laws(l: MLens, dom_a: FiniteDomain, dom_b: FiniteDomain):
    """Round-tripping (update-view, view-update) plus the overwrite law, over
    the lens's effect family."""
    fam = l.effect
    return [
        Law(
            "update-view",
            [("s", dom_a), ("v", dom_b)],
            lambda e: fam.map(l.mupdate(e["s"], e["v"]), l.mview),
            lambda e: fam.unit(e["v"]),
        ),
        Law(
            "view-update",
            [("s", dom_a)],
            lambda e: l.mupdate(e["s"], l.mview(e["s"])),
            lambda e: fam.unit(e["s"]),
        ),
        Law(
            "update-update",
            [("s", dom_a), ("v", dom_b), ("v2", dom_b)],
            lambda e: fam.bind(
                l.mupdate(e["s"], e["v"]), lambda s1: l.mupdate(s1, e["v2"])
            ),
            lambda e: l.mupdate(e["s"], e["v2"]),
        ),
    ]


def check_lens_laws(l: Lens, dom_a: FiniteDomain, dom_b: FiniteDomain,
                    cap=None, seed=0) -> LawReport:
    """The monadic lens laws at the identity effect, where they are the pure
    round-tripping laws view(update(s, v)) == v and update(s, view(s)) == s,
    plus the overwrite law."""
    fam = identity_family()
    return run_laws("lens-laws", _mlens_laws(lens_to_mlens(fam, l), dom_a, dom_b),
                    fam.equal_values, cap=cap, seed=seed)


def check_mlens_laws(l: MLens, dom_a: FiniteDomain, dom_b: FiniteDomain,
                     cap=None, seed=0) -> LawReport:
    """Monadic analogues of the round-tripping laws, over the family's
    equality."""
    return run_laws("mlens-laws", _mlens_laws(l, dom_a, dom_b), l.effect.equal_values,
                    cap=cap, seed=seed)


def check_theta_morphism(l, fam: EffectFamily, source_domain: FiniteDomain,
                         view_domain: FiniteDomain, value_domain: FiniteDomain,
                         cap=None, seed=0) -> LawReport:
    """The widening is a monad morphism from ``state_family(fam)`` to itself
    when the lens is very well-behaved: it preserves unit and distributes
    over bind, pointwise over sources."""
    st = state_family(fam)
    computations = enumerate_stateful(fam, view_domain, value_domain)
    laws = morphism_laws("theta-", partial(theta, l), st, st, value_domain,
                         ("m", computations),
                         enumerate_functions(value_domain, computations), source_domain)
    return run_laws("theta-morphism", laws, fam.equal_values, cap=cap, seed=seed)
