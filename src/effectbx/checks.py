"""The checker table, ``CHECKS``: every law suite of the library, keyed by
the kind of subject it checks and its name; and ``check``, which runs one.

``check`` alone decides how a report is named, which family's equality
compares the two sides of its laws, which ``effect`` it reports and how
``cap`` and ``seed`` reach ``run_laws``.  The checkers below it keep the
names and signatures under which the suites were first published.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .bx import Bx, init_laws, overwritable_laws, seven_laws, stability_laws
from .compose import equivalence_laws
from .effects import EffectFamily, commutative_laws, monad_laws, monad_morphism_laws
from .lawcheck import LawReport, run_laws
from .lenses import Lens, lens_laws, theta_morphism_laws
from .stateful import base_state_laws, lift_morphism_laws, state_laws
from .symlens import SymLens, symlens_laws


@dataclass(frozen=True)
class Suite:
    """An entry of ``CHECKS``: ``laws(subject, **domains)`` builds the laws
    from the subject and the named ``domains`` (a second subject, as a
    morphism's target, is one of them), and ``report``, formatted with the
    subject and the domains, names the report.  The sides are compared by
    the family named ``family`` among the domains, else by the subject's
    own, and the report names that family unless ``names_effect`` is false
    (``lens-laws``, ``symlens-laws``, ``theta-morphism`` and
    ``base-state-laws`` keep the empty ``effect`` their reports had)."""

    laws: Callable
    domains: tuple
    report: str
    family: Optional[str] = None
    names_effect: bool = True


CHECKS = {
    (EffectFamily, "monad"): Suite(monad_laws, ("dom",), "monad-laws[{0.name}/{dom.name}]"),
    (EffectFamily, "commutative"): Suite(commutative_laws, ("dom_a", "dom_b"),
                                         "commutativity[{0.name}]"),
    (EffectFamily, "morphism"): Suite(monad_morphism_laws, ("phi", "dst", "dom"),
                                      "monad-morphism[{0.name}->{dst.name}]", family="dst"),
    (EffectFamily, "state"): Suite(state_laws, ("state_domain", "value_domain"),
                                   "state-laws[{0.name}/{state_domain.name}]"),
    (EffectFamily, "lift-morphism"): Suite(lift_morphism_laws, ("state_domain", "value_domain"),
                                           "lift-morphism[{0.name}]"),
    (EffectFamily, "base-state"): Suite(base_state_laws, ("ops",), "base-state-laws[{0.name}]",
                                        names_effect=False),
    (Lens, "lens"): Suite(lens_laws, ("dom_a", "dom_b"), "lens-laws", names_effect=False),
    (Lens, "theta-morphism"): Suite(theta_morphism_laws,
                                    ("fam", "source_domain", "view_domain", "value_domain"),
                                    "theta-morphism", family="fam", names_effect=False),
    (SymLens, "symlens"): Suite(symlens_laws, ("dom_a", "dom_b", "dom_c"), "symlens-laws",
                                names_effect=False),
    (Bx, "seven"): Suite(seven_laws, (), "{0.name}"),
    (Bx, "overwritable"): Suite(overwritable_laws, (), "{0.name}:overwritable"),
    (Bx, "stability"): Suite(stability_laws, (), "{0.name}:stability"),
    (Bx, "init"): Suite(init_laws, (), "{0.name}:init"),
    (Bx, "equivalence"): Suite(equivalence_laws, ("other", "h"), "{0.name}=={other.name}"),
}

# the suites a bx is checked by alone, which a corpus entry runs
BX_SUITES = tuple(suite for (kind, suite), entry in CHECKS.items()
                  if kind is Bx and not entry.domains)


def check(subject, suite: str, *, cap=None, seed=0, **domains) -> LawReport:
    """Run the laws of ``CHECKS[type(subject), suite]`` on ``subject`` and
    the entry's named ``domains``, and report them; a law with more than
    ``cap`` assignments (``None``: the default cap) is checked on draws
    seeded by ``seed``."""
    entry = CHECKS.get((type(subject), suite))
    if entry is None:
        known = ", ".join(name for kind, name in CHECKS if kind is type(subject))
        raise ValueError(f"no suite {suite!r} for a {type(subject).__name__}; "
                         f"known: {known or 'none'}")
    if entry.family:
        fam = domains[entry.family]
    else:
        fam = subject if isinstance(subject, EffectFamily) else subject.effect
    # a family without equality is refused here, before any law is built,
    # so no law builder checks for one
    equal = fam.equal_values
    laws = entry.laws(subject, **domains)
    return run_laws(entry.report.format(subject, **domains), laws, equal,
                    cap=cap, seed=seed, effect=fam.name if entry.names_effect else "")


def check_monad_laws(fam, dom, cap=None, seed=0) -> LawReport:
    return check(fam, "monad", cap=cap, seed=seed, dom=dom)


def check_commutative(fam, dom_a, dom_b, cap=None, seed=0) -> LawReport:
    return check(fam, "commutative", cap=cap, seed=seed, dom_a=dom_a, dom_b=dom_b)


def check_monad_morphism(phi, src, dst, dom, cap=None, seed=0) -> LawReport:
    return check(src, "morphism", cap=cap, seed=seed, phi=phi, dst=dst, dom=dom)


def state_law_suite(fam, state_domain, value_domain, cap=None, seed=0) -> LawReport:
    return check(fam, "state", cap=cap, seed=seed, state_domain=state_domain,
                 value_domain=value_domain)


def check_lift_morphism(fam, state_domain, value_domain, cap=None, seed=0) -> LawReport:
    return check(fam, "lift-morphism", cap=cap, seed=seed, state_domain=state_domain,
                 value_domain=value_domain)


def check_theta_morphism(l, fam, source_domain, view_domain, value_domain,
                         cap=None, seed=0) -> LawReport:
    return check(l, "theta-morphism", cap=cap, seed=seed, fam=fam, source_domain=source_domain,
                 view_domain=view_domain, value_domain=value_domain)


def check_seven_laws(bx, cap=None, seed=0) -> LawReport:
    return check(bx, "seven", cap=cap, seed=seed)


def check_init_laws(bx, cap=None, seed=0) -> LawReport:
    return check(bx, "init", cap=cap, seed=seed)


def check_equivalence(bx1, bx2, h, cap=None, seed=0) -> LawReport:
    return check(bx1, "equivalence", cap=cap, seed=seed, other=bx2, h=h)
