"""State-transformer computations: functions from a state to an effect value
over (result, state) pairs, interpreted in a pluggable effect family."""

from __future__ import annotations

from functools import partial
from typing import Any, Callable

from .effects import EffectFamily, NativeStateOps, morphism_laws
from .errors import BaseLawsViolated
from .lawcheck import FiniteDomain, Space, enumerate_functions, pointwise


class Stateful:
    """A computation ``run: S -> Eff((A, S))`` in a fixed effect family.

    Values are first-class and immutable by convention (nothing assigns to
    ``effect`` or ``run`` after construction); law checking compares them
    extensionally, pointwise over declared finite state domains.  The class
    has slots and a plain ``__init__``, since the checker builds tens of
    thousands per pass; repr, equality and hash are those of a frozen
    dataclass over ``(effect, run)``.

    ``bind``, ``map`` and ``then`` build their continuation once, when the
    computation is composed: a run passes it to the family's ``bind`` and
    builds nothing else, and no continuation captures the state.
    """

    __slots__ = ("effect", "run")

    def __init__(self, effect: EffectFamily, run: Callable[[Any], Any]):
        self.effect = effect
        self.run = run

    def __repr__(self):
        return f"Stateful(effect={self.effect!r}, run={self.run!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.effect, self.run) == (other.effect, other.run)

    def __hash__(self):
        return hash((self.effect, self.run))

    # map and then build their continuations directly rather than through
    # bind, saving an st_unit computation on every run of the continuation;
    # each continuation is a def of its own, so that profilers, which key a
    # function by (file, first line, name), tell it from the run closure

    def bind(self, k: Callable[[Any], "Stateful"]) -> "Stateful":
        fam = self.effect
        bind, run = fam.bind, self.run

        def cont(pair):
            return k(pair[0]).run(pair[1])

        return Stateful(fam, lambda s: bind(run(s), cont))

    def map(self, f) -> "Stateful":
        fam = self.effect
        bind, unit, run = fam.bind, fam.unit, self.run

        def cont(pair):
            return unit((f(pair[0]), pair[1]))

        return Stateful(fam, lambda s: bind(run(s), cont))

    def then(self, m: "Stateful") -> "Stateful":
        fam = self.effect
        bind, run = fam.bind, self.run

        def cont(pair):
            return m.run(pair[1])

        return Stateful(fam, lambda s: bind(run(s), cont))


def st_unit(fam: EffectFamily, a) -> Stateful:
    unit = fam.unit
    return Stateful(fam, lambda s: unit((a, s)))


def st_get(fam: EffectFamily) -> Stateful:
    unit = fam.unit
    return Stateful(fam, lambda s: unit((s, s)))


def st_set(fam: EffectFamily, s1) -> Stateful:
    unit = fam.unit
    return Stateful(fam, lambda _state: unit(((), s1)))


def st_gets(fam: EffectFamily, f) -> Stateful:
    unit = fam.unit
    return Stateful(fam, lambda s: unit((f(s), s)))


def then_cont(m: Stateful):
    """The continuation of ``then(m)`` over a ``(value, state)`` pair: ``m``
    run at the pair's state, for a ``pointwise`` law's side."""
    run = m.run

    def cont(pair):
        return run(pair[1])

    return cont


def unit_cont(fam: EffectFamily, a):
    """The continuation of ``then(st_unit(fam, a))`` over a ``(value,
    state)`` pair: ``a`` returned at the pair's state."""
    unit = fam.unit

    def cont(pair):
        return unit((a, pair[1]))

    return cont


def st_eval(m: Stateful, s):
    """Project the result: ``do {(a, s') <- m s; return a}``."""
    return m.effect.bind(m.run(s), lambda pair: m.effect.unit(pair[0]))


def st_exec(m: Stateful, s):
    """Project the final state."""
    return m.effect.bind(m.run(s), lambda pair: m.effect.unit(pair[1]))


def st_lift(fam: EffectFamily, tvalue) -> Stateful:
    """Embed a base-effect value; preserves unit and bind (checked in the
    morphism suite)."""
    # inner lambdas on lines of their own, as in Stateful.bind
    return Stateful(fam, lambda s: fam.bind(tvalue, (
        lambda a: fam.unit((a, s))
    )))


def stateful_equal(m1: Stateful, m2: Stateful, state_domain) -> bool:
    """Extensional equality over a finite state domain: at every state the two
    effect values over (result, state) pairs must agree."""
    fam = m1.effect
    return all(fam.equal_values(m1.run(s), m2.run(s)) for s in state_domain)


def enumerate_stateful(fam: EffectFamily, state_domain: FiniteDomain,
                       value_domain: FiniteDomain) -> Space:
    """All checkable computations over ``state_domain`` returning values in
    ``value_domain``: every function from state to enumerated effect value."""
    pair_dom = FiniteDomain(
        f"{value_domain.name}x{state_domain.name}",
        tuple((a, s) for a in value_domain.elements for s in state_domain.elements),
    )
    fns = enumerate_functions(state_domain, fam.values_over(pair_dom))
    return fns.map(lambda fn: Stateful(fam, fn))


# ---------------------------------------------------------------------------
# law suites


def get_set_laws(get: Stateful, set_, views, states, names=("get", "set"),
                 variables=("x", "y")):
    """The four laws of one state interface, each ``pointwise`` over
    ``states``: get-get (reading twice reads the same), set-get (a get after
    a set returns the value set), get-set (setting what was got changes
    nothing) and set-set (a later set overwrites an earlier one).

    ``get`` returns the view and ``set_`` maps a view in ``views`` to a
    computation.  ``names`` name the two operations in the law names, and
    ``variables`` the set values in the witnesses; the state is ``s``.
    """
    get_name, set_name = names
    x, y = variables
    fam = get.effect
    bind, unit, run_get = fam.bind, fam.unit, get.run

    # get-get and set-get begin both sides with the same computation, so
    # their sides are continuations over its (value, state) pair, which
    # build no Stateful when they run; inner lambdas on lines of their own,
    # as in Stateful.bind
    def get_again(pair):
        return bind(run_get(pair[1]), (
            lambda again, a=pair[0]: unit(((a, again[0]), again[1]))
        ))

    def got_twice(pair):
        return unit(((pair[0], pair[0]), pair[1]))

    get_after = then_cont(get)
    return [
        pointwise(
            f"{get_name}-{get_name}", [], states,
            lambda e: get_again,
            lambda e: got_twice,
            first=lambda e: get,
        ),
        pointwise(
            f"{set_name}-{get_name}", [(x, views)], states,
            lambda e: get_after,
            lambda e: unit_cont(fam, e[x]),
            first=lambda e: set_(e[x]),
        ),
        pointwise(
            f"{get_name}-{set_name}", [], states,
            lambda e: get.bind(set_),
            lambda e: st_unit(fam, ()),
        ),
        pointwise(
            f"{set_name}-{set_name}", [(x, views), (y, views)], states,
            lambda e: set_(e[x]).then(set_(e[y])),
            lambda e: set_(e[y]),
        ),
    ]


def state_laws(fam: EffectFamily, state_domain: FiniteDomain, value_domain: FiniteDomain):
    """The four get/set laws, discardability of unused gets, and the two
    lifting-commutation equalities, exhaustively over the state domain."""
    get = st_get(fam)
    tvs = fam.values_over(value_domain)

    # these sides lift tv and set x once, when they are built, not at every
    # run; inner lambdas on lines of their own, as in Stateful.bind
    def lift_after_get(e):
        lifted = st_lift(fam, e["tv"])
        return get.bind(
            lambda a: lifted.map(
                lambda b: (a, b)
            )
        )

    def set_after_lift(e):
        set_x = st_set(fam, e["x"])
        return st_lift(fam, e["tv"]).bind(
            lambda b: set_x.then(st_unit(fam, b))
        )

    return [
        *get_set_laws(get, lambda x: st_set(fam, x), state_domain, state_domain),
        pointwise(
            "unused-get-discardable",
            [("m", enumerate_stateful(fam, state_domain, value_domain))], state_domain,
            lambda e: get.bind(
                lambda _a: e["m"]
            ),
            lambda e: e["m"],
        ),
        pointwise(
            "lift-commutes-with-get", [("tv", tvs)], state_domain,
            lift_after_get,
            lambda e: st_lift(fam, e["tv"]).bind(
                lambda b: get.map(
                    lambda a: (a, b)
                )
            ),
        ),
        pointwise(
            "lift-commutes-with-set", [("x", state_domain), ("tv", tvs)], state_domain,
            lambda e: st_set(fam, e["x"]).then(st_lift(fam, e["tv"])),
            set_after_lift,
        ),
    ]


def state_family(fam: EffectFamily) -> EffectFamily:
    """The state transformer over ``fam`` as a family: unit ``st_unit`` and
    bind ``Stateful.bind``.  It has no equality: a computation is compared
    by running it at a state."""
    return EffectFamily(f"state[{fam.name}]", partial(st_unit, fam), Stateful.bind)


def lift_morphism_laws(fam: EffectFamily, state_domain: FiniteDomain,
                       value_domain: FiniteDomain):
    """st_lift is a monad morphism from ``fam`` to ``state_family(fam)``: it
    preserves unit and bind, pointwise over states."""
    tvs = fam.values_over(value_domain)
    return morphism_laws("lift-", partial(st_lift, fam), fam, state_family(fam),
                         value_domain, ("tv", tvs),
                         enumerate_functions(value_domain, tvs), state_domain)


# ---------------------------------------------------------------------------
# data refinement from a base effect with native state operations


def data_refinement(base: NativeStateOps):
    """Build the simulation pair (conc, abs) between a base effect owning
    native state and its state-transformed form.

    ``conc`` turns a base-effect value into a computation that keeps the outer
    state copy synchronised with the native one; ``abs`` runs a computation on
    the natively stored state and stores the final state back.  The base ops
    must satisfy the get-get, get-set and set-get laws; BaseLawsViolated
    identifies the failing law otherwise.
    """
    from .checks import check  # checks imports this module

    fam = base.family
    report = check(fam, "base-state", ops=base)
    for result in report.laws:
        if not result.ok:
            raise BaseLawsViolated(result.name, result.failures[0])

    # inner lambdas on lines of their own, as in Stateful.bind
    def conc(tvalue) -> Stateful:
        return Stateful(
            fam,
            lambda _state: fam.bind(
                tvalue, lambda a: fam.map(base.get_value, (
                    lambda s1: (a, s1)
                ))
            ),
        )

    def abs_(m: Stateful):
        return fam.bind(
            base.get_value,
            lambda s: fam.bind(
                m.run(s),
                lambda pair: fam.map(base.set_value(pair[1]), (
                    lambda _u: pair[0]
                )),
            ),
        )

    return conc, abs_


def base_state_laws(fam: EffectFamily, ops: NativeStateOps):
    """get-get, set-get and get-set of the native operations ``ops`` of
    ``fam``, lifted to computations over a one-element outer state."""
    laws = get_set_laws(
        st_lift(fam, ops.get_value),
        lambda x: st_lift(fam, ops.set_value(x)),
        ops.state_domain,
        FiniteDomain("unit", ((),)),
    )
    return laws[:3]
