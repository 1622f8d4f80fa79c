"""State-transformer computations and the data-refinement construction."""

import re

import pytest

from effectbx import (
    BaseLawsViolated,
    FiniteDomain,
    Just,
    NOTHING,
    NativeStateOps,
    check_lift_morphism,
    choice_family,
    console_family,
    data_refinement,
    failure_family,
    identity_family,
    native_state_family,
    reader_family,
    st_eval,
    st_exec,
    st_get,
    st_gets,
    st_lift,
    st_set,
    st_unit,
    state_law_suite,
    stateful_equal,
    writer_family,
)
from effectbx.effects import morphism_laws
from effectbx.lawcheck import enumerate_functions, stable_repr
from effectbx.stateful import Stateful, enumerate_stateful, state_family

BIT = FiniteDomain("bit", (0, 1))


def families():
    return [
        identity_family(),
        failure_family(),
        choice_family(),
        reader_family((0, 1)),
        writer_family(),
        console_family(scripts=((), ("a",))),
    ]


def test_get_returns_state_unchanged():
    fam = identity_family()
    assert st_get(fam).run(7) == (7, 7)


def test_set_then_get_returns_new_state():
    fam = identity_family()
    m = st_set(fam, 3).then(st_get(fam))
    for s in (0, 1, 99):
        assert m.run(s) == (3, 3)


def test_get_under_failure_never_fails():
    fam = failure_family()
    for s in (0, 1):
        assert fam.equal_values(st_get(fam).run(s), Just((s, s)))


def test_gets():
    fam = identity_family()
    dom = FiniteDomain("d", (0, 1, 2))
    assert stateful_equal(st_gets(fam, lambda s: s), st_get(fam), dom)
    assert st_gets(fam, lambda _s: 0).run(2) == (0, 2)
    assert st_gets(fam, lambda s: s[0]).run((1, 2)) == (1, (1, 2))


def test_eval_exec():
    fam = identity_family()
    assert st_eval(st_get(fam), 5) == 5
    assert st_exec(st_set(fam, 9), 5) == 9
    ffam = failure_family()
    dead = st_lift(ffam, NOTHING)
    assert st_eval(dead, 0) is NOTHING


def test_lift_of_unit_is_unit_computation():
    fam = failure_family()
    assert stateful_equal(st_lift(fam, fam.unit(5)), st_unit(fam, 5), BIT)


def test_lift_zero_then_set_is_lift_zero():
    # zero absorption, checked by enumeration over the failure effect
    fam = failure_family()
    dead = st_lift(fam, NOTHING)
    for x in BIT:
        assert stateful_equal(dead.then(st_set(fam, x)), dead.then(st_unit(fam, ())), BIT)
        assert dead.then(st_set(fam, x)).run(0) is NOTHING


@pytest.mark.parametrize("fam", families(), ids=lambda f: f.name)
def test_map_and_then_compute_what_their_binds_compute(fam):
    # map and then build their closures directly; at every state they must
    # agree with map f = bind (unit . f) and then n = bind (const n)
    s2 = FiniteDomain("s2", (0, 1))
    f = lambda a: (a, 1 - a)
    n = st_set(fam, 1).then(st_get(fam))
    space = enumerate_stateful(fam, s2, BIT)
    for i in range(space.size):
        m = space.decode(i)
        for s in s2:
            assert fam.equal(m.map(f).run(s),
                             m.bind(lambda a: st_unit(fam, f(a))).run(s))
            assert fam.equal(m.then(n).run(s),
                             m.bind(lambda _a: n).run(s))


def test_stateful_prints_compares_and_hashes_over_effect_and_run():
    fam = identity_family()
    run = lambda s: fam.unit((s, s))
    m = Stateful(fam, run)
    assert re.fullmatch(
        r"Stateful\(effect=EffectFamily\(identity\), "
        r"run=<function .* at 0x\.\.>\)",
        stable_repr(m),
    )
    twin = Stateful(fam, run)
    assert m == twin and hash(m) == hash(twin)
    assert m != Stateful(fam, lambda s: fam.unit((s, s)))
    assert m.__eq__(object()) is NotImplemented
    assert not hasattr(m, "__dict__")


@pytest.mark.parametrize("fam", families(), ids=lambda f: f.name)
@pytest.mark.parametrize("size", [1, 2, 3])
def test_state_laws_all_families(fam, size):
    dom = FiniteDomain("s", tuple(range(size)))
    report = state_law_suite(fam, dom, value_domain=BIT)
    assert report.ok, (fam.name, report.failing_laws)
    assert report.mode == "exhaustive"


@pytest.mark.parametrize("fam", families(), ids=lambda f: f.name)
def test_lift_is_monad_morphism(fam):
    assert check_lift_morphism(fam, BIT, BIT).ok


def test_state_family_units_and_binds_computations():
    fam = failure_family()
    st = state_family(fam)
    assert st.equal is None
    assert st.unit(1).run(0) == Just((1, 0))
    assert st.bind(st_get(fam), lambda s: st_set(fam, s + 1)).run(0) == Just(((), 1))


def test_lift_laws_are_the_morphism_laws_run_at_a_state():
    # lift is a morphism into state_family(fam): same two laws, named with
    # the prefix, each quantified over s after its own variables
    fam = identity_family()
    tvs = fam.values_over(BIT)
    laws = morphism_laws("lift-", lambda tv: st_lift(fam, tv), fam, state_family(fam),
                         BIT, ("tv", tvs), enumerate_functions(BIT, tvs), BIT)
    assert [(law.name, [q[0] for q in law.quantifiers]) for law in laws] == [
        ("lift-preserves-unit", ["a", "s"]),
        ("lift-preserves-bind", ["tv", "k", "s"]),
    ]
    report = check_lift_morphism(fam, BIT, BIT)
    assert [r.name for r in report.laws] == [law.name for law in laws]
    assert [r.checked for r in report.laws] == [4, 16]


# ---------------------------------------------------------------------------
# data refinement


def test_data_refinement_round_trip():
    ops = native_state_family(BIT)
    conc, abs_ = data_refinement(ops)
    fam = ops.family
    # abs . conc = id on every enumerated base computation
    for tv in fam.values_over(BIT):
        assert fam.equal_values(abs_(conc(tv)), tv)
    assert fam.equal_values(abs_(conc(ops.get_value)), ops.get_value)


def test_conc_distributes_over_bind():
    ops = native_state_family(BIT)
    conc, _ = data_refinement(ops)
    fam = ops.family
    table = {0: fam.unit(1), 1: ops.get_value}
    k = lambda x: table[x]
    for tv in fam.values_over(BIT):
        lhs = conc(fam.bind(tv, k))
        rhs = conc(tv).bind(lambda x: conc(k(x)))
        assert stateful_equal(lhs, rhs, BIT)


def test_conc_does_not_preserve_unit():
    # conc synchronizes the outer state copy with the native one, so it is
    # deliberately not a monad morphism
    ops = native_state_family(BIT)
    conc, _ = data_refinement(ops)
    fam = ops.family
    assert not stateful_equal(conc(fam.unit(0)), st_unit(fam, 0), BIT)


def test_derived_set_satisfies_set_set():
    ops = native_state_family(BIT)
    conc, _ = data_refinement(ops)
    sset = lambda a: conc(ops.set_value(a))
    for a in BIT:
        for b in BIT:
            assert stateful_equal(sset(a).then(sset(b)), sset(b), BIT)


def test_data_refinement_rejects_lawless_base():
    ops = native_state_family(BIT)
    broken = NativeStateOps(
        family=ops.family,
        get_value=lambda s: (1 - s, s),  # lies about the state
        set_value=ops.set_value,
        state_domain=BIT,
    )
    with pytest.raises(BaseLawsViolated) as err:
        data_refinement(broken)
    assert err.value.law_name in ("get-get", "set-get", "get-set")
