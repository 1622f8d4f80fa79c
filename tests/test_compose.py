"""Composition over join states, identity/duality, and equivalence checking."""

from dataclasses import replace

import pytest

from effectbx import (
    EffectbxError,
    FiniteDomain,
    MiddleTypeMismatch,
    NOTHING,
    NoInitializers,
    NotBijective,
    NotTransparent,
    StateBijection,
    analyze_transparency,
    assoc_bijection,
    check,
    check_equivalence,
    check_init_laws,
    check_seven_laws,
    compose,
    compose_init,
    dual,
    failure_family,
    fst_ibx,
    fst_lens,
    identity_bx,
    identity_family,
    identity_lens,
    inv_bx,
    join_states_general,
    left_identity_bijection,
    lens_to_bx,
    pair_bx,
    reader_family,
    right_identity_bijection,
    snd_lens,
    st_exec,
    sum_bx,
)
from effectbx.compose import _check_bijection, _check_middle
from effectbx.corpus import _switch_reader

BIT = FiniteDomain("bit", (0, 1))
PAIRS = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))


def _fst():
    return lens_to_bx(fst_lens(), PAIRS, BIT, name="fst")


def test_identity_bx_is_well_behaved_transparent_overwritable():
    bx = identity_bx(identity_family(), BIT)
    assert check_seven_laws(bx).ok
    assert check(bx, "overwritable").ok
    analysis = analyze_transparency(bx)
    assert analysis.transparent
    assert analysis.read_l(1) == 1 and analysis.read_r(0) == 0


def test_dual_swaps_operations():
    bx = _fst()
    d = dual(bx)
    assert dual(d).get_l.run((0, 1)) == bx.get_l.run((0, 1))
    assert d.get_l.run((0, 1)) == bx.get_r.run((0, 1))
    assert check_seven_laws(d).ok
    dd = dual(identity_bx(identity_family(), BIT))
    assert check_seven_laws(dd).ok and check(dd, "overwritable").ok


def test_dual_mirrors_law_verdicts():
    from effectbx.corpus import mutant_set_l_get_l

    bad = mutant_set_l_get_l()
    assert check_seven_laws(bad).failing_laws == ("set_l-get_l",)
    assert check_seven_laws(dual(bad)).failing_laws == ("set_r-get_r",)


def test_join_states_filters_by_middle_view():
    bx1 = _fst()
    bx2 = identity_bx(identity_family(), BIT)
    join = compose(bx1, bx2).state_domain
    assert set(join.elements) == {((a, b), a) for a in (0, 1) for b in (0, 1)}
    general = join_states_general(bx1, bx2)
    assert set(general.elements) == set(join.elements)
    at_failure = identity_bx(failure_family(), BIT)
    with pytest.raises(EffectbxError, match="requires the identity effect"):
        join_states_general(at_failure, at_failure)


def test_join_states_over_unhashable_states_matches_the_general_join():
    # list states do not hash, so the read maps find a state's view by scan
    lists = FiniteDomain("lists", ([], [0], [1], [0, 1]))
    fam = identity_family()
    bx1 = lens_to_bx(identity_lens(), lists, lists, fam, name="lists")
    bx2 = identity_bx(fam, lists)
    composed = compose(bx1, bx2)
    assert composed.state_domain == join_states_general(bx1, bx2)
    assert composed.state_domain.elements == tuple((s, s) for s in lists)


def test_compose_seven_laws_and_transparency():
    composed = compose(_fst(), identity_bx(identity_family(), BIT))
    assert check_seven_laws(composed).ok
    assert analyze_transparency(composed).transparent


def test_compose_operations_match_unpacked_form():
    bx1 = _fst()
    bx2 = identity_bx(identity_family(), BIT)
    composed = compose(bx1, bx2)
    s = ((0, 1), 0)
    # set left: set through bx1, read its right view, push into bx2
    _, (s1, s2) = composed.set_l((1, 0)).run(s)
    assert s1 == (1, 0) and s2 == 1
    # set right: push through bx2 first, then back into bx1
    _, (s1, s2) = composed.set_r(1).run(s)
    assert s2 == 1 and s1 == (1, 1)


def test_composed_operations_stay_in_join_states():
    bx1 = _fst()
    bx2 = identity_bx(identity_family(), BIT)
    composed = compose(bx1, bx2)
    members = set(composed.state_domain.elements)
    for s in composed.state_domain:
        for a in composed.dom_a:
            assert st_exec(composed.set_l(a), s) in members
        for c in composed.dom_b:
            assert st_exec(composed.set_r(c), s) in members


def test_compose_requires_transparency():
    fam = reader_family((False, True))
    with pytest.raises(NotTransparent) as err:
        compose(_switch_reader(), identity_bx(fam, BIT))
    assert "switch" in str(err.value)


COMBINERS = [
    lambda i, f: compose(f, i),
    lambda i, f: compose(i, f),
    lambda i, f: pair_bx(f, i),
    lambda i, f: sum_bx(f, i),
    lambda i, f: check_equivalence(i, f, StateBijection(lambda s: s, lambda s: s)),
]
COMBINER_IDS = ["compose-f-i", "compose-i-f", "pair", "sum", "equivalence"]


@pytest.mark.parametrize("combine", COMBINERS, ids=COMBINER_IDS)
def test_bx_at_different_effects_do_not_combine(combine):
    # every operation of the result is read at one effect; a component at
    # another would be misread (a failure value taken for an identity value)
    i = identity_bx(identity_family(), BIT, name="at-identity")
    f = identity_bx(failure_family(), BIT, name="at-failure")
    with pytest.raises(ValueError) as err:
        combine(i, f)
    for word in ("at-identity", "at-failure", "identity", "failure"):
        assert word in str(err.value)


@pytest.mark.parametrize("combine", COMBINERS, ids=COMBINER_IDS)
def test_bx_at_reader_families_over_different_contexts_do_not_combine(combine):
    # both families are named reader, but a combination compares its effect
    # values at the contexts of one: a set that misbehaves only at
    # environment 1 would pass every law at environment 0
    narrow = identity_bx(reader_family((0,)), BIT, name="over-0")
    wide = identity_bx(reader_family((0, 1)), BIT, name="over-01")
    with pytest.raises(ValueError) as err:
        combine(narrow, wide)
    for word in ("over-0 ", "over-01 ", "(0,)", "(0, 1)"):
        assert word in str(err.value)


def test_compose_middle_mismatch():
    bx1 = _fst()  # right view over {0,1}
    wide = identity_bx(identity_family(), FiniteDomain("wide", (0, 1, 2)))
    with pytest.raises(MiddleTypeMismatch):
        compose(bx1, wide)
    undeclared = replace(identity_bx(identity_family(), BIT), dom_a=None)
    with pytest.raises(MiddleTypeMismatch, match="needs declared middle domains"):
        compose(bx1, undeclared)


def test_identity_composition_equivalences():
    bx = _fst()
    fam = identity_family()
    left_comp = compose(identity_bx(fam, PAIRS), bx)
    assert check_equivalence(bx, left_comp, left_identity_bijection(bx)).ok
    right_comp = compose(bx, identity_bx(fam, BIT))
    assert check_equivalence(bx, right_comp, right_identity_bijection(bx)).ok


def test_associativity_equivalence():
    fam = identity_family()
    triples = [
        (identity_bx(fam, PAIRS, name="i1"), _fst(), identity_bx(fam, BIT, name="i2")),
        (identity_bx(fam, PAIRS, name="j1"), identity_bx(fam, PAIRS, name="j2"), _fst()),
        (
            dual(lens_to_bx(snd_lens(), PAIRS, BIT, name="snd")),
            _fst(),
            identity_bx(fam, BIT, name="k3"),
        ),
    ]
    for b1, b2, b3 in triples:
        lhs = compose(compose(b1, b2), b3)
        rhs = compose(b1, compose(b2, b3))
        assert check_equivalence(lhs, rhs, assoc_bijection()).ok


def test_wrong_bijection_fails_with_witness():
    fam = identity_family()
    bx = identity_bx(fam, BIT)
    composed = compose(identity_bx(fam, BIT), bx)
    # swapped components: backward picks the wrong slot
    wrong = StateBijection(forward=lambda s: (s, s), backward=lambda p: 1 - p[1])
    with pytest.raises(NotBijective):
        check_equivalence(bx, composed, wrong)
    # a genuine bijection that maps operations wrongly produces witnesses
    flipped = StateBijection(
        forward=lambda s: (1 - s, 1 - s), backward=lambda p: 1 - p[1]
    )
    report = check_equivalence(bx, composed, flipped)
    assert not report.ok
    assert report.law("iota-get_l").failures


def test_not_bijective_detection():
    fam = identity_family()
    bx = identity_bx(fam, BIT)
    composed = compose(identity_bx(fam, BIT), bx)
    squash = StateBijection(forward=lambda _s: (0, 0), backward=lambda p: p[1])
    with pytest.raises(NotBijective):
        check_equivalence(bx, composed, squash)
    outside = StateBijection(forward=lambda s: (s, 1 - s), backward=lambda p: p[0])
    with pytest.raises(NotBijective, match=r"forward image \(0, 1\) outside codomain"):
        check_equivalence(bx, composed, outside)
    one = identity_bx(fam, FiniteDomain("one", (0,)))
    with pytest.raises(NotBijective, match="not onto the codomain"):
        check_equivalence(one, bx, StateBijection(lambda s: s, lambda s: s))


def _unwrap(state):
    return state[0] if isinstance(state, list) else state


WRAPS = pytest.mark.parametrize("wrap", [
    lambda i: i,
    lambda i: [i],
    lambda i: [i] if i == 1 else i,
], ids=["hashable", "unhashable", "mixed"])


@WRAPS
def test_middle_domains_agree_in_any_order_for_views_that_hash_or_do_not(wrap):
    fam = identity_family()
    middle = lambda *views: identity_bx(fam, FiniteDomain("m", tuple(map(wrap, views))))
    _check_middle(middle(0, 1, 2), middle(2, 0, 1))
    for other in (middle(0, 1), middle(0, 1, 2, 3), middle(0, 1, 3)):
        with pytest.raises(MiddleTypeMismatch, match="middle domains disagree"):
            _check_middle(middle(0, 1, 2), other)
        with pytest.raises(MiddleTypeMismatch, match="middle domains disagree"):
            _check_middle(other, middle(0, 1, 2))


@WRAPS
def test_each_bijection_error_is_raised_for_states_that_hash_or_do_not(wrap):
    # states that hash are looked up in a set, the others compared by ==
    states = FiniteDomain("states", tuple(map(wrap, range(3))))
    first_two = FiniteDomain("first-two", tuple(map(wrap, range(2))))
    same = StateBijection(lambda s: s, lambda t: t)
    cases = [
        (StateBijection(lambda s: wrap(_unwrap(s) + 3), lambda t: t), states,
         f"forward image {wrap(3)!r} outside codomain"),
        (StateBijection(lambda s: wrap(0), lambda t: t), states,
         f"forward not injective at {wrap(1)!r}"),
        (StateBijection(lambda s: s, lambda t: wrap(0)), states,
         f"backward(forward({wrap(1)!r})) != {wrap(1)!r}"),
        (same, first_two, "forward not onto the codomain"),
    ]
    for h, domain, message in cases:
        with pytest.raises(NotBijective) as raised:
            _check_bijection(h, domain, states)
        assert str(raised.value) == message
    _check_bijection(same, states, states)


class _Counted:
    """A hashable state that counts the comparisons made with it."""

    comparisons = 0

    def __init__(self, i):
        self.i = i

    def __eq__(self, other):
        _Counted.comparisons += 1
        return isinstance(other, _Counted) and self.i == other.i

    def __hash__(self):
        return hash(self.i)


def test_a_bijection_of_hashable_states_is_checked_in_linear_comparisons():
    states = FiniteDomain("counted", tuple(map(_Counted, range(200))))
    _Counted.comparisons = 0
    _check_bijection(StateBijection(lambda s: _Counted(s.i), lambda t: _Counted(t.i)),
                     states, states)
    assert _Counted.comparisons <= 2 * len(states)


def test_compose_init_lands_in_join_and_satisfies_laws():
    fam = identity_family()
    bx1 = identity_bx(fam, PAIRS, name="idp")
    bx2 = fst_ibx(fam, BIT, BIT, default_b=0)
    composed = compose_init(bx1, bx2)
    assert check_init_laws(composed).ok
    members = set(composed.state_domain.elements)
    for a in composed.dom_a:
        assert composed.init_l(a) in members
    for c in composed.dom_b:
        assert composed.init_r(c) in members


def test_compose_init_propagates_failure_zero():
    from fractions import Fraction

    from effectbx import Just

    bx1 = inv_bx()
    bx2 = identity_bx(failure_family(), bx1.dom_b, name="idq")
    composed = compose_init(bx1, bx2)
    assert composed.init_l(Fraction(0)) is NOTHING
    assert composed.init_l(Fraction(2)) == Just(
        ((Fraction(2), Fraction(1, 2)), Fraction(1, 2))
    )


def test_mlens_route_agrees_pointwise():
    fam = identity_family()
    cases = [
        (identity_bx(fam, PAIRS), _fst()),
        (_fst(), identity_bx(fam, BIT)),
        (dual(lens_to_bx(snd_lens(), PAIRS, BIT)), _fst()),
    ]
    for bx1, bx2 in cases:
        direct = compose(bx1, bx2)
        alt = compose(bx1, bx2, via_theta=True)
        for s in direct.state_domain:
            assert fam.equal_values(direct.get_l.run(s), alt.get_l.run(s))
            assert fam.equal_values(direct.get_r.run(s), alt.get_r.run(s))
            for a in direct.dom_a:
                assert fam.equal_values(direct.set_l(a).run(s), alt.set_l(a).run(s))
            for c in direct.dom_b:
                assert fam.equal_values(direct.set_r(c).run(s), alt.set_r(c).run(s))


def test_effectful_composition_with_failure():
    bx1 = inv_bx()
    bx2 = identity_bx(failure_family(), bx1.dom_b, name="idq")
    composed = compose(bx1, bx2)
    assert check_seven_laws(composed).ok
    assert analyze_transparency(composed).transparent


@pytest.mark.parametrize("combine, operands", [
    (dual, ("init",)),
    (dual, ("plain",)),
    (pair_bx, ("init", "init")),
    (pair_bx, ("init", "plain")),
    (pair_bx, ("plain", "init")),
    (sum_bx, ("init", "init")),
    (sum_bx, ("init", "plain")),
    (sum_bx, ("plain", "init")),
    (compose, ("init", "init")),
    (compose, ("init", "plain")),
    (compose, ("plain", "init-bit")),
], ids=["dual-init", "dual-plain", "pair-init-init", "pair-init-plain", "pair-plain-init",
        "sum-init-init", "sum-init-plain", "sum-plain-init", "compose-init-init",
        "compose-init-plain", "compose-plain-init"])
def test_initialisers_survive_exactly_when_every_component_has_them(combine, operands):
    fam = identity_family()
    bxs = {
        "init": identity_bx(fam, PAIRS, name="init"),
        "init-bit": identity_bx(fam, BIT, name="init-bit"),
        "plain": lens_to_bx(fst_lens(), PAIRS, BIT, name="plain"),
    }
    combined = combine(*(bxs[name] for name in operands))
    if "plain" in operands:
        with pytest.raises(NoInitializers, match="has no initializers"):
            check(combined, "init")
    else:
        assert check(combined, "init").ok
