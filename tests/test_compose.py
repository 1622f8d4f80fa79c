"""Composition over join states, identity/duality, and equivalence checking."""

import pytest

from effectbx import (
    FiniteDomain,
    MiddleTypeMismatch,
    NOTHING,
    NotBijective,
    NotTransparent,
    StateBijection,
    analyze_transparency,
    assoc_bijection,
    check_equivalence,
    check_init_laws,
    check_seven_laws,
    check_suite,
    compose,
    compose_init,
    dual,
    failure_family,
    fst_ibx,
    fst_lens,
    identity_bx,
    identity_family,
    inv_bx,
    join_states,
    join_states_general,
    left_identity_bijection,
    lens_to_bx,
    reader_family,
    right_identity_bijection,
    snd_lens,
    st_exec,
)
from effectbx.corpus import _switch_reader

BIT = FiniteDomain("bit", (0, 1))
PAIRS = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))


def _fst():
    return lens_to_bx(fst_lens(), PAIRS, BIT, name="fst")


def test_identity_bx_is_well_behaved_transparent_overwritable():
    bx = identity_bx(identity_family(), BIT)
    assert check_seven_laws(bx).ok
    assert check_suite(bx, "overwritable").ok
    analysis = analyze_transparency(bx)
    assert analysis.transparent
    assert analysis.read_l_fn()(1) == 1 and analysis.read_r_fn()(0) == 0


def test_dual_swaps_operations():
    bx = _fst()
    d = dual(bx)
    assert dual(d).get_l.run((0, 1)) == bx.get_l.run((0, 1))
    assert d.get_l.run((0, 1)) == bx.get_r.run((0, 1))
    assert check_seven_laws(d).ok
    dd = dual(identity_bx(identity_family(), BIT))
    assert check_seven_laws(dd).ok and check_suite(dd, "overwritable").ok


def test_dual_mirrors_law_verdicts():
    from effectbx.corpus import mutant_set_l_get_l

    bad = mutant_set_l_get_l()
    assert check_seven_laws(bad).failing_laws == ("set_l-get_l",)
    assert check_seven_laws(dual(bad)).failing_laws == ("set_r-get_r",)


def test_join_states_filters_by_middle_view():
    bx1 = _fst()
    bx2 = identity_bx(identity_family(), BIT)
    join = join_states(bx1, bx2)
    assert set(join.elements) == {((a, b), a) for a in (0, 1) for b in (0, 1)}
    general = join_states_general(bx1, bx2)
    assert set(general.elements) == set(join.elements)


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


def test_compose_middle_mismatch():
    bx1 = _fst()  # right view over {0,1}
    wide = identity_bx(identity_family(), FiniteDomain("wide", (0, 1, 2)))
    with pytest.raises(MiddleTypeMismatch):
        compose(bx1, wide)


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
