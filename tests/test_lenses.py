"""Lenses, the widening embedding, and the product-state liftings."""

from effectbx import (
    FiniteDomain,
    Lens,
    check,
    check_theta_morphism,
    failure_family,
    fst_lens,
    identity_family,
    identity_lens,
    left,
    lens_compose,
    lift_lens,
    right,
    snd_lens,
    st_get,
    st_gets,
    st_set,
    stateful_equal,
    theta,
    writer_family,
)
from effectbx.corpus import non_overwrite_lens
from effectbx.stateful import enumerate_stateful

BIT = FiniteDomain("bit", (0, 1))
PAIRS = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))


def test_fst_lens_laws():
    report = check(fst_lens(), "lens", dom_a=PAIRS, dom_b=BIT)
    assert report.ok
    assert {r.name for r in report.laws} == {
        "update-view", "view-update", "update-update",
    }


def test_identity_lens_laws():
    assert check(identity_lens(), "lens", dom_a=BIT, dom_b=BIT).ok


def test_update_ignoring_view_fails_with_witness():
    l = Lens(lambda s: s[0], lambda s, _v: s, lambda v: (v, 0))
    report = check(l, "lens", dom_a=PAIRS, dom_b=BIT)
    assert "update-view" in report.failing_laws
    w = report.law("update-view").failures[0]
    # the witness reproduces: view(update(s, v)) really is not v
    s, v = eval(w.inputs["s"]), eval(w.inputs["v"])
    assert l.view(l.update(s, v)) != v


def test_non_overwrite_lens_fails_only_update_update():
    report = check(non_overwrite_lens(), "lens", dom_a=PAIRS, dom_b=BIT)
    assert report.failing_laws == ("update-update",)


def test_theta_identity_lens_is_identity():
    fam = identity_family()
    for m in enumerate_stateful(fam, BIT, BIT):
        assert stateful_equal(theta(identity_lens(), m), m, BIT)


def test_theta_fst_set():
    fam = identity_family()
    assert theta(fst_lens(), st_set(fam, 5)).run((1, 2)) == ((), (5, 2))


def test_theta_morphism_for_very_well_behaved_lenses():
    fam = identity_family()
    assert check_theta_morphism(fst_lens(), fam, PAIRS, BIT, BIT).ok
    assert check_theta_morphism(snd_lens(), fam, PAIRS, BIT, BIT).ok
    assert check_theta_morphism(identity_lens(), fam, BIT, BIT, BIT).ok


def test_theta_morphism_counterexample_for_non_overwritable_lens():
    fam = identity_family()
    report = check_theta_morphism(non_overwrite_lens(), fam, PAIRS, BIT, BIT)
    assert report.failing_laws == ("theta-preserves-bind",)


def test_left_right_simplified_behaviour():
    fam = identity_family()
    assert left(st_get(fam)).run(("a", "b")) == ("a", ("a", "b"))
    assert right(st_set(fam, "y")).run(("a", "b")) == ((), ("a", "y"))


def test_left_gets_commutes_with_right():
    fam = identity_family()
    f = lambda s: s + 1
    for m in enumerate_stateful(fam, BIT, BIT):
        lhs = left(st_gets(fam, f)).bind(lambda a: right(m).map(lambda b: (a, b)))
        rhs = right(m).bind(lambda b: left(st_gets(fam, f)).map(lambda a: (a, b)))
        assert stateful_equal(lhs, rhs, PAIRS)


def test_left_right_are_monad_morphisms():
    fam = identity_family()
    assert check_theta_morphism(fst_lens(), fam, PAIRS, BIT, BIT).ok
    assert check_theta_morphism(snd_lens(), fam, PAIRS, BIT, BIT).ok


def test_mlens_identity_passes():
    fam = identity_family()
    ml = lift_lens(fam, identity_lens())
    assert check(ml, "lens", dom_a=BIT, dom_b=BIT).ok


def test_lifted_lens_passes_iff_lens_does():
    fam = failure_family()
    good = lift_lens(fam, fst_lens())
    assert check(good, "lens", dom_a=PAIRS, dom_b=BIT).ok
    bad = lift_lens(fam, Lens(lambda s: s[0], lambda s, _v: s, None))
    report = check(bad, "lens", dom_a=PAIRS, dom_b=BIT)
    assert not report.ok
    assert check(
        Lens(lambda s: s[0], lambda s, _v: s, None), "lens", dom_a=PAIRS, dom_b=BIT
    ).failing_laws != ()


def test_mlens_with_logging_create_keeps_view_update():
    # an effectful create does not disturb the update/view round trips
    fam = writer_family()
    ml = Lens(
        view=lambda s: s[0],
        update=lambda s, v: fam.unit((v, s[1])),
        create=lambda v: fam.bind(((), ("created",)), lambda _u: fam.unit((v, 0))),
        effect=fam,
    )
    report = check(ml, "lens", dom_a=PAIRS, dom_b=BIT)
    assert report.law("view-update").ok
    assert report.ok


def test_mlens_composition_rechecked():
    fam = identity_family()
    inner = lift_lens(fam, fst_lens())
    outer = lift_lens(fam, identity_lens())
    composed = lens_compose(inner, outer)
    assert check(composed, "lens", dom_a=PAIRS, dom_b=BIT).ok
    assert composed.view((3, 4)) == 3


def test_mlens_composition_creates_through_both_lenses():
    fam = identity_family()
    with_create = lift_lens(fam, fst_lens(0))
    composed = lens_compose(with_create, with_create)
    assert [composed.create(v) for v in (0, 1)] == [((0, 0), 0), ((1, 0), 0)]
    without_create = lift_lens(fam, fst_lens())
    assert lens_compose(with_create, without_create).create is None
    assert lens_compose(without_create, with_create).create is None
