"""Symmetric lenses: laws, the bx simulation, lens spans, effectful variant."""

import pytest

from effectbx import (
    DomainTooLarge,
    FiniteDomain,
    Just,
    NOTHING,
    SymLens,
    bx_to_symlens,
    check,
    check_seven_laws,
    consistent_triples,
    dual_symlens,
    failure_family,
    fst_lens,
    identity_bx,
    identity_family,
    identity_symlens,
    lens_span_to_symlens,
    lift_lens,
    lift_symlens,
    snd_lens,
    symlens_compose,
    symlens_to_bx,
    symlens_to_lens_span,
    writer_family,
)
from effectbx.examples import composers_symlens, composers_universe

BIT = FiniteDomain("bit", (0, 1))
OPT = FiniteDomain("opt", (NOTHING, Just(0), Just(1)))


def test_identity_symlens_laws():
    dom_c = FiniteDomain("c", (None, 0, 1))
    assert check(identity_symlens(), "symlens", dom_a=BIT, dom_b=BIT, dom_c=dom_c).ok


def test_composers_symlens_laws_small_universe():
    dom_a, dom_b, dom_c = composers_universe()
    report = check(composers_symlens(), "symlens", dom_a=dom_a, dom_b=dom_b, dom_c=dom_c)
    assert report.ok, report.failing_laws


def test_stale_complement_symlens_fails_put_r_put_l():
    # put_r forgets to refresh the complement
    sl = SymLens(
        put_r=lambda a, c: (a, c),
        put_l=lambda b, _c: (b, b),
        missing=0,
    )
    report = check(sl, "symlens", dom_a=BIT, dom_b=BIT, dom_c=BIT)
    assert "put_r-put_l" in report.failing_laws
    w = report.law("put_r-put_l").failures[0]
    a, c = eval(w.inputs["a"]), eval(w.inputs["c"])
    b, c1 = sl.put_r(a, c)
    assert sl.put_l(b, c1) != (a, c1)


def test_identity_symlens_to_bx_behaves_like_identity_bx():
    converted = symlens_to_bx(identity_symlens(), BIT, BIT)
    assert check_seven_laws(converted).ok
    ident = identity_bx(identity_family(), BIT)
    # on the consistent triple (a, a, a) every operation mirrors the plain
    # identity bx on state a
    for (a, b, c) in converted.state_domain:
        assert a == b == c
        got_a, _ = converted.get_l.run((a, b, c))
        assert got_a == ident.get_l.run(a)[0]
        for a1 in BIT:
            _, t1 = converted.set_l(a1).run((a, b, c))
            assert t1 == (a1, a1, a1)


def test_composers_conversion_matches_symlens_put():
    sl = composers_symlens()
    bx = symlens_to_bx(sl, *composers_universe()[:2], name="composers")
    only = frozenset({("J. S. Bach", "German", ("1685", "1750"))})
    # through the bx: init empty, set left, read right
    s0 = bx.init_r(())
    _, s1 = bx.set_l(only).run(s0)
    rows, _ = bx.get_r.run(s1)
    # directly through the symmetric lens
    _, c0 = sl.put_l((), sl.missing)
    rows_sl, _ = sl.put_r(only, c0)
    assert rows == rows_sl == (("J. S. Bach", "German"),)


def test_converted_bx_stays_in_consistent_triples():
    dom_a, dom_b, _ = composers_universe()
    sl = composers_symlens()
    bx = symlens_to_bx(sl, dom_a, dom_b)
    triples = set(bx.state_domain.elements)
    for t in bx.state_domain:
        for a in dom_a:
            _, t1 = bx.set_l(a).run(t)
            assert t1 in triples
        for b in dom_b:
            _, t1 = bx.set_r(b).run(t)
            assert t1 in triples


def test_bx_to_symlens_round_trip_preserves_puts():
    sl = identity_symlens()
    bx = symlens_to_bx(sl, BIT, BIT)
    back = bx_to_symlens(bx)
    assert back.missing is NOTHING
    # enumeration oracle: compare outputs against the original on every view,
    # threading complements forward
    for a in BIT:
        b_direct, c_direct = sl.put_r(a, sl.missing)
        b_back, mc = back.put_r(a, NOTHING)
        assert b_back == b_direct
        for b1 in BIT:
            a_direct, _ = sl.put_l(b1, c_direct)
            a_back, _ = back.put_l(b1, mc)
            assert a_back == a_direct


def test_bx_to_symlens_absent_complement_uses_init():
    calls = []
    base = identity_bx(identity_family(), BIT)
    from effectbx import Bx

    tracked = Bx(
        name="tracked",
        effect=base.effect,
        get_l=base.get_l,
        set_l=base.set_l,
        get_r=base.get_r,
        set_r=base.set_r,
        state_domain=base.state_domain,
        dom_a=base.dom_a,
        dom_b=base.dom_b,
        init_l=lambda a: calls.append(("l", a)) or a,
        init_r=base.init_r,
    )
    back = bx_to_symlens(tracked)
    back.put_r(1, NOTHING)
    assert calls == [("l", 1)]
    calls.clear()
    back.put_r(1, Just(0))
    assert calls == []


def test_bx_to_symlens_satisfies_laws():
    bx = identity_bx(identity_family(), BIT)
    back = bx_to_symlens(bx)
    assert check(back, "symlens", dom_a=BIT, dom_b=BIT, dom_c=OPT).ok


def test_lens_span_round_trips():
    # identity span -> symlens behaving like the identity symlens
    from effectbx import identity_lens

    sl = lens_span_to_symlens(identity_lens(), identity_lens())
    assert check(sl, "symlens", dom_a=BIT, dom_b=BIT, dom_c=OPT).ok
    b, c = sl.put_r(1, NOTHING)
    assert b == 1 and c == Just(1)


def test_span_of_projections():
    pairs = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))
    comp_dom = FiniteDomain("c", (NOTHING,) + tuple(Just(p) for p in pairs))
    sl = lens_span_to_symlens(fst_lens(0), snd_lens(0))
    assert check(sl, "symlens", dom_a=BIT, dom_b=BIT, dom_c=comp_dom).ok
    # relates the two components through the shared pair
    b, c = sl.put_r(1, Just((0, 1)))
    assert b == 1 and c == Just((1, 1))


def test_span_extracted_from_composers_satisfies_lens_laws():
    dom_a, dom_b, _ = composers_universe()
    sl = composers_symlens()
    l1, l2 = symlens_to_lens_span(sl)
    triples = consistent_triples(sl, dom_a, dom_b)
    states = FiniteDomain("triples", triples.elements)
    assert check(l1, "lens", dom_a=states, dom_b=dom_a).law("update-view").ok
    assert check(l1, "lens", dom_a=states, dom_b=dom_a).law("view-update").ok
    assert check(l2, "lens", dom_a=states, dom_b=dom_b).law("update-view").ok
    assert check(l2, "lens", dom_a=states, dom_b=dom_b).law("view-update").ok


def test_consistent_triples_refuses_a_closure_that_never_converges():
    # the complement grows on every put, so the closure never closes
    sl = SymLens(put_r=lambda a, c: (a, c + 1), put_l=lambda b, c: (b, c + 1),
                 missing=0)
    with pytest.raises(DomainTooLarge):
        consistent_triples(sl, BIT, BIT)


def test_consistent_triples_refuse_more_triples_than_the_cap(monkeypatch):
    # a complement that records history doubles the frontier every round, so
    # the closure is refused by its number of triples long before its
    # rounds run out (14 rounds would find 65,534 triples)
    from effectbx import symlens

    monkeypatch.setattr(symlens, "_MAX_TRIPLES", 1_000)
    monkeypatch.setattr(symlens, "_CLOSURE_ROUNDS", 14)
    sl = SymLens(put_r=lambda a, c: (a, c + (a,)), put_l=lambda b, c: (b, c + (b,)),
                 missing=())
    with pytest.raises(DomainTooLarge, match="bound of 1000 triples"):
        consistent_triples(sl, BIT, BIT)


def test_consistent_triples_tell_unhashable_triples_apart_by_equality():
    # a list complement does not hash, so a triple is looked up by ==; the
    # triples and their order are those of the same lens with tuples
    def lens(wrap):
        return SymLens(put_r=lambda a, _c: (a, wrap([a])),
                       put_l=lambda b, _c: (b, wrap([b])), missing=wrap([]))

    listed = consistent_triples(lens(list), BIT, BIT).elements
    assert listed == ((0, 0, [0]), (1, 1, [1]))
    assert tuple((a, b, tuple(c)) for a, b, c in listed) == \
        consistent_triples(lens(tuple), BIT, BIT).elements


def test_lawful_symlenses_convert_to_lawful_bx():
    # quantified over the small corpus of symmetric lenses: whenever the put
    # round-trip laws hold, the simulated bx passes the seven-law suite
    from effectbx import check_init_laws, fst_lens, snd_lens

    pairs = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))
    span = lens_span_to_symlens(fst_lens(0), snd_lens(0))
    comp_dom = FiniteDomain("c", (NOTHING,) + tuple(Just(p) for p in pairs))
    cases = [
        (identity_symlens(), BIT, BIT, FiniteDomain("ci", (None, 0, 1))),
        (composers_symlens(), *composers_universe()),
        (span, BIT, BIT, comp_dom),
    ]
    for sl, dom_a, dom_b, dom_c in cases:
        assert check(sl, "symlens", dom_a=dom_a, dom_b=dom_b, dom_c=dom_c).ok
        bx = symlens_to_bx(sl, dom_a, dom_b)
        assert check_seven_laws(bx).ok
        assert check_init_laws(bx).ok


def test_second_composers_scenario_agrees():
    # fixture variant: seed from the right first, then edit both sides
    from effectbx import composers_scenario

    script = [
        {"op": "setR", "value": [["Kim", "DE"], ["Bea", "AT"]]},
        {"op": "getL"},
        {"op": "setL", "value": [["Bea", "AT", ["1", "2"]], ["Kim", "DE", None]]},
        {"op": "getR"},
        {"op": "setR", "value": [["Bea", "AT"]]},
        {"op": "getL"},
    ]
    report = composers_scenario(script)
    assert report["ok"], report["steps"]
    # row order from the right seed is preserved on the left complement path
    assert report["steps"][3]["bx"] == [["Kim", "DE"], ["Bea", "AT"]]


def test_symmlens_composition_preserves_monadic_laws():
    fam = failure_family()
    sl1 = lift_symlens(fam, identity_symlens())
    sl2 = lift_symlens(fam, identity_symlens())
    composed = symlens_compose(sl1, sl2)
    dom_c = FiniteDomain("cc", ((None, None), (0, 0), (0, 1), (1, 0), (1, 1)))
    assert check(composed, "symlens", dom_a=BIT, dom_b=BIT, dom_c=dom_c).ok
    assert composed.missing == (None, None)


def test_effectful_symmlens_with_failure():
    fam = failure_family()

    def guarded_put(v, _c):
        return fam.unit((v, v)) if v != 99 else NOTHING

    sl = SymLens(put_r=guarded_put, put_l=guarded_put, missing=None, effect=fam)
    dom = FiniteDomain("v", (0, 99))
    dom_c = FiniteDomain("c", (None, 0, 99))
    assert check(sl, "symlens", dom_a=dom, dom_b=dom, dom_c=dom_c).ok


def test_lifted_symlens_fails_the_laws_its_pure_form_fails():
    # the pure laws are the effectful ones at the identity effect, under the
    # same names, so a lifted lens fails the same laws at the same inputs
    stale = SymLens(put_r=lambda a, c: (a, c), put_l=lambda b, _c: (b, b), missing=0)
    pure = check(stale, "symlens", dom_a=BIT, dom_b=BIT, dom_c=BIT)
    lifted = check(lift_symlens(failure_family(), stale), "symlens", dom_a=BIT, dom_b=BIT,
                   dom_c=BIT)
    assert lifted.failing_laws == pure.failing_laws == ("put_r-put_l",)
    assert ([w.inputs for w in lifted.law("put_r-put_l").failures]
            == [w.inputs for w in pure.law("put_r-put_l").failures])


def test_symlens_to_bx_refuses_a_symlens_at_another_effect():
    sl = lift_symlens(writer_family(), identity_symlens())
    with pytest.raises(ValueError, match="symlens_to_bx requires the identity effect"):
        symlens_to_bx(sl, BIT, BIT)


def test_span_conversions_and_lifts_refuse_lenses_at_another_effect():
    fam = writer_family()
    sl = lift_symlens(fam, identity_symlens())
    lens = lift_lens(fam, fst_lens(0))
    for convert, name in [
        (lambda: symlens_to_lens_span(sl), "symlens_to_lens_span"),
        (lambda: lens_span_to_symlens(lens, snd_lens(0)), "lens_span_to_symlens"),
        (lambda: lens_span_to_symlens(fst_lens(0), lens), "lens_span_to_symlens"),
        (lambda: lift_symlens(failure_family(), sl), "lift_symlens"),
        (lambda: lift_lens(failure_family(), lens), "lift_lens"),
    ]:
        with pytest.raises(ValueError, match=f"{name} requires the identity effect, not writer"):
            convert()


def test_dual_of_the_dual_is_the_original_over_consistent_triples():
    sl = composers_symlens()
    dom_a, dom_b, _dom_c = composers_universe()
    triples = consistent_triples(sl, dom_a, dom_b)
    twice = dual_symlens(dual_symlens(sl))
    assert twice.missing == sl.missing
    for a, b, c in triples:
        assert twice.put_r(a, c) == sl.put_r(a, c)
        assert twice.put_l(b, c) == sl.put_l(b, c)
    # one dual swaps the sides, so its consistent triples are the swapped ones
    swapped = consistent_triples(dual_symlens(sl), dom_b, dom_a)
    assert len(swapped) == len(triples)
    assert all((a, b, c) in triples.elements for b, a, c in swapped)
