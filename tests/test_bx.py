"""The bx interface: seven laws, overwritability, transparency, consistency,
stability, initialization, lens subsumption."""

from dataclasses import replace
from fractions import Fraction

import pytest

from effectbx import (
    FiniteDomain,
    Stateful,
    UnobservableEffect,
    analyze_transparency,
    check_init_laws,
    check_seven_laws,
    check_suite,
    consistent_pairs,
    const_bx,
    fst_lens,
    identity_bx,
    identity_family,
    inv_bx,
    Bx,
    InitBx,
    Lens,
    lens_to_bx,
    log_bx,
    writer_family,
)
from effectbx.corpus import (
    MUTANT_LAW_TARGETS,
    broken_view_update_lens,
    corpus_entries,
    mutant_bad_init,
    mutant_unstable,
    recheck_witness,
    run_corpus,
    _switch_reader,
)

BIT = FiniteDomain("bit", (0, 1))
PAIRS = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))


def _entry(name):
    return {e.name: e for e in corpus_entries()}[name]


def test_identity_bx_seven_laws_pass():
    report = check_seven_laws(identity_bx(identity_family(), BIT))
    assert report.ok
    assert len(report.laws) == 7


def test_inv_bx_seven_laws_pass():
    assert check_seven_laws(inv_bx()).ok


def test_setl_forgetting_mutant_fails_with_witness():
    bx = _entry("mutant-set_l-get_l").build()
    report = check_seven_laws(bx)
    assert report.failing_laws == ("set_l-get_l",)
    w = report.law("set_l-get_l").failures[0]
    assert recheck_witness(bx, "seven", "set_l-get_l", w.env)


@pytest.mark.parametrize("name,target", sorted(MUTANT_LAW_TARGETS.items()))
def test_each_mutant_fails_exactly_its_law(name, target):
    entry = _entry(name)
    bx = entry.build()
    report = check_seven_laws(bx)
    assert report.failing_laws == (target,)
    w = report.law(target).failures[0]
    assert w.inputs == entry.expected_witness[f"seven:{target}"]
    assert recheck_witness(bx, "seven", target, w.env)


def test_overwritable_verdicts():
    assert check_suite(identity_bx(identity_family(), BIT), "overwritable").ok
    fstbx = lens_to_bx(fst_lens(), PAIRS, BIT)
    assert check_suite(fstbx, "overwritable").ok
    wrapped = log_bx(identity_bx(writer_family(), BIT))
    report = check_suite(wrapped, "overwritable")
    assert set(report.failing_laws) == {"set_l-set_l", "set_r-set_r"}


def test_transparency_identity():
    analysis = analyze_transparency(identity_bx(identity_family(), BIT))
    assert analysis.transparent
    read_l = analysis.read_l_fn()
    for s in BIT:
        assert read_l(s) == s


def test_transparency_reads_an_unhashable_state_by_equality_not_repr():
    # [0] and "[0]" print alike; the read maps must still tell them apart
    analysis = analyze_transparency(
        identity_bx(identity_family(), FiniteDomain("mixed", ([0], "[0]"))))
    assert analysis.read_l_fn()([0]) == [0]
    assert analysis.read_r_fn()("[0]") == "[0]"


def test_transparency_resolves_a_state_outside_the_domain_through_a_pure_get():
    fam = identity_family()
    bx = identity_bx(fam, BIT)
    # at 2 get_l leaves the state, so it is not a pure query there
    escaping = replace(bx, get_l=Stateful(fam, lambda s: (s, 0 if s == 2 else s)))
    analysis = analyze_transparency(escaping)
    assert analysis.transparent
    assert analysis.read_r_fn()(2) == 2
    with pytest.raises(UnobservableEffect, match="not a pure query at state 2"):
        analysis.read_l_fn()(2)


def test_transparency_switch_is_opaque():
    analysis = analyze_transparency(_switch_reader())
    assert not analysis.transparent
    assert analysis.opaque_states


def test_log_wrapping_preserves_transparency():
    wrapped = log_bx(identity_bx(writer_family(), BIT))
    assert analyze_transparency(wrapped).transparent


def test_extracted_read_matches_get_pointwise():
    bx = lens_to_bx(fst_lens(), PAIRS, BIT)
    analysis = analyze_transparency(bx)
    read_r = analysis.read_r_fn()
    fam = bx.effect
    for s in bx.state_domain:
        assert fam.equal_values(bx.get_r.run(s), fam.unit((read_r(s), s)))


def test_transparency_implies_get_laws_across_corpus():
    get_laws = {"get_l-get_l", "get_r-get_r", "get_l-get_r"}
    checked = 0
    for entry in corpus_entries():
        if entry.transparent is not True:
            continue
        bx = entry.build()
        report = check_seven_laws(bx)
        assert not (set(report.failing_laws) & get_laws), entry.name
        checked += 1
    assert checked >= 10


def test_consistent_pairs_identity():
    pairs = consistent_pairs(identity_bx(identity_family(), BIT))
    assert set(pairs) == {(0, 0), (1, 1)}


def test_consistent_pairs_inv():
    bx = inv_bx()
    pairs = consistent_pairs(bx)
    assert all(b == 1 / a for a, b in pairs)
    assert (Fraction(4), Fraction(1, 4)) in pairs


def test_consistent_pairs_const():
    bx = const_bx(identity_family(), 0, BIT)
    assert set(consistent_pairs(bx)) == {((), 0), ((), 1)}


def test_stability_verdicts():
    assert check_suite(identity_bx(identity_family(), BIT), "stability").ok
    assert check_suite(inv_bx(), "stability").ok
    bad = mutant_unstable()
    assert check_seven_laws(bad).ok  # well-behaved...
    report = check_suite(bad, "stability")   # ...but unstable
    assert report.failing_laws == ("stable-set_l-first",)
    assert report.law("stable-set_l-first").failures


def test_init_laws():
    fam = identity_family()
    assert check_init_laws(identity_bx(fam, BIT)).ok
    report = check_init_laws(mutant_bad_init())
    assert report.failing_laws == ("init_l-get_l",)
    w = report.law("init_l-get_l").failures[0]
    assert w.inputs == {"a": "1"}


def test_check_suite_names_the_subject_per_suite():
    bx = identity_bx(identity_family(), BIT)
    assert check_suite(bx, "seven").subject == "identity"
    for suite in ("overwritable", "stability", "init"):
        assert check_suite(bx, suite).subject == f"identity:{suite}"


def test_check_suite_refuses_init_without_initializers():
    with pytest.raises(ValueError, match="mutant-unstable has no initializers"):
        check_suite(mutant_unstable(), "init")


def test_run_corpus_refuses_unknown_entry_names():
    with pytest.raises(ValueError) as info:
        run_corpus(names={"identity", "no-such-entry"})
    message = str(info.value)
    assert "unknown bx 'no-such-entry'" in message
    assert "known: " in message and "mutant-bad-init" in message
    selected = run_corpus(names={"identity"})
    assert [e["name"] for e in selected["entries"]] == ["identity"]


def test_run_corpus_records_a_refused_init_suite(monkeypatch):
    from effectbx import corpus

    entry = corpus.CorpusEntry("plain", mutant_unstable, ("seven", "init"))
    monkeypatch.setattr(corpus, "corpus_entries", lambda: (entry,))
    result = run_corpus()
    assert not result["ok"]
    (got,) = result["entries"]
    assert got["problems"] == ["init: mutant-unstable has no initializers"]
    assert list(got["suites"]) == ["seven"]


@pytest.mark.parametrize("suites, expected_failing", [
    (("seven", "stabilty"), {}),
    (("seven",), {"int": ("init_l-get_l",)}),
], ids=["suites", "expected_failing"])
def test_corpus_entry_refuses_unknown_suite_names(suites, expected_failing):
    from effectbx.corpus import CorpusEntry

    with pytest.raises(ValueError, match="unknown suite") as info:
        CorpusEntry("typo", mutant_unstable, suites, expected_failing=expected_failing)
    assert "known: seven, overwritable, stability, init" in str(info.value)


def test_lens_to_bx_get_r_is_view():
    bx = lens_to_bx(fst_lens(), PAIRS, BIT)
    for s in PAIRS:
        value, state = bx.get_r.run(s)
        assert value == s[0] and state == s
    assert check_seven_laws(bx).ok
    assert set(consistent_pairs(bx)) == {(s, s[0]) for s in PAIRS}


def test_lens_to_bx_broken_lens_fails_get_r_set_r():
    report = check_seven_laws(broken_view_update_lens())
    assert report.failing_laws == ("get_r-set_r",)


def test_lens_to_ibx_create_feeds_init():
    bx = lens_to_bx(fst_lens(default_b=7), PAIRS, BIT)
    assert bx.init_r(1) == (1, 7)
    assert bx.init_l((0, 1)) == (0, 1)


def test_lens_to_bx_initialises_exactly_the_lenses_with_create():
    assert type(lens_to_bx(fst_lens(), PAIRS, BIT)) is Bx
    assert isinstance(lens_to_bx(fst_lens(default_b=0), PAIRS, BIT), InitBx)
    # the corpus lens mutant has a create, so it is initialisable and lawful there
    assert check_init_laws(broken_view_update_lens()).ok


def test_lens_to_bx_refuses_a_lens_at_another_effect():
    fam = writer_family()
    l = Lens(lambda s: s[0], lambda s, v: fam.unit((v, s[1])), effect=fam)
    with pytest.raises(ValueError, match="lens_to_bx requires the identity effect"):
        lens_to_bx(l, PAIRS, BIT)


def test_report_json_shape():
    report = check_seven_laws(identity_bx(identity_family(), BIT))
    payload = report.to_dict()
    assert payload["bx"] == "identity"
    assert payload["effect"] == "identity"
    assert [l["name"] for l in payload["laws"]] == [
        "get_l-get_l", "set_l-get_l", "get_l-set_l",
        "get_r-get_r", "set_r-get_r", "get_r-set_r", "get_l-get_r",
    ]
