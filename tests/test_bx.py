"""The bx interface: seven laws, overwritability, transparency, consistency,
stability, initialization, lens subsumption."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from effectbx import (
    FiniteDomain,
    Stateful,
    UnobservableEffect,
    analyze_transparency,
    bx_to_symlens,
    check,
    check_init_laws,
    check_seven_laws,
    compose,
    compose_init,
    composers_bx,
    console_family,
    consistent_pairs,
    const_bx,
    dynamic_console_bx,
    failure_family,
    fst_lens,
    identity_bx,
    identity_family,
    inv_bx,
    list_ibx,
    Bx,
    Lens,
    NoInitializers,
    dual,
    identity_symlens,
    lens_to_bx,
    lift_lens,
    log_bx,
    pair_bx,
    run_laws,
    seven_laws,
    snd_lens,
    span_bx,
    sum_bx,
    symlens_to_bx,
    writer_family,
)
from effectbx import bx as bx_module
from effectbx.bx import _extract_pure, legs_of
from effectbx.corpus import (
    MUTANT_LAW_TARGETS,
    broken_view_update_lens,
    corpus_entries,
    mutant_bad_init,
    mutant_unstable,
    non_overwrite_lens,
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
    with pytest.raises(KeyError, match="set_l-get_r"):
        report.law("set_l-get_r")
    with pytest.raises(KeyError, match="set_l-get_r"):
        recheck_witness(bx, "seven", "set_l-get_r", w.env)


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
    assert check(identity_bx(identity_family(), BIT), "overwritable").ok
    fstbx = lens_to_bx(fst_lens(), PAIRS, BIT)
    assert check(fstbx, "overwritable").ok
    wrapped = log_bx(identity_bx(writer_family(), BIT))
    report = check(wrapped, "overwritable")
    assert set(report.failing_laws) == {"set_l-set_l", "set_r-set_r"}


def test_transparency_identity():
    analysis = analyze_transparency(identity_bx(identity_family(), BIT))
    assert analysis.transparent
    read_l = analysis.read_l
    for s in BIT:
        assert read_l(s) == s


def test_transparency_reads_an_unhashable_state_by_equality_not_repr():
    # [0] and "[0]" print alike; the read maps must still tell them apart
    analysis = analyze_transparency(
        identity_bx(identity_family(), FiniteDomain("mixed", ([0], "[0]"))))
    assert analysis.read_l([0]) == [0]
    assert analysis.read_r("[0]") == "[0]"


def test_transparency_resolves_a_state_outside_the_domain_through_a_pure_get():
    fam = identity_family()
    bx = identity_bx(fam, BIT)
    # at 2 get_l leaves the state, so it is not a pure query there
    escaping = replace(bx, get_l=Stateful(fam, lambda s: (s, 0 if s == 2 else s)))
    analysis = analyze_transparency(escaping)
    assert analysis.transparent
    assert analysis.read_r(2) == 2
    with pytest.raises(UnobservableEffect, match="not a pure query at state 2"):
        analysis.read_l(2)


def test_a_read_outside_the_domain_extracts_the_view_once(monkeypatch):
    # dynamic-identity's memos grow past the one entry its declared states
    # hold; the first read of such a state extracts its view, and later
    # reads find it in the table
    bx = _entry("dynamic-identity").build()
    analysis = analyze_transparency(bx)
    outside = ((0, 1), (((1, 0), 0), ((1, 1), 1)), ())
    assert outside not in bx.state_domain.elements
    extracted = []

    def counting(fam, getter, s, dom):
        extracted.append(s)
        return _extract_pure(fam, getter, s, dom)

    monkeypatch.setattr(bx_module, "_extract_pure", counting)
    assert [analysis.read_l(outside) for _ in range(3)] == [0, 0, 0]
    assert [analysis.read_r(outside) for _ in range(3)] == [1, 1, 1]
    assert extracted == [outside, outside]
    # a state where the get is not a pure query is extracted at every read
    fam = identity_family()
    escaping = replace(identity_bx(fam, BIT),
                       get_l=Stateful(fam, lambda s: (s, 0 if s == 2 else s)))
    read_l = analyze_transparency(escaping).read_l
    extracted.clear()
    for _ in range(2):
        with pytest.raises(UnobservableEffect, match="not a pure query at state 2"):
            read_l(2)
    assert extracted == [2, 2]


def test_transparency_needs_a_state_domain():
    with pytest.raises(UnobservableEffect, match="needs a state domain"):
        analyze_transparency(composers_bx())


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
    read_r = analysis.read_r
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


def test_consistent_pairs_of_list_valued_views_are_kept_once_in_first_seen_order():
    views = FiniteDomain("lists", ([0], [1]))
    keep = lambda s, _v: s
    bx = span_bx(Lens(lambda s: [s[0]], keep), Lens(lambda s: [max(s)], keep),
                 PAIRS, views, views, identity_family(), "lists")
    assert consistent_pairs(bx) == (([0], [0]), ([0], [1]), ([1], [1]))


def test_consistent_pairs_const():
    bx = const_bx(identity_family(), 0, BIT)
    assert set(consistent_pairs(bx)) == {((), 0), ((), 1)}


def test_stability_verdicts():
    assert check(identity_bx(identity_family(), BIT), "stability").ok
    assert check(inv_bx(), "stability").ok
    bad = mutant_unstable()
    assert check_seven_laws(bad).ok  # well-behaved...
    report = check(bad, "stability")   # ...but unstable
    assert report.failing_laws == ("stable-set_l-first",)
    assert report.law("stable-set_l-first").failures


def test_init_laws():
    fam = identity_family()
    assert check_init_laws(identity_bx(fam, BIT)).ok
    report = check_init_laws(mutant_bad_init())
    assert report.failing_laws == ("init_l-get_l",)
    w = report.law("init_l-get_l").failures[0]
    assert w.inputs == {"a": "1"}


@pytest.mark.parametrize("name, states", [("identity", 2), ("dynamic-identity", 324)])
def test_seven_builds_each_set_once_per_view_at_any_number_of_states(name, states):
    # set_l-get_l builds set_l(a) once per view, for both sides, however
    # many states it runs at, and runs it once per view and state;
    # get_l-set_l applies set_l to the view each run reads
    bx = next(entry.build() for entry in corpus_entries() if entry.name == name)
    assert (len(bx.dom_a), len(bx.state_domain)) == (2, states)
    calls, runs = [], []

    def set_l(a):
        calls.append(a)
        built = bx.set_l(a)

        def run(s):
            runs.append((a, s))
            return built.run(s)

        return Stateful(built.effect, run)

    counted = replace(bx, set_l=set_l)
    counts = {}
    for law in seven_laws(counted):  # one law per run, so each call is its law's
        calls.clear()
        runs.clear()
        assert run_laws(bx.name, [law], bx.effect.equal_values).ok
        if calls:
            counts[law.name] = (len(calls), len(runs))
    assert counts == {"set_l-get_l": (2, 2 * states), "get_l-set_l": (states, states)}


def test_a_pointwise_side_called_alone_builds_from_its_own_env():
    # the first computation and each side's continuation are built from the
    # other quantifiers alone, and ``evaluate`` binds both continuations on
    # the one run of the first computation at the env's state
    law = seven_laws(identity_bx(identity_family(), BIT))[1]
    assert law.name == "set_l-get_l" and law.pointwise
    fresh = {"a": 1, "s": 0}
    assert law.first(fresh).run(0) == ((), 1)
    assert law.rhs(fresh)(law.first(fresh).run(0)) == law.evaluate(fresh)[1] == (1, 1)
    assert law.evaluate({"a": 0, "s": 1}) == ((0, 0), (0, 0))
    assert law.rhs({"a": 1})(law.first({"a": 1}).run(1)) == (1, 1)
    assert law.lhs({"a": 1})(law.first({"a": 1}).run(0)) == (1, 1)


def test_check_suite_names_the_subject_per_suite():
    bx = identity_bx(identity_family(), BIT)
    assert check(bx, "seven").subject == "identity"
    for suite in ("overwritable", "stability", "init"):
        assert check(bx, suite).subject == f"identity:{suite}"


def test_check_suite_refuses_init_without_initializers():
    with pytest.raises(ValueError, match="mutant-unstable has no initializers"):
        check(mutant_unstable(), "init")


@pytest.mark.parametrize("build", [
    list_ibx,
    bx_to_symlens,
    lambda bx: compose_init(bx, identity_bx(identity_family(), BIT)),
], ids=["list_ibx", "bx_to_symlens", "compose_init"])
def test_what_needs_initializers_refuses_a_bx_without_them_when_built(build):
    plain = lens_to_bx(fst_lens(), PAIRS, BIT, name="plain")
    with pytest.raises(NoInitializers, match="^plain has no initializers$"):
        build(plain)


def test_check_suite_refuses_a_bx_without_finite_domains():
    for bx in (composers_bx(), dynamic_console_bx(console_family())):
        for suite in ("seven", "overwritable", "stability", "init"):
            if suite == "init" and not bx.initialisable:
                error, message = NoInitializers, "has no initializers"
            else:
                error, message = UnobservableEffect, "declares no state_domain, dom_a, dom_b"
            with pytest.raises(error, match=f"^{bx.name} {message}$"):
                check(bx, suite)
        # the combinators build their domains from the bx's, and the
        # consistency relation reads both gets at every state
        for build in (lambda b: pair_bx(b, b), lambda b: sum_bx(b, b), list_ibx):
            if build is list_ibx and not bx.initialisable:
                error, message = NoInitializers, "has no initializers"
            else:
                error, message = UnobservableEffect, "declares no state_domain, dom_a, dom_b"
            with pytest.raises(error, match=f"^{bx.name} {message}$"):
                build(bx)
        with pytest.raises(UnobservableEffect, match=f"^{bx.name} declares no state_domain$"):
            consistent_pairs(bx)
    # a span with its middle domain but no state domain has no join states
    half = symlens_to_bx(identity_symlens(), dom_b=BIT, name="half")
    with pytest.raises(UnobservableEffect, match="^half declares no state_domain$"):
        compose(half, identity_bx(identity_family(), BIT))


def test_the_legs_of_the_dual_are_the_legs_reversed():
    for bx in (lens_to_bx(fst_lens(), PAIRS, BIT), inv_bx()):
        left, right = legs_of(bx)
        assert legs_of(dual(bx)) == (right, left)
        assert legs_of(dual(dual(bx))) == (left, right)


def test_a_bx_whose_operations_were_replaced_has_no_legs():
    # mutant-bad-init replaces identity_bx's init_l, so its legs are made
    # from its read maps and operations, with the replaced initializer
    mutant = mutant_bad_init()
    assert mutant.legs is not None
    left, right = legs_of(mutant)
    assert left.create is mutant.init_l and right.create is mutant.init_r
    assert [left.view(s) for s in BIT] == [0, 1]
    assert [left.update(0, a) for a in BIT] == [0, 1]
    # a pure leg is lifted to the span's family
    (lifted, _right) = legs_of(identity_bx(writer_family(), BIT))
    assert lifted.effect.name == "writer" and lifted.update(0, 1) == (1, ())


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
    plain = lens_to_bx(fst_lens(), PAIRS, BIT)
    assert type(plain) is Bx and not plain.initialisable
    assert plain.init_l is None and plain.init_r is None
    assert lens_to_bx(fst_lens(default_b=0), PAIRS, BIT).initialisable
    # the corpus lens mutant has a create, so it is initialisable and lawful there
    assert check_init_laws(broken_view_update_lens()).ok


def test_lens_to_bx_refuses_a_lens_at_another_effect():
    fam = writer_family()
    l = Lens(lambda s: s[0], lambda s, v: fam.unit((v, s[1])), effect=fam)
    with pytest.raises(ValueError, match="lens_to_bx requires the identity effect"):
        lens_to_bx(l, PAIRS, BIT)


# the lenses PAIRS -> BIT whose spans are checked: lawful, lawful, failing
# update-update, failing view-update and update-update (the update flips the
# hidden bit), failing update-view (the update ignores the view)
SPAN_LEGS = {
    "fst": fst_lens(0),
    "snd": snd_lens(0),
    "non-overwrite": non_overwrite_lens(),
    "flip": Lens(lambda s: s[0], lambda s, v: (v, 1 - s[1]), lambda v: (v, 0)),
    "ignore": Lens(lambda s: s[0], lambda s, _v: s, lambda v: (v, 0)),
}

# each lens law and the bx law of a leg it becomes, by side
SPAN_LAWS = {
    "seven": {"update-view": "set_{x}-get_{x}", "view-update": "get_{x}-set_{x}"},
    "overwritable": {"update-update": "set_{x}-set_{x}"},
}


@pytest.mark.parametrize("fam", [identity_family(), failure_family()],
                         ids=["pure-legs", "monadic-legs"])
@pytest.mark.parametrize("suite", SPAN_LAWS)
def test_a_span_fails_exactly_the_laws_its_legs_fail_as_lenses(fam, suite):
    # a span's gets are views, so get-get and get_l-get_r hold, and each
    # set law of a side is a lens law of that side's leg; at a family other
    # than the identity, the legs are the same lenses lifted to it
    failing = {name: check(l, "lens", dom_a=PAIRS, dom_b=BIT).failing_laws
               for name, l in SPAN_LEGS.items()}
    seen = set()
    for left_name, right_name in itertools.product(SPAN_LEGS, repeat=2):
        legs = [SPAN_LEGS[left_name], SPAN_LEGS[right_name]]
        if fam.name != "identity":
            legs = [lift_lens(fam, l) for l in legs]
        span = span_bx(*legs, PAIRS, BIT, BIT, fam, "span")
        expected = {law.format(x=x)
                    for x, leg in (("l", left_name), ("r", right_name))
                    for lens_law, law in SPAN_LAWS[suite].items()
                    if lens_law in failing[leg]}
        assert set(check(span, suite).failing_laws) == expected, (left_name, right_name)
        seen |= expected
    # every law of the suite that a leg can fail is failed by some span
    assert seen == {law.format(x=x) for x in "lr" for law in SPAN_LAWS[suite].values()}


def test_a_span_refuses_a_leg_at_a_third_family():
    leg = lift_lens(writer_family(), fst_lens(0))
    with pytest.raises(ValueError, match="a leg at effect writer is neither pure "
                                         "nor at the bx's effect failure"):
        span_bx(fst_lens(0), leg, PAIRS, BIT, BIT, failure_family(), "span")
    with pytest.raises(ValueError, match="neither pure"):
        span_bx(leg, fst_lens(0), PAIRS, BIT, BIT, failure_family(), "span")


def test_report_json_shape():
    report = check_seven_laws(identity_bx(identity_family(), BIT))
    payload = report.to_dict()
    assert payload["bx"] == "identity"
    assert payload["effect"] == "identity"
    assert [l["name"] for l in payload["laws"]] == [
        "get_l-get_l", "set_l-get_l", "get_l-set_l",
        "get_r-get_r", "set_r-get_r", "get_r-set_r", "get_l-get_r",
    ]
