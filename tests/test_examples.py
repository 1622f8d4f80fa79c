"""The effectful exemplars and the composers case study."""

from fractions import Fraction

import pytest

from effectbx import (
    EffectbxError,
    FiniteDomain,
    Just,
    KeyViolation,
    NOTHING,
    alert_bx,
    check,
    check_seven_laws,
    choice_family,
    console_family,
    console_run,
    composers_bx,
    composers_scenario,
    composers_symlens,
    default_composers_script,
    dynamic_bx,
    dynamic_console_bx,
    dynamic_search_bx,
    failure_family,
    identity_bx,
    identity_family,
    inv_bx,
    lens_to_bx,
    log_bx,
    nondet_bx,
    partial_bx,
    read_some_bx,
    render_dates,
    st_exec,
    switch_bx,
    reader_family,
    writer_family,
    fst_lens,
    snd_lens,
    Left,
)
from effectbx.examples import dynamic_memo_states

BIT = FiniteDomain("bit", (0, 1))
PAIRS = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))


# ---------------------------------------------------------------------------
# partial inverses


def test_inv_set_r():
    bx = inv_bx()
    out = bx.set_r(Fraction(1, 4)).run((Fraction(2), Fraction(1, 2)))
    assert out == Just(((), (Fraction(4), Fraction(1, 4))))


def test_inv_set_l_zero_fails():
    bx = inv_bx()
    assert bx.set_l(Fraction(0)).run((Fraction(2), Fraction(1, 2))) is NOTHING


def test_partial_bx_rejects_non_inverses():
    fam = failure_family()
    with pytest.raises(EffectbxError) as err:
        partial_bx(
            fam,
            NOTHING,
            lambda a: a + 1,
            lambda b: b + 1,  # not the inverse
            FiniteDomain("a", (0, 1)),
            FiniteDomain("b", (1, 2)),
        )
    assert "not partial inverses" in str(err.value)
    # f inverts g on every a, but g(2) = 0 is not inverted by f
    with pytest.raises(EffectbxError, match=r"g\(2\)=0 but f\(0\)=0"):
        partial_bx(
            fam,
            NOTHING,
            lambda a: a,
            lambda b: 0 if b == 2 else b,
            BIT,
            FiniteDomain("b", (0, 1, 2)),
        )


def test_partial_bx_evaluates_f_and_g_at_construction_only_on_its_domains():
    fam = failure_family()
    f_calls, g_calls = [], []

    def counted(calls, h):
        return lambda x: calls.append(x) or h(x)

    negate = lambda x: None if x == 2 else -x
    bx = partial_bx(fam, NOTHING, counted(f_calls, negate), counted(g_calls, negate),
                    FiniteDomain("a", (0, 1, 2)), FiniteDomain("b", (0, -1)))
    # the inverse check reads the tables that construction fills
    assert (f_calls, g_calls) == ([0, 1, 2], [0, -1])
    f_calls.clear()
    g_calls.clear()
    for s in bx.state_domain:
        assert bx.set_l(1).run(s) == Just(((), (1, -1)))
        assert bx.set_r(-1).run(s) == Just(((), (1, -1)))
        assert bx.set_l(2).run(s) is NOTHING
    assert f_calls == g_calls == []
    # a value outside the domain is evaluated when it is set
    assert bx.set_l(5).run((0, 0)) == Just(((), (5, -5)))
    assert f_calls == [5]
    # list-valued views do not hash, and are read from the tables too
    f_calls.clear()
    g_calls.clear()
    wrap = partial_bx(fam, NOTHING, counted(f_calls, lambda a: [a]),
                      counted(g_calls, lambda b: b[0]),
                      FiniteDomain("a", (0, 1)), FiniteDomain("b", ([0], [1])))
    assert (f_calls, g_calls) == ([0, 1], [[0], [1]])
    f_calls.clear()
    g_calls.clear()
    assert wrap.state_domain.elements == ((0, [0]), (1, [1]))
    assert wrap.set_r([1]).run((0, [0])) == Just(((), (1, [1])))
    assert wrap.set_l(0).run((1, [1])) == Just(((), (0, [0])))
    assert f_calls == g_calls == []
    assert check_seven_laws(wrap).ok


def test_partial_bx_rejects_non_zero_err():
    fam = failure_family()
    with pytest.raises(EffectbxError):
        partial_bx(
            fam,
            Just(0),  # not a zero
            lambda a: a,
            lambda b: b,
            BIT,
            BIT,
        )


# ---------------------------------------------------------------------------
# print/parse


def test_read_some_set_l():
    bx = read_some_bx()
    assert st_exec(bx.set_l(42), (0, "0")) == Just((42, "42"))


def test_read_some_unparsable_set_r_fails():
    bx = read_some_bx()
    assert bx.set_r("junk").run((0, "0")) is NOTHING


def test_read_some_current_string_noop_even_if_unparsable():
    bx = read_some_bx()
    assert bx.set_r("junk").run((0, "junk")) == Just(((), (0, "junk")))


def test_read_some_init_r():
    bx = read_some_bx()
    assert bx.init_r("1") == Just((1, "1"))
    assert bx.init_r("junk") is NOTHING


# ---------------------------------------------------------------------------
# nondeterminism


def _nondet():
    return nondet_bx(
        choice_family(),
        ok=lambda a, b: (a + b) % 2 == 0,
        bs=lambda a: [b for b in (0, 1) if (a + b) % 2 == 0],
        as_=lambda b: [a for a in (0, 1) if (a + b) % 2 == 0],
        dom_a=BIT,
        dom_b=BIT,
    )


def test_nondet_consistent_set_keeps_opposite():
    bx = _nondet()
    assert bx.set_l(0).run((0, 0)) == (((), (0, 0)),)


def test_nondet_inconsistent_set_branches():
    bx = nondet_bx(
        choice_family(),
        ok=lambda a, b: a == 0,
        bs=lambda a: [0, 1] if a == 0 else [],
        as_=lambda b: [0],
        dom_a=BIT,
        dom_b=BIT,
        name="zero-only",
    )
    out = bx.set_r(1).run((0, 0))
    # a=0 is consistent with anything: single outcome
    assert out == (((), (0, 1)),)
    out = bx.set_l(1).run((0, 0))
    # bs(1) is empty: zero outcome list
    assert out == ()


def test_nondet_outcomes_match_brute_force_oracle():
    # oracle: evaluate the branching definition directly with comprehensions
    ok = lambda a, b: (a + b) % 2 == 0
    bs = lambda a: [b for b in (0, 1) if ok(a, b)]
    as_ = lambda b: [a for a in (0, 1) if ok(a, b)]
    bx = _nondet()
    states = bx.state_domain
    for s in states:
        a, b = s
        for a1 in BIT:
            got = bx.set_l(a1).run(s)
            oracle = (
                (((), (a1, b)),) if ok(a1, b)
                else tuple(((), (a1, b1)) for b1 in bs(a1))
            )
            assert got == oracle
        for b1 in BIT:
            got = bx.set_r(b1).run(s)
            oracle = (
                (((), (a, b1)),) if ok(a, b1)
                else tuple(((), (a1, b1)) for a1 in as_(b1))
            )
            assert got == oracle


def test_nondet_never_leaves_ok_region():
    bx = _nondet()
    ok = lambda a, b: (a + b) % 2 == 0
    for s in bx.state_domain:
        for a1 in BIT:
            for (_r, s1) in bx.set_l(a1).run(s):
                assert ok(*s1)
        for b1 in BIT:
            for (_r, s1) in bx.set_r(b1).run(s):
                assert ok(*s1)


def test_nondet_rejects_bad_side_conditions():
    with pytest.raises(EffectbxError, match=r"^bs\(0\) offers inconsistent 1$"):
        nondet_bx(
            choice_family(),
            ok=lambda a, b: a == b,
            bs=lambda a: [1 - a],  # inconsistent candidate
            as_=lambda b: [b],
            dom_a=BIT,
            dom_b=BIT,
        )
    with pytest.raises(EffectbxError, match=r"^as\(0\) offers inconsistent 1$"):
        nondet_bx(
            choice_family(),
            ok=lambda a, b: a == b,
            bs=lambda a: [a],
            as_=lambda b: [1 - b],  # inconsistent candidate
            dom_a=BIT,
            dom_b=BIT,
        )


# ---------------------------------------------------------------------------
# environment switching


def test_switch_constant_family_behaves_like_member():
    fam = reader_family((0, 1))
    member = lens_to_bx(fst_lens(), PAIRS, BIT, fam=fam, name="m")
    switched = switch_bx(fam, lambda _c: member)
    for s in PAIRS:
        for env in (0, 1):
            assert switched.get_r.run(s)(env) == member.get_r.run(s)(env)


def test_switch_needs_a_family_with_contexts():
    with pytest.raises(EffectbxError, match="needs a reader family with contexts"):
        switch_bx(identity_family(), lambda _c: identity_bx(identity_family(), BIT))


def test_switch_two_lens_family_reads_env():
    fam = reader_family((False, True))

    def pick(flag):
        lens = fst_lens() if flag else snd_lens()
        return lens_to_bx(lens, PAIRS, BIT, fam=fam)

    switched = switch_bx(fam, pick)
    value, state = switched.get_r.run((1, 0))(True)
    assert value == 1 and state == (1, 0)
    value, _ = switched.get_r.run((1, 0))(False)
    assert value == 0
    assert check_seven_laws(switched).ok


def test_switch_builds_each_member_once():
    fam = reader_family((False, True))
    built = []

    def pick(flag):
        built.append(flag)
        lens = fst_lens() if flag else snd_lens()
        return lens_to_bx(lens, PAIRS, BIT, fam=fam)

    switched = switch_bx(fam, pick)
    verdicts = [check(switched, suite).ok
                for suite in ("seven", "overwritable", "stability")]
    assert verdicts == [True, True, False]
    assert built == [False, True]


# ---------------------------------------------------------------------------
# signalling


def test_signal_unchanged_set_is_silent():
    bx = log_bx(identity_bx(writer_family(), BIT))
    ((_r, _s), log) = bx.set_l(0).run(0)
    assert log == ()


def test_signal_two_distinct_sets_log_both():
    bx = log_bx(identity_bx(writer_family(), BIT))
    m = bx.set_l(1).then(bx.set_l(0))
    ((_r, _s), log) = m.run(0)
    assert log == (Left(1), Left(0))


def test_signal_log_count_equals_changes_for_short_scripts():
    bx = log_bx(identity_bx(writer_family(), BIT))
    # every script of length <= 4 over both sides
    ops = [("L", v) for v in BIT] + [("R", v) for v in BIT]

    def run_script(script, s0):
        m = None
        for side, v in script:
            op = bx.set_l(v) if side == "L" else bx.set_r(v)
            m = op if m is None else m.then(op)
        if m is None:
            return 0, ()
        ((_r, _s), log) = m.run(s0)
        return len(log), log

    import itertools

    for n in range(5):
        for script in itertools.product(ops, repeat=n):
            for s0 in BIT:
                changes = 0
                cur = s0
                for _side, v in script:  # both views equal the state here
                    if v != cur:
                        changes += 1
                        cur = v
                count, _ = run_script(script, s0)
                assert count == changes


def test_alert_bx_transcript():
    fam = console_family(scripts=((),))
    bx = alert_bx(identity_bx(fam, BIT))
    m = bx.set_l(1).then(bx.set_l(1)).then(bx.set_r(0))
    result, transcript = console_run(m.run(0), [])
    assert transcript == (("out", "Left"), ("out", "Right"))


# ---------------------------------------------------------------------------
# memoizing restoration


def test_dynamic_repeated_question_asked_once():
    fam = identity_family()
    calls = []

    def f(a1, b):
        calls.append((a1, b))
        return a1

    bx = dynamic_bx(fam, f, lambda _a, b1: b1, dom_a=BIT, dom_b=BIT)
    s0 = ((0, 0), (), ())
    _, s1 = bx.set_l(1).run(s0)
    assert calls == [(1, 0)]
    # drive the pair back so the same question comes up again
    _, s2 = bx.set_r(0).run(s1)
    _, s3 = bx.set_l(0).run(s2)
    _, s4 = bx.set_r(0).run(s3)
    calls.clear()
    _, s5 = bx.set_l(1).run(s4)
    assert calls == []  # memo hit
    assert s5[0] == (1, 1)


def test_dynamic_unchanged_set_is_noop():
    fam = identity_family()
    bx = dynamic_bx(fam, lambda a1, _b: a1, lambda _a, b1: b1)
    s0 = ((1, 0), (), ())
    assert bx.set_l(1).run(s0) == ((), s0)


def test_dynamic_seven_laws():
    fam = identity_family()
    bx = dynamic_bx(
        fam,
        lambda a1, _b: a1,
        lambda _a, b1: b1,
        dom_a=BIT,
        dom_b=BIT,
        state_domain=dynamic_memo_states(BIT, BIT),
    )
    assert check_seven_laws(bx).ok


def test_dynamic_search_first_match_and_failure():
    dom3 = FiniteDomain("d3", (0, 1, 2))
    bx = dynamic_search_bx(lambda a, b: (a + b) % 3 == 0, dom3, dom3)
    s0 = ((0, 0), (), ())
    out = bx.set_l(1).run(s0)
    # oracle: first b in declared order with (1 + b) % 3 == 0
    expected_b = next(b for b in dom3 if (1 + b) % 3 == 0)
    assert out == Just(((), ((1, expected_b), (((1, 0), expected_b),), ())))
    nope = dynamic_search_bx(lambda a, b: False, BIT, BIT)
    assert nope.set_l(1).run(((0, 0), (), ())) is NOTHING
    assert nope.set_r(1).run(((0, 0), (), ())) is NOTHING


def test_dynamic_console_second_identical_edit_silent():
    fam = console_family()
    bx = dynamic_console_bx(fam)
    s0 = (("a", "b"), (), ())
    m = bx.set_l("x").then(bx.set_l("x"))
    (_, transcript) = console_run(m.run(s0), ["answer"])
    prompts = [t for d, t in transcript if d == "out" and t.startswith("Replacement")]
    assert prompts == ["Replacement for b?"]
    assert transcript[0] == ("out", "Setting x")


# ---------------------------------------------------------------------------
# composers


def test_composers_scenario_all_agree():
    report = composers_scenario(default_composers_script())
    assert report["ok"]
    assert all(step["agree"] for step in report["steps"])


def test_composers_scenario_frozen_steps():
    report = composers_scenario(default_composers_script())
    steps = report["steps"]
    bach_row = ["J. S. Bach", "German"]
    # after seeding the left side, the right view is the single row
    assert steps[1]["op"] == "getR"
    assert steps[1]["bx"] == [bach_row]
    # after appending Tavener on the right, the left triple has unknown dates
    assert steps[3]["op"] == "getL"
    tav = [t for t in steps[3]["bx"] if t[0] == "John Tavener"]
    assert tav == [["John Tavener", "British", None]]
    assert render_dates(None) == "????"
    # fixing Tavener's dates on the left leaves the right rows unchanged
    assert steps[5]["op"] == "getR"
    assert steps[5]["bx"] == steps[2 + 1 - 1]["right_view"]
    assert steps[5]["bx"] == [bach_row, ["John Tavener", "British"]]
    # the final reorder drives both sides to the same four composers
    assert steps[7]["right_view"] == [
        ["Hendrik Andriessen", "Dutch"],
        bach_row,
        ["John Tavener", "British"],
        ["J-B Lully", "French"],
    ]


def test_composers_dates_rendering():
    assert render_dates(("1685", "1750")) == "1685--1750"
    assert render_dates(None) == "????"


def test_composers_key_violation():
    sl = composers_symlens()
    dup = (("X", "A"), ("X", "B"))
    with pytest.raises(KeyViolation):
        sl.put_l(dup, ())
    bx = composers_bx()
    with pytest.raises(KeyViolation):
        bx.set_r(dup).run(())


def test_composers_bx_ordering_semantics():
    bx = composers_bx()
    state = (("B", "DE", None), ("A", "AT", None))
    # right-view order preserved by updates; leftover appended sorted
    new_left = frozenset({("A", "AT", ("1", "2")), ("C", "FR", None)})
    _, s1 = bx.set_l(new_left).run(state)
    assert s1 == (("A", "AT", ("1", "2")), ("C", "FR", None))
