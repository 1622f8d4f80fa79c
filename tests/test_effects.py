"""Effect families: monad laws, zeros, commutativity, morphisms, console."""

import collections
import copy
import itertools
import pickle

import pytest

from effectbx import (
    Conjunction,
    ConsoleWorld,
    FiniteDomain,
    FiniteFunction,
    Just,
    LawResult,
    Left,
    NOTHING,
    Right,
    ScriptExhausted,
    UNINIT,
    UnobservableEffect,
    check_commutative,
    check_monad_laws,
    check_monad_morphism,
    choice_family,
    console_family,
    console_read,
    console_write,
    console_run,
    failure_family,
    identity_family,
    native_state_family,
    reader_family,
    writer_family,
)

BIT = FiniteDomain("bit", (0, 1))


def all_families():
    return [
        identity_family(),
        failure_family(),
        choice_family(),
        reader_family((0, 1)),
        writer_family(),
        writer_family(bound=1),
        console_family(scripts=((), ("a",))),
    ]


@pytest.mark.parametrize("fam", all_families(), ids=lambda f: f.name)
@pytest.mark.parametrize("size", [1, 2, 3])
def test_monad_laws_all_families(fam, size):
    dom = FiniteDomain("d", tuple(range(size)))
    report = check_monad_laws(fam, dom)
    assert report.ok, report.failing_laws


def test_identity_monad_laws_on_bit():
    report = check_monad_laws(identity_family(), BIT)
    assert {r.name for r in report.laws} == {"left-unit", "right-unit", "associativity"}
    assert report.ok


def test_failure_zero_absorbs():
    fam = failure_family()
    report = check_monad_laws(fam, BIT)
    assert report.law("zero-left").ok and report.law("zero-right").ok
    # spot check: bind(zero, k) is zero for every continuation outcome
    for target in (NOTHING, Just(0), Just(1)):
        assert fam.bind(NOTHING, lambda _x: target) is NOTHING


def test_choice_bind_matches_comprehension_oracle():
    # oracle: bind on the list monad is exactly a flat comprehension
    fam = choice_family()
    values = fam.values_over(BIT)
    conts = {
        0: (1, 0),
        1: (),
    }
    k = lambda x: conts[x]
    for m in values:
        oracle = tuple(y for x in m for y in k(x))
        assert fam.bind(m, k) == oracle
    assert fam.bind((0, 1), lambda x: ((x, "l"), (x, "r"))) == (
        (0, "l"), (0, "r"), (1, "l"), (1, "r"),
    )


def test_commutativity_verdicts():
    dom_a = FiniteDomain("a", (0, 1))
    dom_b = FiniteDomain("b", (2, 3))
    assert check_commutative(identity_family(), dom_a, dom_b).ok
    assert check_commutative(failure_family(), dom_a, dom_b).ok
    assert check_commutative(reader_family((0, 1)), dom_a, dom_b).ok
    report = check_commutative(choice_family(), dom_a, dom_b)
    assert not report.ok
    assert report.law("commute").failures


def test_choice_noncommutative_witness_direct_evaluation():
    # oracle: evaluate both sides of the swap law directly for m=[0,1], n=[2,3]
    fam = choice_family()
    m, n = (0, 1), (2, 3)
    lhs = fam.bind(m, lambda x: fam.map(n, lambda y: (x, y)))
    rhs = fam.bind(n, lambda y: fam.map(m, lambda x: (x, y)))
    assert lhs == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert rhs == ((0, 2), (1, 2), (0, 3), (1, 3))
    assert lhs != rhs


def test_choice_multiset_mode_ignores_order():
    strict = choice_family()
    loose = choice_family(multiset=True)
    x, y = (0, 1), (1, 0)
    assert not strict.equal_values(x, y)
    assert loose.equal_values(x, y)
    assert not loose.equal_values((0, 0), (0, 1))
    assert not loose.equal_values((0,), (0, 0))


def test_monad_morphisms():
    ident = identity_family()
    fail = failure_family()
    assert check_monad_morphism(lambda m: m, ident, ident, BIT).ok
    assert check_monad_morphism(Just, ident, fail, BIT).ok
    report = check_monad_morphism(lambda _m: NOTHING, ident, fail, BIT)
    assert report.failing_laws == ("preserves-unit",)


def test_reader_equality_is_pointwise():
    fam = reader_family((0, 1, 2))
    f = lambda env: env % 2
    g = lambda env: 1 if env == 1 else 0
    assert fam.equal_values(f, g)
    assert not fam.equal_values(f, lambda env: 0)
    assert fam.outcomes_of(f) == (0, 1, 0)


def test_writer_bounded_log_drops_oldest():
    fam = writer_family(bound=2)
    m = (0, ("a", "b"))
    out = fam.bind(m, lambda _x: (1, ("c",)))
    assert out == (1, ("b", "c"))


def test_console_run_deterministic():
    fam = console_family()
    comp = fam.bind(
        console_write("x"), lambda _u: fam.bind(console_read(), fam.unit)
    )
    first = console_run(comp, ["42"])
    second = console_run(comp, ["42"])
    assert first == second == ("42", (("out", "x"), ("in", "42")))


def test_console_print_then_return():
    fam = console_family()
    comp = fam.then(console_write("x"), fam.unit(1))
    assert console_run(comp, []) == (1, (("out", "x"),))


def test_console_read_line():
    fam = console_family()
    assert console_run(console_read(), ["42"]) == ("42", (("in", "42"),))


def test_console_script_exhaustion():
    fam = console_family()
    comp = fam.bind(console_read(), lambda _l: console_read())
    with pytest.raises(ScriptExhausted):
        console_run(comp, ["a"])


def test_console_exhaustion_is_not_a_result_value():
    # a computation returning the string "exhausted" is neither equal to one
    # that reads past the script nor stripped of its outcome
    fam = console_family(scripts=((),))
    returns_word = fam.unit("exhausted")
    reads_past_end = fam.bind(console_read(), lambda _l: fam.unit(0))
    assert not fam.equal_values(returns_word, reads_past_end)
    assert fam.outcomes_of(returns_word) == ("exhausted",)
    assert fam.outcomes_of(reads_past_end) == ()
    assert fam.equal_values(reads_past_end, fam.bind(console_read(), fam.unit))


def test_console_values_with_one_transcript_and_different_results_differ():
    fam = console_family(scripts=(("a",),))
    assert not fam.equal_values(fam.unit(0), fam.unit(1))
    assert not fam.equal_values(fam.then(console_write("x"), fam.unit(0)),
                                fam.then(console_write("x"), fam.unit(1)))


def test_console_values_that_differ_only_in_the_remaining_input_differ():
    # a read that leaves no transcript entry: the worlds differ in pending alone
    fam = console_family(scripts=(("a", "b"),))

    def skips(world):
        world.pending.pop(0)
        return 0

    assert not fam.equal(skips, fam.unit(0))
    assert not fam.equal(fam.unit(0), skips)
    assert fam.equal(skips, skips)


def test_console_values_that_differ_only_in_the_transcript_differ():
    fam = console_family(scripts=((), ("a",)))
    writes_x = fam.then(console_write("x"), fam.unit(0))
    writes_y = fam.then(console_write("y"), fam.unit(0))
    assert not fam.equal(writes_x, writes_y)
    assert fam.equal(writes_x, fam.then(console_write("x"), fam.unit(0)))


def test_a_console_world_has_slots():
    world = ConsoleWorld(("a",))
    assert not hasattr(world, "__dict__")
    assert (world.pending, world.transcript, world.interactive) == (["a"], [], False)


def test_console_world_transcript_grows_monotonically():
    world = ConsoleWorld(("one", "two"))
    world.write("hello")
    n1 = len(world.transcript)
    world.read()
    assert len(world.transcript) > n1
    assert world.transcript[0] == ("out", "hello")


def test_unobservable_effect():
    from effectbx import EffectFamily

    fam = EffectFamily(name="opaque", unit=lambda a: a, bind=lambda m, k: k(m))
    with pytest.raises(UnobservableEffect):
        fam.equal_values(1, 1)
    with pytest.raises(UnobservableEffect):
        check_monad_laws(fam, BIT)


# the slotted values: Just, the sum injections and FiniteFunction keep the
# repr, equality and hash of the frozen dataclasses they replaced

def _slotted_values():
    def ff(value):
        return FiniteFunction((0, 1), ("a", value))

    def ff_payload(f):
        return (f.keys, f.values)

    def tag_payload(t):
        return (t.value,)

    def result(checked):
        return LawResult("get-put", checked, ())

    def result_payload(r):
        return (r.name, r.checked, r.failures, r.mode)

    return [
        # (make a value from a payload, a payload, its repr, its field tuple,
        #  a value of another tag with the same payload)
        (Just, 1, "Just(1)", tag_payload, Left(1)),
        (Left, "x", "Left('x')", tag_payload, Right("x")),
        (Right, (0,), "Right((0,))", tag_payload, Just((0,))),
        (ff, "b", "{0->'a', 1->'b'}", ff_payload, ((0, 1), ("a", "b"))),
        (result, 4, "LawResult(name='get-put', checked=4, failures=(), mode='exhaustive')",
         result_payload, ("get-put", 4, (), "exhaustive")),
    ]


@pytest.mark.parametrize("make, payload, text, fields, other", _slotted_values(),
                         ids=["Just", "Left", "Right", "FiniteFunction", "LawResult"])
def test_slotted_values_keep_the_dataclass_repr_equality_and_hash(
        make, payload, text, fields, other):
    value, twin = make(payload), make(payload)
    assert repr(value) == text
    assert value == twin and not value != twin and value is not twin
    assert hash(value) == hash(twin) == hash(fields(value))
    assert value != other and other != value
    assert value.__eq__(object()) is NotImplemented
    nan = float("nan")
    assert make(nan) == make(nan)  # one NaN object: equal by identity
    assert make(nan) != make(float("nan"))
    assert not hasattr(value, "__dict__")


def test_equal_values_is_the_family_equality():
    from effectbx import EffectFamily

    for fam in all_families():
        assert fam.equal_values is fam.equal
    fam = EffectFamily(name="opaque", unit=lambda a: a, bind=lambda m, k: k(m))
    with pytest.raises(UnobservableEffect, match="opaque: no declared equality"):
        fam.equal_values


# a family whose equality quantifies over contexts builds it as a
# Conjunction of one part per context, which run_laws walks part by part

@pytest.mark.parametrize("fam, needed", [
    (reader_family((0, 1, 2)), [0, 1, 2]),
    # a read past the end of the empty script reads the line of the other
    # script, where the remaining input tells it apart too
    (console_family(scripts=((), ("line",))), [1]),
    (native_state_family(FiniteDomain("s2", (0, 1))).family, [0, 1]),
], ids=["reader", "console", "native-state"])
def test_a_context_quantified_equality_is_the_conjunction_of_its_parts(fam, needed):
    equal = fam.equal
    assert isinstance(equal, Conjunction)
    assert len(equal.parts) == len(fam.enumerate_contexts)
    pairs = list(itertools.product(fam.values_over(BIT), repeat=2))
    verdicts = [equal(x, y) for x, y in pairs]
    assert verdicts == [all(p(x, y) for p in equal.parts) for x, y in pairs]
    assert any(verdicts) and not all(verdicts)
    # the contexts whose part, left out, changes the verdict on some pair
    missing = [Conjunction(equal.parts[:k] + equal.parts[k + 1:])
               for k in range(len(equal.parts))]
    assert [k for k, partial in enumerate(missing)
            if [partial(x, y) for x, y in pairs] != verdicts] == needed


def test_native_state_equality_runs_each_value_once_per_state_and_compares_both_fields():
    fam = native_state_family(FiniteDomain("s3", (0, 1, 2))).family
    calls = collections.Counter()

    def counted(name, run):
        def value(s):
            calls[name, s] += 1
            return run(s)

        return value

    assert fam.equal(counted("x", lambda s: (s, s)), counted("y", lambda s: (s, s)))
    assert calls == {(name, s): 1 for name in "xy" for s in (0, 1, 2)}
    # a result or a final state that differs at one state is told apart
    assert not fam.equal(lambda s: (s, s), lambda s: (s if s < 2 else 0, s))
    assert not fam.equal(lambda s: (s, s), lambda s: (s, s if s < 2 else 0))


# a family states its observation once: its equality and its outcomes are
# derived from ``observe``, in every context or, without contexts, in None

def _observed_families():
    return [
        identity_family(),
        failure_family(),
        choice_family(),
        choice_family(multiset=True),
        reader_family((0, 1)),
        writer_family(),
        writer_family(bound=1),
        console_family(scripts=((), ("a",))),
        native_state_family(FiniteDomain("s2", (0, 1))).family,
    ]


@pytest.mark.parametrize("fam", _observed_families(), ids=lambda f: f.name)
def test_a_family_equality_and_outcomes_follow_from_its_observation(fam):
    contexts = fam.enumerate_contexts
    if contexts is None:
        contexts = (None,)
    values = list(fam.values_over(BIT))
    for x in values:
        assert fam.outcomes_of(x) == tuple(
            r for ctx in contexts for r in fam.observe(x, ctx)[0])
    verdicts = []
    for x, y in itertools.product(values, repeat=2):
        agree = all(fam.observe(x, ctx) == fam.observe(y, ctx) for ctx in contexts)
        verdict = fam.equal(x, y)
        verdicts.append(verdict)
        if fam.name == "choice-multiset":
            # a multiset has no canonical observation: agreement implies
            # equality, not the converse
            assert verdict or not agree, (x, y)
        else:
            assert verdict == agree, (x, y)
    assert any(verdicts) and not all(verdicts)


@pytest.mark.parametrize("marker, printed", [(NOTHING, "Nothing"), (UNINIT, "UNINIT")])
def test_a_marker_is_its_class_s_only_instance(marker, printed):
    assert repr(marker) == printed
    assert type(marker)() is marker
    assert copy.copy(marker) is marker
    assert copy.deepcopy(marker) is marker
    assert pickle.loads(pickle.dumps(marker)) is marker


def test_the_outcomes_of_failure_choice_writer_and_native_state():
    assert failure_family().outcomes_of(NOTHING) == ()
    assert failure_family().outcomes_of(Just(1)) == (1,)
    # a choice keeps its branches in order, duplicates included
    assert choice_family().outcomes_of((1, 0)) == (1, 0)
    assert choice_family(multiset=True).outcomes_of((1, 1)) == (1, 1)
    # a writer's log is observed, but is not an outcome
    assert writer_family().outcomes_of((1, ("w0",))) == (1,)
    # native state gives one result per state, in the states' order
    ops = native_state_family(FiniteDomain("s3", (0, 1, 2)))
    assert ops.family.outcomes_of(ops.get_value) == (0, 1, 2)
    assert ops.family.outcomes_of(lambda s: (s % 2, 0)) == (0, 1, 0)
