"""The generic law runner: enumeration, sampling, reports, determinism."""

import collections
import copy
import dataclasses
import json
import math
import operator
import pickle
import random
import sys

import pytest

from effectbx import (
    Conjunction,
    DomainTooLarge,
    FiniteDomain,
    FiniteFunction,
    Law,
    Stateful,
    check,
    check_lift_morphism,
    check_monad_laws,
    check_theta_morphism,
    choice_family,
    enumerate_functions,
    enumerate_stateful,
    fst_lens,
    identity_family,
    pointwise,
    reader_family,
    run_laws,
    seven_laws,
    st_unit,
    state_law_suite,
)
from effectbx.corpus import (
    _families,
    mutant_set_l_get_l,
    non_overwrite_lens,
    run_corpus,
    run_monad_suite,
    run_state_suite,
)
from effectbx import checks
from effectbx.lawcheck import (
    DEFAULT_CAP,
    Space,
    stable_repr,
    _as_space,
    _assignments,
    _draws,
    _PartialFunction,
)


def test_enumerate_functions_counts():
    dom = FiniteDomain("d", (0, 1))
    cod = FiniteDomain("c", ("x", "y"))
    fns = enumerate_functions(dom, cod)
    assert len(fns) == 4
    graphs = {tuple(f(k) for k in dom) for f in fns}
    assert graphs == {("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")}


def test_enumerate_functions_deterministic_order():
    dom = FiniteDomain("d", (0, 1))
    cod = FiniteDomain("c", (5, 6, 7))
    a = [repr(f) for f in enumerate_functions(dom, cod)]
    b = [repr(f) for f in enumerate_functions(dom, cod)]
    assert a == b and len(a) == 9


def test_function_space_above_cap_is_sampled_not_refused():
    # 73^4 computations over four states: far above the cap, so sampled
    report = state_law_suite(
        choice_family(), FiniteDomain("s4", (0, 1, 2, 3)),
        value_domain=FiniteDomain("bit", (0, 1)), cap=1000,
    )
    assert report.mode == "sampled(n=400,seed=0)"
    assert report.law("unused-get-discardable").checked == 400
    assert report.ok


def test_sampling_decodes_only_the_drawn_functions():
    dom = FiniteDomain("d", tuple(range(8)))
    space = enumerate_functions(dom, FiniteDomain("c", tuple(range(300))))
    assert space.size == 300 ** 8 > sys.maxsize
    decoded = []
    counted = space.map(lambda f: decoded.append(f) or f)
    law = Law(
        "zero-at-x",
        [("f", counted), ("x", dom)],
        lambda e: e["f"](e["x"]),
        lambda e: 0,
    )
    r1 = run_laws("demo", [law], operator.eq, cap=1000)
    r2 = run_laws("demo", [law], operator.eq, cap=1000)
    assert r1.mode == "sampled(n=400,seed=0)"
    assert r1.law("zero-at-x").checked == 400 and len(r1.law("zero-at-x").failures) == 3
    # each run wraps the live view of f once and walks its 400 draws through
    # it, then decodes its 3 witnesses from their indices
    assert len(decoded) == 2 * (1 + 3)
    assert r1.to_json() == r2.to_json()


@pytest.mark.parametrize("cap, mode, cod", [
    (DEFAULT_CAP, "exhaustive", FiniteDomain("c", ("x", "y", "z"))),
    (10, "sampled(n=50,seed=2)", FiniteDomain("c", ("x", "y", "z"))),
    # the one function on an empty domain: every section has no points
    (DEFAULT_CAP, "exhaustive",
     enumerate_functions(FiniteDomain("e", ()), FiniteDomain("c", ("x", "y")))),
], ids=["1000000-exhaustive", "10-sampled(n=50,seed=2)", "empty-sections"])
def test_lazy_space_and_its_tuple_give_identical_reports(cap, mode, cod):
    # decoding index i must give the i-th element of the iteration order
    dom = FiniteDomain("d", (0, 1, 2))

    def report(functions):
        law = Law(
            "constant",
            [("f", functions), ("x", dom)],
            lambda e: e["f"](e["x"]),
            lambda e: e["f"](0),
        )
        return run_laws("demo", [law], operator.eq, cap=cap, sample=50,
                        seed=2, max_witnesses=100)

    lazy = report(enumerate_functions(dom, cod))
    eager = report(tuple(enumerate_functions(dom, cod)))
    finite = report(FiniteDomain("fns", enumerate_functions(dom, cod)))
    assert lazy.mode == mode
    # every function into a codomain of one value is constant
    assert lazy.law("constant").ok == (len(cod) == 1)
    assert lazy.to_json() == eager.to_json() == finite.to_json()


def test_run_laws_exhaustive_and_witness():
    law = Law(
        "xy-symmetric",
        [("x", (0, 1, 2)), ("y", (0, 1, 2))],
        lambda e: e["x"] + e["y"],
        lambda e: e["y"] + e["x"] + (1 if e["x"] == 2 and e["y"] == 2 else 0),
    )
    report = run_laws("demo", [law], lambda a, b: a == b)
    assert report.mode == "exhaustive"
    res = report.law("xy-symmetric")
    assert res.checked == 9
    assert len(res.failures) == 1
    w = res.failures[0]
    assert w.inputs == {"x": "2", "y": "2"}
    assert w.lhs == "4" and w.rhs == "5"


def test_a_conjunction_holds_when_each_part_holds_and_stops_at_the_first_that_fails():
    calls = []

    def part(verdict):
        def check(x, y):
            calls.append(verdict)
            return verdict

        return check

    assert Conjunction(())(0, 0)
    assert Conjunction([part(True), part(True)])(0, 1) and calls == [True, True]
    calls.clear()
    assert not Conjunction([part(True), part(False), part(True)])(0, 1)
    assert calls == [True, False]
    # tools that key a callable by its code object find the call
    assert Conjunction(()).__code__ is Conjunction.__call__.__code__
    assert not hasattr(Conjunction(()), "__dict__")


def test_a_conjunction_is_walked_part_by_part_as_its_joint_walk_reports():
    # each part reads one point of f, so it has 3 leaves where the joint
    # walk has 27, and an assignment that fails two parts is kept once
    space = enumerate_functions(DOM3, COD3)
    fixed = space.decode(0)
    observations = collections.Counter()

    def same_at(k):
        def same(x, y):
            observations[k] += 1
            return x(k) == y(k)

        return same

    parts = [same_at(k) for k in DOM3]
    law = Law("is-fixed", [("f", space)], lambda e: e["f"], lambda e: fixed)
    walked = run_laws("demo", [law], Conjunction(parts), max_witnesses=5)
    assert observations == {0: 3, 1: 3, 2: 3}
    joint = run_laws("demo", [law], lambda x, y: all(p(x, y) for p in parts),
                     max_witnesses=5)
    assert walked.to_json() == joint.to_json()
    assert walked.law("is-fixed").checked == 27
    assert [w.inputs["f"] for w in walked.law("is-fixed").failures] == [
        repr(space.decode(i)) for i in (1, 2, 3, 4, 5)]


def test_stable_repr_orders_the_sets_inside_tagged_values_and_functions():
    # string hashes are salted per process, so each value prints in a
    # process of its own at two hash seeds
    import os
    import subprocess
    from pathlib import Path

    import effectbx

    src = str(Path(effectbx.__file__).resolve().parents[1])
    code = ("from effectbx import FiniteFunction, Just\n"
            "from effectbx.lawcheck import stable_repr\n"
            "words = frozenset({'ab', 'cd', 'ef'})\n"
            "print(stable_repr(Just(words)))\n"
            "print(stable_repr(FiniteFunction((0,), (words,))))\n")
    outputs = []
    for seed in ("1", "4"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1] == (
        "Just(frozenset({'ab', 'cd', 'ef'}))\n{0->frozenset({'ab', 'cd', 'ef'})}\n")


def test_an_empty_conjunction_is_walked_as_one_part_that_always_holds():
    law = Law("any", [("f", enumerate_functions(DOM3, COD3)), ("x", DOM3)],
              lambda e: e["f"](e["x"]), lambda e: e["x"])
    for cap in (None, 10):
        walked = run_laws("demo", [law], Conjunction(()), cap=cap)
        joint = run_laws("demo", [law], lambda x, y: True, cap=cap)
        assert walked.ok and walked.to_json() == joint.to_json()
    assert run_laws("demo", [law], Conjunction(())).law("any").checked == 81


def test_run_laws_sampling_above_cap_is_reported_and_reproducible():
    big = tuple(range(50))
    law = Law(
        "always",
        [("x", big), ("y", big), ("z", big)],
        lambda e: 0,
        lambda e: 0,
    )
    r1 = run_laws("demo", [law], lambda a, b: a == b, cap=1000, sample=20, seed=3)
    r2 = run_laws("demo", [law], lambda a, b: a == b, cap=1000, sample=20, seed=3)
    assert "sampled" in r1.mode
    assert r1.law("always").checked == 20
    assert r1.to_json() == r2.to_json()


def test_run_laws_domain_too_large_when_sampling_disabled():
    big = tuple(range(200))
    law = Law(
        "big",
        [("x", big), ("y", big)],
        lambda e: 0,
        lambda e: 0,
    )
    with pytest.raises(DomainTooLarge):
        run_laws("demo", [law], lambda a, b: a == b, cap=100, sample=None)


@pytest.mark.parametrize("kwargs, message", [
    ({"max_witnesses": 0}, "max_witnesses must be at least 1, not 0"),
    ({"cap": 0, "sample": -5}, "sample must be at least 1 or None, not -5"),
    ({"cap": -5}, "cap must not be negative, not -5"),
], ids=["no-witnesses", "negative-sample", "negative-cap"])
def test_run_laws_refuses_arguments_it_cannot_honour(kwargs, message):
    # each would report a law that fails at x = 1 as passing, or sample it
    # silently
    law = Law("is-zero", [("x", (0, 1))], lambda e: e["x"], lambda e: 0)
    with pytest.raises(ValueError, match=message):
        run_laws("demo", [law], operator.eq, **kwargs)


def test_a_first_computation_needs_a_pointwise_law():
    with pytest.raises(ValueError, match="has a first computation but is not pointwise"):
        Law("unrun", [("x", BIT)], lambda e: 0, lambda e: 0, first=lambda e: 0)


def test_report_json_round_trip():
    report = check_monad_laws(choice_family(), FiniteDomain("d", (0, 1)))
    payload = json.loads(report.to_json())
    assert payload["ok"] is True
    assert payload["effect"] == "choice"
    assert {l["name"] for l in payload["laws"]} >= {"left-unit", "right-unit"}
    assert json.loads(json.dumps(payload)) == payload


def test_reports_byte_identical_across_runs():
    a = check_monad_laws(choice_family(), FiniteDomain("d", (0, 1, 2)), seed=5)
    b = check_monad_laws(choice_family(), FiniteDomain("d", (0, 1, 2)), seed=5)
    assert a.to_json() == b.to_json()


def test_corpus_runs_green_and_deterministic():
    r1 = run_corpus()
    assert r1["ok"], [e for e in r1["entries"] if not e["ok"]]
    r2 = run_corpus()
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_finite_domain_rejects_duplicates():
    with pytest.raises(ValueError):
        FiniteDomain("dup", (1, 1))


def test_finite_domain_finds_a_duplicate_by_identity_before_equality():
    nan = float("nan")
    with pytest.raises(ValueError, match="duplicate"):
        FiniteDomain("nan-twice", (nan, nan))
    # two NaN objects are neither identical nor equal
    assert len(FiniteDomain("two-nans", (nan, float("nan")))) == 2


def test_finite_domain_checks_unhashable_elements_pairwise():
    with pytest.raises(ValueError, match=r"duplicate element \[1\]"):
        FiniteDomain("lists", ([0], [1], [1]))
    assert len(FiniteDomain("lists", ([0], [1], []))) == 3
    # the first element equal to an earlier one is named, whether it hashes
    for elements, first in [((0, [1], 2, [1], 0), "[1]"), ((0, [1], 0, [1]), "0"),
                            (([1], 0, 0), "0"), ((2, 1, 2, 1), "2"),
                            (({1}, frozenset({1})), "frozenset({1})")]:
        with pytest.raises(ValueError) as raised:
            FiniteDomain("mixed", elements)
        assert str(raised.value) == f"domain 'mixed' has duplicate element {first}"


class _NeverEqual(list):
    """A value that does not hash and is equal to nothing, itself included."""

    def __eq__(self, other):
        return False


def test_a_domain_finds_an_element_at_its_position_by_identity_first():
    lone = _NeverEqual()
    dom = FiniteDomain("mixed", (0, [1], lone, (2,), float("inf"), {5}))
    assert [dom.position(x) for x in dom] == [0, 1, 2, 3, 4, 5]
    # equal values are found by == (and their hash, when they hash), a value
    # that hashes among the elements that do not too
    assert [dom.position(x) for x in (0.0, [1], (2,), False, frozenset({5}))] == [0, 1, 3, 0, 5]
    # a value that does not hash is found by identity before ==
    assert dom.position(_NeverEqual()) is None
    assert [dom.position(x) for x in (1, [0], (1,), [lone], "0")] == [None] * 5
    plain = FiniteDomain("ints", (3, 4))
    assert (plain.position(4), plain.position([4]), plain.position(5)) == (1, None, None)


@pytest.mark.parametrize("limits", [{}, {"cap": 0}, {"sample": None}],
                         ids=["default", "cap0", "no-sample"])
def test_vacuous_quantification_passes_with_zero_checks(limits):
    # an empty space makes the product 0, which no cap is below: the law is
    # exhaustive, checks nothing and never needs a sample
    law = Law(
        "vacuous",
        [("x", ())],
        lambda e: 1 / 0,  # never evaluated
        lambda e: 0,
    )
    report = run_laws("demo", [law], lambda a, b: a == b, **limits)
    assert report.ok and report.mode == "exhaustive"
    assert report.law("vacuous").checked == 0


# demand-driven exhaustive checking: a function quantifier is assigned only
# at the points a law reads; plain enumeration of a tuple of the same
# functions is the reference

DOM3 = FiniteDomain("d", (0, 1, 2))
COD3 = FiniteDomain("c", ("x", "y", "z"))


def _lazy_and_plain(lhs, rhs, extra=()):
    """The reports of one law over the lazy function space and over a tuple
    of the same functions."""
    def report(functions):
        law = Law("demo", [("f", functions), ("g", functions), *extra], lhs, rhs)
        return run_laws("demo", [law], operator.eq, max_witnesses=5)

    return (report(enumerate_functions(DOM3, COD3)),
            report(tuple(enumerate_functions(DOM3, COD3))))


def test_a_side_that_catches_every_exception_gets_the_same_report():
    def guarded(name):
        def side(e):
            try:
                return e[name](e["x"])
            except Exception:
                return "caught"

        return side

    lazy, plain = _lazy_and_plain(guarded("f"), guarded("g"),
                                  extra=[("x", (0, 1, 2, 3))])
    # x = 3 lies outside the keys, so both sides catch a KeyError there
    assert lazy.law("demo").checked == 27 * 27 * 4 and lazy.law("demo").failures
    assert lazy.to_json() == plain.to_json()


def test_a_side_that_catches_base_exception_gets_the_same_report():
    def lhs(e):
        try:
            return e["k"](0)
        except BaseException:
            return "caught"

    def report(functions):
        law = Law("k-at-zero", [("k", functions)], lhs, lambda e: 0)
        return run_laws("demo", [law], operator.eq)

    space = enumerate_functions(BIT, BIT)
    lazy, plain = report(space), report(tuple(space))
    assert lazy.to_json() == plain.to_json()
    assert [w.inputs["k"] for w in lazy.law("k-at-zero").failures] == [
        "{0->1, 1->0}", "{0->1, 1->1}"]


def test_an_unapplied_function_quantifier_costs_one_evaluation():
    evaluations = []
    law = Law(
        "ignores-f",
        [("f", enumerate_functions(DOM3, COD3))],
        lambda e: evaluations.append(1) or 0,
        lambda e: 0,
    )
    report = run_laws("demo", [law], operator.eq)
    assert report.mode == "exhaustive"
    assert report.law("ignores-f").checked == 27
    assert len(evaluations) == 1


@pytest.mark.parametrize("observe", [
    lambda f, g: f == g,
    lambda f, g: f != g,
    lambda f, g: hash(f) == hash(g),
    lambda f, g: len({f, g}),
    lambda f, g: repr(f) < repr(g),
], ids=["eq", "ne", "hash", "set", "repr"])
def test_comparing_or_hashing_a_function_quantifier_matches_plain_enumeration(observe):
    lazy, plain = _lazy_and_plain(lambda e: observe(e["f"], e["g"]),
                                  lambda e: observe(e["f"](0), e["g"](0)))
    assert lazy.law("demo").checked == 27 * 27
    assert lazy.to_json() == plain.to_json()


def test_a_point_outside_the_keys_still_raises_key_error():
    law = Law(
        "outside",
        [("f", enumerate_functions(DOM3, COD3))],
        lambda e: e["f"](7),
        lambda e: "x",
    )
    with pytest.raises(KeyError, match="7 outside function domain"):
        run_laws("demo", [law], operator.eq)


def test_no_partial_function_appears_in_a_witness():
    fam = choice_family()
    bit = FiniteDomain("bit", (0, 1))
    law = Law(
        "run-at-zero-is-empty",
        [("m", enumerate_stateful(fam, bit, bit)), ("f", enumerate_functions(DOM3, COD3))],
        lambda e: (e["m"].run(0), e["f"](0)),
        lambda e: ((), "x"),
    )
    report = run_laws("demo", [law], operator.eq, max_witnesses=10)
    result = report.law("run-at-zero-is-empty")
    assert result.checked == 21 ** 2 * 27 and len(result.failures) == 10
    for w in result.failures:
        assert type(w.env["m"].run) is FiniteFunction
        assert type(w.env["f"]) is FiniteFunction
        assert w.inputs["f"] == repr(w.env["f"])


# a function into a function space is assigned one (key, inner key) point at
# a time; plain enumeration of a tuple of the same functions is the reference

D2 = FiniteDomain("d2", (0, 1))
BIT = FiniteDomain("bit", (0, 1))
READER = reader_family((0, 1))


@pytest.mark.parametrize("cap, mode", [(DEFAULT_CAP, "exhaustive"),
                                       (3, "sampled(n=400,seed=0)")])
def test_a_pointwise_side_that_reads_a_function_while_built_matches_the_plain_law(
        cap, mode):
    # the lhs reads k(0) while it is built; the live view of k keeps one
    # identity while its points change, so a side built once per law would
    # miss every witness: a law with a function quantifier takes the walk
    fam = identity_family()
    functions = enumerate_functions(BIT, BIT)
    law = pointwise("k0", [("k", functions)], BIT,
                    lambda e: st_unit(fam, e["k"](0)), lambda e: st_unit(fam, 0))
    plain = Law("k0", [("k", functions), ("s", BIT)],
                lambda e: st_unit(fam, e["k"](0)).run(e["s"]),
                lambda e: st_unit(fam, 0).run(e["s"]))
    report = run_laws("k0", [law], fam.equal_values, cap=cap)
    assert report.to_json() == run_laws("k0", [plain], fam.equal_values, cap=cap).to_json()
    assert report.mode == mode and not report.ok
    if mode == "exhaustive":
        assert report.laws[0].checked == 8
        assert report.laws[0].failures[0].inputs["k"] == "{0->1, 1->0}"


@pytest.mark.parametrize("cap, mode", [(DEFAULT_CAP, "exhaustive"),
                                       (10, "sampled(n=50,seed=2)")])
@pytest.mark.parametrize("functions, extra, lhs, rhs, equal", [
    # a function of three curried arguments
    (enumerate_functions(D2, enumerate_functions(D2, enumerate_functions(D2, BIT))),
     [("a", D2), ("x", D2), ("y", D2)],
     lambda e: e["k"](e["a"])(e["x"])(e["y"]),
     lambda e: e["k"](0)(e["x"])(e["y"]),
     operator.eq),
    # a state transformer whose effect values are readers (a mapped space)
    (enumerate_stateful(READER, BIT, BIT),
     [("s", BIT)],
     lambda e: e["k"].run(e["s"]),
     lambda e: e["k"].run(0),
     READER.equal_values),
    # a function into state transformers (a curried space over a mapped one)
    (enumerate_functions(BIT, enumerate_stateful(reader_family((0,)), BIT, BIT)),
     [("a", BIT), ("s", BIT)],
     lambda e: e["k"](e["a"]).run(e["s"]),
     lambda e: e["k"](0).run(0),
     reader_family((0,)).equal_values),
], ids=["functions", "stateful", "functions-into-stateful"])
def test_a_curried_space_and_its_tuple_give_identical_reports(
        functions, extra, lhs, rhs, equal, cap, mode):
    def report(functions):
        law = Law("demo", [("k", functions), *extra], lhs, rhs)
        return run_laws("demo", [law], equal, cap=cap, sample=50, seed=2,
                        max_witnesses=5)

    curried, plain = report(functions), report(tuple(functions))
    assert curried.mode == mode
    assert len(curried.law("demo").failures) == 5
    assert curried.to_json() == plain.to_json()


@pytest.mark.parametrize("observe", [
    lambda f, g: f == g,
    lambda f, g: f != g,
    lambda f, g: hash(f) == hash(g),
    lambda f, g: len({f, g}),
    lambda f, g: repr(f) < repr(g),
], ids=["eq", "ne", "hash", "set", "repr"])
def test_comparing_or_hashing_a_section_matches_plain_enumeration(observe):
    def report(functions):
        law = Law(
            "demo",
            [("k", functions), ("g", functions), ("a", D2)],
            lambda e: observe(e["k"](e["a"]), e["g"](e["a"])),
            lambda e: observe(e["k"](0)(0), e["g"](0)(0)),
        )
        return run_laws("demo", [law], operator.eq, max_witnesses=5)

    space = enumerate_functions(D2, enumerate_functions(D2, COD3))
    curried, plain = report(space), report(tuple(space))
    assert curried.law("demo").checked == 81 * 81 * 2
    assert curried.law("demo").failures
    assert curried.to_json() == plain.to_json()


@pytest.mark.parametrize("functions", [
    enumerate_functions(DOM3, COD3),
    enumerate_functions(D2, enumerate_functions(D2, BIT)),
], ids=["plain", "curried"])
def test_a_function_quantifier_returned_as_a_side_is_witnessed_decoded(functions):
    # comparing the quantifier itself reads every point, so each failing
    # assignment is found by a full evaluation over the live view
    fixed = functions.decode(0)

    def report(functions):
        law = Law("is-fixed", [("f", functions)], lambda e: e["f"], lambda e: fixed)
        return run_laws("demo", [law], operator.eq, max_witnesses=5)

    lazy, plain = report(functions), report(tuple(functions))
    assert lazy.to_json() == plain.to_json()
    failures = lazy.law("is-fixed").failures
    assert len(failures) == 5
    for i, w in enumerate(failures, start=1):
        assert type(w.env["f"]) is FiniteFunction
        assert w.env["f"] == functions.decode(i)
        assert w.lhs == w.inputs["f"] == repr(functions.decode(i))


def test_a_full_section_is_its_decoded_value_while_others_are_unassigned():
    seen = []

    def lhs(e):
        k = e["k"]
        picks = tuple(k(0)(x) for x in DOM3)  # assigns the first section only
        decoded = FiniteFunction(DOM3.elements, picks)
        seen.append((type(k(1)), k(0) == decoded, hash(k(0)) == hash(decoded),
                     repr(k(0)) == repr(decoded)))
        return picks

    law = Law("reads-one-section",
              [("k", enumerate_functions(D2, enumerate_functions(DOM3, COD3)))],
              lhs, lhs)
    report = run_laws("demo", [law], operator.eq)
    assert report.law("reads-one-section").checked == 27 * 27
    # one completed evaluation per first section, each seen by both sides
    assert seen == [(_PartialFunction, True, True, True)] * (2 * 27)


def _evaluations(monkeypatch, report):
    """The number of ``Law.evaluate`` calls per law while ``report()`` runs:
    one per witness, since the walk of every row, exhaustive or sampled,
    builds and runs its sides directly."""
    counts = {}
    evaluate = Law.evaluate

    def counting(law, env):
        counts[law.name] = counts.get(law.name, 0) + 1
        return evaluate(law, env)

    monkeypatch.setattr(Law, "evaluate", counting)
    return report(), counts


def test_curried_reader_continuations_cost_pinned_evaluations(monkeypatch):
    # reader's bind reads nothing while it builds, so each side is built
    # once, and each environment's part reads m, k1 and k2 there alone: 8
    # leaves per part where the joint walk had 512 over all three
    fam = reader_family((0, 1, 2))
    d2, costs = _costs(monkeypatch, lambda: check_monad_laws(fam, D2), "associativity")
    assert d2.mode == "exhaustive" and d2.ok
    assert d2.law("associativity").checked == 32_768
    assert costs == (1, 0, (8, 8, 8))
    d3, costs = _costs(monkeypatch, lambda: check_monad_laws(fam, DOM3), "left-unit")
    assert d3.law("left-unit").checked == 59_049
    assert costs == (3, 0, (9, 9, 9))


PAIRS = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))


@pytest.mark.parametrize("check, law, checked, costs, failing", [
    (lambda: check_lift_morphism(reader_family((0, 1)), BIT, BIT),
     "lift-preserves-bind", 128, (1, 2, (8, 8)), ()),
    (lambda: check_theta_morphism(fst_lens(), identity_family(), PAIRS, BIT, BIT),
     "theta-preserves-bind", 16_384, (1, 64, (64,)), ()),
    # one build and 64 runs in the walk, then one of each per witness
    (lambda: check_theta_morphism(non_overwrite_lens(), identity_family(),
                                  PAIRS, BIT, BIT),
     "theta-preserves-bind", 16_384, (1 + 3, 64 + 3, (64,)), ("theta-preserves-bind",)),
], ids=["lift-reader", "theta-fst", "theta-non-overwrite"])
def test_curried_continuations_into_state_transformers_cost_pinned_evaluations(
        monkeypatch, check, law, checked, costs, failing):
    # the sides are built before the continuations are read, once per row,
    # and the runs at each state read them
    report, spent = _costs(monkeypatch, check, law)
    assert report.mode == "exhaustive" and report.failing_laws == failing
    assert report.law(law).checked == checked
    assert spent == costs


def test_choice_continuations_cost_pinned_evaluations(monkeypatch):
    # choice's bind runs its continuations while it builds, so a law with
    # one part costs one build and one observation per leaf, as it did in
    # the joint walk
    d2, costs = _costs(monkeypatch, lambda: check_monad_laws(choice_family(), D2),
                       "associativity")
    assert d2.mode == "exhaustive" and d2.ok
    assert d2.law("associativity").checked == 16_807
    assert costs == (3_871, 0, (3_871,))
    d2, costs = _costs(monkeypatch, lambda: check_monad_laws(choice_family(), D2),
                       "left-unit")
    assert d2.law("left-unit").checked == 98
    assert costs == (14, 0, (14,))


def _costs(monkeypatch, check, name):
    """The report of ``check()``, which calls ``checks.run_laws`` once, and
    what its law ``name`` costs when run again alone with the same keyword
    arguments (so a sampled law walks the same draws): the builds and the
    runs of one side, as ``_counting_sides`` counts them (the other side
    costs the same), and the observations of each part of the equality,
    in order.  A witness builds and runs each side once more and observes
    nothing."""
    given = []

    def recording(subject, laws, equal, **kwargs):
        given.append((list(laws), equal, kwargs))
        return run_laws(subject, laws, equal, **kwargs)

    monkeypatch.setattr(checks, "run_laws", recording)
    report = check()
    (laws, equal, kwargs), = given
    law, = [law for law in laws if law.name == name]
    parts = equal.parts if isinstance(equal, Conjunction) else (equal,)
    observations = [0] * len(parts)

    def counted(j, part):
        def observe(x, y):
            observations[j] += 1
            return part(x, y)

        return observe

    counts = collections.Counter()
    alone = run_laws(report.subject, [_counting_sides(law, counts)],
                     Conjunction(map(counted, range(len(parts)), parts)), **kwargs)
    assert alone.laws == (report.law(name),)
    builds, runs = (counts[name, "lhs", kind] for kind in ("builds", "runs"))
    assert (builds, runs) == tuple(counts[name, "rhs", kind] for kind in ("builds", "runs"))
    return report, (builds, runs, tuple(observations))


def _counting_sides(law, counts):
    """``law`` with sides that count their calls in ``counts``, keyed by
    (law, side, "builds"), and when ``law`` is pointwise the runs of the
    computations they build, keyed by (law, side, "runs").  When ``law``
    has a ``first``, the sides build continuations, and the builds and runs
    of ``first`` are counted as those of a side named "first", apart from
    the calls of each side's continuation, keyed by (law, side, "calls"):
    a family's ``bind`` may call a continuation more than once per run (a
    reader's, once per environment observed), or not at all."""
    def counted(build, side):
        def counted_build(env):
            counts[law.name, side, "builds"] += 1
            built = build(env)
            if not law.pointwise:
                return built
            if side != "first" and law.first is not None:
                def call(pair):
                    counts[law.name, side, "calls"] += 1
                    return built(pair)

                return call

            def run(s):
                counts[law.name, side, "runs"] += 1
                return built.run(s)

            return Stateful(built.effect, run)

        return counted_build

    first = law.first and counted(law.first, "first")
    return dataclasses.replace(law, lhs=counted(law.lhs, "lhs"), rhs=counted(law.rhs, "rhs"),
                               first=first)


def test_a_failing_law_without_function_quantifiers_costs_its_rows_and_witnesses(
        monkeypatch):
    # the set that both sides of set_l-get_l begin with is built once per
    # view and run once at each of the 4 states, and each side's
    # continuation is built once per view and called once per run (the
    # identity's bind calls it once); each witness is evaluated again from
    # its indices, one build and run of the set and one build and call per side
    bx = mutant_set_l_get_l()
    reference = check(bx, "seven").to_json()
    counts = collections.Counter()
    laws = [_counting_sides(law, counts) for law in seven_laws(bx)]
    report, evaluations = _evaluations(
        monkeypatch, lambda: run_laws(bx.name, laws, bx.effect.equal_values,
                                      effect=bx.effect.name))
    assert report.to_json() == reference
    result = report.law("set_l-get_l")
    assert result.checked == 8 and len(result.failures) == 3
    assert evaluations == {"set_l-get_l": 3}
    assert counts["set_l-get_l", "first", "builds"] == 2 + 3
    assert counts["set_l-get_l", "first", "runs"] == 8 + 3
    assert counts["get_l-get_l", "first", "builds"] == 1
    assert counts["get_l-get_l", "first", "runs"] == report.law("get_l-get_l").checked == 4
    for side in ("lhs", "rhs"):
        assert counts["set_l-get_l", side, "builds"] == 2 + 3
        assert counts["set_l-get_l", side, "calls"] == 8 + 3
        assert counts["get_l-get_l", side, "builds"] == 1
        assert counts["get_l-get_l", side, "calls"] == 4
        assert counts["get_l-set_l", side, "builds"] == 1
        assert counts["get_l-set_l", side, "runs"] == 4


def test_a_sampled_law_without_function_quantifiers_builds_each_drawn_row_once():
    # 400 draws over 4 or 8 assignments, and over 100 for "commutes": each
    # distinct row of the indices other than the state is built once, and
    # run once at each state drawn with it, however often it was drawn (a
    # law with a first computation runs it, and calls each continuation
    # once, since the identity's bind does); every draw is checked, and
    # each witness is built and run again
    bx = mutant_set_l_get_l()
    plain = Law("commutes", [("x", range(10)), ("y", range(10))],
                lambda e: e["x"] + e["y"], lambda e: e["y"] + e["x"])
    counts = collections.Counter()
    laws = [*seven_laws(bx), plain]
    report = run_laws(bx.name, [_counting_sides(law, counts) for law in laws],
                      bx.effect.equal_values, cap=3, seed=1, effect=bx.effect.name)
    assert report.mode == "sampled(n=400,seed=1)"
    assert report.laws[:-1] == check(bx, "seven", cap=3, seed=1).laws
    builds, runs = {}, {}
    for law, result in zip(laws, report.laws):
        spaces = [_as_space(dom) for _name, dom in law.quantifiers]
        drawn = set(_draws(spaces, 400, 1))
        rows = {draw[:-1] for draw in drawn} if law.pointwise else drawn
        witnesses = len(result.failures)
        assert result.checked == 400
        ran = "first" if law.first else "lhs"
        for side in ("lhs", "rhs", "first") if law.first else ("lhs", "rhs"):
            assert counts[law.name, side, "builds"] == len(rows) + witnesses
            assert counts[law.name, side, "calls" if law.first and side != "first"
                          else "runs"] == (len(drawn) + witnesses if law.pointwise else 0)
        builds[law.name] = counts[law.name, ran, "builds"]
        runs[law.name] = counts[law.name, ran, "runs"]
    assert report.failing_laws == ("set_l-get_l",)
    assert {law.name for law in laws if law.first} == {"get_l-get_l", "set_l-get_l",
                                                        "get_r-get_r", "set_r-get_r"}
    assert builds == {"get_l-get_l": 1, "set_l-get_l": 2 + 3, "get_l-set_l": 1,
                      "get_r-get_r": 1, "set_r-get_r": 2, "get_r-set_r": 1,
                      "get_l-get_r": 1, "commutes": 98}
    assert runs == {"get_l-get_l": 4, "set_l-get_l": 8 + 3, "get_l-set_l": 4,
                    "get_r-get_r": 4, "set_r-get_r": 8, "get_r-set_r": 4,
                    "get_l-get_r": 4, "commutes": 0}


def test_a_failing_sampled_law_costs_its_draws_and_witnesses(monkeypatch):
    space = enumerate_functions(DOM3, FiniteDomain("c", tuple(range(100))))
    law = Law("zero-at-x", [("f", space), ("x", DOM3)],
              lambda e: e["f"](e["x"]), lambda e: 0)
    counts = collections.Counter()
    report, evaluations = _evaluations(
        monkeypatch, lambda: run_laws("demo", [_counting_sides(law, counts)], operator.eq,
                                      cap=1000))
    result = report.law("zero-at-x")
    assert report.mode == "sampled(n=400,seed=0)"
    assert result.checked == 400 and len(result.failures) == 3
    # one build per leaf of the walk over the draws, where the draws that
    # agree at f(x) share one, up to the first row whose first draw comes
    # after the third witness, then one per witness, which alone evaluates
    assert counts["zero-at-x", "lhs", "builds"] == 76 + 3
    assert evaluations == {"zero-at-x": 3}


def test_a_side_that_raises_past_the_last_witness_is_never_evaluated():
    # rows 0 to 3 fail and row 4 divides by zero: the third failure settles
    # the witnesses, so the walk stops before row 3
    law = Law("late", [("x", range(5))], lambda e: 1 // (e["x"] - 4), lambda e: 0)
    result = run_laws("demo", [law], operator.eq).law("late")
    assert result.checked == 5
    assert [w.inputs for w in result.failures] == [{"x": "0"}, {"x": "1"}, {"x": "2"}]
    with pytest.raises(ZeroDivisionError):
        run_laws("demo", [law], operator.eq, max_witnesses=5)


def test_a_side_that_raises_before_the_last_witness_raises():
    # rows 0 and 1 fail, and row 2 divides by zero before a third failure
    law = Law("early", [("x", range(5))], lambda e: 1 // (e["x"] - 2), lambda e: 0)
    with pytest.raises(ZeroDivisionError):
        run_laws("demo", [law], operator.eq)


SIZES = (1, 2, 3, 255, 256, 257, 300 ** 8)


@pytest.mark.parametrize("seed", range(4))
def test_sampled_indices_are_drawn_as_randrange_draws_them(seed):
    # cap 0 samples every nonempty product
    for size in SIZES:
        rng = random.Random(seed)
        mode, _checked, _trail = _assignments([Space(size, None)], 0, 50, seed, False)
        assert mode == f"sampled(n=50,seed={seed})"
        assert list(_draws([Space(size, None)], 50, seed)) == [
            (rng.randrange(size),) for _ in range(50)]
    rng = random.Random(seed)
    draws = _draws([Space(size, None) for size in SIZES], 50, seed)
    assert list(draws) == [tuple(rng.randrange(size) for size in SIZES) for _ in range(50)]


@pytest.mark.parametrize("seed, spent", [
    (0, {"choice": (333, 0, (333,)), "reader": (1, 0, (27, 27, 27)),
         "writer": (310, 0, (310,)), "console": (9, 0, (162, 285))}),
    (1, {"choice": (356, 0, (356,)), "reader": (1, 0, (27, 27, 27)),
         "writer": (314, 0, (314,)), "console": (9, 0, (157, 288))}),
])
def test_sampled_d3_associativity_walks_its_draws_in_pinned_evaluations(
        monkeypatch, seed, spent):
    # the 400 draws of each law are walked: a build or an observation covers
    # every draw that agrees with the points it read, so none costs more
    # than the draws, and reader and console observe each context apart
    families = {fam.name: fam for fam in _families((0, 1, 2))}
    for name, costs in spent.items():
        report, walked = _costs(
            monkeypatch, lambda: check_monad_laws(families[name], DOM3, seed=seed),
            "associativity")
        assert report.mode == f"sampled(n=400,seed={seed})" and report.ok, name
        assert report.law("associativity").checked == 400
        assert walked == costs, name
        builds, runs, observations = walked
        assert max(builds, runs, *observations) <= 400


@pytest.mark.parametrize("options", [{}, {"cap": 0, "seed": 4}], ids=["default", "cap0-seed4"])
def test_no_exhaustive_law_of_the_aggregate_suites_evaluates_more_than_it_checks(
        monkeypatch, options):
    # each evaluation of the walk covers at least one assignment, and a
    # passing exhaustive pointwise law with no function quantifier builds
    # its lhs once per assignment of the other quantifiers and runs it once
    # per assignment; the witnesses, evaluated again from their indices, are
    # not part of either.  ``checked`` is the size of the space the verdict
    # covers: the product of the domain sizes when exhaustive, the 400 draws
    # when sampled, also for a failing law that stops at its last witness
    walks, at_every_state, sizes = [], [], []

    def counting_run_laws(subject, laws, equal, cap=None, **kwargs):
        laws, counts = list(laws), collections.Counter()
        report = run_laws(subject, [_counting_sides(law, counts) for law in laws],
                          equal, cap=cap, **kwargs)
        for law, result in zip(laws, report.laws):
            spaces = [_as_space(dom) for _name, dom in law.quantifiers]
            size = math.prod(d.size for d in spaces)
            sizes.append((subject, law.name, result.mode, size, result.checked))
            if result.mode != "exhaustive":
                continue
            witnesses = len(result.failures)
            # a law with a first computation builds and runs it once for
            # both sides, and builds each side's continuation as often
            ran = "first" if law.first else "lhs"
            builds = counts[law.name, ran, "builds"] - witnesses
            if law.first:
                assert counts[law.name, "lhs", "builds"] - witnesses == builds
            # an evaluation is a run when pointwise, else a call of the lhs
            evaluations = counts[law.name, ran, "runs"] - witnesses if law.pointwise else builds
            walks.append((subject, law.name, evaluations, result.checked))
            if law.pointwise and not any(d.functions for d in spaces):
                at_every_state.append((subject, law.name, builds * spaces[-1].size,
                                       evaluations, result.checked, result.ok))
        return report

    for name, module in list(sys.modules.items()):
        if name.startswith("effectbx.") and getattr(module, "run_laws", None) is run_laws:
            monkeypatch.setattr(module, "run_laws", counting_run_laws)
    assert (run_monad_suite(**options)["ok"] and run_state_suite(**options)["ok"]
            and run_corpus(**options)["ok"])
    assert [w for w in walks if w[2] > w[3]] == []
    assert [w for w in at_every_state if w[5] and not w[2] == w[3] == w[4]] == []
    # a failing law stops before the first row that cannot come before its
    # last witness: (builds times states, runs, checked) per failing law
    failing = {w[:2]: w[2:5] for w in at_every_state if not w[5]}
    if not options:
        assert failing == {
            ("log(identity):overwritable", "set_l-set_l"): (8, 8, 8),
            ("log(identity):overwritable", "set_r-set_r"): (8, 8, 8),
            ("mutant-get_l-get_l", "get_l-get_l"): (4, 4, 4),
            ("mutant-get_l-get_r", "get_l-get_r"): (4, 4, 4),
            ("mutant-get_l-set_l", "get_l-set_l"): (8, 8, 8),
            ("mutant-get_r-get_r", "get_r-get_r"): (4, 4, 4),
            ("mutant-get_r-set_r", "get_r-set_r"): (8, 8, 8),
            ("mutant-lens-vu", "get_r-set_r"): (4, 4, 4),
            ("mutant-set_l-get_l", "set_l-get_l"): (8, 8, 8),
            ("mutant-set_r-get_r", "set_r-get_r"): (8, 8, 8),
            ("mutant-unstable:stability", "stable-set_l-first"): (16, 16, 16),
            ("pair(log(identity),log(identity)):overwritable", "set_l-set_l"): (12, 12, 64),
            ("pair(log(identity),log(identity)):overwritable", "set_r-set_r"): (12, 12, 64),
        }
    exhaustive = [size for size in sizes if size[2] == "exhaustive"]
    sampled = [size for size in sizes if size[2] != "exhaustive"]
    assert [size for size in exhaustive if size[3] != size[4]] == []
    assert [size for size in sampled if size[4] != 400] == []
    if options:
        # every law with a nonempty space of at least one quantifier is sampled
        assert len(sampled) > 100 and {size[4] for size in exhaustive} <= {0, 1}
    else:
        assert len(walks) > 100 and len(at_every_state) > 100


# the live view itself: a dict of the points assigned so far, read by
# dict lookup, whose first read of a point falls to ``__missing__``

def _view(domain=(0, 1, 2), codomain=("x", "y")):
    trail = []
    return _PartialFunction(domain, codomain, [None] * len(domain), trail), trail


def _advance(view, key, index):
    """Give ``key`` its next codomain value, as ``run_laws`` backtracks."""
    view.digits[index] += 1
    dict.__setitem__(view, key, view.codomain[view.digits[index]])


def test_a_view_with_no_point_assigned_is_truthy():
    view, trail = _view()
    assert dict.__len__(view) == 0 and bool(view) is True
    assert trail == []


def test_a_view_compares_unequal_exactly_when_it_compares_unequal_decoded():
    view, _ = _view()
    other, _ = _view()
    assert view(1) == "x" and other(2) == "x"
    assert (view == other, view != other) == (True, False)
    assert (view == FiniteFunction((0, 1, 2), ("x", "x", "x")),
            view != FiniteFunction((0, 1, 2), ("x", "x", "x"))) == (True, False)
    _advance(other, 2, 2)
    assert (view == other, view != other) == (False, True)
    assert (other == view, other != view) == (False, True)
    decoded = FiniteFunction((0, 1, 2), ("x", "x", "y"))
    assert (other == decoded, other != decoded) == (True, False)
    assert (view == decoded, view != decoded) == (False, True)
    assert (decoded != other, decoded != view) == (False, True)


class _Alias:
    """Equal to ``key`` but hashed unlike it."""

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        return other == self.key

    def __hash__(self):
        return hash(("alias", self.key))


def test_a_key_equal_to_an_assigned_point_but_hashed_unlike_it_reads_that_point():
    view, trail = _view()
    assert view(1) == "x" and trail == [(view, 1, 1)]
    assert view(_Alias(1)) == "x"
    _advance(view, 1, 1)
    assert view(_Alias(1)) == "y"
    assert trail == [(view, 1, 1)] and dict(dict.items(view)) == {1: "y"}
    # an alias of an unassigned point assigns the domain's own key
    assert view(_Alias(2)) == "x"
    assert trail == [(view, 1, 1), (view, 2, 2)] and view(2) == "x"


def test_an_out_of_domain_read_of_a_view_raises_key_error():
    view, trail = _view()
    with pytest.raises(KeyError) as raised:
        view(7)
    assert raised.value.args == ("7 outside function domain",)
    with pytest.raises(KeyError) as decoded:
        FiniteFunction((0, 1, 2), ("x", "x", "x"))(7)
    assert decoded.value.args == raised.value.args
    assert trail == [] and dict.__len__(view) == 0


def test_an_out_of_domain_read_of_a_curried_view_raises_key_error():
    law = Law(
        "outside",
        [("k", enumerate_functions(D2, enumerate_functions(DOM3, COD3)))],
        lambda e: e["k"](7),
        lambda e: "x",
    )
    with pytest.raises(KeyError, match="7 outside function domain"):
        run_laws("demo", [law], operator.eq)


def _answer(read, f):
    """What ``read(f)`` gives: its value, or the type of what it raises."""
    try:
        return "value", read(f)
    except Exception as exc:  # noqa: BLE001 - the type is the answer
        return "raises", type(exc)


_READS = {
    **{f"attribute {name}": (lambda f, name=name: getattr(f, name))
       for name in sorted({n for n in (*dir(FiniteFunction), *dir(dict))
                           if not n.startswith("_")})},
    "call in domain": lambda f: f(0),
    "call outside": lambda f: f(7),
    "==": lambda f: f == FiniteFunction((0, 1, 2), ("x", "y", "x")),
    "!=": lambda f: f != FiniteFunction((0, 1, 2), ("x", "x", "x")),
    "hash": hash,
    "repr": repr,
    "str": str,
    "stable_repr": stable_repr,
    "bool": bool,
    "callable": callable,
    "iter": iter,
    "list": list,
    "in": lambda f: 0 in f,
    "len": len,
    "reversed": reversed,
    "subscript": lambda f: f[0],
    "dict": dict,
    "|": lambda f: f | {},
    "reflected |": lambda f: {} | f,
    "<": lambda f: f < f,
    "get, by hasattr": lambda f: hasattr(f, "get"),
    "item assignment": lambda f: operator.setitem(f, 0, "y"),
    "item deletion": lambda f: operator.delitem(f, 0),
    "|=": lambda f: operator.ior(f, {0: "y"}),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda f: pickle.loads(pickle.dumps(f)),
}


@pytest.mark.parametrize("read", list(_READS))
def test_a_view_answers_every_read_as_its_decoded_function(read):
    # every public attribute of a FiniteFunction and of a dict, and every
    # protocol, gives the same value or raises the same type through a view
    # as on the function it decodes to, writes and copies included; a write
    # leaves the view as it was
    view, _ = _view()
    assert view(1) == "x"
    _advance(view, 1, 1)
    decoded = FiniteFunction((0, 1, 2), ("x", "y", "x"))
    assert _answer(_READS[read], view) == _answer(_READS[read], decoded)
    assert view == decoded


FUNCTIONS = enumerate_functions(DOM3, BIT)


@pytest.mark.parametrize("side, raised", [
    (lambda e: e["f"].get(0, 0), AttributeError),
    (lambda e: sum(e["f"](x) for x in e["f"]), TypeError),
    (lambda e: len(e["f"]) * 0, TypeError),
    (lambda e: 0 * (1 in e["f"]), TypeError),
    (lambda e: e["f"][0] * 0, TypeError),
    (lambda e: len(e["f"].items()), AttributeError),
    (lambda e: operator.setitem(e["f"], 0, 0) or e["f"](0), TypeError),
    (lambda e: operator.delitem(e["f"], 0) or e["f"](0), TypeError),
], ids=["get", "iterate", "len", "in", "subscript", "items", "assign", "delete"])
def test_a_law_that_reads_a_function_other_than_by_calling_it_raises_as_decoded(side, raised):
    # on a dict of the points assigned so far each of these sides reads 0,
    # so the law would hold, where plain decoding raises
    law = Law("other-read", [("f", FUNCTIONS)], side, lambda e: 0)
    with pytest.raises(raised):
        law.evaluate({"f": FUNCTIONS.decode(1)})
    with pytest.raises(raised):
        run_laws("demo", [law], operator.eq)
    curried = Law("other-read", [("k", enumerate_functions(D2, FUNCTIONS))],
                  lambda e: side({"f": e["k"]}), lambda e: 0)
    with pytest.raises(raised):
        run_laws("demo", [curried], operator.eq)


def test_a_curried_view_reads_its_keys_and_sections_as_decoded():
    # the sections are views too, and compare as the functions they decode to
    curried = enumerate_functions(D2, FUNCTIONS)
    law = Law("keys-values", [("k", curried)],
              lambda e: (e["k"].keys, e["k"].values),
              lambda e: ((0, 1), (FUNCTIONS.decode(0),) * 2))
    report = run_laws("demo", [law], operator.eq)
    assert report.law("keys-values").checked == 64
    assert len(report.law("keys-values").failures) == 3
    plain = dataclasses.replace(law, quantifiers=[("k", tuple(curried))])
    assert report.to_json() == run_laws("demo", [plain], operator.eq).to_json()


def test_functions_over_unhashable_keys_are_enumerated_plainly():
    lists = FiniteDomain("lists", ([0], [1]))
    space = enumerate_functions(lists, BIT)
    assert space.functions is None

    def report(functions):
        law = Law("same-at-both", [("k", functions)],
                  lambda e: e["k"]([0]), lambda e: e["k"]([1]))
        return run_laws("demo", [law], operator.eq)

    lazy, plain = report(space), report(tuple(space))
    assert lazy.law("same-at-both").checked == 4
    assert [w.inputs["k"] for w in lazy.law("same-at-both").failures] == [
        "{[0]->1, [1]->0}", "{[0]->0, [1]->1}"]
    assert lazy.to_json() == plain.to_json()
