"""Cross-implementation differentials: the two composers implementations over
many scripts, the flattened composers bx, a hand-rolled re-evaluation of
every per-bx suite of the corpus and of the suites with function-valued
quantifiers, the runner's per-state loop for pointwise laws against its
row-by-row walk, its part-by-part walk of a conjunction against the
joint walk of the same equality as one part, its walk over sampled
draws against evaluating each draw, and a failing law's stop at its last
witness against walking it to the end."""

import dataclasses
import itertools
import json
import math
import operator
import random
import sys

import pytest

from effectbx import (
    CHECKS,
    NOTHING,
    Bx,
    Conjunction,
    FiniteDomain,
    FiniteFunction,
    bx_to_symlens,
    check,
    check_lift_morphism,
    check_monad_laws,
    check_commutative,
    check_equivalence,
    check_theta_morphism,
    compose,
    composers_bx,
    composers_symlens,
    console_family,
    dual,
    fst_lens,
    identity_bx,
    identity_family,
    identity_lens,
    lens_to_bx,
    native_state_family,
    pointwise,
    reader_family,
    snd_lens,
    state_law_suite,
    symlens_to_bx,
)
from effectbx import bx as bx_module, checks, lawcheck, stateful
from effectbx.compose import assoc_bijection
from effectbx.corpus import (
    _entry_suites,
    _families,
    corpus_entries,
    mutant_set_l_get_l,
    non_overwrite_lens,
    run_state_suite,
)
from effectbx.examples import _BxRunner
from effectbx.lawcheck import (
    DEFAULT_CAP,
    DEFAULT_SAMPLE,
    Law,
    LawReport,
    LawResult,
    Witness,
    _as_space,
    enumerate_functions,
    run_laws,
    stable_repr,
)


BEA = ("Bea", "AT")
KIM = ("Kim", "DE")
LEFT_VIEWS = [
    frozenset(),
    frozenset({("Bea", "AT", None)}),
    frozenset({("Bea", "AT", ("1", "2"))}),
    frozenset({("Bea", "AT", ("1", "2")), ("Kim", "DE", None)}),
]
RIGHT_VIEWS = [(), (BEA,), (KIM, BEA)]
BIT = FiniteDomain("bit", (0, 1))
PAIRS = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))
D1, D2 = FiniteDomain("d1", (0,)), FiniteDomain("d2", (0, 1))
S1, S2 = FiniteDomain("s1", (0,)), FiniteDomain("s2", (0, 1))


def _ops():
    ops = [("getL", None), ("getR", None)]
    ops += [("setL", v) for v in LEFT_VIEWS]
    ops += [("setR", v) for v in RIGHT_VIEWS]
    return ops


def test_composers_agree_on_all_short_scripts():
    ops = _ops()
    checked = 0
    for script in itertools.product(ops, repeat=3):
        sym = _BxRunner(symlens_to_bx(composers_symlens()))
        native = _BxRunner(composers_bx())
        for op, value in script:
            out_sym = sym.apply(op, value)
            out_bx = native.apply(op, value)
            assert out_sym == out_bx, (script, op)
            assert sym.views() == native.views(), (script, op)
        checked += 1
    assert checked == len(ops) ** 3


def test_flattened_composers_bx_agrees_with_symlens():
    # flatten the bx back into a symmetric lens and drive it alongside the
    # original put functions
    flat = bx_to_symlens(composers_bx())
    sl = composers_symlens()
    mc = NOTHING
    c = sl.missing
    for view in LEFT_VIEWS:
        rows_flat, mc = flat.put_r(view, mc)
        rows_sl, c = sl.put_r(view, c)
        assert rows_flat == rows_sl
    for rows in RIGHT_VIEWS:
        left_flat, mc = flat.put_l(rows, mc)
        left_sl, c = sl.put_l(rows, c)
        assert left_flat == left_sl


def _plain_enumeration(laws, equal, max_witnesses=3):
    """Each law's report entry computed by evaluating every total
    assignment of its quantifiers, in ``itertools.product`` order."""
    entries = []
    for law in laws:
        names = [n for n, _d in law.quantifiers]
        doms = [tuple(dom) for _n, dom in law.quantifiers]
        count, failures = 0, []
        for values in itertools.product(*doms):
            env = dict(zip(names, values))
            lhs, rhs = law.evaluate(env)
            count += 1
            if not equal(lhs, rhs) and len(failures) < max_witnesses:
                failures.append({
                    "inputs": {k: stable_repr(v) for k, v in env.items()},
                    "lhs": stable_repr(lhs),
                    "rhs": stable_repr(rhs),
                })
        entries.append({"name": law.name, "checked": count, "failures": failures})
    return entries


def test_every_corpus_suite_against_hand_rolled_evaluation():
    # meta-oracle: evaluate each law side directly at every assignment and
    # compare with the runner's counts, verdicts and witnesses
    total = 0
    for entry in corpus_entries():
        bx = entry.build()
        for suite in _entry_suites(entry):
            where = f"{entry.name}/{suite}"
            report = check(bx, suite)
            assert report.mode == "exhaustive", where
            entries = _plain_enumeration(CHECKS[Bx, suite].laws(bx), bx.effect.equal_values)
            assert report.to_dict()["laws"] == entries, where
            total += sum(e["checked"] for e in entries)
    assert total >= 8000


def _three_stage_law():
    """A pointwise law over ``BIT`` that reads its function quantifier
    ``k`` while building (``k(2)``), while running (``k(s)``) and while each
    reader environment observes the run (``k(env)``), and fails at leaves
    of each stage, with the reader family's equality."""
    fam = reader_family((0, 1))

    def lhs(e):
        k = e["k"]
        c = k(2)

        def run(s):
            t = k(s)
            return lambda env: (c ^ t ^ k(env), s)

        return stateful.Stateful(fam, run)

    law = pointwise("three-stages",
                    [("k", enumerate_functions(FiniteDomain("k3", (0, 1, 2)), (0, 1)))],
                    BIT, lhs, lambda e: stateful.st_unit(fam, 0))
    return law, fam.equal


def _function_quantifier_cases():
    # two reader contexts, not three: reader/d2 associativity would spend
    # over a second in plain enumeration alone
    fams = _families((0, 1))
    yield from ((f"monad/{fam.name}/{dom.name}", checks, check_monad_laws, (fam, dom))
                for fam in fams for dom in (D1, D2))
    yield from ((f"state/{fam.name}/{dom.name}", checks, state_law_suite,
                 (fam, dom, BIT)) for fam in fams for dom in (S1, S2))
    yield from ((f"lift/{fam.name}", checks, check_lift_morphism, (fam, BIT, BIT))
                for fam in fams)
    ident = identity_family()
    for name, lens, source in (("fst", fst_lens(), PAIRS), ("snd", snd_lens(), PAIRS),
                               ("identity", identity_lens(), BIT),
                               ("non-overwrite", non_overwrite_lens(), PAIRS)):
        yield (f"theta/{name}", checks, check_theta_morphism,
               (lens, ident, source, BIT, BIT))
    # through the module, so that the patched runner is the one called
    yield ("three-stages", lawcheck,
           lambda law, equal: lawcheck.run_laws("three-stages", [law], equal),
           _three_stage_law())


def test_function_quantified_suites_against_plain_enumeration(monkeypatch):
    # the runner evaluates only the points of a function a law reads; plain
    # enumeration of every total function must give the same counts,
    # verdicts and witnesses
    failing = set()
    for where, module, check, args in _function_quantifier_cases():
        calls = []

        def recording(subject, laws, equal, **kwargs):
            calls.append((laws, equal))
            return run_laws(subject, laws, equal, **kwargs)

        monkeypatch.setattr(module, "run_laws", recording)
        report = check(*args)
        (laws, equal), = calls
        assert report.mode == "exhaustive", where
        assert report.to_dict()["laws"] == _plain_enumeration(laws, equal), where
        failing.update(f"{where}:{name}" for name in report.failing_laws)
    assert failing == {"theta/non-overwrite:theta-preserves-bind",
                       "three-stages:three-stages"}


# an exhaustive pointwise law with no function quantifier is checked by
# building each side once per assignment of its other quantifiers and
# running it at every state; the same law as a plain law whose sides run at
# ``s``, walked row by row, is the reference


def _per_row(law):
    """``law`` as a plain law over the same quantifiers, ``s`` included,
    whose sides are those that ``Law.evaluate`` gives at each assignment,
    as ``run_laws`` walks a plain law."""
    if not law.pointwise:
        return law
    return Law(law.name, law.quantifiers,
               lambda e: law.evaluate(e)[0], lambda e: law.evaluate(e)[1])


def _pointwise_reports(cap, seed):
    """The JSON of every corpus entry's suites, of ``run_state_suite`` and of
    the associativity equivalences of acceptance criterion 5."""
    reports = []
    for entry in corpus_entries():
        bx = entry.build()
        for suite in _entry_suites(entry):
            if suite != "init" or bx.initialisable:
                reports.append(check(bx, suite, cap=cap, seed=seed).to_json())
    reports.append(json.dumps(run_state_suite(cap=cap, seed=seed), sort_keys=True))
    fam = identity_family()
    fstbx = lens_to_bx(fst_lens(), PAIRS, BIT, name="fst")
    for b1, b2, b3 in (
        (identity_bx(fam, PAIRS, name="t1"), fstbx, identity_bx(fam, BIT, name="t2")),
        (identity_bx(fam, PAIRS, name="u1"), identity_bx(fam, PAIRS, name="u2"), fstbx),
        (dual(lens_to_bx(snd_lens(), PAIRS, BIT)), fstbx, identity_bx(fam, BIT, name="v3")),
    ):
        reports.append(check_equivalence(compose(compose(b1, b2), b3),
                                         compose(b1, compose(b2, b3)),
                                         assoc_bijection(), cap=cap, seed=seed).to_json())
    return reports


@pytest.mark.parametrize("cap, seed", [(None, 0), (3, 1)])
def test_pointwise_laws_report_as_their_row_by_row_walk(monkeypatch, cap, seed):
    batched = _pointwise_reports(cap, seed)
    pointwise_laws = []

    def per_row(subject, laws, *args, **kwargs):
        laws = list(laws)
        pointwise_laws.extend(law for law in laws if law.pointwise)
        return run_laws(subject, [_per_row(law) for law in laws], *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("effectbx.") and getattr(module, "run_laws", None) is run_laws:
            monkeypatch.setattr(module, "run_laws", per_row)
    assert _pointwise_reports(cap, seed) == batched
    assert len(pointwise_laws) > 200
    assert any('"failures": [{' in report for report in batched)


# get-get, set-get and the stability laws begin both sides with one
# computation, which the walk runs once per state for both; the same laws
# stated as two computations each, as the paper writes them, are the
# reference

SHIPPED_GET_SET_LAWS = stateful.get_set_laws


def _two_computation_get_set_laws(get, set_, views, states, names=("get", "set"),
                                  variables=("x", "y")):
    """``stateful.get_set_laws`` with get-get and set-get stated as two
    computations each."""
    get_name, set_name = names
    x, _y = variables
    fam = get.effect
    return [
        pointwise(f"{get_name}-{get_name}", [], states,
                  lambda e: get.bind(lambda a: get.map(lambda a2: (a, a2))),
                  lambda e: get.map(lambda a: (a, a))),
        pointwise(f"{set_name}-{get_name}", [(x, views)], states,
                  lambda e: set_(e[x]).then(get),
                  lambda e: set_(e[x]).then(stateful.st_unit(fam, e[x]))),
        *SHIPPED_GET_SET_LAWS(get, set_, views, states, names, variables)[2:],
    ]


def _two_computation_stability_laws(bx):
    """``bx.stability_laws`` with each law stated as two computations."""
    pairs = bx_module.consistent_pairs(bx)
    unit = stateful.st_unit
    return [
        pointwise("stable-set_l-first", [("p", pairs)], bx.state_domain,
                  lambda e: bx.set_l(e["p"][0]).then(bx.set_r(e["p"][1])).then(bx.get_l),
                  lambda e: bx.set_l(e["p"][0]).then(bx.set_r(e["p"][1]))
                  .then(unit(bx.effect, e["p"][0]))),
        pointwise("stable-set_r-first", [("p", pairs)], bx.state_domain,
                  lambda e: bx.set_r(e["p"][1]).then(bx.set_l(e["p"][0])).then(bx.get_r),
                  lambda e: bx.set_r(e["p"][1]).then(bx.set_l(e["p"][0]))
                  .then(unit(bx.effect, e["p"][1]))),
    ]


def _first_computation_reports(cap, seed):
    """The JSON of every corpus entry's seven, overwritable and stability
    suites, and of ``run_state_suite``, with the laws that share a first
    computation."""
    reports = []
    for entry in corpus_entries():
        bx = entry.build()
        for suite in ("seven", "overwritable", "stability"):
            reports.append(check(bx, suite, cap=cap, seed=seed).to_json())
    reports.append(json.dumps(run_state_suite(cap=cap, seed=seed), sort_keys=True))
    return reports


@pytest.mark.parametrize("cap, seed", [(None, 0), (3, 1)])
def test_laws_with_a_first_computation_report_as_their_two_computation_form(
        monkeypatch, cap, seed):
    shared = _first_computation_reports(cap, seed)
    bit = identity_bx(identity_family(), BIT)
    assert [law.first is not None for law in bx_module.seven_laws(bit)] == [
        True, True, False, True, True, False, False]
    assert [law.first is not None for law in bx_module.overwritable_laws(bit)] == [False, False]
    assert all(law.first is not None for law in bx_module.stability_laws(bit))
    monkeypatch.setattr(stateful, "get_set_laws", _two_computation_get_set_laws)
    monkeypatch.setattr(bx_module, "get_set_laws", _two_computation_get_set_laws)
    monkeypatch.setattr(bx_module, "stability_laws", _two_computation_stability_laws)
    monkeypatch.setitem(CHECKS, (Bx, "stability"), dataclasses.replace(
        CHECKS[Bx, "stability"], laws=_two_computation_stability_laws))
    assert not any(law.first for suite in ("seven", "stability")
                   for law in CHECKS[Bx, suite].laws(bit))
    assert _first_computation_reports(cap, seed) == shared
    assert any('"failures": [{' in report for report in shared)


@pytest.mark.parametrize("outer, states", [([("a", BIT)], ()), ([("a", ())], BIT),
                                           ([], ())], ids=["no-state", "no-a", "nothing"])
def test_a_vacuous_pointwise_law_checks_nothing_and_builds_nothing(outer, states):
    def build(_env):
        raise AssertionError("a vacuous law built a side")

    law = pointwise("vacuous", outer, states, build, build)
    for checked in (law, _per_row(law)):
        report = run_laws("vacuous", [checked], operator.eq)
        assert report.mode == "exhaustive" and report.ok
        assert report.laws[0].checked == 0


# a family whose equality is a conjunction over contexts is walked context
# by context; the same family with its equality as one plain part is walked
# jointly over the union of what every context reads, and is the reference


def _jointly(fam):
    """``fam`` with its equality as one part that ``run_laws`` cannot
    split."""
    whole = fam.equal
    return dataclasses.replace(fam, equal=lambda x, y: whole(x, y))


def _conjunction_cases():
    native = native_state_family(S2).family
    ca, cb = FiniteDomain("ca", (0, 1)), FiniteDomain("cb", (2, 3))
    for fam in (*_families((0, 1, 2)), native):
        for dom in (D1, D2):
            yield f"monad/{fam.name}/{dom.name}", fam, (
                lambda fam, dom=dom, **kw: check_monad_laws(fam, dom, **kw))
        yield f"commute/{fam.name}", fam, (
            lambda fam, **kw: check_commutative(fam, ca, cb, **kw))
    for fam in (*_families((0, 1)), native):
        for dom in (S1, S2, FiniteDomain("s3", (0, 1, 2))):
            yield f"state/{fam.name}/{dom.name}", fam, (
                lambda fam, dom=dom, **kw: state_law_suite(fam, dom, BIT, **kw))
        yield f"lift/{fam.name}", fam, (
            lambda fam, **kw: check_lift_morphism(fam, BIT, BIT, **kw))
    for fam in (identity_family(), reader_family((0, 1))):
        for name, lens in (("fst", fst_lens()), ("non-overwrite", non_overwrite_lens())):
            yield f"theta/{name}/{fam.name}", fam, (
                lambda fam, lens=lens, **kw: check_theta_morphism(lens, fam, PAIRS, BIT, BIT,
                                                                  **kw))
    # equalities with no parts, which hold everywhere
    for fam in (reader_family(()), console_family(scripts=())):
        yield f"monad/{fam.name}/no-contexts/d1", fam, (
            lambda fam, **kw: check_monad_laws(fam, D1, **kw))


@pytest.mark.parametrize("cap, seed", [(None, 0), (100, 3)])
def test_conjunctions_report_as_their_joint_walk(cap, seed):
    failing, checked = set(), {}
    for where, fam, check in _conjunction_cases():
        report = check(fam, cap=cap, seed=seed)
        assert report.to_json() == check(_jointly(fam), cap=cap, seed=seed).to_json(), where
        failing.update(f"{where}:{name}" for name in report.failing_laws)
        if where.endswith("/no-contexts/d1"):
            checked[where] = [law.checked for law in report.laws]
    assert checked == {"monad/reader/no-contexts/d1": [1, 1, 1],
                       "monad/console/no-contexts/d1": [3, 3, 27]}
    # native state does not commute, and its failing assignments are walked
    # state by state (exhaustively at the default cap), some failing at both
    assert "commute/native-state:commute" in failing
    assert "theta/non-overwrite/reader:theta-preserves-bind" in failing


# a sampled law with a function quantifier walks its draws, grouped by their
# plain indices, and evaluates each leaf once for every draw that agrees
# with the points it read; evaluating each draw on its decoded values, as
# random.Random(seed).randrange draws it, is the reference


def _per_draw(subject, laws, equal, cap=None, sample=DEFAULT_SAMPLE, seed=0,
              max_witnesses=3, effect=""):
    """``run_laws`` with every sampled law checked draw by draw: each index
    drawn by ``randrange``, each quantifier decoded, the sides evaluated by
    ``Law.evaluate`` and compared by the whole of ``equal``.  An exhaustive
    law is left to ``run_laws``."""
    cap = DEFAULT_CAP if cap is None else cap
    results, modes = [], set()
    for law in laws:
        spaces = [_as_space(dom) for _name, dom in law.quantifiers]
        if math.prod(d.size for d in spaces) <= cap:
            report = run_laws(subject, [law], equal, cap=cap, sample=sample, seed=seed,
                              max_witnesses=max_witnesses)
            results.extend(report.laws)
            modes.add(report.mode)
            continue
        rng = random.Random(seed)
        failures = []
        for _ in range(sample):
            env = {name: d.decode(rng.randrange(d.size))
                   for (name, _dom), d in zip(law.quantifiers, spaces)}
            x, y = law.evaluate(env)
            if not equal(x, y) and len(failures) < max_witnesses:
                failures.append(Witness(inputs={k: stable_repr(v) for k, v in env.items()},
                                        lhs=stable_repr(x), rhs=stable_repr(y)))
        mode = f"sampled(n={sample},seed={seed})"
        results.append(LawResult(law.name, sample, tuple(failures), mode))
        modes.add(mode)
    mode = "exhaustive" if modes <= {"exhaustive"} else ", ".join(sorted(modes - {"exhaustive"}))
    return LawReport(subject=subject, mode=mode, laws=tuple(results), effect=effect)


def _sampled_cases():
    families = {fam.name: fam for fam in _families((0, 1, 2))}
    d3 = FiniteDomain("d3", (0, 1, 2))
    for seed in range(4):
        for name in ("choice", "reader", "writer", "console"):
            yield (f"monad/{name}/d3/seed{seed}", checks,
                   lambda fam=families[name], seed=seed: check_monad_laws(fam, d3, seed=seed))
    yield ("state/choice/s4", checks,
           lambda: state_law_suite(families["choice"], FiniteDomain("s4", (0, 1, 2, 3)),
                                   BIT, cap=1000))
    yield ("commute/console", checks,
           lambda: check_commutative(families["console"], FiniteDomain("ca", (0, 1)),
                                     FiniteDomain("cb", (2, 3)), cap=10))
    # four functions and 400 draws: every draw has duplicates
    law = Law("constant", [("f", enumerate_functions(BIT, BIT))],
              lambda e: e["f"](0), lambda e: e["f"](1))
    yield ("constant/cap2", sys.modules[__name__],
           lambda: run_laws("constant", [law], operator.eq, cap=2))
    # comparing the views reads every point, so the walk branches on each
    functions = enumerate_functions(FiniteDomain("d3", (0, 1, 2)), (0, 1, 2))
    same = Law("same-at-zero", [("f", functions), ("g", functions)],
               lambda e: e["f"] == e["g"], lambda e: e["f"](0) == e["g"](0))
    yield ("same-at-zero/cap100", sys.modules[__name__],
           lambda: run_laws("same-at-zero", [same], operator.eq, cap=100))
    # pointwise laws with no function quantifier, one failing: 400 draws over
    # 4 or 8 assignments, so every row is drawn many times
    yield ("seven/mutant-set_l-get_l/cap3", checks,
           lambda: check(mutant_set_l_get_l(), "seven", cap=3, seed=1))
    # pointwise laws whose curried continuations are read while the sides
    # run at each drawn state, one failing
    yield ("theta/non-overwrite/reader/cap100", checks,
           lambda: check_theta_morphism(non_overwrite_lens(), reader_family((0, 1)), PAIRS,
                                        BIT, BIT, cap=100, seed=3))
    for fam in _families((0, 1)):
        if fam.name in ("reader", "choice"):
            yield (f"lift/{fam.name}/cap10", checks,
                   lambda fam=fam: check_lift_morphism(fam, BIT, BIT, cap=10, seed=1))
    # a function quantifier read while building, running and observing
    law, equal = _three_stage_law()
    yield ("three-stages/cap1", lawcheck,
           lambda: lawcheck.run_laws("three-stages", [law], equal, cap=1, seed=0))


def test_sampled_laws_report_as_their_draws_evaluated_one_by_one(monkeypatch):
    failing = set()
    for where, module, check in _sampled_cases():
        walked = check()
        with monkeypatch.context() as patched:
            patched.setattr(module, "run_laws", _per_draw)
            assert check().to_json() == walked.to_json(), where
        assert walked.mode.startswith("sampled(n=400,"), where
        failing.update(f"{where}:{name}" for name in walked.failing_laws)
    assert failing == {"commute/console:commute", "constant/cap2:constant",
                       "same-at-zero/cap100:same-at-zero",
                       "seven/mutant-set_l-get_l/cap3:set_l-get_l",
                       "theta/non-overwrite/reader/cap100:theta-preserves-bind",
                       "three-stages/cap1:three-stages"}


def test_a_sampled_side_that_raises_raises_as_its_draw_does():
    def lhs(e):
        return 1 / (e["k"](0) - e["k"](1)) if e["x"] else 0

    law = Law("divides", [("k", enumerate_functions(BIT, (0, 1, 2))), ("x", BIT)],
              lhs, lambda e: 0)
    for runner in (run_laws, _per_draw):
        with pytest.raises(ZeroDivisionError):
            runner("divides", [law], operator.eq, cap=3)


# a failing law stops before a row whose lowest order cannot come before its
# last witness; the same law walked to the end, with room for every failure
# and its report cut to the first ones, is the reference

D3 = FiniteDomain("d3", (0, 1, 2))


def _stopping_cases():
    """Failing laws by name, each with its equality and ``run_laws``
    options, and at least four failures."""
    ident = identity_family()
    functions = [("f", enumerate_functions(D3, BIT)), ("x", D3)]
    constant = [FiniteFunction(D3.elements, (x % 2,) * 3) for x in D3]
    return {
        "plain": (Law("plain", [("x", D3), ("y", D3)],
                      lambda e: e["x"] + e["y"], lambda e: e["x"] * e["y"]), operator.eq, {}),
        "pointwise": (pointwise(
            "pointwise", [("x", D3)], D3,
            lambda e: stateful.Stateful(ident, lambda s, x=e["x"]: ((x + s) % 2, s)),
            lambda e: stateful.st_unit(ident, 0)), operator.eq, {}),
        # the rows of x = 1 and 2 hold lower orders than the third failure
        # at x = 0
        "function-first": (Law("function-first", functions,
                               lambda e: e["f"](e["x"]), lambda e: 0), operator.eq, {}),
        # the first part holds everywhere; the second fails where f(2) != x % 2
        "conjunction": (Law("conjunction", functions, lambda e: e["f"],
                            lambda e: constant[e["x"]]),
                        Conjunction([lambda a, b: a(0) == a(0), lambda a, b: a(2) == b(2)]),
                        {}),
        # 81 assignments and 400 draws, so some are drawn twice; a draw fails
        # one time in three, so a later row's failures come before the first
        # row's third
        "sampled": (Law("sampled", [("f", enumerate_functions(D3, D3)), ("x", D3)],
                        lambda e: min(e["f"](e["x"]), 1), lambda e: 1), operator.eq,
                    {"cap": 5}),
    }


@pytest.mark.parametrize("limit", [1, 3])
@pytest.mark.parametrize("case", list(_stopping_cases()))
def test_a_failing_law_reports_the_first_failures_of_its_whole_walk(case, limit):
    law, equal, options = _stopping_cases()[case]
    every, = run_laws(case, [law], equal, max_witnesses=10 ** 9, **options).laws
    result, = run_laws(case, [law], equal, max_witnesses=limit, **options).laws
    assert len(every.failures) > 3
    assert (result.checked, result.mode) == (every.checked, every.mode)
    assert ([w.to_dict() for w in result.failures]
            == [w.to_dict() for w in every.failures[:limit]])
