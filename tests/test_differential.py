"""Cross-implementation differentials: the two composers implementations over
many scripts, the flattened composers bx, and a hand-rolled re-evaluation of
every per-bx suite of the corpus."""

import itertools

from effectbx import (
    NOTHING,
    SUITES,
    bx_to_symlens,
    check_suite,
    composers_bx,
    composers_symlens,
)
from effectbx.corpus import _entry_suites, corpus_entries
from effectbx.examples import _BxRunner, _SymlensRunner
from effectbx.lawcheck import stable_repr


BEA = ("Bea", "AT")
KIM = ("Kim", "DE")
LEFT_VIEWS = [
    frozenset(),
    frozenset({("Bea", "AT", None)}),
    frozenset({("Bea", "AT", ("1", "2"))}),
    frozenset({("Bea", "AT", ("1", "2")), ("Kim", "DE", None)}),
]
RIGHT_VIEWS = [(), (BEA,), (KIM, BEA)]


def _ops():
    ops = [("getL", None), ("getR", None)]
    ops += [("setL", v) for v in LEFT_VIEWS]
    ops += [("setR", v) for v in RIGHT_VIEWS]
    return ops


def test_composers_agree_on_all_short_scripts():
    ops = _ops()
    checked = 0
    for script in itertools.product(ops, repeat=3):
        sym = _SymlensRunner(composers_symlens())
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


def _hand_rolled(bx, law):
    """(assignments, first failing env or None) of ``law`` on ``bx``,
    evaluated at every assignment without the runner."""
    names = [n for n, _d in law.quantifiers]
    doms = [tuple(dom) for _n, dom in law.quantifiers]
    count, first = 0, None
    for values in itertools.product(*doms):
        env = dict(zip(names, values))
        lhs, rhs = law.evaluate(env)
        if first is None and not bx.effect.equal_values(lhs, rhs):
            first = env
        count += 1
    return count, first


def test_every_corpus_suite_against_hand_rolled_evaluation():
    # meta-oracle: evaluate each law side directly at every assignment and
    # compare with the runner's counts, verdicts and first witnesses
    total = 0
    for entry in corpus_entries():
        bx = entry.build()
        for suite in _entry_suites(entry):
            where = f"{entry.name}/{suite}"
            report = check_suite(bx, suite)
            assert report.mode == "exhaustive", where
            failing = set()
            for law in SUITES[suite](bx):
                count, first = _hand_rolled(bx, law)
                result = report.law(law.name)
                assert result.checked == count, (where, law.name)
                total += count
                if first is None:
                    assert result.ok, (where, law.name)
                    continue
                failing.add(law.name)
                inputs = {k: stable_repr(v) for k, v in first.items()}
                assert result.failures[0].inputs == inputs, (where, law.name)
            assert set(report.failing_laws) == failing, where
    assert total >= 8000
