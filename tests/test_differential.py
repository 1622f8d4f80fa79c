"""Cross-implementation differentials: the two composers implementations over
many scripts, the flattened composers bx, and a hand-rolled re-evaluation of
every per-bx suite of the corpus and of the suites with function-valued
quantifiers."""

import itertools

from effectbx import (
    NOTHING,
    SUITES,
    FiniteDomain,
    bx_to_symlens,
    check_lift_morphism,
    check_monad_laws,
    check_suite,
    check_theta_morphism,
    composers_bx,
    composers_symlens,
    fst_lens,
    identity_family,
    identity_lens,
    snd_lens,
    state_law_suite,
    symlens_to_bx,
)
from effectbx import effects, lenses, stateful
from effectbx.corpus import _entry_suites, _families, corpus_entries, non_overwrite_lens
from effectbx.examples import _BxRunner
from effectbx.lawcheck import run_laws, stable_repr


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
            report = check_suite(bx, suite)
            assert report.mode == "exhaustive", where
            entries = _plain_enumeration(SUITES[suite](bx), bx.effect.equal_values)
            assert report.to_dict()["laws"] == entries, where
            total += sum(e["checked"] for e in entries)
    assert total >= 8000


def _function_quantifier_cases():
    # two reader contexts, not three: reader/d2 associativity would spend
    # over a second in plain enumeration alone
    fams = _families((0, 1))
    yield from ((f"monad/{fam.name}/{dom.name}", effects, check_monad_laws, (fam, dom))
                for fam in fams for dom in (D1, D2))
    yield from ((f"state/{fam.name}/{dom.name}", stateful, state_law_suite,
                 (fam, dom, BIT)) for fam in fams for dom in (S1, S2))
    yield from ((f"lift/{fam.name}", stateful, check_lift_morphism, (fam, BIT, BIT))
                for fam in fams)
    ident = identity_family()
    for name, lens, source in (("fst", fst_lens(), PAIRS), ("snd", snd_lens(), PAIRS),
                               ("identity", identity_lens(), BIT),
                               ("non-overwrite", non_overwrite_lens(), PAIRS)):
        yield (f"theta/{name}", lenses, check_theta_morphism,
               (lens, ident, source, BIT, BIT))


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
    assert failing == {"theta/non-overwrite:theta-preserves-bind"}
