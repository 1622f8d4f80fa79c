"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact equality; the two timed criteria carry
their stated runtime budgets.
"""

import json
import time

from effectbx import (
    FiniteDomain,
    analyze_transparency,
    assoc_bijection,
    check_equivalence,
    check_init_laws,
    check_seven_laws,
    check_theta_morphism,
    choice_family,
    compose,
    compose_init,
    dual,
    failure_family,
    fst_ibx,
    fst_lens,
    identity_bx,
    identity_family,
    identity_lens,
    inv_bx,
    lens_to_bx,
    nondet_bx,
    snd_lens,
    swap_bx,
    left_identity_bijection,
    right_identity_bijection,
)
from effectbx.cli import main
from effectbx.corpus import (
    MUTANT_LAW_TARGETS,
    corpus_entries,
    non_overwrite_lens,
    recheck_witness,
    run_monad_suite,
    run_state_suite,
)
from effectbx.examples import composers_scenario, default_composers_script

BIT = FiniteDomain("bit", (0, 1))
PAIRS = FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))


def _verdict(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_monad_law_suite():
    t0 = time.monotonic()
    suite = run_monad_suite()
    elapsed = time.monotonic() - t0
    ok = suite["ok"]
    # failure's zero passes both absorption laws on every domain
    zero_laws = [
        law
        for rep in suite["reports"]
        if rep["bx"].startswith("monad-laws[failure")
        for law in rep["laws"]
        if law["name"] in ("zero-left", "zero-right")
    ]
    ok = ok and zero_laws and all(not l["failures"] for l in zero_laws)
    # choice is reported non-commutative with a concrete witness
    choice_commute = [
        rep for rep in suite["reports"] if rep["bx"] == "commutativity[choice]"
    ]
    ok = ok and choice_commute and choice_commute[0]["laws"][0]["failures"]
    ok = ok and elapsed < 10.0
    _verdict(1, f"monad/zero/commutativity suite ({elapsed:.1f}s < 10s)", ok)


def test_criterion_2_state_transformer_laws():
    suite = run_state_suite()
    ok = suite["ok"]
    law_names = {
        law["name"] for rep in suite["reports"] for law in rep["laws"]
    }
    ok = ok and {
        "get-get", "set-get", "get-set", "set-set",
        "unused-get-discardable",
        "lift-commutes-with-get", "lift-commutes-with-set",
    } <= law_names
    ok = ok and all(rep["mode"] == "exhaustive" for rep in suite["reports"])
    _verdict(2, "state-transformer laws, exhaustive for every family", ok)


def test_criterion_3_theta_morphism():
    fam = identity_family()
    ok = check_theta_morphism(fst_lens(), fam, PAIRS, BIT, BIT).ok
    ok = ok and check_theta_morphism(snd_lens(), fam, PAIRS, BIT, BIT).ok
    ok = ok and check_theta_morphism(identity_lens(), fam, BIT, BIT, BIT).ok
    counterexample = check_theta_morphism(non_overwrite_lens(), fam, PAIRS, BIT, BIT)
    ok = ok and counterexample.failing_laws == ("theta-preserves-bind",)
    ok = ok and bool(counterexample.law("theta-preserves-bind").failures)
    _verdict(3, "widening is a monad morphism exactly for overwritable lenses", ok)


SEVEN_TARGETS = (
    "identity", "fst-lens", "composers", "inv", "read-some", "nondet-parity",
    "log-identity", "alert-identity", "dynamic-identity", "dynamic-search",
    "pair-identities", "sum-identities", "list-identity", "const",
    "fst-ibx", "snd-ibx", "inl", "inr", "swap-iso",
)


def test_criterion_4_seven_law_suite_and_mutants():
    t0 = time.monotonic()
    entries = {e.name: e for e in corpus_entries()}
    ok = True
    for name in SEVEN_TARGETS:
        report = check_seven_laws(entries[name].build())
        ok = ok and report.ok
    for name, target in MUTANT_LAW_TARGETS.items():
        bx = entries[name].build()
        report = check_seven_laws(bx)
        ok = ok and report.failing_laws == (target,)
        witness = report.law(target).failures[0]
        ok = ok and recheck_witness(bx, "seven", target, witness.env)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    _verdict(
        4,
        f"seven-law suite on {len(SEVEN_TARGETS)} instances + 7 single-law "
        f"mutants ({elapsed:.1f}s < 60s)",
        ok,
    )


def _transparent_pairs():
    fam = identity_family()
    fstbx = lens_to_bx(fst_lens(), PAIRS, BIT, name="fst")
    nondet = nondet_bx(
        choice_family(),
        ok=lambda a, b: (a + b) % 2 == 0,
        bs=lambda a: [b for b in (0, 1) if (a + b) % 2 == 0],
        as_=lambda b: [a for a in (0, 1) if (a + b) % 2 == 0],
        dom_a=BIT,
        dom_b=BIT,
    )
    inv = inv_bx()
    return [
        (identity_bx(fam, BIT, name="i1"), identity_bx(fam, BIT, name="i2")),
        (identity_bx(fam, PAIRS, name="ip"), fstbx),
        (fstbx, identity_bx(fam, BIT, name="i3")),
        (dual(lens_to_bx(snd_lens(), PAIRS, BIT, name="snd")), fstbx),
        (swap_bx(fam, BIT, BIT), dual(swap_bx(fam, BIT, BIT))),
        (inv, identity_bx(failure_family(), inv.dom_b, name="if")),
        (nondet, identity_bx(choice_family(), BIT, name="ic")),
    ]


def test_criterion_5_composition_category_laws():
    pairs = _transparent_pairs()
    ok = len(pairs) >= 5
    for bx1, bx2 in pairs:
        composed = compose(bx1, bx2)
        ok = ok and analyze_transparency(composed).transparent
        ok = ok and check_seven_laws(composed).ok

    fam = identity_family()
    fstbx = lens_to_bx(fst_lens(), PAIRS, BIT, name="fst")
    for bx in (fstbx, identity_bx(fam, BIT, name="ibit"), inv_bx()):
        left_comp = compose(identity_bx(bx.effect, bx.dom_a, name="il"), bx)
        ok = ok and check_equivalence(bx, left_comp, left_identity_bijection(bx)).ok
        right_comp = compose(bx, identity_bx(bx.effect, bx.dom_b, name="ir"))
        ok = ok and check_equivalence(bx, right_comp, right_identity_bijection(bx)).ok

    triples = [
        (identity_bx(fam, PAIRS, name="t1"), fstbx, identity_bx(fam, BIT, name="t2")),
        (identity_bx(fam, PAIRS, name="u1"), identity_bx(fam, PAIRS, name="u2"), fstbx),
        (dual(lens_to_bx(snd_lens(), PAIRS, BIT)), fstbx, identity_bx(fam, BIT, name="v3")),
    ]
    count = 0
    for b1, b2, b3 in triples:
        lhs = compose(compose(b1, b2), b3)
        rhs = compose(b1, compose(b2, b3))
        ok = ok and check_equivalence(lhs, rhs, assoc_bijection()).ok
        count += 1
    ok = ok and count >= 3
    _verdict(5, f"composition transparent+lawful on {len(pairs)} pairs, "
                f"identity and associativity equivalences", ok)


def test_criterion_6_initialization():
    entries = corpus_entries()
    ok = True
    for entry in entries:
        if entry.expected_failing:
            continue
        bx = entry.build()
        if bx.initialisable:
            ok = ok and check_init_laws(bx).ok

    fam = identity_family()
    inv = inv_bx()
    init_pairs = [
        (identity_bx(fam, BIT, name="a"), identity_bx(fam, BIT, name="b")),
        (identity_bx(fam, PAIRS, name="c"), fst_ibx(fam, BIT, BIT, default_b=0)),
        (swap_bx(fam, BIT, BIT), dual(swap_bx(fam, BIT, BIT))),
        (inv, identity_bx(failure_family(), inv.dom_b, name="d")),
    ]
    for bx1, bx2 in init_pairs:
        composed = compose_init(bx1, bx2)
        ok = ok and check_init_laws(composed).ok
        members = list(composed.state_domain.elements)
        fam_c = composed.effect
        for a in composed.dom_a:
            for state in fam_c.outcomes_of(composed.init_l(a)):
                ok = ok and any(state == m for m in members)
        for b in composed.dom_b:
            for state in fam_c.outcomes_of(composed.init_r(b)):
                ok = ok and any(state == m for m in members)
    _verdict(6, "init laws for corpus members and composed inits in join", ok)


def test_criterion_7_nondeterminism_oracle():
    dom3 = FiniteDomain("d3", (0, 1, 2))
    ok_rel = lambda a, b: (a + b) % 3 == 0
    bs = lambda a: [b for b in dom3 if ok_rel(a, b)]
    as_ = lambda b: [a for a in dom3 if ok_rel(a, b)]
    bx = nondet_bx(choice_family(), ok_rel, bs, as_, dom3, dom3)
    ok = True
    for s in bx.state_domain:
        a, b = s
        ok = ok and bx.get_l.run(s) == ((a, s),)
        ok = ok and bx.get_r.run(s) == ((b, s),)
        for a1 in dom3:
            oracle = (
                (((), (a1, b)),) if ok_rel(a1, b)
                else tuple(((), (a1, b1)) for b1 in bs(a1))
            )
            ok = ok and bx.set_l(a1).run(s) == oracle
        for b1 in dom3:
            oracle = (
                (((), (a, b1)),) if ok_rel(a, b1)
                else tuple(((), (a1, b1)) for a1 in as_(b1))
            )
            ok = ok and bx.set_r(b1).run(s) == oracle
    for a in dom3:
        ok = ok and bx.init_l(a) == tuple((a, b) for b in bs(a))
    _verdict(7, "nondeterministic outcomes equal the brute-force oracle", ok)


def test_criterion_8_composers_differential():
    report = composers_scenario(default_composers_script())
    ok = report["ok"] and all(step["agree"] for step in report["steps"])
    after_append = [s for s in report["steps"] if s["op"] == "getL"][0]
    tav = [t for t in after_append["bx"] if t[0] == "John Tavener"]
    ok = ok and tav == [["John Tavener", "British", None]]
    _verdict(8, "composers scenario agrees at every step (unknown dates kept)", ok)


def test_criterion_9_interactive_memoization(tmp_path, capsys):
    session = {
        "initial": {"a": 1, "b": 10},
        "edits": [{"side": "L", "value": 2}, {"side": "L", "value": 2}],
        "answers": ["20"],
    }
    path = tmp_path / "session.json"
    path.write_text(json.dumps(session))
    ok = main(["sync", "--script", str(path), "--format", "json"]) == 0
    first = capsys.readouterr().out
    ok = ok and main(["sync", "--script", str(path), "--format", "json"]) == 0
    second = capsys.readouterr().out
    ok = ok and first == second
    payload = json.loads(first)
    prompts = [
        rec for rec in payload["transcript"]
        if rec["dir"] == "out" and rec["text"] == "Replacement for 10?"
    ]
    ok = ok and len(prompts) == 1
    with capsys.disabled():
        _verdict(9, "repeated edit prompts once; reruns byte-identical", ok)
