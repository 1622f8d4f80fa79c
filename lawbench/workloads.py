"""The operations of the three benchmark workloads.

An operation (op) is one call of a public effectbx checker on one subject, or
one family/domain pair, followed by serialising its verdict to JSON.  Each op
carries the verdict it is expected to give, so that the benchmark can check
its output as well as time it.

``build_ops`` imports effectbx itself, so that the caller can time import and
construction together as the workload's set-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

WORKLOADS = ("monad", "state", "bx")


@dataclass(frozen=True)
class Op:
    name: str
    check: Callable[[], Any]
    serialise: Callable[[Any], str]
    verdict: Callable[[Any], bool]


def _to_json(report) -> str:
    return report.to_json()


def _second_to_json(result) -> str:
    return result[1].to_json()


def _passes(report) -> bool:
    return report.ok


def build_ops(workload: str, seed: int) -> tuple:
    """Build the ops of ``workload``; ``seed`` goes to every checker."""
    builders = {"monad": _monad_ops, "state": _state_ops, "bx": _bx_ops}
    ops = builders[workload](seed)
    names = [op.name for op in ops]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate op names in workload {workload!r}")
    return ops


def _families(reader_contexts):
    import effectbx as eb

    return (
        eb.identity_family(),
        eb.failure_family(),
        eb.choice_family(),
        eb.reader_family(reader_contexts),
        eb.writer_family(),
        eb.console_family(scripts=((), ("line",))),
    )


def _monad_ops(seed):
    """Monad laws, commutativity and the fixed morphisms, as run by
    ``corpus.run_monad_suite``, one op per checker call."""
    import effectbx as eb
    from effectbx.corpus import EXPECTED_COMMUTATIVE

    doms = [
        eb.FiniteDomain("d1", (0,)),
        eb.FiniteDomain("d2", (0, 1)),
        eb.FiniteDomain("d3", (0, 1, 2)),
    ]
    dom_a = eb.FiniteDomain("ca", (0, 1))
    dom_b = eb.FiniteDomain("cb", (2, 3))
    ops = []
    for fam in _families((0, 1, 2)):
        for dom in doms:
            ops.append(Op(
                f"monad-laws/{fam.name}/{dom.name}",
                lambda fam=fam, dom=dom: eb.check_monad_laws(fam, dom, seed=seed),
                _to_json,
                _passes,
            ))
        expected = EXPECTED_COMMUTATIVE[fam.name]
        ops.append(Op(
            f"commutative/{fam.name}",
            lambda fam=fam: eb.check_commutative(fam, dom_a, dom_b, seed=seed),
            _to_json,
            # a non-commutative family must come with a concrete witness
            lambda r, expected=expected: r.ok == expected
            and (expected or bool(r.law("commute").failures)),
        ))

    ident = eb.identity_family()
    fail = eb.failure_family()
    dom = eb.FiniteDomain("m", (0, 1))
    morphisms = [
        ("identity-on-identity", lambda m: m, ident, ident, True),
        ("just-embedding", eb.Just, ident, fail, True),
        ("const-nothing", lambda _m: eb.NOTHING, ident, fail, False),
    ]
    for name, phi, src, dst, expected in morphisms:
        ops.append(Op(
            f"morphism/{name}",
            lambda phi=phi, src=src, dst=dst: eb.check_monad_morphism(
                phi, src, dst, dom, seed=seed),
            _to_json,
            lambda r, expected=expected: r.ok == expected,
        ))
    return tuple(ops)


def _state_ops(seed):
    """State laws and the lift morphism, as run by ``corpus.run_state_suite``,
    plus the widening (theta) morphism for the four lenses of acceptance
    criterion 3."""
    import effectbx as eb
    from effectbx.corpus import non_overwrite_lens

    bit = eb.FiniteDomain("bit", (0, 1))
    pairs = eb.FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))
    doms = [
        eb.FiniteDomain("s1", (0,)),
        eb.FiniteDomain("s2", (0, 1)),
        eb.FiniteDomain("s3", (0, 1, 2)),
    ]
    ops = []
    for fam in _families((0, 1)):
        for dom in doms:
            ops.append(Op(
                f"state-laws/{fam.name}/{dom.name}",
                lambda fam=fam, dom=dom: eb.state_law_suite(
                    fam, dom, value_domain=bit, seed=seed),
                _to_json,
                _passes,
            ))
        ops.append(Op(
            f"lift-morphism/{fam.name}",
            lambda fam=fam: eb.check_lift_morphism(fam, bit, bit, seed=seed),
            _to_json,
            _passes,
        ))

    ident = eb.identity_family()
    lenses = [
        ("fst", eb.fst_lens(), pairs, _passes),
        ("snd", eb.snd_lens(), pairs, _passes),
        ("identity", eb.identity_lens(), bit, _passes),
        # the widening of a lens that is not overwritable breaks bind only
        ("non-overwrite", non_overwrite_lens(), pairs,
         lambda r: r.failing_laws == ("theta-preserves-bind",)
         and bool(r.law("theta-preserves-bind").failures)),
    ]
    for name, lens, sources, verdict in lenses:
        ops.append(Op(
            f"theta-morphism/{name}",
            lambda lens=lens, sources=sources: eb.check_theta_morphism(
                lens, ident, sources, bit, bit, seed=seed),
            _to_json,
            verdict,
        ))
    return tuple(ops)


def _bx_ops(seed):
    """Every corpus entry through ``run_corpus``, plus the composition checks
    of acceptance criteria 5 and 6 on components built here."""
    import effectbx as eb
    from effectbx.corpus import corpus_entries, run_corpus

    ops = []
    for entry in corpus_entries():
        ops.append(Op(
            f"corpus/{entry.name}",
            lambda name=entry.name: run_corpus(seed=seed, names={name}),
            lambda result: json.dumps(result, sort_keys=True),
            lambda result: result["ok"] and len(result["entries"]) == 1,
        ))

    fam = eb.identity_family()
    bit = eb.FiniteDomain("bit", (0, 1))
    pairs = eb.FiniteDomain("pairs", ((0, 0), (0, 1), (1, 0), (1, 1)))
    fstbx = eb.lens_to_bx(eb.fst_lens(), pairs, bit, name="fst")
    nondet = eb.nondet_bx(
        eb.choice_family(),
        ok=lambda a, b: (a + b) % 2 == 0,
        bs=lambda a: [b for b in (0, 1) if (a + b) % 2 == 0],
        as_=lambda b: [a for a in (0, 1) if (a + b) % 2 == 0],
        dom_a=bit,
        dom_b=bit,
    )
    inv = eb.inv_bx()

    def seven(bx1, bx2):
        composed = eb.compose(bx1, bx2)
        transparent = eb.analyze_transparency(composed).transparent
        return transparent, eb.check_seven_laws(composed, seed=seed)

    transparent_pairs = [
        (eb.identity_bx(fam, bit, name="i1"), eb.identity_bx(fam, bit, name="i2")),
        (eb.identity_bx(fam, pairs, name="ip"), fstbx),
        (fstbx, eb.identity_bx(fam, bit, name="i3")),
        (eb.dual(eb.lens_to_bx(eb.snd_lens(), pairs, bit, name="snd")), fstbx),
        (eb.swap_bx(fam, bit, bit), eb.dual(eb.swap_bx(fam, bit, bit))),
        (inv, eb.identity_bx(eb.failure_family(), inv.dom_b, name="if")),
        (nondet, eb.identity_bx(eb.choice_family(), bit, name="ic")),
    ]
    for i, (bx1, bx2) in enumerate(transparent_pairs):
        ops.append(Op(
            f"compose-seven/{i}",
            lambda bx1=bx1, bx2=bx2: seven(bx1, bx2),
            _second_to_json,
            lambda result: result[0] and result[1].ok,
        ))

    def equivalence(bx, side):
        if side == "left":
            composed = eb.compose(eb.identity_bx(bx.effect, bx.dom_a, name="il"), bx)
            h = eb.left_identity_bijection(bx)
        else:
            composed = eb.compose(bx, eb.identity_bx(bx.effect, bx.dom_b, name="ir"))
            h = eb.right_identity_bijection(bx)
        return eb.check_equivalence(bx, composed, h, seed=seed)

    for bx in (fstbx, eb.identity_bx(fam, bit, name="ibit"), inv):
        for side in ("left", "right"):
            ops.append(Op(
                f"compose-{side}-identity/{bx.name}",
                lambda bx=bx, side=side: equivalence(bx, side),
                _to_json,
                _passes,
            ))

    def associativity(b1, b2, b3):
        lhs = eb.compose(eb.compose(b1, b2), b3)
        rhs = eb.compose(b1, eb.compose(b2, b3))
        return eb.check_equivalence(lhs, rhs, eb.assoc_bijection(), seed=seed)

    triples = [
        (eb.identity_bx(fam, pairs, name="t1"), fstbx, eb.identity_bx(fam, bit, name="t2")),
        (eb.identity_bx(fam, pairs, name="u1"), eb.identity_bx(fam, pairs, name="u2"), fstbx),
        (eb.dual(eb.lens_to_bx(eb.snd_lens(), pairs, bit)), fstbx,
         eb.identity_bx(fam, bit, name="v3")),
    ]
    for i, (b1, b2, b3) in enumerate(triples):
        ops.append(Op(
            f"compose-associativity/{i}",
            lambda b1=b1, b2=b2, b3=b3: associativity(b1, b2, b3),
            _to_json,
            _passes,
        ))

    def init(bx1, bx2):
        composed = eb.compose_init(bx1, bx2)
        return composed, eb.check_init_laws(composed, seed=seed)

    def init_verdict(result):
        # every initial state reached lies in the join state space
        composed, report = result
        members = list(composed.state_domain.elements)
        outcomes = composed.effect.outcomes_of
        reached = [s for a in composed.dom_a for s in outcomes(composed.init_l(a))]
        reached += [s for b in composed.dom_b for s in outcomes(composed.init_r(b))]
        return report.ok and all(any(s == m for m in members) for s in reached)

    init_pairs = [
        (eb.identity_bx(fam, bit, name="a"), eb.identity_bx(fam, bit, name="b")),
        (eb.identity_bx(fam, pairs, name="c"), eb.fst_ibx(fam, bit, bit, default_b=0)),
        (eb.swap_bx(fam, bit, bit), eb.dual(eb.swap_bx(fam, bit, bit))),
        (inv, eb.identity_bx(eb.failure_family(), inv.dom_b, name="d")),
    ]
    for i, (bx1, bx2) in enumerate(init_pairs):
        ops.append(Op(
            f"compose-init/{i}",
            lambda bx1=bx1, bx2=bx2: init(bx1, bx2),
            _second_to_json,
            init_verdict,
        ))
    return tuple(ops)
