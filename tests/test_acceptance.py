"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

The printed lines bypass pytest's capture so a plain ``pytest -v`` run shows
them. Timings in the lines are informational only and never asserted.
"""

import random
import time
from collections import Counter
from dataclasses import dataclass

import pytest

from graphcanon import (
    Coloring,
    Graph,
    act_coloring,
    canonical_form,
    emit_post,
    is_equitable,
    refine,
    relabel_graph,
    unit_coloring,
    verify_proof,
)
from graphcanon.checker import FlatSetDatabase, apply_rule, premises
from graphcanon.emitter import emit_during
from graphcanon.proof import (
    INT_WIDTH,
    MAX_WIRE_INT,
    Canonical,
    decode_int,
    decode_proof,
    decode_rule,
    encode_int,
    encode_proof,
    encode_rule,
    fact_key,
    proof_to_ints,
)
from oracle_utils import (
    ISO_CLASS_COUNTS,
    all_graphs,
    brute_isomorphic,
    corpus_instances,
    integer_mutants,
    is_finer,
    random_coloring,
    random_graph,
    random_perm,
    random_rule,
    structural_mutants,
    tamper_instances,
)


def _report(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"CRITERION {number}: {status} — {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: agreement with brute force on small graphs
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    problems = []
    total = 0

    # Exhaustive sweep n <= 6. Two checks together give equivalence with the
    # isomorphism relation: (a) every canonical graph is produced by the
    # returned labelling, so canonical classes refine isomorphism classes;
    # (b) the number of classes matches the known count of isomorphism
    # classes, so no class splits.
    for n in range(1, 7):
        reps = set()
        for g in all_graphs(n):
            total += 1
            r = canonical_form(g)
            if relabel_graph(g, r.labelling) != r.graph:
                problems.append(f"labelling mismatch on n={n} graph {g.edges}")
            reps.add(r.graph)
        if len(reps) != ISO_CLASS_COUNTS[n]:
            problems.append(
                f"n={n}: {len(reps)} canonical classes, "
                f"expected {ISO_CLASS_COUNTS[n]}"
            )

    # 250 pairs on n = 7 against the factorial oracle: half relabellings
    # (isomorphic by construction), half independent samples.
    rng = random.Random(171)
    agree = 0
    for i in range(250):
        g1 = random_graph(rng, 7, rng.choice([0.2, 0.35, 0.5]))
        if i % 2 == 0:
            g2 = relabel_graph(g1, random_perm(rng, 7))
        else:
            g2 = random_graph(rng, 7, rng.choice([0.2, 0.35, 0.5]))
        same_canon = canonical_form(g1).graph == canonical_form(g2).graph
        if same_canon != brute_isomorphic(g1, g2):
            problems.append(f"pair {i}: canonical says {same_canon}")
        else:
            agree += 1

    detail = (
        f"{total} labelled graphs on n<=6 grouped into the known class counts, "
        f"{agree}/250 n=7 pairs agree with the n! oracle "
        f"({time.perf_counter() - t0:.1f}s)"
    )
    if problems:
        detail = "; ".join(problems[:3])
    _report(capsys, 1, not problems, detail)


# ---------------------------------------------------------------------------
# Criterion 2: label invariance
# ---------------------------------------------------------------------------


def test_criterion_2_label_invariance(capsys):
    t0 = time.perf_counter()
    rng = random.Random(172)
    bad = 0
    for _ in range(500):
        n = rng.randint(1, 32)
        g = random_graph(rng, n, rng.random())
        sigma = random_perm(rng, n)
        if canonical_form(g).graph != canonical_form(relabel_graph(g, sigma)).graph:
            bad += 1
    _report(
        capsys,
        2,
        bad == 0,
        f"500 random (G, sigma) pairs with n<=32, {bad} canonical mismatches "
        f"({time.perf_counter() - t0:.1f}s)",
    )


# ---------------------------------------------------------------------------
# Criteria 3 and 4 share one corpus run
# ---------------------------------------------------------------------------


@dataclass
class CorpusRow:
    name: str
    graph: Graph
    during_bytes: int
    post: bytes
    failures: list  # (strategy, reason)


@pytest.fixture(scope="module")
def corpus_rows():
    rows = []
    t0 = time.perf_counter()
    for name, g in corpus_instances():
        pi0 = unit_coloring(g.n)
        want = canonical_form(g)
        during = emit_during(g)
        post = emit_post(g)
        failures = []
        for strategy, emitted in (("during", during), ("post", post)):
            v = verify_proof(g, pi0, emitted.data)
            if not v.accepted:
                failures.append((strategy, v.reason))
            elif v.canonical_graph != want.graph or (
                v.canonical_coloring != want.coloring
            ):
                failures.append((strategy, "canonical form mismatch"))
        rows.append(CorpusRow(name, g, len(during.data), post.data, failures))
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_3_corpus_verification(capsys, corpus_rows):
    rows, elapsed = corpus_rows
    assert len(rows) == 200
    failures = [(r.name, f) for r in rows for f in r.failures]
    detail = (
        f"200 instances x 2 strategies all accepted and match "
        f"the solver ({elapsed:.1f}s for the whole corpus run)"
    )
    if failures:
        detail = f"{len(failures)} failures, first: {failures[0]}"
    _report(capsys, 3, not failures, detail)


def test_criterion_4_post_never_larger(capsys, corpus_rows):
    rows, _ = corpus_rows
    oversized = [
        (r.name, r.during_bytes, len(r.post))
        for r in rows
        if len(r.post) > r.during_bytes
    ]
    saved = sum(r.during_bytes - len(r.post) for r in rows)
    total_during = sum(r.during_bytes for r in rows)
    detail = (
        f"post-search proof <= during-search proof on all 200 instances "
        f"({saved} of {total_during} bytes saved overall)"
    )
    if oversized:
        detail = f"{len(oversized)} oversized, first: {oversized[0]}"
    _report(capsys, 4, not oversized, detail)


def _dead_rules(g, data):
    """Indices of the rules that the Canonical fact does not depend on."""
    pi0 = unit_coloring(g.n)
    db = FlatSetDatabase()
    _, rules = decode_proof(data)
    source = {}  # fact key -> index of the rule deriving it
    root = None
    for i, rule in enumerate(rules):
        fact = apply_rule(g, pi0, rule, db)
        key = fact_key(fact)
        db.insert(key)
        source.setdefault(key, i)
        if isinstance(fact, Canonical):
            root = i
    assert root is not None
    live = {root}
    stack = [root]
    while stack:
        for fact in premises(rules[stack.pop()]):
            i = source[fact_key(fact)]
            if i not in live:
                live.add(i)
                stack.append(i)
    return [i for i in range(len(rules)) if i not in live]


def test_post_proofs_have_no_dead_rules(corpus_rows):
    # Every rule of a post proof must lie on a premise chain of the Canonical
    # fact: a rule nothing consumes is bytes a checker replays for nothing.
    dead = {r.name: d for r in corpus_rows[0] if (d := _dead_rules(r.graph, r.post))}
    assert dead == {}


# ---------------------------------------------------------------------------
# Criterion 5: tamper resistance
# ---------------------------------------------------------------------------


def test_criterion_5_tampered_proofs_never_fool_the_checker(capsys):
    t0 = time.perf_counter()
    instances = tamper_instances()
    assert len(instances) == 20
    wants = [canonical_form(g).graph for g in instances]
    mutants = 0
    rejected = 0
    benign = 0
    wrong_accepts = []
    for idx, pos, data in integer_mutants(instances, random.Random(1750)):
        g = instances[idx]
        mutants += 1
        verdict = verify_proof(g, unit_coloring(g.n), data)
        if not verdict.accepted:
            rejected += 1
        elif verdict.canonical_graph == wants[idx]:
            benign += 1
        else:
            wrong_accepts.append((g.edges, pos, proof_to_ints(data)[pos]))
    detail = (
        f"{mutants} single-integer mutants over 20 instances: "
        f"{rejected} rejected, {benign} benign accepts, 0 wrong accepts "
        f"({time.perf_counter() - t0:.1f}s)"
    )
    if wrong_accepts:
        detail = f"{len(wrong_accepts)} WRONG ACCEPTS, first: {wrong_accepts[0]}"
    _report(capsys, 5, not wrong_accepts, detail)


# ---------------------------------------------------------------------------
# Criterion 6: refinement laws
# ---------------------------------------------------------------------------


def test_criterion_6_refinement_laws(capsys):
    t0 = time.perf_counter()
    rng = random.Random(176)
    problems = 0
    for _ in range(1000):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.random())
        pi0 = random_coloring(rng, n, max_colors=4)
        nu = tuple(rng.sample(range(n), rng.randint(0, min(n, 3))))
        pi = refine(g, pi0, nu)
        ok = is_finer(pi, pi0) and is_equitable(g, pi)
        ok = ok and all(pi.cells[pi.colors[v]] == (v,) for v in nu)
        sigma = random_perm(rng, n)
        moved = refine(
            relabel_graph(g, sigma),
            act_coloring(pi0, sigma),
            tuple(sigma[v] for v in nu),
        )
        ok = ok and moved == act_coloring(pi, sigma)
        if not ok:
            problems += 1
    _report(
        capsys,
        6,
        problems == 0,
        f"1000 randomized colored graphs n<=16: refinement is finer, "
        f"equitable, individualizing and label-invariant; {problems} violations "
        f"({time.perf_counter() - t0:.1f}s)",
    )


# ---------------------------------------------------------------------------
# Criterion 7: wire format round trips
# ---------------------------------------------------------------------------


def test_criterion_7_codec_round_trips(capsys):
    t0 = time.perf_counter()
    problems = []

    boundary = [0, 1, 1 << 6, 1 << 12, 1 << 18, 1 << 24, 1 << 30, MAX_WIRE_INT]
    for v in boundary:
        data = encode_int(v)
        if len(data) != INT_WIDTH or decode_int(data) != (v, INT_WIDTH):
            problems.append(f"int {v}")

    goldens = {
        0: "fc8080808080",
        17: "fc8080808091",
        MAX_WIRE_INT: "fdbfbfbfbfbf",
    }
    for v, hexed in goldens.items():
        if encode_int(v).hex() != hexed:
            problems.append(f"golden {v}")

    rng = random.Random(177)
    for _ in range(500):
        n = rng.randint(1, 16)
        rule = random_rule(rng, n)
        data = encode_rule(rule, n)
        back, pos = decode_rule(data, 0, n)
        if back != rule or pos != len(data):
            problems.append(f"rule {rule}")
            break

    for _ in range(20):
        n = rng.randint(1, 10)
        rules = [random_rule(rng, n) for _ in range(rng.randint(0, 30))]
        if decode_proof(encode_proof(n, rules)) != (n, rules):
            problems.append("stream")
            break

    detail = (
        f"boundary ints, frozen byte goldens, 500 random rules and 20 random "
        f"streams all round-trip ({time.perf_counter() - t0:.1f}s)"
    )
    if problems:
        detail = f"failures: {problems[:3]}"
    _report(capsys, 7, not problems, detail)


# ---------------------------------------------------------------------------
# Criterion 8: structural tampering
# ---------------------------------------------------------------------------


def test_criterion_8_structural_mutants_never_fool_the_checker(capsys):
    t0 = time.perf_counter()
    instances = tamper_instances()
    wants = [canonical_form(g).graph for g in instances]
    made = Counter()
    rejected = Counter()
    wrong_accepts = []
    mutants = structural_mutants(instances, random.Random(1780))
    for idx, strategy, op, mutant in mutants:
        g = instances[idx]
        made[op] += 1
        verdict = verify_proof(g, unit_coloring(g.n), encode_proof(g.n, mutant))
        if not verdict.accepted:
            rejected[op] += 1
        elif verdict.canonical_graph != wants[idx]:
            wrong_accepts.append((g.edges, strategy, op))
    counts = ", ".join(f"{op} {rejected[op]}/{made[op]}" for op in made)
    detail = (
        f"{sum(made.values())} structural mutants of 20 instances x 2 strategies "
        f"(rejected/made: {counts}), every accept gives the canonical graph, "
        f"0 wrong accepts ({time.perf_counter() - t0:.1f}s)"
    )
    if wrong_accepts:
        detail = f"{len(wrong_accepts)} WRONG ACCEPTS, first: {wrong_accepts[0]}"
    _report(capsys, 8, not wrong_accepts, detail)
