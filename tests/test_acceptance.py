"""Acceptance gate: one test per numbered criterion, one PASS/FAIL line each.

The printed lines bypass pytest's capture so a plain ``pytest -v`` run shows
them. Timings in the lines are informational only and never asserted.
"""

import random
import time
from collections import Counter
from dataclasses import dataclass, replace

import pytest

from graphcanon import (
    Coloring,
    Graph,
    act_coloring,
    canonical_form,
    emit_during,
    emit_post,
    is_equitable,
    refine,
    relabel_graph,
    unit_coloring,
    verify_proof,
)
from graphcanon.proof import (
    INT_WIDTH,
    MAX_WIRE_INT,
    RULE_CODE,
    RULE_SCHEMA,
    decode_int,
    decode_proof,
    decode_rule,
    encode_int,
    encode_ints,
    encode_proof,
    encode_rule,
    proof_to_ints,
)
from oracle_utils import (
    ISO_CLASS_COUNTS,
    all_graphs,
    brute_isomorphic,
    complete,
    complete_bipartite,
    cycle,
    is_finer,
    random_coloring,
    random_graph,
    random_perm,
    random_rule,
    spider,
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
    during_bytes: int
    post_bytes: int
    failures: list  # (strategy, reason)


def _corpus_instances():
    rng = random.Random(173)
    for n in range(4, 33):
        for p in (0.1, 0.3, 0.5):
            yield f"gnp-{n}-{p}", random_graph(rng, n, p)
    for i in range(47):
        n = rng.randint(4, 32)
        yield f"gnp-extra-{i}", random_graph(rng, n, rng.choice([0.1, 0.3, 0.5]))
    for n in range(3, 33):
        yield f"cycle-{n}", cycle(n)
    for n in range(2, 13):
        yield f"complete-{n}", complete(n)
    for a, b in [
        (1, 2), (1, 5), (2, 2), (2, 3), (2, 5), (2, 8), (3, 3), (3, 4),
        (3, 6), (4, 4), (4, 7), (5, 5), (5, 8), (6, 6), (7, 7),
    ]:
        yield f"bipartite-{a}-{b}", complete_bipartite(a, b)
    for i, legs in enumerate([
        [1, 2], [1, 3], [1, 4], [1, 2, 3], [1, 2, 4], [1, 2, 5],
        [1, 3, 5], [2, 3, 4], [1, 2, 3, 4], [1, 2, 4, 7],
    ]):
        yield f"spider-{i}", spider(legs)


@pytest.fixture(scope="module")
def corpus_rows():
    rows = []
    t0 = time.perf_counter()
    for name, g in _corpus_instances():
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
        rows.append(CorpusRow(name, len(during.data), len(post.data), failures))
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
        (r.name, r.during_bytes, r.post_bytes)
        for r in rows
        if r.post_bytes > r.during_bytes
    ]
    saved = sum(r.during_bytes - r.post_bytes for r in rows)
    total_during = sum(r.during_bytes for r in rows)
    detail = (
        f"post-search proof <= during-search proof on all 200 instances "
        f"({saved} of {total_during} bytes saved overall)"
    )
    if oversized:
        detail = f"{len(oversized)} oversized, first: {oversized[0]}"
    _report(capsys, 4, not oversized, detail)


# ---------------------------------------------------------------------------
# Criterion 5: tamper resistance
# ---------------------------------------------------------------------------


def _tamper_instances():
    rng = random.Random(175)
    yield cycle(4)
    yield cycle(5)
    yield cycle(6)
    yield complete(4)
    yield complete_bipartite(2, 3)
    yield spider([1, 2])
    yield spider([1, 2, 3])
    for _ in range(5):
        yield random_graph(rng, 6, 0.5)
    for _ in range(4):
        yield random_graph(rng, 7, 0.4)
    for _ in range(4):
        yield random_graph(rng, 8, 0.3)


def test_criterion_5_tampered_proofs_never_fool_the_checker(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1750)
    instances = list(_tamper_instances())
    assert len(instances) == 20
    mutants = 0
    rejected = 0
    benign = 0
    wrong_accepts = []
    for g in instances:
        pi0 = unit_coloring(g.n)
        want = canonical_form(g).graph
        ints = proof_to_ints(emit_post(g).data)
        positions = range(len(ints))
        if len(ints) > 220:
            positions = sorted(rng.sample(range(len(ints)), 220))
        for pos in positions:
            v = ints[pos]
            candidates = {max(v - 1, 0), min(v + 1, MAX_WIRE_INT), 0, 1, 17}
            candidates.discard(v)
            for mutant_value in sorted(candidates):
                mutants += 1
                mutated = list(ints)
                mutated[pos] = mutant_value
                verdict = verify_proof(g, pi0, encode_ints(mutated))
                if not verdict.accepted:
                    rejected += 1
                elif verdict.canonical_graph == want:
                    benign += 1
                else:
                    wrong_accepts.append((g.edges, pos, mutant_value))
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


def _field_swaps(rules, rng, per_field=3):
    """Mutants that replace one coloring or permutation field with another
    valid value of the same shape taken from the same proof."""
    slots = []  # (rule index, field name, shape)
    pools = {"Coloring": set(), "Perm": set()}
    for i, rule in enumerate(rules):
        for name, shape in RULE_SCHEMA[RULE_CODE[type(rule)]][1]:
            if shape in pools:
                slots.append((i, name, shape))
                pools[shape].add(getattr(rule, name))
    pools = {shape: sorted(pool, key=repr) for shape, pool in pools.items()}
    for i, name, shape in slots:
        others = [v for v in pools[shape] if v != getattr(rules[i], name)]
        for value in rng.sample(others, min(per_field, len(others))):
            yield rules[:i] + [replace(rules[i], **{name: value})] + rules[i + 1 :]


def _structural_mutants(rules, donors, rng):
    """(operation, mutated rule list) pairs for one proof; ``donors`` are the
    proofs of other instances on the same vertex count."""
    k = len(rules)
    for i in range(k):
        yield "delete", rules[:i] + rules[i + 1 :]
        yield "duplicate", rules[: i + 1] + rules[i:]
        yield "truncate", rules[:i]
    for i in range(k - 1):
        yield "swap", rules[:i] + [rules[i + 1], rules[i]] + rules[i + 2 :]
    for other in donors:
        for i in range(1, min(k, len(other))):
            yield "splice", rules[:i] + other[i:]
    for mutant in _field_swaps(rules, rng):
        yield "field-swap", mutant


def test_criterion_8_structural_mutants_never_fool_the_checker(capsys):
    t0 = time.perf_counter()
    rng = random.Random(1780)
    instances = list(_tamper_instances())
    proofs = []  # (instance index, strategy, rules)
    for idx, g in enumerate(instances):
        for strategy, emit in (("post", emit_post), ("during", emit_during)):
            proofs.append((idx, strategy, decode_proof(emit(g).data)[1]))
    made = Counter()
    rejected = Counter()
    wrong_accepts = []
    for idx, strategy, rules in proofs:
        g = instances[idx]
        pi0 = unit_coloring(g.n)
        want = canonical_form(g).graph
        donors = [
            other
            for j, s, other in proofs
            if s == strategy and j != idx and instances[j].n == g.n
        ]
        for op, mutant in _structural_mutants(rules, donors, rng):
            made[op] += 1
            verdict = verify_proof(g, pi0, encode_proof(g.n, mutant))
            if not verdict.accepted:
                rejected[op] += 1
            elif verdict.canonical_graph != want:
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
