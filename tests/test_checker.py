"""The independent verifier: fact database, rule application, stream checks."""

import itertools
import random

import pytest

from graphcanon import (
    CheckFailure,
    Coloring,
    FlatSetDatabase,
    Graph,
    apply_rule,
    canonical_form,
    emit_post,
    unit_coloring,
    verify_proof,
)
from graphcanon import checker
from graphcanon.emitter import emit_during
from graphcanon.checker import (
    CANONICAL_CONFLICT,
    DECODE,
    MISSING_PREMISE,
    N_MISMATCH,
    NO_CANONICAL,
    SIDE_CONDITION,
)
from graphcanon.proof import (
    CanonicalLeaf,
    ColoringAxiom,
    Equitable,
    ExtendPath,
    Individualize,
    InvariantsEqual,
    InvariantsEqualSym,
    MergeOrbits,
    OrbitsAxiom,
    OrbitSubset,
    PathAxiom,
    PhiEqual,
    PruneAutomorphism,
    PruneInvariant,
    PruneLeaf,
    PruneOrbits,
    PruneParent,
    Pruned,
    REqual,
    RFiner,
    SplitColoring,
    TargetCell,
    INT_WIDTH,
    ProofDecodeError,
    decode_int,
    decode_proof,
    encode_proof,
    encode_rule,
    fact_key,
    iter_rules,
)
from graphcanon import individualize, split
from graphcanon.refine import splitting_cell
from oracle_utils import (
    brute_automorphisms,
    cfi,
    chang,
    complete,
    corpus_instances,
    corruptions,
    cycle,
    integer_mutants,
    naive_equitable,
    naive_individualize,
    naive_split,
    path_graph,
    petersen,
    random_coloring,
    random_graph,
    random_perm,
    reference_relabel,
    reference_replay,
    spider,
    structural_mutants,
    tamper_instances,
)


# ---------------------------------------------------------------------------
# Fact database
# ---------------------------------------------------------------------------


def test_fact_store_insert_and_contains():
    db = FlatSetDatabase()
    assert db.insert((1, 2, 3))
    assert not db.insert((1, 2, 3))  # duplicate
    assert db.contains((1, 2, 3))
    assert not db.contains((1, 2))
    assert not db.contains((1, 2, 3, 4))
    assert len(db) == 1


def test_fact_store_empty_key_and_prefixes():
    db = FlatSetDatabase()
    assert db.insert(())
    assert db.contains(())
    assert db.insert((0,))
    assert db.insert((0, 0))
    assert len(db) == 3


# ---------------------------------------------------------------------------
# Individual rules
# ---------------------------------------------------------------------------


def _fresh(g=None):
    g = g or cycle(4)
    return g, unit_coloring(g.n), FlatSetDatabase()


def test_coloring_axiom_then_individualize():
    g, pi0, db = _fresh()
    fact = apply_rule(g, pi0, ColoringAxiom(), db)
    assert fact == RFiner((), pi0)
    db.insert(fact_key(fact))
    # C4 is regular, so the unit coloring is already equitable
    db.insert(fact_key(apply_rule(g, pi0, Equitable((), pi0), db)))
    fact2 = apply_rule(g, pi0, Individualize((), 0, pi0), db)
    assert fact2 == RFiner((0,), individualize(pi0, 0))


def test_individualize_needs_equitable_premise():
    g, pi0, db = _fresh()
    # RFiner alone is not enough: the rule consumes REqual(nu, pi)
    db.insert(fact_key(apply_rule(g, pi0, ColoringAxiom(), db)))
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, Individualize((), 0, pi0), db)
    assert exc_info.value.kind == MISSING_PREMISE


def test_split_coloring_side_condition():
    g, pi0, db = _fresh()  # C4 is regular: the unit coloring never splits
    db.insert(fact_key(apply_rule(g, pi0, ColoringAxiom(), db)))
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, SplitColoring((), pi0), db)
    assert exc_info.value.kind == SIDE_CONDITION


def test_split_coloring_uses_first_splitting_cell():
    g = path_graph(3)
    pi0 = unit_coloring(3)
    db = FlatSetDatabase()
    db.insert(fact_key(apply_rule(g, pi0, ColoringAxiom(), db)))
    fact = apply_rule(g, pi0, SplitColoring((), pi0), db)
    assert fact == RFiner((), Coloring.from_cells([(1,), (0, 2)]))


def test_split_coloring_picks_the_cell_a_full_split_loop_picks():
    # The rule used to build a whole split against each cell in turn until
    # one changed the coloring; the early-exit choice must be that cell.
    rng = random.Random(43)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        pi = random_coloring(rng, n, max_colors=rng.randint(1, n))
        first = next((i for i in range(pi.m) if split(g, pi, i) != pi), None)
        assert splitting_cell(g, pi) == first
        db = FlatSetDatabase()
        db.insert(fact_key(RFiner((), pi)))
        if first is None:
            with pytest.raises(CheckFailure, match="nothing splits"):
                apply_rule(g, pi, SplitColoring((), pi), db)
        else:
            fact = apply_rule(g, pi, SplitColoring((), pi), db)
            assert fact == RFiner((), split(g, pi, first))
        outcomes.add(first is None)
    assert outcomes == {True, False}


def test_refinement_rules_match_naive_oracles():
    # naive_split, naive_equitable and naive_individualize share no code with
    # graphcanon.refine, so a fault in the split round or in the splitter
    # scan the checker relies on shows up as a disagreement here.
    rng = random.Random(97)
    outcomes = set()
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        pi0 = unit_coloring(n)
        pi = random_coloring(rng, n, max_colors=rng.randint(1, 4))
        cells = list(pi.cells)
        nu = tuple(rng.sample(range(n), rng.randint(0, n - 1)))
        db = FlatSetDatabase()
        db.insert(fact_key(RFiner(nu, pi)))
        db.insert(fact_key(REqual(nu, pi)))
        splits = (naive_split(g, cells, i) for i in range(len(cells)))
        first = next((new for new in splits if new != cells), None)
        if first is None:
            with pytest.raises(CheckFailure, match="nothing splits"):
                apply_rule(g, pi0, SplitColoring(nu, pi), db)
        else:
            fact = apply_rule(g, pi0, SplitColoring(nu, pi), db)
            assert fact == RFiner(nu, Coloring.from_cells(first))
        equitable = naive_equitable(g, cells) == cells
        if equitable:
            assert apply_rule(g, pi0, Equitable(nu, pi), db) == REqual(nu, pi)
        else:
            with pytest.raises(CheckFailure, match="not equitable"):
                apply_rule(g, pi0, Equitable(nu, pi), db)
        v = rng.choice([x for x in range(n) if x not in nu])
        fact = apply_rule(g, pi0, Individualize(nu, v, pi), db)
        want = Coloring.from_cells(naive_individualize(cells, v))
        assert fact == RFiner(nu + (v,), want)
        outcomes.add((first is None, equitable))
    assert outcomes == {(True, True), (False, False)}


def test_prune_automorphism_matches_a_brute_force_oracle():
    # The oracle relabels one bit at a time and reads colors vertex by
    # vertex, so it shares no code with is_automorphism. Half the sigmas
    # are automorphisms of the uncolored graph (found by trying all n!
    # permutations), which pi0 may still forbid; half are random.
    rng = random.Random(113)
    outcomes = set()
    for _ in range(400):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, rng.random())
        pi0 = random_coloring(rng, n)
        if rng.random() < 0.5:
            sigma = rng.choice(brute_automorphisms(g, unit_coloring(n)))
        else:
            sigma = random_perm(rng, n)
        nu1 = tuple(rng.sample(range(n), rng.randint(0, n)))
        if rng.random() < 0.8:
            nu2 = tuple(sigma[v] for v in nu1)
        else:
            nu2 = tuple(rng.sample(range(n), rng.randint(0, n)))
        shape = (
            len(nu1) == len(nu2)
            and nu1 < nu2
            and all(sigma[a] == b for a, b in zip(nu1, nu2))
        )
        edges = reference_relabel(g, sigma) == g
        colors = all(pi0.colors[sigma[v]] == pi0.colors[v] for v in range(n))
        rule = PruneAutomorphism(nu1, nu2, sigma)
        if shape and edges and colors:
            assert apply_rule(g, pi0, rule, FlatSetDatabase()) == Pruned(nu2)
        else:
            with pytest.raises(CheckFailure) as exc_info:
                apply_rule(g, pi0, rule, FlatSetDatabase())
            assert exc_info.value.kind == SIDE_CONDITION
        outcomes.add((shape, edges, colors))
    # Every premise fails alone somewhere, and all of them hold somewhere.
    assert {(True, True, True), (False, True, True)} <= outcomes
    assert {(True, False, True), (True, True, False)} <= outcomes


def test_equitable_rejects_non_equitable_coloring():
    g = path_graph(3)
    pi0 = unit_coloring(3)
    db = FlatSetDatabase()
    db.insert(fact_key(apply_rule(g, pi0, ColoringAxiom(), db)))
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, Equitable((), pi0), db)
    assert exc_info.value.kind == SIDE_CONDITION


def test_target_cell_on_discrete_coloring_fails():
    g = Graph.from_edges(2, [(0, 1)])
    pi = Coloring((0, 1))
    db = FlatSetDatabase()
    db.insert(fact_key(apply_rule(g, pi, ColoringAxiom(), db)))
    db.insert(fact_key(apply_rule(g, pi, Equitable((), pi), db)))
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi, TargetCell((), pi), db)
    assert exc_info.value.kind == SIDE_CONDITION


def test_orbits_axiom_is_premise_free():
    g, pi0, db = _fresh()
    fact = apply_rule(g, pi0, OrbitsAxiom(2, ()), db)
    assert fact == OrbitSubset((), (2,))


# No emitter writes InvariantsEqualSym; the checker keeps it because the wire
# format is frozen.
def test_invariants_equal_sym_mirrors_a_stored_fact():
    g, pi0, db = _fresh()
    db.insert(fact_key(PhiEqual((0,), (2,))))
    assert apply_rule(g, pi0, InvariantsEqualSym((0,), (2,)), db) == PhiEqual(
        (2,), (0,)
    )


_C4_UNIT = unit_coloring(4)


# One rule per fact kind whose first missing premise is of that kind, on C4.
# Pruned is named in test_extend_path_requires_pruned_siblings.
@pytest.mark.parametrize(
    "rule, stored, message",
    [
        (Individualize((), 0, _C4_UNIT), [], "REqual (premise 1 of 1)"),
        (SplitColoring((), _C4_UNIT), [], "RFiner (premise 1 of 1)"),
        (PruneParent((), (0, 1, 2, 3)), [], "TargetIs (premise 1 of 5)"),
        (PruneOrbits((0, 2), (), 0, 2), [], "OrbitSubset (premise 1 of 1)"),
        # The mirror of the forward fact is no premise.
        (
            InvariantsEqualSym((0,), (2,)),
            [PhiEqual((2,), (0,))],
            "PhiEqual (premise 1 of 1)",
        ),
        (CanonicalLeaf((), _C4_UNIT), [], "OnPath (premise 1 of 2)"),
    ],
    ids=["REqual", "RFiner", "TargetIs", "OrbitSubset", "PhiEqual", "OnPath"],
)
def test_missing_premise_names_its_kind(rule, stored, message):
    g, pi0, db = _fresh()
    for fact in stored:
        db.insert(fact)
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, rule, db)
    assert exc_info.value.kind == MISSING_PREMISE
    assert str(exc_info.value) == "missing premise: " + message


# Discrete and non-discrete colorings of P3 whose hashes differ.
_P3_LEAF = Coloring((0, 1, 2))
_P3_UNIT = Coloring((0, 0, 0))


@pytest.mark.parametrize(
    "rule,facts,message",
    [
        pytest.param(
            InvariantsEqual((0,), _P3_LEAF, (1,), _P3_UNIT),
            [PhiEqual((), ()), REqual((0,), _P3_LEAF), REqual((1,), _P3_UNIT)],
            "invariant hashes differ",
            id="InvariantsEqual",
        ),
        pytest.param(
            MergeOrbits((0,), (2,), (), (2, 1, 0), 1, 2),
            [OrbitSubset((), (0,)), OrbitSubset((), (2,))],
            "witnesses outside their classes",
            id="MergeOrbits-witness",
        ),
        pytest.param(
            MergeOrbits((0,), (1,), (), (2, 1, 0), 0, 2),
            [OrbitSubset((), (0,)), OrbitSubset((), (1,))],
            "witnesses outside their classes",
            id="MergeOrbits-witness-w2",
        ),
        pytest.param(
            MergeOrbits((0,), (2,), (1, 0), (2, 1, 0), 0, 2),
            [OrbitSubset((1, 0), (0,)), OrbitSubset((1, 0), (2,))],
            "sigma does not fix the node sequence",
            id="MergeOrbits-fix",
        ),
        pytest.param(
            MergeOrbits((0,), (2,), (), (0, 1, 2), 0, 2),
            [OrbitSubset((), (0,)), OrbitSubset((), (2,))],
            "sigma does not map w1 to w2",
            id="MergeOrbits-map",
        ),
        pytest.param(
            MergeOrbits((0,), (1,), (), (1, 0, 2), 0, 1),
            [OrbitSubset((), (0,)), OrbitSubset((), (1,))],
            "sigma is not an automorphism of (G, pi0)",
            id="MergeOrbits-automorphism",
        ),
        pytest.param(
            PruneInvariant((0,), _P3_LEAF, (2,), _P3_LEAF),
            [PhiEqual((), ()), REqual((0,), _P3_LEAF), REqual((2,), _P3_LEAF)],
            "first invariant hash does not dominate",
            id="PruneInvariant",
        ),
        pytest.param(
            PruneLeaf((0,), _P3_LEAF, (1,), _P3_UNIT),
            [REqual((0,), _P3_LEAF), REqual((1,), _P3_UNIT), PhiEqual((0,), (1,))],
            "pruned node is not a leaf",
            id="PruneLeaf-leaf",
        ),
        pytest.param(
            PruneLeaf((0,), _P3_LEAF, (2,), _P3_LEAF),
            [REqual((0,), _P3_LEAF), REqual((2,), _P3_LEAF), PhiEqual((0,), (2,))],
            "first leaf graph does not dominate",
            id="PruneLeaf-graph",
        ),
        pytest.param(
            PruneAutomorphism((0,), (1, 2), (2, 1, 0)),
            [],
            "sequences differ in length",
            id="PruneAutomorphism-length",
        ),
        pytest.param(
            PruneOrbits((0, 1), (), 0, 2),
            [OrbitSubset((), (0, 1))],
            "witnesses outside the class",
            id="PruneOrbits-witness",
        ),
        pytest.param(
            PruneOrbits((1, 2), (), 0, 2),
            [OrbitSubset((), (1, 2))],
            "witnesses outside the class",
            id="PruneOrbits-witness-w1",
        ),
        pytest.param(
            PruneOrbits((0, 2), (), 2, 0),
            [OrbitSubset((), (0, 2))],
            "w1 must be smaller than w2",
            id="PruneOrbits-order",
        ),
        pytest.param(
            PruneOrbits((0, 2), (), 2, 2),
            [OrbitSubset((), (0, 2))],
            "w1 must be smaller than w2",
            id="PruneOrbits-equal",
        ),
    ],
)
def test_side_conditions_reject_with_their_premises_stored(rule, facts, message):
    g = path_graph(3)
    db = FlatSetDatabase()
    for fact in facts:
        db.insert(fact_key(fact))
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, unit_coloring(3), rule, db)
    assert exc_info.value.kind == SIDE_CONDITION
    assert str(exc_info.value) == message


def test_prune_automorphism_checks_the_map():
    g, pi0, db = _fresh()
    # (0,3,2,1) reflects the square fixing 0 and 2; it maps path (0,1) of the
    # tree to (0,3), so the larger branch is redundant.
    fact = apply_rule(g, pi0, PruneAutomorphism((0, 1), (0, 3), (0, 3, 2, 1)), db)
    assert fact == Pruned((0, 3))
    # not an automorphism
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, PruneAutomorphism((0, 1), (0, 3), (1, 0, 2, 3)), db)
    assert exc_info.value.kind == SIDE_CONDITION
    # wrong direction: nu1 must be lexicographically smaller
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, PruneAutomorphism((0, 3), (0, 1), (0, 3, 2, 1)), db)
    assert exc_info.value.kind == SIDE_CONDITION
    # sigma must map nu1 to nu2 pointwise
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, PruneAutomorphism((0, 1), (2, 3), (0, 3, 2, 1)), db)
    assert exc_info.value.kind == SIDE_CONDITION


def test_prune_automorphism_memo_keeps_rejecting_non_automorphisms():
    g, pi0, db = _fresh()
    good = PruneAutomorphism((0, 1), (0, 3), (0, 3, 2, 1))
    bad = PruneAutomorphism((0, 1), (0, 3), (0, 3, 1, 2))
    assert apply_rule(g, pi0, good, db) == Pruned((0, 3))
    assert db.automorphisms == {(0, 3, 2, 1)}
    for _ in range(2):
        with pytest.raises(CheckFailure, match="not an automorphism of"):
            apply_rule(g, pi0, bad, db)
    assert db.automorphisms == {(0, 3, 2, 1)}


def test_each_distinct_sigma_is_checked_once(monkeypatch):
    g = complete(6)
    data = emit_post(g).data
    _, rules = decode_proof(data)
    sigmas = [
        r.sigma for r in rules if isinstance(r, (MergeOrbits, PruneAutomorphism))
    ]
    assert len(set(sigmas)) < len(sigmas)
    checked = []
    real = checker.is_automorphism

    def counting(g, pi0, sigma):
        checked.append(tuple(sigma))
        return real(g, pi0, sigma)

    monkeypatch.setattr(checker, "is_automorphism", counting)
    assert verify_proof(g, unit_coloring(6), data).accepted
    assert sorted(checked) == sorted(set(sigmas))


def test_extend_path_requires_pruned_siblings():
    g, pi0, db = _fresh()
    db.insert(fact_key(apply_rule(g, pi0, PathAxiom(), db)))
    db.insert(fact_key(apply_rule(g, pi0, ColoringAxiom(), db)))
    db.insert(fact_key(apply_rule(g, pi0, Equitable((), pi0), db)))
    db.insert(fact_key(apply_rule(g, pi0, TargetCell((), pi0), db)))
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, ExtendPath((), (0, 1, 2, 3), 0), db)
    assert exc_info.value.kind == MISSING_PREMISE
    # OnPath, TargetIs, then Pruned for the siblings 1, 2 and 3.
    assert str(exc_info.value) == "missing premise: Pruned (premise 3 of 5)"


def test_extend_path_rejects_vertex_outside_cell():
    # P3 refines to ({1}, {0,2}); the target cell is {0,2}, so extending the
    # path with the middle vertex is a side-condition failure.
    g = path_graph(3)
    pi0 = unit_coloring(3)
    db = FlatSetDatabase()
    db.insert(fact_key(apply_rule(g, pi0, PathAxiom(), db)))
    db.insert(fact_key(apply_rule(g, pi0, ColoringAxiom(), db)))
    split_fact = apply_rule(g, pi0, SplitColoring((), pi0), db)
    pi_base = Coloring.from_cells([(1,), (0, 2)])
    assert split_fact == RFiner((), pi_base)
    db.insert(fact_key(split_fact))
    db.insert(fact_key(apply_rule(g, pi0, Equitable((), pi_base), db)))
    db.insert(fact_key(apply_rule(g, pi0, TargetCell((), pi_base), db)))
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, ExtendPath((), (0, 2), 1), db)
    assert exc_info.value.kind == SIDE_CONDITION


def test_canonical_leaf_requires_discrete_on_path_leaf():
    g = Graph.from_edges(2, [(0, 1)])
    pi = Coloring((0, 1))
    db = FlatSetDatabase()
    db.insert(fact_key(apply_rule(g, pi, PathAxiom(), db)))
    db.insert(fact_key(apply_rule(g, pi, ColoringAxiom(), db)))
    db.insert(fact_key(apply_rule(g, pi, Equitable((), pi), db)))
    fact = apply_rule(g, pi, CanonicalLeaf((), pi), db)
    assert fact.graph == g
    assert fact.coloring == pi


def test_canonical_leaf_rejects_non_discrete():
    g = Graph.from_edges(2, [(0, 1)])
    pi0 = unit_coloring(2)
    db = FlatSetDatabase()
    db.insert(fact_key(apply_rule(g, pi0, PathAxiom(), db)))
    db.insert(fact_key(apply_rule(g, pi0, ColoringAxiom(), db)))
    db.insert(fact_key(apply_rule(g, pi0, Equitable((), pi0), db)))
    with pytest.raises(CheckFailure) as exc_info:
        apply_rule(g, pi0, CanonicalLeaf((), pi0), db)
    assert exc_info.value.kind == SIDE_CONDITION


# ---------------------------------------------------------------------------
# verify_proof
# ---------------------------------------------------------------------------


def test_verify_rejects_wrong_n():
    g = cycle(4)
    proof = emit_post(cycle(5)).data
    verdict = verify_proof(g, unit_coloring(4), proof)
    assert not verdict.accepted
    assert verdict.error_kind == N_MISMATCH
    assert "n=5" in verdict.reason


def test_verify_rejects_coloring_of_another_order():
    # Checked before the stream is read: a proof for g cannot vouch for a
    # coloring that does not color g.
    g = cycle(3)
    verdict = verify_proof(g, unit_coloring(4), emit_post(g).data)
    assert not verdict.accepted
    assert verdict.error_kind == N_MISMATCH
    assert verdict.error_index is None
    assert verdict.error_message == "coloring has n=4, graph has n=3"


def test_verify_rejects_empty_stream():
    g = cycle(4)
    verdict = verify_proof(g, unit_coloring(4), encode_proof(4, []))
    assert not verdict.accepted
    assert verdict.error_kind == NO_CANONICAL


def test_verify_rejects_truncated_stream():
    g = cycle(4)
    proof = emit_post(g).data
    verdict = verify_proof(g, unit_coloring(4), proof[:-1])
    assert not verdict.accepted
    assert verdict.error_kind == DECODE


def test_decode_rejection_names_the_byte():
    g, pi0 = cycle(4), unit_coloring(4)
    data = emit_post(g).data
    last = len(decode_proof(data)[1]) - 1
    verdict = verify_proof(g, pi0, data[:-1])
    assert verdict.error_index == verdict.rules_applied == last
    cut = len(data) - INT_WIDTH
    assert verdict.reason == f"decode at rule {last}: truncated integer at byte {cut}"
    # An ASCII letter in place of a continuation byte of the first rule's code.
    at = INT_WIDTH + 3
    verdict = verify_proof(g, pi0, data[:at] + b"A" + data[at + 1 :])
    assert verdict.reason == (
        f"decode at rule 0: bad continuation byte 0x41 at byte {at}"
    )
    verdict = verify_proof(g, pi0, data[:4])
    assert verdict.reason == "decode: truncated integer at byte 0"


def _verdict(v):
    return (v.accepted, v.error_kind, v.error_index, v.error_message, v.rules_applied)


K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
STREAM_GRAPHS = {
    "petersen": petersen,
    "cfi-k4": lambda: cfi(K4),
    "chang1": lambda: chang(1),
}


@pytest.mark.parametrize("name", STREAM_GRAPHS)
def test_stream_verdicts_match_a_rule_by_rule_replay(name, monkeypatch):
    """``verify_proof`` decodes the stream in one pass; a replay that
    decodes one rule at a time, one integer at a time, gives the same
    verdict on corrupted and cut streams, and the same rules on the whole
    one."""
    g = STREAM_GRAPHS[name]()
    pi0 = unit_coloring(g.n)
    data = emit_post(g).data
    expected, rules = reference_replay(g, pi0, data)
    assert expected[0] and _verdict(verify_proof(g, pi0, data)) == expected
    assert decode_proof(data) == (g.n, rules)
    rng = random.Random(name)
    positions = sorted(rng.sample(range(INT_WIDTH, len(data)), 50))
    for bad in corruptions(data, positions, rng):
        assert _verdict(verify_proof(g, pi0, bad)) == reference_replay(g, pi0, bad)[0]

    # Cuts at every byte up to the end of the third rule, at every rule
    # boundary, and at one seeded byte inside each rule.
    sizes = (len(encode_rule(rule, g.n)) for rule in rules)
    ends = list(itertools.accumulate(sizes, initial=INT_WIDTH))
    cuts = set(range(ends[3])) | set(ends[:-1])
    cuts.update(rng.randrange(a + 1, b) for a, b in zip(ends, ends[1:]))
    # On a prefix of a valid stream each rule that decodes is the stream's
    # own, so its recorded conclusion stands in for apply_rule.
    db, facts = FlatSetDatabase(), {}
    for rule in rules:
        facts[rule] = apply_rule(g, pi0, rule, db)
        db.insert(fact_key(facts[rule]))
    monkeypatch.setattr(checker, "apply_rule", lambda g, pi0, rule, db: facts[rule])
    for cut in sorted(cuts):
        short = data[:cut]
        expected, _ = reference_replay(g, pi0, short)
        assert _verdict(verify_proof(g, pi0, short)) == expected


def _outcome(g, pi0, rule, db):
    """``(True, conclusion)``, or ``(False, (kind, message))`` on a rejection."""
    try:
        return True, apply_rule(g, pi0, rule, db)
    except CheckFailure as exc:
        return False, (exc.kind, str(exc))


def _naive_first_split(g, cells):
    splits = (naive_split(g, cells, i) for i in range(len(cells)))
    return next(new for new in splits if new != cells)


def _replay_with_and_without_memo(g, data):
    """Replay ``data`` as ``verify_proof`` does, on one store throughout,
    and apply each rule also to a fresh store that shares the facts and
    automorphisms but not the split memo. Returns how many rules found
    known-uniform cells for their premise."""
    try:
        n, pos = decode_int(data, 0)
    except ProofDecodeError:
        return 0
    if n != g.n:
        return 0
    pi0 = unit_coloring(n)
    db = FlatSetDatabase()
    hits = 0
    try:
        for rule in iter_rules(data, pos, n):
            memo_free = FlatSetDatabase()
            memo_free._keys, memo_free.automorphisms = db._keys, db.automorphisms
            if isinstance(rule, (SplitColoring, Equitable)):
                hits += bool(db.uniform.get(rule.pi.colors, (rule.pi, frozenset()))[1])
            applied, fact = _outcome(g, pi0, rule, memo_free)
            assert _outcome(g, pi0, rule, db) == (applied, fact), rule
            if not applied:
                return hits
            if isinstance(rule, SplitColoring):
                # The memo entry holds the conclusion's coloring, the last n
                # integers of the fact, and cells of it that split nothing.
                out, uniform = db.uniform[fact[-n:]]
                assert fact == RFiner(rule.nu, out), rule
                cells = list(out.cells)
                want = _naive_first_split(g, list(rule.pi.cells))
                assert cells == want, rule
                for c in uniform:
                    assert c in cells
                    assert naive_split(g, cells, cells.index(c)) == cells
            db.insert(fact_key(fact))
    except ProofDecodeError:
        pass
    return hits


def _memo_streams(family):
    """(graph, stream) pairs of one family of the memo differential test."""
    if family == "corpus":
        for _, g in corpus_instances():
            yield g, emit_post(g).data
            yield g, emit_during(g).data
    elif family == "rigid":
        rng = random.Random(131)
        graphs = [random_graph(rng, n, 0.3) for n in (40, 45, 50, 55, 60)]
        for g in graphs + [spider(range(1, 9))]:
            yield g, emit_post(g).data
    elif family == "criterion-5":
        instances = tamper_instances()
        for idx, _, data in integer_mutants(instances, random.Random(1750)):
            yield instances[idx], data
    else:
        instances = tamper_instances()
        for idx, _, _, rules in structural_mutants(instances, random.Random(1780)):
            yield instances[idx], encode_proof(instances[idx].n, rules)


@pytest.mark.parametrize("family", ["corpus", "rigid", "criterion-5", "criterion-8"])
def test_split_memo_changes_no_rule_outcome(family):
    """Every rule of whole streams gives the same conclusion or the same
    failure with the split memo as without it, each accepted SplitColoring
    is the naive split at the naive first splitting cell, and each memo
    entry holds only uniform cells of its coloring."""
    streams = hits = 0
    for g, data in _memo_streams(family):
        streams += 1
        hits += _replay_with_and_without_memo(g, data)
    assert streams > 0 and hits > 0


def test_verify_rejects_proof_for_different_graph():
    g = cycle(6)
    other = path_graph(6)
    proof = emit_post(g).data
    verdict = verify_proof(other, unit_coloring(6), proof)
    assert not verdict.accepted
    assert verdict.error_kind in (MISSING_PREMISE, SIDE_CONDITION)


def test_verify_reports_rule_counts():
    g = cycle(4)
    emitted = emit_post(g)
    verdict = verify_proof(g, unit_coloring(4), emitted.data)
    assert verdict.accepted
    assert verdict.reason is None
    assert verdict.rules_applied == emitted.rule_count
    assert verdict.facts > 0
    assert verdict.canonical_graph == canonical_form(g).graph
    assert verdict.canonical_coloring == unit_coloring(4)


def test_first_canonical_fact_wins():
    # A proof may in principle carry rules after the canonical conclusion;
    # the verdict reports the first Canonical fact derived.
    g = Graph.from_edges(2, [(0, 1)])
    pi = Coloring((0, 1))
    rules = [
        PathAxiom(),
        ColoringAxiom(),
        Equitable((), pi),
        CanonicalLeaf((), pi),
        OrbitsAxiom(0, ()),  # harmless trailing rule
    ]
    verdict = verify_proof(g, pi, encode_proof(2, rules))
    assert verdict.accepted
    assert verdict.rules_applied == 5
    assert verdict.canonical_graph == g


def test_later_canonical_fact_that_differs_is_a_conflict(monkeypatch):
    g = Graph.from_edges(2, [(0, 1)])
    pi = Coloring((0, 1))
    rules = [
        PathAxiom(),
        ColoringAxiom(),
        Equitable((), pi),
        CanonicalLeaf((), pi),
        CanonicalLeaf((), pi),
    ]
    data = encode_proof(2, rules)
    # The same Canonical fact twice is no conflict.
    assert verify_proof(g, pi, data).accepted
    # A second CanonicalLeaf whose relabelled graph differs from the first.
    real = checker.relabel_graph
    calls = []

    def edgeless_after_first(g, sigma):
        calls.append(sigma)
        h = real(g, sigma)
        return h if len(calls) == 1 else Graph(h.n, [0] * h.n)

    monkeypatch.setattr(checker, "relabel_graph", edgeless_after_first)
    verdict = verify_proof(g, pi, data)
    assert not verdict.accepted
    assert verdict.error_kind == CANONICAL_CONFLICT
    assert verdict.error_index == 4
    assert verdict.rules_applied == 4
    assert verdict.reason.startswith("canonical-conflict at rule 4: CanonicalLeaf")
