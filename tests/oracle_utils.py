"""Brute-force reference implementations and shared generators for the tests.

Everything here favors obviousness over speed: dictionaries, itertools, full
enumeration. The package is tested against these oracles on inputs small
enough for exhaustive computation to be feasible.
"""

import itertools
import random
from unittest import mock

from hypothesis import strategies as st

from graphcanon import (
    Coloring,
    Graph,
    emit_post,
    graph_compare,
    refine,
    relabel_graph,
    target_cell,
    unit_coloring,
)
from graphcanon import checker, proof
from graphcanon.emitter import emit_during
from graphcanon.invariant import FNV_OFFSET, FNV_PRIME
from graphcanon.proof import (
    MAX_WIRE_INT,
    RULE_CODE,
    RULE_SCHEMA,
    CanonicalLeaf,
    ColoringAxiom,
    Equitable,
    ExtendPath,
    Individualize,
    InvariantAxiom,
    InvariantsEqual,
    InvariantsEqualSym,
    MergeOrbits,
    OrbitsAxiom,
    PathAxiom,
    PruneAutomorphism,
    PruneInvariant,
    PruneLeaf,
    PruneOrbits,
    PruneParent,
    SplitColoring,
    TargetCell,
    decode_proof,
    encode_ints,
    proof_to_ints,
)

# Number of isomorphism classes of simple graphs on 1..7 vertices.
ISO_CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


# ---------------------------------------------------------------------------
# Graph constructors
# ---------------------------------------------------------------------------


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n):
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def frucht():
    """The Frucht graph: cubic on 12 vertices with no non-trivial automorphism."""
    shifts = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    chords = [(i, (i + s) % 12) for i, s in enumerate(shifts)]
    return Graph.from_edges(12, [(i, (i + 1) % 12) for i in range(12)] + chords)


def chang(which):
    """One of the three Chang graphs, srg(28, 12, 6, 4) like T(8).

    T(8) has the 2-subsets of ``range(8)`` as vertices, adjacent when they
    meet. Seidel switching on a set of them (as edges of K8: a perfect
    matching, an 8-cycle, or a triangle plus a 5-cycle) flips every pair with
    exactly one end in the set.
    """
    switch = {
        1: [(0, 1), (2, 3), (4, 5), (6, 7)],
        2: [(i, (i + 1) % 8) for i in range(8)],
        3: [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)],
    }[which]
    pairs = list(itertools.combinations(range(8), 2))
    inside = {pairs.index(tuple(sorted(e))) for e in switch}
    edges = [
        (x, y)
        for x, y in itertools.combinations(range(28), 2)
        if bool(set(pairs[x]) & set(pairs[y])) != ((x in inside) != (y in inside))
    ]
    return Graph.from_edges(28, edges)


def cfi(base, twisted=()):
    """Cai-Fuerer-Immerman graph over the 3-regular graph with edge list ``base``.

    Each base vertex becomes a middle vertex per even subset of its edges
    and two end vertices ``(e, 0)``, ``(e, 1)`` per edge ``e``; a middle
    vertex meets ``(e, 1)`` for ``e`` in its subset and ``(e, 0)`` otherwise.
    Base edge ``e`` joins the ends ``(e, i)`` of its two vertices, or ``(e,
    i)`` to ``(e, 1 - i)`` when ``e`` is twisted.
    """
    ids = {}
    edges = []

    def vid(key):
        return ids.setdefault(key, len(ids))

    for v in sorted({x for uv in base for x in uv}):
        inc = [e for e, uv in enumerate(base) if v in uv]
        for subset in itertools.product((0, 1), repeat=len(inc)):
            if sum(subset) % 2 == 0:
                middle = vid(("m", v, subset))
                edges += [(middle, vid((v, e, s))) for e, s in zip(inc, subset)]
    for e, (u, v) in enumerate(base):
        edges += [(vid((u, e, i)), vid((v, e, i ^ (e in twisted)))) for i in (0, 1)]
    return Graph.from_edges(len(ids), edges)


def spider(legs):
    """Tree made of one hub vertex with paths of the given lengths attached.

    Distinct leg lengths make the tree rigid (trivial automorphism group).
    """
    edges = []
    nxt = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph.from_edges(nxt, edges)


def reg3(n, seed=1):
    """A random cubic graph on ``n`` vertices (``n`` even), drawn by the
    configuration model: shuffle the 3n points (vertex ``v`` owns ``3v``,
    ``3v + 1`` and ``3v + 2``) with ``random.Random(seed)``, pair them in
    order, and redraw until there is no loop or multi-edge."""
    rng = random.Random(seed)
    points = list(range(3 * n))
    while True:
        rng.shuffle(points)
        edges = {
            (min(a, b) // 3, max(a, b) // 3) for a, b in zip(points[::2], points[1::2])
        }
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            return Graph.from_edges(n, sorted(edges))


def all_graphs(n):
    """Every labelled simple graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if bits >> i & 1])


# Seeded random.Random instances for property tests. st.randoms() would draw
# every call as one choice, which makes the random-graph properties slow.
rngs = st.integers(0, 2**32 - 1).map(random.Random)


def random_graph(rng, n, p=0.5):
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_tree(rng, n):
    """Random labelled tree by random attachment."""
    return Graph.from_edges(n, [(rng.randrange(i), i) for i in range(1, n)])


def random_perm(rng, n):
    sigma = list(range(n))
    rng.shuffle(sigma)
    return tuple(sigma)


def random_coloring(rng, n, max_colors=3):
    """Random surjective coloring with at most max_colors colors."""
    m = rng.randint(1, min(max_colors, n))
    colors = [rng.randrange(m) for _ in range(n)]
    for c, v in enumerate(rng.sample(range(n), m)):
        colors[v] = c
    return Coloring(colors)


def reference_fnv1a(words):
    """64-bit FNV-1a over ``words``, each fed as 8 big-endian bytes, one byte
    at a time: the definition the frozen hash goldens were made with."""
    h = FNV_OFFSET
    for w in words:
        for b in w.to_bytes(8, "big"):
            h = ((h ^ b) * FNV_PRIME) & ((1 << 64) - 1)
    return h


def reference_quotient(g, pi):
    """The quotient's word stream ``(cell_count, *cell_sizes, *edge_counts)``
    of any coloring, counted edge by edge: ``edge_counts`` lists, for every
    cell pair ``(i, j)`` with ``i <= j`` in lexicographic order, the number
    of edges with one endpoint in cell ``i`` and the other in cell ``j``."""
    cells = pi.cells
    m = len(cells)
    counts = {(i, j): 0 for i in range(m) for j in range(i, m)}
    for u, v in g.edges:
        i, j = sorted((pi.colors[u], pi.colors[v]))
        counts[i, j] += 1
    return (m, *map(len, cells), *(counts[i, j] for i in range(m) for j in range(i, m)))


def reference_hash(g, pi):
    """The node invariant of any coloring; ``hash_colored``'s value on an
    equitable one."""
    return reference_fnv1a(reference_quotient(g, pi))


def reference_cmp_key(g):
    """The order ``graph_compare`` defines within one vertex count: the
    row-major adjacency matrix read as a big binary number, row 0 the most
    significant block and vertex 0 the most significant bit of its row.
    Bigger number == bigger graph."""
    n = g.n
    key = 0
    for u in range(n):
        row = g.adj[u]
        rev = 0
        for v in range(n):
            if row >> v & 1:
                rev |= 1 << (n - 1 - v)
        key = (key << n) | rev
    return key


def reference_edges(g):
    """``Graph.edges`` one bit position at a time."""
    return tuple(
        (u, v) for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1
    )


def reference_relabel(g, sigma):
    """``relabel_graph`` one bit position at a time."""
    adj = [0] * g.n
    for u in range(g.n):
        for v in range(g.n):
            if g.adj[u] >> v & 1:
                adj[sigma[u]] |= 1 << sigma[v]
    return Graph(g.n, adj)


def reference_encode_int(v):
    """``encode_int`` one bit field at a time: the lead byte with bit 30,
    then six bits per continuation byte, most significant first."""
    assert 0 <= v <= MAX_WIRE_INT
    return bytes([0xFC | v >> 30, *(0x80 | v >> s & 0x3F for s in (24, 18, 12, 6, 0))])


def reference_proof_to_ints(data):
    """``proof_to_ints`` one ``decode_int`` call per integer."""
    out, pos = [], 0
    while pos < len(data):
        v, pos = proof.decode_int(data, pos)
        out.append(v)
    return out


class PerIntegerReader:
    """A proof reader that decodes each integer with ``decode_int`` when it
    is read, and never looks past the integers read so far."""

    def __init__(self, data, start, stop=None):
        self.data, self.pos = data, start

    def read(self):
        v, self.pos = proof.decode_int(self.data, self.pos)
        return v

    def read_many(self, k):
        return [self.read() for _ in range(k)]


def reference_decode_rule(data, pos, n):
    """``decode_rule`` with :class:`PerIntegerReader` in place of the bulk
    reader: the same field checks, every integer through ``decode_int``."""
    with mock.patch.object(proof, "_Reader", PerIntegerReader):
        return proof.decode_rule(data, pos, n)


def corruptions(data, positions=None, rng=None):
    """Each byte of ``data`` (or each at ``positions``), replaced by a wrong
    value bit, a flipped marker bit, a continuation byte and a lead byte; or
    by one of those four, drawn with ``rng``."""
    for i in range(len(data)) if positions is None else positions:
        kinds = [data[i] ^ 0x01, data[i] ^ 0x40, 0x80, 0xFD]
        for b in [rng.choice(kinds)] if rng else kinds:
            yield data[:i] + bytes([b]) + data[i + 1 :]


def reference_replay(g, pi0, data):
    """``verify_proof`` on a stream whose header is ``g.n``, one rule at a
    time: each rule decoded by :func:`reference_decode_rule` and applied by
    ``apply_rule``. Returns the verdict as ``(accepted, error_kind,
    error_index, error_message, rules_applied)`` and the applied rules."""
    db = checker.FlatSetDatabase()
    rules, canonical = [], None

    def verdict(kind=None, message=None, index=None):
        return (kind is None, kind, index, message, len(rules)), rules

    try:
        n, pos = proof.decode_int(data, 0)
    except proof.ProofDecodeError as exc:
        return verdict(checker.DECODE, f"{exc} at byte {exc.offset}")
    assert n == g.n
    while pos < len(data):
        try:
            rule, pos = reference_decode_rule(data, pos, n)
        except proof.ProofDecodeError as exc:
            return verdict(checker.DECODE, f"{exc} at byte {exc.offset}", len(rules))
        name = type(rule).__name__
        try:
            fact = checker.apply_rule(g, pi0, rule, db)
        except checker.CheckFailure as exc:
            return verdict(exc.kind, f"{name}: {exc}", len(rules))
        if isinstance(fact, proof.Canonical):
            if canonical is not None and fact != canonical:
                message = f"{name}: canonical form differs from the one derived first"
                return verdict(checker.CANONICAL_CONFLICT, message, len(rules))
            canonical = canonical or fact
        db.insert(proof.fact_key(fact))
        rules.append(rule)
    if canonical is None:
        message = "stream ended without deriving a canonical form"
        return verdict(checker.NO_CANONICAL, message)
    return verdict()


# ---------------------------------------------------------------------------
# Proof corpora and mutants (acceptance criteria 3, 5 and 8)
# ---------------------------------------------------------------------------


def corpus_instances():
    """Criterion 3's 200 named graphs."""
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


def tamper_instances():
    """Criteria 5 and 8's 20 small graphs."""
    rng = random.Random(175)
    instances = [cycle(4), cycle(5), cycle(6), complete(4), complete_bipartite(2, 3)]
    instances += [spider([1, 2]), spider([1, 2, 3])]
    instances += [random_graph(rng, 6, 0.5) for _ in range(5)]
    instances += [random_graph(rng, 7, 0.4) for _ in range(4)]
    instances += [random_graph(rng, 8, 0.3) for _ in range(4)]
    return instances


def integer_mutants(instances, rng):
    """Criterion 5's mutants: ``(instance index, position, stream)`` for the
    post proof of each instance with the integer at one position replaced
    by its neighbours, 0, 1 and 17. Every position is mutated, or 220 drawn
    with ``rng`` in a longer proof."""
    for idx, g in enumerate(instances):
        ints = proof_to_ints(emit_post(g).data)
        positions = range(len(ints))
        if len(ints) > 220:
            positions = sorted(rng.sample(range(len(ints)), 220))
        for pos in positions:
            v = ints[pos]
            candidates = {max(v - 1, 0), min(v + 1, MAX_WIRE_INT), 0, 1, 17}
            candidates.discard(v)
            for value in sorted(candidates):
                yield idx, pos, encode_ints(ints[:pos] + [value] + ints[pos + 1 :])


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
            yield rules[:i] + [rules[i]._replace(**{name: value})] + rules[i + 1 :]


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


def structural_mutants(instances, rng):
    """Criterion 8's mutants: ``(instance index, strategy, operation,
    mutated rule list)`` for the post and during proof of each instance;
    splices take their tails from the same strategy's proofs of the other
    instances on the same vertex count."""
    proofs = []  # (instance index, strategy, rules)
    for idx, g in enumerate(instances):
        for strategy, emit in (("post", emit_post), ("during", emit_during)):
            proofs.append((idx, strategy, decode_proof(emit(g).data)[1]))
    for idx, strategy, rules in proofs:
        donors = [
            other
            for j, s, other in proofs
            if s == strategy and j != idx and instances[j].n == instances[idx].n
        ]
        for op, mutant in _structural_mutants(rules, donors, rng):
            yield idx, strategy, op, mutant


def is_finer(pi1: Coloring, pi2: Coloring) -> bool:
    """True iff ``pi1`` refines ``pi2``: every strict color inequality of
    ``pi2`` is preserved by ``pi1`` (equal colorings count as finer)."""
    if pi1.n != pi2.n:
        return False
    # Each pi2 cell must be a union of consecutive pi1 cells, in order.
    # Equivalent pointwise test: pi2(u) < pi2(v) implies pi1(u) < pi1(v).
    seen_pairs: dict[int, int] = {}
    for v in range(pi1.n):
        c1, c2 = pi1.colors[v], pi2.colors[v]
        prev = seen_pairs.get(c1)
        if prev is not None and prev != c2:
            return False
        seen_pairs[c1] = c2
    order = [seen_pairs[c1] for c1 in sorted(seen_pairs)]
    return order == sorted(order)


# ---------------------------------------------------------------------------
# Brute-force isomorphism and canonical form
# ---------------------------------------------------------------------------


def brute_canonical(g):
    """Largest relabelling of g over all n! permutations (reference only)."""
    best = None
    for sigma in itertools.permutations(range(g.n)):
        h = relabel_graph(g, sigma)
        if best is None or graph_compare(h, best) > 0:
            best = h
    return best


def brute_isomorphic(g1, g2):
    """n! isomorphism test with a degree-sequence precheck."""
    if g1.n != g2.n:
        return False
    if sorted(r.bit_count() for r in g1.adj) != sorted(r.bit_count() for r in g2.adj):
        return False
    return any(
        relabel_graph(g1, sigma) == g2
        for sigma in itertools.permutations(range(g1.n))
    )


def brute_automorphisms(g, pi0):
    """All n! permutations that keep every color and every edge of ``g``."""
    edges = {frozenset(e) for e in reference_edges(g)}
    return [
        sigma
        for sigma in itertools.permutations(range(g.n))
        if all(pi0.colors[sigma[v]] == c for v, c in enumerate(pi0.colors))
        and all(frozenset((sigma[u], sigma[v])) in edges for u, v in edges)
    ]


def group_closure(gens, n):
    """Every product of ``gens``, found breadth first from the identity."""
    identity = tuple(range(n))
    group, frontier = {identity}, [identity]
    while frontier:
        new = []
        for a in frontier:
            for s in gens:
                b = tuple(s[x] for x in a)
                if b not in group:
                    group.add(b)
                    new.append(b)
        frontier = new
    return group


def orbits(perms, n, fixed=()):
    """The orbits on ``range(n)`` of the ``perms`` that fix ``fixed``
    pointwise, as a set of frozensets (union-find, then grouping)."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for sigma in perms:
        if all(sigma[b] == b for b in fixed):
            for v in range(n):
                a, b = find(v), find(sigma[v])
                root[max(a, b)] = min(a, b)
    classes = {}
    for v in range(n):
        classes.setdefault(find(v), set()).add(v)
    return {frozenset(c) for c in classes.values()}


# ---------------------------------------------------------------------------
# Naive refinement (dict/set based, no bitmasks, no worklist)
# ---------------------------------------------------------------------------


def neighbor_sets(g):
    nbrs = {v: set() for v in range(g.n)}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def naive_split(g, cells, i):
    """Split every cell of `cells` against cell i.

    Follows the documented fragment convention: fragments ordered by neighbor
    count ascending, then the first fragment of maximal size moved to the end,
    replacing the split cell in place.
    """
    nbrs = neighbor_sets(g)
    splitter = set(cells[i])
    out = []
    for cell in cells:
        by_count = {}
        for v in cell:
            by_count.setdefault(len(nbrs[v] & splitter), []).append(v)
        frags = [tuple(by_count[k]) for k in sorted(by_count)]
        if len(frags) == 1:
            out.append(tuple(cell))
            continue
        biggest = max(len(f) for f in frags)
        j = next(k for k, f in enumerate(frags) if len(f) == biggest)
        frags.append(frags.pop(j))
        out.extend(frags)
    return out


def naive_equitable(g, cells):
    """Fixpoint of naive_split driven by the lowest splitting index."""
    cells = [tuple(c) for c in cells]
    while True:
        for i in range(len(cells)):
            new = naive_split(g, cells, i)
            if new != cells:
                cells = new
                break
        else:
            return cells


def naive_individualize(cells, v):
    """Replace the cell of v by {v} and the rest of it, in that order."""
    out = []
    for cell in cells:
        if v in cell and len(cell) > 1:
            out.append((v,))
            out.append(tuple(u for u in cell if u != v))
        else:
            out.append(tuple(cell))
    return out


def naive_refine(g, pi0, nu):
    """Reference for refine(): equitable closure, then individualize each
    vertex of nu in turn and re-close."""
    cells = naive_equitable(g, list(pi0.cells))
    for v in nu:
        cells = naive_equitable(g, naive_individualize(cells, v))
    return cells


# ---------------------------------------------------------------------------
# Pruning-free canonical search
# ---------------------------------------------------------------------------


def reference_canonical(g, pi0=None):
    """Best leaf of the full search tree, enumerated without any pruning.

    Returns (graph, coloring) of the winning leaf: maximal invariant vector,
    ties broken by the larger relabelled graph.
    """
    if pi0 is None:
        pi0 = unit_coloring(g.n)
    best = None

    def walk(nu, phi):
        nonlocal best
        pi = refine(g, pi0, nu)
        phi = phi + (reference_hash(g, pi),)
        cell = target_cell(pi)
        if cell is None:
            cand_graph = relabel_graph(g, pi.perm())
            if (
                best is None
                or phi > best[0]
                or (phi == best[0] and graph_compare(cand_graph, best[1]) > 0)
            ):
                best = (phi, cand_graph, pi)
            return
        for v in cell:
            walk(nu + (v,), phi)

    walk((), ())
    return best[1], best[2]


# ---------------------------------------------------------------------------
# Random proof rules (wire-format fuzzing)
# ---------------------------------------------------------------------------


def _rand_seq(rng, n, min_len=0):
    k = rng.randint(min_len, min(n, 4))
    return tuple(rng.sample(range(n), k))


def _rand_set(rng, n, min_len=1):
    return tuple(sorted(rng.sample(range(n), rng.randint(min_len, min(n, 5)))))


def _rand_individualize(rng, n, col):
    nu = tuple(rng.sample(range(n), rng.randint(0, min(n - 1, 4))))
    v = rng.choice([u for u in range(n) if u not in nu])
    return Individualize(nu, v, col())


def random_rule(rng, n):
    """A random well-formed rule over n vertices (content is arbitrary; only
    the wire shape constraints hold)."""
    seq = lambda min_len=0: _rand_seq(rng, n, min_len)
    vset = lambda: _rand_set(rng, n)
    col = lambda: random_coloring(rng, n, max_colors=n)
    perm = lambda: random_perm(rng, n)
    v = lambda: rng.randrange(n)
    makers = [
        lambda: ColoringAxiom(),
        lambda: _rand_individualize(rng, n, col),
        lambda: SplitColoring(seq(), col()),
        lambda: Equitable(seq(), col()),
        lambda: TargetCell(seq(), col()),
        lambda: InvariantAxiom(seq()),
        lambda: InvariantsEqual(seq(1), col(), seq(1), col()),
        lambda: InvariantsEqualSym(seq(), seq()),
        lambda: OrbitsAxiom(v(), seq()),
        lambda: MergeOrbits(vset(), vset(), seq(), perm(), v(), v()),
        lambda: PruneInvariant(seq(1), col(), seq(1), col()),
        lambda: PruneLeaf(seq(), col(), seq(), col()),
        lambda: PruneAutomorphism(seq(), seq(), perm()),
        lambda: PruneParent(seq(), vset()),
        lambda: PruneOrbits(vset(), seq(), v(), v()),
        lambda: PathAxiom(),
        lambda: ExtendPath(seq(), vset(), v()),
        lambda: CanonicalLeaf(seq(), col()),
    ]
    return rng.choice(makers)()
