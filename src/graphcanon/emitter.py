"""Proof emission: turning a canonical-labelling run into a checkable stream.

``emit_post`` is the proof emitter. It reconstructs a certificate after the
fact from the search's outputs alone (canonical path, invariant vector,
automorphism generators). It walks only the final reduced tree and picks the
cheapest justification for each discarded branch - one automorphism rule
composed along the shortest chain of generators that maps the branch below an
earlier sibling, an invariant comparison, or (last resort) a descent into the
branch's children.

``emit_during`` translates the search's decision trace one event at a time,
in the order the search made its decisions. Its proofs are never smaller than
``emit_post``'s. It is not part of the package's public API: it stays as a
per-layer benchmark probe and as the one writer of the orbit rules
(``OrbitsAxiom``, ``MergeOrbits``, ``PruneOrbits``) that the checker's tests
mutate.

Both emitters track every fact they have derived and refuse to emit a rule
whose premises are not yet on the stream (:class:`EmitError`). A rule's
premises are read from :func:`graphcanon.checker.premises`, the checker's own
table, so no call site states them. Side conditions the checker will
recompute are asserted here first, so a hash collision or an internal
inconsistency surfaces at emission time rather than as a checker rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

from .checker import premises
from .core import (
    Coloring,
    Graph,
    act_coloring,
    compose,
    graph_compare,
    identity_perm,
    invert,
    is_automorphism,
    relabel_graph,
    unit_coloring,
)
from .invariant import hash_colored
from .proof import (
    Canonical,
    CanonicalLeaf,
    ColoringAxiom,
    Equitable,
    ExtendPath,
    Fact,
    Individualize,
    InvariantAxiom,
    InvariantsEqual,
    InvariantsEqualSym,
    MergeOrbits,
    OnPath,
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
    Rule,
    SplitColoring,
    TargetCell,
    TargetIs,
    encode_proof,
    fact_key,
)
from .refine import individualize, make_equitable, split, target_cell
from .search import (
    CanonicalResult,
    ChildInvariantPrunedEv,
    ChildOrbitPrunedEv,
    DethroneInvariantEv,
    DethroneLeafEv,
    LeafWorseEv,
    OrbitMergeEv,
    ParentDoneEv,
    SearchError,
    TraceEvent,
    _Search,
    canonical_form,
)

Node = tuple[int, ...]


class EmitError(RuntimeError):
    """An emitter tried to write a rule it cannot justify."""


@dataclass
class EmittedProof:
    """A binary proof stream together with the solver result it certifies."""

    data: bytes
    result: CanonicalResult
    rule_count: int


# vertex -> [(image, generator moving it there), ...]
_EdgeMap = dict[int, list[tuple[int, tuple[int, ...]]]]


class _Emitter:
    """Shared emission machinery: fact bookkeeping and derivation chains."""

    def __init__(self, g: Graph, pi0: Coloring):
        self.g = g
        self.pi0 = pi0
        self.rules: list[Rule] = []
        self._have: set[tuple[int, ...]] = set()
        self._refined: dict[Node, Coloring] = {}
        self._targets: dict[Node, tuple[int, ...]] = {}
        self._hashes: dict[Node, int] = {}

    # -- fact bookkeeping --------------------------------------------------

    def have(self, fact: Fact) -> bool:
        return fact_key(fact) in self._have

    def emit(self, rule: Rule, conclusion: Fact) -> None:
        """Append a rule after verifying its premises are already derived.

        A rule whose conclusion is already on the stream is dropped: the
        checker's fact database makes re-derivations pointless.
        """
        key = fact_key(conclusion)
        if key in self._have:
            return
        for fact in premises(rule):
            if fact_key(fact) not in self._have:
                raise EmitError(
                    f"{type(rule).__name__} needs underived premise "
                    f"{type(fact).__name__}"
                )
        self.rules.append(rule)
        self._have.add(key)

    # -- refinement chains ---------------------------------------------------

    def ensure_node(self, nu: Node) -> Coloring:
        """Derive ``REqual(nu, pi)`` for the node's refined coloring.

        Emits the chain of every prefix not yet derived, from the deepest
        derived one down - the root's axiom, then per level an
        individualization, the splitting rounds, and the equitability step -
        and memoizes the result.
        """
        refined = self._refined
        k = len(nu)
        while k >= 0 and nu[:k] not in refined:
            k -= 1
        if k < 0:
            self.emit(ColoringAxiom(), RFiner((), self.pi0))
            refined[()] = self._equitable_chain((), self.pi0, self.pi0.cells)
            k = 0
        pi = refined[nu[:k]]
        for j in range(k, len(nu)):
            parent, child, v = nu[:j], nu[: j + 1], nu[j]
            ind = individualize(pi, v)
            self.emit(Individualize(parent, v, pi), RFiner(child, ind))
            pi = self._equitable_chain(child, ind, [(v,)])
            refined[child] = pi
        return pi

    def _equitable_chain(self, nu: Node, start: Coloring, alpha) -> Coloring:
        def on_split(before: Coloring, w: tuple[int, ...], after: Coloring) -> None:
            # The checker re-derives this round as a split against the first
            # effective cell; that must be exactly the round the refiner ran.
            if split(self.g, before, before.cells.index(w)) != after:
                raise EmitError("refinement round disagrees with its replay")
            self.emit(SplitColoring(nu, before), RFiner(nu, after))

        final = make_equitable(self.g, start, alpha, on_split)
        self.emit(Equitable(nu, final), REqual(nu, final))
        return final

    def node_hash(self, nu: Node) -> int:
        h = self._hashes.get(nu)
        if h is None:
            h = hash_colored(self.g, self.ensure_node(nu), equitable=True)
            self._hashes[nu] = h
        return h

    def ensure_target(self, nu: Node) -> tuple[int, ...]:
        """Derive ``TargetIs(nu, cell)`` for the first non-singleton cell."""
        cell = self._targets.get(nu)
        if cell is None:
            pi = self.ensure_node(nu)
            cell = target_cell(pi)
            if cell is None:
                raise EmitError("target cell requested at a leaf")
            self.emit(TargetCell(nu, pi), TargetIs(nu, cell))
            self._targets[nu] = cell
        return cell

    # -- invariant ladders ---------------------------------------------------

    def ensure_phi(self, nu1: Node, nu2: Node) -> None:
        """Derive ``PhiEqual(nu1, nu2)`` level by level along both prefixes,
        from the deepest level already equal."""
        if len(nu1) != len(nu2):
            raise EmitError("invariant ladder needs equal-length nodes")
        k = len(nu1)
        while nu1[:k] != nu2[:k] and not self.have(PhiEqual(nu1[:k], nu2[:k])):
            k -= 1
        if nu1[:k] == nu2[:k]:
            self.emit(InvariantAxiom(nu1[:k]), PhiEqual(nu1[:k], nu1[:k]))
        for j in range(k + 1, len(nu1) + 1):
            a, b = nu1[:j], nu2[:j]
            pi1 = self.ensure_node(a)
            pi2 = self.ensure_node(b)
            if self.node_hash(a) != self.node_hash(b):
                raise EmitError("invariant ladder over unequal hashes")
            self.emit(InvariantsEqual(a, pi1, b, pi2), PhiEqual(a, b))

    def ensure_phi_sym(self, nu1: Node, nu2: Node) -> None:
        """Derive ``PhiEqual(nu2, nu1)``, mirroring the forward fact.

        Prunes along a path typically record invariant equalities with the
        best node first; when the roles flip (the old best gets pruned), one
        symmetry rule reuses the whole existing ladder.
        """
        if self.have(PhiEqual(nu2, nu1)):
            return
        self.ensure_phi(nu1, nu2)
        self.emit(InvariantsEqualSym(nu1, nu2), PhiEqual(nu2, nu1))

    # -- prunes ----------------------------------------------------------------

    def prune_invariant(self, winner: Node, loser: Node) -> None:
        """``winner`` out-hashes ``loser`` at the same depth: prune the loser."""
        self.ensure_phi(winner[:-1], loser[:-1])
        pi1 = self.ensure_node(winner)
        pi2 = self.ensure_node(loser)
        if not self.node_hash(winner) > self.node_hash(loser):
            raise EmitError("invariant prune without a dominating hash")
        self.emit(PruneInvariant(winner, pi1, loser, pi2), Pruned(loser))

    def prune_leaf(self, winner: Node, loser: Node) -> None:
        """Equal invariant vectors, but ``winner``'s side wins outright."""
        pi1 = self.ensure_node(winner)
        pi2 = self.ensure_node(loser)
        if not pi2.discrete:
            raise EmitError("leaf prune of a non-leaf")
        if pi1.discrete:
            g1 = relabel_graph(self.g, pi1.perm())
            g2 = relabel_graph(self.g, pi2.perm())
            if graph_compare(g1, g2) <= 0:
                raise EmitError("leaf prune without a dominating graph")
        self.emit(PruneLeaf(winner, pi1, loser, pi2), Pruned(loser))

    def prune_parent(self, node: Node) -> None:
        """Every child of ``node`` is pruned: prune the node."""
        self.emit(PruneParent(node, self.ensure_target(node)), Pruned(node))

    # -- the shared finale -----------------------------------------------------

    def finale(self, leaf: Node) -> None:
        """Derive the path facts down to the leaf and the canonical form."""
        self.emit(PathAxiom(), OnPath(()))
        for j, v in enumerate(leaf):
            prefix = leaf[:j]
            cell = self.ensure_target(prefix)
            self.emit(ExtendPath(prefix, cell, v), OnPath(leaf[: j + 1]))
        pi = self.ensure_node(leaf)
        if not pi.discrete:
            raise EmitError("canonical path does not end at a leaf")
        sigma = pi.perm()
        self.emit(
            CanonicalLeaf(leaf, pi),
            Canonical(relabel_graph(self.g, sigma), act_coloring(self.pi0, sigma)),
        )


# ---------------------------------------------------------------------------
# During-search emission: translate the trace event by event
# ---------------------------------------------------------------------------


class _DuringTranslator(_Emitter):
    def handle(self, ev: TraceEvent) -> None:
        if isinstance(ev, OrbitMergeEv):
            self._merge(ev)
        elif isinstance(ev, ChildOrbitPrunedEv):
            omega = tuple(sorted(ev.omega))
            self.emit(
                PruneOrbits(omega, ev.parent, ev.w1, ev.w), Pruned(ev.parent + (ev.w,))
            )
        elif isinstance(ev, ChildInvariantPrunedEv):
            self.prune_invariant(ev.best_child, ev.parent + (ev.w,))
        elif isinstance(ev, DethroneInvariantEv):
            k = len(ev.parent)
            self.ensure_phi_sym(ev.old_best[:k], ev.parent)
            self.prune_invariant(ev.parent + (ev.w,), ev.old_best[: k + 1])
            self._prune_parent_chain(ev.old_best, k, ev.diverge)
        elif isinstance(ev, DethroneLeafEv):
            self.ensure_phi_sym(ev.old_best, ev.node)
            self.prune_leaf(ev.node, ev.old_best)
            self._prune_parent_chain(ev.old_best, len(ev.old_best) - 1, ev.diverge)
        elif isinstance(ev, LeafWorseEv):
            self.ensure_phi(ev.best_node, ev.node)
            self.prune_leaf(ev.best_node, ev.node)
        elif isinstance(ev, ParentDoneEv):
            self.prune_parent(ev.node)
        else:  # pragma: no cover - the trace event union is closed
            raise EmitError(f"unknown trace event {type(ev).__name__}")

    def _merge(self, ev: OrbitMergeEv) -> None:
        """Emit one orbit-class merge; both class facts must already exist
        (singletons are derived on the spot)."""
        nu, sigma = ev.node, ev.sigma
        o1 = tuple(sorted(ev.class1))
        o2 = tuple(sorted(ev.class2))
        for omega in (o1, o2):
            if len(omega) == 1:
                self.emit(OrbitsAxiom(omega[0], nu), OrbitSubset(nu, omega))
        if any(sigma[x] != x for x in nu) or sigma[ev.w1] != ev.w2:
            raise EmitError("orbit merge with an unusable automorphism")
        self.emit(
            MergeOrbits(o1, o2, nu, sigma, ev.w1, ev.w2),
            OrbitSubset(nu, tuple(sorted(ev.class1 | ev.class2))),
        )

    def _prune_parent_chain(self, old_best: Node, start: int, stop: int) -> None:
        """After a dethroning, fold the superseded path upward: each ancestor
        of the old best below the divergence point is now fully pruned."""
        for j in range(start, stop, -1):
            self.prune_parent(old_best[:j])


def emit_during(g: Graph, pi0: Coloring | None = None) -> EmittedProof:
    """Solve ``(G, pi0)`` and emit the proof in search order.

    A benchmark probe and a test fixture only; ``emit_post`` is the emitter.
    """
    if pi0 is None:
        pi0 = unit_coloring(g.n)
    search = _Search(g, pi0, True)
    result = search.run()
    em = _DuringTranslator(g, pi0)
    assert search.trace is not None
    for ev in search.trace:
        em.handle(ev)
    em.finale(result.leaf)
    _check_consistent(em, result)
    return EmittedProof(encode_proof(g.n, em.rules), result, len(em.rules))


# ---------------------------------------------------------------------------
# Post-search emission: rebuild a minimal certificate from the result
# ---------------------------------------------------------------------------


class _PostEmitter(_Emitter):
    def __init__(self, g: Graph, pi0: Coloring, result: CanonicalResult):
        super().__init__(g, pi0)
        self.result = result
        self.path = result.leaf
        self.phi = result.phi
        # The distinct non-identity generators and their inverses, in order.
        moves: dict[tuple[int, ...], None] = {}
        for gen in result.generators:
            moves.update(dict.fromkeys((gen, invert(gen))))
        moves.pop(identity_perm(g.n), None)
        self._moves = list(moves)

    def run(self) -> None:
        path = self.path
        for d in range(len(path) + 1):
            self.ensure_node(path[:d])
        for d in range(len(path)):
            node = path[:d]
            cell = self.ensure_target(node)
            if path[d] not in cell:
                raise EmitError("canonical path leaves its target cell")
            edges = self._node_edges(node)
            for w in cell:
                if w != path[d]:
                    self._prune_child(node, w, edges)
        self.finale(path)

    # -- branch disposal, cheapest justification first ----------------------

    def _prune_child(self, x: Node, w: int, edges: _EdgeMap) -> None:
        """Derive ``Pruned(x + (w,))`` for an off-path child.

        A child that ties the canonical invariant is opened, and its own
        children are disposed of first. The work sits on an explicit stack: a
        child still to dispose of is ``(parent, w, edges)``, and an opened
        node waiting for its ``PruneParent`` is ``(node,)``.
        """
        work: list[tuple[Node, int, _EdgeMap] | tuple[Node]] = [(x, w, edges)]
        while work:
            item = work.pop()
            if len(item) == 1:
                self.prune_parent(item[0])
                continue
            y = self._cut_child(*item)
            if y is not None:
                cell = self.ensure_target(y)
                y_edges = self._node_edges(y)
                work.append((y,))
                work.extend((y, v, y_edges) for v in reversed(cell))

    def _cut_child(self, x: Node, w: int, edges: _EdgeMap) -> Node | None:
        """Prune ``x + (w,)`` by the cheapest rule that applies. Returns the
        child instead when it ties the canonical invariant and is not a leaf:
        it is pruned through its children, with ``PhiEqual`` already derived
        along its path."""
        child = x + (w,)
        if self._orbit_prune(x, w, edges):
            return None
        depth = len(x)
        pi_child = self.ensure_node(child)
        h = self.node_hash(child)
        if h > self.phi[depth]:
            raise SearchError(
                "off-path branch dominates the canonical invariant "
                "(64-bit hash collision)"
            )
        on_child = self.path[: depth + 1]
        if h < self.phi[depth]:
            self.prune_invariant(on_child, child)
            return None
        self.ensure_phi(on_child, child)
        if not pi_child.discrete:
            if depth + 1 == len(self.path):
                raise SearchError(
                    "off-path branch outlives the canonical leaf "
                    "(64-bit hash collision)"
                )
            return child
        if depth + 1 == len(self.path):
            self._kill_full_leaf(child, pi_child)
            return None
        # A leaf strictly above the canonical depth: its invariant vector is
        # a proper prefix, so the on-path node beats it.
        if self.ensure_node(on_child).discrete:
            raise SearchError(
                "canonical path is discrete above its leaf (64-bit hash collision)"
            )
        self.prune_leaf(on_child, child)
        return None

    def _kill_full_leaf(self, y: Node, pi_y: Coloring) -> None:
        path = self.path
        pi_star = self.ensure_node(path)
        g_y = relabel_graph(self.g, pi_y.perm())
        cmp = graph_compare(g_y, self.result.graph)
        if cmp > 0:
            raise SearchError(
                "off-path leaf beats the canonical graph (64-bit hash collision)"
            )
        if cmp < 0:
            self.prune_leaf(path, y)
            return
        # Equal graphs: the relabelling that carries one leaf onto the other
        # is an automorphism mapping the canonical path below this one.
        sigma = compose(pi_star.perm(), invert(pi_y.perm()))
        if (
            any(sigma[a] != b for a, b in zip(path, y))
            or not path < y
            or not is_automorphism(self.g, self.pi0, sigma)
        ):
            raise SearchError(
                "equal leaves with incompatible structure (64-bit hash collision)"
            )
        self.emit(PruneAutomorphism(path, y, sigma), Pruned(y))

    # -- automorphism and orbit machinery ------------------------------------

    def _node_edges(self, node: Node) -> _EdgeMap:
        """Automorphism moves available at a node: for every generator that
        fixes the node pointwise, an edge ``v -> sigma[v]`` with its witness."""
        edges: _EdgeMap = {}
        for sigma in self._moves:
            if all(sigma[v] == v for v in node):
                for v, image in enumerate(sigma):
                    if image != v:
                        edges.setdefault(v, []).append((image, sigma))
        return edges

    def _orbit_prune(self, x: Node, w: int, edges: _EdgeMap) -> bool:
        """Prune a child with the automorphism composed along the shortest
        chain of generator moves that fix ``x`` and carry ``w`` to a smaller
        vertex: one premise-free rule, whatever the chain's length."""
        prev: dict[int, tuple[int, tuple[int, ...]]] = {w: (w, ())}
        frontier = [w]
        goal = -1
        while frontier and goal < 0:
            next_frontier = []
            for a in frontier:
                for b, sigma in edges.get(a, ()):
                    if b in prev:
                        continue
                    prev[b] = (a, sigma)
                    if b < w:
                        goal = b
                        break
                    next_frontier.append(b)
                if goal >= 0:
                    break
            frontier = next_frontier
        if goal < 0:
            return False
        # Walk the chain back from the goal: tau = sigma_1 ... sigma_k maps w
        # to goal, so its inverse maps x + (goal,) onto x + (w,).
        tau_inv = identity_perm(self.g.n)
        v = goal
        while v != w:
            v, sigma = prev[v]
            tau_inv = compose(tau_inv, invert(sigma))
        self.emit(PruneAutomorphism(x + (goal,), x + (w,), tau_inv), Pruned(x + (w,)))
        return True


def emit_post(g: Graph, pi0: Coloring | None = None) -> EmittedProof:
    """Solve ``(G, pi0)`` and emit a compact proof reconstructed afterwards."""
    if pi0 is None:
        pi0 = unit_coloring(g.n)
    result = canonical_form(g, pi0)
    em = _PostEmitter(g, pi0, result)
    em.run()
    _check_consistent(em, result)
    return EmittedProof(encode_proof(g.n, em.rules), result, len(em.rules))


def _check_consistent(em: _Emitter, result: CanonicalResult) -> None:
    """The emitted canonical leaf must reproduce the solver's answer."""
    pi = em._refined.get(result.leaf)
    if pi is None or relabel_graph(em.g, pi.perm()) != result.graph:
        raise EmitError("emitted proof does not reproduce the solver result")
