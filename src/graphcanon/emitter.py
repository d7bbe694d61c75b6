"""Proof emission: turning a canonical-labelling run into a checkable stream.

:class:`Prover` is the proof emitter, in two steps. Building it derives the
root's refinement chain and searches ``(G, R)`` from the equitable root ``R``
it ends at, as it searches each opened node from the coloring derived there,
so the root is refined once and ``Prover.result`` is known before any proof
is written; a caller that needs only the answer stops there.
``Prover.finish()`` then reconstructs a certificate from the search's outputs
(canonical path, invariant vector, automorphism generators) in one walk down
the checked canonical path: per depth, the target cell, a prune of each
off-path sibling by the cheapest rule - one automorphism composed along the
shortest chain of stabilizer moves that maps it below an earlier sibling, an
invariant comparison, or (last resort) its children and a ``PruneParent`` -
then that level's ``ExtendPath``.
On the canonical path the moves are the search's generators that fix the
node; in a branch opened off it they are the generators a search of the
node's refined coloring ``pi_x`` finds. Refinement is label-invariant and
splits cells in place, so ``(G, R)`` has the tree of ``(G, pi0)``,
``Aut(G, pi_x)`` is the node's whole pointwise stabilizer, and every child
outside its stabilizer orbit's minimum is pruned by one rule whatever the
input's labelling. ``emit_post(g, pi0)`` is ``Prover(g, pi0).finish()``.

``emit_during`` is the same walk, but it writes each orbit prune as the chain
itself: one ``OrbitsAxiom`` and one ``MergeOrbits`` per step, then
``PruneOrbits``. Such a prune costs more bytes than one
``PruneAutomorphism``, so its proofs are never smaller than ``emit_post``'s.
It is not part of the package's public API: it stays as a per-layer benchmark
probe and as the one writer of the orbit rules that the checker's tests
mutate.

The emitter tracks every fact it has derived and refuses to emit a rule
whose premises are not yet on the stream (:class:`EmitError`). A kept rule's
integers go straight into one integer array, so no rule object, and with it
no round's coloring, outlives its write; ``finish`` encodes that array. A rule's
premises are read from :func:`graphcanon.checker.premises`, the checker's own
table, so no call site states them. Side conditions the checker will
recompute are asserted here first or hold by construction, so a hash collision
or an internal inconsistency surfaces at emission time, not as a rejection.
"""

from __future__ import annotations

from array import array
from functools import reduce
from typing import NamedTuple

from .checker import premises
from .core import (
    Coloring,
    Graph,
    act_coloring,
    compose,
    graph_compare,
    invert,
    relabel_graph,
    unit_coloring,
)
from .invariant import hash_colored
from .proof import (
    FACT_KINDS,
    CanonicalLeaf,
    ColoringAxiom,
    Equitable,
    ExtendPath,
    Fact,
    Individualize,
    InvariantAxiom,
    InvariantsEqual,
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
    encode_ints,
    rule_ints,
)
from .refine import individualize, make_equitable, target_cell
from .search import CanonicalResult, SearchError, canonical_form, orbit_descent

Node = tuple[int, ...]
Perm = tuple[int, ...]


class EmitError(RuntimeError):
    """An emitter tried to write a rule it cannot justify."""


class EmittedProof(NamedTuple):
    """A binary proof stream, the encoder's ``bytearray`` (equal to ``bytes``
    but not hashable), together with the solver result it certifies."""

    data: bytearray
    result: CanonicalResult
    rule_count: int


def _with_inverses(perms: list[Perm]) -> list[Perm]:
    """The distinct permutations and their inverses, in order."""
    return list(dict.fromkeys(m for p in perms for m in (p, invert(p))))


class Prover:
    """Searches ``(G, pi0)`` from the root it derives first, so ``result`` is
    known once it is built; ``finish`` rebuilds a certificate from that
    search - canonical path, ``phi`` and generators - and encodes it."""

    def __init__(self, g: Graph, pi0: Coloring | None = None):
        if pi0 is None:
            pi0 = unit_coloring(g.n)
        self.g = g
        self.pi0 = pi0
        # The proof so far as integers (n, then each kept rule's), and its rule count.
        self.stream = array("H" if g.n >> 16 == 0 else "I", [g.n])
        self.rule_count = 0
        self._have: set[Fact] = set()
        self._refined: dict[Node, Coloring] = {}
        self._hashes: dict[Node, int] = {}
        self._node_moves: dict[Node, list[Perm]] = {}
        if pi0.n != g.n:
            raise ValueError("coloring size does not match graph order")
        result = canonical_form(g, self.ensure_node(()))
        self.result = result._replace(coloring=act_coloring(pi0, result.labelling))
        self.path = result.leaf
        self.phi = result.phi
        self._moves = _with_inverses(result.generators)

    # -- fact bookkeeping --------------------------------------------------

    def emit(self, rule: Rule, conclusion: Fact | None) -> None:
        """Append a rule after verifying its premises are already derived.

        A rule whose conclusion is already on the stream is dropped: the
        checker's fact database makes re-derivations pointless. A ``None``
        conclusion, one that no rule takes as a premise, is not recorded.
        """
        if conclusion in self._have:
            return
        for fact in premises(rule):
            if fact not in self._have:
                raise EmitError(
                    f"{type(rule).__name__} needs underived premise "
                    f"{FACT_KINDS[fact[0]]}"
                )
        self.stream.fromlist(rule_ints(rule, self.g.n))
        self.rule_count += 1
        if conclusion is not None:
            self._have.add(conclusion)

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
            self.emit(SplitColoring(nu, before), RFiner(nu, after))

        final = make_equitable(self.g, start, alpha, on_split)
        self.emit(Equitable(nu, final), REqual(nu, final))
        return final

    def node_hash(self, nu: Node) -> int:
        h = self._hashes.get(nu)
        if h is None:
            h = hash_colored(self.g, self.ensure_node(nu))
            self._hashes[nu] = h
        return h

    def ensure_target(self, nu: Node) -> tuple[int, ...]:
        """Derive ``TargetIs(nu, cell)`` for the first non-singleton cell."""
        pi = self.ensure_node(nu)
        cell = target_cell(pi)
        if cell is None:
            raise EmitError("target cell requested at a leaf")
        self.emit(TargetCell(nu, pi), TargetIs(nu, cell))
        return cell

    # -- invariant ladders ---------------------------------------------------

    def ensure_phi(self, nu1: Node, nu2: Node) -> None:
        """Derive ``PhiEqual(nu1, nu2)`` level by level along both prefixes,
        from the deepest level already equal."""
        if len(nu1) != len(nu2):
            raise EmitError("invariant ladder needs equal-length nodes")
        k = len(nu1)
        while nu1[:k] != nu2[:k] and PhiEqual(nu1[:k], nu2[:k]) not in self._have:
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

    # -- prunes ----------------------------------------------------------------

    def prune_invariant(self, winner: Node, loser: Node) -> None:
        """``winner`` out-hashes ``loser`` at the same depth: prune the loser."""
        self.ensure_phi(winner[:-1], loser[:-1])
        pi1 = self.ensure_node(winner)
        pi2 = self.ensure_node(loser)
        if not self.node_hash(winner) > self.node_hash(loser):
            raise EmitError("invariant prune without a dominating hash")
        self.emit(PruneInvariant(winner, pi1, loser, pi2), Pruned(loser))

    # -- the walk ---------------------------------------------------------------

    def finish(self) -> EmittedProof:
        """Check that the solver's leaf is discrete and gives ``result.graph``,
        then walk down the path once: per depth, prune the target cell's
        off-path children, then extend the path. Returns the encoded proof."""
        path = self.path
        pi = self.ensure_node(path)
        if not pi.discrete:
            raise EmitError("canonical path does not end at a leaf")
        if relabel_graph(self.g, pi.perm()) != self.result.graph:
            raise EmitError("emitted proof does not reproduce the solver result")
        self.emit(PathAxiom(), OnPath(()))
        for d, v in enumerate(path):
            node = path[:d]
            cell = self.ensure_target(node)
            if v not in cell:
                raise EmitError("canonical path leaves its target cell")
            for w in cell:
                if w != v:
                    self._prune_child(node, w)
            self.emit(ExtendPath(node, cell, v), OnPath(path[: d + 1]))
        self.emit(CanonicalLeaf(path, pi), None)  # concludes Canonical
        return EmittedProof(encode_ints(self.stream), self.result, self.rule_count)

    # -- branch disposal, cheapest justification first ----------------------

    def _prune_child(self, x: Node, w: int) -> None:
        """Derive ``Pruned(x + (w,))`` for an off-path child.

        A child that ties the canonical invariant is opened, and its own
        children are disposed of first. The work sits on an explicit stack: a
        child still to dispose of is ``(parent, w)``, and an opened node
        waits as its own ``PruneParent``, built from the cell it was opened
        with.
        """
        work: list[tuple[Node, int] | PruneParent] = [(x, w)]
        while work:
            item = work.pop()
            if isinstance(item, PruneParent):
                self.emit(item, Pruned(item.nu))
                continue
            y = self._cut_child(*item)
            if y is not None:
                cell = self.ensure_target(y)
                work.append(PruneParent(y, cell))
                work.extend((y, v) for v in reversed(cell))

    def _cut_child(self, x: Node, w: int) -> Node | None:
        """Prune ``x + (w,)`` by the cheapest rule that applies. Returns the
        child instead when it ties the canonical invariant and is not a leaf:
        it is pruned through its children, with ``PhiEqual`` already derived
        along its path."""
        child = x + (w,)
        steps = orbit_descent(self._stabilizer_moves(x), w)
        if steps:
            self._orbit_prune(x, steps)
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
        pi_on = self.ensure_node(on_child)
        if pi_on.discrete:
            raise SearchError(
                "canonical path is discrete above its leaf (64-bit hash collision)"
            )
        self.emit(PruneLeaf(on_child, pi_on, child, pi_child), Pruned(child))
        return None

    def _kill_full_leaf(self, y: Node, pi_y: Coloring) -> None:
        path = self.path
        pi_star = self.ensure_node(path)
        cmp = graph_compare(relabel_graph(self.g, pi_y.perm()), self.result.graph)
        if cmp > 0:
            raise SearchError(
                "off-path leaf beats the canonical graph (64-bit hash collision)"
            )
        if cmp < 0:
            self.emit(PruneLeaf(path, pi_star, y, pi_y), Pruned(y))
            return
        # Equal graphs: the relabelling that carries one leaf onto the other
        # is an automorphism mapping the canonical path below this one, as
        # for the search; finish has checked that pi_star gives result.graph.
        sigma = compose(pi_star.perm(), invert(pi_y.perm()))
        if any(sigma[a] != b for a, b in zip(path, y)) or not path < y:
            raise SearchError(
                "equal leaves with incompatible structure (64-bit hash collision)"
            )
        self.emit(PruneAutomorphism(path, y, sigma), Pruned(y))

    # -- automorphism and orbit machinery ------------------------------------

    def _stabilizer_moves(self, x: Node) -> list[Perm]:
        """Moves within ``x``'s pointwise stabilizer: on the canonical path
        the search's generators that fix ``x`` (they give every orbit there),
        off it the generators a search of ``(G, pi_x)`` finds. Refinement is
        label-invariant and splits cells in place, so ``Aut(G, pi_x)`` is
        the whole pointwise stabilizer of ``x`` in ``Aut(G, pi0)``."""
        moves = self._node_moves.get(x)
        if moves is None:
            if x == self.path[: len(x)]:
                moves = [s for s in self._moves if all(s[v] == v for v in x)]
            else:
                gens = canonical_form(self.g, self.ensure_node(x)).generators
                moves = _with_inverses(gens)
            self._node_moves[x] = moves
        return moves

    def _orbit_prune(self, x: Node, steps: list[tuple[int, Perm, int]]) -> None:
        """Prune the child that ``steps`` (a nonempty ``orbit_descent`` chain over
        ``x``'s stabilizer moves) carries below itself, by one premise-free rule:
        the inverse of the chain's moves composed left to right."""
        w, goal = steps[0][0], steps[-1][2]
        tau_inv = invert(reduce(compose, [s for _, s, _ in steps]))  # goal -> w
        self.emit(PruneAutomorphism(x + (goal,), x + (w,), tau_inv), Pruned(x + (w,)))


class _OrbitRuleEmitter(Prover):
    """``emit_post`` with each orbit prune written as orbit rules."""

    def _orbit_prune(self, x: Node, steps: list[tuple[int, Perm, int]]) -> None:
        """Each step merges the singleton class of its target into the
        chain's class, whose two ends prune the child."""
        w = steps[0][0]
        cls: tuple[int, ...] = (w,)
        self.emit(OrbitsAxiom(w, x), OrbitSubset(x, cls))
        for a, sigma, b in steps:
            self.emit(OrbitsAxiom(b, x), OrbitSubset(x, (b,)))
            merged = tuple(sorted((*cls, b)))
            self.emit(MergeOrbits(cls, (b,), x, sigma, a, b), OrbitSubset(x, merged))
            cls = merged
        self.emit(PruneOrbits(cls, x, b, w), Pruned(x + (w,)))


def emit_post(g: Graph, pi0: Coloring | None = None) -> EmittedProof:
    """Solve ``(G, pi0)`` from its equitable root, derived first, and emit a
    compact proof reconstructed afterwards."""
    return Prover(g, pi0).finish()


def emit_during(g: Graph, pi0: Coloring | None = None) -> EmittedProof:
    """Solve ``(G, pi0)`` and emit its proof with orbit rules.

    A benchmark probe and a test fixture only; ``emit_post`` is the emitter.
    """
    return _OrbitRuleEmitter(g, pi0).finish()
