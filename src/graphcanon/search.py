"""Canonical labelling by individualization-refinement search.

The search tree's nodes are sequences of individualized vertices; each node
carries the refined coloring of its sequence. Children extend a node by the
vertices of the first non-singleton cell, in ascending order. Among all
leaves (nodes with discrete refinements) the canonical leaf maximizes the
invariant vector, with ties broken towards the greater relabelled graph; the
canonical form of ``(G, pi0)`` is that leaf's relabelled graph and coloring.

The engine prunes with four devices:

* invariant comparison against the best leaf found so far (children whose
  hash falls below the best vector are cut; children above it dethrone it);
* discovered automorphisms: one found at two equally-good leaves fixes
  their common prefix pointwise (McKay & Piperno's stored-generator
  pruning); the search stores it and pops back to the deepest node of that
  prefix. A child ``w`` of a node is cut when the stored generators that fix
  the node carry ``w`` below itself (:func:`orbit_descent`), so it lies in
  the orbit of an earlier, explored sibling. Each node scans the generators
  stored since its last scan before each child after its first; the first,
  its cell's minimum, is never orbit-pruned;
* automorphism probes: a child whose cell sizes match the best path's node
  at its depth is first followed down the first vertex of each target cell
  without hashing; if that leaf is automorphic to the best leaf by a map
  carrying the best path onto the descent, the map relabels each best-path
  node onto the descent's node at its depth, so their hashes tie and the
  descent is settled as the eager search would settle it, with no hash
  computed; otherwise the probe changes nothing and the child is hashed;
* equal invariants with a worse relabelled graph at leaf level.

The tree is walked depth first with an explicit stack holding one frame per
internal node of the current path, so tree depth is not bounded by Python's
recursion limit. The best path so far is one record, :class:`_Best`, which
is complete exactly when it holds its leaf's relabelled graph.

The search only decides; it writes no proof. The emitters justify its result
afterwards from the canonical path, the invariant vector and the generators.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

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
from .refine import individualize, make_equitable, target_cell

Perm = tuple[int, ...]


class SearchError(RuntimeError):
    """Internal inconsistency (in practice: a 64-bit hash collision)."""


class CanonicalResult(NamedTuple):
    """Everything the solver learned about ``(G, pi0)``."""

    graph: Graph
    coloring: Coloring
    labelling: tuple[int, ...]
    leaf: tuple[int, ...]
    phi: tuple[int, ...]
    generators: list[tuple[int, ...]]
    visited: int


def _common_prefix(a: Sequence[int], b: Sequence[int]) -> int:
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def _sizes(pi: Coloring) -> tuple[int, ...]:
    return tuple(map(len, pi.cells))


def orbit_descent(moves: Sequence[Perm], w: int) -> list[tuple[int, Perm, int]]:
    """The shortest chain of steps ``(a, sigma, b)``, ``sigma[a] == b``, over
    ``moves`` that starts at ``w`` and ends at a vertex below ``w``; empty
    when ``w`` is the least vertex of its orbit under ``moves``.

    A breadth-first search, scanning ``moves`` in order at each vertex, so
    the chain is deterministic. Forward steps reach the whole orbit of a
    finite permutation group, so ``moves`` need not hold inverses.
    """
    prev: dict[int, tuple[int, Perm]] = {w: (w, ())}
    frontier = [w]
    while frontier:
        next_frontier = []
        for a in frontier:
            for sigma in moves:
                b = sigma[a]
                if b in prev:
                    continue
                prev[b] = (a, sigma)
                if b < w:
                    steps = []
                    while b != w:
                        a, sigma = prev[b]
                        steps.append((a, sigma, b))
                        b = a
                    return steps[::-1]
                next_frontier.append(b)
        frontier = next_frontier
    return []


class _Best:
    """The best path so far: its invariant vector ``phi`` with the cell
    sizes of the same nodes beside it, and once it is complete (``graph``
    is not None) its leaf's ``path``, coloring and relabelled graph. A leaf
    that dethrones the best one ties ``phi``, so its nodes have the same
    cell sizes, which the hash feeds, unless the hash collides; then
    ``sizes`` is stale, which only makes probes fail."""

    __slots__ = ("phi", "sizes", "path", "coloring", "graph")

    def __init__(self) -> None:
        self.phi: list[int] = []
        self.sizes: list[tuple[int, ...]] = []
        self.path: tuple[int, ...] = ()
        self.coloring: Coloring | None = None
        self.graph: Graph | None = None


class _Frame:
    """An internal node on the current search path, with its target cell,
    the index of its next child, and ``moves``, the stored generators that
    fix ``nu`` pointwise among the first ``known``: :meth:`scan` adds the
    later ones and returns ``moves``."""

    __slots__ = ("nu", "pi", "cell", "next", "moves", "known")

    def __init__(self, nu: tuple[int, ...], pi: Coloring, cell: tuple[int, ...]):
        self.nu = nu
        self.pi = pi
        self.cell = cell
        self.next = 0
        self.moves: list[Perm] = []
        self.known = 0

    def scan(self, generators: list[Perm]) -> list[Perm]:
        for sigma in generators[self.known :]:
            if all(sigma[v] == v for v in self.nu):
                self.moves.append(sigma)
        self.known = len(generators)
        return self.moves


class _Search:
    def __init__(self, g: Graph, pi0: Coloring):
        if pi0.n != g.n:
            raise ValueError("coloring size does not match graph order")
        self.g = g
        self.pi0 = pi0
        self.best = _Best()
        self.generators: list[tuple[int, ...]] = []
        self.visited = 0
        self._frames: list[_Frame] = []

    def run(self) -> CanonicalResult:
        self._enter((), make_equitable(self.g, self.pi0, self.pi0.cells))
        self._explore()
        best = self.best
        assert best.coloring is not None and best.graph is not None
        labelling = best.coloring.perm()
        return CanonicalResult(
            graph=best.graph,
            coloring=act_coloring(self.pi0, labelling),
            labelling=labelling,
            leaf=best.path,
            phi=tuple(best.phi),
            generators=self.generators,
            visited=self.visited,
        )

    def _store_automorphism(self, nu: tuple[int, ...], pi: Coloring) -> int | None:
        """Store ``sigma = perm(best) o perm(pi)^-1`` and return the depth
        ``d`` to backjump to; None, storing nothing, unless ``sigma``
        carries the best path onto the leaf ``nu``.

        The caller has found the leaves' relabelled graphs equal, so
        ``G^sigma == G``, and ``sigma`` fixes ``pi0``'s cells, since
        refinement splits every cell in place and each cell of ``pi0``
        keeps one interval of leaf colors. ``sigma`` fixes ``nu[:d]``
        pointwise and carries the best path's child there, an earlier
        sibling, onto ``nu[d]``: the branch is orbit-pruned at ``nu[:d]``.
        """
        best = self.best
        assert best.coloring is not None
        sigma = compose(best.coloring.perm(), invert(pi.perm()))
        if any(sigma[b] != c for b, c in zip(best.path, nu)):
            return None
        self.generators.append(sigma)
        return _common_prefix(best.path, nu)

    def _enter(self, nu: tuple[int, ...], pi: Coloring) -> int | None:
        """Visit the node ``nu`` (refined coloring ``pi``): settle a leaf, or
        push a frame for the node's children.

        Returns the depth of a backjump target, or None: on a backjump, every
        frame deeper than the target is abandoned wholesale.
        """
        self.visited += 1
        g = self.g
        best = self.best
        depth = len(nu)
        discrete = pi.discrete

        if best.graph is not None and depth == len(best.phi):
            if discrete:
                graph = relabel_graph(g, pi.perm())
                cmp = graph_compare(graph, best.graph)
                if cmp == 0:
                    d = self._store_automorphism(nu, pi)
                    if d is None:
                        raise SearchError(
                            "equal invariants with incompatible leaf structure "
                            "(64-bit hash collision)"
                        )
                    return d
                if cmp > 0:
                    best.path, best.coloring, best.graph = nu, pi, graph
                return None
            # A non-discrete node tying a complete leaf invariant: only
            # possible under a hash collision, but the proof system covers
            # it, so dethrone and keep searching below this node.
            best.coloring = best.graph = None
        elif discrete:
            # A leaf above a complete best leaf's depth loses: its shorter
            # invariant vector is a proper prefix.
            if best.graph is None:
                best.coloring = pi
                best.graph = relabel_graph(g, pi.perm())
            return None

        cell = target_cell(pi)
        assert cell is not None
        self._frames.append(_Frame(nu, pi, cell))
        return None

    def _probe(self, nu: tuple[int, ...], pi: Coloring) -> int | None:
        """Descend from the node ``nu`` (refined coloring ``pi``) by the first
        vertex of each target cell, without hashing, and settle the descent
        if its leaf is automorphic to the best leaf.

        That holds when the leaf has the best leaf's depth and relabelled
        graph and ``sigma`` of :meth:`_store_automorphism` carries the best
        path onto the descent. Then ``sigma`` is in Aut(G, pi0) and maps
        each best-path node onto the descent's node at its depth, so every
        node of the descent ties ``phi``. The eager search, whose fresh
        frames never orbit-prune a cell's first vertex, visits exactly these
        nodes and finds ``sigma`` at their leaf: the probe counts them,
        records ``sigma`` and returns the depth to backjump to. Otherwise it
        returns None and leaves every state of the search as it was.
        """
        g = self.g
        best = self.best
        leaf_depth = len(best.phi)
        visits = leaf_depth - len(nu) + 1
        while not pi.discrete and len(nu) < leaf_depth:
            cell = target_cell(pi)
            assert cell is not None
            w = cell[0]
            pi = make_equitable(g, individualize(pi, w), [(w,)])
            if _sizes(pi) != best.sizes[len(nu)]:
                return None
            nu += (w,)
        if not pi.discrete or len(nu) < leaf_depth:
            return None
        if relabel_graph(g, pi.perm()) != best.graph:
            return None
        d = self._store_automorphism(nu, pi)
        if d is not None:
            self.visited += visits
        return d

    def _explore(self) -> None:
        """Run the depth-first search over the frames on the stack."""
        g = self.g
        best = self.best
        frames = self._frames
        while frames:
            top = frames[-1]
            nu = top.nu
            depth = len(nu)
            if top.next == len(top.cell):
                frames.pop()
                continue
            w = top.cell[top.next]
            top.next += 1
            if top.next > 1 and orbit_descent(top.scan(self.generators), w):
                continue
            child_nu = nu + (w,)
            child_pi = make_equitable(g, individualize(top.pi, w), [(w,)])
            sizes = _sizes(child_pi)
            if best.graph is not None and sizes == best.sizes[depth]:
                d = self._probe(child_nu, child_pi)
                if d is not None:
                    del frames[d + 1 :]
                    continue
            h = hash_colored(g, child_pi)
            if best.graph is not None:
                ref = best.phi[depth]
                if h < ref:
                    continue
                if h > ref:
                    best.coloring = best.graph = None
            if best.graph is None:
                # A fresh best path: nothing below it can backjump above it.
                del best.phi[depth:], best.sizes[depth:]
                best.phi.append(h)
                best.sizes.append(sizes)
                best.path = child_nu
            d = self._enter(child_nu, child_pi)
            if d is not None:
                del frames[d + 1 :]


def canonical_form(g: Graph, pi0: Coloring | None = None) -> CanonicalResult:
    """Compute the canonical form of the colored graph ``(G, pi0)``.

    ``pi0`` defaults to the unit coloring.
    """
    if pi0 is None:
        pi0 = unit_coloring(g.n)
    return _Search(g, pi0).run()
