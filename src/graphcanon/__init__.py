"""Certified graph canonical labelling.

Compute canonical forms of colored graphs by individualization-refinement
search, emit a binary proof of the result with ``emit_post``, and verify it
with an independent checker that recomputes every step.
"""

from .checker import (
    CheckFailure,
    FlatSetDatabase,
    Verdict,
    apply_rule,
    verify_proof,
)
from .core import (
    Coloring,
    DimacsError,
    Graph,
    act_coloring,
    compose,
    format_dimacs,
    graph_compare,
    identity_perm,
    invert,
    is_automorphism,
    parse_dimacs,
    relabel_graph,
    unit_coloring,
)
from .emitter import EmitError, EmittedProof, Prover, emit_post
from .invariant import hash_colored
from .proof import (
    ProofDecodeError,
    ProofEncodeError,
    ProofError,
    decode_proof,
    encode_proof,
)
from .refine import individualize, make_equitable, split, target_cell
from .search import CanonicalResult, SearchError, canonical_form

__version__ = "0.1.0"

__all__ = [
    "CanonicalResult",
    "CheckFailure",
    "Coloring",
    "DimacsError",
    "EmitError",
    "EmittedProof",
    "FlatSetDatabase",
    "Graph",
    "ProofDecodeError",
    "ProofEncodeError",
    "ProofError",
    "Prover",
    "SearchError",
    "Verdict",
    "act_coloring",
    "apply_rule",
    "canonical_form",
    "compose",
    "decode_proof",
    "emit_post",
    "encode_proof",
    "format_dimacs",
    "graph_compare",
    "hash_colored",
    "identity_perm",
    "individualize",
    "invert",
    "is_automorphism",
    "make_equitable",
    "parse_dimacs",
    "relabel_graph",
    "split",
    "target_cell",
    "unit_coloring",
    "verify_proof",
]
