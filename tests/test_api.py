"""Names that code outside the package relies on must keep existing.

``bench/tracing.py`` patches module attributes by name, and ``bench/run.py``
calls some layers directly; a deletion that breaks either fails here.
"""

import importlib
import sys
from pathlib import Path

import graphcanon

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Names the traced benchmark run calls directly, besides those it patches.
BENCH_CALLS = [
    ("graphcanon.checker", "FlatSetDatabase"),
    ("graphcanon.checker", "apply_rule"),
    ("graphcanon.checker", "verify_proof"),
    ("graphcanon.cli", "main"),
    ("graphcanon.cli", "parse_dimacs"),
    ("graphcanon.core", "unit_coloring"),
    ("graphcanon.emitter", "emit_during"),
    ("graphcanon.emitter", "emit_post"),
    ("graphcanon.proof", "Canonical"),
    ("graphcanon.proof", "decode_int"),
    ("graphcanon.proof", "decode_proof"),
    ("graphcanon.proof", "decode_rule"),
    ("graphcanon.proof", "encode_proof"),
    ("graphcanon.proof", "fact_key"),
]


def _missing(pairs):
    return [
        f"{module}.{name}"
        for module, name in pairs
        if not hasattr(importlib.import_module(module), name)
    ]


def test_public_names_resolve():
    assert [n for n in graphcanon.__all__ if not hasattr(graphcanon, n)] == []


def test_traced_names_exist():
    sys.path.insert(0, str(BENCH))
    try:
        tracing = importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))
    assert tracing.WRAPPED
    assert _missing(tracing.WRAPPED) == []


def test_benchmark_calls_exist():
    assert _missing(BENCH_CALLS) == []
