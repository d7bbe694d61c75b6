"""Names that code outside the package relies on must keep existing.

``bench/tracing.py`` patches module attributes by name, and ``bench/run.py``
calls some layers directly; a deletion that breaks either fails here, and so
does a patched name that the package no longer calls.
"""

import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import graphcanon
from graphcanon import cli, format_dimacs, relabel_graph
from oracle_utils import chang, random_perm

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


def _tracing():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_traced_names_exist():
    tracing = _tracing()
    assert tracing.WRAPPED
    assert _missing(tracing.WRAPPED) == []


def test_traced_names_are_called(tmp_path, capsys):
    # A name that is still imported but no longer called would count 0 and
    # read as a layer that costs nothing: one certified iso run on two
    # labellings of a Chang graph reaches every wrapped call site.
    tracing = _tracing()
    g = chang(1)
    h = relabel_graph(g, random_perm(random.Random(5), g.n))
    paths = [tmp_path / "a.dimacs", tmp_path / "b.dimacs"]
    paths[0].write_text(format_dimacs(g))
    paths[1].write_text(format_dimacs(h))
    with tracing.Tracer() as tracer:
        assert cli.main(["iso", *map(str, paths), "--certify"]) == 0
    assert capsys.readouterr().out.startswith("isomorphic")
    keys = set(tracing.WRAPPED.values())
    assert len(keys) == 13
    assert sorted(k for k in keys if tracer.calls[k] == 0) == []


def test_benchmark_calls_exist():
    assert _missing(BENCH_CALLS) == []


def test_cli_import_does_not_load_dataclasses():
    # Defining the rule classes as dataclasses was most of the package's
    # import time, which every CLI command pays.
    src = BENCH.parent / "src"
    code = "import graphcanon.cli, sys; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
