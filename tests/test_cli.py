"""End-to-end tests of the command-line interface."""

import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from graphcanon import (
    Graph,
    canonical_form,
    format_dimacs,
    parse_dimacs,
    relabel_graph,
    unit_coloring,
    verify_proof,
)
from graphcanon.cli import main
from oracle_utils import cycle, path_graph, petersen


def run_cli(argv, monkeypatch=None, stdin_text=None, stdin_bytes=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    if stdin_bytes is not None:
        fake = io.TextIOWrapper(io.BytesIO(stdin_bytes))
        monkeypatch.setattr(sys, "stdin", fake)
    return main(argv)


def write_graph(tmp_path, g, name="g.col"):
    p = tmp_path / name
    p.write_text(format_dimacs(g))
    return p


# ---------------------------------------------------------------------------
# canon
# ---------------------------------------------------------------------------


def test_canon_prints_canonical_dimacs(tmp_path, capsys):
    p = write_graph(tmp_path, cycle(4))
    assert main(["canon", str(p)]) == 0
    out = capsys.readouterr().out
    assert parse_dimacs(out) == canonical_form(cycle(4)).graph


def test_canon_emits_verifiable_proof(tmp_path, capsys):
    g = petersen()
    p = write_graph(tmp_path, g)
    assert main(["canon", str(p), "--prove"]) == 0
    capsys.readouterr()
    proof_path = tmp_path / "g.col.proof"
    assert proof_path.exists()
    verdict = verify_proof(g, unit_coloring(g.n), proof_path.read_bytes())
    assert verdict.accepted
    assert verdict.canonical_graph == canonical_form(g).graph


def test_canon_prove_json(tmp_path, capsys):
    g = cycle(6)
    p = write_graph(tmp_path, g)
    out_path = tmp_path / "c6.proof"
    code = main(["canon", str(p), "--prove", "--proof-out", str(out_path), "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert "proof_strategy" not in payload
    assert verify_proof(g, unit_coloring(g.n), out_path.read_bytes()).accepted
    assert payload["verdict"] == "accepted"
    assert payload["proof_bytes"] == out_path.stat().st_size
    assert payload["n"] == 6 and payload["m"] == 6
    got = Graph.from_edges(payload["n"], [tuple(e) for e in payload["canonical_edges"]])
    assert got == canonical_form(g).graph
    assert relabel_graph(g, tuple(payload["labelling"])) == got
    assert "solve_and_emit" in payload["times_ms"]


@pytest.mark.parametrize("value", ["during", "post"])
def test_canon_prove_takes_no_strategy(tmp_path, capsys, value):
    p = write_graph(tmp_path, cycle(6))
    with pytest.raises(SystemExit) as exc:
        main(["canon", str(p), "--prove", value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_canon_stats_go_to_stderr(tmp_path, capsys):
    p = write_graph(tmp_path, cycle(5))
    assert main(["canon", str(p), "--stats"]) == 0
    captured = capsys.readouterr()
    assert "visited=" in captured.err
    assert "visited=" not in captured.out


def test_canon_reads_stdin(monkeypatch, capsys):
    g = path_graph(4)
    code = run_cli(["canon", "-"], monkeypatch, stdin_text=format_dimacs(g))
    assert code == 0
    assert parse_dimacs(capsys.readouterr().out) == canonical_form(g).graph


def test_canon_stdin_with_prove_needs_proof_out(monkeypatch, capsys):
    g = path_graph(3)
    code = run_cli(["canon", "-", "--prove"], monkeypatch, stdin_text=format_dimacs(g))
    assert code == 2
    assert "--proof-out" in capsys.readouterr().err


def test_canon_proof_out_implies_prove(tmp_path, capsys):
    g = cycle(5)
    p = write_graph(tmp_path, g)
    out_path = tmp_path / "c5.proof"
    assert main(["canon", str(p), "--proof-out", str(out_path)]) == 0
    capsys.readouterr()
    assert out_path.exists()
    assert verify_proof(g, unit_coloring(5), out_path.read_bytes()).accepted


def test_canon_missing_file_is_exit_2(capsys):
    assert main(["canon", "/nonexistent/graph.col"]) == 2
    assert "error:" in capsys.readouterr().err


def test_canon_bad_dimacs_is_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.col"
    p.write_text("p edge 3 1\ne 1 1\n")
    assert main(["canon", str(p)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture()
def binary_file(tmp_path):
    p = tmp_path / "bin.col"
    p.write_bytes(b"\xff\n")
    return p


def test_canon_non_utf8_file_is_exit_2(binary_file, capsys):
    assert main(["canon", str(binary_file)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_canon_rejects_vertex_count_beyond_wire_range(monkeypatch, capsys):
    # 2^31 vertices cannot be encoded in a proof; the header is refused
    # before any per-vertex storage is allocated.
    code = run_cli(["canon", "-"], monkeypatch, stdin_text="p edge 2147483648 0\n")
    assert code == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@pytest.fixture()
def proved_instance(tmp_path):
    g = cycle(8)
    gpath = write_graph(tmp_path, g)
    assert main(["canon", str(gpath), "--prove"]) == 0
    return g, gpath, tmp_path / "g.col.proof"


def test_check_accepts(proved_instance, capsys):
    g, gpath, proof_path = proved_instance
    capsys.readouterr()
    assert main(["check", str(gpath), str(proof_path)]) == 0
    out = capsys.readouterr().out
    assert parse_dimacs(out) == canonical_form(g).graph


def test_check_json_payload(proved_instance, capsys):
    g, gpath, proof_path = proved_instance
    capsys.readouterr()
    assert main(["check", str(gpath), str(proof_path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["accepted"] is True
    assert payload["rules_applied"] > 0
    assert payload["facts"] > 0
    edges = [tuple(e) for e in payload["canonical_edges"]]
    assert Graph.from_edges(g.n, edges) == canonical_form(g).graph


def test_check_rejects_truncated_proof(proved_instance, capsys):
    g, gpath, proof_path = proved_instance
    capsys.readouterr()
    clipped = proof_path.with_suffix(".clipped")
    clipped.write_bytes(proof_path.read_bytes()[:-3])
    assert main(["check", str(gpath), str(clipped)]) == 1
    assert "rejected: decode" in capsys.readouterr().err


def test_check_rejects_proof_for_other_graph(proved_instance, tmp_path, capsys):
    g, gpath, proof_path = proved_instance
    other = write_graph(tmp_path, path_graph(8), "other.col")
    capsys.readouterr()
    assert main(["check", str(other), str(proof_path)]) == 1
    assert "rejected:" in capsys.readouterr().err


def test_check_reads_proof_from_stdin(proved_instance, monkeypatch, capsys):
    g, gpath, proof_path = proved_instance
    capsys.readouterr()
    code = run_cli(
        ["check", str(gpath), "-"], monkeypatch, stdin_bytes=proof_path.read_bytes()
    )
    assert code == 0
    assert parse_dimacs(capsys.readouterr().out) == canonical_form(g).graph


def test_check_non_utf8_graph_is_exit_2(binary_file, proved_instance, capsys):
    _, _, proof_path = proved_instance
    capsys.readouterr()
    assert main(["check", str(binary_file), str(proof_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_check_rejection_in_json(proved_instance, capsys):
    g, gpath, proof_path = proved_instance
    clipped = proof_path.with_suffix(".clip2")
    clipped.write_bytes(proof_path.read_bytes()[:7])
    capsys.readouterr()
    assert main(["check", str(gpath), str(clipped), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["accepted"] is False
    assert "reason" in payload


# ---------------------------------------------------------------------------
# iso
# ---------------------------------------------------------------------------


def test_iso_isomorphic_pair(tmp_path, capsys):
    g1 = petersen()
    g2 = relabel_graph(g1, (3, 1, 4, 0, 9, 2, 6, 8, 7, 5))
    p1 = write_graph(tmp_path, g1, "a.col")
    p2 = write_graph(tmp_path, g2, "b.col")
    assert main(["iso", str(p1), str(p2)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("isomorphic")
    # the printed mapping is 1-based and must transport g1 onto g2
    sigma = [0] * g1.n
    for line in out.splitlines()[1:]:
        u, _, v = line.partition(" -> ")
        sigma[int(u) - 1] = int(v) - 1
    assert relabel_graph(g1, tuple(sigma)) == g2


def test_iso_non_isomorphic_pair(tmp_path, capsys):
    p1 = write_graph(tmp_path, cycle(6), "a.col")
    p2 = write_graph(tmp_path, path_graph(6), "b.col")
    assert main(["iso", str(p1), str(p2)]) == 1
    assert "not isomorphic" in capsys.readouterr().out


def test_iso_different_sizes(tmp_path, capsys):
    p1 = write_graph(tmp_path, cycle(5), "a.col")
    p2 = write_graph(tmp_path, cycle(6), "b.col")
    assert main(["iso", str(p1), str(p2)]) == 1


def test_iso_certify_json(tmp_path, capsys):
    g1 = cycle(9)
    g2 = relabel_graph(g1, (4, 7, 1, 0, 8, 2, 3, 6, 5))
    p1 = write_graph(tmp_path, g1, "a.col")
    p2 = write_graph(tmp_path, g2, "b.col")
    assert main(["iso", str(p1), str(p2), "--certify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["isomorphic"] is True
    assert payload["certified"] is True
    assert relabel_graph(g1, tuple(payload["mapping"])) == g2


def test_iso_certify_non_isomorphic(tmp_path, capsys):
    # same degree sequence, different graphs: C6 vs two triangles
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    p1 = write_graph(tmp_path, cycle(6), "a.col")
    p2 = write_graph(tmp_path, two_triangles, "b.col")
    assert main(["iso", str(p1), str(p2), "--certify"]) == 1
    assert "not isomorphic" in capsys.readouterr().out


@pytest.mark.parametrize("first", [True, False])
def test_iso_non_utf8_file_is_exit_2(binary_file, tmp_path, capsys, first):
    other = str(write_graph(tmp_path, cycle(4)))
    pair = [str(binary_file), other] if first else [other, str(binary_file)]
    assert main(["iso", *pair]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# entry point wiring
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    shutil.which("graphcanon") is None, reason="console script not on PATH"
)
def test_console_script_smoke(tmp_path):
    p = write_graph(tmp_path, cycle(4))
    proc = subprocess.run(
        ["graphcanon", "canon", str(p)], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert parse_dimacs(proc.stdout) == canonical_form(cycle(4)).graph


def test_python_dash_m_runs_the_cli(tmp_path):
    p = write_graph(tmp_path, cycle(4))
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "graphcanon", "canon", str(p)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert parse_dimacs(proc.stdout) == canonical_form(cycle(4)).graph
