"""Tiny-N smoke test of the benchmark: output shape and correctness gate.

    python3 -m pytest bench/test_smoke.py

Timings are not checked; the runs are far too short to mean anything.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import corpus
import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"hol-import": 40, "set-import": 40, "omdoc-library": 60}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--n", str(TINY[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == [name for name, _ in run.END_TO_END]


@pytest.mark.parametrize("workload", sorted(TINY))
def test_end_to_end_shape(workload):
    out = last_json(bench(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    # only the two depth probes of omdoc-library may fail
    assert out["failed"] <= (2 if workload == "omdoc-library" else 0)
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_shape():
    out = last_json(bench("hol-import", 1))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["kernel.check_theory.calls"] > 0
    assert metrics["kernel.decls_checked"] >= 40


def test_refuses_to_run_without_the_program(tmp_path):
    proc = bench("hol-import", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_rejects_wrong_answers(tmp_path):
    sess = run.Session(ROOT, tmp_path, deadline=float("inf"))

    def result(code: int, stdout: str) -> dict:
        return {"exit": code, "stdout": stdout, "stderr": ""}

    assert run.Session.check_lines(result(0, "a\nb\n"), ["a", "b"]) is None
    assert run.Session.check_lines(result(0, "a\n"), ["a", "b"]) is not None
    assert run.Session.check_lines(result(1, "a\nb\n"), ["a", "b"]) is not None
    _, man = corpus.hol_corpus(3, 40)
    want = man["import"]
    planted = sorted(want["failures"])
    rows = [f"imported\t{th}\t{n}" for th, n in want["imported"].items()]
    rows += [f"failure\t{ident}\tUnificationFailure: x" for ident in planted[1:]]
    res = result(1, "\n".join(rows) + "\n")
    assert "failure rows" in sess.check_import(res, want, tmp_path / "missing.xml")


def test_corpora_are_seeded():
    for make in (corpus.hol_corpus, corpus.set_corpus, corpus.omdoc_corpus):
        assert make(5, 60) == make(5, 60)
        assert make(5, 60)[0] != make(6, 60)[0]


def test_answers_follow_the_graph():
    graph = {"a": ["b"], "b": ["c"], "c": [], "d": ["a"]}
    kinds = {"a": "theorem", "b": "constant", "c": "constant", "d": "axiom"}
    assert corpus.deps_answer(graph, "a") == ["a", "b", "c"]
    assert corpus.used_by_answer(graph, kinds, "c", None) == ["a", "b", "d"]
    assert corpus.used_by_answer(graph, kinds, "c", "theorem") == ["a"]
