"""The proofport benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a proofport checkout; the program is taken from
`src/` there. Each workload's corpus is generated from the seed by
`corpus.py` into `.bench_work/`, then the real command line runs over
it, closed loop with one client: each command is a fresh Python process
(`child.py`), as a user's shell would run it. Every command's output is
checked against the corpus manifest. The last line of stdout is one
JSON object: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer ones with
`--trace 1`). See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional

import corpus

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # a run ends inside the 180 s every run is allowed
CHILD_ENV_SEED = "0"  # PYTHONHASHSEED of every command process
QUERY_SAMPLES = 200  # seeded queries per kind for the latency percentiles

# The host's speed drifts by 15% and more within seconds and from minute
# to minute (shared cores), and all timings drift with it. Each command
# process also times a fixed reference computation right after its
# command (child.py). Every end-to-end time is scaled by REFERENCE_S over
# the median reference time of the processes within REFERENCE_WINDOW of
# it in run order, itself included: it is given at the host speed where
# the reference takes REFERENCE_S.
REFERENCE_S = 0.040
REFERENCE_WINDOW = 3


@dataclass(frozen=True)
class Workload:
    make: Callable
    n: int
    input: str
    imports: bool  # the input is a prover export, not OMDoc
    probes: bool = False


# Sizes are scaled so that a 35-second run holds enough rounds for steady
# medians; a round is one import, then one pass of check, export-omdoc,
# export-rdf, the manifest's deps and used-by queries, and translate.
WORKLOADS = {
    "hol-import": Workload(corpus.hol_corpus, 220, "corpus.toyhol.json", True),
    "set-import": Workload(corpus.set_corpus, 260, "corpus.toyset.xml", True),
    "omdoc-library": Workload(corpus.omdoc_corpus, 700, "corpus.omdoc.xml", False, probes=True),
}

END_TO_END = (
    ("setup_s", "s"), ("import_decls_per_s", "decl/s"), ("check_decls_per_s", "decl/s"),
    ("export_omdoc_s", "s"), ("export_rdf_s", "s"), ("query_s", "s"),
    ("translate_s", "s"), ("peak_rss_mb", "MB"), ("omdoc_bytes", "B"),
)

PER_LAYER = (
    ("cli.self_s", "s"), ("encodings.logic_library.calls", "count"),
    ("encodings.logic_library_s", "s"), ("importers.parse_s", "s"), ("importers.import_s", "s"),
    ("importers.import_self_s", "s"), ("importers.infer_church_annotations_s", "s"),
    ("elaboration.elaborate_pattern.calls", "count"), ("elaboration.elaborate_pattern_s", "s"),
    ("kernel.check_theory.calls", "count"), ("kernel.check_theory_s", "s"),
    ("kernel.decls_checked", "count"), ("kernel.recheck_ratio", "ratio"),
    ("kernel.find_decl.calls", "count"), ("kernel.find_theory.calls", "count"),
    ("kernel.whnf.calls", "count"), ("kernel.substitute.calls", "count"),
    ("omdoc.parse_s", "s"), ("omdoc.serialize_s", "s"), ("omdoc.serialize.find_decl_calls", "count"),
    ("omdoc.deep_decl_bytes", "B"), ("ontology.extract_triples_s", "s"),
    ("ontology.write_ntriples_s", "s"), ("ontology.triples", "count"),
    ("ontology.transitive_uses_p50_ms", "ms"), ("ontology.transitive_uses_p95_ms", "ms"),
    ("ontology.used_by_p50_ms", "ms"), ("ontology.used_by_p95_ms", "ms"),
    ("morphisms.check_morphism_s", "s"), ("morphisms.translate_s", "s"),
    ("importers.import.scaling_exp", "log2"), ("kernel.check_theory.scaling_exp", "log2"),
    ("omdoc.serialize.scaling_exp", "log2"), ("omdoc.parse.scaling_exp", "log2"),
    ("ontology.extract_triples.scaling_exp", "log2"), ("tracing.overhead_s", "s"),
)

SCALED_SPANS = ("importers.import", "kernel.check_theory", "omdoc.serialize",
                "omdoc.parse", "ontology.extract_triples")


class Abort(Exception):
    """The run cannot go on: a command hung past the run's limit."""


# ---------------------------------------------------------------------------
# reading command output


def _rows(stdout: str) -> list[list[str]]:
    return [line.split("\t") for line in stdout.splitlines()]


def _failure_rows(rows) -> dict[str, str]:
    """Subject identifier -> the whole failure row."""
    out = {}
    for r in rows:
        if r and r[0] == "failure":
            subject = next((f for f in r[1:] if f.startswith("lib://")), r[1] if len(r) > 1 else "")
            out[subject] = "\t".join(r)
    return out


def _sha(path: Path) -> Optional[str]:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


_NT = re.compile(r'^<([^>]*)> <([^>]*)> (?:<([^>]*)>|"(.*)") \.$')
_ULO = "lib://ulo?core?"


def _omdoc_decls(data: bytes) -> dict[str, list[str]]:
    """Theory name -> constant names, read without proofport."""
    root = ET.fromstring(data)
    return {th.get("name"): [c.get("name") for c in th.findall("constant")]
            for th in root.findall("theory")}


# ---------------------------------------------------------------------------
# one run's command processes and their checks


class Session:
    """Starts command processes, checks them, counts the operations."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root, self.work, self.deadline = root, work, deadline
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("OAF_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = CHILD_ENV_SEED
        self.attempted = self.failed = self.timed_failed = 0
        self.problems: list[str] = []
        self.processes: list[dict] = []  # results of the timed command processes
        self._n = 0
        self._verified: dict[tuple, Optional[str]] = {}
        self._proofport = None

    def spawn(self, cwd: Path, argv: Optional[list[str]], trace: bool = False) -> dict:
        self._n += 1
        out = self.work / f"result-{self._n}.json"
        remaining = self.deadline - time.perf_counter()
        if remaining <= 1:
            raise Abort("run time limit reached")
        cmd = [sys.executable, str(HERE / "child.py"), str(out)]
        cmd += ["--trace"] if trace else []
        cmd += ["--"] + argv if argv is not None else []
        cmd.insert(3, repr(time.perf_counter()))
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise Abort(f"{' '.join(argv or ['import'])}: no exit within the run limit") from None
        try:
            result = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
        except (OSError, ValueError):
            err = proc.stderr.decode("utf-8", "replace").strip().splitlines()
            result = {"exit": proc.returncode, "traceback": "\n".join(err[-5:]) or "no result",
                      "stdout": "", "stderr": "", "cmd_s": None, "setup_s": None}
        return result

    def op(self, name: str, cwd: Path, argv: list[str], check: Callable[[dict], Optional[str]],
           timed: bool = True, trace: bool = False) -> dict:
        """One operation: a command whose output must match the manifest."""
        res = self.spawn(cwd, argv, trace)
        res["name"] = name
        if res.get("traceback"):
            reason = "traceback: " + res["traceback"].strip().splitlines()[-1]
        elif "Traceback (most recent call last)" in res["stderr"]:
            reason = "traceback on stderr"
        else:
            try:
                reason = check(res)
            except Exception as err:  # unreadable output fails the operation
                reason = f"output check raised {type(err).__name__}: {err}"
        self.attempted += 1
        res["ok"] = reason is None
        if reason is not None:
            self.failed += 1
            self.timed_failed += timed
            self.problems.append(f"{name} {' '.join(argv[1:2])}: {reason}")
        if timed and res.get("setup_s") is not None:
            self.processes.append(res)
        return res

    def proofport(self):
        """The program's own modules, for round-trip checks outside any timing."""
        if self._proofport is None:
            sys.path.insert(0, str(self.root / "src"))
            # the checks run deeper in the stack than a command does; the
            # depth probes never reach this process
            sys.setrecursionlimit(5000)
            from proofport import omdoc

            self._proofport = omdoc
        return self._proofport

    def verified(self, key: tuple, check: Callable[[], Optional[str]]) -> Optional[str]:
        """Run an expensive check once per distinct output."""
        if key not in self._verified:
            self._verified[key] = check()
        return self._verified[key]

    # -- checks -----------------------------------------------------------

    def check_import(self, res: dict, want: dict, out: Path) -> Optional[str]:
        if res["exit"] != want["exit"]:
            return f"exit {res['exit']}, expected {want['exit']}: {res['stderr'].strip()[:200]}"
        rows = _rows(res["stdout"])
        imported = {r[1]: int(r[2]) for r in rows if r[0] == "imported"}
        if imported != want["imported"]:
            return f"imported rows {imported}, expected {want['imported']}"
        failures = _failure_rows(rows)
        if set(failures) != set(want["failures"]):
            return (f"failure rows for {sorted(failures)}, "
                    f"planted {sorted(want['failures'])}")
        for subject, cls in want["failures"].items():
            if cls not in failures[subject]:
                return f"{subject} failed without {cls}: {failures[subject]}"
        res["verdicts"] = sum(imported.values()) + len(failures)
        return self.verified(("omdoc", _sha(out)), lambda: self._check_written(out, want))

    def _check_written(self, out: Path, want: dict) -> Optional[str]:
        try:
            data = out.read_bytes()
            decls = _omdoc_decls(data)
        except (OSError, ET.ParseError) as err:
            return f"written OMDoc unreadable: {err}"
        counts = {th: len(names) for th, names in decls.items()}
        if counts != want["imported"]:
            return f"written OMDoc holds {counts}, expected {want['imported']}"
        return self._round_trip(data)

    def _round_trip(self, data: bytes) -> Optional[str]:
        omdoc = self.proofport()
        try:
            again = omdoc.serialize(omdoc.parse(data))
        except Exception as err:  # any failure is a gate failure, reported
            return f"round trip raised {type(err).__name__}: {err}"
        return None if again == data else "round trip is not byte-identical"

    def check_check(self, res: dict, lib: dict) -> Optional[str]:
        if res["exit"] != 0:
            return f"exit {res['exit']}: {res['stderr'].strip()[:200]}"
        rows = _rows(res["stdout"])
        if _failure_rows(rows):
            return f"unexpected failures {sorted(_failure_rows(rows))[:3]}"
        counts = {r[1]: int(r[3]) for r in rows if r[0] == "theory"}
        want = {th: len(ids) for th, ids in lib["theories"].items()}
        if counts != want:
            return f"checked {counts}, expected {want}"
        res["verdicts"] = sum(counts.values())
        return None

    def check_export(self, res: dict, src: Path, out: Path) -> Optional[str]:
        if res["exit"] != 0:
            return f"exit {res['exit']}: {res['stderr'].strip()[:200]}"

        def same_library() -> Optional[str]:
            data = out.read_bytes()
            if _omdoc_decls(data) != _omdoc_decls(src.read_bytes()):
                return "exported declarations differ from the input's"
            return self._round_trip(data)

        return self.verified(("export", _sha(src), _sha(out)), same_library)

    def check_rdf(self, res: dict, lib: dict, out: Path) -> Optional[str]:
        if res["exit"] != 0:
            return f"exit {res['exit']}: {res['stderr'].strip()[:200]}"

        def triples() -> Optional[str]:
            edges, declared, status = set(), set(), None
            for line in out.read_text(encoding="ascii").splitlines():
                m = _NT.match(line)
                if m is None:
                    return f"not an N-Triples line: {line[:80]}"
                s, p, o, lit = m.groups()
                if p in (_ULO + "uses", _ULO + "justifiedBy"):
                    edges.add((s, o))
                elif p == _ULO + "declares":
                    declared.add(o)
                elif p == _ULO + "checkStatus":
                    status = lit
            want = {(s, o) for s, targets in lib["graph"].items() for o in targets}
            if declared != set(lib["kinds"]):
                return f"{len(declared)} declarations exported, expected {len(lib['kinds'])}"
            if edges != want:
                return f"{len(edges ^ want)} dependency edges differ from the manifest"
            if status != "checked":
                return f"checkStatus {status!r}, expected 'checked'"
            return None

        return self.verified(("rdf", _sha(out)), triples)

    @staticmethod
    def check_lines(res: dict, want: list[str]) -> Optional[str]:
        if res["exit"] != 0:
            return f"exit {res['exit']}: {res['stderr'].strip()[:200]}"
        got = res["stdout"].splitlines()
        if got != want:
            return f"{len(got)} answers, expected {len(want)}; first difference " + next(
                (f"{g!r} vs {w!r}" for g, w in zip(got, want) if g != w), "in length")
        return None


# ---------------------------------------------------------------------------
# one round: the workload's session of commands


def prepare(work: Path, wl: Workload, seed: int, n: int) -> dict:
    """Generate the corpus (and the probes) into `work`; return the manifest."""
    work.mkdir(parents=True, exist_ok=True)
    data, man = wl.make(seed, n)
    (work / wl.input).write_bytes(data)
    if not wl.imports:
        man["import"] = {"exit": 0, "failures": {},
                         "imported": {th: len(ids) for th, ids in man["library"]["theories"].items()}}
    if wl.probes:
        for name, make in (("probe-deep.omdoc.xml", corpus.probe_deep),
                           ("probe-chain.omdoc.xml", corpus.probe_chain)):
            data, pman = make()
            (work / name).write_bytes(data)
            man[name] = pman
    return man


def views_file(work: Path, wl: Workload, man: dict) -> Path:
    """The library the downstream commands read.

    For the import workloads it is the import's output with the
    workload's morphism appended, written here outside any timing.
    """
    if not wl.imports:
        return work / wl.input
    target = work / "views.omdoc.xml"
    try:
        text = (work / "out.omdoc.xml").read_text(encoding="utf-8")
    except OSError:
        target.unlink(missing_ok=True)
        return target
    head, sep, _ = text.rpartition("</omdoc>")
    body = "\n".join(man["morphism"]["xml"]) + "\n"
    target.write_text(head + body + sep + "\n" if sep else text, encoding="utf-8")
    return target


def run_round(sess: Session, work: Path, wl: Workload, man: dict, trace: bool = False) -> list:
    """Import, then check, export, query and translate the result."""
    out = work / "out.omdoc.xml"
    done = [sess.op("import", work, ["import", wl.input, "--output", out.name],
                    lambda r: sess.check_import(r, man["import"], out), trace=trace)]
    lib, morph = man["library"], man["morphism"]
    views = views_file(work, wl, man)
    v = views.name
    done.append(sess.op("check", work, ["check", v], lambda r: sess.check_check(r, lib), trace=trace))
    exp = work / "export.omdoc.xml"
    done.append(sess.op("export-omdoc", work, ["export-omdoc", v, "--output", exp.name],
                        lambda r: sess.check_export(r, views, exp), trace=trace))
    nt = work / "lib.nt"
    done.append(sess.op("export-rdf", work, ["export-rdf", v, "--output", nt.name],
                        lambda r: sess.check_rdf(r, lib, nt), trace=trace))
    for ident in man["queries"]["deps"]:
        want = corpus.deps_answer(lib["graph"], ident)
        done.append(sess.op("deps", work, ["deps", v, "--ident", ident],
                            lambda r, w=want: sess.check_lines(r, w), trace=trace))
    for ident, kind in man["queries"]["used_by"]:
        want = corpus.used_by_answer(lib["graph"], lib["kinds"], ident, kind)
        argv = ["used-by", v, "--ident", ident] + (["--kind", kind] if kind else [])
        done.append(sess.op("used-by", work, argv,
                            lambda r, w=want: sess.check_lines(r, w), trace=trace))
    done.append(sess.op("translate", work,
                        ["translate", v, "--morphism", morph["name"], "--theorem", morph["theorem"]],
                        lambda r: sess.check_lines(r, [morph["expected"]]), trace=trace))
    return done


def run_probes(sess: Session, work: Path, man: dict) -> None:
    """The depth probes: operations that feed no timing.

    They run once per round (once per cycle in the traced run), so their
    failures are the same share of the operations however many rounds
    the run's seconds hold.
    """
    deep = man["probe-deep.omdoc.xml"]["library"]

    def deep_ok(res: dict) -> Optional[str]:
        if res["exit"] == 0:
            return sess.check_check(res, deep)
        if res["exit"] in (1, 2) and (res["stderr"].strip() or _failure_rows(_rows(res["stdout"]))):
            return None  # a located rejection
        return f"exit {res['exit']} without a report"

    sess.op("probe-deep-check", work, ["check", "probe-deep.omdoc.xml"], deep_ok, timed=False)
    chain = man["probe-chain.omdoc.xml"]["morphism"]
    sess.op("probe-chain-translate", work,
            ["translate", "probe-chain.omdoc.xml", "--morphism", chain["name"],
             "--theorem", chain["theorem"]],
            lambda r: sess.check_lines(r, [chain["expected"]]), timed=False)


# ---------------------------------------------------------------------------
# the two kinds of run


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


# command -> the end-to-end metric its time feeds
TIMED = {"import": "import_decls_per_s", "check": "check_decls_per_s",
         "export-omdoc": "export_omdoc_s", "export-rdf": "export_rdf_s",
         "deps": "query_s", "used-by": "query_s", "translate": "translate_s"}


def timed_run(sess: Session, work: Path, wl: Workload, man: dict, seconds: float) -> dict:
    omdoc_bytes = rounds = 0
    end = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < end:
        rounds += 1
        run_round(sess, work, wl, man)
        omdoc_bytes = _size(work / "export.omdoc.xml")
        if wl.probes:
            run_probes(sess, work, man)
    procs = sess.processes
    refs = [p["reference_s"] for p in procs]
    raw: dict[str, list] = {name: [] for name, _ in END_TO_END}
    scaled: dict[str, list] = {name: [] for name, _ in END_TO_END}
    for i, res in enumerate(procs):
        scale = REFERENCE_S / statistics.median(
            refs[max(0, i - REFERENCE_WINDOW):i + REFERENCE_WINDOW + 1])
        raw["setup_s"].append(res["setup_s"])
        scaled["setup_s"].append(res["setup_s"] * scale)
        if not res["ok"] or res["name"] not in TIMED:
            continue
        metric, t = TIMED[res["name"]], res["cmd_s"]
        raw[metric].append(res["verdicts"] / t if "verdicts" in res else t)
        scaled[metric].append(res["verdicts"] / (t * scale) if "verdicts" in res else t * scale)
    metrics = {name: _median(scaled[name]) for name, _ in END_TO_END}
    metrics["peak_rss_mb"] = max((p["maxrss_kb"] for p in procs), default=0) / 1024
    metrics["omdoc_bytes"] = omdoc_bytes
    print(f"{rounds} rounds, {len(procs)} command processes; median reference "
          f"{_median([p['reference_s'] for p in procs]):.6f} s against {REFERENCE_S} s")
    print(f"  {'metric':<20} {'reported':>14} {'measured':>14} unit     samples")
    for name, unit in END_TO_END:
        measured = _median(raw[name]) if raw[name] else metrics[name]
        n = len(raw[name]) or len(procs)
        print(f"  {name:<20} {metrics[name]:>14.6g} {measured:>14.6g} {unit:<8} {n}")
    with open(work / "samples.json", "w", encoding="utf-8") as fh:
        json.dump([{k: p.get(k) for k in ("name", "reference_s", "setup_s", "cmd_s", "verdicts", "ok")}
                   for p in procs], fh)
    return metrics


def _sum_trace(results: list) -> tuple[dict, dict]:
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for res in results:
        tr = res.get("trace") or {}
        for name, st in tr.get("spans", {}).items():
            acc = spans.setdefault(name, dict.fromkeys(st, 0))
            for k, v in st.items():
                acc[k] += v
        for name, v in tr.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + v
    return spans, counts


class QuerySampler:
    """Seeded single queries on one prebuilt triple store, checked against
    the manifest's graph; their latencies give the p50/p95 metrics."""

    KINDS = ("transitive_uses", "used_by")

    def __init__(self, sess: Session, views: Path, man: dict, seed: int):
        from proofport import ontology
        from proofport.kernel import Ident

        self.sess, self.ontology, self.ident = sess, ontology, Ident
        self.store = ontology.extract_triples(sess.proofport().parse(views.read_bytes()))
        self.lib = man["library"]
        self.pool = sorted(self.lib["kinds"])
        self.rng = random.Random(f"queries/{seed}")
        self.times: dict[str, list] = {kind: [] for kind in self.KINDS}

    def batch(self) -> None:
        """QUERY_SAMPLES queries of each kind; each kind is one operation."""
        lib, sess = self.lib, self.sess
        for kind in self.KINDS:
            wrong = 0
            for _ in range(QUERY_SAMPLES):
                ident = self.rng.choice(self.pool)
                query = getattr(self.ontology, kind)
                t0 = time.perf_counter()
                got = query(self.store, self.ident.parse(ident))
                self.times[kind].append(time.perf_counter() - t0)
                if kind == "transitive_uses":
                    want = corpus.deps_answer(lib["graph"], ident)
                else:
                    want = corpus.used_by_answer(lib["graph"], lib["kinds"], ident, None)
                wrong += sorted(str(i) for i in got) != want
            sess.attempted += 1
            if wrong:
                sess.failed += 1
                sess.problems.append(f"ontology.{kind}: {wrong} of {QUERY_SAMPLES} answers differ")

    def metrics(self) -> dict:
        out = {}
        for kind, times in self.times.items():
            out[f"ontology.{kind}_p50_ms"] = statistics.median(times) * 1e3
            out[f"ontology.{kind}_p95_ms"] = statistics.quantiles(times, n=20)[18] * 1e3
        return out


def traced_run(sess: Session, work: Path, wl: Workload, seed: int, seconds: float) -> dict:
    """Per-layer spans and counts at N, and at N/2 for the scaling exponents."""
    full, half = work / "n", work / "half"
    man = prepare(full, wl, seed, wl.n)
    man_half = prepare(half, wl, seed, wl.n // 2)
    cycles = []
    queries = None
    end = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < end:
        plain = run_round(sess, full, wl, man)
        traced = run_round(sess, full, wl, man, trace=True)
        traced_half = run_round(sess, half, wl, man_half, trace=True)
        cycles.append((plain, traced, traced_half))
        if wl.probes:
            run_probes(sess, full, man)
        if queries is None:
            queries = QuerySampler(sess, views_file(full, wl, man), man, seed)
        queries.batch()

    first_plain, first, _ = cycles[0]
    spans, counts = _sum_trace(first)
    for _, traced, _ in cycles[1:]:
        if _sum_trace(traced)[1] != counts:
            sess.problems.append("traced counts differ between rounds")
    verdict = next(r for r in first if r["name"] == ("import" if wl.imports else "check"))
    verdict_counts = _sum_trace([verdict])[1]

    def span_median(name: str, key: str, which: int = 1) -> float:
        return _median([_sum_trace(c[which])[0].get(name, {}).get(key, 0.0) for c in cycles])

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    decls_checked = verdict_counts.get("kernel.decls_checked", 0)
    m = {
        "cli.self_s": span_median("cli", "self_s"),
        "encodings.logic_library.calls": calls("encodings.logic_library"),
        "encodings.logic_library_s": span_median("encodings.logic_library", "total_s"),
        "importers.parse_s": span_median("importers.parse", "total_s"),
        "importers.import_s": span_median("importers.import", "total_s"),
        "importers.import_self_s": span_median("importers.import", "excl_s"),
        "importers.infer_church_annotations_s":
            span_median("importers.infer_church_annotations", "total_s"),
        "elaboration.elaborate_pattern.calls": calls("elaboration.elaborate_pattern"),
        "elaboration.elaborate_pattern_s": span_median("elaboration.elaborate_pattern", "total_s"),
        "kernel.check_theory.calls": calls("kernel.check_theory"),
        "kernel.check_theory_s": span_median("kernel.check_theory", "total_s"),
        "kernel.decls_checked": decls_checked,
        "kernel.recheck_ratio": decls_checked / verdict["verdicts"] if verdict.get("verdicts") else 0.0,
        "kernel.find_decl.calls": counts.get("kernel.find_decl", 0),
        "kernel.find_theory.calls": counts.get("kernel.find_theory", 0),
        "kernel.whnf.calls": counts.get("kernel.whnf", 0),
        "kernel.substitute.calls": counts.get("kernel.substitute", 0),
        "omdoc.parse_s": span_median("omdoc.parse", "total_s"),
        "omdoc.serialize_s": span_median("omdoc.serialize", "total_s"),
        "omdoc.serialize.find_decl_calls": counts.get("omdoc.serialize.find_decl_calls", 0),
        "omdoc.deep_decl_bytes": _deep_decl_bytes(full / "export.omdoc.xml") if wl.probes else 0,
        "ontology.extract_triples_s": span_median("ontology.extract_triples", "total_s"),
        "ontology.write_ntriples_s": span_median("ontology.write_ntriples", "total_s"),
        "ontology.triples": _line_count(full / "lib.nt"),
    }
    m.update(queries.metrics())
    m["morphisms.check_morphism_s"] = span_median("morphisms.check_morphism", "total_s")
    m["morphisms.translate_s"] = span_median("morphisms.translate", "total_s")
    for name in SCALED_SPANS:
        at_n, at_half = span_median(name, "total_s", 1), span_median(name, "total_s", 2)
        m[f"{name}.scaling_exp"] = math.log2(at_n / at_half) if at_n > 0 and at_half > 0 else 0.0

    def wall(results: list) -> float:
        return sum(r["cmd_s"] or 0.0 for r in results)

    m["tracing.overhead_s"] = _median([wall(t) - wall(p) for p, t, _ in cycles])
    print(f"{len(cycles)} cycles of an untraced round at N={wl.n}, a traced one at N "
          f"and a traced one at N={wl.n // 2}")
    print("  untraced command times at N, first cycle (s):")
    for res in first_plain:
        print(f"    {res['name']:<14} {res['cmd_s'] or 0.0:.6f}")
    print("  per layer:")
    for name, unit in PER_LAYER:
        print(f"    {name:<40} {m[name]:>14.6g} {unit}")
    return m


def _deep_decl_bytes(path: Path) -> int:
    data = path.read_bytes() if path.exists() else b""
    start = data.find(b'<constant name="deep"')
    end = data.find(b"</constant>", start)
    return end + len(b"</constant>") - start if start >= 0 and end >= 0 else 0


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _line_count(path: Path) -> int:
    return path.read_bytes().count(b"\n") if path.exists() else 0


# ---------------------------------------------------------------------------
# entry point


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, help="corpus size (default: the workload's)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "proofport" / "cli.py").is_file():
        print(f"error: no proofport sources under {root / 'src'}; "
              "run from the root of a proofport checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.n is not None:
        wl = replace(wl, n=args.n)
    work = root / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sess = Session(root, work, time.perf_counter() + RUN_LIMIT_S)
    print(f"workload {args.workload}, seed {args.seed}, N={wl.n}, trace {args.trace}")
    metrics: dict = {}
    try:
        sess.spawn(root, None)  # fills the bytecode cache; not counted
        if args.trace:
            metrics = traced_run(sess, work, wl, args.seed, args.seconds)
            units = dict(PER_LAYER)
        else:
            man = prepare(work, wl, args.seed, wl.n)
            metrics = timed_run(sess, work, wl, man, args.seconds)
            units = dict(END_TO_END)
    except Abort as err:
        sess.problems.append(str(err))
        sess.attempted += 1
        sess.failed += 1
        sess.timed_failed += 1
        units = {}
    for p in sess.problems:
        print(f"FAILED {p}", file=sys.stderr)
    print(f"operations: {sess.failed} failed of {sess.attempted} attempted "
          f"({sess.failed - sess.timed_failed} of them untimed probes)")
    print(json.dumps({
        "correct": sess.timed_failed == 0 and bool(units),
        "attempted": sess.attempted,
        "failed": sess.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
