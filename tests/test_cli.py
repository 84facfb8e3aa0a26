"""Command line: exit codes, report formats, end-to-end stability."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from test_morphisms import TO_INT, algebra_library

from proofport import omdoc
from proofport.cli import main, parse_cli
from proofport.encodings import HOL_CHURCH, hol_ident, logic_library
from proofport.importers import import_toyhol, parse_toyhol
from proofport.kernel import (
    Apply,
    Const,
    Declaration,
    Ident,
    Library,
    Metadata,
    Pi,
    ProofTerm,
    Theory,
    TypeKind,
    apps,
    flatten,
    format_term,
    theory_ident,
)
from proofport.morphisms import identity_morphism, install_morphism
from proofport.ontology import extract_triples, read_ntriples

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CORE = str(FIXTURES / "core.toyhol.json")
MINIMAL = str(FIXTURES / "minimal.toyhol.json")
SETS = str(FIXTURES / "sets.toyset.xml")
BROKEN = str(FIXTURES / "broken-dep.omdoc.xml")


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines(out):
    return [tuple(line.split("\t")) for line in out.splitlines()]


@pytest.fixture()
def algebra_file(tmp_path):
    lib = algebra_library(morphisms=(TO_INT,))
    path = tmp_path / "algebra.omdoc.xml"
    path.write_bytes(omdoc.serialize(lib))
    return str(path)


# ---------------------------------------------------------------------------
# exit code table


def test_passing_fixture_checks_clean(capsys):
    code, out, _ = run_cli(capsys, "check", CORE)
    assert code == 0
    assert ("total", "failed", "0") in lines(out)


def test_broken_dependency_is_one_failure(capsys):
    code, out, _ = run_cli(capsys, "check", BROKEN)
    assert code == 1
    assert ("total", "failed", "1") in lines(out)
    assert any(row[0] == "failure" and "ghost" in row[-1] for row in lines(out))


def test_a_definition_that_proves_itself_is_a_failure(tmp_path, capsys):
    ns = "lib://selfproof"
    a, b, bad = (Ident(ns, "t", n) for n in ("a", "b", "bad"))
    tm, prop, ded, eq = (Const(hol_ident(n)) for n in ("tm", "bool'", "ded", "eq"))
    a_eq_b = Apply(ded, apps(eq, prop, Const(a), Const(b)))
    decls = (
        Declaration(a, tp=Apply(tm, prop), meta=Metadata(kind="constant")),
        Declaration(b, tp=Apply(tm, prop), meta=Metadata(kind="constant")),
        Declaration(bad, tp=a_eq_b, definiens=Const(bad), meta=Metadata(kind="definition")),
        Declaration(
            Ident(ns, "t", "a_eq_b"),
            tp=a_eq_b,
            proof=ProofTerm(Const(bad)),
            meta=Metadata(kind="theorem"),
        ),
    )
    th = Theory(theory_ident(ns, "t"), meta_theory=HOL_CHURCH, decls=decls)
    path = tmp_path / "selfproof.omdoc.xml"
    path.write_bytes(omdoc.serialize(Library(ns, (th,), deps=(logic_library(),))))
    code, out, _ = run_cli(capsys, "check", str(path))
    assert code == 1
    assert ("total", "failed", "1") in lines(out)
    assert ("failure", str(bad), f"UnknownIdent: {bad}") in lines(out)


def test_empty_nonempty_input_hits_the_guard(tmp_path, capsys):
    doc = tmp_path / "empty.toyhol.json"
    doc.write_text('{"version": "1", "theories": []}')
    code, _, err = run_cli(capsys, "check", str(doc))
    assert code == 2
    assert "zero declarations" in err


def test_allow_empty_flag_overrides_the_guard(tmp_path, capsys):
    doc = tmp_path / "empty.toyhol.json"
    doc.write_text('{"version": "1", "theories": []}')
    code, out, _ = run_cli(capsys, "check", str(doc), "--allow-empty")
    assert code == 0
    assert ("total", "failed", "0") in lines(out)


def test_allow_empty_env_override(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "empty.toyhol.json"
    doc.write_text('{"version": "1", "theories": []}')
    monkeypatch.setenv("OAF_ALLOW_EMPTY", "1")
    code, _, _ = run_cli(capsys, "check", str(doc))
    assert code == 0


def test_malformed_input_is_exit_2(tmp_path, capsys):
    doc = tmp_path / "junk.toyhol.json"
    doc.write_text("{not json")
    assert run_cli(capsys, "check", str(doc))[0] == 2


def test_unsupported_version_is_exit_2(tmp_path, capsys):
    doc = tmp_path / "v9.toyhol.json"
    doc.write_text('{"version": "9", "theories": []}')
    assert run_cli(capsys, "check", str(doc))[0] == 2


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert run_cli(capsys, "check", str(tmp_path / "absent.json"))[0] == 2


@pytest.mark.parametrize("command", ["import", "export-omdoc", "export-rdf"])
@pytest.mark.parametrize("target", ["absent/out.xml", "."])
def test_unwritable_output_is_exit_2_naming_the_path(tmp_path, capsys, command, target):
    out = str(tmp_path / target)
    code, _, err = run_cli(capsys, command, MINIMAL, "--output", out)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out in err


def test_uninferrable_format_is_exit_2(tmp_path, capsys):
    doc = tmp_path / "data.bin"
    doc.write_text("mystery")
    code, _, err = run_cli(capsys, "check", str(doc))
    assert code == 2
    assert "--format" in err


def test_explicit_format_beats_the_suffix(capsys):
    # toyhol parser pointed at XML input: a format error, not a crash
    assert run_cli(capsys, "check", SETS, "--format", "toyhol-json")[0] == 2


# ---------------------------------------------------------------------------
# check and import reports


def test_check_report_shape(capsys):
    _, out, _ = run_cli(capsys, "check", CORE)
    rows = lines(out)
    assert (
        "theory",
        "core",
        "declarations",
        "5",
        "checked",
        "5",
        "failed",
        "0",
        "omitted",
        "1",
        "dependsOn",
        "1",
        "term",
        "0",
    ) in rows


def test_import_reports_counts_and_writes(tmp_path, capsys):
    out_path = tmp_path / "out.omdoc.xml"
    code, out, _ = run_cli(capsys, "import", MINIMAL, "--output", str(out_path))
    assert code == 0
    assert ("imported", "bits", "3") in lines(out)
    lib = omdoc.parse(out_path.read_bytes())
    assert sum(len(th.decls) for th in lib.theories) == 3


def test_import_with_failures_keeps_good_decls_and_exits_1(tmp_path, capsys):
    doc = tmp_path / "mixed.toyhol.json"
    doc.write_text(
        '{"version": "1", "theories": [{"name": "m", "decls": ['
        '{"kind": "constant", "name": "good", "type": "bool"},'
        '{"kind": "definition", "name": "bad", "definiens": {"app": [{"name": "good"}, {"name": "good"}]}}'
        "]}]}"
    )
    code, out, _ = run_cli(capsys, "check", str(doc))
    assert code == 1
    rows = lines(out)
    assert any(row[0] == "failure" and "bad" in row[1] for row in rows)
    assert ("theory", "m", "declarations", "1", "checked", "1", "failed", "0",
            "omitted", "0", "dependsOn", "0", "term", "0") in rows


# ---------------------------------------------------------------------------
# stats


def test_stats_fixture_counts(capsys):
    _, out, _ = run_cli(capsys, "stats", CORE)
    rows = lines(out)
    assert ("declarations", "5") in rows
    assert ("theories", "1") in rows
    assert ("kind:definition", "1") in rows
    assert ("proof:dependsOn", "1") in rows


def test_stats_triples_match_the_ontology_module(capsys):
    lib, _ = import_toyhol(parse_toyhol(Path(CORE).read_bytes()))
    expected = len(extract_triples(lib))
    _, out, _ = run_cli(capsys, "stats", CORE)
    assert ("rdfTriples", str(expected)) in lines(out)


def test_stats_declarations_match_flatten(capsys):
    lib, _ = import_toyhol(parse_toyhol(Path(CORE).read_bytes()))
    total = sum(len(flatten(lib, th.name)) for th in lib.theories)
    _, out, _ = run_cli(capsys, "stats", CORE)
    assert ("declarations", str(total)) in lines(out)


def test_stats_source_coverage(capsys):
    _, out, _ = run_cli(capsys, "stats", MINIMAL)
    assert ("sourceRefCoverage", "33.3") in lines(out)


def test_stats_on_empty_library_is_all_zeros(tmp_path, capsys):
    doc = tmp_path / "empty.omdoc.xml"
    doc.write_bytes(omdoc.serialize(Library("lib://void")))
    code, out, _ = run_cli(capsys, "stats", str(doc))
    assert code == 0
    rows = dict(lines(out))
    assert rows["theories"] == "0"
    assert rows["declarations"] == "0"
    assert rows["rdfTriples"] == "0"
    assert rows["sourceRefCoverage"] == "0.0"


# ---------------------------------------------------------------------------
# queries


def test_deps_output_is_sorted_and_complete(capsys):
    code, out, _ = run_cli(capsys, "deps", CORE, "--ident", "lib://toyhol?core?t")
    assert code == 0
    got = out.splitlines()
    assert got == sorted(got)
    assert "lib://toyhol?core?p" in got
    assert "lib://toyhol?core?fq" in got


def test_used_by_with_kind_filter(capsys):
    code, out, _ = run_cli(
        capsys, "used-by", CORE, "--ident", "lib://toyhol?core?q", "--kind", "theorem"
    )
    assert code == 0
    assert out.splitlines() == ["lib://toyhol?core?t"]


def test_query_on_unknown_ident_is_exit_2(capsys):
    assert run_cli(capsys, "deps", CORE, "--ident", "lib://toyhol?core?nope")[0] == 2


def test_query_on_malformed_ident_is_exit_2(capsys):
    assert run_cli(capsys, "deps", CORE, "--ident", "not-an-ident")[0] == 2


# ---------------------------------------------------------------------------
# translate


def test_translate_fixture_matches_install(algebra_file, capsys):
    code, out, _ = run_cli(
        capsys,
        "translate",
        algebra_file,
        "--morphism",
        "lib://algebra?morphs?toInt",
        "--theorem",
        "lib://algebra?monoid?ee",
    )
    assert code == 0
    lib = algebra_library(morphisms=(TO_INT,))
    installed = install_morphism(lib, TO_INT)
    expected = next(d.tp for d in installed.decls if d.name.name == "toInt/ee")
    assert out.strip() == f"lib://algebra?monoid?ee : {format_term(expected)}"


def test_translate_identity_prints_the_statement_unchanged(tmp_path, capsys):
    base = algebra_library()
    ident_m = identity_morphism(base, theory_ident_of(base, "monoid"))
    lib = algebra_library(morphisms=(ident_m,))
    path = tmp_path / "ident.omdoc.xml"
    path.write_bytes(omdoc.serialize(lib))
    code, out, _ = run_cli(
        capsys,
        "translate",
        str(path),
        "--morphism",
        str(ident_m.name),
        "--theorem",
        "lib://algebra?monoid?ee",
    )
    assert code == 0
    original = next(
        d.tp
        for th in lib.theories
        for d in th.decls
        if str(d.name) == "lib://algebra?monoid?ee"
    )
    assert out.strip() == f"lib://algebra?monoid?ee : {format_term(original)}"


def theory_ident_of(lib, name):
    return next(th.name for th in lib.theories if th.name.name == name)


def test_translate_unknown_theorem_is_exit_2(algebra_file, capsys):
    code, _, _ = run_cli(
        capsys,
        "translate",
        algebra_file,
        "--morphism",
        "lib://algebra?morphs?toInt",
        "--theorem",
        "lib://algebra?monoid?nothing",
    )
    assert code == 2


def test_translate_unknown_morphism_is_exit_2(algebra_file, capsys):
    code, _, _ = run_cli(
        capsys,
        "translate",
        algebra_file,
        "--morphism",
        "lib://algebra?morphs?ghost",
        "--theorem",
        "lib://algebra?monoid?ee",
    )
    assert code == 2


def test_translate_broken_morphism_is_exit_1(tmp_path, capsys):
    from proofport.morphisms import Morphism

    bad = Morphism(
        Ident("lib://algebra", "morphs", "bad"),
        TO_INT.source,
        TO_INT.target,
        # op mapped to a unary constant: ill-typed assignment
        tuple(
            (c, t) if c.name != "op" else (c, Const(Ident("lib://algebra", "integers", "neg")))
            for c, t in TO_INT.assignments
        ),
    )
    lib = algebra_library(morphisms=(bad,))
    path = tmp_path / "bad.omdoc.xml"
    path.write_bytes(omdoc.serialize(lib))
    code, out, _ = run_cli(
        capsys,
        "translate",
        str(path),
        "--morphism",
        "lib://algebra?morphs?bad",
        "--theorem",
        "lib://algebra?monoid?ee",
    )
    assert code == 1
    assert any(row[0] == "failure" for row in lines(out))


# ---------------------------------------------------------------------------
# exports


def test_export_rdf_round_trips_and_records_status(tmp_path, capsys):
    out_path = tmp_path / "core.nt"
    code, _, _ = run_cli(capsys, "export-rdf", CORE, "--output", str(out_path))
    assert code == 0
    store = read_ntriples(out_path.read_bytes())
    lib, _ = import_toyhol(parse_toyhol(Path(CORE).read_bytes()))
    assert store == extract_triples(lib, checked=True)
    assert any(t.obj == "checked" for t in store if t.literal)


def test_export_rdf_skip_check_is_unchecked(tmp_path, capsys):
    out_path = tmp_path / "core.nt"
    code, _, _ = run_cli(
        capsys, "export-rdf", CORE, "--output", str(out_path), "--skip-check"
    )
    assert code == 0
    store = read_ntriples(out_path.read_bytes())
    assert any(t.obj == "unchecked" for t in store if t.literal)


def test_source_dir_recovers_references(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "bits.hol").write_text("q irrelevant\nc : bool\nidb := [x] x\n")
    out_path = tmp_path / "out.omdoc.xml"
    code, _, _ = run_cli(
        capsys,
        "export-omdoc",
        MINIMAL,
        "--source-dir",
        str(src),
        "--output",
        str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert '<srcref file="bits.hol" sl="2" sc="1"' in text


def test_non_utf8_source_file_is_exit_2_naming_the_file(tmp_path, capsys):
    src = tmp_path / "src"
    (src / "sub").mkdir(parents=True)
    (src / "sub" / "bad.hol").write_bytes(b"\xff\xfe c : bool\n")
    code, _, err = run_cli(capsys, "check", CORE, "--source-dir", str(src))
    assert code == 2
    assert err.startswith("error: sub/bad.hol: 'utf-8' codec can't decode")


# ---------------------------------------------------------------------------
# config plumbing


def test_flag_parsing_maps_to_config():
    cfg = parse_cli(
        [
            "check",
            "in.json",
            "--no-eta",
            "--include-proof-uses",
            "--reduction-budget",
            "7",
            "--source-dir",
            "src",
            "--allow-empty",
        ]
    )
    assert cfg.checker.eta_enabled is False
    assert cfg.include_proof_uses is True
    assert cfg.checker.reduction_budget == 7
    assert cfg.source_dir == "src"
    assert cfg.allow_empty is True


@pytest.fixture()
def reducing_file(tmp_path):
    # h's definiens applies g, whose type is the defined constant arr;
    # finding the Pi behind arr costs one delta step
    ns = "lib://budget"

    def i(n):
        return Ident(ns, "m", n)

    tm_bool = Apply(Const(Ident("lib://logics", "holChurch", "tm")),
                    Const(Ident("lib://logics", "holChurch", "bool'")))
    th = Theory(
        theory_ident(ns, "m"),
        meta_theory=Ident("lib://logics", "holChurch", "holChurch"),
        decls=(
            Declaration(i("k"), tp=tm_bool, meta=Metadata(kind="constant")),
            Declaration(i("arr"), tp=TypeKind(), definiens=Pi("x", tm_bool, tm_bool),
                        meta=Metadata(kind="definition")),
            Declaration(i("g"), tp=Const(i("arr")), meta=Metadata(kind="constant")),
            Declaration(i("h"), definiens=Apply(Const(i("g")), Const(i("k"))),
                        meta=Metadata(kind="definition")),
        ),
    )
    lib = Library(ns, (th,), deps=(logic_library(),))
    path = tmp_path / "budget.omdoc.xml"
    path.write_bytes(omdoc.serialize(lib))
    return str(path)


def test_env_budget_applies_and_flag_wins(reducing_file, capsys, monkeypatch):
    monkeypatch.setenv("OAF_REDUCTION_BUDGET", "0")
    code, out, _ = run_cli(capsys, "check", reducing_file)
    assert code == 1
    assert "ReductionDepthExceeded" in out
    code, _, _ = run_cli(capsys, "check", reducing_file, "--reduction-budget", "1")
    assert code == 0


def test_env_format_fills_the_flag(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "oddly.named"
    doc.write_bytes(Path(MINIMAL).read_bytes())
    assert run_cli(capsys, "check", str(doc))[0] == 2
    monkeypatch.setenv("OAF_FORMAT", "toyhol-json")
    assert run_cli(capsys, "check", str(doc))[0] == 0


def usage_error(capsys, *args) -> str:
    """The message of an argparse usage error, after checking its exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_env_format_outside_the_choices_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("OAF_FORMAT", "bogus")
    err = usage_error(capsys, "check", CORE)
    assert "--format" in err and "'bogus'" in err


def test_env_budget_that_is_not_a_number_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("OAF_REDUCTION_BUDGET", "abc")
    err = usage_error(capsys, "check", CORE)
    assert "--reduction-budget" in err and "'abc'" in err


def test_negative_budget_flag_is_a_usage_error(capsys):
    err = usage_error(capsys, "check", CORE, "--reduction-budget", "-5")
    assert "--reduction-budget" in err and "'-5'" in err


def test_negative_env_budget_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("OAF_REDUCTION_BUDGET", "-5")
    err = usage_error(capsys, "check", CORE)
    assert "--reduction-budget" in err and "'-5'" in err


@pytest.mark.parametrize(
    "var, flag",
    [
        ("OAF_ETA_ENABLED", "--eta"),
        ("OAF_INCLUDE_PROOF_USES", "--include-proof-uses"),
        ("OAF_ALLOW_EMPTY", "--allow-empty"),
    ],
)
def test_env_boolean_outside_the_spellings_is_a_usage_error(capsys, monkeypatch, var, flag):
    monkeypatch.setenv(var, "maybe")
    err = usage_error(capsys, "check", CORE)
    assert flag in err and "'maybe'" in err


def test_env_boolean_spellings(monkeypatch):
    for text, value in (("1", True), (" Yes ", True), ("on", True), ("OFF", False), ("no", False)):
        monkeypatch.setenv("OAF_ETA_ENABLED", text)
        assert parse_cli(["check", "in.json"]).checker.eta_enabled is value


# ---------------------------------------------------------------------------
# end to end


def test_pipeline_round_trip_is_byte_stable_and_fast(tmp_path, capsys):
    start = time.monotonic()
    first = tmp_path / "first.omdoc.xml"
    second = tmp_path / "second.omdoc.xml"
    assert run_cli(capsys, "check", CORE)[0] == 0
    assert run_cli(capsys, "export-omdoc", CORE, "--output", str(first))[0] == 0
    assert run_cli(capsys, "check", str(first))[0] == 0
    assert run_cli(capsys, "export-omdoc", str(first), "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert time.monotonic() - start < 5.0


def test_module_is_runnable_as_a_script():
    proc = subprocess.run(
        [sys.executable, "-m", "proofport.cli", "check", CORE],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "total\tfailed\t0" in proc.stdout


def test_translate_output_uses_the_kernel_formatter(algebra_file, capsys):
    _, out, _ = run_cli(
        capsys,
        "translate",
        algebra_file,
        "--morphism",
        "lib://algebra?morphs?toInt",
        "--theorem",
        "lib://algebra?monoid?ee",
    )
    assert out.strip() == "lib://algebra?monoid?ee : ded (eq' (add zero zero) zero)"
