"""Command line: exit codes, report formats, end-to-end stability."""

import copy
import gc
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import argparse_reference
import generators
from test_importers import _bench_corpus, fixture_paths
from test_morphisms import DED, E, EQ, OP, SET, TO_INT, ZERO, _extension, _i, algebra_library

from proofport import cli, errors, kernel, omdoc
from proofport.cli import main, parse_cli, run
from proofport.encodings import FOL_SOFT, HOL_CHURCH, fol_ident, hol_ident, logic_library
from proofport.importers import import_toyhol, parse_toyhol, parse_toyset
from proofport.kernel import (
    KINDS,
    Apply,
    Const,
    Declaration,
    DependsOn,
    Ident,
    Lambda,
    Library,
    Metadata,
    Omitted,
    Pi,
    ProofTerm,
    Theory,
    TypeKind,
    Var,
    apps,
    flatten,
    format_term,
    replace,
    theory_ident,
)
from proofport.morphisms import Morphism, identity_morphism, install_morphism
from proofport.ontology import decl_edges, extract_triples, read_ntriples, triples, write_ntriples

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


def test_all_failing_import_prints_its_rows_then_hits_the_guard(tmp_path, capsys):
    raw = {
        "version": "1",
        "theories": [
            {"name": "t", "decls": [{"kind": "axiom", "name": "a", "type": {"name": "zzz"}}]}
        ],
    }
    doc = tmp_path / "allfail.toyhol.json"
    doc.write_text(json.dumps(raw))
    row = ("failure", "lib://toyhol?t?a", "UnknownIdent: zzz")
    out_file = tmp_path / "out.omdoc.xml"
    for command in (("check",), ("import", "--output", str(out_file))):
        code, out, err = run_cli(capsys, *command, str(doc))
        assert code == 2
        assert row in lines(out)
        assert err == f"error: {doc}: nonempty input produced zero declarations\n"
        assert not out_file.exists()
        code, out, _ = run_cli(capsys, *command, str(doc), "--allow-empty")
        assert code == 1
        assert row in lines(out)


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


@pytest.mark.parametrize("name, text, read, line, column, reason", [
    ("bad.toyhol.json", '{\n  "version": "1",\n  "theories": [,]\n}', parse_toyhol,
     3, 16, "Expecting value"),
    ("bad.toyset.xml", '<export version="1">\n  <theory name="t">\n</export>', parse_toyset,
     3, 3, "mismatched tag"),
    ("bad.omdoc.xml", '<omdoc version="1" namespace="lib://x">\n  <theory name="t" a="1" a="2"/>',
     omdoc.parse, 2, 26, "duplicate attribute"),
], ids=["toyhol", "toyset", "omdoc"])
def test_a_syntax_error_names_its_line_and_column_once(
    tmp_path, capsys, name, text, read, line, column, reason
):
    with pytest.raises(errors.Malformed) as exc:
        read(text.encode())
    assert (exc.value.line, exc.value.column) == (line, column)
    doc = tmp_path / name
    doc.write_text(text)
    assert run_cli(capsys, "check", str(doc)) == (
        2, "", f"error: line {line}, column {column}: {reason}\n"
    )


@pytest.mark.parametrize("text, key", [
    # the first list would be dropped silently if the last key won
    ('{"version": "1", "theories": [{"name": "t", "decls": [{"kind": "type", "name": "c"}],'
     ' "decls": [{"kind": "type", "name": "d"}]}]}', "decls"),
    ('{"version": "1", "version": "1", "theories": []}', "version"),
    ('{"version": "1", "theories": [{"name": "t", "decls": [{"kind": "type", "name": "c",'
     ' "name": "d"}]}]}', "name"),
])
def test_a_repeated_toyhol_key_is_exit_2_naming_it(tmp_path, capsys, text, key):
    doc = tmp_path / "repeat.toyhol.json"
    doc.write_text(text)
    out_file = tmp_path / "out.omdoc.xml"
    for command in (("check",), ("import", "--output", str(out_file))):
        code, out, err = run_cli(capsys, *command, str(doc))
        assert code == 2
        assert out == ""
        assert err == f"error: repeated key {key!r}\n"
        assert not out_file.exists()


def test_a_toyhol_integer_past_the_digit_limit_is_exit_2(tmp_path, capsys):
    # json.loads raises a plain ValueError here, not a JSONDecodeError; the
    # integer is spliced into the text, because json.dumps of it raises too
    doc = tmp_path / "long.toyhol.json"
    doc.write_text(Path(MINIMAL).read_text().replace('"line": 12', f'"line": {"1" * 5000}'))
    out_file = tmp_path / "out.omdoc.xml"
    for command in (("check",), ("import", "--output", str(out_file)), ("stats",),
                    ("export-omdoc", "--output", str(out_file))):
        assert run_cli(capsys, command[0], str(doc), *command[1:]) == (
            2, "", "error: an integer literal is too long\n"
        ), command
        assert not out_file.exists()


def test_an_omdoc_source_position_past_the_digit_limit_is_exit_2(tmp_path, capsys):
    lib = tmp_path / "lib.omdoc.xml"
    assert run_cli(capsys, "export-omdoc", MINIMAL, "--output", str(lib))[0] == 0
    lib.write_text(lib.read_text().replace('sl="12"', f'sl="{"1" * 5000}"'))
    assert run_cli(capsys, "check", str(lib)) == (
        2, "", "error: omdoc.theory[0].constant[2].metadata.srcref[0].sl: "
        "an integer literal is too long\n"
    )


def test_a_toyset_source_position_past_the_digit_limit_is_exit_2(tmp_path, capsys):
    doc = tmp_path / "long.toyset.xml"
    long = f'src="sets.mz:{"1" * 5000}:1"'
    doc.write_text(Path(SETS).read_text().replace('src="sets.mz:2:1"', long))
    assert run_cli(capsys, "check", str(doc)) == (
        2, "", "error: theory[0].decl[0].src: an integer literal is too long\n"
    )


@pytest.mark.parametrize("key", ["line", "col"])
def test_a_boolean_source_position_is_exit_2(tmp_path, capsys, key):
    # a JSON true is an int to isinstance, and once was read as line 1
    data = json.loads(Path(MINIMAL).read_text())
    data["theories"][0]["decls"][2]["src"][key] = True
    doc = tmp_path / "bool.toyhol.json"
    doc.write_text(json.dumps(data))
    out_file = tmp_path / "out.omdoc.xml"
    for command in (("check",), ("import", "--output", str(out_file))):
        assert run_cli(capsys, command[0], str(doc), *command[1:]) == (
            2, "", f"error: theories[0].decls[2].src.{key}: expected a positive integer\n"
        ), command
        assert not out_file.exists()


@pytest.mark.parametrize("name", ["lib.toyset.xml"])
def test_an_xml_parser_overflow_is_malformed_exit_2(tmp_path, capsys, monkeypatch, name):
    # what ElementTree raises on a document past its size limits; the
    # OMDoc reader feeds expat 64 KiB at a time and never meets them
    def overflow(text):
        raise OverflowError("size does not fit in an int")

    monkeypatch.setattr(errors.ET, "fromstring", overflow)
    with pytest.raises(errors.Malformed):
        errors.read_xml(b"<omdoc/>", "omdoc", (), "1")
    doc = tmp_path / name
    doc.write_text("<export/>")
    code, _, err = run_cli(capsys, "check", str(doc))
    assert code == 2
    assert "size does not fit in an int" in err


def test_unsupported_version_is_exit_2(tmp_path, capsys):
    doc = tmp_path / "v9.toyhol.json"
    doc.write_text('{"version": "9", "theories": []}')
    assert run_cli(capsys, "check", str(doc))[0] == 2


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert run_cli(capsys, "check", str(tmp_path / "absent.json"))[0] == 2


def _omdoc_theories(*theories: tuple[str, tuple[str, ...]]) -> bytes:
    """An OMDoc of namespace lib://x: each theory's constants are of type
    `tm bool'`, except that `bad` names a constant declared nowhere."""
    def constant(name):
        tp = "lib://x?t?undefined" if name == "bad" else "lib://logics?holChurch?bool'"
        return (f'<constant name="{name}" kind="constant"><type><OMA>'
                f'<OMS name="lib://logics?holChurch?tm"/><OMS name="{tp}"/>'
                f"</OMA></type></constant>")
    return (
        '<omdoc version="1" namespace="lib://x">'
        + "".join(f'<theory name="{t}" meta="lib://logics?holChurch?holChurch">'
                  + "".join(constant(c) for c in cs) + "</theory>" for t, cs in theories)
        + "</omdoc>"
    ).encode()


@pytest.mark.parametrize("command", [("check",), ("export-rdf", "--output", "out.nt")],
                         ids=["check", "export-rdf"])
@pytest.mark.parametrize("theories, where", [
    ((("t", ("c", "d", "c")),), "omdoc.theory[0].constant[2].name: duplicate declaration lib://x?t?c"),
    ((("t", ("c",)), ("u", ()), ("t", ("bad",))), "omdoc.theory[2].name: duplicate theory lib://x?t?t"),
], ids=["constant", "theory"])
def test_a_repeated_name_is_exit_2_naming_it(tmp_path, capsys, monkeypatch, command, theories, where):
    doc = tmp_path / "twice.omdoc.xml"
    doc.write_bytes(_omdoc_theories(*theories))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command[0], str(doc), *command[1:])
    assert (code, out, err) == (2, "", f"error: {where}\n")
    assert not (tmp_path / "out.nt").exists()


def _toyhol(*theories) -> str:
    return json.dumps({"version": "1", "theories": list(theories)})


def _toyset(body: str) -> str:
    return f'<export version="1">{body}</export>'


@pytest.mark.parametrize("name, text, where", [
    ("t.toyhol.json", _toyhol({"name": "t?u", "decls": []}),
     "theories[0].name: '?' in name 't?u'"),
    ("d.toyhol.json", _toyhol({"name": "t", "decls": [{"kind": "type", "name": "j?k"}]}),
     "theories[0].decls[0].name: '?' in name 'j?k'"),
    ("deps.toyhol.json", _toyhol({"name": "t", "decls": [
        {"kind": "axiom", "name": "a", "type": {"name": "eq"}},
        {"kind": "theorem", "name": "b", "type": {"name": "eq"}, "deps": ["a", "a"]}]}),
     "theories[0].decls[1].deps: repeated dependency 'a'"),
    ("t.toyset.xml", _toyset('<theory name="t?u"><constant name="c"/></theory>'),
     "theory[0].name: '?' in name 't?u'"),
    ("d.toyset.xml", _toyset('<theory name="t"><constant name="c"/>'
                             '<definition name="j?k"><value><const name="c"/></value></definition></theory>'),
     "theory[0].decl[1].name: '?' in name 'j?k'"),
    ("deps.toyset.xml", _toyset('<theory name="t"><constant name="c"/>'
                                '<axiom name="a"><in><const name="c"/><const name="c"/></in></axiom>'
                                '<theorem name="b" deps="a a"><in><const name="c"/><const name="c"/></in>'
                                '</theorem></theory>'),
     "theory[0].decl[2].deps: repeated dependency 'a'"),
], ids=["toyhol-theory", "toyhol-decl", "toyhol-deps", "toyset-theory", "toyset-decl", "toyset-deps"])
def test_a_separator_in_a_name_or_a_repeated_dependency_is_exit_2(tmp_path, capsys, name, text, where):
    doc = tmp_path / name
    doc.write_text(text)
    code, out, err = run_cli(capsys, "check", str(doc))
    assert (code, out, err) == (2, "", f"error: {where}\n")


@pytest.mark.parametrize("name, text, where", [
    ("twice.toyhol.json", _toyhol({"name": "a", "decls": []},
                                  {"name": "b", "includes": ["a", "a"], "decls": []}),
     "theories[1].includes[1]: duplicate include 'a'"),
    ("twice.toyset.xml", _toyset('<theory name="a"/><theory name="b" includes="a a"/>'),
     "theory[1].includes: duplicate include 'a'"),
    ("twice.omdoc.xml", '<omdoc version="1" namespace="lib://x"><theory name="a"/><theory name="b">'
                        '<include from="lib://x?a?a"/><include from="lib://x?a?a"/></theory></omdoc>',
     "omdoc.theory[1].include[1].from: duplicate include lib://x?a?a"),
], ids=["toyhol", "toyset", "omdoc"])
def test_a_repeated_include_is_exit_2_at_the_repeat(tmp_path, capsys, name, text, where):
    doc, written = tmp_path / name, tmp_path / "out.omdoc.xml"
    doc.write_text(text)
    code, out, err = run_cli(capsys, "export-omdoc", str(doc), "--output", str(written))
    assert (code, out, err) == (2, "", f"error: {where}\n")
    assert not written.exists()


def _every_string_doc() -> dict:
    """A toyhol document that imports cleanly and writes each kind of string the reader keeps."""
    eq_cc = {"app": [{"app": [{"name": "eq"}, {"name": "c"}]}, {"name": "c"}]}
    return {"version": "1", "theories": [
        {"name": "b", "decls": [{"kind": "type", "name": "i"}]},
        {"name": "t", "includes": ["b"], "decls": [
            {"kind": "constant", "name": "c", "type": "i", "notation": "c", "comment": "an i",
             "src": {"file": "t.hol", "line": 1, "col": 1}},
            {"kind": "definition", "name": "f",
             "definiens": {"abs": {"var": "x", "annot": "i", "body": {"name": "x"}}}},
            {"kind": "axiom", "name": "a", "type": eq_cc},
            {"kind": "theorem", "name": "p", "type": eq_cc, "deps": ["a"]},
        ]},
    ]}


# each kind of string the toyhol reader keeps, by its keys in the document
_STRING_SITES = {
    "theory": ("theories", 1, "name"),
    "include": ("theories", 1, "includes", 0),
    "decl": ("theories", 1, "decls", 0, "name"),
    "type": ("theories", 1, "decls", 0, "type"),
    "annot": ("theories", 1, "decls", 1, "definiens", "abs", "annot"),
    "var": ("theories", 1, "decls", 1, "definiens", "abs", "var"),
    "term": ("theories", 1, "decls", 2, "type", "app", 1, "name"),
    "deps": ("theories", 1, "decls", 3, "deps", 0),
    "file": ("theories", 1, "decls", 0, "src", "file"),
    "notation": ("theories", 1, "decls", 0, "notation"),
    "comment": ("theories", 1, "decls", 0, "comment"),
}


@pytest.mark.parametrize("char", ["\x01", "\ud800"], ids=["control", "surrogate"])
@pytest.mark.parametrize("site", _STRING_SITES)
def test_a_toyhol_string_xml_cannot_carry_is_exit_2_at_its_path(tmp_path, capsys, site, char):
    doc = tmp_path / "s.toyhol.json"
    raw = _every_string_doc()
    doc.write_text(json.dumps(raw))
    assert run_cli(capsys, "check", str(doc))[0] == 0
    *keys, last = _STRING_SITES[site]
    holder = raw
    for k in keys:
        holder = holder[k]
    holder[last] += char
    doc.write_text(json.dumps(raw))  # ASCII: JSON escapes the character
    where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in _STRING_SITES[site])[1:]
    message = f"error: {where}: character U+{ord(char):04X} is not allowed in XML\n"
    for command in ("check", "export-omdoc", "export-rdf", "stats"):
        out_file = tmp_path / ("out.nt" if command == "export-rdf" else "out.omdoc.xml")
        args = ("--output", str(out_file)) if command.startswith("export") else ()
        assert run_cli(capsys, command, str(doc), *args) == (2, "", message)
        assert not out_file.exists()


def test_an_astral_character_goes_through_export_omdoc_unchanged(tmp_path, capsys):
    raw = _every_string_doc()
    decl = raw["theories"][1]["decls"][0]
    for key in ("notation", "comment"):
        decl[key] += "\U0001F600"
    decl["src"]["file"] = "\U0001F600.hol"
    raw["theories"][0]["decls"].append({"kind": "type", "name": "j\U0001F600"})
    doc = tmp_path / "astral.toyhol.json"
    doc.write_text(json.dumps(raw))
    assert "\\ud83d\\ude00" in doc.read_text()  # an escaped surrogate pair
    first, second = tmp_path / "a.omdoc.xml", tmp_path / "b.omdoc.xml"
    assert run_cli(capsys, "export-omdoc", str(doc), "--output", str(first))[0] == 0
    assert run_cli(capsys, "export-omdoc", str(first), "--output", str(second))[0] == 0
    assert "\U0001F600" in first.read_text(encoding="utf-8")
    assert first.read_bytes() == second.read_bytes()


_EMPTY_LEAVES = {
    "include": "omdoc.theory[1].include[0]",
    "ref": "omdoc.theory[0].constant[2].proof.ref[0]",
    "srcref": "omdoc.theory[0].constant[0].metadata.srcref[0]",
}


@pytest.mark.parametrize("element", sorted(_EMPTY_LEAVES))
def test_text_inside_an_empty_omdoc_element_is_exit_2(tmp_path, capsys, element):
    # docs/omdoc.dtd declares include, ref and srcref EMPTY; whitespace stays legal
    source = tmp_path / "leaves.toyhol.json"
    source.write_text(json.dumps({"version": "1", "theories": [
        {"name": "a", "decls": [
            {"kind": "constant", "name": "p", "type": "bool",
             "src": {"file": "a.hol", "line": 1, "col": 1}},
            {"kind": "axiom", "name": "ax", "type": {"name": "p"}},
            {"kind": "theorem", "name": "t", "type": {"name": "p"}, "deps": ["ax"]},
        ]},
        {"name": "b", "includes": ["a"], "decls": [{"kind": "constant", "name": "q", "type": "bool"}]},
    ]}))
    lib, doc, out_file = (tmp_path / n for n in ("lib.omdoc.xml", "text.omdoc.xml", "out.omdoc.xml"))
    assert run_cli(capsys, "export-omdoc", str(source), "--output", str(lib))[0] == 0
    leaf = re.compile(f"(<{element} [^>]*)/>")
    assert len(leaf.findall(lib.read_text())) == 1
    for content in (" \n\t ", "stray", " stray "):
        doc.write_text(leaf.sub(lambda m: f"{m.group(1)}>{content}</{element}>", lib.read_text()))
        got = run_cli(capsys, "export-omdoc", str(doc), "--output", str(out_file))
        if content.isspace():
            assert got[0] == 0
            assert out_file.read_bytes() == lib.read_bytes()
            out_file.unlink()
        else:
            assert got == (2, "", f"error: {_EMPTY_LEAVES[element]}: unexpected text content\n")
            assert not out_file.exists()


def test_two_comments_go_through_export_omdoc_unchanged(tmp_path, capsys):
    hol = "lib://logics?holChurch?"
    doc = tmp_path / "comments.omdoc.xml"
    doc.write_text(
        f'<omdoc version="1" namespace="lib://notes"><theory name="t" meta="{hol}holChurch">'
        f'<constant name="c" kind="constant"><type><OMA><OMS name="{hol}tm"/>'
        f'<OMS name="{hol}bool\'"/></OMA></type><metadata><comment>first</comment>'
        "<comment>second &amp; last</comment></metadata></constant></theory></omdoc>"
    )
    first, second = tmp_path / "a.omdoc.xml", tmp_path / "b.omdoc.xml"
    assert run_cli(capsys, "export-omdoc", str(doc), "--output", str(first))[0] == 0
    assert run_cli(capsys, "export-omdoc", str(first), "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    (decl,) = omdoc.parse(first.read_bytes()).theories[0].decls
    assert decl.meta.comments == ("first", "second & last")
    assert first.read_text().count("<comment>") == 2


def test_a_pvar_arity_above_the_depth_limit_is_exit_2(tmp_path, capsys):
    def scheme(arity):
        args = '<const name="c"/>' * arity
        return _toyset(f'<theory name="t"><constant name="c"/><scheme name="s">'
                       f'<pvar name="P" arity="{arity}"/><papp name="P">{args}</papp></scheme></theory>')

    doc = tmp_path / "scheme.toyset.xml"
    doc.write_text(scheme(errors.MAX_DEPTH))
    for command in ("import", "check"):
        assert run_cli(capsys, command, str(doc))[0] == 0
    doc.write_text(scheme(errors.MAX_DEPTH + 1))
    code, out, err = run_cli(capsys, "check", str(doc))
    assert (code, out) == (2, "")
    assert err == f"error: theory[0].decl[1].scheme[0].arity: arity above {errors.MAX_DEPTH}\n"


def test_a_second_theory_of_one_name_is_not_left_unchecked(tmp_path, capsys):
    # each theory alone: the first checks, the second fails on `bad`
    for theories, want in (((("t", ("c",)),), 0), ((("t", ("bad",)),), 1)):
        doc = tmp_path / "one.omdoc.xml"
        doc.write_bytes(_omdoc_theories(*theories))
        assert run_cli(capsys, "check", str(doc))[0] == want
    doc.write_bytes(_omdoc_theories(("t", ("c",)), ("t", ("bad",))))
    code, out, err = run_cli(capsys, "check", str(doc))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "lib://x?t?t" in err


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


@pytest.mark.parametrize("name, text, row", [
    ("apply.toyset.xml",
     '<export version="1"><theory name="t"><constant name="a"/>'
     '<theorem name="x"><papp name="a"><const name="a"/></papp></theorem></theory></export>',
     ("failure", "lib://toyset?t?x", "NotAFunction: cannot apply a term of type set")),
    ("include.toyhol.json",
     '{"version": "1", "theories": [{"name": "t", "decls": ['
     '{"kind": "constant", "name": "c", "type": "bool"}]},'
     '{"name": "u", "includes": ["nope"], "decls": []}]}',
     ("failure", "lib://toyhol?u?u", "UnknownIdent: included theory nope")),
], ids=["kernel", "include"])
def test_import_and_check_print_the_same_failure_row(tmp_path, capsys, name, text, row):
    doc = tmp_path / name
    doc.write_text(text)
    for command in ("import", "check"):
        code, out, _ = run_cli(capsys, command, str(doc))
        assert code == 1
        assert [r for r in lines(out) if r[0] == "failure"] == [row]


ILL_TYPED_DEFINITIONS = _toyset(
    '<theory name="t"><constant name="s"/>'
    '<definition name="d1"><value><papp name="s"><const name="s"/></papp></value></definition>'
    '<definition name="d2"><value><in><const name="s"/><const name="s"/></in></value></definition>'
    '<definition name="dz"><value><const name="zz"/></value></definition>'
    '<definition name="d3" notation="D" comment="kept"><value><const name="s"/></value></definition>'
    "</theory>"
)


def test_a_definition_checks_its_value_as_a_set_and_expands_to_two_declarations(
    tmp_path, capsys
):
    doc = tmp_path / "definitions.toyset.xml"
    doc.write_text(ILL_TYPED_DEFINITIONS)
    written = tmp_path / "out.omdoc.xml"
    rows = [
        ("failure", "lib://toyset?t?d1",
         "Mismatch: argument 0 of lib://toyset?t?d1: cannot apply a term of type set"),
        ("failure", "lib://toyset?t?d2", "Mismatch: expected set, got prop"),
        ("failure", "lib://toyset?t?dz", "UnknownIdent: zz"),
    ]
    for argv in (["check", str(doc)], ["import", str(doc), "--output", str(written)]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (1, "")
        assert [r for r in lines(out) if r[0] == "failure"] == rows
    (theory,) = omdoc.parse(written.read_bytes()).theories
    d3 = Ident("lib://toyset", "t", "d3")
    fn, axiom = (Ident("lib://toyset", "t", f"d3/{part}") for part in ("fn", "def"))
    assert [d.name for d in theory.decls] == [Ident("lib://toyset", "t", "s"), fn, axiom]
    for decl in theory.decls[1:]:
        assert decl.meta == Metadata("patternInstance", comments=("kept",), notation="D", origin=d3)
    eq, ded = Const(fol_ident("eq'")), Const(fol_ident("ded"))
    assert theory.decls[2].tp == Apply(ded, apps(eq, Const(fn), Const(theory.decls[0].name)))


DANGLING_INCLUDE = (
    '<omdoc version="1" namespace="lib://x">'
    '<theory name="a" meta="lib://logics?holChurch?holChurch"><include from="lib://x?nope?nope"/>'
    '<constant name="c" kind="constant"><type><OMS name="lib://logics?holChurch?tp"/></type></constant>'
    '<constant name="d" kind="constant"><type><OMS name="lib://logics?holChurch?tp"/></type></constant>'
    '</theory><theory name="b" meta="lib://logics?holChurch?holChurch">'
    '<constant name="e" kind="constant"><type><OMS name="lib://logics?holChurch?tp"/></type></constant>'
    "</theory></omdoc>"
)


def test_a_dangling_include_is_one_classed_row_under_a_full_theory_line(tmp_path, capsys):
    doc = tmp_path / "dangling.omdoc.xml"
    doc.write_text(DANGLING_INCLUDE)
    assert run_cli(capsys, "check", str(doc)) == (1, (
        "theory\ta\tdeclarations\t2\tchecked\t0\tfailed\t1\tomitted\t0\tdependsOn\t0\tterm\t0\n"
        "failure\tlib://x?a?a\tUnknownIdent: include target lib://x?nope?nope not found\n"
        "theory\tb\tdeclarations\t1\tchecked\t1\tfailed\t0\tomitted\t0\tdependsOn\t0\tterm\t0\n"
        "total\tfailed\t1\n"
    ), "")


CHECK_ERRORS = {
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.CheckError)
}


def _failing_morphisms() -> Library:
    """The algebra library with four morphisms into the integers that
    fail their check: `stray` assigns a constant outside its source,
    `loose` an untyped one, `gappy` leaves `op` unassigned, and `bad`
    maps `op` to a unary constant."""
    untyped = Declaration(_i("loose", "k"), definiens=E, meta=Metadata(kind="definition"))
    loose = Theory(theory_ident("lib://algebra", "loose"), meta_theory=FOL_SOFT,
                   includes=(TO_INT.source,), decls=(untyped,))
    neg = Const(_i("integers", "neg"))
    return algebra_library(extra_theories=(loose,), morphisms=(
        Morphism(_i("morphs", "stray"), TO_INT.source, TO_INT.target,
                 TO_INT.assignments + ((neg.ident, neg),)),
        Morphism(_i("morphs", "loose"), loose.name, TO_INT.target,
                 TO_INT.assignments + ((untyped.name, ZERO),)),
        Morphism(_i("morphs", "gappy"), TO_INT.source, TO_INT.target, TO_INT.assignments[:1]),
        Morphism(_i("morphs", "bad"), TO_INT.source, TO_INT.target,
                 ((_i("monoid", "e"), ZERO), (_i("monoid", "op"), neg))),
    ))


def test_every_failure_row_starts_with_its_error_class(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    corpus = _bench_corpus()
    inputs = [CORE, MINIMAL, SETS, BROKEN]
    for name, (data, _) in [
        ("hol.toyhol.json", corpus.hol_corpus(1, 220)),  # planted UnificationFailures
        ("set.toyset.xml", corpus.set_corpus(1, 260)),  # planted NotAFunctions
        ("library.omdoc.xml", corpus.omdoc_corpus(1, 100, deep=20)),
    ]:
        (tmp_path / name).write_bytes(data)
        inputs.append(name)
    (tmp_path / "dangling.omdoc.xml").write_text(DANGLING_INCLUDE)
    lib = _failing_morphisms()
    (tmp_path / "morphs.omdoc.xml").write_bytes(omdoc.serialize(lib))
    inputs += ["dangling.omdoc.xml", "morphs.omdoc.xml"]
    runs = [(command, i, *extra) for i in inputs for command, *extra in
            (("check",), ("import",), ("export-rdf", "--output", "out.nt"))]
    runs += [("translate", "morphs.omdoc.xml", "--morphism", str(m.name),
              "--theorem", "lib://algebra?monoid?ee") for m in lib.morphisms]
    seen = set()
    for args in runs:
        for row in lines(run_cli(capsys, *args)[1]):
            if row[0] == "failure":
                head = re.match(r"(\w+): ", row[2])
                assert head and head[1] in CHECK_ERRORS, (args, row)
                seen.add(head[1])
    assert seen == {"UnificationFailure", "NotAFunction", "UnknownIdent", "NotTyped",
                    "UnassignedConstant", "Mismatch"}


@pytest.mark.parametrize("decls, rows", [
    ('<constant name="in"/><constant name="c"/>'
     '<axiom name="x"><in><const name="c"/><const name="in"/></in></axiom>', []),
    ('<constant name="c"/><axiom name="x"><forall var="and"><and>'
     '<in><var name="and"/><const name="c"/></in><in><const name="c"/><var name="and"/></in>'
     '</and></forall></axiom>', []),
    ('<constant name="c"/><scheme name="x"><pvar name="not"/>'
     '<not><papp name="not"><const name="c"/></papp></not></scheme>', []),
    ('<constant name="c"/><axiom name="x"><papp name="eq"><const name="c"/><const name="c"/></papp></axiom>',
     [("failure", "lib://toyset?t?x", "UnknownIdent: eq")]),
], ids=["constant", "bound-variable", "pvar", "papp"])
def test_a_name_that_equals_a_connective_is_read_as_a_name(tmp_path, capsys, decls, rows):
    doc = tmp_path / "names.toyset.xml"
    doc.write_text(_toyset(f'<theory name="t">{decls}</theory>'))
    code, out, err = run_cli(capsys, "import", str(doc))
    assert (code, [r for r in lines(out) if r[0] == "failure"], err) == (1 if rows else 0, rows, "")


def test_a_constant_keeps_the_type_of_the_theory_that_declares_it(tmp_path, capsys):
    # in d the written `j` is b's (the later include wins), but x and f keep a's `j`
    def defn(name, definiens, **tp):
        return {"kind": "definition", "name": name, **tp, "definiens": definiens}

    x, y, f = {"name": "x"}, {"name": "y"}, {"name": "f"}
    doc = tmp_path / "clash.toyhol.json"
    doc.write_text(_toyhol(
        {"name": "a", "decls": [{"kind": "type", "name": "j"},
                                {"kind": "constant", "name": "x", "type": "j"},
                                {"kind": "constant", "name": "f", "type": {"arrow": ["j", "bool"]}}]},
        {"name": "b", "decls": [{"kind": "type", "name": "j"},
                                {"kind": "constant", "name": "y", "type": "j"}]},
        {"name": "d", "includes": ["a", "b"], "decls": [
            defn("z", x, type="j"), defn("w", x), defn("v", {"app": [f, x]}),
            defn("u", {"app": [f, y]})]},
    ))
    out_path = tmp_path / "clash.omdoc.xml"
    code, out, _ = run_cli(capsys, "import", str(doc), "--output", str(out_path))
    assert code == 1
    assert [r for r in lines(out) if r[0] == "failure"] == [
        ("failure", "lib://toyhol?d?z",
         "Mismatch: expected tm lib://toyhol?b?j, got tm lib://toyhol?a?j"),
        ("failure", "lib://toyhol?d?u",
         "UnificationFailure: f: lib://toyhol?a?j vs lib://toyhol?b?j"),
    ]
    lib = omdoc.parse(out_path.read_bytes())
    tm = Const(hol_ident("tm"))
    assert [lib.find_decl(Ident("lib://toyhol", "d", n)).tp for n in ("w", "v")] == [
        Apply(tm, Const(Ident("lib://toyhol", "a", "j"))), Apply(tm, Const(hol_ident("bool'")))]


def test_check_and_export_rdf_of_an_import_check_each_declaration_once(tmp_path, capsys, monkeypatch):
    """`check` and `export-rdf` of toyhol or toyset input report the import's
    verdicts, so they check as many declarations as `import`; OMDoc input,
    read without a check, is checked in full."""
    calls = []
    check_declaration = kernel._check_declaration

    def counted(*args):
        calls.append(args)
        return check_declaration(*args)

    monkeypatch.setattr(kernel, "_check_declaration", counted)
    corpus = _bench_corpus()
    for name, (data, _) in (("hol.toyhol.json", corpus.hol_corpus(1, 220)),
                            ("set.toyset.xml", corpus.set_corpus(1, 260))):
        path = tmp_path / name
        path.write_bytes(data)
        exported = str(tmp_path / "export.omdoc.xml")
        counts = {}
        for args in (("import", str(path), "--output", exported), ("check", str(path)),
                     ("export-rdf", str(path), "--output", str(tmp_path / "out.nt")),
                     ("check", exported)):
            calls.clear()
            out = run_cli(capsys, *args)[1]
            counts[args[0], args[1]] = len(calls)
        declarations = sum(int(row[3]) for row in lines(out) if row[0] == "theory")
        assert counts["check", str(path)] == counts["export-rdf", str(path)] \
            == counts["import", str(path)] >= declarations > 0
        assert counts["check", exported] == declarations


@pytest.mark.parametrize("fixture", [CORE, MINIMAL, SETS], ids=lambda p: Path(p).name)
def test_check_of_an_import_equals_a_full_check_of_its_omdoc_export(tmp_path, capsys, fixture):
    """The import's verdicts that `check` reports agree with a full check of
    the same library read back from OMDoc."""
    exported = str(tmp_path / "a.omdoc.xml")
    assert run_cli(capsys, "export-omdoc", fixture, "--output", exported)[0] == 0
    assert run_cli(capsys, "check", fixture) == run_cli(capsys, "check", exported)


@pytest.mark.parametrize("fixture", [CORE, MINIMAL, SETS], ids=lambda p: Path(p).name)
def test_export_rdf_of_an_import_equals_export_rdf_of_its_omdoc_export(tmp_path, capsys, fixture):
    """`export-rdf` takes its check status from the import's report; a full
    check of the OMDoc export writes the same triples."""
    exported = str(tmp_path / "a.omdoc.xml")
    assert run_cli(capsys, "export-omdoc", fixture, "--output", exported)[0] == 0
    written = []
    for source in (fixture, exported):
        out_path = tmp_path / f"{len(written)}.nt"
        assert run_cli(capsys, "export-rdf", source, "--output", str(out_path))[0] == 0
        written.append(out_path.read_bytes())
    assert written[0] == written[1]
    assert any(t.obj == "checked" for t in read_ntriples(written[0]) if t.literal)


def test_export_rdf_of_an_import_with_failures_is_unchecked(tmp_path, capsys):
    """A failure the import dropped leaves the export unchecked, although
    every declaration that was kept passes."""
    data, _ = _bench_corpus().hol_corpus(1, 40)
    path = tmp_path / "hol.toyhol.json"
    path.write_bytes(data)
    lib, report = import_toyhol(parse_toyhol(data))
    assert not report.ok and lib.theories
    out_path = tmp_path / "hol.nt"
    run_cli(capsys, "export-rdf", str(path), "--output", str(out_path))
    store = read_ntriples(out_path.read_bytes())
    assert store == extract_triples(lib, checked=False)
    assert any(t.obj == "unchecked" for t in store if t.literal)


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


def test_used_by_kind_outside_the_declaration_kinds_is_a_usage_error(capsys):
    query = ("used-by", CORE, "--ident", "lib://toyhol?core?q", "--kind")
    err = usage_error(capsys, *query, "bogus")
    assert "--kind" in err and "'bogus'" in err
    for kind in KINDS:
        assert run_cli(capsys, *query, kind)[0] == 0


def test_query_on_unknown_ident_is_exit_2(capsys):
    assert run_cli(capsys, "deps", CORE, "--ident", "lib://toyhol?core?nope")[0] == 2


def test_query_on_malformed_ident_is_exit_2(capsys):
    assert run_cli(capsys, "deps", CORE, "--ident", "not-an-ident")[0] == 2


def _query_inputs(tmp_path, capsys) -> list[Path]:
    """Query inputs: the fixtures; the bench's omdoc corpus and its import
    corpora, as imported OMDoc with the corpus's morphism, at small N and
    seeds 1-3; generated dependency DAGs; and an algebra library with a
    `dependsOn` ref that names a morphism and two empty theories, one of
    them included."""
    paths = sorted(FIXTURES.iterdir())
    corpus = _bench_corpus()
    for seed in (1, 2, 3):
        path = tmp_path / f"omdoc{seed}.omdoc.xml"
        path.write_bytes(corpus.omdoc_corpus(seed, 60, deep=8)[0])
        paths.append(path)
        for make, name in ((corpus.hol_corpus, "hol.json"), (corpus.set_corpus, "set.toyset.xml")):
            data, man = make(seed, 40)
            source, imported = tmp_path / f"{seed}{name}", tmp_path / f"{seed}{name}.omdoc.xml"
            source.write_bytes(data)
            assert main(["import", str(source), "--output", str(imported)]) in (0, 1)
            paths.append(_views(imported, man))
    capsys.readouterr()
    libs = [generators.gen_dep_library(random.Random(seed), 40) for seed in range(3)]
    base, empty = (Theory(theory_ident("lib://algebra", name)) for name in ("base", "empty"))
    user = Theory(theory_ident("lib://algebra", "user"), meta_theory=FOL_SOFT,
                  includes=(theory_ident("lib://algebra", "monoid"), base.name), decls=(
                      Declaration(_i("user", "via"), tp=SET, proof=DependsOn((TO_INT.name,)),
                                  meta=Metadata(kind="theorem")),))
    libs.append(algebra_library((base, user, empty), (TO_INT,)))
    for k, lib in enumerate(libs):
        paths.append(tmp_path / f"lib{k}.omdoc.xml")
        paths[-1].write_bytes(omdoc.serialize(lib))
    return paths


def _query_starts(lib: Library, rng: random.Random) -> list[str]:
    """Starts that reach every case of the known-identifier rule: some
    declarations, every identifier that is only a target, every theory,
    include and meta-theory, an unknown name and a malformed one."""
    decls = [d.name for th in lib.theories for d in th.decls]
    targets = {t for th in lib.theories for d in th.decls for t in sum(decl_edges(d, True), ())}
    starts = set(rng.sample(decls, min(4, len(decls)))) | (targets - set(decls))
    for th in lib.theories:
        starts |= {th.name, *th.includes} | ({th.meta_theory} if th.meta_theory else set())
    return sorted(map(str, starts)) + [f"{lib.namespace}?nope?nope", "not-an-ident"]


def test_queries_answer_from_the_use_graph_as_from_the_triple_store(tmp_path, capsys, monkeypatch):
    # each input is read once; then the rest of `main` runs twice, the
    # second time on a store of the library's triples in place of its use
    # graph, as the queries ran before they walked the graph
    load, loaded = cli._load, {}

    def load_once(args):
        if args.input not in loaded:
            loaded[args.input] = load(args)
        return loaded[args.input]

    monkeypatch.setattr(cli, "_load", load_once)
    store = lambda lib, include_proof_uses: extract_triples(lib, include_proof_uses=include_proof_uses)
    kinds = itertools.cycle([()] + [("--kind", k) for k in KINDS])
    seen = {"codes": set(), "kinds": set(), "logics": 0}
    for path in _query_inputs(tmp_path, capsys):
        lib, _ = cli._load(parse_cli(["check", str(path)]))
        for ident in _query_starts(lib, random.Random(path.name)):
            seen["logics"] += ident.startswith("lib://logics?")
            for proof_uses in ("--include-proof-uses", "--no-include-proof-uses"):
                kind = next(kinds)
                seen["kinds"].add(kind)
                for argv in (["deps", str(path), "--ident", ident, proof_uses],
                             ["used-by", str(path), "--ident", ident, proof_uses, *kind]):
                    graph = run_cli(capsys, *argv)
                    with monkeypatch.context() as m:
                        m.setattr(cli, "UseGraph", store)
                        assert run_cli(capsys, *argv) == graph, argv
                    seen["codes"].add(graph[0])
    assert seen["codes"] == {0, 2} and len(seen["kinds"]) == len(KINDS) + 1 and seen["logics"]


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


def test_translate_through_a_definition_that_names_itself_is_exit_1(tmp_path, capsys):
    # the library is at fault, not the names given on the command line
    loop = _i("loopy", "loop")
    lib = _extension("loopy", (
        Declaration(loop, tp=SET, definiens=apps(OP, Const(loop), E),
                    meta=Metadata(kind="definition")),
        Declaration(_i("loopy", "about"), tp=Apply(DED, apps(EQ, Const(loop), Const(loop))),
                    proof=Omitted(), meta=Metadata(kind="axiom")),
    ))
    path = tmp_path / "loopy.omdoc.xml"
    path.write_bytes(omdoc.serialize(lib))
    code, out, err = run_cli(
        capsys, "translate", str(path),
        "--morphism", "lib://algebra?morphs?loopy", "--theorem", "lib://algebra?loopy?about",
    )
    assert (code, out) == (1, "")
    assert err == f"error: {loop} is used before its declaration\n"


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


@pytest.mark.parametrize("proof_uses", [False, True], ids=["uses", "proof-uses"])
def test_streamed_export_rdf_writes_the_store_of_distinct_triples(tmp_path, capsys, proof_uses):
    """`export-rdf` writes the triples as it extracts them, in chunks; the
    bytes are those of the store `extract_triples` builds, and no triple
    comes twice, so the store drops none. The benchmark's library spans two
    chunks."""
    paths = [str(p) for p in fixture_paths()]
    for seed in range(8):
        paths.append(str(tmp_path / f"gen{seed}.omdoc.xml"))
        Path(paths[-1]).write_bytes(omdoc.serialize(generators.gen_library(random.Random(seed))))
    paths.append(str(tmp_path / "bench.omdoc.xml"))
    Path(paths[-1]).write_bytes(_bench_corpus().omdoc_corpus(1, 700)[0])
    flags = ["--include-proof-uses"] if proof_uses else []
    out_path = tmp_path / "out.nt"
    for path in paths:
        lib, report = cli._load(parse_cli(["check", path]))
        for checked in (False, True):
            rows = list(triples(lib, checked, proof_uses))
            assert len(set(rows)) == len(rows), (path, checked)
            assert write_ntriples(rows) == write_ntriples(extract_triples(lib, checked, proof_uses))
        passes = report.ok if report is not None else all(
            r.ok for th_report in kernel.check_library(lib) for r in th_report.results)
        for skip in ([], ["--skip-check"]):
            code, out, err = run_cli(capsys, "export-rdf", path, "--output", str(out_path),
                                     *flags, *skip)
            want = write_ntriples(extract_triples(lib, passes and not skip, proof_uses))
            lines_written = want.count(b"\n")
            assert (code, out, err) == (0, f"written\t{out_path}\t{lines_written}\n", ""), path
            assert out_path.read_bytes() == want, (path, skip)
    assert lines_written > 4096


def test_export_rdf_of_an_include_cycle_leaves_the_output_file_as_it_was(tmp_path, capsys):
    hol = "lib://logics?holChurch?"
    doc = tmp_path / "cycle.omdoc.xml"
    doc.write_text('<omdoc version="1" namespace="lib://x">' + "".join(
        f'<theory name="{t}" meta="{hol}holChurch"><include from="lib://x?{u}?{u}"/>'
        f'<constant name="c" kind="constant"><type><OMS name="{hol}bool\'"/></type></constant>'
        "</theory>" for t, u in (("a", "b"), ("b", "a"))) + "</omdoc>")
    out_path = tmp_path / "out.nt"
    out_path.write_bytes(b"an earlier export\n")
    code, out, err = run_cli(capsys, "export-rdf", str(doc), "--output", str(out_path))
    assert (code, out) == (1, "")
    assert err == "error: include cycle: lib://x?a?a -> lib://x?b?b -> lib://x?a?a\n"
    assert out_path.read_bytes() == b"an earlier export\n"


@pytest.mark.parametrize("command", ["export-rdf", "export-omdoc"])
def test_an_output_in_a_missing_directory_is_exit_2_cannot_write(tmp_path, capsys, command):
    out_path = tmp_path / "absent" / "out"
    code, out, err = run_cli(capsys, command, CORE, "--output", str(out_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {out_path}: No such file or directory\n"
    assert not out_path.parent.exists()


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


def test_source_dir_that_is_no_directory_is_exit_2_saying_why(tmp_path, capsys):
    for path, problem in ((tmp_path / "absent", "does not exist"), (CORE, "is not a directory")):
        code, out, err = run_cli(capsys, "check", MINIMAL, "--source-dir", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: source directory {str(path)!r} {problem}\n"


def test_non_utf8_source_file_is_exit_2_naming_the_file(tmp_path, capsys):
    src = tmp_path / "src"
    (src / "sub").mkdir(parents=True)
    (src / "sub" / "bad.hol").write_bytes(b"\xff\xfe c : bool\n")
    code, _, err = run_cli(capsys, "check", CORE, "--source-dir", str(src))
    assert code == 2
    assert err.startswith("error: sub/bad.hol: 'utf-8' codec can't decode")


def test_an_unreadable_source_file_is_exit_2_naming_the_file(tmp_path, capsys, monkeypatch):
    # a file without read permission is readable for root, so the error is staged
    src = tmp_path / "src"
    (src / "sub").mkdir(parents=True)
    (src / "sub" / "locked.hol").write_text("c : bool\n")
    read_text = Path.read_text

    def refusing_read_text(path, *args, **kwargs):
        if path.name == "locked.hol":
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", refusing_read_text)
    code, out, err = run_cli(capsys, "check", CORE, "--source-dir", str(src))
    assert (code, out) == (2, "")
    assert err.startswith("error: sub/locked.hol: [Errno 13] Permission denied")


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
    """The message of a usage error, after checking its exit 2."""
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


def test_empty_source_dir_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # an empty path is the current directory, here one holding a non-UTF-8 file
    (tmp_path / "bad.bin").write_bytes(b"\xff\xfe c : bool\n")
    (tmp_path / "src").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("OAF_SOURCE_DIR", raising=False)
    err = usage_error(capsys, "check", MINIMAL, "--source-dir", "")
    assert "argument --source-dir: expected a directory path, got ''" in err
    monkeypatch.setenv("OAF_SOURCE_DIR", "")
    assert usage_error(capsys, "check", MINIMAL) == err
    # an explicit flag still wins over the empty preset
    code, out, err = run_cli(capsys, "check", MINIMAL, "--source-dir", "src")
    assert (code, err) == (0, "") and out


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


def _holchurch_file(tmp_path, ns: str, decls: tuple) -> str:
    """An OMDoc file of one holChurch theory `t` in namespace `ns`."""
    th = Theory(theory_ident(ns, "t"), meta_theory=HOL_CHURCH, decls=decls)
    path = tmp_path / f"{ns.removeprefix('lib://')}.omdoc.xml"
    path.write_bytes(omdoc.serialize(Library(ns, (th,), deps=(logic_library(),))))
    return str(path)


def _eta_file(tmp_path) -> str:
    """`k : fam F` defined as `h : fam ([x] F x)`, which checks only with eta."""
    ns = "lib://eta"
    f, fam, h, k = (Ident(ns, "t", n) for n in ("F", "fam", "h", "k"))
    tm_bool = Apply(Const(hol_ident("tm")), Const(hol_ident("bool'")))
    fn = Pi("x", tm_bool, tm_bool)
    decls = (
        Declaration(f, tp=fn, meta=Metadata(kind="constant")),
        Declaration(fam, tp=Pi("f", fn, TypeKind()), meta=Metadata(kind="type")),
        Declaration(h, tp=Apply(Const(fam), Lambda("x", tm_bool, Apply(Const(f), Var(0)))),
                    meta=Metadata(kind="constant")),
        Declaration(k, tp=Apply(Const(fam), Const(f)), definiens=Const(h),
                    meta=Metadata(kind="definition")),
    )
    return _holchurch_file(tmp_path, ns, decls)


def _proof_use_file(tmp_path) -> str:
    """A theorem whose proof term names an axiom its statement does not."""
    ns = "lib://proofuse"
    c, ax, thm = (Ident(ns, "t", n) for n in ("c", "ax", "thm"))
    stmt = Apply(Const(hol_ident("ded")),
                 apps(Const(hol_ident("eq")), Const(hol_ident("bool'")), Const(c), Const(c)))
    decls = (
        Declaration(c, tp=Apply(Const(hol_ident("tm")), Const(hol_ident("bool'"))),
                    meta=Metadata(kind="constant")),
        Declaration(ax, tp=stmt, meta=Metadata(kind="axiom")),
        Declaration(thm, tp=stmt, proof=ProofTerm(Const(ax)), meta=Metadata(kind="theorem")),
    )
    return _holchurch_file(tmp_path, ns, decls)


@pytest.fixture()
def presets(tmp_path, reducing_file):
    """Per OAF_* variable: a command whose result depends on the setting,
    the variable's value, the flag that says the same and a flag that differs."""
    odd = tmp_path / "oddly.named"
    odd.write_bytes(Path(MINIMAL).read_bytes())
    empty = tmp_path / "empty.toyhol.json"
    empty.write_text('{"version": "1", "theories": []}')
    src, nosrc = tmp_path / "src", tmp_path / "nosrc"
    src.mkdir()
    nosrc.mkdir()
    (src / "bits.hol").write_text("q irrelevant\nc : bool\nidb := [x] x\n")
    return {
        "OAF_FORMAT": (["check", str(odd)], "toyhol-json",
                       ["--format", "toyhol-json"], ["--format", "omdoc"]),
        "OAF_ETA_ENABLED": (["check", _eta_file(tmp_path)], "0", ["--no-eta"], ["--eta"]),
        "OAF_INCLUDE_PROOF_USES": (["stats", _proof_use_file(tmp_path)], "1",
                                   ["--include-proof-uses"], ["--no-include-proof-uses"]),
        "OAF_REDUCTION_BUDGET": (["check", reducing_file], "0",
                                 ["--reduction-budget", "0"], ["--reduction-budget", "1"]),
        "OAF_SOURCE_DIR": (["stats", MINIMAL], str(src),
                           ["--source-dir", str(src)], ["--source-dir", str(nosrc)]),
        "OAF_ALLOW_EMPTY": (["check", str(empty)], "1", ["--allow-empty"], ["--no-allow-empty"]),
    }


@pytest.mark.parametrize("var", [
    "OAF_FORMAT", "OAF_ETA_ENABLED", "OAF_INCLUDE_PROOF_USES",
    "OAF_REDUCTION_BUDGET", "OAF_SOURCE_DIR", "OAF_ALLOW_EMPTY",
])
def test_each_preset_acts_as_its_flag_and_an_explicit_flag_wins(capsys, monkeypatch, presets, var):
    argv, value, flag, other = presets[var]
    for name in presets:
        monkeypatch.delenv(name, raising=False)

    def outcome(*extra):
        return parse_cli([*argv, *extra]), run_cli(capsys, *argv, *extra)

    as_flag, as_other = outcome(*flag), outcome(*other)
    assert as_flag[1] != as_other[1]  # the command tells the two settings apart
    monkeypatch.setenv(var, value)
    assert outcome() == as_flag
    assert outcome(*other) == as_other


# ---------------------------------------------------------------------------
# the option table against the argparse parser it replaced

# per OAF_* variable, presets to try: good ones, bad ones and the empty one
_PRESETS = {
    "OAF_FORMAT": ("omdoc", "toyset-xml", "bogus", ""),
    "OAF_ETA_ENABLED": ("0", " Yes ", "maybe", ""),
    "OAF_INCLUDE_PROOF_USES": ("1", "off", "2"),
    "OAF_REDUCTION_BUDGET": ("7", "+3", " 12 ", "-5", "abc", ""),
    "OAF_SOURCE_DIR": ("src", ""),
    "OAF_ALLOW_EMPTY": ("yes", "NO", "maybe"),
}

# per flag, spellings of it (full, prefixes, some of them ambiguous for some
# commands) and values to give it; a switch or bare flag takes none
_SPELLINGS = {
    "--format": (("--format", "--form", "--f"), ("omdoc", "toyhol-json", "bogus", "")),
    "--reduction-budget": (("--reduction-budget", "--red", "--r"),
                           ("5", "0", "-5", "+2", "x", "1.5", "-.5")),
    "--source-dir": (("--source-dir", "--source", "--s"), ("src", "", "-1", "-x y")),
    "--output": (("--output", "--out", "--o"), ("out.xml", "-", "-3", "a b")),
    "--ident": (("--ident", "--ide", "--i"), ("lib://a?b?c", "-2")),
    "--kind": (("--kind", "--k"), ("theorem", "patternInstance", "bogus")),
    "--morphism": (("--morphism", "--morph", "--m"), ("lib://a?m?f",)),
    "--theorem": (("--theorem", "--theo", "--t"), ("lib://a?t?x",)),
    "--eta": (("--eta", "--e", "--no-eta", "--no-e"), ()),
    "--include-proof-uses": (("--include-proof-uses", "--inc", "--no-include-proof-uses",
                              "--no-i"), ()),
    "--allow-empty": (("--allow-empty", "--allow", "--no-allow-empty", "--no-a"), ()),
    "--skip-check": (("--skip-check", "--sk"), ()),
}
_NOISE = ("--bogus", "--no", "-x", "--bogus=1", "--eta=1", "--no-eta=", "--skip-check=x")
_FLAGS_OF = {
    "check": (), "import": ("--output",), "export-omdoc": ("--output",),
    "export-rdf": ("--output", "--skip-check"), "deps": ("--ident",),
    "used-by": ("--ident", "--kind"), "translate": ("--morphism", "--theorem"), "stats": (),
}
_COMMON_FLAGS = ("--format", "--eta", "--include-proof-uses", "--reduction-budget",
                 "--source-dir", "--allow-empty")


def _random_command_line(rng: random.Random) -> list[str]:
    """An argument list, mostly well formed, sometimes not in one of the ways
    a user gets wrong: a bad value, a missing one, a prefix, an unknown flag."""
    if rng.random() < 0.03:
        return rng.choice(([], ["-h"], ["--he"], ["bogus", "x"], ["--bogus"],
                           ["--bogus", "-h"], ["--bogus", "stats", "x"], ["-5"]))
    command = rng.choice(tuple(_FLAGS_OF))
    pieces = []
    flags = _COMMON_FLAGS + _FLAGS_OF[command]
    # the required options usually, and a few others
    for flag in _FLAGS_OF[command] + tuple(rng.sample(flags, rng.randint(0, 3))):
        if flag in ("--ident", "--morphism", "--theorem", "--output") and rng.random() < 0.1:
            continue  # a required one left out
        spellings, values = _SPELLINGS[flag]
        spelling = rng.choice(spellings) if rng.random() < 0.4 else spellings[0]
        if not values:
            pieces.append([spelling])
        elif rng.random() < 0.3:
            pieces.append([f"{spelling}={rng.choice(values)}"])
        else:
            pieces.append([spelling, rng.choice(values)])
    if rng.random() < 0.15:
        pieces.append([rng.choice(_NOISE)])
    if rng.random() < 0.04:
        pieces.append([rng.choice(("-h", "--help", "--he"))])
    inputs = rng.choice((["in.json"],) * 8 + ([], ["-7"], ["in.json", "extra"]))
    rng.shuffle(pieces)
    if inputs and rng.random() < 0.1:
        pieces.append(["--", *inputs])  # "--" then the input, last
    else:
        for token in inputs:
            pieces.insert(rng.randint(0, len(pieces)), [token])
    if rng.random() < 0.05 and pieces and len(pieces[-1]) == 2:
        pieces[-1] = pieces[-1][:1]  # a value left out
    return [command, *(token for piece in pieces for token in piece)]


# the converter messages, which must read as they did under argparse
_CONVERTER_MESSAGE = re.compile(
    r"proofport [\w-]+: error: argument --[\w/-]+: "
    r"(expected a nonnegative integer|expected a directory path|expected one of"
    r"|invalid choice: .* \(choose from \('toyhol-json').*"
)


def _parsed_or_exit(parse, argv, capsys):
    """`parse(argv)` as a dict, or its exit code and last line of stderr."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        return exc.code, capsys.readouterr().err.splitlines()[-1:]
    return vars(args)


def test_the_table_parses_as_argparse_did(capsys, monkeypatch, seed=0, cases=400):
    rng = random.Random(seed)
    tried = {"parsed": 0, "exit 0": 0, "exit 2": 0, "messages": 0}
    for _ in range(cases):
        argv = _random_command_line(rng)
        presets = rng.sample(tuple(_PRESETS), rng.choice((0, 0, 1, 2)))
        for var in _PRESETS:
            if var in presets:
                monkeypatch.setenv(var, rng.choice(_PRESETS[var]))
            else:
                monkeypatch.delenv(var, raising=False)
        want = _parsed_or_exit(argparse_reference.parse_cli, argv, capsys)
        got = _parsed_or_exit(parse_cli, argv, capsys)
        where = (argv, {var: os.environ[var] for var in presets})
        if isinstance(want, dict):
            assert got == want, where
            tried["parsed"] += 1
            continue
        assert isinstance(got, tuple) and got[0] == want[0], (where, want, got)
        tried[f"exit {want[0]}"] += 1
        if want[0] == 2 and _CONVERTER_MESSAGE.fullmatch(want[1][0]):
            assert got[1] == want[1], where
            tried["messages"] += 1
    # the lists reach every outcome
    assert all(tried.values()), tried


def test_help_exits_0_and_names_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: proofport ")
    assert set(_FLAGS_OF) <= set(out.split())
    for command, flags in _FLAGS_OF.items():
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and out.startswith(f"usage: proofport {command} ")
        words = set(out.replace(",", " ").split())
        switches = ("--eta", "--include-proof-uses", "--allow-empty")
        assert {"input", "-h", "--help", *_COMMON_FLAGS, *flags} <= words, command
        assert {f"--no-{flag[2:]}" for flag in switches} <= words, command


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


def test_the_readme_library_example_runs_verbatim():
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S)
    assert block, "README has no Library use example"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", block[1]], capture_output=True, text=True,
                          env=env, cwd=root)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_start_up_loads_no_dataclasses_inspect_or_fractions():
    # each of these costs every process milliseconds no command needs
    heavy = "{'dataclasses', 'inspect', 'fractions'}"
    code = f"import sys, proofport.cli; print(sorted({heavy} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_parsing_any_command_line_loads_no_argparse_gettext_or_locale():
    # argparse, with the gettext and locale it loads, cost each command milliseconds
    code = "\n".join((
        "import contextlib, io, sys",
        "from proofport.cli import COMMANDS, parse_cli",
        "lines = [[name, 'in.json', '--output=o', '--ident=i', '--morphism=m', '--theorem=t']",
        "         for name in COMMANDS] + [['check', '--bogus'], ['--help'], ['deps', '--help']]",
        "for argv in lines:",
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        "        try:",
        "            parse_cli(argv)",
        "        except SystemExit:",
        "            pass",
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))",
    ))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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


def _edited(rng, text: str) -> str:
    """`text` with a `?` inserted, or with its first word repeated."""
    if rng.random() < 0.5:
        at = rng.randint(0, len(text))
        return f"{text[:at]}?{text[at:]}"
    word = (text.split() or ["x"])[0]
    return f"{word} {text}"


def _xml_mutant(data: bytes, rng) -> bytes:
    """One to three element drops or duplications, attribute value swaps,
    attribute renames and value edits."""
    root = ET.fromstring(data)
    for _ in range(rng.randint(1, 3)):
        elems = list(root.iter())
        parent = {kid: elem for elem in elems for kid in elem}
        attrs = [(e, key) for e in elems for key in sorted(e.attrib)]
        e = rng.choice(elems)
        op = rng.randrange(5)
        if op == 0 and e in parent:
            parent[e].remove(e)
        elif op == 1 and e in parent:
            parent[e].insert(list(parent[e]).index(e), copy.deepcopy(e))
        elif op == 2 and attrs:
            (a, ka), (b, kb) = rng.choice(attrs), rng.choice(attrs)
            va, vb = a.get(ka), b.get(kb)
            a.set(ka, vb)
            b.set(kb, va)
        elif op == 3 and attrs:
            a, key = rng.choice(attrs)
            a.set(rng.choice(attrs)[1], a.attrib.pop(key))
        elif op == 4 and attrs:
            a, key = rng.choice(attrs)
            a.set(key, _edited(rng, a.get(key)))
    return ET.tostring(root, encoding="utf-8")


def _json_slots(doc):
    """(container, key) of every value below the top level."""
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        for key in keys:
            yield node, key
            stack.append(node[key])


# what a scalar mutation may write; the long integer is spliced into the text,
# because json.dumps of an int past the interpreter's digit limit raises
_LONG_INT = "<a 5,000-digit integer>"
_SCALARS = (True, False, None, -1, 0.5, _LONG_INT)


def _json_mutant(data: bytes, rng) -> bytes:
    """One to three value drops, list item duplications, value swaps, key
    renames, string edits and scalar replacements."""
    doc = json.loads(data)
    for _ in range(rng.randint(1, 3)):
        slots = list(_json_slots(doc))
        node, key = rng.choice(slots)
        op = rng.randrange(6)
        if op == 0:
            del node[key]
        elif op == 1 and isinstance(node, list):
            node.insert(key, copy.deepcopy(node[key]))
        elif op == 2:
            other, okey = rng.choice(slots)
            node[key], other[okey] = copy.deepcopy(other[okey]), copy.deepcopy(node[key])
        elif op == 3 and isinstance(node, dict):
            node[rng.choice([k for n, k in slots if isinstance(n, dict)])] = node.pop(key)
        elif op == 4 and isinstance(node[key], str):
            node[key] = _edited(rng, node[key])
        elif op == 5:
            node[key] = rng.choice(_SCALARS)
    return json.dumps(doc).replace(json.dumps(_LONG_INT), "1" * 5000).encode()


@pytest.mark.parametrize("fixture", [p.name for p in fixture_paths()])
def test_mutated_fixtures_end_in_an_exit_code_not_a_traceback(tmp_path, capsys, fixture):
    rng = random.Random(fixture)
    data = (FIXTURES / fixture).read_bytes()
    mutant = _json_mutant if fixture.endswith(".json") else _xml_mutant
    doc = tmp_path / fixture
    exported = tmp_path / "out.omdoc.xml"
    commands = (("check",), ("import", "--output", str(exported)),
                ("export-rdf", "--output", str(tmp_path / "out.nt")))
    codes = set()
    for _ in range(100):
        text = bytearray(mutant(data, rng))
        if rng.random() < 0.3:
            for _ in range(rng.randint(1, 3)):
                text[rng.randrange(len(text))] ^= 1 << rng.randrange(8)
        doc.write_bytes(text)
        exported.unlink(missing_ok=True)
        for command in commands:
            code, _, _ = run_cli(capsys, command[0], str(doc), *command[1:])
            assert code in (0, 1, 2), (command, bytes(text))
            codes.add(code)
            if command[0] == "import" and exported.exists():
                # what an import writes, the OMDoc reader takes back
                assert run_cli(capsys, "check", str(exported))[0] in (0, 1), bytes(text)
    assert 2 in codes and codes & {0, 1}


# ---------------------------------------------------------------------------
# the collector policy and a pipeline without reference cycles


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("args, code", [
    (("stats", CORE), 0),
    (("check", BROKEN), 1),
    (("deps", CORE, "--ident", "lib://toyhol?core?nope"), 2),
], ids=["exit-0", "exit-1", "exit-2"])
def test_main_pauses_the_collector_and_restores_the_callers_setting(
    capsys, monkeypatch, enabled, args, code
):
    during = []

    def recording_run(cfg, out):
        during.append(gc.isenabled())
        return run(cfg, out)

    monkeypatch.setattr(cli, "run", recording_run)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run_cli(capsys, *args)[0] == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False]


def test_an_include_chain_deeper_than_the_recursion_limit_checks(tmp_path, capsys):
    depth = sys.getrecursionlimit() + 200
    doc = tmp_path / "chain.omdoc.xml"
    doc.write_text(
        '<omdoc version="1" namespace="lib://x">'
        + "".join(
            f'<theory name="t{k}" meta="lib://logics?holChurch?holChurch">'
            + (f'<include from="lib://x?t{k - 1}?t{k - 1}"/>' if k else "")
            + f'<constant name="c{k}" kind="constant"><type><OMA>'
            '<OMS name="lib://logics?holChurch?tm"/><OMS name="lib://logics?holChurch?bool\'"/>'
            "</OMA></type></constant></theory>"
            for k in range(depth)
        )
        + "</omdoc>"
    )
    code, out, err = run_cli(capsys, "check", str(doc))
    assert (code, err) == (0, "")
    rows = lines(out)
    assert len(rows) == depth + 1 and rows[-1] == ("total", "failed", "0")
    assert rows[-2][:6] == ("theory", f"t{depth - 1}", "declarations", "1", "checked", "1")


def _nested_definiens_file(tmp_path, depth: int) -> str:
    """A compact OMDoc file whose `d` applies `f` `depth` times to `c0`."""
    def oms(name):
        return f'<OMS name="{name}"/>'

    hol = "lib://logics?holChurch?"
    prop = oms(hol + "bool'")
    tm_bool = f"<OMA>{oms(hol + 'tm')}{prop}</OMA>"
    fn_type = f"<OMA>{oms(hol + 'tm')}<OMA>{oms(hol + 'arrow')}{prop}{prop}</OMA></OMA>"
    apply_f = f"<OMA>{oms(hol + 'app')}{prop}{prop}{oms('lib://x?t?f')}"
    path = tmp_path / f"nested{depth}.omdoc.xml"
    path.write_text(
        f'<omdoc version="1" namespace="lib://x"><theory name="t" meta="{hol}holChurch">'
        f'<constant name="f" kind="constant"><type>{fn_type}</type></constant>'
        f'<constant name="c0" kind="constant"><type>{tm_bool}</type></constant>'
        f'<constant name="d" kind="definition"><type>{tm_bool}</type><definition>'
        + apply_f * depth + oms("lib://x?t?c0") + "</OMA>" * depth
        + "</definition></constant></theory></omdoc>"
    )
    return str(path)


@pytest.mark.parametrize("command", [
    ("deps", "--ident", "lib://x?t?d"),
    ("used-by", "--ident", "lib://x?t?f"),
    ("stats",),
    ("export-rdf", "--skip-check", "--output"),
], ids=["deps", "used-by", "stats", "export-rdf-skip-check"])
def test_rdf_path_commands_take_a_term_nested_past_the_recursion_limit(tmp_path, capsys, command):
    # 3,000 applications deep, the definiens answers as it does 3 deep
    out_file = tmp_path / "out.nt"
    name, *rest = command + (str(out_file),) if command[-1] == "--output" else command
    results = []
    for depth in (3, 3000):
        code, out, err = run_cli(capsys, name, _nested_definiens_file(tmp_path, depth), *rest)
        written = out_file.read_bytes() if out_file.exists() else None
        results.append((code, out, err, written))
    assert results[0][0] == 0 and results[0][1]
    assert results[1] == results[0]


def _cyclic_garbage(argv: list[str]) -> int:
    """Run one command in process with the collector off, as `main` runs
    it, and count the objects that only the collector could free."""
    cfg = parse_cli(argv)
    gc.collect()
    try:
        run(cfg, io.StringIO())
    except errors.ProofportError:
        pass
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        return gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _every_command(path, out: Path, ident="lib://x?t?c", morphism="lib://x?m?m", theorem=None):
    """One argv per command on `path`; the outputs are written to `out`."""
    return [
        ["check", path],
        ["import", path, "--output", str(out / "import.omdoc.xml")],
        ["export-omdoc", path, "--output", str(out / "export.omdoc.xml")],
        ["export-rdf", path, "--output", str(out / "export.nt")],
        ["deps", path, "--ident", ident],
        ["used-by", path, "--ident", ident],
        ["translate", path, "--morphism", morphism, "--theorem", theorem or ident],
        ["stats", path],
    ]


def _gap_library() -> Library:
    """A morphism with an unassigned constant `u`, which the type of the
    assigned constant `k` uses: checking `k` raises the error stored for `u`."""
    u, k = _i("gap", "u"), _i("gap", "k")
    lib = _extension("gap", (
        Declaration(u, tp=SET, meta=Metadata(kind="constant")),
        Declaration(k, tp=Apply(DED, apps(EQ, Const(u), E)), meta=Metadata(kind="constant")),
    ))
    m = lib.morphisms[0]
    return replace(lib, morphisms=(replace(m, assignments=m.assignments + ((k, ZERO),)),))


def _loopy_library() -> Library:
    """A definition that names itself: translating `about` raises the
    error stored for `loop`."""
    loop = _i("loopy", "loop")
    return _extension("loopy", (
        Declaration(loop, tp=SET, definiens=apps(OP, Const(loop), E),
                    meta=Metadata(kind="definition")),
        Declaration(_i("loopy", "about"), tp=Apply(DED, apps(EQ, Const(loop), Const(loop))),
                    proof=Omitted(), meta=Metadata(kind="axiom")),
    ))


def _views(imported: Path, man: dict) -> Path:
    """The bench's library for the downstream commands: the import's
    output with the corpus's morphism appended."""
    head, sep, _ = imported.read_text(encoding="utf-8").rpartition("</omdoc>")
    views = imported.with_name("views-" + imported.name)
    views.write_text(head + "\n".join(man["morphism"]["xml"]) + "\n" + sep + "\n", encoding="utf-8")
    return views


FAILING_INPUTS = {
    "mixed.toyhol.json": _toyhol({"name": "m", "decls": [
        {"kind": "constant", "name": "good", "type": "bool"},
        {"kind": "definition", "name": "bad",
         "definiens": {"app": [{"name": "good"}, {"name": "good"}]}},
        {"kind": "axiom", "name": "eqs", "type": {"app": [{"name": "eq"}, {"name": "good"}]}},
    ]}, {"name": "u", "includes": ["nope"], "decls": []}),
    "allfail.toyhol.json": _toyhol({"name": "t", "decls": [
        {"kind": "axiom", "name": "a", "type": {"name": "zzz"}}]}),
    "apply.toyset.xml": _toyset('<theory name="t"><constant name="a"/><theorem name="x">'
                                '<papp name="a"><const name="a"/></papp></theorem></theory>'),
    "truncated.toyhol.json": '{"version": "1", "theories": [',
    "truncated.omdoc.xml": '<omdoc version="1" namespace="lib://x"><theory',
    # a schema fault with elements after it: the reader stops there and reads on for syntax
    "bogus-kind.omdoc.xml": '<omdoc version="1" namespace="lib://x"><theory name="t">'
                            '<constant name="c" kind="bogus"><type><OMBIND binder="type"/></type></constant>'
                            '<constant name="d" kind="type"/></theory><theory name="u"/></omdoc>',
}


def test_no_command_leaves_cyclic_garbage(tmp_path):
    argvs = [a for p in fixture_paths() for a in _every_command(str(p), tmp_path)]
    argvs += _every_command(CORE, tmp_path, ident="lib://toyhol?core?q")
    for lib, theorem in ((_gap_library(), "lib://algebra?gap?k"),
                         (_loopy_library(), "lib://algebra?loopy?about")):
        path = tmp_path / f"{lib.morphisms[0].name.name}.omdoc.xml"
        path.write_bytes(omdoc.serialize(lib))
        argvs += _every_command(str(path), tmp_path, theorem, str(lib.morphisms[0].name))
    for name, text in FAILING_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        argvs += _every_command(str(tmp_path / name), tmp_path)
    corpus = _bench_corpus()
    bench = []
    for make, n, name in ((corpus.hol_corpus, 220, "hol.json"),
                          (corpus.set_corpus, 260, "set.toyset.xml")):
        data, man = make(7, n)
        (tmp_path / name).write_bytes(data)
        bench.append((tmp_path / name, man))

    found: dict[str, int] = {}

    def count(argv: list[str]) -> None:
        n = _cyclic_garbage(argv)
        if n:
            found[" ".join(argv)] = n

    was = gc.isenabled()
    gc.disable()
    try:
        for argv in argvs:
            count(argv)
        for path, man in bench:
            imported = path.with_name(path.name + ".omdoc.xml")
            count(["import", str(path), "--output", str(imported)])
            morph = man["morphism"]
            for argv in _every_command(str(_views(imported, man)), tmp_path,
                                       man["queries"]["deps"][0], morph["name"], morph["theorem"]):
                count(argv)
    finally:
        if was:
            gc.enable()
    assert found == {}
