"""XML interchange: deterministic output, strict parsing, round-trips."""

import random
from pathlib import Path

import pytest

import generators
from test_morphisms import TO_INT, algebra_library

from proofport import omdoc
from proofport.encodings import hol_ident, logic_library
from proofport.errors import (
    DanglingIdent,
    Malformed,
    SchemaViolation,
    UnsupportedVersion,
)
from proofport.importers import import_toyhol, import_toyset, parse_toyhol, parse_toyset
from proofport.kernel import (
    Apply,
    Const,
    Declaration,
    DependsOn,
    Ident,
    Lambda,
    Library,
    Metadata,
    Pi,
    ProofTerm,
    SubIn,
    SubOut,
    SubType,
    Theory,
    TypeKind,
    Var,
    constants_of,
    theory_ident,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

NS = "lib://tiny"


def _lib(*decls, morphisms=()):
    th = Theory(theory_ident(NS, "t"), decls=tuple(decls))
    return Library(NS, (th,), tuple(morphisms), deps=(logic_library(),))


def _decl(name, **kw):
    kind = kw.pop("kind", "constant")
    return Declaration(Ident(NS, "t", name), meta=Metadata(kind=kind, **kw.pop("meta", {})), **kw)


def roundtrip(lib):
    data = omdoc.serialize(lib)
    back = omdoc.parse(data)
    assert back == lib
    assert omdoc.serialize(back) == data
    return data


# ---------------------------------------------------------------------------
# output shape


def test_empty_library_is_a_self_closing_root():
    data = omdoc.serialize(Library("lib://nothing"))
    assert data == b'<omdoc version="1" namespace="lib://nothing"/>\n'
    assert omdoc.parse(data) == Library("lib://nothing")
    assert omdoc.FILE_EXTENSION == ".omdoc.xml"


def test_serialization_is_deterministic():
    lib = generators.gen_library(random.Random(7))
    assert omdoc.serialize(lib) == omdoc.serialize(lib)


def test_application_spines_flatten():
    t = Apply(Apply(Apply(Const(hol_ident("tm")), Const(hol_ident("bool'"))), TypeKind()), Var(0))
    lib = _lib(_decl("a", tp=Lambda("v", TypeKind(), t)))
    data = omdoc.serialize(lib)
    text = data.decode()
    # one OMA with four children, not three nested binary nodes
    assert text.count("<OMA>") == 1
    assert omdoc.parse(data) == lib


def test_variable_hints_come_from_the_enclosing_binder():
    body = Apply(Apply(Var(0), Var(1)), Var(2))
    t = Lambda("outer", TypeKind(), Pi("mid", TypeKind(), Lambda("inner", TypeKind(), body)))
    data = omdoc.serialize(_lib(_decl("h", tp=t)))
    text = data.decode()
    assert '<OMV index="0" hint="inner"/>' in text
    assert '<OMV index="1" hint="mid"/>' in text
    assert '<OMV index="2" hint="outer"/>' in text


def test_shadowed_hints_use_the_innermost_binder():
    t = Lambda("x", TypeKind(), Lambda("x", TypeKind(), Apply(Var(0), Var(1))))
    text = omdoc.serialize(_lib(_decl("s", tp=t))).decode()
    assert '<OMV index="0" hint="x"/>' in text
    assert '<OMV index="1" hint="x"/>' in text


def test_every_term_constructor_round_trips():
    k = Const(hol_ident("bool'"))
    t = Lambda(
        "f",
        Pi("x", TypeKind(), TypeKind()),
        SubOut(SubIn(Apply(Var(0), k), SubType(TypeKind(), Lambda("p", k, Var(0))))),
    )
    roundtrip(_lib(_decl("all", tp=t)))


def test_attribute_escaping_round_trips():
    t = Lambda('a"b<c>&d', TypeKind(), Lambda("nl\nhint\ttab\rcr", TypeKind(), Var(1)))
    meta = {
        "comments": ("line one\nline two\r\ttabbed", 'quotes " & <angles>'),
        "notation": "⟨_, _⟩ & more",
    }
    data = roundtrip(_lib(_decl("esc", tp=t, meta=meta)))
    text = data.decode()
    assert "&#10;" in text and "&#9;" in text and "&#13;" in text
    assert "&quot;" in text and "&amp;" in text and "&lt;" in text


def test_empty_comment_and_notation_survive():
    lib = _lib(_decl("e", tp=TypeKind(), kind="type", meta={"comments": ("",), "notation": ""}))
    data = roundtrip(lib)
    assert b"<comment/>" in data and b"<notation/>" in data


def test_proof_styles_round_trip():
    from proofport.kernel import Omitted

    ax = _decl("ax", tp=TypeKind(), kind="axiom", proof=Omitted())
    th1 = _decl("th1", tp=TypeKind(), kind="theorem", proof=DependsOn((Ident(NS, "t", "ax"),)))
    th2 = _decl("th2", tp=TypeKind(), kind="theorem", proof=ProofTerm(Const(hol_ident("tm"))))
    th3 = _decl("th3", tp=TypeKind(), kind="theorem", proof=DependsOn(()))
    data = roundtrip(_lib(ax, th1, th2, th3))
    text = data.decode()
    assert '<proof style="omitted"/>' in text
    assert '<proof style="dependsOn">' in text
    assert '<proof style="dependsOn"/>' in text
    assert '<proof style="term">' in text


def test_morphisms_serialize_after_theories():
    lib = algebra_library(morphisms=(TO_INT,))
    data = roundtrip(lib)
    back = omdoc.parse(data)
    assert back.morphisms == (TO_INT,)
    text = data.decode()
    assert text.index("<theory") < text.index("<morphism")
    assert 'from="lib://algebra?monoid?monoid"' in text
    assert 'to="lib://algebra?integers?integers"' in text


def test_installed_theory_with_morphism_origin_round_trips():
    from proofport.morphisms import install_morphism

    base = algebra_library(morphisms=(TO_INT,))
    installed = install_morphism(base, TO_INT)
    lib = algebra_library(extra_theories=(installed,), morphisms=(TO_INT,))
    data = roundtrip(lib)
    assert f'origin="{TO_INT.name}"' in data.decode()


# ---------------------------------------------------------------------------
# fixtures through the importers


def _import_fixture(name):
    raw = (FIXTURES / name).read_bytes()
    if name.endswith(".json"):
        lib, report = import_toyhol(parse_toyhol(raw))
    else:
        lib, report = import_toyset(parse_toyset(raw))
    assert report.ok
    return lib


@pytest.mark.parametrize(
    "fixture", ["minimal.toyhol.json", "core.toyhol.json", "sets.toyset.xml"]
)
def test_imported_fixtures_round_trip_bytewise(fixture):
    roundtrip(_import_fixture(fixture))


def test_logic_library_round_trips():
    roundtrip(logic_library())


def test_broken_dep_fixture_parses_but_does_not_reserialize():
    raw = (FIXTURES / "broken-dep.omdoc.xml").read_bytes()
    lib = omdoc.parse(raw)
    assert len(lib.theories) == 1
    with pytest.raises(DanglingIdent, match="ghost"):
        omdoc.serialize(lib)


# ---------------------------------------------------------------------------
# generated round-trips


def _term_nodes(t):
    match t:
        case Apply(f, a):
            return 1 + _term_nodes(f) + _term_nodes(a)
        case Lambda(_, d, b) | Pi(_, d, b) | SubType(d, b) | SubIn(d, b):
            return 1 + _term_nodes(d) + _term_nodes(b)
        case SubOut(e):
            return 1 + _term_nodes(e)
        case _:
            return 1


def _library_term_nodes(lib):
    total = 0
    for th in lib.theories:
        for d in th.decls:
            for t in (d.tp, d.definiens):
                if t is not None:
                    total += _term_nodes(t)
            if isinstance(d.proof, ProofTerm):
                total += _term_nodes(d.proof.term)
    for m in lib.morphisms:
        for _, t in m.assignments:
            total += _term_nodes(t)
    return total


def test_generated_libraries_round_trip_100():
    for seed in range(100):
        lib = generators.gen_library(random.Random(seed))
        data = omdoc.serialize(lib)
        back = omdoc.parse(data)
        assert back == lib, f"seed {seed}: value changed"
        assert omdoc.serialize(back) == data, f"seed {seed}: bytes changed"


def test_serialized_size_is_linear_in_term_nodes():
    for seed in range(30):
        lib = generators.gen_library(random.Random(seed))
        data = omdoc.serialize(lib)
        term_elements = data.count(b"<OM")
        assert term_elements <= _library_term_nodes(lib)


def test_parsing_is_deterministic():
    data = omdoc.serialize(generators.gen_library(random.Random(11)))
    assert omdoc.parse(data) == omdoc.parse(data)


# ---------------------------------------------------------------------------
# strictness


MINIMAL = (
    b'<omdoc version="1" namespace="lib://tiny">\n'
    b'  <theory name="t">\n'
    b'    <constant name="a" kind="type">\n'
    b"      <type>\n"
    b'        <OMBIND binder="type"/>\n'
    b"      </type>\n"
    b"    </constant>\n"
    b"  </theory>\n"
    b"</omdoc>\n"
)


def test_minimal_handwritten_document_parses():
    lib = omdoc.parse(MINIMAL)
    assert lib.theories[0].decls[0].tp == TypeKind()
    assert omdoc.serialize(lib) == MINIMAL


def expect_schema(data, fragment):
    with pytest.raises(SchemaViolation) as err:
        omdoc.parse(data)
    assert fragment in str(err.value), str(err.value)


def test_unknown_element_is_named():
    expect_schema(MINIMAL.replace(b"constant", b"constannt"), "constannt")


def test_unknown_root_is_rejected():
    expect_schema(MINIMAL.replace(b"omdoc", b"document"), "document")


def test_unsupported_version():
    with pytest.raises(UnsupportedVersion):
        omdoc.parse(MINIMAL.replace(b'version="1"', b'version="2"'))


def test_missing_version_attribute():
    expect_schema(MINIMAL.replace(b'version="1" ', b""), "omdoc.version")


def test_unknown_attribute_is_rejected():
    expect_schema(MINIMAL.replace(b'name="t"', b'name="t" colour="red"'), "colour")


def test_text_content_is_rejected():
    expect_schema(MINIMAL.replace(b"<type>", b"<type>stray"), "text")


def test_duplicate_sections_are_rejected():
    doubled = MINIMAL.replace(
        b"      </type>\n",
        b'      </type>\n      <type>\n        <OMBIND binder="type"/>\n      </type>\n',
    )
    expect_schema(doubled, "duplicate")


def test_unknown_kind_is_rejected():
    expect_schema(MINIMAL.replace(b'kind="type"', b'kind="lemma"'), "kind")


def test_unknown_binder_is_rejected():
    expect_schema(MINIMAL.replace(b'binder="type"', b'binder="exists"'), "exists")


def test_variable_on_nullary_binder_is_rejected():
    expect_schema(MINIMAL.replace(b'binder="type"', b'binder="type" var="x"'), "var")


def _body(inner):
    return MINIMAL.replace(b'        <OMBIND binder="type"/>\n', inner)


def test_oma_needs_two_children():
    expect_schema(_body(b'        <OMA>\n          <OMV index="0"/>\n        </OMA>\n'), "OMA")


def test_binder_arity_is_enforced():
    expect_schema(
        _body(b'        <OMBIND binder="subout">\n          <OMV index="0"/>\n          <OMV index="1"/>\n        </OMBIND>\n'),
        "subout",
    )


OMBIND_PATH = "omdoc.theory[0].constant[0].type.OMBIND"


@pytest.mark.parametrize(
    "term, message",
    [
        # children first, then a variable where none is bound (an unknown
        # binder included), then the binder name, then the arity
        (b'<OMBIND binder="exists" var="x"><OMV index="-1"/></OMBIND>',
         f"{OMBIND_PATH}.OMV[0].index: negative index"),
        (b'<OMBIND binder="exists" var="x"/>',
         f"{OMBIND_PATH}.var: binder exists takes no variable"),
        (b'<OMBIND binder="exists"><OMV index="0"/></OMBIND>',
         f"{OMBIND_PATH}.binder: unknown binder 'exists'"),
        (b'<OMBIND binder="sub" var="y"><OMV index="0"/></OMBIND>',
         f"{OMBIND_PATH}.var: binder sub takes no variable"),
        (b'<OMBIND binder="lambda" var="x"><OMV index="0"/></OMBIND>',
         f"{OMBIND_PATH}: binder lambda takes 2 children"),
        (b'<OMBIND binder="subout"><OMV index="0"/><OMV index="1"/></OMBIND>',
         f"{OMBIND_PATH}: binder subout takes 1 children"),
        (b'<OMBIND binder="type"><OMV index="0"/></OMBIND>',
         f"{OMBIND_PATH}: binder type takes 0 children"),
    ],
)
def test_malformed_ombind_messages(term, message):
    with pytest.raises(SchemaViolation) as err:
        omdoc.parse(_body(b"        " + term + b"\n"))
    assert str(err.value) == message


def test_negative_variable_index_is_rejected():
    expect_schema(_body(b'        <OMV index="-1"/>\n'), "index")


def test_non_integer_variable_index_is_rejected():
    expect_schema(_body(b'        <OMV index="zero"/>\n'), "integer")


def test_hintless_variable_parses():
    lib = omdoc.parse(_body(b'        <OMV index="4"/>\n'))
    assert lib.theories[0].decls[0].tp == Var(4)


def test_malformed_identifier_is_rejected():
    expect_schema(_body(b'        <OMS name="no-separators"/>\n'), "identifier")


def test_theorem_without_proof_is_rejected():
    expect_schema(
        MINIMAL.replace(b'kind="type"', b'kind="theorem"'), "proof"
    )


def test_duplicate_dependencies_are_rejected():
    doc = MINIMAL.replace(b'kind="type"', b'kind="theorem"').replace(
        b"    </constant>\n",
        b'      <proof style="dependsOn">\n'
        b'        <ref name="lib://tiny?t?a"/>\n'
        b'        <ref name="lib://tiny?t?a"/>\n'
        b"      </proof>\n"
        b"    </constant>\n",
    )
    expect_schema(doc, "duplicates")


def test_unknown_proof_style_is_rejected():
    doc = MINIMAL.replace(b'kind="type"', b'kind="axiom"').replace(
        b"    </constant>\n",
        b'      <proof style="sketch"/>\n    </constant>\n',
    )
    expect_schema(doc, "sketch")


def test_srcref_positions_are_one_based():
    doc = MINIMAL.replace(
        b"    </constant>\n",
        b'      <metadata>\n        <srcref file="f" sl="0" sc="1" el="1" ec="1"/>\n      </metadata>\n    </constant>\n',
    )
    expect_schema(doc, "1-based")


def test_includes_after_constants_are_rejected():
    doc = MINIMAL.replace(
        b"  </theory>\n",
        b'    <include from="lib://tiny?t?t"/>\n  </theory>\n',
    )
    expect_schema(doc, "include")


def test_theory_after_morphism_is_rejected():
    doc = (
        b'<omdoc version="1" namespace="lib://tiny">\n'
        b'  <morphism name="lib://tiny?m?m" from="lib://tiny?t?t" to="lib://tiny?t?t"/>\n'
        b'  <theory name="t"/>\n'
        b"</omdoc>\n"
    )
    expect_schema(doc, "theory")


def test_truncated_document_is_malformed():
    with pytest.raises(Malformed):
        omdoc.parse(MINIMAL[: len(MINIMAL) // 2])


def test_invalid_utf8_is_malformed():
    with pytest.raises(Malformed):
        omdoc.parse(b"\xff\xfe" + MINIMAL)


def test_empty_input_is_malformed():
    with pytest.raises(Malformed):
        omdoc.parse(b"")


# ---------------------------------------------------------------------------
# referential integrity at serialization time


def test_dangling_constant_reference_is_refused():
    lib = _lib(_decl("a", tp=Const(Ident(NS, "t", "ghost"))))
    with pytest.raises(DanglingIdent, match="ghost"):
        omdoc.serialize(lib)


def test_dangling_include_is_refused():
    th = Theory(theory_ident(NS, "t"), includes=(theory_ident(NS, "missing"),))
    with pytest.raises(DanglingIdent, match="missing"):
        omdoc.serialize(Library(NS, (th,)))


def test_dangling_meta_theory_is_refused():
    th = Theory(theory_ident(NS, "t"), meta_theory=theory_ident("lib://other", "gone"))
    with pytest.raises(DanglingIdent, match="gone"):
        omdoc.serialize(Library(NS, (th,)))


def test_dangling_dependency_is_refused():
    d = _decl("th", tp=TypeKind(), kind="theorem", proof=DependsOn((Ident(NS, "t", "nowhere"),)))
    with pytest.raises(DanglingIdent, match="nowhere"):
        omdoc.serialize(_lib(d))


def test_dangling_morphism_endpoint_is_refused():
    from proofport.morphisms import Morphism

    m = Morphism(Ident(NS, "m", "f"), theory_ident(NS, "t"), theory_ident(NS, "absent"))
    with pytest.raises(DanglingIdent, match="absent"):
        omdoc.serialize(_lib(_decl("a", tp=TypeKind(), kind="type"), morphisms=(m,)))


def test_dangling_assignment_key_is_refused():
    from proofport.morphisms import Morphism

    m = Morphism(
        Ident(NS, "m", "f"),
        theory_ident(NS, "t"),
        theory_ident(NS, "t"),
        ((Ident(NS, "t", "phantom"), TypeKind()),),
    )
    with pytest.raises(DanglingIdent, match="phantom"):
        omdoc.serialize(_lib(_decl("a", tp=TypeKind(), kind="type"), morphisms=(m,)))


def test_the_first_dangling_reference_in_document_order_is_named():
    # "zeta" comes first in the document, "alpha" first in any sorted order
    zeta, alpha = Ident(NS, "t", "zeta"), Ident(NS, "t", "alpha")
    lib = _lib(
        _decl("a", tp=Apply(Const(zeta), Const(alpha))),
        _decl("b", tp=Const(alpha), kind="theorem",
              proof=DependsOn((Ident(NS, "t", "nowhere"),))),
    )
    with pytest.raises(DanglingIdent) as err:
        omdoc.serialize(lib)
    assert str(err.value) == str(zeta)


def test_serialize_resolves_each_distinct_reference_once(monkeypatch):
    lib = _import_fixture("core.toyhol.json")
    distinct: set = set()
    for th in lib.theories:
        for d in th.decls:
            for t in (d.tp, d.definiens, getattr(d.proof, "term", None)):
                if t is not None:
                    distinct.update(constants_of(t))
            distinct.update(getattr(d.proof, "ids", ()))
    calls = 0
    real = Library.find_decl

    def counting(self, ident):
        nonlocal calls
        calls += 1
        return real(self, ident)

    monkeypatch.setattr(Library, "find_decl", counting)
    data = omdoc.serialize(lib)
    assert data.count(b"<OMS ") > len(distinct)  # repeats exist to be skipped
    assert 0 < calls <= len(distinct)


def test_resolvable_references_pass_the_precheck():
    lib = _lib(_decl("a", tp=Apply(Const(hol_ident("tm")), Const(hol_ident("bool'")))))
    assert omdoc.parse(omdoc.serialize(lib)) == lib
