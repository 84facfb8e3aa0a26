"""XML interchange: deterministic output, strict parsing, round-trips."""

import collections
import copy
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import generators
from test_importers import _bench_corpus, fixture_paths
from test_morphisms import TO_INT, algebra_library

from proofport import omdoc
from proofport.encodings import hol_ident, logic_library
from proofport.errors import (
    DanglingIdent,
    FormatError,
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
    check_library,
    constants_of,
    replace,
    Term,
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


def test_a_binder_in_a_domain_does_not_hint_the_body():
    t = Lambda("outer", Pi("inner", TypeKind(), Var(0)), Var(0))
    text = omdoc.serialize(_lib(_decl("d", tp=t))).decode()
    assert (
        '<type><OMBIND binder="lambda" var="outer"><OMBIND binder="pi" var="inner">'
        '<OMBIND binder="type"/><OMV index="0" hint="inner"/></OMBIND>'
        '<OMV index="0" hint="outer"/></OMBIND></type>'
    ) in text


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


# fixtures/broken-dep.omdoc.xml as the writer lays it out now: each term
# on its wrapper's line
BROKEN_DEP_COMPACT = (
    b'<omdoc version="1" namespace="lib://frag">\n'
    b'  <theory name="frag" meta="lib://logics?holChurch?holChurch">\n'
    b'    <constant name="c" kind="constant">\n'
    b'      <type><OMA><OMS name="lib://logics?holChurch?tm"/>'
    b'<OMS name="lib://logics?holChurch?bool\'"/></OMA></type>\n'
    b"    </constant>\n"
    b'    <constant name="t" kind="theorem">\n'
    b'      <type><OMA><OMS name="lib://logics?holChurch?ded"/><OMA>'
    b'<OMS name="lib://logics?holChurch?eq"/><OMS name="lib://logics?holChurch?bool\'"/>'
    b'<OMS name="lib://frag?frag?c"/><OMS name="lib://frag?frag?c"/></OMA></OMA></type>\n'
    b'      <proof style="dependsOn">\n'
    b'        <ref name="lib://frag?frag?ghost"/>\n'
    b"      </proof>\n"
    b"    </constant>\n"
    b"  </theory>\n"
    b"</omdoc>\n"
)


def test_an_old_layout_document_reads_as_its_compact_rewrite():
    old = (FIXTURES / "broken-dep.omdoc.xml").read_bytes()
    assert old != BROKEN_DEP_COMPACT
    assert omdoc.parse(old) == omdoc.parse(BROKEN_DEP_COMPACT)


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


def _library_terms(lib):
    for th in lib.theories:
        for d in th.decls:
            yield from (t for t in (d.tp, d.definiens) if t is not None)
            if isinstance(d.proof, ProofTerm):
                yield d.proof.term
    for m in lib.morphisms:
        yield from (t for _, t in m.assignments)


def _occurrences(lib):
    """Every subterm occurrence in the library's terms."""
    stack = list(_library_terms(lib))
    while stack:
        t = stack.pop()
        yield t
        match t:
            case Apply(x, y) | Lambda(_, x, y) | Pi(_, x, y) | SubType(x, y) | SubIn(x, y):
                stack += (x, y)
            case SubOut(e):
                stack.append(e)


def _shareable_documents():
    """Serializer output: the fixtures' prover exports and generated libraries."""
    docs = [omdoc.serialize(_import_fixture(p.name)) for p in fixture_paths()
            if not p.name.endswith(omdoc.FILE_EXTENSION)]
    docs += [omdoc.serialize(generators.gen_library(random.Random(seed))) for seed in range(60)]
    return docs


def test_equal_subterms_with_equal_hints_parse_to_one_object():
    # repr shows the hints, which == ignores
    shared = 0
    for data in _shareable_documents():
        by_repr: dict[str, set[int]] = collections.defaultdict(set)
        occurrences = 0
        for t in _occurrences(omdoc.parse(data)):
            by_repr[repr(t)].add(id(t))
            occurrences += 1
        assert all(len(ids) == 1 for ids in by_repr.values())
        shared += occurrences - len(by_repr)
    assert shared
    lam = Lambda("x", TypeKind(), Var(0))
    lib = omdoc.parse(omdoc.serialize(_lib(
        _decl("a", tp=Pi("_", lam, lam)),
        _decl("b", tp=Pi("_", Lambda("y", TypeKind(), Var(0)), lam)),
    )))
    a, b = (d.tp for d in lib.theories[0].decls)
    assert a.dom is a.cod is b.cod
    assert b.dom == a.dom and b.dom is not a.dom


def test_a_shared_parse_reserializes_bytewise():
    for data in _shareable_documents():
        assert omdoc.serialize(omdoc.parse(data)) == data


def _copy(t):
    """`t` rebuilt node by node: equal to `t`, and sharing no node with it."""
    args = (getattr(t, f) for f in t.__match_args__)
    return type(t)(*(_copy(a) if isinstance(a, Term) else a for a in args))


def _unshared(lib):
    """`lib` with every term copied node by node, so nothing is shared."""
    theories = []
    for th in lib.theories:
        decls = []
        for d in th.decls:
            proof = ProofTerm(_copy(d.proof.term)) if isinstance(d.proof, ProofTerm) else d.proof
            decls.append(replace(
                d, tp=d.tp and _copy(d.tp), definiens=d.definiens and _copy(d.definiens),
                proof=proof,
            ))
        theories.append(replace(th, decls=tuple(decls)))
    morphisms = tuple(
        replace(m, assignments=tuple((c, _copy(t)) for c, t in m.assignments))
        for m in lib.morphisms
    )
    return replace(lib, theories=tuple(theories), morphisms=morphisms)


@pytest.mark.parametrize("make", [generators.gen_library, generators.gen_dep_library])
def test_a_shared_parse_checks_like_the_unshared_library(make):
    rng = random.Random(20201019)
    failed = 0
    for _ in range(40):
        lib = make(rng)
        shared = omdoc.parse(omdoc.serialize(lib), deps=lib.deps)
        unshared = _unshared(shared)
        assert all(a is not b for a, b in zip(_occurrences(shared), _occurrences(unshared)))
        reports = check_library(unshared)
        assert check_library(shared) == reports
        failed += sum(len(r.failures) for r in reports)
    assert failed  # the generators are not well typed, so some rows fail


def test_serialized_size_is_linear_in_term_nodes():
    for seed in range(30):
        lib = generators.gen_library(random.Random(seed))
        data = omdoc.serialize(lib)
        term_elements = data.count(b"<OM")
        assert term_elements <= _library_term_nodes(lib)


TERM_LINE = re.compile(
    rb' *<(?:type|definition|proof style="term"|assignment name="[^"]*")>(<OM.*)'
    rb"</(?:type|definition|proof|assignment)>"
)


def test_each_term_sits_on_its_wrapper_line_without_whitespace():
    for seed in range(30):
        data = omdoc.serialize(generators.gen_library(random.Random(seed)))
        for line in data.split(b"\n"):
            if b"<OM" in line:
                m = TERM_LINE.fullmatch(line)
                assert m, line
                assert not re.search(rb">\s+<", m[1]), line


def _applications(n):
    tm, t = Const(hol_ident("tm")), Const(hol_ident("bool'"))
    for _ in range(n):
        t = Apply(tm, t)
    return t


def _lambdas(n):
    # the innermost variable is bound by the outermost binder
    kind, t = TypeKind(), Var(n - 1)
    for _ in range(n - 1):
        t = Lambda("x", kind, t)
    return Lambda("top", kind, t)


@pytest.mark.parametrize("nest", [_applications, _lambdas])
@pytest.mark.parametrize("depth", [1_200, 100_000])
def test_deep_terms_serialize_in_bytes_linear_in_depth(depth, nest):
    def size(n):
        return len(omdoc.serialize(_lib(_decl("deep", tp=nest(n)))))

    assert size(2 * depth) <= 2 * size(depth) * 1.01


def test_a_variable_under_deep_binders_is_hinted_with_its_binder_name():
    data = omdoc.serialize(_lib(_decl("deep", tp=_lambdas(100_000))))
    assert b'<OMV index="99999" hint="top"/>' in data


@pytest.mark.parametrize("nest", [_applications, _lambdas])
def test_deep_terms_parse_and_reserialize_bytewise(nest):
    # bytes, not terms: term == recurses along the term
    data = omdoc.serialize(_lib(_decl("deep", tp=nest(100_000))))
    assert omdoc.serialize(omdoc.parse(data)) == data


def _old_layout_applications(n):
    """The document of _applications(n) with one term element per line,
    indented two spaces per level, as the writer laid terms out before."""
    tm, bool_ = (omdoc._a(str(hol_ident(name))) for name in ("tm", "bool'"))
    lines = [
        f'<omdoc version="1" namespace="{NS}">',
        '  <theory name="t">',
        '    <constant name="deep" kind="constant">',
        "      <type>",
    ]
    for k in range(n):
        indent = " " * (8 + 2 * k)
        lines += [f"{indent}<OMA>", f'{indent}  <OMS name="{tm}"/>']
    lines.append(" " * (8 + 2 * n) + f'<OMS name="{bool_}"/>')
    lines += [" " * (8 + 2 * k) + "</OMA>" for k in reversed(range(n))]
    lines += ["      </type>", "    </constant>", "  </theory>", "</omdoc>", ""]
    return "\n".join(lines).encode()


def test_a_deep_old_layout_term_parses():
    data = _old_layout_applications(2_000)
    expected = omdoc.serialize(_lib(_decl("deep", tp=_applications(2_000))))
    assert omdoc.serialize(omdoc.parse(data)) == expected


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


# MINIMAL as the writer lays it out: each term on its wrapper's line
MINIMAL_COMPACT = (
    b'<omdoc version="1" namespace="lib://tiny">\n'
    b'  <theory name="t">\n'
    b'    <constant name="a" kind="type">\n'
    b'      <type><OMBIND binder="type"/></type>\n'
    b"    </constant>\n"
    b"  </theory>\n"
    b"</omdoc>\n"
)


def test_minimal_handwritten_document_parses():
    lib = omdoc.parse(MINIMAL)
    assert lib.theories[0].decls[0].tp == TypeKind()
    assert omdoc.serialize(lib) == MINIMAL_COMPACT
    assert omdoc.serialize(omdoc.parse(MINIMAL_COMPACT)) == MINIMAL_COMPACT


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


OMS_A = b'<OMS name="lib://tiny?t?a"/>'
TYPE_PATH = "omdoc.theory[0].constant[0].type"
# each malformed term below sits two levels deep, as the second child of
# a lambda that is itself the second child of an application
NESTED_PATH = f"{TYPE_PATH}.OMA.OMBIND[1]"


def _nested(term):
    lam = b'<OMBIND binder="lambda" var="v">' + OMS_A + term + b"</OMBIND>"
    return b"<OMA>" + OMS_A + lam + b"</OMA>"


@pytest.mark.parametrize(
    "term, message",
    [
        # unknown elements, before any check of their own
        (_nested(b"<OMX/>"), f"{NESTED_PATH}.OMX[1]: unknown element <OMX>"),
        (_nested(b'<foo colour="red">stray' + OMS_A + b"</foo>"),
         f"{NESTED_PATH}.foo[1]: unknown element <foo>"),
        # stray text: an element's own text, a child's tail, and a tail
        # charged to the enclosing element before any of its children
        (_nested(b"<OMA>stray" + OMS_A + OMS_A + b"</OMA>"),
         f"{NESTED_PATH}.OMA[1]: unexpected text content"),
        (_nested(b"<OMA>" + OMS_A + b"stray" + OMS_A + b"</OMA>"),
         f"{NESTED_PATH}.OMA[1]: unexpected text content"),
        (_nested(b'<OMS name="lib://tiny?t?a">stray</OMS>'),
         f"{NESTED_PATH}.OMS[1]: unexpected text content"),
        (_nested(OMS_A + b"stray"), f"{NESTED_PATH}: unexpected text content"),
        (_nested(b"<OMA><OMX/>" + OMS_A + b"stray</OMA>"),
         f"{NESTED_PATH}.OMA[1]: unexpected text content"),
        (_nested(b'<OMBIND binder="exists">stray<OMX/></OMBIND>'),
         f"{NESTED_PATH}.OMBIND[1]: unexpected text content"),
        # OMS
        (_nested(b'<OMS name="lib://tiny?t?a"><OMV index="0"/></OMS>'),
         f"{NESTED_PATH}.OMS[1]: OMS takes no children"),
        (_nested(b"<OMS/>"), f"{NESTED_PATH}.OMS[1].name: missing attribute"),
        (_nested(b'<OMS name="lib://tiny?t?a" colour="red"/>'),
         f"{NESTED_PATH}.OMS[1].colour: unknown attribute"),
        (_nested(b'<OMS colour="red">stray<OMV index="0"/></OMS>'),
         f"{NESTED_PATH}.OMS[1].colour: unknown attribute"),
        (_nested(b'<OMS name="no-separators"/>'),
         f"{NESTED_PATH}.OMS[1].name: not an identifier: 'no-separators'"),
        (_nested(b'<OMS name="a??b"/>'),
         f"{NESTED_PATH}.OMS[1].name: identifier components must be nonempty"),
        # OMV
        (_nested(b'<OMV index="zero"/>'), f"{NESTED_PATH}.OMV[1].index: expected an integer"),
        (_nested(b'<OMV index="-1"/>'), f"{NESTED_PATH}.OMV[1].index: negative index"),
        (_nested(b'<OMV index="0" colour="red"/>'),
         f"{NESTED_PATH}.OMV[1].colour: unknown attribute"),
        (_nested(b'<OMV hint="h"/>'), f"{NESTED_PATH}.OMV[1].index: missing attribute"),
        (_nested(b'<OMV index="0"><OMV index="0"/></OMV>'),
         f"{NESTED_PATH}.OMV[1]: OMV takes no children"),
        (_nested(b'<OMV index="zero">stray</OMV>'),
         f"{NESTED_PATH}.OMV[1]: unexpected text content"),
        # OMA
        (_nested(b'<OMA colour="red">' + OMS_A + OMS_A + b"</OMA>"),
         f"{NESTED_PATH}.OMA[1].colour: unknown attribute"),
        (_nested(b"<OMA>" + OMS_A + b"</OMA>"),
         f"{NESTED_PATH}.OMA[1]: OMA needs a head and at least one argument"),
        (_nested(b"<OMA/>"), f"{NESTED_PATH}.OMA[1]: OMA needs a head and at least one argument"),
        (_nested(b"<OMA>" + OMS_A + b"<OMA><OMS/>" + OMS_A + b"</OMA></OMA>"),
         f"{NESTED_PATH}.OMA[1].OMA[1].OMS[0].name: missing attribute"),
        # the test_malformed_ombind_messages cases, one level deeper
        (_nested(b'<OMBIND binder="exists" var="x"><OMV index="-1"/></OMBIND>'),
         f"{NESTED_PATH}.OMBIND[1].OMV[0].index: negative index"),
        (_nested(b'<OMBIND binder="exists" var="x"/>'),
         f"{NESTED_PATH}.OMBIND[1].var: binder exists takes no variable"),
        (_nested(b'<OMBIND binder="exists"><OMV index="0"/></OMBIND>'),
         f"{NESTED_PATH}.OMBIND[1].binder: unknown binder 'exists'"),
        (_nested(b'<OMBIND binder="sub" var="y"><OMV index="0"/></OMBIND>'),
         f"{NESTED_PATH}.OMBIND[1].var: binder sub takes no variable"),
        (_nested(b'<OMBIND binder="lambda" var="x"><OMV index="0"/></OMBIND>'),
         f"{NESTED_PATH}.OMBIND[1]: binder lambda takes 2 children"),
        (_nested(b'<OMBIND binder="subout"><OMV index="0"/><OMV index="1"/></OMBIND>'),
         f"{NESTED_PATH}.OMBIND[1]: binder subout takes 1 children"),
        (_nested(b'<OMBIND binder="type"><OMV index="0"/></OMBIND>'),
         f"{NESTED_PATH}.OMBIND[1]: binder type takes 0 children"),
        # the wrapper holds exactly one term
        (b"", f"{TYPE_PATH}: expected exactly one term"),
        (OMS_A + OMS_A, f"{TYPE_PATH}: expected exactly one term"),
        # an index past the interpreter's limit on integer strings
        pytest.param(_nested(b'<OMV index="' + b"9" * 5000 + b'"/>'),
                     f"{NESTED_PATH}.OMV[1].index: an integer literal is too long",
                     id="OMV-index-past-the-digit-limit"),
    ],
)
def test_malformed_term_messages(term, message):
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


def test_a_schema_fault_before_a_syntax_error_is_the_syntax_error():
    doc = MINIMAL.replace(b'name="t"', b'name="t" colour="red"') + b"<omdoc"
    with pytest.raises(Malformed) as err:
        omdoc.parse(doc)
    assert (err.value.line, err.value.column) == (doc.count(b"\n") + 1, 1), str(err.value)


def test_an_undefined_entity_under_an_external_dtd_is_malformed():
    # expat leaves such an entity to the external DTD and skips it unread
    doc = b'<!DOCTYPE omdoc SYSTEM "x.dtd">\n' + MINIMAL.replace(b"<type>", b"<type>&foo;")
    with pytest.raises(Malformed) as err:
        omdoc.parse(doc)
    line = doc[: doc.index(b"&foo;")].count(b"\n") + 1
    column = doc.index(b"&foo;") - doc.rindex(b"\n", 0, doc.index(b"&foo;"))
    assert str(err.value) == f"line {line}, column {column}: undefined entity"


def test_parse_memory_follows_the_library_not_the_document():
    # the reader holds its open elements and expat's buffer, not a tree of
    # the document: about 2 on this corpus, where the tree made it 23
    data = _bench_corpus().omdoc_corpus(1, 300)[0]
    tracemalloc.start()
    try:
        lib = omdoc.parse(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lib.theories) > 1
    assert peak / retained < 4, (peak, retained)


def _fixture_exports():
    """The OMDoc export of each file in fixtures/: an OMDoc file as it
    stands, a prover export once imported and serialized."""
    docs = []
    for path in fixture_paths():
        if path.name.endswith(omdoc.FILE_EXTENSION):
            docs.append(path.read_bytes())
        else:
            docs.append(omdoc.serialize(_import_fixture(path.name)))
    return docs


FUZZ_TAGS = (
    "omdoc", "theory", "include", "constant", "type", "definition", "proof", "ref",
    "metadata", "srcref", "comment", "notation", "morphism", "assignment",
    "OMS", "OMV", "OMA", "OMBIND", "OMX",
)
FUZZ_VALUES = (
    "", " ", "0", "-1", "1.5", "x", "a??b", "lib://tiny?t?a", "lib://logics?holChurch?tm",
    "lambda", "pi", "type", "sub", "subout", "term", "dependsOn", "omitted", "theorem",
    "definition", "\u0663", "9" * 5000,
)


def _mutate(data, rng):
    """`data` with one to three element or attribute edits, then maybe a
    few flipped bits."""
    root = ET.fromstring(data)
    for _ in range(rng.randint(1, 3)):
        elems = list(root.iter())
        parent = {kid: elem for elem in elems for kid in elem}
        e = rng.choice(elems)
        keys = sorted(e.attrib)
        op = rng.randrange(8)
        if op == 0 and e in parent:
            parent[e].remove(e)
        elif op == 1 and e in parent:
            p = parent[e]
            p.insert(list(p).index(e), copy.deepcopy(e))
        elif op == 2:
            e.tag = rng.choice(FUZZ_TAGS)
        elif op == 3 and keys:
            del e.attrib[rng.choice(keys)]
        elif op == 4:
            donor = rng.choice(elems)
            if donor.attrib:
                key = rng.choice(sorted(donor.attrib))
                e.set(key, donor.get(key))
        elif op == 5 and keys:
            key = rng.choice(keys)
            e.set(rng.choice(("name", "index", "binder", "var", "kind", "style", "hint", "x")),
                  e.attrib.pop(key))
        elif op == 6 and keys:
            e.set(rng.choice(keys), rng.choice(FUZZ_VALUES))
        elif op == 7:
            if rng.random() < 0.5:
                e.text = (e.text or "") + "stray"
            else:
                e.tail = (e.tail or "") + "stray"
    out = bytearray(ET.tostring(root, encoding="utf-8"))
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 3)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    return bytes(out)


def test_mutated_exports_parse_or_raise_a_format_error():
    rng = random.Random(20201018)
    docs = _fixture_exports()
    outcomes = collections.Counter()
    for _ in range(500):
        try:
            omdoc.parse(_mutate(rng.choice(docs), rng))
            outcomes["parsed"] += 1
        except FormatError as err:
            outcomes[type(err).__name__] += 1
    # the mutations reach both sides of the reader
    assert outcomes["parsed"] and outcomes["SchemaViolation"] and outcomes["Malformed"], outcomes


def _follows(elem, rest: str, message: str) -> bool:
    """Whether `rest`, what is left of a SchemaViolation path after the
    steps that led to `elem`, follows existing elements: a `.tag[i]` step
    is the i-th child, which has that tag; a `.tag` step is a child with
    that tag; a final step that names no child is an attribute, present
    unless it is the one reported missing."""
    if not rest:
        return True
    for i, kid in enumerate(elem):
        for step in (f".{kid.tag}[{i}]", f".{kid.tag}"):
            after = rest[len(step):]
            if rest.startswith(step) and after[:1] in ("", ".") and _follows(kid, after, message):
                return True
    return rest[0] == "." and (rest[1:] in elem.attrib or message == "missing attribute")


def test_every_schema_violation_path_follows_the_mutated_input():
    rng = random.Random(20261019)
    docs = _fixture_exports()
    paths = 0
    for _ in range(1500):
        data = _mutate(rng.choice(docs), rng)
        try:
            omdoc.parse(data)
        except SchemaViolation as err:
            root = ET.fromstring(data)
            if root.tag != "omdoc":  # a misnamed root is named by its own tag
                assert (err.path, err.message) == (root.tag, "root element must be <omdoc>")
                continue
            assert err.path.startswith("omdoc"), err
            assert _follows(root, err.path[len("omdoc"):], err.message), err
            paths += err.path.count(".") > 2  # below a theory or a morphism
        except FormatError:
            pass
    assert paths > 500


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


def test_a_repeated_identifier_serializes_bytewise():
    from proofport.morphisms import Morphism

    # a name that needs escaping, used as a type, a definiens, a morphism
    # assignment name and inside the assignment terms
    odd = Ident(NS, "t", 'a&"<b')
    a = Const(odd)
    m = Morphism(
        Ident(NS, "m", "v"),
        theory_ident(NS, "t"),
        theory_ident(NS, "t"),
        ((odd, Apply(a, a)), (Ident(NS, "t", "c"), a)),
    )
    lib = _lib(
        _decl('a&"<b', tp=TypeKind(), kind="type"),
        _decl("c", tp=a, definiens=Apply(a, Apply(a, a))),
        morphisms=(m,),
    )
    oms = '<OMS name="lib://tiny?t?a&amp;&quot;&lt;b"/>'
    assert omdoc.serialize(lib) == (
        '<omdoc version="1" namespace="lib://tiny">\n'
        '  <theory name="t">\n'
        '    <constant name="a&amp;&quot;&lt;b" kind="type">\n'
        '      <type><OMBIND binder="type"/></type>\n'
        "    </constant>\n"
        '    <constant name="c" kind="constant">\n'
        f"      <type>{oms}</type>\n"
        f"      <definition><OMA>{oms}<OMA>{oms}{oms}</OMA></OMA></definition>\n"
        "    </constant>\n"
        "  </theory>\n"
        '  <morphism name="lib://tiny?m?v" from="lib://tiny?t?t" to="lib://tiny?t?t">\n'
        f'    <assignment name="lib://tiny?t?a&amp;&quot;&lt;b"><OMA>{oms}{oms}</OMA></assignment>\n'
        f'    <assignment name="lib://tiny?t?c">{oms}</assignment>\n'
        "  </morphism>\n"
        "</omdoc>\n"
    ).encode()
    assert omdoc.serialize(lib) == omdoc.serialize(_unshared(lib))


@pytest.mark.parametrize("first", ["term", "assignment"])
def test_of_two_dangling_references_the_first_in_document_order_is_named(first):
    from proofport.morphisms import Morphism

    zeta, alpha = Ident(NS, "t", "zeta"), Ident(NS, "t", "alpha")
    ghost = zeta if first == "term" else alpha
    decls = [_decl("a", tp=TypeKind(), kind="type")]
    if first == "term":
        decls.append(_decl("b", tp=Apply(Const(zeta), Const(zeta))))
    # the assignment names one dangling identifier and its term repeats the
    # other, after the assignment has written its own key
    m = Morphism(
        Ident(NS, "m", "v"),
        theory_ident(NS, "t"),
        theory_ident(NS, "t"),
        ((alpha, Apply(Const(zeta), Const(alpha))),),
    )
    with pytest.raises(DanglingIdent) as err:
        omdoc.serialize(_lib(*decls, morphisms=(m,)))
    assert str(err.value) == str(ghost)


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
