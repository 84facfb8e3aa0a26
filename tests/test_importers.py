"""Importer tests: parsing strictness, annotation inference, and the
source-reference scanner, each against an independent bookkeeping or
hand-derived oracle."""

import collections
import copy
import importlib.util
import inspect
import json
import random
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from generators import (
    SURFACE_BASES,
    SURFACE_ENV,
    SAbs,
    SApp,
    SArrow,
    SBase,
    SBinder,
    SName,
    gen_clash_toyhol,
    gen_stype,
    gen_surface,
    stype_term,
    surface_consts,
    surface_library,
    surface_resolve,
)
from proofport import importers, kernel, omdoc
from proofport.encodings import (
    FOL_SOFT,
    HOL_CHURCH,
    fol_ident,
    hol_ident,
    logic_library,
)
from proofport.errors import (
    AmbiguousType,
    Malformed,
    SchemaViolation,
    UnificationFailure,
    UnknownIdent,
    UnsupportedVersion,
)
from proofport.importers import (
    TOYHOL_NS,
    TOYSET_NS,
    ExportDoc,
    func_definition_pattern,
    import_toyhol,
    import_toyset,
    infer_church_annotations,
    parse_toyhol,
    parse_toyset,
    recover_source_refs,
)
from proofport.kernel import (
    Apply,
    Config,
    Const,
    Context,
    Declaration,
    DependsOn,
    Ident,
    Lambda,
    Library,
    Metadata,
    Pi,
    SourceRef,
    Theory,
    TypeKind,
    Var,
    apps,
    check,
    check_library,
    replace,
    theory_ident,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
BENCH = Path(__file__).resolve().parent.parent / "bench"
LOGICS = logic_library()

BOOL = Const(hol_ident("bool'"))
TM = Const(hol_ident("tm"))
ARROW = Const(hol_ident("arrow"))
APP = Const(hol_ident("app"))
LAM = Const(hol_ident("lam"))
EQ = Const(hol_ident("eq"))
IMPL = Const(hol_ident("impl"))
FORALL = Const(hol_ident("forall"))

SET = Const(fol_ident("set"))
PROP = Const(fol_ident("prop"))


def load(name: str) -> bytes:
    return (FIXTURES / name).read_bytes()


# ---------------------------------------------------------------------------
# toyhol parsing


def test_parse_empty_doc():
    doc = parse_toyhol(b'{"version": "1", "theories": []}')
    assert doc == ExportDoc("1", ())


def test_parse_minimal_fixture():
    doc = parse_toyhol(load("minimal.toyhol.json"))
    assert doc.version == "1"
    (th,) = doc.theories
    assert th.name == "bits"
    assert [d.name for d in th.decls] == ["c", "idb", "triv"]
    c, idb, triv = th.decls
    assert c.kind == "constant" and c.tp == SBase("bool")
    assert c.comment == "an arbitrary truth value"
    assert idb.kind == "definition"
    assert idb.tp == SArrow(SBase("bool"), SBase("bool"))
    assert idb.definiens == SAbs("x", SBase("bool"), SName("x"))
    assert idb.notation == "id_bool"
    assert triv.kind == "axiom"
    assert triv.tp == SApp(SApp(SName("eq"), SName("c")), SName("c"))
    assert triv.src == SourceRef("bits.hol", 12, 7, 12, 7)


def test_parse_missing_decl_name():
    raw = {"version": "1", "theories": [{"name": "t", "decls": [{"kind": "axiom"}]}]}
    with pytest.raises(SchemaViolation) as exc:
        parse_toyhol(json.dumps(raw).encode())
    assert exc.value.path == "theories[0].decls[0].name"


def test_parse_unsupported_version():
    with pytest.raises(UnsupportedVersion):
        parse_toyhol(b'{"version": "2", "theories": []}')


def test_parse_missing_version():
    with pytest.raises(SchemaViolation) as exc:
        parse_toyhol(b'{"theories": []}')
    assert exc.value.path == "version"


def test_parse_rejects_bad_json():
    with pytest.raises(Malformed):
        parse_toyhol(b'{"version": "1", ')


def test_parse_rejects_non_utf8():
    with pytest.raises(Malformed):
        parse_toyhol(b'\xff\xfe{"version": "1"}')


def test_parse_rejects_duplicate_decl_names():
    raw = {
        "version": "1",
        "theories": [
            {
                "name": "t",
                "decls": [
                    {"kind": "constant", "name": "c", "type": "bool"},
                    {"kind": "constant", "name": "c", "type": "bool"},
                ],
            }
        ],
    }
    with pytest.raises(SchemaViolation) as exc:
        parse_toyhol(json.dumps(raw).encode())
    assert exc.value.path == "theories[0].decls[1].name"


def _mutate_key(obj, path, new_key):
    """Rename the key addressed by `path` (list of keys/indices)."""
    out = copy.deepcopy(obj)
    cur = out
    for step in path[:-1]:
        cur = cur[step]
    cur[new_key] = cur.pop(path[-1])
    return out


def test_every_mutated_field_name_is_reported():
    base = json.loads(load("minimal.toyhol.json"))
    paths = [
        ["version"],
        ["theories", 0, "name"],
        ["theories", 0, "decls", 0, "kind"],
        ["theories", 0, "decls", 0, "name"],
        ["theories", 0, "decls", 0, "type"],
        ["theories", 0, "decls", 1, "definiens"],
        ["theories", 0, "decls", 2, "src"],
    ]
    for path in paths:
        bad_key = str(path[-1]) + "x"
        mutated = _mutate_key(base, path, bad_key)
        with pytest.raises(SchemaViolation) as exc:
            parse_toyhol(json.dumps(mutated).encode())
        # either the unknown new key or the missing original is named
        assert bad_key in exc.value.path or str(path[-1]) in exc.value.path


def test_malformed_toyhol_term_and_type_messages():
    """Each malformed type or term in a field of the core fixture is
    rejected with its exact path and message, at the top of the field and
    two levels inside an arrow, app, abs or forall."""
    base = json.loads(load("core.toyhol.json"))
    ty = "theories[0].decls[1].type"  # the constant f
    dfn = "theories[0].decls[2].definiens"  # the definition fq
    fml = "theories[0].decls[3].type"  # the axiom p
    x = {"name": "x"}
    cases = [
        (1, "type", "", f"{ty}: empty type name"),
        (1, "type", 3, f"{ty}: expected a type"),
        (1, "type", ["bool"], f"{ty}: expected a type"),
        (1, "type", {}, f"{ty}.arrow: expected a two-element list"),
        (1, "type", {"arrow": ["bool"]}, f"{ty}.arrow: expected a two-element list"),
        (1, "type", {"arow": ["bool", "bool"]}, f"{ty}.arow: unknown field"),
        (1, "type", {"arrow": [["bool"], "bool"]}, f"{ty}.arrow[0]: expected a type"),
        (1, "type", {"arrow": ["bool", {"arrow": ["bool", ""]}]},
         f"{ty}.arrow[1].arrow[1]: empty type name"),
        (1, "type", {"arrow": [{"arrow": "bool"}, "bool"]},
         f"{ty}.arrow[0].arrow: expected a two-element list"),
        (2, "definiens", "q", f"{dfn}: expected a term object"),
        (2, "definiens", {}, f"{dfn}: unknown term constructor"),
        (2, "definiens", {"lam": x}, f"{dfn}: unknown term constructor"),
        (2, "definiens", {"name": ""}, f"{dfn}.name: expected nonempty string"),
        (2, "definiens", {"name": 1}, f"{dfn}.name: expected nonempty string"),
        (2, "definiens", {"name": "q", "app": []}, f"{dfn}.app: unknown field"),
        (2, "definiens", {"app": [x]}, f"{dfn}.app: expected a two-element list"),
        (2, "definiens", {"app": [{"app": [{"name": "eq"}, {"nam": "q"}]}, x]},
         f"{dfn}.app[0].app[1]: unknown term constructor"),
        (2, "definiens", {"app": [x, {"abs": {"var": "x", "annot": {"arrow": "bool"}, "body": x}}]},
         f"{dfn}.app[1].abs.annot.arrow: expected a two-element list"),
        (2, "definiens", {"abs": []}, f"{dfn}.abs: expected an object"),
        (2, "definiens", {"abs": {"var": "x", "type": "bool", "body": x}}, f"{dfn}.abs.type: unknown field"),
        (2, "definiens", {"abs": {"body": x}}, f"{dfn}.abs.var: missing"),
        (2, "definiens", {"abs": {"var": "x", "body": {"forall": {"var": "y", "body": 7}}}},
         f"{dfn}.abs.body.forall.body: expected a term object"),
        (2, "definiens", {"forall": {"var": "x"}}, f"{dfn}.forall.body: expected a term object"),
        (2, "definiens", {"forall": {"var": "x", "annot": "", "body": x}}, f"{dfn}.forall.annot: empty type name"),
        (2, "definiens", {"forall": {"var": "x", "annot": {"arrow": ["bool", 1]}, "body": x}},
         f"{dfn}.forall.annot.arrow[1]: expected a type"),
        (2, "definiens", {"forall": {"var": "x", "body": {"app": [x, {"abs": {}}]}}},
         f"{dfn}.forall.body.app[1].abs.var: missing"),
        (3, "type", [], f"{fml}: expected a term object"),
        (3, "type", {"arrow": ["bool", "bool"]}, f"{fml}: unknown term constructor"),
        (3, "type", {"app": [{"app": [{"name": "eq"}, x]}, {"name": ""}]},
         f"{fml}.app[1].name: expected nonempty string"),
    ]
    for index, field, value, message in cases:
        raw = copy.deepcopy(base)
        raw["theories"][0]["decls"][index][field] = value
        with pytest.raises(SchemaViolation) as exc:
            parse_toyhol(json.dumps(raw).encode())
        assert str(exc.value) == message, value


# ---------------------------------------------------------------------------
# annotation inference


def _infer(env, t):
    return infer_church_annotations(surface_consts(env), t, SURFACE_BASES, kernel.Terms())


def test_infer_application_annotations():
    env = {"f": SArrow(SBase("bool"), SBase("bool")), "c": SBase("bool")}
    term, ty = _infer(env, SApp(SName("f"), SName("c")))
    f = surface_resolve("f")
    c = surface_resolve("c")
    assert term == apps(APP, BOOL, BOOL, f, c)
    assert ty == stype_term(SBase("bool"))


def test_infer_unannotated_identity_is_ambiguous():
    with pytest.raises(AmbiguousType) as exc:
        _infer({}, SAbs("x", None, SName("x")))
    assert exc.value.name == "x"


def test_infer_annotated_identity():
    term, ty = _infer({}, SAbs("x", SBase("bool"), SName("x")))
    assert term == apps(LAM, BOOL, BOOL, Lambda("x", Apply(TM, BOOL), Var(0)))
    assert ty == stype_term(SArrow(SBase("bool"), SBase("bool")))


def test_infer_application_pins_binder_type():
    # the body forces x : bool even without an annotation
    env = {"f": SArrow(SBase("bool"), SBase("bool"))}
    term, ty = _infer(env, SAbs("x", None, SApp(SName("f"), SName("x"))))
    assert ty == stype_term(SArrow(SBase("bool"), SBase("bool")))
    f = surface_resolve("f")
    assert term == apps(
        LAM, BOOL, BOOL, Lambda("x", Apply(TM, BOOL), apps(APP, BOOL, BOOL, f, Var(0)))
    )


def test_infer_forall_defaults_to_bool_body():
    t = SBinder("forall", "x", SBase("bool"), SApp(SApp(SName("impl"), SName("x")), SName("x")))
    term, ty = _infer({}, t)
    assert ty == stype_term(SBase("bool"))
    assert term == Apply(
        Apply(FORALL, BOOL),
        Lambda("x", Apply(TM, BOOL), apps(IMPL, Var(0), Var(0))),
    )


def test_infer_eq_instances_per_occurrence():
    env = {"c": SBase("bool"), "d": SBase("i")}
    t = SApp(
        SApp(
            SName("impl"),
            SApp(SApp(SName("eq"), SName("c")), SName("c")),
        ),
        SApp(SApp(SName("eq"), SName("d")), SName("d")),
    )
    term, _ = _infer(env, t)
    c = surface_resolve("c")
    d = surface_resolve("d")
    i = Const(SURFACE_BASES["i"])
    assert term == apps(IMPL, apps(EQ, BOOL, c, c), apps(EQ, i, d, d))


def test_infer_type_clash():
    env = {"f": SArrow(SBase("bool"), SBase("bool"))}
    with pytest.raises(UnificationFailure) as exc:
        _infer(env, SApp(SName("f"), SName("f")))
    assert exc.value.where == "f"


def test_infer_unbound_name():
    with pytest.raises(UnknownIdent):
        _infer({}, SName("nonesuch"))


def test_infer_unapplied_logical_constant():
    with pytest.raises(UnificationFailure):
        _infer({}, SName("impl"))


def test_infer_env_shadows_logical_names():
    env = {"impl": SBase("bool")}
    mine = Const(Ident("lib://user", "m", "impl"))
    term, ty = infer_church_annotations(
        {"impl": (mine, stype_term(env["impl"]))}, SName("impl"), {}, kernel.Terms()
    )
    assert ty == stype_term(SBase("bool"))
    assert term == mine


def test_infer_200_generated_terms_check():
    """Type-directed generation is the oracle: inference must return the
    target type and produce a term accepted by the kernel at tm target."""
    rng = random.Random(4242)
    base = surface_library()
    lib = Library(base.namespace, base.theories, deps=(LOGICS,))
    assert all(r.ok for r in check_library(lib))
    for _ in range(200):
        target = gen_stype(rng, 2)
        t = gen_surface(rng, target, (), 3)
        term, ty = _infer(SURFACE_ENV, t)
        assert ty == stype_term(target)
        check(lib, Context(), term, Apply(TM, stype_term(target)))


# ---------------------------------------------------------------------------
# toyhol import


def test_import_fixture_depends_on_and_checks():
    lib, report = import_toyhol(parse_toyhol(load("core.toyhol.json")))
    assert report.ok
    assert [t.meta_theory for t in lib.theories] == [HOL_CHURCH]
    decl = lib.find_decl(Ident(TOYHOL_NS, "core", "t"))
    assert decl.proof == DependsOn((Ident(TOYHOL_NS, "core", "p"),))
    assert all(r.ok for r in check_library(lib))


def test_import_count_matches_record_count():
    doc = parse_toyhol(load("core.toyhol.json"))
    records = sum(len(t.decls) for t in doc.theories)
    lib, _ = import_toyhol(doc)
    assert sum(len(t.decls) for t in lib.theories) == records == 5


def test_import_metadata_carried_over():
    lib, _ = import_toyhol(parse_toyhol(load("minimal.toyhol.json")))
    th = lib.theories[0]
    by_name = {d.name.name: d for d in th.decls}
    assert by_name["c"].meta.comments == ("an arbitrary truth value",)
    assert by_name["idb"].meta.notation == "id_bool"
    assert by_name["triv"].meta.source_ref == SourceRef("bits.hol", 12, 7, 12, 7)


def test_import_definition_definiens_annotated():
    lib, _ = import_toyhol(parse_toyhol(load("core.toyhol.json")))
    fq = lib.find_decl(Ident(TOYHOL_NS, "core", "fq"))
    f = Const(Ident(TOYHOL_NS, "core", "f"))
    q = Const(Ident(TOYHOL_NS, "core", "q"))
    assert fq.definiens == apps(APP, BOOL, BOOL, f, q)
    assert fq.tp == Apply(TM, BOOL)


def test_import_unresolved_dep_reported_rest_kept():
    raw = json.loads(load("core.toyhol.json"))
    raw["theories"][0]["decls"][4]["deps"] = ["ghost"]
    lib, report = import_toyhol(parse_toyhol(json.dumps(raw).encode()))
    assert not report.ok
    (bad,) = report.failures
    assert "UnknownIdent" in bad.message and "ghost" in bad.message
    assert lib.find_decl(Ident(TOYHOL_NS, "core", "t")) is None
    assert sum(len(t.decls) for t in lib.theories) == 4


def _failure_messages(report) -> dict[str, str]:
    return {f"{r.subject.module}.{r.subject.name}": r.message for r in report.failures}


def test_a_use_of_a_dropped_toyhol_record_says_that_it_failed_to_import():
    raw = {"version": "1", "theories": [
        {"name": "t", "decls": [
            {"kind": "constant", "name": "x", "type": "bool"},
            {"kind": "definition", "name": "bad",
             "definiens": {"app": [{"name": "x"}, {"name": "x"}]}},
            {"kind": "definition", "name": "d", "definiens": {"name": "bad"}},
            {"kind": "definition", "name": "e", "definiens": {"name": "typo"}},
            {"kind": "axiom", "name": "a1", "type": {"name": "typo"}},
            {"kind": "theorem", "name": "t1", "type": {"name": "x"}, "deps": ["a1"]},
            {"kind": "theorem", "name": "t2", "type": {"name": "x"}, "deps": ["a2"]},
        ]},
        {"name": "u", "includes": ["t"], "decls": [
            {"kind": "definition", "name": "g", "definiens": {"name": "bad"}},
        ]},
        {"name": "v", "includes": ["nope"], "decls": []},
        {"name": "w", "includes": ["v"], "decls": []},
    ]}
    _, report = import_toyhol(parse_toyhol(json.dumps(raw).encode()))
    assert _failure_messages(report) == {
        "t.bad": "UnificationFailure: x: bool vs (bool -> ?1)",
        "t.d": "UnknownIdent: bad failed to import",
        "t.e": "UnknownIdent: typo",
        "t.a1": "UnknownIdent: typo",
        "t.t1": "UnknownIdent: dependency a1 failed to import",
        "t.t2": "UnknownIdent: dependency a2",
        "u.g": "UnknownIdent: bad failed to import",
        "v.v": "UnknownIdent: included theory nope",
        "w.w": "UnknownIdent: included theory v failed to import",
    }


def test_a_use_of_a_dropped_toyset_record_says_that_it_failed_to_import():
    xml = (
        b'<export version="1"><theory name="t"><constant name="a"/>'
        b'<theorem name="x"><papp name="a"><const name="a"/></papp></theorem>'
        b'<theorem name="y" deps="x"><in><const name="a"/><const name="a"/></in></theorem>'
        b'<definition name="f"><value><papp name="a"><const name="a"/></papp></value></definition>'
        b'<axiom name="z"><in><const name="f"/><const name="a"/></in></axiom>'
        b'<axiom name="q"><in><const name="g"/><const name="a"/></in></axiom>'
        b'</theory></export>'
    )
    _, report = import_toyset(parse_toyset(xml))
    messages = _failure_messages(report)
    assert messages["t.y"] == "UnknownIdent: dependency x failed to import"
    assert messages["t.z"] == "UnknownIdent: f failed to import"
    assert messages["t.q"] == "UnknownIdent: g"


def test_import_ill_typed_definition_reported_rest_kept():
    raw = {
        "version": "1",
        "theories": [
            {
                "name": "t",
                "decls": [
                    {"kind": "constant", "name": "f", "type": {"arrow": ["bool", "bool"]}},
                    {"kind": "definition", "name": "bad", "type": "bool",
                     "definiens": {"name": "f"}},
                    {"kind": "constant", "name": "c", "type": "bool"},
                ],
            }
        ],
    }
    lib, report = import_toyhol(parse_toyhol(json.dumps(raw).encode()))
    assert [e.ok for e in report.results] == [True, False, True]
    assert sum(len(t.decls) for t in lib.theories) == 2


def test_import_empty_output_guard():
    """A document whose every record fails imports to an empty library
    and its rows; the command line's empty-corpus rule judges it."""
    raw = {
        "version": "1",
        "theories": [
            {"name": "t", "decls": [{"kind": "axiom", "name": "a", "type": {"name": "zzz"}}]}
        ],
    }
    doc = parse_toyhol(json.dumps(raw).encode())
    lib, report = import_toyhol(doc)
    assert sum(len(t.decls) for t in lib.theories) == 0
    assert not report.ok


def test_import_is_deterministic():
    data = load("core.toyhol.json")
    a = import_toyhol(parse_toyhol(data))
    b = import_toyhol(parse_toyhol(data))
    assert a[0] == b[0]
    assert a[1] == b[1]


def test_import_unknown_include_fails_whole_theory():
    raw = {
        "version": "1",
        "theories": [
            {"name": "t", "includes": ["missing"],
             "decls": [{"kind": "constant", "name": "c", "type": "bool"}]},
            {"name": "u", "decls": [{"kind": "constant", "name": "d", "type": "bool"}]},
        ],
    }
    lib, report = import_toyhol(parse_toyhol(json.dumps(raw).encode()))
    assert [e.ok for e in report.results] == [False, True]
    assert [t.name.module for t in lib.theories] == ["u"]


def test_import_later_include_wins():
    def th(name, includes, *decls):
        return {"name": name, "includes": includes, "decls": list(decls)}

    def z():
        return {"kind": "definition", "name": "z", "definiens": {"name": "x"}}

    raw = {"version": "1", "theories": [
        th("c", [], {"kind": "type", "name": "i"}, {"kind": "constant", "name": "x", "type": "i"}),
        th("a", ["c"], {"kind": "type", "name": "j"}, {"kind": "constant", "name": "x", "type": "j"}),
        th("b", ["c"]),
        th("d", ["a", "b"], z()),
        th("e", ["b", "a"], z()),
    ]}
    lib, report = import_toyhol(parse_toyhol(json.dumps(raw).encode()))
    assert report.ok
    for user, owner, base in (("d", "c", "i"), ("e", "a", "j")):
        decl = lib.find_decl(Ident(TOYHOL_NS, user, "z"))
        assert decl.definiens == Const(Ident(TOYHOL_NS, owner, "x"))
        assert decl.tp == Apply(TM, Const(Ident(TOYHOL_NS, owner, base)))


def test_import_cross_theory_reference():
    raw = {
        "version": "1",
        "theories": [
            {"name": "a", "decls": [{"kind": "constant", "name": "c", "type": "bool"}]},
            {"name": "b", "includes": ["a"],
             "decls": [{"kind": "definition", "name": "cc", "definiens": {"name": "c"}}]},
        ],
    }
    lib, report = import_toyhol(parse_toyhol(json.dumps(raw).encode()))
    assert report.ok
    cc = lib.find_decl(Ident(TOYHOL_NS, "b", "cc"))
    assert cc.definiens == Const(Ident(TOYHOL_NS, "a", "c"))
    assert all(r.ok for r in check_library(lib))


# ---------------------------------------------------------------------------
# name resolution: clashing local names import like unique ones


def _renamed(raw: dict, ok: set) -> dict:
    """`raw` with each declaration `n` of theory `t` named `n_t` and each
    reference renamed to the declaration that the include rule picks
    among those that imported (`ok`, as (theory, name) pairs). An
    unresolved reference to a name that failed to import is renamed to
    one such failed declaration, so that both rows name the failure. Any
    other unresolved reference keeps its name, which no renamed
    declaration has."""
    envs: dict[str, dict[str, str]] = {}
    losts: dict[str, dict[str, str]] = {}
    theories = []
    for th in raw["theories"]:
        env: dict[str, str] = {}  # local name -> theory of the declaration it picks
        lost: dict[str, str] = {}  # local name -> theory of a declaration that failed
        for inc in th["includes"]:
            env.update(envs[inc])
            lost.update(losts[inc])

        def ref(name):
            if name in env:
                return f"{name}_{env[name]}"
            return f"{name}_{lost[name]}" if name in lost else name

        def rtype(st):
            return {"arrow": [rtype(x) for x in st["arrow"]]} if isinstance(st, dict) else ref(st)

        def rterm(t, bound=()):
            if "name" in t:
                return t if t["name"] in bound else {"name": ref(t["name"])}
            if "app" in t:
                return {"app": [rterm(x, bound) for x in t["app"]]}
            var, annot, body = t["abs"]["var"], t["abs"]["annot"], t["abs"]["body"]
            return {"abs": {"var": var, "annot": rtype(annot), "body": rterm(body, bound + (var,))}}

        decls = []
        for d in th["decls"]:
            new = dict(d, name=f"{d['name']}_{th['name']}")
            if "definiens" in d:
                new["definiens"] = rterm(d["definiens"])
            if "type" in d:
                new["type"] = rterm(d["type"]) if d["kind"] == "axiom" else rtype(d["type"])
            decls.append(new)
            if (th["name"], d["name"]) in ok:
                env[d["name"]] = th["name"]
            else:
                lost[d["name"]] = th["name"]
        envs[th["name"]], losts[th["name"]] = env, lost
        theories.append(dict(th, decls=decls))
    return dict(raw, theories=theories)


def _original_name(ident: Ident) -> Ident:
    return Ident(ident.namespace, ident.module, ident.name.split("_")[0])


def _import_view(raw: dict, renamed: bool):
    """The rows and imported terms of `raw`, with renamed names mapped back
    and qualified names printed local, so that a document and its
    uniquely renamed twin compare equal."""
    lib, report = import_toyhol(parse_toyhol(json.dumps(raw).encode()))
    name = _original_name if renamed else (lambda i: i)

    def unqualified(msg):
        if msg is None:
            return None
        if renamed:
            return re.sub(r"\b([a-z])_t\d+\b", r"\1", msg)
        return re.sub(r"lib://toyhol\?t\d+\?", "", msg)

    def term(t):
        def leaf(node, k):
            if isinstance(node, Const) and node.ident.namespace == TOYHOL_NS:
                return Const(name(node.ident))
            return node
        return None if t is None else kernel.rebuild(t, leaf)

    rows = [(name(r.subject), r.ok, unqualified(r.message)) for r in report.results]
    decls = [(name(d.name), term(d.tp), term(d.definiens)) for th in lib.theories for d in th.decls]
    return rows, decls


def test_clashing_local_names_import_like_unique_names():
    """Each reference resolves where it is written, so renaming every
    declaration apart changes nothing but the names."""
    rng = random.Random(2020)
    for _ in range(400):
        raw = gen_clash_toyhol(rng)
        rows, decls = _import_view(raw, renamed=False)
        ok = {(subject.module, subject.name) for subject, good, _ in rows if good}
        assert _import_view(_renamed(raw, ok), renamed=True) == (rows, decls), raw


# ---------------------------------------------------------------------------
# toyset


def test_toyset_empty_export():
    doc = parse_toyset(b'<export version="1"/>')
    assert doc.theories == ()
    lib, report = import_toyset(doc)
    assert lib.theories == () and report.ok


def test_toyset_missing_version():
    with pytest.raises(SchemaViolation) as exc:
        parse_toyset(b"<export/>")
    assert "version" in exc.value.path


def test_toyset_unsupported_version():
    with pytest.raises(UnsupportedVersion):
        parse_toyset(b'<export version="0"/>')


def test_toyset_malformed_xml():
    with pytest.raises(Malformed):
        parse_toyset(b"<export version='1'>")


def test_toyset_unknown_element_names_it():
    xml = b'<export version="1"><theory name="t"><konstant name="c"/></theory></export>'
    with pytest.raises(SchemaViolation) as exc:
        parse_toyset(xml)
    assert "konstant" in str(exc.value)


# every element of sets.toyset.xml in document order, with its error path
SETS_PATHS = [
    "export",
    "theory[0]",
    "theory[0].decl[0]",
    "theory[0].decl[1]",
    "theory[0].decl[1].axiom",
    "theory[0].decl[1].axiom.forall[0]",
    "theory[0].decl[1].axiom.forall[0].not[0]",
    "theory[0].decl[1].axiom.forall[0].not[0].in[0]",
    "theory[0].decl[1].axiom.forall[0].not[0].in[1]",
    "theory[0].decl[2]",
    "theory[0].decl[2].scheme[0]",
    "theory[0].decl[2].scheme[1]",
    "theory[0].decl[2].scheme[1].forall[0]",
    "theory[0].decl[2].scheme[1].forall[0].impl[0]",
    "theory[0].decl[2].scheme[1].forall[0].impl[0].papp[0]",
    "theory[0].decl[2].scheme[1].forall[0].impl[1]",
    "theory[0].decl[2].scheme[1].forall[0].impl[1].papp[0]",
    "theory[0].decl[3]",
    "theory[0].decl[3].value",
    "theory[0].decl[3].value",  # the value's term is reported at the value
    "theory[0].decl[4]",
    "theory[0].decl[4].theorem",
    "theory[0].decl[4].theorem.eq[0]",
    "theory[0].decl[4].theorem.eq[1]",
]


def _toyset_variant(index: int, mutate) -> bytes:
    root = ET.fromstring(load("sets.toyset.xml"))
    mutate(list(root.iter())[index].attrib)
    return ET.tostring(root)


def test_every_mutated_toyset_attribute_is_reported():
    elements = list(ET.fromstring(load("sets.toyset.xml")).iter())
    assert len(elements) == len(SETS_PATHS)
    for index, (elem, path) in enumerate(zip(elements, SETS_PATHS)):
        with pytest.raises(SchemaViolation) as exc:
            parse_toyset(_toyset_variant(index, lambda a: a.update(stray="1")))
        assert exc.value.path == f"{path}.stray"
        for key in elem.attrib:
            with pytest.raises(SchemaViolation) as exc:
                parse_toyset(_toyset_variant(index, lambda a: a.update({key + "x": a.pop(key)})))
            # either the unknown new attribute or the missing original is named
            assert exc.value.path in (f"{path}.{key}x", f"{path}.{key}")

    dup_theory = b'<export version="1"><theory name="t"/><theory name="t"/></export>'
    with pytest.raises(SchemaViolation) as exc:
        parse_toyset(dup_theory)
    assert exc.value.path == "theory[1].name"
    dup_decl = (
        b'<export version="1"><theory name="t">'
        b'<constant name="c"/><constant name="c"/></theory></export>'
    )
    with pytest.raises(SchemaViolation) as exc:
        parse_toyset(dup_decl)
    assert exc.value.path == "theory[0].decl[1].name"
    with pytest.raises(Malformed) as exc:
        parse_toyset(b'<export version="1"><theory name="\xff"/></export>')
    assert exc.value.line is None


def test_toyset_fixture_imports_and_checks():
    lib, report = import_toyset(parse_toyset(load("sets.toyset.xml")))
    assert report.ok
    assert [t.meta_theory for t in lib.theories] == [FOL_SOFT]
    assert all(r.ok for r in check_library(lib))


def test_importers_check_with_the_given_config(monkeypatch):
    cfg = Config(eta_enabled=False, reduction_budget=7)
    seen: dict[str, list] = {"check_theory": [], "elaborate_pattern": []}
    for name, calls in seen.items():
        real = getattr(importers, name)

        def spy(*args, real=real, calls=calls, **kwargs):
            calls.append(inspect.signature(real).bind(*args, **kwargs).arguments.get("config"))
            return real(*args, **kwargs)

        monkeypatch.setattr(importers, name, spy)
    import_toyhol(parse_toyhol(load("core.toyhol.json")), cfg)
    import_toyset(parse_toyset(load("sets.toyset.xml")), cfg)
    assert seen["check_theory"] and seen["elaborate_pattern"]
    assert all(c is cfg for calls in seen.values() for c in calls)


def _import_inputs() -> list[tuple]:
    """(importer, document) for the fixtures and for variants with rejected records."""
    ghost = json.loads(load("core.toyhol.json"))
    ghost["theories"][0]["decls"][4]["deps"] = ["ghost"]
    ill_typed = json.loads(load("core.toyhol.json"))
    ill_typed["theories"][0]["decls"].insert(
        3, {"kind": "definition", "name": "bad", "type": "bool", "definiens": {"name": "f"}}
    )
    not_a_function = load("sets.toyset.xml").replace(
        b"  </theory>",
        b'    <theorem name="bad"><forall var="x"><impl><papp name="empty"><var name="x"/></papp>'
        b'<in><var name="x"/><const name="empty"/></in></impl></forall></theorem>\n  </theory>',
    )
    return [
        (import_toyhol, parse_toyhol(load("core.toyhol.json"))),
        (import_toyhol, parse_toyhol(load("minimal.toyhol.json"))),
        (import_toyhol, parse_toyhol(json.dumps(ghost).encode())),
        (import_toyhol, parse_toyhol(json.dumps(ill_typed).encode())),
        (import_toyset, parse_toyset(load("sets.toyset.xml"))),
        (import_toyset, parse_toyset(not_a_function)),
    ]


def test_import_checks_each_record_once(monkeypatch):
    counts = {"offered": 0, "checked": 0}
    try_add, check_declaration = importers._try_add, kernel._check_declaration

    def offered(scope, cands, config):
        counts["offered"] += len(cands)
        return try_add(scope, cands, config)

    def checked(*args):
        counts["checked"] += 1
        return check_declaration(*args)

    monkeypatch.setattr(importers, "_try_add", offered)
    monkeypatch.setattr(kernel, "_check_declaration", checked)
    for import_doc, doc in _import_inputs():
        counts.update(offered=0, checked=0)
        import_doc(doc)
        assert counts["checked"] == counts["offered"] > 0


def test_candidate_only_check_keeps_every_import(monkeypatch):
    got = [import_doc(doc) for import_doc, doc in _import_inputs()]
    assert [r.ok for _, r in got] == [True, True, False, False, True, False]
    check_theory = importers.check_theory
    monkeypatch.setattr(
        importers, "check_theory",
        lambda lib, th, config, only=None, **kw: check_theory(lib, th, config),
    )
    assert got == [import_doc(doc) for import_doc, doc in _import_inputs()]


def _toyhol_chain(records: int) -> bytes:
    """Three theories, each including the one before, of `records`
    records each: a definition chain with an axiom every 4th step."""
    theories = []
    for t in range(3):
        decls = [{"kind": "constant", "name": f"c{t}_0", "type": "bool"}]
        if t == 0:
            decls.append({"kind": "constant", "name": "f", "type": {"arrow": ["bool", "bool"]}})
        prev = {"name": f"c{t}_0"}
        while len(decls) < records:
            k = len(decls)
            if k % 4:
                decls.append({"kind": "definition", "name": f"c{t}_{k}",
                              "definiens": {"app": [{"name": "f"}, prev]}})
                prev = {"name": f"c{t}_{k}"}
            else:
                decls.append({"kind": "axiom", "name": f"a{t}_{k}", "type": {
                    "app": [{"app": [{"name": "eq"}, prev]}, {"app": [{"name": "f"}, prev]}]}})
        theories.append({"name": f"t{t}", "includes": [f"t{t - 1}"] if t else [], "decls": decls})
    return json.dumps({"version": "1", "theories": theories}).encode()


def _toyset_chain(records: int) -> bytes:
    """Three toyset theories, each including the one before, of `records`
    records each: constants, axioms over them and definitions."""
    lines = ['<export version="1">']
    for t in range(3):
        inc = f' includes="t{t - 1}"' if t else ""
        lines.append(f'<theory name="t{t}"{inc}>')
        for k in range(records):
            if k % 3 == 0:
                lines.append(f'<constant name="c{t}_{k}"/>')
            elif k % 3 == 1:
                lines.append(f'<axiom name="a{t}_{k}"><in><const name="c{t}_{k - 1}"/>'
                             f'<const name="c{t}_{k - 1}"/></in></axiom>')
            else:
                lines.append(f'<definition name="d{t}_{k}"><value>'
                             f'<const name="c{t}_{k - 2}"/></value></definition>')
        lines.append("</theory>")
    lines.append("</export>")
    return "\n".join(lines).encode()


def test_import_computes_each_theory_scope_a_constant_number_of_times(monkeypatch):
    calls = {"flatten": 0, "_visible_idents": 0}
    for name in calls:
        real = getattr(kernel, name)

        def spy(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(kernel, name, spy)
    for import_doc, doc in ((import_toyhol, lambda n: parse_toyhol(_toyhol_chain(n))),
                            (import_toyset, lambda n: parse_toyset(_toyset_chain(n)))):
        counted = []
        for records in (12, 48):
            calls.update(flatten=0, _visible_idents=0)
            lib, report = import_doc(doc(records))
            assert report.ok and sum(len(th.decls) for th in lib.theories) >= 3 * records
            counted.append(dict(calls))
        # per theory: one scope, one flatten of its includes, one of its meta-theory
        assert counted == [{"flatten": 2 * 3, "_visible_idents": 3}] * 2


def test_import_resolves_theories_a_constant_number_of_times(monkeypatch):
    calls = [0]
    find_theory = Library.find_theory

    def spy(self, ident):
        calls[0] += 1
        return find_theory(self, ident)

    monkeypatch.setattr(Library, "find_theory", spy)
    for import_doc, doc in ((import_toyhol, lambda n: parse_toyhol(_toyhol_chain(n))),
                            (import_toyset, lambda n: parse_toyset(_toyset_chain(n)))):
        counted = []
        for records in (12, 48):
            calls[0] = 0
            assert import_doc(doc(records))[1].ok
            counted.append(calls[0])
        assert counted[0] == counted[1] > 0


def test_import_after_a_duplicate_name_keeps_the_full_check_verdicts(monkeypatch):
    # the definition `d` generates a second `d/fn`: the record `d` is the one
    # refused, and the theory written without it checks
    doc = parse_toyset(
        b'<export version="1"><theory name="t"><constant name="d/fn"/>'
        b'<definition name="d"><value><const name="d/fn"/></value></definition>'
        b'<constant name="t"/><constant name="after"/></theory></export>'
    )
    got = import_toyset(doc)
    assert [(e.subject.name, e.ok) for e in got[1].results] == [
        ("d/fn", True), ("d", False), ("t", True), ("after", True)
    ]
    assert got[1].results[1].message == (
        f"CheckError: duplicate declaration {Ident(TOYSET_NS, 't', 'd/fn')}"
    )
    assert all(r.ok for r in check_library(omdoc.parse(omdoc.serialize(got[0]))))
    check_theory = importers.check_theory
    monkeypatch.setattr(
        importers, "check_theory",
        lambda lib, th, config, only=None, **kw: check_theory(lib, th, config),
    )
    assert got == import_toyset(doc)


def test_toyset_scheme_closes_over_predicate():
    lib, _ = import_toyset(parse_toyset(load("sets.toyset.xml")))
    scheme = lib.find_decl(Ident(TOYSET_NS, "sets", "refl_scheme"))
    assert scheme.meta.kind == "axiom"
    match scheme.tp:
        case Pi(_, dom, _):
            assert dom == Pi("_", SET, PROP)
        case _:
            raise AssertionError(scheme.tp)


def test_toyset_definition_expands_to_template_count():
    lib, _ = import_toyset(parse_toyset(load("sets.toyset.xml")))
    pattern = func_definition_pattern()
    generated = [
        d
        for t in lib.theories
        for d in t.decls
        if d.meta.origin == Ident(TOYSET_NS, "sets", "void")
    ]
    assert len(generated) == len(pattern.body) == 2
    assert {d.name.name for d in generated} == {"void/fn", "void/def"}
    empty = Const(Ident(TOYSET_NS, "sets", "empty"))
    eq = Const(fol_ident("eq'"))
    ded = Const(fol_ident("ded"))
    by_name = {d.name.name: d for d in generated}
    assert by_name["void/def"].tp == Apply(
        ded, apps(eq, Const(Ident(TOYSET_NS, "sets", "void/fn")), empty)
    )


def test_toyset_theorem_deps_resolve():
    lib, _ = import_toyset(parse_toyset(load("sets.toyset.xml")))
    thm = lib.find_decl(Ident(TOYSET_NS, "sets", "void_empty"))
    assert thm.proof == DependsOn((Ident(TOYSET_NS, "sets", "empty_ax"),))


CONNECTIVE_NAMES = ("in", "eq", "and", "or", "impl", "not")
FRESH_NAMES = tuple(f"n{i}" for i in range(len(CONNECTIVE_NAMES)))


def _gen_named_toyset(rng: random.Random):
    """A random toyset document over name slots 0..5; `render(names)`
    writes it with slot i spelled names[i]. Constants, definitions, bound
    variables, pvars and name references all draw from the slots, so the
    documents mix well-typed records with ill-typed and unresolved ones."""
    slots = range(len(CONNECTIVE_NAMES))
    declared: list[int] = []

    def some_name():
        return rng.choice(declared) if declared and rng.random() < 0.9 else rng.choice(slots)

    def term(bound):
        if bound and rng.random() < 0.6:
            return ("var", rng.choice(bound))
        return ("const", some_name())

    def formula(depth, bound, pvars):
        roll = rng.random()
        if depth <= 0 or roll < 0.25:
            if pvars and rng.random() < 0.7:
                name, arity = rng.choice(pvars)
            else:
                name, arity = some_name(), rng.randint(0, 2)
            return ("papp", name, [term(bound) for _ in range(arity)])
        if roll < 0.4:
            return (rng.choice(("in", "eq")), [term(bound), term(bound)])
        if roll < 0.55:
            var = rng.choice(slots)
            return ("forall", var, [formula(depth - 1, bound + [var], pvars)])
        if roll < 0.65:
            return ("not", [formula(depth - 1, bound, pvars)])
        op = rng.choice(("and", "or", "impl"))
        return (op, [formula(depth - 1, bound, pvars), formula(depth - 1, bound, pvars)])

    records = []
    for j in range(rng.randint(3, 10)):
        roll = rng.random()
        if roll < 0.3:
            declared.append(rng.choice(slots))
            records.append(("constant", declared[-1], None, ()))
        elif roll < 0.45:
            records.append(("definition", rng.choice(slots), term([]), ()))
            declared.append(records[-1][1])
        elif roll < 0.7:
            pvars = [(rng.choice(slots), rng.randint(0, 2)) for _ in range(rng.randint(1, 2))]
            records.append(("scheme", f"s{j}", formula(3, [], pvars), pvars))
        else:
            records.append((rng.choice(("axiom", "theorem")), f"s{j}", formula(3, [], []), ()))

    def render(names):
        def spell(slot):
            return slot if isinstance(slot, str) else names[slot]

        def node(n):
            if n[0] in ("var", "const"):
                return f'<{n[0]} name="{spell(n[1])}"/>'
            if n[0] == "papp":
                return f'<papp name="{spell(n[1])}">{"".join(map(node, n[2]))}</papp>'
            if n[0] == "forall":
                return f'<forall var="{spell(n[1])}">{node(n[2][0])}</forall>'
            return f'<{n[0]}>{"".join(map(node, n[1]))}</{n[0]}>'

        out, seen = [], set()
        for kind, name, body, pvars in records:
            if spell(name) in seen:  # declaration names are unique per theory
                continue
            seen.add(spell(name))
            if kind == "constant":
                out.append(f'<constant name="{spell(name)}"/>')
            elif kind == "definition":
                out.append(f'<definition name="{spell(name)}"><value>{node(body)}</value></definition>')
            else:
                heads = "".join(f'<pvar name="{spell(p)}" arity="{a}"/>' for p, a in pvars)
                out.append(f'<{kind} name="{name}">{heads}{node(body)}</{kind}>')
        return f'<export version="1"><theory name="t">{"".join(out)}</theory></export>'.encode()

    return render


def test_names_that_equal_connectives_import_as_fresh_names_do():
    def spelled(local):
        head, sep, rest = local.partition("/")
        return (CONNECTIVE_NAMES[FRESH_NAMES.index(head)] if head in FRESH_NAMES else head) + sep + rest

    def renamed(t):
        if t is None:
            return None
        return kernel.map_consts(
            t, lambda c: Const(Ident(c.namespace, c.module, spelled(c.name))) if c.namespace == TOYSET_NS else None
        )

    rng = random.Random(1218)
    verdicts = set()
    for _ in range(300):
        render = _gen_named_toyset(rng)
        fresh_lib, fresh = import_toyset(parse_toyset(render(FRESH_NAMES)))
        lib, got = import_toyset(parse_toyset(render(CONNECTIVE_NAMES)))
        fresh_rows = [
            (spelled(r.subject.name), r.ok, r.message and re.sub(r"\bn\d\b", lambda m: spelled(m[0]), r.message))
            for r in fresh.results
        ]
        assert [(r.subject.name, r.ok, r.message) for r in got.results] == fresh_rows
        fresh_decls = [
            (spelled(d.name.name), renamed(d.tp), renamed(d.definiens), d.proof)
            for th in fresh_lib.theories for d in th.decls
        ]
        assert [(d.name.name, d.tp, d.definiens, d.proof)
                for th in lib.theories for d in th.decls] == fresh_decls
        verdicts.update(ok for _, ok, _ in fresh_rows)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# one term factory per import


def _bench_corpus():
    """The benchmark's corpus generator, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH / "corpus.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_imports(seeds=(7,)):
    """(importer, parsed document) for the bench's hol and set corpora."""
    corpus = _bench_corpus()
    out = []
    for seed in seeds:
        out.append((import_toyhol, parse_toyhol(corpus.hol_corpus(seed, 220)[0])))
        out.append((import_toyset, parse_toyset(corpus.set_corpus(seed, 260)[0])))
    return out


class _Unshared(kernel.Terms):
    """A factory that shares nothing: every call builds a new node."""

    def const(self, ident):
        return Const(ident)

    def named(self, text):
        return Const(Ident.parse(text))

    def var(self, index):
        return Var(index)

    def apps(self, fn, *args):
        return apps(fn, *args)

    def node(self, cls, hint, *parts):
        return cls(*parts) if hint is None else cls(hint, *parts)

    def intern(self, t):
        return t


def _occurrences(lib):
    """Every subterm occurrence in the library's declarations."""
    stack = [t for th in lib.theories for d in th.decls for t in (d.tp, d.definiens) if t]
    while stack:
        t = stack.pop()
        yield t
        if type(t) is Apply:
            stack += (t.fn, t.arg)
        elif type(t) in (Lambda, Pi):
            stack += (t.dom, t.body if type(t) is Lambda else t.cod)


def test_the_import_infer_memo_serves_closed_applications(monkeypatch):
    counts = collections.Counter()
    infer = kernel.infer

    def counted(lib, ctx, t, config=kernel.DEFAULT_CONFIG):
        counts["infer"] += 1
        if type(t) is Apply and t.loose == 0:
            counts["closed"] += 1
            counts["served"] += id(t) in lib._infer_memo
        return infer(lib, ctx, t, config)

    monkeypatch.setattr(kernel, "infer", counted)
    (import_hol, hol), _ = _bench_imports()
    got = import_hol(hol)
    shared = dict(counts)
    counts.clear()
    monkeypatch.setattr(importers, "Terms", _Unshared)
    assert import_hol(hol) == got
    # a node built anew per use is never served from the memo
    assert counts["served"] == 0
    assert 0 < shared["served"] < shared["closed"]
    assert shared["infer"] < counts["infer"]


def test_equal_subterms_of_one_import_are_one_object():
    # repr shows the hints, which == ignores
    inputs = _bench_imports() + [
        (import_toyhol, parse_toyhol(load("core.toyhol.json"))),
        (import_toyset, parse_toyset(load("sets.toyset.xml"))),
    ]
    rng = random.Random(1019)
    inputs += [(import_toyhol, parse_toyhol(json.dumps(gen_clash_toyhol(rng)).encode()))
               for _ in range(40)]
    shared = 0
    for import_doc, doc in inputs:
        by_repr = collections.defaultdict(set)
        occurrences = 0
        for t in _occurrences(import_doc(doc)[0]):
            by_repr[repr(t)].add(id(t))
            occurrences += 1
        assert all(len(ids) == 1 for ids in by_repr.values())
        shared += occurrences - len(by_repr)
    assert shared


def test_a_shared_import_equals_an_unshared_one(monkeypatch):
    """The rows and the serialized library of every import are those of a
    build that shares no node."""
    inputs = _bench_imports(seeds=(1, 2, 3))
    for seed in range(400):
        raw = gen_clash_toyhol(random.Random(seed))
        inputs.append((import_toyhol, parse_toyhol(json.dumps(raw).encode())))
    shared = [import_doc(doc) for import_doc, doc in inputs]
    monkeypatch.setattr(importers, "Terms", _Unshared)
    for (import_doc, doc), (lib, report) in zip(inputs, shared):
        unshared_lib, unshared_report = import_doc(doc)
        assert report == unshared_report
        assert omdoc.serialize(lib) == omdoc.serialize(unshared_lib)
    assert any(not report.ok for _, report in shared)


# ---------------------------------------------------------------------------
# the import's verdicts are a full check's


@pytest.mark.parametrize("config", [
    Config(), Config(eta_enabled=False), Config(reduction_budget=3), Config(reduction_budget=0),
], ids=["default", "no-eta", "budget-3", "budget-0"])
def test_every_declaration_the_import_keeps_passes_a_full_check(config):
    """The command line reports the import's verdicts without a second check,
    so what an import keeps must pass `check_library` under the same settings,
    in the imported library and in its OMDoc round trip."""
    for import_doc, doc in _bench_imports(seeds=(1, 2, 3, 4)):
        lib, report = import_doc(doc, config)
        assert not report.ok  # the corpora plant failures, which are dropped
        kept = [d.name for th in lib.theories for d in th.decls]
        for checked in (lib, omdoc.parse(omdoc.serialize(lib))):
            results = [r for rep in check_library(checked, config) for r in rep.results]
            assert [r.subject for r in results] == kept
            assert [r for r in results if not r.ok] == []


# ---------------------------------------------------------------------------
# source reference recovery


def _plain_lib(names, ns="lib://srctest"):
    decls = tuple(
        Declaration(Ident(ns, "m", n), tp=TypeKind(), meta=Metadata(kind="type"))
        for n in names
    )
    return Library(ns, (Theory(theory_ident(ns, "m"), decls=decls),))


def test_recover_marker_example():
    lib = _plain_lib(["foo"])
    out, report = recover_source_refs(lib, {"a.txt": "x\ny\nfoo := bar\n"})
    ref = out.theories[0].decls[0].meta.source_ref
    assert ref == SourceRef("a.txt", 3, 1, 3, 3)
    assert report.results == ()


def test_recover_colon_marker_and_offset():
    lib = _plain_lib(["bar"])
    out, _ = recover_source_refs(lib, {"b.txt": "  bar : nat\n"})
    ref = out.theories[0].decls[0].meta.source_ref
    assert ref == SourceRef("b.txt", 1, 3, 1, 5)


def test_recover_requires_token_boundary():
    lib = _plain_lib(["foo"])
    out, _ = recover_source_refs(lib, {"c.txt": "xfoo := 1\nfoo2 := 2\nfoo := 3\n"})
    ref = out.theories[0].decls[0].meta.source_ref
    assert ref.start_line == 3


def test_recover_existing_refs_untouched():
    ns = "lib://srctest"
    ref = SourceRef("orig.txt", 1, 1, 1, 1)
    decl = Declaration(
        Ident(ns, "m", "foo"),
        tp=TypeKind(),
        meta=Metadata(kind="type", source_ref=ref),
    )
    lib = Library(ns, (Theory(theory_ident(ns, "m"), decls=(decl,)),))
    out, _ = recover_source_refs(lib, {"a.txt": "foo := 1\n"})
    assert out.theories[0].decls[0].meta.source_ref == ref


def test_recover_miss_is_reported_not_fatal():
    lib = _plain_lib(["ghost"])
    out, report = recover_source_refs(lib, {"a.txt": "nothing here\n"})
    assert out.theories[0].decls[0].meta.source_ref is None
    (entry,) = report.results
    assert not entry.ok


def test_recover_50_generated_files():
    """Positions recorded while generating the sources are the oracle."""
    rng = random.Random(9090)
    fillers = ["-- comment", "", "open scope", "end scope", "% note"]
    for round_no in range(50):
        names = [f"item{round_no}q{j}" for j in range(rng.randint(1, 6))]
        expected = {}
        sources = {}
        for fi in range(rng.randint(1, 3)):
            fname = f"src{round_no}_{fi}.txt"
            sources[fname] = ""
        files = sorted(sources)
        for name in names:
            fname = rng.choice(files)
            lines = sources[fname].splitlines()
            for _ in range(rng.randint(0, 3)):
                lines.append(rng.choice(fillers))
            indent = " " * rng.randint(0, 4)
            marker = rng.choice([":=", ":"])
            lines.append(f"{indent}{name} {marker} body")
            if name not in expected:
                expected[name] = (fname, len(lines), len(indent) + 1)
            sources[fname] = "\n".join(lines) + "\n"
        # a name placed later in an alphabetically earlier file wins;
        # recompute the oracle by the same scan-order rule
        for name in names:
            for fname in files:
                found = None
                for ln, line in enumerate(sources[fname].splitlines(), start=1):
                    stripped = line.lstrip()
                    if stripped.startswith(name + " "):
                        found = (fname, ln, len(line) - len(stripped) + 1)
                        break
                if found:
                    expected[name] = found
                    break
        out, _ = recover_source_refs(_plain_lib(names), sources)
        for decl in out.theories[0].decls:
            fname, line, col = expected[decl.name.name]
            ref = decl.meta.source_ref
            assert ref is not None, decl.name
            assert (ref.file, ref.start_line, ref.start_col) == (fname, line, col)
            assert ref.end_col == col + len(decl.name.name) - 1


def _recover_reference(lib, sources):
    """The scan as first written: every file re-split, every line tried,
    for each declaration."""
    rows, new_theories = [], []
    for th in lib.theories:
        new_decls = []
        for decl in th.decls:
            if decl.meta.source_ref is not None:
                new_decls.append(decl)
                continue
            found, hits = None, 0
            for fname in sorted(sources):
                for lineno, line in enumerate(sources[fname].splitlines(), start=1):
                    col = importers._find_in_line(line, decl.name.name)
                    if col is not None:
                        hits += 1
                        if found is None:
                            found = SourceRef(fname, lineno, col + 1, lineno,
                                              col + len(decl.name.name))
            if found is None:
                rows.append(kernel.CheckResult(decl.name, False, "no source location found"))
                new_decls.append(decl)
            else:
                if hits > 1:
                    rows.append(kernel.CheckResult(
                        decl.name, True, f"{hits} candidate locations, first taken"))
                new_decls.append(replace(
                    decl, meta=replace(decl.meta, source_ref=found)))
        new_theories.append(replace(th, decls=tuple(new_decls)))
    out = Library(lib.namespace, tuple(new_theories), lib.morphisms, deps=lib.deps)
    return out, kernel.CheckReport(tuple(rows))


def test_recover_equals_the_per_declaration_scan_on_seeded_libraries():
    # a small alphabet, so names overlap themselves and each other, and
    # hold spaces, markers and other characters that are not name characters
    alphabet = ["a", "b", "'", " ", ":", "=", "/", "\t", "_"]
    rng = random.Random(1610)
    warned = 0
    for _ in range(300):
        names = sorted({"".join(rng.choices(alphabet[:3] + [" ", "/"], k=rng.randint(1, 4)))
                        for _ in range(rng.randint(1, 8))})
        sources = {}
        for f in range(rng.randint(1, 3)):
            lines = []
            for _ in range(rng.randint(0, 12)):
                if rng.random() < 0.5:
                    lines.append("".join(rng.choices(alphabet, k=rng.randint(0, 12))))
                else:
                    pad = "".join(rng.choices([" ", "\t", ""], k=2))
                    lines.append(f"{rng.choice(alphabet)}{rng.choice(names)}{pad}"
                                 f"{rng.choice([':', ':=', '=', ''])} x")
            sources[f"f{rng.randint(0, 3)}{f}.txt"] = "\n".join(lines)
        lib = _plain_lib(names)
        got = recover_source_refs(lib, sources)
        assert got == _recover_reference(lib, sources), (names, sources)
        warned += len(got[1].results)
    assert warned


def test_recover_tries_each_definiendum_line_once(monkeypatch):
    calls = [0]
    find_in_line = importers._find_in_line

    def counted(line, name):
        calls[0] += 1
        return find_in_line(line, name)

    monkeypatch.setattr(importers, "_find_in_line", counted)
    counted_at = []
    for n in (200, 400):
        names = [f"item{k}" for k in range(n)]
        sources = {"a.txt": "".join(f"{name} := {k}\n" for k, name in enumerate(names))}
        calls[0] = 0
        out, report = recover_source_refs(_plain_lib(names), sources)
        assert report.results == ()
        counted_at.append(calls[0])
    # each declaration's one line, where the scan per declaration tried every line
    assert counted_at == [200, 400]
