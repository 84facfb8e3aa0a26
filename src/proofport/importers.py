"""Readers for the two bundled prover export formats.

toyhol is a strict JSON export of a HOL-like prover: simply typed
constants and definitions, formulas as surface terms. The reader checks
each type, formula and definiens and keeps the JSON value; the import
reads the checked JSON straight into holChurch terms. Imported theories
live under the holChurch meta-theory; the missing type annotations of
the Church representation are reconstructed by first-order unification
of holChurch object types, each resolved once, where its record writes it.

toyset is a strict XML export of a set-theory-style prover: untyped
constants, first-order formulas, second-order axiom schemes, and
definition records that expand through the bundled func-definition
pattern. The reader checks each formula element and keeps the element;
the import converts it straight to a folSoft term, a connective by its
element and a name by binder scope, then by the theory's constants.
Imported theories live under folSoft.

Both importers run through one driver. It walks the theories in
document order, merges the names of included theories into each
theory's environment, converts each record with the format's converter
and kernel-checks the result under the caller's checker Config. Each
import builds its terms through one `kernel.Terms`, so equal subterms
are one node, and each theory is checked in one kernel Scope that grows
with every accepted record. Per-declaration failures are collected into
a CheckReport and the successes kept, even when none succeeds: whether
an empty library is an error is the caller's rule.
"""

from __future__ import annotations

import json
import re
import xml.etree.ElementTree as ET
from collections import defaultdict
from typing import Callable, Iterable, Iterator, Mapping, Optional

from .elaboration import (
    Pattern,
    PatternInstance,
    elaborate_pattern,
)
from .encodings import FOL_SOFT, HOL_CHURCH, LOGIC_NS, fol_ident, hol_ident, logic_library
from .errors import (
    MAX_DEPTH,
    AmbiguousType,
    CheckError,
    Malformed,
    SchemaViolation,
    UnificationFailure,
    UnknownIdent,
    check_keys,
    check_version,
    read_xml,
)
from .kernel import (
    DEFAULT_CONFIG,
    Apply,
    CheckReport,
    CheckResult,
    Config,
    Const,
    Context,
    Declaration,
    DependsOn,
    Ident,
    Lambda,
    Library,
    Metadata,
    Omitted,
    Pi,
    Proof,
    Record,
    Scope,
    SourceRef,
    Term,
    Terms,
    Theory,
    Var,
    apps,
    check_theory,
    clashing_names,
    replace,
    theory_ident,
)

TOYHOL_NS = "lib://toyhol"
TOYSET_NS = "lib://toyset"
SUPPORTED_VERSION = "1"


# ---------------------------------------------------------------------------
# documents


_set = object.__setattr__


class DeclRecord(Record):
    __match_args__ = _fields = (
        "kind", "name", "tp", "definiens", "deps", "src", "notation", "comment", "pvars"
    )

    # `tp`: a checked toyhol type or formula, or a toyset formula element;
    # `definiens`: a checked toyhol term or a toyset value element; `pvars`: toyset schemes only
    def __init__(
        self, kind: str, name: str, tp: object = None, definiens: object = None,
        deps: tuple[str, ...] = (), src: Optional[SourceRef] = None,
        notation: Optional[str] = None, comment: Optional[str] = None,
        pvars: tuple[tuple[str, int], ...] = (),
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "name", name)
        _set(self, "tp", tp)
        _set(self, "definiens", definiens)
        _set(self, "deps", deps)
        _set(self, "src", src)
        _set(self, "notation", notation)
        _set(self, "comment", comment)
        _set(self, "pvars", pvars)


class TheoryRecord(Record):
    __match_args__ = _fields = ("name", "decls", "includes")

    def __init__(
        self, name: str, decls: tuple[DeclRecord, ...], includes: tuple[str, ...] = ()
    ) -> None:
        _set(self, "name", name)
        _set(self, "decls", decls)
        _set(self, "includes", includes)


class ExportDoc(Record):
    """A parsed toyhol or toyset export."""

    __match_args__ = _fields = ("version", "theories")

    def __init__(self, version: str, theories: tuple[TheoryRecord, ...]) -> None:
        _set(self, "version", version)
        _set(self, "theories", theories)


# ---------------------------------------------------------------------------
# toyhol JSON parsing


# what XML 1.0 cannot carry: C0 controls but tab, LF and CR, lone surrogates, U+FFFE, U+FFFF
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _xml_str(v: str, path: str) -> str:
    bad = _NOT_XML.search(v)
    if bad:
        raise SchemaViolation(path, f"character U+{ord(bad.group()):04X} is not allowed in XML")
    return v


def _get_str(obj: dict, key: str, path: str) -> str:
    v = obj.get(key)
    where = f"{path}.{key}" if path else key
    if not isinstance(v, str) or not v:
        raise SchemaViolation(where, "expected nonempty string" if key in obj else "missing")
    return _xml_str(v, where)


def _get_names(obj: dict, key: str, path: str) -> tuple[str, ...]:
    raw = obj.get(key, [])
    if not isinstance(raw, list) or not all(isinstance(x, str) and x for x in raw):
        raise SchemaViolation(f"{path}.{key}", "expected a list of names")
    return tuple(_xml_str(x, f"{path}.{key}[{k}]") for k, x in enumerate(raw))


def _get_note(obj: dict, key: str, path: str) -> Optional[str]:
    v = obj.get(key)
    if v is not None and not isinstance(v, str):
        raise SchemaViolation(f"{path}.{key}", "expected a string")
    return v if v is None else _xml_str(v, f"{path}.{key}")


def _check_surface_type(obj, path: str):
    """Validate a toyhol type and return it: a base type name, or
    `{"arrow": [dom, cod]}`."""
    if isinstance(obj, str):
        if not obj:
            raise SchemaViolation(path, "empty type name")
        return _xml_str(obj, path)
    if isinstance(obj, dict):
        check_keys(obj, path, (), ("arrow",), "field")
        arrow = obj.get("arrow")
        if not isinstance(arrow, list) or len(arrow) != 2:
            raise SchemaViolation(f"{path}.arrow", "expected a two-element list")
        _check_surface_type(arrow[0], f"{path}.arrow[0]")
        _check_surface_type(arrow[1], f"{path}.arrow[1]")
        return obj
    raise SchemaViolation(path, "expected a type")


def _check_surface_term(obj, path: str):
    """Validate a toyhol term and return it: an object of one field, `name`,
    `app` (function and argument), or `abs`/`forall` (`var`, optional
    `annot`, `body`)."""
    if not isinstance(obj, dict):
        raise SchemaViolation(path, "expected a term object")
    if "name" in obj:
        check_keys(obj, path, (), ("name",), "field")
        _get_str(obj, "name", path)
        return obj
    if "app" in obj:
        check_keys(obj, path, (), ("app",), "field")
        pair = obj["app"]
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaViolation(f"{path}.app", "expected a two-element list")
        _check_surface_term(pair[0], f"{path}.app[0]")
        _check_surface_term(pair[1], f"{path}.app[1]")
        return obj
    for head in ("abs", "forall"):
        if head in obj:
            check_keys(obj, path, (), (head,), "field")
            inner = obj[head]
            if not isinstance(inner, dict):
                raise SchemaViolation(f"{path}.{head}", "expected an object")
            check_keys(inner, f"{path}.{head}", (), ("var", "annot", "body"), "field")
            _get_str(inner, "var", f"{path}.{head}")
            if "annot" in inner:
                _check_surface_type(inner["annot"], f"{path}.{head}.annot")
            _check_surface_term(inner.get("body"), f"{path}.{head}.body")
            return obj
    raise SchemaViolation(path, "unknown term constructor")


_DECL_KINDS = ("type", "constant", "definition", "axiom", "theorem")
_TOYHOL_DECL_FIELDS = ("kind", "name", "type", "definiens", "deps", "src", "notation", "comment")


def _parse_src(obj, path: str) -> SourceRef:
    if not isinstance(obj, dict):
        raise SchemaViolation(path, "expected an object")
    check_keys(obj, path, (), ("file", "line", "col"), "field")
    f = _get_str(obj, "file", path)
    for key in ("line", "col"):
        if not isinstance(obj.get(key), int) or obj[key] < 1:
            raise SchemaViolation(f"{path}.{key}", "expected a positive integer")
    return SourceRef(f, obj["line"], obj["col"], obj["line"], obj["col"])


def _parse_toyhol_decl(obj, path: str) -> DeclRecord:
    if not isinstance(obj, dict):
        raise SchemaViolation(path, "expected an object")
    check_keys(obj, path, (), _TOYHOL_DECL_FIELDS, "field")
    kind = _get_str(obj, "kind", path)
    if kind not in _DECL_KINDS:
        raise SchemaViolation(f"{path}.kind", f"unknown kind {kind!r}")
    name = _get_str(obj, "name", path)

    tp = None
    if kind == "type":
        if "type" in obj:
            raise SchemaViolation(f"{path}.type", "base types carry no type field")
    elif kind in ("constant", "definition"):
        if "type" in obj:
            tp = _check_surface_type(obj["type"], f"{path}.type")
        elif kind == "constant":
            raise SchemaViolation(f"{path}.type", "missing")
    else:
        if "type" not in obj:
            raise SchemaViolation(f"{path}.type", "missing")
        tp = _check_surface_term(obj["type"], f"{path}.type")

    definiens = None
    if "definiens" in obj:
        if kind != "definition":
            raise SchemaViolation(f"{path}.definiens", f"not allowed for kind {kind!r}")
        definiens = _check_surface_term(obj["definiens"], f"{path}.definiens")
    elif kind == "definition":
        raise SchemaViolation(f"{path}.definiens", "missing")

    deps: tuple[str, ...] = ()
    if "deps" in obj:
        if kind != "theorem":
            raise SchemaViolation(f"{path}.deps", f"not allowed for kind {kind!r}")
        deps = _get_names(obj, "deps", path)

    src = _parse_src(obj["src"], f"{path}.src") if "src" in obj else None
    notation, comment = _get_note(obj, "notation", path), _get_note(obj, "comment", path)
    return DeclRecord(kind, name, tp, definiens, deps, src, notation, comment)


def _no_separator(name: str, path: str) -> None:
    if "?" in name:
        raise SchemaViolation(path, f"'?' in name {name!r}")


def _theory_records(theories: Iterable, parse_decl: Callable) -> tuple[TheoryRecord, ...]:
    """The theory records of (path, name, includes, [(path, raw decl)]) items,
    with unique theory names, unique declaration names per theory, no `?`
    (the identifier separator) in either, and no repeated dependency."""
    out: dict[str, TheoryRecord] = {}
    for path, name, includes, decls in theories:
        _no_separator(name, f"{path}.name")
        if name in out:
            raise SchemaViolation(f"{path}.name", f"duplicate theory {name!r}")
        records: dict[str, DeclRecord] = {}
        for dpath, raw in decls:
            rec = parse_decl(raw, dpath)
            _no_separator(rec.name, f"{dpath}.name")
            if rec.name in records:
                raise SchemaViolation(f"{dpath}.name", f"duplicate {rec.name!r}")
            seen: set[str] = set()
            for dep in rec.deps:
                if dep in seen:
                    raise SchemaViolation(f"{dpath}.deps", f"repeated dependency {dep!r}")
                seen.add(dep)
            records[rec.name] = rec
        out[name] = TheoryRecord(name, tuple(records.values()), includes)
    return tuple(out.values())


def _toyhol_theories(raw: list):
    for i, th in enumerate(raw):
        path = f"theories[{i}]"
        if not isinstance(th, dict):
            raise SchemaViolation(path, "expected an object")
        check_keys(th, path, (), ("name", "decls", "includes"), "field")
        name = _get_str(th, "name", path)
        includes = _get_names(th, "includes", path)
        decls = th.get("decls")
        if not isinstance(decls, list):
            raise SchemaViolation(f"{path}.decls", "missing or not a list")
        yield path, name, includes, [(f"{path}.decls[{j}]", d) for j, d in enumerate(decls)]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members as a dict; a key the object repeats is Malformed."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise Malformed(f"repeated key {key!r}")
            seen.add(key)
    return obj


def parse_toyhol(data: bytes) -> ExportDoc:
    """Parse and strictly validate a toyhol JSON export."""
    try:
        obj = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise Malformed(str(err), getattr(err, "lineno", None)) from err
    if not isinstance(obj, dict):
        raise SchemaViolation("", "top level must be an object")
    check_keys(obj, "", (), ("version", "theories"), "field")
    version = _get_str(obj, "version", "")
    check_version(version, SUPPORTED_VERSION)
    raw = obj.get("theories")
    if not isinstance(raw, list):
        raise SchemaViolation("theories", "missing or not a list")
    return ExportDoc(version, _theory_records(_toyhol_theories(raw), _parse_toyhol_decl))


# ---------------------------------------------------------------------------
# toyset XML parsing

# connective element -> its folSoft constant
_FOL_OPS = {
    "in": Const(fol_ident("in'")),
    "eq": Const(fol_ident("eq'")),
    "and": Const(fol_ident("and'")),
    "or": Const(fol_ident("or'")),
    "impl": Const(fol_ident("impl'")),
    "not": Const(fol_ident("not'")),
}
_TOYSET_COMMON = ("name", "src", "notation", "comment")


def _required(elem: ET.Element, key: str, path: str) -> str:
    value = elem.get(key)
    if not value:
        raise SchemaViolation(f"{path}.{key}", "missing")
    return value


def _check_fol_formula(elem: ET.Element, path: str) -> ET.Element:
    """Validate a formula or term element and return it: the import reads
    the element itself, so a connective is known by its tag alone."""
    tag = elem.tag
    if tag in _FOL_OPS:
        check_keys(elem.attrib, path, ())
        if tag == "not" and len(elem) != 1:
            raise SchemaViolation(path, "not takes one subformula")
        if tag != "not" and len(elem) != 2:
            raise SchemaViolation(path, f"{tag} takes two subformulas")
    elif tag == "forall":
        check_keys(elem.attrib, path, (), ("var",))
        _required(elem, "var", path)
        if len(elem) != 1:
            raise SchemaViolation(path, "forall takes one subformula")
    elif tag in ("var", "const"):
        check_keys(elem.attrib, path, (), ("name",))
        if len(elem):
            raise SchemaViolation(path, f"{tag} takes no children")
        _required(elem, "name", path)
    elif tag == "papp":
        check_keys(elem.attrib, path, (), ("name",))
        _required(elem, "name", path)
    else:
        raise SchemaViolation(path, f"unknown element <{tag}>")
    for k, kid in enumerate(elem):
        _check_fol_formula(kid, f"{path}.{tag}[{k}]")
    return elem


def _parse_src_attr(value: str, path: str) -> SourceRef:
    parts = value.rsplit(":", 2)
    if len(parts) != 3:
        raise SchemaViolation(path, "expected file:line:col")
    f, line, col = parts
    try:
        ln, co = int(line), int(col)
    except ValueError:
        raise SchemaViolation(path, "line/col must be integers") from None
    if not f or ln < 1 or co < 1:
        raise SchemaViolation(path, "expected file:line:col with positive positions")
    return SourceRef(f, ln, co, ln, co)


def _parse_toyset_decl(elem: ET.Element, path: str) -> DeclRecord:
    tag = elem.tag
    name = _required(elem, "name", path)
    src = _parse_src_attr(elem.get("src"), f"{path}.src") if elem.get("src") else None
    notation = elem.get("notation")
    comment = elem.get("comment")
    kids = list(elem)

    if tag == "constant":
        check_keys(elem.attrib, path, (), _TOYSET_COMMON)
        if kids:
            raise SchemaViolation(path, "constant takes no children")
        return DeclRecord("constant", name, src=src, notation=notation, comment=comment)
    if tag in ("axiom", "theorem"):
        allowed = _TOYSET_COMMON + (("deps",) if tag == "theorem" else ())
        check_keys(elem.attrib, path, (), allowed)
        if len(kids) != 1:
            raise SchemaViolation(path, f"{tag} takes exactly one formula")
        deps = tuple((elem.get("deps") or "").split()) if tag == "theorem" else ()
        formula = _check_fol_formula(kids[0], f"{path}.{tag}")
        return DeclRecord(tag, name, formula, deps=deps, src=src, notation=notation, comment=comment)
    if tag == "scheme":
        check_keys(elem.attrib, path, (), _TOYSET_COMMON)
        pvars = []
        formula = None
        for k, kid in enumerate(kids):
            kpath = f"{path}.scheme[{k}]"
            if kid.tag == "pvar":
                if formula is not None:
                    raise SchemaViolation(kpath, "pvar after formula")
                check_keys(kid.attrib, kpath, (), ("name", "arity"))
                pname = _required(kid, "name", kpath)
                try:
                    arity = int(kid.get("arity", "1"))
                except ValueError:
                    raise SchemaViolation(f"{kpath}.arity", "expected an integer") from None
                if arity < 0:
                    raise SchemaViolation(f"{kpath}.arity", "negative arity")
                if arity > MAX_DEPTH:
                    raise SchemaViolation(f"{kpath}.arity", f"arity above {MAX_DEPTH}")
                pvars.append((pname, arity))
            elif formula is None:
                formula = _check_fol_formula(kid, kpath)
            else:
                raise SchemaViolation(kpath, "more than one formula")
        if formula is None:
            raise SchemaViolation(path, "scheme needs a formula")
        return DeclRecord(
            "scheme", name, formula, src=src, notation=notation, comment=comment,
            pvars=tuple(pvars),
        )
    if tag == "definition":
        check_keys(elem.attrib, path, (), _TOYSET_COMMON)
        if len(kids) != 1 or kids[0].tag != "value":
            raise SchemaViolation(path, "definition takes exactly one <value>")
        check_keys(kids[0].attrib, f"{path}.value", ())
        vkids = list(kids[0])
        if len(vkids) != 1:
            raise SchemaViolation(f"{path}.value", "expected one term")
        value = _check_fol_formula(vkids[0], f"{path}.value")
        return DeclRecord(
            "definition", name, definiens=value, src=src, notation=notation, comment=comment
        )
    raise SchemaViolation(path, f"unknown element <{tag}>")


def _toyset_theories(root: ET.Element):
    for i, th in enumerate(root):
        path = f"theory[{i}]"
        if th.tag != "theory":
            raise SchemaViolation(path, f"unknown element <{th.tag}>")
        check_keys(th.attrib, path, (), ("name", "includes"))
        name = _required(th, "name", path)
        includes = tuple((th.get("includes") or "").split())
        yield path, name, includes, [(f"{path}.decl[{j}]", d) for j, d in enumerate(th)]


def parse_toyset(data: bytes) -> ExportDoc:
    """Parse and strictly validate a toyset XML export."""
    root = read_xml(data, "export", ("version",), SUPPORTED_VERSION)
    return ExportDoc(SUPPORTED_VERSION, _theory_records(_toyset_theories(root), _parse_toyset_decl))


# ---------------------------------------------------------------------------
# Church annotation inference

_HOL_TP = Const(hol_ident("tp"))
_HOL_TM = Const(hol_ident("tm"))
_HOL_BOOL = Const(hol_ident("bool'"))
_HOL_ARROW = Const(hol_ident("arrow"))
_HOL_LAM = Const(hol_ident("lam"))
_HOL_APP = Const(hol_ident("app"))
_HOL_FORALL = Const(hol_ident("forall"))
_HOL_IMPL = Const(hol_ident("impl"))
_HOL_EQ = Const(hol_ident("eq"))
_HOL_DED = Const(hol_ident("ded"))


class SMeta(Record):
    """Inference-time hole in a holChurch object type; never escapes the importer."""

    __match_args__ = _fields = ("var_id",)
    loose = 0  # read by the kernel terms built around a hole: it binds no index

    def __init__(self, var_id: int) -> None:
        _set(self, "var_id", var_id)


def _arrow_parts(t: Term) -> Optional[tuple[Term, Term]]:
    """Domain and codomain of an object type `arrow d c`, else None."""
    if type(t) is Apply and type(t.fn) is Apply and t.fn.fn == _HOL_ARROW:
        return t.fn.arg, t.arg
    return None


class _Unifier:
    """First-order unification of holChurch object types with SMeta holes.

    The terms unify compares are built without the factory, since they may
    hold holes; `zonk` builds the ground type through `terms`."""

    def __init__(self, terms: Terms) -> None:
        self.terms = terms
        self.subst: dict[int, Term] = {}
        self.counter = 0

    def fresh(self) -> SMeta:
        self.counter += 1
        return SMeta(self.counter)

    def walk(self, t: Term) -> Term:
        while isinstance(t, SMeta) and t.var_id in self.subst:
            t = self.subst[t.var_id]
        return t

    def occurs(self, m: SMeta, t: Term) -> bool:
        t = self.walk(t)
        if isinstance(t, SMeta):
            return t.var_id == m.var_id
        parts = _arrow_parts(t)
        return parts is not None and any(self.occurs(m, p) for p in parts)

    def unify(self, a: Term, b: Term, where: str) -> None:
        a, b = self.walk(a), self.walk(b)
        if isinstance(a, SMeta):
            if isinstance(b, SMeta) and a.var_id == b.var_id:
                return
            if self.occurs(a, b):
                raise UnificationFailure(where, "occurs check failed")
            self.subst[a.var_id] = b
            return
        if isinstance(b, SMeta):
            self.unify(b, a, where)
            return
        pa, pb = _arrow_parts(a), _arrow_parts(b)
        if pa and pb:
            self.unify(pa[0], pb[0], where)
            self.unify(pa[1], pb[1], where)
        elif a != b:
            q = clashing_names(a, b)
            raise UnificationFailure(where, f"{_fmt_stype(a, q)} vs {_fmt_stype(b, q)}")

    def zonk(self, t: Term, owner: str) -> Term:
        t = self.walk(t)
        if isinstance(t, SMeta):
            raise AmbiguousType(owner)
        parts = _arrow_parts(t)
        if parts:
            dom, cod = self.zonk(parts[0], owner), self.zonk(parts[1], owner)
            return self.terms.apps(_HOL_ARROW, dom, cod)
        return t


def _fmt_stype(t: Term, qualify: frozenset[str]) -> str:
    """An object type as written, `(j -> bool)`, qualified as in format_term."""
    if isinstance(t, SMeta):
        return f"?{t.var_id}"
    parts = _arrow_parts(t)
    if parts:
        return f"({_fmt_stype(parts[0], qualify)} -> {_fmt_stype(parts[1], qualify)})"
    if isinstance(t, Const):
        if t.ident.name in qualify:
            return str(t.ident)
        return "bool" if t == _HOL_BOOL else t.ident.name
    return repr(t)


def _spine(t: dict) -> tuple[dict, list[dict]]:
    """The head of a checked toyhol term and the arguments it is applied to."""
    args = []
    while "app" in t:
        t, arg = t["app"]
        args.append(arg)
    args.reverse()
    return t, args


def infer_church_annotations(
    consts: Mapping[str, tuple[Term, Term]],
    t: dict,
    base_types: Mapping[str, Ident],
    terms: Terms,
) -> tuple[Term, Term]:
    """Reconstruct the type annotations of the Church representation of
    a checked toyhol term.

    Simple-type inference by first-order unification of holChurch object
    types: `consts` binds each name to its kernel term and object type.
    `app` and `lam` come back fully annotated, `forall` carries its
    domain, and the logical heads impl/eq (when not shadowed by consts)
    map to the holChurch connectives, eq at a fresh instance type per
    occurrence. A binder's annotation resolves against `base_types`.
    Both results are built through `terms`.

    Returns the annotated kernel term and its object type.
    Raises UnificationFailure on a type clash, AmbiguousType when no
    ground type is forced, UnknownIdent for unbound names.
    """
    inference = _ChurchInference(consts, base_types, terms)
    build, ty = inference.annotate(t, [])
    return build(), inference.zonk(ty, "result")


class _ChurchInference(_Unifier):
    """The unifier of one `infer_church_annotations` call and the names it
    resolves. `annotate` returns (build, type); build() makes the kernel
    term. Builds refer to the unifier and to each other, never back."""

    def __init__(
        self, consts: Mapping[str, tuple[Term, Term]], base_types: Mapping[str, Ident], terms: Terms
    ) -> None:
        super().__init__(terms)
        self.consts, self.base_types = consts, base_types

    def logical(self, name: str, scope: list[tuple[str, Term]]) -> bool:
        return name in ("impl", "eq") and name not in self.consts and not any(
            n == name for n, _ in scope
        )

    def annotate(self, t: dict, scope: list[tuple[str, Term]]):
        terms, base_types = self.terms, self.base_types
        match t:
            case {"name": x}:
                for k, (n, st) in enumerate(reversed(scope)):
                    if n == x:
                        return (lambda: terms.var(k)), st
                if x in self.consts:
                    term, st = self.consts[x]
                    return (lambda: term), st
                if self.logical(x, scope):
                    raise UnificationFailure(x, "logical constant must be applied")
                raise UnknownIdent(x, x)
            case {"app": _}:
                head, args = _spine(t)
                if "name" in head and self.logical(head["name"], scope):
                    return self.annotate_logical(head["name"], args, scope)
                fb, ft = self.annotate(head, scope)
                w = _where(head)
                for arg in args:
                    ab, at = self.annotate(arg, scope)
                    res = self.fresh()
                    self.unify(ft, apps(_HOL_ARROW, at, res), w)
                    def build(fb=fb, ab=ab, at=at, res=res):
                        return terms.apps(_HOL_APP, self.zonk(at, w), self.zonk(res, w), fb(), ab())
                    fb, ft = build, res
                return fb, ft
            case {"abs": {"var": x, "body": body} as b}:
                vt = self.fresh() if "annot" not in b else _stype_term(b["annot"], base_types, terms)
                bb, bt = self.annotate(body, scope + [(x, vt)])
                def build(x=x, vt=vt, bb=bb, bt=bt):
                    dom = self.zonk(vt, x)
                    body = terms.node(Lambda, x, terms.apps(_HOL_TM, dom), bb())
                    return terms.apps(_HOL_LAM, dom, self.zonk(bt, x), body)
                return build, apps(_HOL_ARROW, vt, bt)
            case {"forall": {"var": x, "body": body} as b}:
                vt = self.fresh() if "annot" not in b else _stype_term(b["annot"], base_types, terms)
                bb, bt = self.annotate(body, scope + [(x, vt)])
                self.unify(bt, _HOL_BOOL, x)
                def build(x=x, vt=vt, bb=bb):
                    dom = self.zonk(vt, x)
                    body = terms.node(Lambda, x, terms.apps(_HOL_TM, dom), bb())
                    return terms.apps(_HOL_FORALL, dom, body)
                return build, _HOL_BOOL

    def annotate_logical(self, name: str, args: list[dict], scope: list[tuple[str, Term]]):
        if len(args) != 2:
            raise UnificationFailure(name, f"{name} takes two arguments")
        terms = self.terms
        lb, lt = self.annotate(args[0], scope)
        rb, rt = self.annotate(args[1], scope)
        if name == "impl":
            self.unify(lt, _HOL_BOOL, name)
            self.unify(rt, _HOL_BOOL, name)
            return (lambda: terms.apps(_HOL_IMPL, lb(), rb())), _HOL_BOOL
        inst = self.fresh()
        self.unify(lt, inst, name)
        self.unify(rt, inst, name)
        return (lambda: terms.apps(_HOL_EQ, self.zonk(inst, "eq"), lb(), rb())), _HOL_BOOL


def _where(head: dict) -> str:
    """The name an error in an application of `head` is reported at: the
    head's, or its binder's."""
    if "name" in head:
        return head["name"]
    return (head.get("abs") or head["forall"])["var"]


# ---------------------------------------------------------------------------
# the import driver, shared by both formats

_LOGICS = logic_library()


def _try_add(
    scope: Scope, cands: tuple[Declaration, ...], config: Config
) -> Optional[CheckResult]:
    """Add the candidates to the scope and check them; undo and return the first failing row."""
    undo = scope.add(cands)
    bad = check_theory(scope, scope.theory.name, config, only=cands).failures
    if bad:
        undo()
        return bad[0]
    return None


def _meta(rec: DeclRecord, kind: str) -> Metadata:
    return Metadata(
        kind=kind,
        source_ref=rec.src,
        comments=(rec.comment,) if rec.comment else (),
        notation=rec.notation,
    )


# The names a theory sees, by category ("consts", "stmts", ...): category ->
# local name -> what the name binds. Each format picks its own categories.
Env = dict[str, dict[str, object]]


def _import(
    doc: ExportDoc,
    ns: str,
    meta_theory: Ident,
    convert: Callable,
    config: Config,
) -> tuple[Library, CheckReport]:
    """Convert and kernel-check every record of `doc`, one at a time.

    `convert(rec, ident, env, scope, terms, config)` returns the record's candidate
    declarations and what its name binds in each category of `env` once
    they check; `env` starts as the environments of the included
    theories merged in order, so a later include wins. A failure is
    recorded in the report, on the theory when an include did not
    import, and the record or theory dropped; the rest continue. A name
    that does not resolve because its own record or theory was dropped
    is reported as one that failed to import, not as a bare unknown
    name. Every record's terms are built through one factory, `terms`, so
    that the equal subterms of the import are one node and `infer`'s memo
    serves them.
    """
    terms = Terms()
    rows: list[CheckResult] = []
    done: list[Theory] = []
    envs: dict[str, Env] = {}
    failed: dict[str, set[str]] = {}  # theory -> names dropped in it or its includes
    dropped: set[str] = set()  # theories

    for trec in doc.theories:
        th = theory_ident(ns, trec.name)
        missing = next((inc for inc in trec.includes if inc not in envs), None)
        if missing is not None:
            cause = " failed to import" if missing in dropped else ""
            rows.append(CheckResult.failed(th, UnknownIdent(f"included theory {missing}{cause}")))
            dropped.add(trec.name)
            continue
        empty = Theory(th, meta_theory, tuple(theory_ident(ns, inc) for inc in trec.includes))
        scope = Scope(Library(ns, tuple(done) + (empty,), deps=(_LOGICS,)), th)
        env: Env = defaultdict(dict)
        lost: set[str] = set()
        for inc in trec.includes:
            for category, bound in envs[inc].items():
                env[category].update(bound)
            lost |= failed[inc]

        for rec in trec.decls:
            ident = Ident(ns, trec.name, rec.name)
            try:
                cands, bindings = convert(rec, ident, env, scope, terms, config)
                row = _try_add(scope, cands, config) or CheckResult(ident, True)
            except CheckError as err:
                if isinstance(err, UnknownIdent) and err.name in lost:
                    err = UnknownIdent(f"{err} failed to import", err.name)
                row = CheckResult.failed(ident, err)
            rows.append(row)
            if row.ok:
                for category, binding in bindings.items():
                    env[category][rec.name] = binding
            else:
                lost.add(rec.name)

        done.append(replace(empty, decls=tuple(scope.decls)))
        envs[trec.name], failed[trec.name] = env, lost

    return Library(ns, tuple(done), deps=(_LOGICS,)), CheckReport(tuple(rows))


# ---------------------------------------------------------------------------
# toyhol import


def import_toyhol(doc: ExportDoc, config: Config = DEFAULT_CONFIG) -> tuple[Library, CheckReport]:
    """Build a holChurch-based Library from a parsed toyhol document.

    Declarations are converted and kernel-checked one at a time under
    `config`; a failure is recorded in the report and the declaration
    dropped, the rest continue.
    """
    return _import(doc, TOYHOL_NS, HOL_CHURCH, _toyhol_decl, config)


def _toyhol_decl(
    rec: DeclRecord, ident: Ident, env: Env, scope: Scope, terms: Terms, config: Config
) -> tuple[tuple[Declaration, ...], dict[str, object]]:
    """Convert one record. Its name binds a base type, a term (with its
    object type, resolved here, for the annotation inference), or a
    statement."""
    base_types = env["types"]
    consts = env["terms"]
    if rec.kind == "type":
        return (Declaration(ident, tp=_HOL_TP, meta=_meta(rec, "type")),), {"types": ident}
    if rec.kind in ("constant", "definition"):
        definiens = None
        if rec.definiens is not None:
            definiens, tp = infer_church_annotations(consts, rec.definiens, base_types, terms)
        if rec.tp is not None:
            tp = _stype_term(rec.tp, base_types, terms)
        decl = Declaration(
            ident, tp=terms.apps(_HOL_TM, tp), definiens=definiens, meta=_meta(rec, rec.kind)
        )
        return (decl,), {"terms": (terms.const(ident), tp)}
    # axiom or theorem: the type field is a formula
    term, ftype = infer_church_annotations(consts, rec.tp, base_types, terms)
    _Unifier(terms).unify(ftype, _HOL_BOOL, rec.name)
    proof = _depends_on(rec, env["stmts"])
    decl = Declaration(
        ident, tp=terms.apps(_HOL_DED, term), proof=proof, meta=_meta(rec, rec.kind)
    )
    return (decl,), {"stmts": ident}


def _depends_on(rec: DeclRecord, stmts: Mapping[str, Ident]) -> Proof:
    """The proof of an axiom or theorem record: its resolved deps, or
    Omitted when it lists none (an axiom never does)."""
    ids = []
    for dep in rec.deps:
        if dep not in stmts:
            raise UnknownIdent(f"dependency {dep}", dep)
        ids.append(stmts[dep])
    return DependsOn(tuple(ids)) if ids else Omitted()


def _stype_term(st, base_types: Mapping[str, Ident], terms: Terms) -> Term:
    """The holChurch object type a checked toyhol type denotes under `base_types`."""
    if isinstance(st, dict):
        dom, cod = st["arrow"]
        return terms.apps(
            _HOL_ARROW, _stype_term(dom, base_types, terms), _stype_term(cod, base_types, terms)
        )
    if st == "bool":
        return _HOL_BOOL
    if st not in base_types:
        raise UnknownIdent(f"base type {st}", st)
    return terms.const(base_types[st])


# ---------------------------------------------------------------------------
# toyset import

_FOL_SET = Const(fol_ident("set"))
_FOL_PROP = Const(fol_ident("prop"))
_FOL_DED = Const(fol_ident("ded"))
_FOL_FORALL = Const(fol_ident("forallSet"))


def func_definition_pattern() -> Pattern:
    """Mizar-style functor definition over folSoft.

    One parameter (the defining value); produces the new constant and
    its defining equation as an axiom.
    """
    def pid(name: str) -> Ident:
        return Ident(LOGIC_NS, "patterns", name)

    fn = Const(pid("fn"))
    body = (
        Declaration(pid("fn"), tp=_FOL_SET, meta=Metadata(kind="constant")),
        Declaration(
            pid("def"),
            tp=Apply(_FOL_DED, apps(_FOL_OPS["eq"], fn, Var(0))),
            meta=Metadata(kind="axiom"),
        ),
    )
    return Pattern(pid("func-definition"), Context().extend("value", _FOL_SET), body)


_FUNC_DEFINITION = func_definition_pattern()
_PATTERNS = {_FUNC_DEFINITION.name: _FUNC_DEFINITION}


def _fol_term(
    elem: ET.Element, scope: list[str], consts: Mapping[str, Const], terms: Terms
) -> Term:
    """A checked toyset formula or term element to a folSoft kernel term,
    built through `terms`.

    A connective is known by its element. The name of a `var`, `const`
    or `papp` resolves by binder scope, then to the theory's constants,
    and a `papp` applies it to its children.
    """
    tag = elem.tag
    if tag in _FOL_OPS:
        return terms.apps(_FOL_OPS[tag], *(_fol_term(kid, scope, consts, terms) for kid in elem))
    if tag == "forall":
        x = elem.get("var")
        inner = _fol_term(elem[0], scope + [x], consts, terms)
        return terms.apps(_FOL_FORALL, terms.node(Lambda, x, _FOL_SET, inner))
    x = elem.get("name")
    if x in scope:
        head: Term = terms.var(scope[::-1].index(x))
    elif x in consts:
        head = consts[x]
    else:
        raise UnknownIdent(x, x)
    return terms.apps(head, *(_fol_term(kid, scope, consts, terms) for kid in elem))


def _pvar_type(arity: int, terms: Terms) -> Term:
    """`set -> ... -> set -> prop` with `arity` arrows; each codomain is
    closed, so it goes under its binder unshifted."""
    t: Term = _FOL_PROP
    for _ in range(arity):
        t = terms.node(Pi, "_", _FOL_SET, t)
    return t


def import_toyset(doc: ExportDoc, config: Config = DEFAULT_CONFIG) -> tuple[Library, CheckReport]:
    """Build a folSoft-based Library from a parsed toyset document.

    Schemes close over their predicate variables with an explicit Pi
    prefix; definition records expand through the func-definition
    pattern. Failure handling matches import_toyhol.
    """
    return _import(doc, TOYSET_NS, FOL_SOFT, _toyset_decl, config)


def _toyset_decl(
    rec: DeclRecord, ident: Ident, env: Env, scope: Scope, terms: Terms, config: Config
) -> tuple[tuple[Declaration, ...], dict[str, object]]:
    """Convert one record. Its name binds the node of a set constant (for a
    definition, of the generated `name/fn`) or a statement. A scheme closes over its
    predicate variables with one Pi each, outermost first; a definition's
    generated declarations are interned in `terms` with the rest."""
    consts = env["consts"]
    if rec.kind == "constant":
        decl = Declaration(ident, tp=_FOL_SET, meta=_meta(rec, "constant"))
        return (decl,), {"consts": terms.const(ident)}
    if rec.kind in ("axiom", "theorem"):
        tp = terms.apps(_FOL_DED, _fol_term(rec.tp, [], consts, terms))
        proof = _depends_on(rec, env["stmts"])
        decl = Declaration(ident, tp=tp, proof=proof, meta=_meta(rec, rec.kind))
        return (decl,), {"stmts": ident}
    if rec.kind == "scheme":
        tp = terms.apps(_FOL_DED, _fol_term(rec.tp, [p for p, _ in rec.pvars], consts, terms))
        for pname, arity in reversed(rec.pvars):
            tp = terms.node(Pi, pname, _pvar_type(arity, terms), tp)
        decl = Declaration(ident, tp=tp, proof=Omitted(), meta=_meta(rec, "axiom"))
        return (decl,), {"stmts": ident}
    if rec.kind == "definition":
        value = _fol_term(rec.definiens, [], consts, terms)
        inst = PatternInstance(ident, _FUNC_DEFINITION.name, (value,))
        out = tuple(
            replace(
                d, tp=terms.intern(d.tp),
                meta=replace(_meta(rec, d.meta.kind), origin=d.meta.origin),
            )
            for d in elaborate_pattern(scope, inst, _PATTERNS, config)
        )
        return out, {"consts": terms.const(out[0].name)}
    raise SchemaViolation(rec.kind, "unknown record kind")


# ---------------------------------------------------------------------------
# source reference recovery

_NAME_CHARS = re.compile(r"[A-Za-z0-9_']")
# what may follow a declared name in a source line
_MARKERS = (":=", ":")


def _find_in_line(line: str, name: str) -> Optional[int]:
    """Column (0-based) of a token-boundary `name` followed by a marker."""
    start = 0
    while True:
        col = line.find(name, start)
        if col < 0:
            return None
        end = col + len(name)
        before_ok = col == 0 or not _NAME_CHARS.match(line[col - 1])
        after_ok = end >= len(line) or not _NAME_CHARS.match(line[end])
        if before_ok and after_ok:
            rest = line[end:].lstrip()
            if rest.startswith(_MARKERS):
                return col
        start = end


def _marker_ends(line: str) -> Iterator[int]:
    """Every index at which a name may end in `line`: where the rest of the
    line, leading whitespace stripped, starts with a marker. Every marker
    starts with ':'."""
    p = line.find(":")
    while p >= 0:
        q = p
        while q and line[q - 1].isspace():
            q -= 1
        yield from range(q, p + 1)
        p = line.find(":", p + 1)


def recover_source_refs(
    lib: Library, sources: Mapping[str, str]
) -> tuple[Library, CheckReport]:
    """Attach source locations recovered by scanning exported sources.

    Declarations that already carry a SourceRef are untouched. For the
    rest, files are scanned in sorted name order for the first
    token-boundary occurrence of the local name followed by `:=` or
    `:`; the match becomes a range covering the name.

    Each file is split once. Its lines are indexed by the wanted names
    that end where a marker may follow, so each name is matched only
    against the lines that index it, in scan order.
    """
    wanted = {d.name.name for th in lib.theories for d in th.decls if d.meta.source_ref is None}
    lengths = {len(n) for n in wanted}
    candidates: dict[str, list[tuple[str, int, str]]] = defaultdict(list)
    for fname in sorted(sources):
        for lineno, line in enumerate(sources[fname].splitlines(), start=1):
            for end in _marker_ends(line):
                for n in lengths:
                    name = line[end - n : end] if n <= end else None
                    if name in wanted:
                        lines = candidates[name]
                        if not lines or lines[-1][:2] != (fname, lineno):
                            lines.append((fname, lineno, line))
    rows: list[CheckResult] = []
    new_theories = []
    for th in lib.theories:
        new_decls = []
        for decl in th.decls:
            if decl.meta.source_ref is not None:
                new_decls.append(decl)
                continue
            name = decl.name.name
            found = None
            hits = 0
            for fname, lineno, line in candidates.get(name, ()):
                col = _find_in_line(line, name)
                if col is not None:
                    hits += 1
                    if found is None:
                        found = SourceRef(fname, lineno, col + 1, lineno, col + len(name))
            if found is None:
                rows.append(CheckResult(decl.name, False, "no source location found"))
                new_decls.append(decl)
            else:
                if hits > 1:
                    rows.append(
                        CheckResult(decl.name, True, f"{hits} candidate locations, first taken")
                    )
                new_decls.append(
                    replace(decl, meta=replace(decl.meta, source_ref=found))
                )
        new_theories.append(replace(th, decls=tuple(new_decls)))
    out = Library(lib.namespace, tuple(new_theories), lib.morphisms, deps=lib.deps)
    return out, CheckReport(tuple(rows))
