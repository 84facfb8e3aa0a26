"""Deterministic XML interchange for libraries.

The vocabulary is a small frozen OMDoc-inspired dialect, not the full
external schema: omdoc > theory > include | constant, with terms as
OMS/OMV/OMA/OMBIND and morphisms as assignment lists. Serialization is
a pure function of the library value: fixed attribute order, two-space
indentation, newline-terminated lines, UTF-8. No structure sharing is
attempted; each subterm is inlined, and the serialized element count
stays linear in the term node count.

Variables carry their de Bruijn index plus the binder's name hint. The
index alone is authoritative; the hint is for human readers.

References are verified where they are written: each writer notes the
identifiers it writes, and `serialize` resolves each distinct one once
before it returns, raising DanglingIdent for the first that does not
resolve. The reader resolves nothing; checking does.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Mapping, Optional

from .encodings import logic_library
from .errors import DanglingIdent, SchemaViolation, check_keys, read_xml
from .kernel import (
    Apply,
    Const,
    Declaration,
    DependsOn,
    Ident,
    KINDS,
    Lambda,
    Library,
    Metadata,
    Omitted,
    Pi,
    Proof,
    ProofTerm,
    SourceRef,
    SubIn,
    SubOut,
    SubType,
    Term,
    Theory,
    TypeKind,
    Var,
    theory_ident,
)
from .morphisms import Morphism

OMDOC_VERSION = "1"
FILE_EXTENSION = ".omdoc.xml"


# ---------------------------------------------------------------------------
# escaping


def _a(s: str) -> str:
    """Attribute-safe text. Whitespace must be escaped too: XML parsers
    normalize raw newlines and tabs in attribute values to spaces."""
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
        .replace("\n", "&#10;")
        .replace("\t", "&#9;")
        .replace("\r", "&#13;")
    )


def _t(s: str) -> str:
    return (
        s.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


# ---------------------------------------------------------------------------
# the binder table

# binder class -> (binder name, child fields, whether it binds a variable
# over its last child); the OMBIND writer and reader both go by it
_BINDERS: dict[type, tuple[str, tuple[str, ...], bool]] = {
    Lambda: ("lambda", ("dom", "body"), True),
    Pi: ("pi", ("dom", "cod"), True),
    TypeKind: ("type", (), False),
    SubType: ("sub", ("base", "pred"), False),
    SubIn: ("subin", ("elem", "witness"), False),
    SubOut: ("subout", ("elem",), False),
}
_BINDER_NAMED = {name: (cls, fields, binds) for cls, (name, fields, binds) in _BINDERS.items()}


# ---------------------------------------------------------------------------
# serialization

# Each writer notes the identifiers it writes that must resolve as keys of
# `refs`, in document order: ("theory", i) for meta, include and morphism
# endpoints, ("constant", i) for OMS and assignment names, and ("ref", i)
# for a dependsOn ref, which may also name a morphism.


def _term_lines(t: Term, ind: int, lines: list[str], hints: tuple[str, ...], refs: dict) -> None:
    sp = "  " * ind
    cls = type(t)
    if cls is Apply:
        spine: list[Term] = []
        head: Term = t
        while isinstance(head, Apply):
            spine.append(head.arg)
            head = head.fn
        spine.append(head)
        spine.reverse()
        lines.append(f"{sp}<OMA>")
        for part in spine:
            _term_lines(part, ind + 1, lines, hints, refs)
        lines.append(f"{sp}</OMA>")
    elif cls is Const:
        refs["constant", t.ident] = None
        lines.append(f'{sp}<OMS name="{_a(str(t.ident))}"/>')
    elif cls is Var:
        i = t.index
        if i < len(hints):
            lines.append(f'{sp}<OMV index="{i}" hint="{_a(hints[-1 - i])}"/>')
        else:
            lines.append(f'{sp}<OMV index="{i}"/>')
    elif cls in _BINDERS:
        binder, fields, binds = _BINDERS[cls]
        if not fields:
            lines.append(f'{sp}<OMBIND binder="{binder}"/>')
            return
        var = f' var="{_a(t.hint)}"' if binds else ""
        lines.append(f'{sp}<OMBIND binder="{binder}"{var}>')
        for f in fields[:-1]:
            _term_lines(getattr(t, f), ind + 1, lines, hints, refs)
        last = getattr(t, fields[-1])
        _term_lines(last, ind + 1, lines, hints + (t.hint,) if binds else hints, refs)
        lines.append(f"{sp}</OMBIND>")
    else:
        raise AssertionError(f"unserializable term {t!r}")


def _metadata_lines(meta: Metadata, ind: int, lines: list[str]) -> None:
    has_body = meta.source_ref or meta.comments or meta.notation is not None
    if not has_body and meta.origin is None:
        return
    sp = "  " * ind
    origin = f' origin="{_a(str(meta.origin))}"' if meta.origin is not None else ""
    if not has_body:
        lines.append(f"{sp}<metadata{origin}/>")
        return
    lines.append(f"{sp}<metadata{origin}>")
    sp2 = "  " * (ind + 1)
    if meta.source_ref is not None:
        r = meta.source_ref
        lines.append(
            f'{sp2}<srcref file="{_a(r.file)}" sl="{r.start_line}" sc="{r.start_col}"'
            f' el="{r.end_line}" ec="{r.end_col}"/>'
        )
    for c in meta.comments:
        lines.append(f"{sp2}<comment/>" if c == "" else f"{sp2}<comment>{_t(c)}</comment>")
    if meta.notation is not None:
        n = meta.notation
        lines.append(
            f"{sp2}<notation/>" if n == "" else f"{sp2}<notation>{_t(n)}</notation>"
        )
    lines.append(f"{sp}</metadata>")


def _decl_lines(d: Declaration, ind: int, lines: list[str], refs: dict) -> None:
    sp = "  " * ind
    lines.append(f'{sp}<constant name="{_a(d.name.name)}" kind="{d.meta.kind}">')
    sp2 = "  " * (ind + 1)
    if d.tp is not None:
        lines.append(f"{sp2}<type>")
        _term_lines(d.tp, ind + 2, lines, (), refs)
        lines.append(f"{sp2}</type>")
    if d.definiens is not None:
        lines.append(f"{sp2}<definition>")
        _term_lines(d.definiens, ind + 2, lines, (), refs)
        lines.append(f"{sp2}</definition>")
    match d.proof:
        case Omitted():
            lines.append(f'{sp2}<proof style="omitted"/>')
        case DependsOn(ids):
            if ids:
                lines.append(f'{sp2}<proof style="dependsOn">')
                for i in ids:
                    refs["ref", i] = None
                    lines.append(f'{"  " * (ind + 2)}<ref name="{_a(str(i))}"/>')
                lines.append(f"{sp2}</proof>")
            else:
                lines.append(f'{sp2}<proof style="dependsOn"/>')
        case ProofTerm(t):
            lines.append(f'{sp2}<proof style="term">')
            _term_lines(t, ind + 2, lines, (), refs)
            lines.append(f"{sp2}</proof>")
        case _:
            pass
    # origin is provenance, not a reference: it may name a pattern
    # instance that elaboration replaced with generated decls
    _metadata_lines(d.meta, ind + 1, lines)
    lines.append(f"{sp}</constant>")


def _theory_lines(th: Theory, ind: int, lines: list[str], refs: dict) -> None:
    sp = "  " * ind
    meta = ""
    if th.meta_theory is not None:
        refs["theory", th.meta_theory] = None
        meta = f' meta="{_a(str(th.meta_theory))}"'
    head = f'{sp}<theory name="{_a(th.name.name)}"{meta}'
    if not th.includes and not th.decls:
        lines.append(head + "/>")
        return
    lines.append(head + ">")
    sp2 = "  " * (ind + 1)
    for inc in th.includes:
        refs["theory", inc] = None
        lines.append(f'{sp2}<include from="{_a(str(inc))}"/>')
    for d in th.decls:
        _decl_lines(d, ind + 1, lines, refs)
    lines.append(f"{sp}</theory>")


def _morphism_lines(m: Morphism, ind: int, lines: list[str], refs: dict) -> None:
    sp = "  " * ind
    refs["theory", m.source] = refs["theory", m.target] = None
    head = (
        f'{sp}<morphism name="{_a(str(m.name))}" from="{_a(str(m.source))}"'
        f' to="{_a(str(m.target))}"'
    )
    if not m.assignments:
        lines.append(head + "/>")
        return
    lines.append(head + ">")
    sp2 = "  " * (ind + 1)
    for c, t in m.assignments:
        refs["constant", c] = None
        lines.append(f'{sp2}<assignment name="{_a(str(c))}">')
        _term_lines(t, ind + 2, lines, (), refs)
        lines.append(f"{sp2}</assignment>")
    lines.append(f"{sp}</morphism>")


def serialize(lib: Library) -> bytes:
    """Render the library; raises DanglingIdent for the first reference,
    in document order, that does not resolve in the library or its
    dependencies."""
    attrs = f'version="{OMDOC_VERSION}" namespace="{_a(lib.namespace)}"'
    lines: list[str] = []
    refs: dict[tuple[str, Ident], None] = {}
    if not lib.theories and not lib.morphisms:
        lines.append(f"<omdoc {attrs}/>")
    else:
        lines.append(f"<omdoc {attrs}>")
        for th in lib.theories:
            _theory_lines(th, 1, lines, refs)
        for m in lib.morphisms:
            _morphism_lines(m, 1, lines, refs)
        lines.append("</omdoc>")
    for kind, i in refs:
        if kind == "theory":
            if lib.find_theory(i) is None:
                raise DanglingIdent(f"theory {i}")
        elif lib.find_decl(i) is None and (kind == "constant" or lib.find_morphism(i) is None):
            raise DanglingIdent(str(i))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# parsing


def _no_text(elem: ET.Element, path: str) -> None:
    if elem.text is not None and elem.text.strip():
        raise SchemaViolation(path, "unexpected text content")
    for kid in elem:
        if kid.tail is not None and kid.tail.strip():
            raise SchemaViolation(path, "unexpected text content")


def _leaf(elem: ET.Element, path: str, required: tuple[str, ...]) -> Mapping[str, str]:
    """The attributes of an element that takes no children."""
    check_keys(elem.attrib, path, required)
    if len(elem):
        raise SchemaViolation(path, f"{elem.tag} takes no children")
    return elem.attrib


def _ident(text: str, path: str, idents: dict[str, Ident]) -> Ident:
    """The identifier `text` names; `idents` holds those already read from
    the same document, so each distinct text is validated once."""
    ident = idents.get(text)
    if ident is None:
        try:
            ident = idents[text] = Ident.parse(text)
        except ValueError as err:
            raise SchemaViolation(path, str(err)) from None
    return ident


def _int_attr(value: str, path: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SchemaViolation(path, "expected an integer") from None


def _parse_term(elem: ET.Element, path: str, idents: dict[str, Ident]) -> Term:
    tag = elem.tag
    kids = list(elem)
    if tag == "OMS":
        a = check_keys(elem.attrib, path, ("name",))
        _no_text(elem, path)
        if kids:
            raise SchemaViolation(path, "OMS takes no children")
        return Const(_ident(a["name"], f"{path}.name", idents))
    if tag == "OMV":
        a = check_keys(elem.attrib, path, ("index",), ("hint",))
        _no_text(elem, path)
        if kids:
            raise SchemaViolation(path, "OMV takes no children")
        index = _int_attr(a["index"], f"{path}.index")
        if index < 0:
            raise SchemaViolation(f"{path}.index", "negative index")
        return Var(index)
    if tag == "OMA":
        check_keys(elem.attrib, path, ())
        _no_text(elem, path)
        if len(kids) < 2:
            raise SchemaViolation(path, "OMA needs a head and at least one argument")
        parts = [
            _parse_term(k, f"{path}.{k.tag}[{i}]", idents) for i, k in enumerate(kids)
        ]
        t = parts[0]
        for arg in parts[1:]:
            t = Apply(t, arg)
        return t
    if tag == "OMBIND":
        a = check_keys(elem.attrib, path, ("binder",), ("var",))
        _no_text(elem, path)
        binder = a["binder"]
        parts = [_parse_term(k, f"{path}.{k.tag}[{i}]", idents) for i, k in enumerate(kids)]
        cls, fields, binds = _BINDER_NAMED.get(binder, (None, (), False))
        if "var" in a and not binds:
            raise SchemaViolation(f"{path}.var", f"binder {binder} takes no variable")
        if cls is None:
            raise SchemaViolation(f"{path}.binder", f"unknown binder {binder!r}")
        if len(parts) != len(fields):
            raise SchemaViolation(path, f"binder {binder} takes {len(fields)} children")
        return cls(a.get("var", "_"), *parts) if binds else cls(*parts)
    raise SchemaViolation(path, f"unknown element <{tag}>")


def _one_term_child(elem: ET.Element, path: str, idents: dict[str, Ident]) -> Term:
    kids = list(elem)
    if len(kids) != 1:
        raise SchemaViolation(path, "expected exactly one term")
    return _parse_term(kids[0], f"{path}.{kids[0].tag}", idents)


def _parse_metadata(elem: ET.Element, path: str, idents: dict[str, Ident]):
    a = check_keys(elem.attrib, path, (), ("origin",))
    origin = _ident(a["origin"], f"{path}.origin", idents) if "origin" in a else None
    source_ref = None
    comments: list[str] = []
    notation = None
    for i, kid in enumerate(elem):
        kpath = f"{path}.{kid.tag}[{i}]"
        if kid.tag == "srcref":
            if source_ref is not None:
                raise SchemaViolation(kpath, "duplicate srcref")
            ka = _leaf(kid, kpath, ("file", "sl", "sc", "el", "ec"))
            try:
                source_ref = SourceRef(
                    ka["file"],
                    _int_attr(ka["sl"], f"{kpath}.sl"),
                    _int_attr(ka["sc"], f"{kpath}.sc"),
                    _int_attr(ka["el"], f"{kpath}.el"),
                    _int_attr(ka["ec"], f"{kpath}.ec"),
                )
            except ValueError as err:
                raise SchemaViolation(kpath, str(err)) from None
        elif kid.tag == "comment":
            _leaf(kid, kpath, ())
            comments.append(kid.text or "")
        elif kid.tag == "notation":
            if notation is not None:
                raise SchemaViolation(kpath, "duplicate notation")
            _leaf(kid, kpath, ())
            notation = kid.text or ""
        else:
            raise SchemaViolation(kpath, f"unknown element <{kid.tag}>")
    return origin, source_ref, tuple(comments), notation


def _parse_proof(elem: ET.Element, path: str, idents: dict[str, Ident]) -> Proof:
    a = check_keys(elem.attrib, path, ("style",))
    _no_text(elem, path)
    style = a["style"]
    kids = list(elem)
    if style == "omitted":
        if kids:
            raise SchemaViolation(path, "omitted proof takes no children")
        return Omitted()
    if style == "dependsOn":
        ids = []
        for i, kid in enumerate(kids):
            kpath = f"{path}.{kid.tag}[{i}]"
            if kid.tag != "ref":
                raise SchemaViolation(kpath, f"unknown element <{kid.tag}>")
            ka = _leaf(kid, kpath, ("name",))
            ids.append(_ident(ka["name"], f"{kpath}.name", idents))
        try:
            return DependsOn(tuple(ids))
        except ValueError as err:
            raise SchemaViolation(path, str(err)) from None
    if style == "term":
        return ProofTerm(_one_term_child(elem, path, idents))
    raise SchemaViolation(f"{path}.style", f"unknown proof style {style!r}")


def _parse_constant(
    elem: ET.Element, path: str, namespace: str, module: str, idents: dict[str, Ident]
) -> Declaration:
    a = check_keys(elem.attrib, path, ("name", "kind"))
    _no_text(elem, path)
    if a["kind"] not in KINDS:
        raise SchemaViolation(f"{path}.kind", f"unknown kind {a['kind']!r}")
    tp = definiens = proof = None
    origin = source_ref = notation = None
    comments: tuple[str, ...] = ()
    seen = set()
    for kid in elem:
        kpath = f"{path}.{kid.tag}"
        if kid.tag in seen:
            raise SchemaViolation(kpath, f"duplicate <{kid.tag}>")
        seen.add(kid.tag)
        if kid.tag == "type":
            check_keys(kid.attrib, kpath, ())
            _no_text(kid, kpath)
            tp = _one_term_child(kid, kpath, idents)
        elif kid.tag == "definition":
            check_keys(kid.attrib, kpath, ())
            _no_text(kid, kpath)
            definiens = _one_term_child(kid, kpath, idents)
        elif kid.tag == "proof":
            proof = _parse_proof(kid, kpath, idents)
        elif kid.tag == "metadata":
            _no_text(kid, kpath)
            origin, source_ref, comments, notation = _parse_metadata(kid, kpath, idents)
        else:
            raise SchemaViolation(kpath, f"unknown element <{kid.tag}>")
    try:
        name = Ident(namespace, module, a["name"])
        meta = Metadata(
            kind=a["kind"],
            source_ref=source_ref,
            comments=comments,
            notation=notation,
            origin=origin,
        )
        return Declaration(name, tp=tp, definiens=definiens, proof=proof, meta=meta)
    except ValueError as err:
        raise SchemaViolation(path, str(err)) from None


def _parse_theory(elem: ET.Element, path: str, namespace: str, idents: dict[str, Ident]) -> Theory:
    a = check_keys(elem.attrib, path, ("name",), ("meta",))
    _no_text(elem, path)
    meta_theory = _ident(a["meta"], f"{path}.meta", idents) if "meta" in a else None
    includes = []
    decls = []
    for i, kid in enumerate(elem):
        kpath = f"{path}.{kid.tag}[{i}]"
        if kid.tag == "include":
            if decls:
                raise SchemaViolation(kpath, "includes must precede constants")
            ka = _leaf(kid, kpath, ("from",))
            includes.append(_ident(ka["from"], f"{kpath}.from", idents))
        elif kid.tag == "constant":
            decls.append(_parse_constant(kid, kpath, namespace, a["name"], idents))
        else:
            raise SchemaViolation(kpath, f"unknown element <{kid.tag}>")
    try:
        return Theory(
            theory_ident(namespace, a["name"]),
            meta_theory=meta_theory,
            includes=tuple(includes),
            decls=tuple(decls),
        )
    except ValueError as err:
        raise SchemaViolation(path, str(err)) from None


def _parse_morphism(elem: ET.Element, path: str, idents: dict[str, Ident]) -> Morphism:
    a = check_keys(elem.attrib, path, ("name", "from", "to"))
    _no_text(elem, path)
    assignments = []
    for i, kid in enumerate(elem):
        kpath = f"{path}.{kid.tag}[{i}]"
        if kid.tag != "assignment":
            raise SchemaViolation(kpath, f"unknown element <{kid.tag}>")
        ka = check_keys(kid.attrib, kpath, ("name",))
        _no_text(kid, kpath)
        assignments.append(
            (_ident(ka["name"], f"{kpath}.name", idents), _one_term_child(kid, kpath, idents))
        )
    try:
        return Morphism(
            _ident(a["name"], f"{path}.name", idents),
            _ident(a["from"], f"{path}.from", idents),
            _ident(a["to"], f"{path}.to", idents),
            tuple(assignments),
        )
    except ValueError as err:
        raise SchemaViolation(path, str(err)) from None


def parse(data: bytes, deps: Optional[tuple[Library, ...]] = None) -> Library:
    """Inverse of serialize, strict about the vocabulary.

    `deps` supplies the support libraries attached to the result so its
    references resolve for later checking or re-serialization; by
    default the bundled logic encodings.
    """
    root = read_xml(data, "omdoc", ("version", "namespace"), OMDOC_VERSION)
    _no_text(root, "omdoc")
    namespace = root.get("namespace")
    idents: dict[str, Ident] = {}
    theories = []
    morphisms = []
    for i, kid in enumerate(root):
        kpath = f"omdoc.{kid.tag}[{i}]"
        if kid.tag == "theory":
            if morphisms:
                raise SchemaViolation(kpath, "theories must precede morphisms")
            theories.append(_parse_theory(kid, kpath, namespace, idents))
        elif kid.tag == "morphism":
            morphisms.append(_parse_morphism(kid, kpath, idents))
        else:
            raise SchemaViolation(kpath, f"unknown element <{kid.tag}>")
    lib_deps = deps if deps is not None else (logic_library(),)
    try:
        return Library(namespace, tuple(theories), tuple(morphisms), deps=lib_deps)
    except ValueError as err:
        raise SchemaViolation("omdoc", str(err)) from None
