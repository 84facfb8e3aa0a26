"""Deterministic XML interchange for libraries.

The vocabulary is a small frozen OMDoc-inspired dialect, not the full
external schema: omdoc > theory > include | constant, with terms as
OMS/OMV/OMA/OMBIND and morphisms as assignment lists. Serialization is
a pure function of the library value: fixed attribute order,
newline-terminated lines, UTF-8. Theory, declaration and metadata
elements take one line each, indented two spaces per level; each term
is written on its wrapper's line without whitespace, so its bytes grow
with its size, not its depth. The reader accepts any whitespace between
elements. The file attempts no structure sharing; each subterm is
inlined, and the serialized element count stays linear in the term node
count. The writer and the reader each walk a term with an explicit
stack, not by recursion, so both take terms of any depth. The reader
builds each document's terms through one `kernel.Terms`, so the equal
subterms of one document, hints included, are one shared object and
the checker can infer each type once.

Variables carry their de Bruijn index plus the binder's name hint. The
index alone is authoritative; the hint is for human readers.

References are verified where they are written: each writer notes the
identifiers it writes, and `serialize` resolves each distinct one once
before it returns, raising DanglingIdent for the first that does not
resolve. The reader resolves nothing; checking does.

The reader raises SchemaViolation at the dotted path of the element or
attribute at fault, as the other readers do: each element reader takes
its element's path from its caller. Paths are formatted as elements are
read down to each term's wrapper; a term node's path is formatted only
for an error.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Mapping, Optional

from .encodings import LOGICS
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
    Terms,
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


def _term(t: Term, refs: dict) -> str:
    """The term as one string without whitespace. It is written from an
    explicit stack of pending terms and closing tags, not by recursion,
    so no term is too deep to write. A pending term carries its binder
    depth; a binder's last child also carries the name it binds, which
    it writes into `names`, the binder names in scope, when it starts.
    An identifier's `<OMS>` text is escaped once per `serialize` call:
    it is kept as the value of its ("constant", ident) key in `refs`."""
    out: list[str] = []
    names: list[str] = []
    stack: list = [(t, 0, None)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, depth, bound = item
        if bound is not None:
            names[depth - 1 :] = [bound]
        cls = type(t)
        if cls is Apply:
            out.append("<OMA>")
            stack.append("</OMA>")
            while isinstance(t, Apply):
                stack.append((t.arg, depth, None))
                t = t.fn
            stack.append((t, depth, None))
        elif cls is Const:
            key = "constant", t.ident
            oms = refs.get(key)
            if oms is None:
                oms = refs[key] = f'<OMS name="{_a(str(t.ident))}"/>'
            out.append(oms)
        elif cls is Var:
            i = t.index
            if i < depth:
                out.append(f'<OMV index="{i}" hint="{_a(names[depth - 1 - i])}"/>')
            else:
                out.append(f'<OMV index="{i}"/>')
        elif cls in _BINDERS:
            binder, fields, binds = _BINDERS[cls]
            if not fields:
                out.append(f'<OMBIND binder="{binder}"/>')
                continue
            var = f' var="{_a(t.hint)}"' if binds else ""
            out.append(f'<OMBIND binder="{binder}"{var}>')
            stack.append("</OMBIND>")
            last = getattr(t, fields[-1])
            stack.append((last, depth + 1, t.hint) if binds else (last, depth, None))
            for f in reversed(fields[:-1]):
                stack.append((getattr(t, f), depth, None))
        else:
            raise AssertionError(f"unserializable term {t!r}")
    return "".join(out)


def _metadata_lines(meta: Metadata, lines: list[str]) -> None:
    has_body = meta.source_ref or meta.comments or meta.notation is not None
    if not has_body and meta.origin is None:
        return
    origin = f' origin="{_a(str(meta.origin))}"' if meta.origin is not None else ""
    if not has_body:
        lines.append(f"      <metadata{origin}/>")
        return
    lines.append(f"      <metadata{origin}>")
    if meta.source_ref is not None:
        r = meta.source_ref
        lines.append(
            f'        <srcref file="{_a(r.file)}" sl="{r.start_line}" sc="{r.start_col}"'
            f' el="{r.end_line}" ec="{r.end_col}"/>'
        )
    for c in meta.comments:
        lines.append("        <comment/>" if c == "" else f"        <comment>{_t(c)}</comment>")
    if meta.notation is not None:
        n = meta.notation
        lines.append(
            "        <notation/>" if n == "" else f"        <notation>{_t(n)}</notation>"
        )
    lines.append("      </metadata>")


def _decl_lines(d: Declaration, lines: list[str], refs: dict) -> None:
    lines.append(f'    <constant name="{_a(d.name.name)}" kind="{d.meta.kind}">')
    if d.tp is not None:
        lines.append(f"      <type>{_term(d.tp, refs)}</type>")
    if d.definiens is not None:
        lines.append(f"      <definition>{_term(d.definiens, refs)}</definition>")
    match d.proof:
        case Omitted():
            lines.append('      <proof style="omitted"/>')
        case DependsOn(ids):
            if ids:
                lines.append('      <proof style="dependsOn">')
                for i in ids:
                    refs["ref", i] = None
                    lines.append(f'        <ref name="{_a(str(i))}"/>')
                lines.append("      </proof>")
            else:
                lines.append('      <proof style="dependsOn"/>')
        case ProofTerm(t):
            lines.append(f'      <proof style="term">{_term(t, refs)}</proof>')
    # origin is provenance, not a reference: it may name a source record,
    # such as a toyset definition, that the import expanded into other decls
    _metadata_lines(d.meta, lines)
    lines.append("    </constant>")


def _theory_lines(th: Theory, lines: list[str], refs: dict) -> None:
    meta = ""
    if th.meta_theory is not None:
        refs["theory", th.meta_theory] = None
        meta = f' meta="{_a(str(th.meta_theory))}"'
    head = f'  <theory name="{_a(th.name.name)}"{meta}'
    if not th.includes and not th.decls:
        lines.append(head + "/>")
        return
    lines.append(head + ">")
    for inc in th.includes:
        refs["theory", inc] = None
        lines.append(f'    <include from="{_a(str(inc))}"/>')
    for d in th.decls:
        _decl_lines(d, lines, refs)
    lines.append("  </theory>")


def _morphism_lines(m: Morphism, lines: list[str], refs: dict) -> None:
    refs["theory", m.source] = refs["theory", m.target] = None
    head = (
        f'  <morphism name="{_a(str(m.name))}" from="{_a(str(m.source))}"'
        f' to="{_a(str(m.target))}"'
    )
    if not m.assignments:
        lines.append(head + "/>")
        return
    lines.append(head + ">")
    for c, t in m.assignments:
        refs["constant", c] = None
        lines.append(f'    <assignment name="{_a(str(c))}">{_term(t, refs)}</assignment>')
    lines.append("  </morphism>")


def serialize(lib: Library) -> bytes:
    """Render the library; raises DanglingIdent for the first reference,
    in document order, that does not resolve in the library or its
    dependencies."""
    attrs = f'version="{OMDOC_VERSION}" namespace="{_a(lib.namespace)}"'
    lines: list[str] = []
    refs: dict[tuple[str, Ident], Optional[str]] = {}
    if not lib.theories and not lib.morphisms:
        lines.append(f"<omdoc {attrs}/>")
    else:
        lines.append(f"<omdoc {attrs}>")
        for th in lib.theories:
            _theory_lines(th, lines, refs)
        for m in lib.morphisms:
            _morphism_lines(m, lines, refs)
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


def _stray_text(elem: ET.Element) -> bool:
    """Whether `elem` holds non-whitespace text, its own or a child's tail."""
    text = elem.text
    if text and not text.isspace():
        return True
    for kid in elem:
        text = kid.tail
        if text and not text.isspace():
            return True
    return False


def _no_text(elem: ET.Element, path: str) -> None:
    if _stray_text(elem):
        raise SchemaViolation(path, "unexpected text content")


def _leaf(elem: ET.Element, path: str, required: tuple[str, ...]) -> Mapping[str, str]:
    """The attributes of an element that takes no children."""
    check_keys(elem.attrib, path, required)
    if len(elem):
        raise SchemaViolation(path, f"{elem.tag} takes no children")
    return elem.attrib


def _ident(attrs: Mapping[str, str], key: str, path: str, terms: Terms) -> Ident:
    """The identifier that attribute `key` names, read through the
    document's `terms`, so each distinct text is validated once."""
    try:
        return terms.named(attrs[key]).ident
    except ValueError as err:
        raise SchemaViolation(f"{path}.{key}", str(err)) from None


def _int_attr(attrs: Mapping[str, str], key: str, path: str) -> int:
    try:
        return int(attrs[key])
    except ValueError:
        raise SchemaViolation(f"{path}.{key}", "expected an integer") from None


def _path(frames: list, elem: ET.Element) -> str:
    """The path of `elem`, the child being read of the last of `frames`.
    The first frame holds the wrapper's path in place of an element;
    each later frame's element is the child being read of the frame
    before it, and a frame's next child index is the number of parts it
    has built."""
    elems = [f[0] for f in frames[1:]] + [elem]
    steps = [frames[0][0], ".", elems[0].tag]
    for (_, _, built), kid in zip(frames[1:], elems[1:]):
        steps.append(f".{kid.tag}[{len(built)}]")
    return "".join(steps)


def _leaf_content(elem: ET.Element, path: str) -> SchemaViolation:
    """The error for an OMS or OMV that holds text or children."""
    if _stray_text(elem):
        return SchemaViolation(path, "unexpected text content")
    return SchemaViolation(path, f"{elem.tag} takes no children")


def _parse_term(wrapper: ET.Element, path: str, terms: Terms) -> Term:
    """The one term inside `wrapper`, the element at `path`.

    The term is read from an explicit stack of frames, not by recursion,
    so no term is too deep to read. A frame holds an element, an
    iterator over its children, and the parts built from the children
    read so far; the first frame holds `path` in place of the wrapper.
    Each element is checked in the order its messages rank: attributes,
    text, children (OMS, OMV and OMA), and, once an OMBIND's children
    are built, its variable, binder name and arity. A term node's path
    is formatted only for an error.

    Every node is built through `terms`, the document's one factory, so
    the equal subterms of one document, hints included, come back as one
    object; an OMS is looked up by its name's text.
    """
    if len(wrapper) != 1:
        raise SchemaViolation(path, "expected exactly one term")
    elem, kids, parts = path, iter(wrapper), []
    stack = [(elem, kids, parts)]
    while True:
        for kid in kids:
            tag = kid.tag
            a = kid.attrib
            if tag == "OMS":
                name = a.get("name")
                if name is None or len(a) != 1:
                    check_keys(a, _path(stack, kid), ("name",))
                if len(kid) or (text := kid.text) and not text.isspace():
                    raise _leaf_content(kid, _path(stack, kid))
                try:
                    parts.append(terms.named(name))
                except ValueError as err:
                    raise SchemaViolation(f"{_path(stack, kid)}.name", str(err)) from None
            elif tag == "OMV":
                index = a.get("index")
                if index is None or len(a) != 1 and (len(a) != 2 or "hint" not in a):
                    check_keys(a, _path(stack, kid), ("index",), ("hint",))
                if len(kid) or (text := kid.text) and not text.isspace():
                    raise _leaf_content(kid, _path(stack, kid))
                try:
                    index = int(index)
                except ValueError:
                    raise SchemaViolation(
                        f"{_path(stack, kid)}.index", "expected an integer"
                    ) from None
                if index < 0:
                    raise SchemaViolation(f"{_path(stack, kid)}.index", "negative index")
                parts.append(terms.var(index))
            elif tag == "OMA" or tag == "OMBIND":
                if tag == "OMA":
                    if a:
                        check_keys(a, _path(stack, kid), ())
                elif "binder" not in a or len(a) != 1 and (len(a) != 2 or "var" not in a):
                    check_keys(a, _path(stack, kid), ("binder",), ("var",))
                if _stray_text(kid):
                    raise SchemaViolation(_path(stack, kid), "unexpected text content")
                if tag == "OMA" and len(kid) < 2:
                    raise SchemaViolation(
                        _path(stack, kid), "OMA needs a head and at least one argument"
                    )
                elem, kids, parts = kid, iter(kid), []
                stack.append((elem, kids, parts))
                break
            else:
                raise SchemaViolation(_path(stack, kid), f"unknown element <{tag}>")
        else:
            if elem is path:
                return parts[0]
            stack.pop()
            if elem.tag == "OMA":
                t = terms.apps(*parts)
            else:
                a = elem.attrib
                binder = a["binder"]
                cls, fields, binds = _BINDER_NAMED.get(binder, (None, (), False))
                if "var" in a and not binds:
                    raise SchemaViolation(
                        f"{_path(stack, elem)}.var", f"binder {binder} takes no variable"
                    )
                if cls is None:
                    raise SchemaViolation(
                        f"{_path(stack, elem)}.binder", f"unknown binder {binder!r}"
                    )
                if len(parts) != len(fields):
                    raise SchemaViolation(
                        _path(stack, elem), f"binder {binder} takes {len(fields)} children"
                    )
                t = terms.node(cls, a.get("var", "_") if binds else None, *parts)
            elem, kids, parts = stack[-1]
            parts.append(t)


def _parse_metadata(elem: ET.Element, path: str, terms: Terms):
    a = check_keys(elem.attrib, path, (), ("origin",))
    origin = _ident(a, "origin", path, terms) if "origin" in a else None
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
                    _int_attr(ka, "sl", kpath),
                    _int_attr(ka, "sc", kpath),
                    _int_attr(ka, "el", kpath),
                    _int_attr(ka, "ec", kpath),
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


def _parse_proof(elem: ET.Element, path: str, terms: Terms) -> Proof:
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
            ids.append(_ident(_leaf(kid, kpath, ("name",)), "name", kpath, terms))
        try:
            return DependsOn(tuple(ids))
        except ValueError as err:
            raise SchemaViolation(path, str(err)) from None
    if style == "term":
        return ProofTerm(_parse_term(elem, path, terms))
    raise SchemaViolation(f"{path}.style", f"unknown proof style {style!r}")


def _parse_constant(
    elem: ET.Element, path: str, namespace: str, module: str, terms: Terms
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
            tp = _parse_term(kid, kpath, terms)
        elif kid.tag == "definition":
            check_keys(kid.attrib, kpath, ())
            _no_text(kid, kpath)
            definiens = _parse_term(kid, kpath, terms)
        elif kid.tag == "proof":
            proof = _parse_proof(kid, kpath, terms)
        elif kid.tag == "metadata":
            _no_text(kid, kpath)
            origin, source_ref, comments, notation = _parse_metadata(kid, kpath, terms)
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


def _parse_theory(elem: ET.Element, path: str, namespace: str, terms: Terms) -> Theory:
    a = check_keys(elem.attrib, path, ("name",), ("meta",))
    _no_text(elem, path)
    meta_theory = _ident(a, "meta", path, terms) if "meta" in a else None
    includes = []
    decls: dict[Ident, Declaration] = {}
    for i, kid in enumerate(elem):
        kpath = f"{path}.{kid.tag}[{i}]"
        if kid.tag == "include":
            if decls:
                raise SchemaViolation(kpath, "includes must precede constants")
            includes.append(_ident(_leaf(kid, kpath, ("from",)), "from", kpath, terms))
        elif kid.tag == "constant":
            d = _parse_constant(kid, kpath, namespace, a["name"], terms)
            if d.name in decls:
                raise SchemaViolation(f"{kpath}.name", f"duplicate declaration {d.name}")
            decls[d.name] = d
        else:
            raise SchemaViolation(kpath, f"unknown element <{kid.tag}>")
    try:
        return Theory(
            theory_ident(namespace, a["name"]),
            meta_theory=meta_theory,
            includes=tuple(includes),
            decls=tuple(decls.values()),
        )
    except ValueError as err:
        raise SchemaViolation(path, str(err)) from None


def _parse_morphism(elem: ET.Element, path: str, terms: Terms) -> Morphism:
    a = check_keys(elem.attrib, path, ("name", "from", "to"))
    _no_text(elem, path)
    assignments = []
    for i, kid in enumerate(elem):
        kpath = f"{path}.{kid.tag}[{i}]"
        if kid.tag != "assignment":
            raise SchemaViolation(kpath, f"unknown element <{kid.tag}>")
        ka = check_keys(kid.attrib, kpath, ("name",))
        _no_text(kid, kpath)
        assignments.append((_ident(ka, "name", kpath, terms), _parse_term(kid, kpath, terms)))
    try:
        return Morphism(
            _ident(a, "name", path, terms),
            _ident(a, "from", path, terms),
            _ident(a, "to", path, terms),
            tuple(assignments),
        )
    except ValueError as err:
        raise SchemaViolation(path, str(err)) from None


def parse(data: bytes, deps: Optional[tuple[Library, ...]] = None) -> Library:
    """Inverse of serialize, strict about the vocabulary.

    `deps` supplies the support libraries attached to the result so its
    references resolve for later checking or re-serialization; by
    default the bundled logic encodings. In-process callers keep their
    own collector setting.
    """
    root = read_xml(data, "omdoc", ("version", "namespace"), OMDOC_VERSION)
    _no_text(root, "omdoc")
    namespace = root.get("namespace")
    terms = Terms()  # the document's one factory; see _parse_term
    theories: dict[Ident, Theory] = {}
    morphisms = []
    for i, kid in enumerate(root):
        path = f"omdoc.{kid.tag}[{i}]"
        if kid.tag == "theory":
            if morphisms:
                raise SchemaViolation(path, "theories must precede morphisms")
            th = _parse_theory(kid, path, namespace, terms)
            if th.name in theories:
                raise SchemaViolation(f"{path}.name", f"duplicate theory {th.name}")
            theories[th.name] = th
        elif kid.tag == "morphism":
            morphisms.append(_parse_morphism(kid, path, terms))
        else:
            raise SchemaViolation(path, f"unknown element <{kid.tag}>")
    lib_deps = deps if deps is not None else (LOGICS,)
    return Library(namespace, tuple(theories.values()), tuple(morphisms), deps=lib_deps)
