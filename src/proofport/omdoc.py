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
count. The writer walks a term with an explicit stack and the reader
keeps one of the open elements, neither recursing, so both take terms
of any depth. The reader builds each document's terms through one
`kernel.Terms`, so the equal subterms of one document, hints included,
are one shared object and the checker can infer each type once.

Variables carry their de Bruijn index plus the binder's name hint. The
index alone is authoritative; the hint is for human readers.

References are verified where they are written: each writer notes the
identifiers it writes, and `serialize` resolves each distinct one once
before it returns, raising DanglingIdent for the first that does not
resolve. The reader resolves nothing; checking does.

The reader is one expat pass that builds no tree of the document (see
"parsing" below). A syntax error wins wherever it is; otherwise the first
fault the pass meets is raised, a SchemaViolation at the dotted path of
the element or attribute at fault, as the other readers raise.
"""

from __future__ import annotations

from typing import Optional
from xml.parsers.expat import ErrorString, ExpatError, ParserCreate
from xml.parsers.expat.errors import XML_ERROR_UNDEFINED_ENTITY

from .encodings import LOGICS
from .errors import (
    DanglingIdent,
    Malformed,
    SchemaViolation,
    UnsupportedVersion,
    check_keys,
    to_int,
)
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

# The reader is one expat pass, with no tree of the document: its handlers
# keep a stack of the open elements, build each term through the document's
# one `Terms` as its element ends (an OMS or OMV as it starts), and each
# Declaration, Theory and Morphism at its end tag.
#
# The first fault the pass meets is the document's, and a handler raises it
# at once: every element on its path is still open, so the stack is the
# path (see `_path`). A syntax error anywhere still wins, so `parse` reads
# a faulty document once more, for its syntax alone.

# element -> (required attributes, optional ones)
_ATTRIBUTES = {
    "omdoc": (("version", "namespace"), ()),
    "theory": (("name",), ("meta",)),
    "include": (("from",), ()),
    "constant": (("name", "kind"), ()),
    "type": ((), ()),
    "definition": ((), ()),
    "proof": (("style",), ()),
    "ref": (("name",), ()),
    "metadata": ((), ("origin",)),
    "srcref": (("file", "sl", "sc", "el", "ec"), ()),
    "comment": ((), ()),
    "notation": ((), ()),
    "morphism": (("name", "from", "to"), ()),
    "assignment": (("name",), ()),
    "OMS": (("name",), ()),
    "OMV": (("index",), ("hint",)),
    "OMA": ((), ()),
    "OMBIND": (("binder",), ("var",)),
}
# element -> the sets of attribute names it takes, without and with its optional one
_NAME_SETS = {tag: (frozenset(req), frozenset(req + opt)) for tag, (req, opt) in _ATTRIBUTES.items()}

# every tag and attribute name; expat hands them back as these very strings,
# which compare with the constants of the code by identity
_NAMES = frozenset(_ATTRIBUTES).union(*(req + opt for req, opt in _ATTRIBUTES.values()))

# A leaf, an element that takes no children and hands its value to its
# parent as it starts (an OMS, OMV, include, ref or srcref), has no frame:
# its stack entry is its tag.

# element -> the attributes whose values it reads as it starts: a srcref's
# are integers, every other names an identifier
_VALUES = {
    "theory": ("meta",), "include": ("from",), "ref": ("name",), "metadata": ("origin",),
    "srcref": ("sl", "sc", "el", "ec"), "morphism": ("name", "from", "to"), "assignment": ("name",),
}

# element -> the elements it takes as children, for those that hold records;
# "root" is the document, and "proof" a dependsOn proof
_CHILDREN = {
    "root": ("omdoc",),
    "omdoc": ("theory", "morphism"),
    "theory": ("include", "constant"),
    "constant": ("type", "definition", "proof", "metadata"),
    "proof": ("ref",),
    "metadata": ("srcref", "comment", "notation"),
    "morphism": ("assignment",),
}


class _Frame:
    """An open element that holds records or text. `kids` says what its
    children are: its key in `_CHILDREN`, or None if it takes none.
    `count` counts them; `parts` takes the values it keeps in order,
    `value` those it keeps by key."""

    __slots__ = ("tag", "attrs", "kids", "count", "parts", "value")

    def __init__(self, tag: Optional[str], attrs: dict, kids: Optional[str], value=None) -> None:
        self.tag = tag
        self.attrs = attrs
        self.kids = kids
        self.count = 0
        self.parts: list = []
        self.value = value


class _Terms(list):
    """An open element that holds terms, an item per child: an OMA or
    OMBIND, whose `kids` are "terms", or a type, definition, assignment
    or term proof, which holds one "term". An item is None until its
    child's term is built."""

    __slots__ = ("tag", "attrs", "kids")


def _terms(tag: str, attrs: dict, kids: str) -> _Terms:
    """An empty `_Terms` (a list subclass builds no faster with an `__init__`)."""
    f = _Terms()
    f.tag, f.attrs, f.kids = tag, attrs, kids
    return f


def _path(stack: list, tag: Optional[str] = None, key: Optional[str] = None) -> str:
    """The dotted path of the element atop `stack` below the document's
    frame, or of `tag`, its last child, then of attribute `key` there. An
    element's index is its parent's count of children so far, less one;
    the root, a constant's children and a wrapper's term go by their tag
    alone."""
    names = [f if type(f) is str else f.tag for f in stack[1:]]
    if tag is not None:
        names.append(tag)
    steps = names[:1]
    for parent, name in zip(stack[1:], names[1:]):
        if parent.kids == "constant" or parent.kids == "term":
            steps.append(name)
        else:
            count = parent.count if type(parent) is _Frame else len(parent)
            steps.append(f"{name}[{count - 1}]")
    if key is not None:
        steps.append(key)
    return ".".join(steps)


def _universal(name: str) -> str:
    """`name` as ElementTree spells it: expat writes `uri}local` for a
    name in a namespace, ElementTree `{uri}local`."""
    return "{" + name if "}" in name else name


def _check_keys(stack: list, tag: str, attrs: dict) -> None:
    """Raise at the first attribute that `tag`, the last child of the
    element atop `stack`, lacks or should not have."""
    if attrs.keys() not in _NAME_SETS[tag]:
        try:
            check_keys(attrs, "", *_ATTRIBUTES[tag])
        except SchemaViolation as err:
            raise SchemaViolation(_path(stack, tag, _universal(err.path)), err.message) from None


class _Reader:
    """One pass: the document's `Terms`, its namespace, and the stack of
    open elements, whose first frame is the document's and takes the
    root's value.

    The handlers (see `handlers`) read the term elements, OMS, OMV, OMA
    and OMBIND, themselves, and every other element through `open` and
    `close`."""

    def __init__(self) -> None:
        self.terms = Terms()
        self.namespace: Optional[str] = None
        self.stack: list = [_Frame(None, {}, "root")]

    def flush(self, text: list[str]) -> None:
        """Hand the text since the last tag to the element that holds it."""
        content = "".join(text)
        text.clear()
        f = self.stack[-1]
        if type(f) is _Frame and (f.tag == "comment" or f.tag == "notation"):
            f.parts.append(content)
        elif not content.isspace():
            raise SchemaViolation(_path(self.stack), "unexpected text content")

    def open(self, f: _Frame, tag: str, attrs: dict):
        """The stack entry of a `tag` just started, a child of `f`, an
        element that holds records; or None if `f` takes no `tag`. The
        values its attributes give replace their text in `attrs`."""
        stack, kids = self.stack, f.kids
        if tag not in _CHILDREN[kids]:
            if kids == "root":
                raise SchemaViolation(_universal(tag), "root element must be <omdoc>")
            return None
        if (kids == "constant" or kids == "metadata") and tag in f.value:
            message = f"duplicate <{tag}>" if kids == "constant" else f"duplicate {tag}"
            raise SchemaViolation(_path(stack, tag), message)
        if tag == "include" and f.value:
            raise SchemaViolation(_path(stack, tag), "includes must precede constants")
        if tag == "theory" and f.parts:
            raise SchemaViolation(_path(stack, tag), "theories must precede morphisms")
        _check_keys(stack, tag, attrs)
        for key in _VALUES.get(tag, ()):
            if key in attrs:
                try:
                    attrs[key] = (to_int(attrs[key], "expected an integer") if tag == "srcref"
                                  else self.terms.named(attrs[key]).ident)
                except ValueError as err:
                    raise SchemaViolation(_path(stack, tag, key), str(err)) from None
        if tag == "proof":
            style = attrs["style"]
            if style == "dependsOn":
                return _Frame(tag, attrs, tag)
            if style == "omitted":
                return _Frame(tag, attrs, None)
            if style != "term":
                raise SchemaViolation(_path(stack, tag, "style"), f"unknown proof style {style!r}")
        if tag == "type" or tag == "definition" or tag == "proof" or tag == "assignment":
            return _terms(tag, attrs, "term")
        if tag == "constant":
            if attrs["kind"] not in KINDS:
                raise SchemaViolation(_path(stack, tag, "kind"), f"unknown kind {attrs['kind']!r}")
        elif tag == "include":
            include = attrs["from"]
            if include in f.parts:
                raise SchemaViolation(_path(stack, tag, "from"), f"duplicate include {include}")
            f.parts.append(include)
            return tag
        elif tag == "ref":
            f.parts.append(attrs["name"])
            return tag
        elif tag == "srcref":
            try:
                f.value[tag] = SourceRef(*(attrs[key] for key in ("file", "sl", "sc", "el", "ec")))
            except ValueError as err:
                raise SchemaViolation(_path(stack, tag), str(err)) from None
            return tag
        elif tag == "comment" or tag == "notation":
            return _Frame(tag, attrs, None)
        elif tag == "omdoc":
            if attrs["version"] != OMDOC_VERSION:
                raise UnsupportedVersion(attrs["version"])
            self.namespace = attrs["namespace"]
        # a constant's sections, a metadata's srcref and notation, the
        # declarations of a theory and the theories of the document, by key;
        # `parts` takes comments, includes, morphisms and assignments
        return _Frame(tag, attrs, tag, {})

    def close(self, f: _Frame, tag: str) -> None:
        """Read the end tag of `f`, an element that holds records, once it
        is off the stack: hand its value to its parent."""
        stack = self.stack
        parent, a = stack[-1], f.attrs
        try:
            if tag == "constant":
                value = f.value
                fields = value.get("metadata", ())  # a Metadata's after its kind
                d = Declaration(
                    Ident(self.namespace, parent.attrs["name"], a["name"]),
                    tp=value.get("type"),
                    definiens=value.get("definition"),
                    proof=value.get("proof"),
                    meta=Metadata(a["kind"], *fields),
                )
                if d.name in parent.value:
                    raise SchemaViolation(_path(stack, tag, "name"), f"duplicate declaration {d.name}")
                parent.value[d.name] = d
            elif tag == "proof":
                parent.value[tag] = DependsOn(f.parts) if f.kids == tag else Omitted()
            elif tag == "notation":
                parent.value[tag] = "".join(f.parts)
            elif tag == "comment":
                parent.parts.append("".join(f.parts))
            elif tag == "metadata":
                parent.value[tag] = f.value.get("srcref"), tuple(f.parts), f.value.get("notation"), a.get("origin")
            elif tag == "theory":
                th = Theory(theory_ident(self.namespace, a["name"]), meta_theory=a.get("meta"),
                            includes=tuple(f.parts), decls=tuple(f.value.values()))
                if th.name in parent.value:
                    raise SchemaViolation(_path(stack, tag, "name"), f"duplicate theory {th.name}")
                parent.value[th.name] = th
            elif tag == "morphism":
                parent.parts.append(Morphism(a["name"], a["from"], a["to"], tuple(f.parts)))
            elif tag == "omdoc":
                parent.value = tuple(f.value.values()), tuple(f.parts)
        except ValueError as err:  # a record's own checks
            raise SchemaViolation(_path(stack, tag), str(err)) from None

    def handlers(self):
        """Expat's start-tag, end-tag and text handlers. The text handler
        is a list's append, so that text costs no call of Python code,
        and each tag reads the text before it. They hold no reference to
        the parser, so a parse leaves no cycle."""
        r, stack, text = self, self.stack, []
        named, var, apps, build = self.terms.named, self.terms.var, self.terms.apps, self.terms.node

        def start(tag: str, attrs: dict) -> None:
            if text:  # mostly one piece of whitespace, dropped here
                piece = text.pop()
                if text or not piece.isspace():
                    text.append(piece)
                    r.flush(text)
            f = stack[-1]
            kind = type(f)
            if kind is _Terms:  # each child is counted by an item, its term or None
                f.append(None)  # the term, once it is built
                if tag == "OMS":
                    if len(attrs) != 1 or "name" not in attrs:  # it takes its name alone
                        _check_keys(stack, tag, attrs)
                    try:
                        f[-1] = named(attrs["name"])
                    except ValueError as err:
                        raise SchemaViolation(_path(stack, tag, "name"), str(err)) from None
                    stack.append(tag)
                    return
                if tag == "OMV":
                    _check_keys(stack, tag, attrs)
                    try:
                        index = to_int(attrs["index"], "expected an integer")
                        if index < 0:
                            raise ValueError("negative index")
                    except ValueError as err:
                        raise SchemaViolation(_path(stack, tag, "index"), str(err)) from None
                    f[-1] = var(index)
                    stack.append(tag)
                    return
                if tag == "OMA" or tag == "OMBIND":
                    _check_keys(stack, tag, attrs)
                    stack.append(_terms(tag, attrs, "terms"))
                    return
            elif kind is str or f.kids is None:  # an element that takes no children
                what = f if kind is str else "omitted proof" if f.tag == "proof" else f.tag
                raise SchemaViolation(_path(stack), f"{what} takes no children")
            else:
                f.count += 1
                kid = r.open(f, tag, attrs)
                if kid is not None:
                    stack.append(kid)
                    return
            tag = _universal(tag)
            raise SchemaViolation(_path(stack, tag), f"unknown element <{tag}>")

        def end(tag: str) -> None:
            if text:  # a comment's or a notation's is its content
                piece = text.pop()
                if text or not piece.isspace() or tag == "comment" or tag == "notation":
                    text.append(piece)
                    r.flush(text)
            f = stack.pop()
            if type(f) is str:
                return
            if type(f) is _Frame:
                r.close(f, tag)
                return
            if tag == "OMA":
                if len(f) < 2:
                    raise SchemaViolation(_path(stack, tag), "OMA needs a head and at least one argument")
                stack[-1][-1] = apps(*f)
                return
            if f.kids == "term" and len(f) != 1:
                raise SchemaViolation(_path(stack, tag), "expected exactly one term")
            parent = stack[-1]
            if tag == "OMBIND":
                a = f.attrs
                binder = a["binder"]
                cls, fields, binds = _BINDER_NAMED.get(binder, (None, (), False))
                if "var" in a and not binds:
                    raise SchemaViolation(_path(stack, tag, "var"), f"binder {binder} takes no variable")
                if cls is None:
                    raise SchemaViolation(_path(stack, tag, "binder"), f"unknown binder {binder!r}")
                if len(f) != len(fields):
                    raise SchemaViolation(_path(stack, tag), f"binder {binder} takes {len(fields)} children")
                parent[-1] = build(cls, a.get("var", "_") if binds else None, *f)
            elif tag == "assignment":
                parent.parts.append((f.attrs["name"], f[0]))
            else:  # a type, a definition or a term proof
                parent.value[tag] = ProofTerm(f[0]) if tag == "proof" else f[0]

        return start, end, text.append


class _Unexpanded(Exception):
    """Expat met an entity reference, the argument, that it could not expand."""


def _default(text: str) -> None:
    """What expat reports to no other handler. An entity reference that it
    could not expand is an error, as in ElementTree."""
    if text[:1] == "&":
        raise _Unexpanded(text)


_PIECE = 1 << 16  # bytes


def _malformed(data: bytes, message: str, line: int, column: int) -> Malformed:
    """The error for a document expat rejects; input that is not UTF-8 is
    named as such, wherever expat stopped."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as err:
        return Malformed(str(err))
    return Malformed(message, line, column + 1)  # expat's column counts from 0


def _read(data: bytes, handlers: tuple = (None, None, len)) -> None:
    """Run expat over `data` with `handlers` (start, end, text); by default
    for its syntax alone, with text dropped, not left to `_default`. A
    syntax error raises Malformed."""
    # ElementTree's namespace separator, and the strings expat gives names as
    parser = ParserCreate("utf-8", "}", {name: name for name in _NAMES})
    parser.buffer_text = True
    parser.StartElementHandler, parser.EndElementHandler, parser.CharacterDataHandler = handlers
    parser.DefaultHandlerExpand = _default
    view = memoryview(data)
    try:
        # fed in pieces, so that expat copies a piece at a time, not the document
        for i in range(0, len(view), _PIECE):
            parser.Parse(view[i : i + _PIECE], False)
        parser.Parse(b"", True)
    except ExpatError as err:
        raise _malformed(data, ErrorString(err.code), err.lineno, err.offset) from None
    except _Unexpanded as err:
        # expat stops at the reference's end, which is on its line
        column = parser.ErrorColumnNumber - len(err.args[0])
        line = parser.ErrorLineNumber
        raise _malformed(data, XML_ERROR_UNDEFINED_ENTITY, line, column) from None


def parse(data: bytes, deps: Optional[tuple[Library, ...]] = None) -> Library:
    """Inverse of serialize, strict about the vocabulary.

    `deps` supplies the support libraries attached to the result so its
    references resolve for later checking or re-serialization; by
    default the bundled logic encodings. In-process callers keep their
    own collector setting.
    """
    r = _Reader()
    try:
        _read(data, r.handlers())
    except (SchemaViolation, UnsupportedVersion):
        _read(data)  # a syntax error anywhere wins over the first fault
        raise
    theories, morphisms = r.stack[0].value
    return Library(r.namespace, theories, morphisms, deps=deps if deps is not None else (LOGICS,))
