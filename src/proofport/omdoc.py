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
"parsing" below). It raises SchemaViolation at the dotted path of the
element or attribute at fault, as the other readers do; a path is
formatted only for the fault that is raised.
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
# Faults rank in the order of a depth-first reading: syntax errors first,
# then for each element its attributes, its text, the values its attributes
# give, its number of children, its children in document order, and last
# what needs them all (an OMBIND's binder and arity, a record's own checks).
# Once the document has a fault, every element that starts later ranks
# after it and is skipped. The open elements, all ancestors of the fault,
# go on counting their children and reading their text, and a fault of an
# element's own replaces the document's if that is a descendant's or ranks
# later among the element's own. The fault is raised once expat has read
# the whole document, so that a later syntax error still wins.

# the rank of a fault in its element; a leaf's value is read after its
# count of children, a child's fault and a record's own checks come last
_KEYS, _TEXT, _VALUE, _COUNT, _LEAF, _CHILD, _POST = range(7)

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

# the stack entry of an element whose content no check reads
_SKIP = object()

# A leaf, an element that takes no children and hands its value to its
# parent as it starts (an OMS, OMV, include, ref or srcref), has no frame:
# its stack entry is its tag. Only the text of an OMS or OMV is read.
_TEXT_FREE = frozenset({"include", "ref", "srcref"})


class _Frame:
    """An open element that holds records or text. `node` is its path node
    (see `_path`); `kids` says what its children are: the tag of the
    element that reads them, or None if it takes none. `count` counts them;
    `parts` takes the values it keeps in order, `value` those it keeps by
    key."""

    __slots__ = ("tag", "attrs", "node", "kids", "count", "parts", "value")

    def __init__(self, tag: Optional[str], attrs: dict, node, kids: Optional[str], value=None) -> None:
        self.tag = tag
        self.attrs = attrs
        self.node = node
        self.kids = kids
        self.count = 0
        self.parts: list = []
        self.value = value

    def kid(self, tag: str) -> tuple:
        """The path node of its last child, a `tag`; the children of a
        constant are named by their tag alone."""
        return self.node, tag, None if self.kids == "constant" else self.count - 1


class _Terms(list):
    """An open element that holds terms, an item per child: an OMA or
    OMBIND, whose `kids` are "terms", or a type, definition, assignment
    or term proof, which holds one "term". An item is None until its
    child's term is built, and stays None after a fault. `value` is an
    assignment's name."""

    __slots__ = ("attrs", "node", "kids", "value")

    def kid(self, tag: str) -> tuple:
        """The path node of its last child, a `tag`; the term of a wrapper
        is named by its tag alone."""
        return self.node, tag, None if self.kids == "term" else len(self) - 1


def _terms(attrs: dict, node, kids: str) -> _Terms:
    """An empty `_Terms` (a list subclass builds no faster with an `__init__`)."""
    f = _Terms()
    f.attrs, f.node, f.kids, f.value = attrs, node, kids, None
    return f


def _path(node) -> str:
    """The dotted path of a path node: a root element's tag, or a tuple
    of the parent's node, a tag or attribute, and an index or None."""
    steps = []
    while type(node) is tuple:
        node, name, index = node
        steps.append(f".{name}" if index is None else f".{name}[{index}]")
    return node + "".join(reversed(steps))


def _universal(name: str) -> str:
    """`name` as ElementTree spells it: expat writes `uri}local` for a
    name in a namespace, ElementTree `{uri}local`."""
    return "{" + name if "}" in name else name


class _Reader:
    """One pass: the document's `Terms`, its namespace, its fault so far,
    and the stack of open elements, whose first frame is the document's
    and takes the root's value.

    The handlers (see `handlers`) read the term elements, OMS, OMV, OMA
    and OMBIND, themselves, and every other element through `open` and
    `close`."""

    def __init__(self) -> None:
        self.terms = Terms()
        self.namespace: Optional[str] = None
        # the depth of the element at fault, the fault's rank there, its
        # path node (None for an unsupported version) and its message
        self.fault: Optional[tuple] = None
        self.stack: list = [_Frame(None, {}, None, "root")]

    def record(self, depth: int, rank: int, node, message: str) -> None:
        """A fault of the open element at `depth` of the stack. It is the
        document's unless the document's is the element's own and ranks
        first; any other is a descendant's, since elements that start
        after a fault are skipped."""
        fault = self.fault
        if fault is None or fault[0] > depth or fault[0] == depth and rank < fault[1]:
            self.fault = depth, rank, node, message

    def bad_keys(self, depth: int, tag: str, attrs: dict, node, rank: int = _KEYS) -> None:
        """A fault at the first attribute that the element at `depth`, a
        `tag` whose attributes are not those it takes, lacks or should not have."""
        try:
            check_keys(attrs, "", *_ATTRIBUTES[tag])
        except SchemaViolation as err:
            self.record(depth, rank, (node, _universal(err.path), None), err.message)

    def has_keys(self, depth: int, tag: str, attrs: dict, node, rank: int = _KEYS) -> bool:
        """Whether the element at `depth` has the attributes its tag takes."""
        if attrs.keys() in _NAME_SETS[tag]:
            return True
        self.bad_keys(depth, tag, attrs, node, rank)
        return False

    def ident(self, depth: int, node, attrs: dict, key: str, rank: int) -> Optional[Ident]:
        """The identifier that attribute `key` names, or None after a fault."""
        try:
            return self.terms.named(attrs[key]).ident
        except ValueError as err:
            self.record(depth, rank, (node, key, None), str(err))
            return None

    def flush(self, text: list[str]) -> None:
        """Hand the text since the last tag to the element that holds it."""
        content = "".join(text)
        text.clear()
        stack = self.stack
        f = stack[-1]
        if f is _SKIP:
            return
        if type(f) is str:  # a leaf
            if f not in _TEXT_FREE and not content.isspace():
                self.record(len(stack) - 1, _TEXT, stack[-2].kid(f), "unexpected text content")
        elif type(f) is _Frame and (f.tag == "comment" or f.tag == "notation"):
            f.parts.append(content)
        elif not content.isspace():
            self.record(len(stack) - 1, _TEXT, f.node, "unexpected text content")

    def open(self, f: _Frame, tag: str, attrs: dict):
        """The stack entry of a child of `f`, an element that holds
        records, once its start tag is read, or None if `f` takes no
        `tag`; the document has no fault."""
        depth = len(self.stack)  # the child's; `f`'s is one less
        kids = f.kids
        node = f.node, tag, None if kids == "constant" else f.count - 1
        if kids == "constant":
            if tag in f.value:
                self.record(depth - 1, _CHILD, node, f"duplicate <{tag}>")
                return _SKIP
            if tag == "type" or tag == "definition":
                self.has_keys(depth, tag, attrs, node)
                return _terms(attrs, node, "term")
            if tag == "proof":
                if self.has_keys(depth, tag, attrs, node):
                    style = attrs["style"]
                    if style == "term":
                        return _terms(attrs, node, "term")
                    if style == "dependsOn":
                        return _Frame(tag, attrs, node, tag)
                    if style != "omitted":
                        self.record(depth, _VALUE, (node, "style", None), f"unknown proof style {style!r}")
                return _Frame(tag, attrs, node, None)
            if tag == "metadata":
                # its text ranks before its attributes
                if self.has_keys(depth, tag, attrs, node, _VALUE) and "origin" in attrs:
                    self.ident(depth, node, attrs, "origin", _VALUE)
                return _Frame(tag, attrs, node, tag, {})  # its srcref and notation; `parts` takes its comments
        elif kids == "theory":
            if tag == "constant":
                if self.has_keys(depth, tag, attrs, node) and attrs["kind"] not in KINDS:
                    self.record(depth, _VALUE, (node, "kind", None), f"unknown kind {attrs['kind']!r}")
                return _Frame(tag, attrs, node, tag, {})  # its sections by tag
            if tag == "include":
                if f.value:
                    self.record(depth - 1, _CHILD, node, "includes must precede constants")
                    return _SKIP
                if self.has_keys(depth, tag, attrs, node):
                    f.parts.append(self.ident(depth, node, attrs, "from", _LEAF))
                return tag
        elif kids == "proof":  # a dependsOn proof
            if tag == "ref":
                if self.has_keys(depth, tag, attrs, node):
                    f.parts.append(self.ident(depth, node, attrs, "name", _LEAF))
                return tag
        elif kids == "metadata":
            if tag in f.value:  # a second srcref or notation
                self.record(depth - 1, _CHILD, node, f"duplicate {tag}")
                return _SKIP
            if tag == "srcref":
                if self.has_keys(depth, tag, attrs, node):
                    at = node
                    try:
                        lines = []
                        for key in ("sl", "sc", "el", "ec"):
                            at = node, key, None
                            lines.append(to_int(attrs[key], "expected an integer"))
                        at = node
                        f.value[tag] = SourceRef(attrs["file"], *lines)
                    except ValueError as err:
                        self.record(depth, _LEAF, at, str(err))
                return tag
            if tag == "comment" or tag == "notation":
                self.has_keys(depth, tag, attrs, node)
                return _Frame(tag, attrs, node, None)
        elif kids == "omdoc":
            if tag == "theory":
                if f.parts:
                    self.record(depth - 1, _CHILD, node, "theories must precede morphisms")
                    return _SKIP
                if self.has_keys(depth, tag, attrs, node) and "meta" in attrs:
                    self.ident(depth, node, attrs, "meta", _VALUE)
                return _Frame(tag, attrs, node, tag, {})  # its declarations by name; `parts` takes its includes
            if tag == "morphism":
                self.has_keys(depth, tag, attrs, node)
                return _Frame(tag, attrs, node, tag)
        elif kids == "morphism":
            if tag == "assignment":
                kid = _terms(attrs, node, "term")
                if self.has_keys(depth, tag, attrs, node):
                    kid.value = self.ident(depth, node, attrs, "name", _VALUE)
                return kid
        elif kids == "root":
            if tag != "omdoc":
                self.record(depth - 1, _KEYS, _universal(tag), "root element must be <omdoc>")
                return _SKIP
            if self.has_keys(depth, tag, attrs, tag):
                if attrs["version"] != OMDOC_VERSION:
                    self.record(depth, _KEYS, None, attrs["version"])
                self.namespace = attrs["namespace"]
            return _Frame(tag, attrs, tag, tag, {})  # its theories by name; `parts` takes its morphisms
        return None

    def close(self, f: _Frame, tag: str) -> None:
        """Read the end tag of `f`, an element that holds records: if the
        document has no fault, hand its value to its parent."""
        if self.fault is not None:
            return
        stack = self.stack
        depth = len(stack)
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
                    self.record(depth - 1, _CHILD, (f.node, "name", None), f"duplicate declaration {d.name}")
                parent.value[d.name] = d
            elif tag == "proof":
                parent.value[tag] = DependsOn(f.parts) if f.kids == tag else Omitted()
            elif tag == "notation":
                parent.value[tag] = "".join(f.parts)
            elif tag == "comment":
                parent.parts.append("".join(f.parts))
            elif tag == "metadata":
                origin = self.ident(depth, f.node, a, "origin", _POST) if "origin" in a else None
                parent.value[tag] = f.value.get("srcref"), tuple(f.parts), f.value.get("notation"), origin
            elif tag == "theory":
                meta = self.ident(depth, f.node, a, "meta", _POST) if "meta" in a else None
                th = Theory(theory_ident(self.namespace, a["name"]), meta_theory=meta,
                            includes=tuple(f.parts), decls=tuple(f.value.values()))
                if th.name in parent.value:
                    self.record(depth - 1, _CHILD, (f.node, "name", None), f"duplicate theory {th.name}")
                parent.value[th.name] = th
            elif tag == "morphism":
                # its own identifiers are read after its assignments
                ends = [self.ident(depth, f.node, a, key, _POST) for key in ("name", "from", "to")]
                if self.fault is None:
                    parent.parts.append(Morphism(*ends, tuple(f.parts)))
            elif tag == "omdoc":
                parent.value = tuple(f.value.values()), tuple(f.parts)
        except ValueError as err:  # a record's own checks
            self.record(depth, _POST, f.node, str(err))

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
                if r.fault is not None:
                    f.append(None)
                    stack.append(_SKIP)
                    return
                if tag == "OMS":
                    stack.append(tag)
                    if len(attrs) == 1 and "name" in attrs:  # it takes its name alone
                        try:
                            f.append(named(attrs["name"]))
                            return
                        except ValueError as err:
                            f.append(None)
                            r.record(len(stack) - 1, _LEAF, (f.kid(tag), "name", None), str(err))
                    else:
                        f.append(None)
                        r.bad_keys(len(stack) - 1, tag, attrs, f.kid(tag))
                    return
                f.append(None)  # the term, once it is built
                if tag == "OMV":
                    stack.append(tag)
                    if attrs.keys() not in _NAME_SETS[tag]:
                        r.bad_keys(len(stack) - 1, tag, attrs, f.kid(tag))
                        return
                    try:
                        index = to_int(attrs["index"], "expected an integer")
                        if index < 0:
                            raise ValueError("negative index")
                        f[-1] = var(index)
                    except ValueError as err:
                        r.record(len(stack) - 1, _LEAF, (f.kid(tag), "index", None), str(err))
                    return
                if tag == "OMA" or tag == "OMBIND":
                    kid = _terms(attrs, f.kid(tag), "terms")
                    if attrs if tag == "OMA" else attrs.keys() not in _NAME_SETS[tag]:
                        r.bad_keys(len(stack), tag, attrs, kid.node)
                    stack.append(kid)
                    return
                kid = None
            elif f is _SKIP:
                stack.append(_SKIP)
                return
            elif kind is str or f.kids is None:  # an element that takes no children
                at, what = (stack[-2].kid(f), f) if kind is str else (f.node, f.tag)
                what = "omitted proof" if what == "proof" else what
                r.record(len(stack) - 1, _COUNT, at, f"{what} takes no children")
                stack.append(_SKIP)
                return
            else:
                f.count += 1
                if r.fault is not None:
                    stack.append(_SKIP)
                    return
                kid = r.open(f, tag, attrs)
            if kid is None:
                tag = _universal(tag)
                at = f.kid(tag)
                r.record(len(stack) - 1, _CHILD, at, f"unknown element <{tag}>")
                kid = _SKIP
            stack.append(kid)

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
            if f is _SKIP:
                return
            depth = len(stack)
            if tag == "OMA":
                if len(f) < 2:
                    r.record(depth, _COUNT, f.node, "OMA needs a head and at least one argument")
                elif r.fault is None:
                    stack[-1][-1] = apps(*f)
                return
            if f.kids == "term" and len(f) != 1:
                r.record(depth, _COUNT, f.node, "expected exactly one term")
            if r.fault is not None:
                return
            parent = stack[-1]
            if tag == "OMBIND":
                a = f.attrs
                binder = a["binder"]
                cls, fields, binds = _BINDER_NAMED.get(binder, (None, (), False))
                if "var" in a and not binds:
                    r.record(depth, _POST, (f.node, "var", None), f"binder {binder} takes no variable")
                elif cls is None:
                    r.record(depth, _POST, (f.node, "binder", None), f"unknown binder {binder!r}")
                elif len(f) != len(fields):
                    r.record(depth, _POST, f.node, f"binder {binder} takes {len(fields)} children")
                else:
                    parent[-1] = build(cls, a.get("var", "_") if binds else None, *f)
            elif tag == "assignment":
                parent.parts.append((f.value, f[0]))
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


def parse(data: bytes, deps: Optional[tuple[Library, ...]] = None) -> Library:
    """Inverse of serialize, strict about the vocabulary.

    `deps` supplies the support libraries attached to the result so its
    references resolve for later checking or re-serialization; by
    default the bundled logic encodings. In-process callers keep their
    own collector setting.
    """
    r = _Reader()
    # ElementTree's namespace separator, and the strings expat gives names as
    parser = ParserCreate("utf-8", "}", {name: name for name in _NAMES})
    parser.buffer_text = True
    parser.StartElementHandler, parser.EndElementHandler, parser.CharacterDataHandler = r.handlers()
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
    if r.fault is not None:
        _, _, node, message = r.fault
        raise UnsupportedVersion(message) if node is None else SchemaViolation(_path(node), message)
    theories, morphisms = r.stack[0].value
    return Library(r.namespace, theories, morphisms, deps=deps if deps is not None else (LOGICS,))
