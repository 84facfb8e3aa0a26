"""Identifier-level RDF abstraction of libraries.

Every symbolic expression is dropped; what remains is which module
declares what, what each declaration uses, and how statements justify
each other. Queries answer the resulting reachability questions, over a
library's `UseGraph` or a `TripleStore`, and the store round-trips
through N-Triples.

IRIs follow the library's own naming scheme: the three identifier
components joined by `?`, each percent-encoded to plain ASCII. The
`ulo:` prefix expands to `lib://ulo?core?`; see
docs/ontology-vocabulary.md for the full list.
"""

from __future__ import annotations

import re
from functools import cache, cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .errors import Malformed, UnknownIdent
from .kernel import (
    Declaration,
    DependsOn,
    Ident,
    Library,
    ProofTerm,
    constants_of,
)

ULO_BASE = "lib://ulo?core?"

ULO_DECLARES = ULO_BASE + "declares"
ULO_INCLUDES = ULO_BASE + "includes"
ULO_META_THEORY = ULO_BASE + "metaTheory"
ULO_KIND = ULO_BASE + "kind"
ULO_SOURCE_FILE = ULO_BASE + "sourceFile"
ULO_USES = ULO_BASE + "uses"
ULO_JUSTIFIED_BY = ULO_BASE + "justifiedBy"
ULO_CHECK_STATUS = ULO_BASE + "checkStatus"

_EDGE_PREDICATES = (ULO_USES, ULO_JUSTIFIED_BY)

# printable ASCII minus characters illegal in IRI references, plus the
# two this scheme reserves: the component separator and the escape char
_IRI_SAFE = frozenset(
    b for b in range(0x21, 0x7F) if chr(b) not in '<>"{}|^`\\%?'
)


# one character outside _IRI_SAFE, non-ASCII included
_IRI_UNSAFE = re.compile("[^" + re.escape("".join(map(chr, sorted(_IRI_SAFE)))) + "]")


def _encode_component(s: str) -> str:
    if _IRI_UNSAFE.search(s) is None:
        return s
    out = []
    for b in s.encode("utf-8"):
        out.append(chr(b) if b in _IRI_SAFE else f"%{b:02X}")
    return "".join(out)


def _decode_component(s: str) -> str:
    if "%" not in s and s.isascii():
        return s
    # round-trip through latin-1 keeps the raw bytes intact
    raw = re.sub(r"%([0-9A-Fa-f]{2})", lambda m: chr(int(m.group(1), 16)), s)
    return raw.encode("latin-1").decode("utf-8")


def iri_of(ident: Ident) -> str:
    return "?".join(
        _encode_component(c) for c in (ident.namespace, ident.module, ident.name)
    )


def ident_of_iri(iri: str) -> Ident:
    parts = iri.split("?")
    try:
        if len(parts) == 3:
            return Ident(*(_decode_component(p) for p in parts))
    except ValueError:  # a bad escape (UnicodeError) or a component Ident refuses
        pass
    raise UnknownIdent(f"not a library identifier: {iri}")


class RdfTriple(NamedTuple):
    """One edge; `literal` marks the object as literal text, not an IRI.
    A named tuple, so it equals the plain tuple of its four fields."""

    subject: str
    predicate: str
    obj: str
    literal: bool = False


class TripleStore:
    """Insertion-ordered duplicate-free triple collection.

    Equality is set equality; serialization and iteration follow
    insertion order, which is what keeps output deterministic.
    """

    def __init__(self, triples: Iterable[tuple[str, str, str, bool]] = ()):
        self._triples: dict[RdfTriple, None] = {}  # an insertion-ordered set
        self._by_subject: dict[str, list[RdfTriple]] = {}
        self._by_object: dict[str, list[RdfTriple]] = {}
        # the other end of each uses and justifiedBy edge: by subject, then by IRI object
        self._edges: tuple[dict[str, list[str]], dict[str, list[str]]] = ({}, {})
        for t in map(RdfTriple._make, triples):
            self.add(t)

    def add(self, t: RdfTriple) -> bool:
        if t in self._triples:
            return False
        self._triples[t] = None
        self._by_subject.setdefault(t.subject, []).append(t)
        if not t.literal:
            self._by_object.setdefault(t.obj, []).append(t)
        if t.predicate in _EDGE_PREDICATES:
            self._edges[0].setdefault(t.subject, []).append(t.obj)
            if not t.literal:
                self._edges[1].setdefault(t.obj, []).append(t.subject)
        return True

    def with_subject(self, iri: str) -> tuple[RdfTriple, ...]:
        return tuple(self._by_subject.get(iri, ()))

    def with_object(self, iri: str) -> tuple[RdfTriple, ...]:
        return tuple(self._by_object.get(iri, ()))

    @property
    def triples(self) -> tuple[RdfTriple, ...]:
        return tuple(self._triples)

    def __iter__(self) -> Iterator[RdfTriple]:
        return iter(self._triples)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: RdfTriple) -> bool:
        return t in self._triples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TripleStore):
            return NotImplemented
        return self._triples.keys() == other._triples.keys()

    def __repr__(self) -> str:
        return f"TripleStore({len(self._triples)} triples)"

    # what the queries ask of a source, here by IRI
    def _start(self, ident: Ident) -> str:
        iri = iri_of(ident)
        if iri not in self._by_subject and iri not in self._by_object:
            raise UnknownIdent(str(ident))
        return iri

    def _step(self, forward: bool) -> Callable[[str], Iterable[str]]:
        edges = self._edges[not forward]
        return lambda iri: edges.get(iri, ())

    def _idents(self, iris: set[str], kind: Optional[str]) -> set[Ident]:
        return {ident_of_iri(iri) for iri in iris
                if kind is None or RdfTriple(iri, ULO_KIND, kind, True) in self._triples}


# ---------------------------------------------------------------------------
# extraction


def decl_edges(
    d: Declaration, include_proof_uses: bool = False
) -> tuple[tuple[Ident, ...], tuple[Ident, ...]]:
    """The targets of a declaration's `uses` edges, each distinct constant
    in order of first occurrence across its type, definiens and (if
    `include_proof_uses`) proof term; then those of its `justifiedBy` edges."""
    used = [d.tp, d.definiens]
    if include_proof_uses and isinstance(d.proof, ProofTerm):
        used.append(d.proof.term)
    uses = tuple(dict.fromkeys(c for t in used if t is not None for c in constants_of(t)))
    return uses, d.proof.ids if isinstance(d.proof, DependsOn) else ()


def triples(
    lib: Library, checked: bool = False, include_proof_uses: bool = False
) -> Iterator[tuple[str, str, str, bool]]:
    """Abstract a library to its identifier graph, as plain
    `(subject, predicate, obj, literal)` tuples, each one distinct.

    The caller states whether the library passed kernel checking; the
    answer is recorded as a provenance triple rather than trusted
    blindly by later consumers. A declaration's `uses` and `justifiedBy`
    triples are its `decl_edges`, in that order.
    """
    if not lib.theories:
        return
    iri = cache(iri_of)  # each identifier is encoded once per call
    status = "checked" if checked else "unchecked"
    yield _encode_component(lib.namespace), ULO_CHECK_STATUS, status, True
    for th in lib.theories:
        th_iri = iri(th.name)
        for inc in th.includes:
            yield th_iri, ULO_INCLUDES, iri(inc), False
        if th.meta_theory is not None:
            yield th_iri, ULO_META_THEORY, iri(th.meta_theory), False
        for d in th.decls:
            d_iri = iri(d.name)
            yield th_iri, ULO_DECLARES, d_iri, False
            yield d_iri, ULO_KIND, d.meta.kind, True
            if d.meta.source_ref is not None:
                yield d_iri, ULO_SOURCE_FILE, d.meta.source_ref.file, True
            uses, deps = decl_edges(d, include_proof_uses)
            for c in uses:
                yield d_iri, ULO_USES, iri(c), False
            for dep in deps:
                yield d_iri, ULO_JUSTIFIED_BY, iri(dep), False


def extract_triples(
    lib: Library, checked: bool = False, include_proof_uses: bool = False
) -> TripleStore:
    """The `triples` of a library in a store, for queries."""
    return TripleStore(triples(lib, checked, include_proof_uses))


# ---------------------------------------------------------------------------
# queries


class UseGraph:
    """What the queries walk, read off a library by identifier, with no IRI
    and no store: the targets of each declaration's `decl_edges`. As in a
    store of the library's `triples`, an identifier is known exactly when
    some triple names it as a subject or an IRI object."""

    def __init__(self, lib: Library, include_proof_uses: bool = False) -> None:
        self.lib, self.include_proof_uses = lib, include_proof_uses
        self.decls = {d.name: d for th in lib.theories for d in th.decls}

    def targets(self, ident: Ident) -> tuple[Ident, ...]:
        d = self.decls.get(ident)
        if d is None:
            return ()
        uses, deps = decl_edges(d, self.include_proof_uses)
        return uses + deps

    @cached_property
    def users(self) -> dict[Ident, list[Ident]]:
        """The graph reversed, built once."""
        users: dict[Ident, list[Ident]] = {}
        for name in self.decls:
            for t in self.targets(name):
                users.setdefault(t, []).append(name)
        return users

    def _start(self, ident: Ident) -> Ident:
        # a declaration, else the rare rest: a theory's subject or object, or a target
        if ident in self.decls or any(
            ident in th.includes or ident == th.meta_theory
            or ident == th.name and (th.includes or th.meta_theory is not None or th.decls)
            for th in self.lib.theories
        ) or ident in self.users:
            return ident
        raise UnknownIdent(str(ident))

    def _step(self, forward: bool) -> Callable[[Ident], Iterable[Ident]]:
        return self.targets if forward else lambda ident: self.users.get(ident, ())

    def _idents(self, idents: set[Ident], kind: Optional[str]) -> set[Ident]:
        return {i for i in idents if kind is None or self.decls[i].meta.kind == kind}


def _walk(step: Callable, start) -> set:
    """`start` and every node that `step` reaches from it, transitively."""
    seen, frontier = {start}, [start]
    while frontier:
        for node in step(frontier.pop()):
            if node not in seen:
                seen.add(node)
                frontier.append(node)
    return seen


def transitive_uses(source: UseGraph | TripleStore, ident: Ident) -> set[Ident]:
    """Reflexive-transitive closure over uses and justifiedBy edges."""
    return source._idents(_walk(source._step(True), source._start(ident)), None)


def used_by(
    source: UseGraph | TripleStore, concept: Ident, kind_filter: Optional[str] = None
) -> set[Ident]:
    """Everything whose transitive uses reach the concept.

    The concept itself never counts as its own user; with a kind
    filter, only subjects declared with that kind survive.
    """
    start = source._start(concept)
    return source._idents(_walk(source._step(False), start) - {start}, kind_filter)


# ---------------------------------------------------------------------------
# N-Triples

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
# one character a literal escapes: `"`, `\` or one outside printable ASCII
_LITERAL_UNSAFE = re.compile(r'[^ !#-\[\]-~]')
# one escape in a literal: \u and four hex digits, \U and eight, else one character or none
_ESCAPE = re.compile(r"\\(u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8}|.?)", re.DOTALL)


def _escape_char(m: re.Match) -> str:
    ch = m.group()
    return _ESCAPES.get(ch) or (f"\\u{ord(ch):04X}" if ord(ch) <= 0xFFFF else f"\\U{ord(ch):08X}")


def _escape_literal(s: str) -> str:
    return _LITERAL_UNSAFE.sub(_escape_char, s)


def _unescape_literal(s: str, line_no: int) -> str:
    def unescape(m: re.Match) -> str:
        esc = m.group(1)
        if esc in _UNESCAPES:
            return _UNESCAPES[esc]
        if len(esc) > 1 and int(esc[1:], 16) <= 0x10FFFF:
            return chr(int(esc[1:], 16))
        bad = "bad unicode escape" if esc[:1] in ("u", "U") else "bad escape"
        raise Malformed(f"{bad} in literal", line_no)

    return _ESCAPE.sub(unescape, s)


def write_ntriples(rows: Iterable[tuple[str, str, str, bool]]) -> bytes:
    """N-Triples lines of `rows`, a store or any 4-tuples, in their order."""
    return "".join([
        f'<{s}> <{p}> "{_escape_literal(o)}" .\n' if literal else f"<{s}> <{p}> <{o}> .\n"
        for s, p, o, literal in rows
    ]).encode("ascii")


_LINE = re.compile(
    r'^<([^<>"{}|^`\\\x00-\x20]*)> <([^<>"{}|^`\\\x00-\x20]*)>'
    r' (?:<([^<>"{}|^`\\\x00-\x20]*)>|"((?:[^"\\\n\r]|\\.)*)") \.$'
)


def read_ntriples(data: bytes) -> TripleStore:
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as err:
        raise Malformed(str(err)) from err
    store = TripleStore()
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        m = _LINE.match(line)
        if m is None:
            if not line.rstrip().endswith("."):
                raise Malformed("missing terminal '.'", line_no)
            raise Malformed("not an N-Triples line", line_no)
        subject, predicate, obj_iri, obj_lit = m.groups()
        if obj_iri is not None:
            store.add(RdfTriple(subject, predicate, obj_iri))
        else:
            store.add(
                RdfTriple(subject, predicate, _unescape_literal(obj_lit, line_no), literal=True)
            )
    return store
