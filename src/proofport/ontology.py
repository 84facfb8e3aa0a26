"""Identifier-level RDF abstraction of libraries.

Every symbolic expression is dropped; what remains is which module
declares what, what each declaration uses, and how statements justify
each other. Queries answer the resulting reachability questions, and
the store round-trips through N-Triples.

IRIs follow the library's own naming scheme: the three identifier
components joined by `?`, each percent-encoded to plain ASCII. The
`ulo:` prefix expands to `lib://ulo?core?`; see
docs/ontology-vocabulary.md for the full list.
"""

from __future__ import annotations

import re
from functools import cache
from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import Malformed, UnknownIdent
from .kernel import (
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

    def __init__(self, triples: Iterable[RdfTriple] = ()):
        self._triples: dict[RdfTriple, None] = {}  # an insertion-ordered set
        self._by_subject: dict[str, list[RdfTriple]] = {}
        self._by_object: dict[str, list[RdfTriple]] = {}
        for t in triples:
            self.add(t)

    def add(self, t: RdfTriple) -> bool:
        if t in self._triples:
            return False
        self._triples[t] = None
        self._by_subject.setdefault(t.subject, []).append(t)
        if not t.literal:
            self._by_object.setdefault(t.obj, []).append(t)
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


# ---------------------------------------------------------------------------
# extraction


def extract_triples(
    lib: Library, checked: bool = False, include_proof_uses: bool = False
) -> TripleStore:
    """Abstract a library to its identifier graph.

    The caller states whether the library passed kernel checking; the
    answer is recorded as a provenance triple rather than trusted
    blindly by later consumers. Constants inside proof terms count as
    uses only when `include_proof_uses` is set; dependency-only proofs
    always contribute `justifiedBy` edges. Each declaration gets one
    `uses` triple per distinct constant, in order of first occurrence
    across its type, definiens and counted proof term.
    """
    store = TripleStore()
    if not lib.theories:
        return store
    iri = cache(iri_of)  # each identifier is encoded once per call
    status = "checked" if checked else "unchecked"
    store.add(RdfTriple(_encode_component(lib.namespace), ULO_CHECK_STATUS, status, literal=True))
    for th in lib.theories:
        th_iri = iri(th.name)
        for inc in th.includes:
            store.add(RdfTriple(th_iri, ULO_INCLUDES, iri(inc)))
        if th.meta_theory is not None:
            store.add(RdfTriple(th_iri, ULO_META_THEORY, iri(th.meta_theory)))
        for d in th.decls:
            d_iri = iri(d.name)
            store.add(RdfTriple(th_iri, ULO_DECLARES, d_iri))
            store.add(RdfTriple(d_iri, ULO_KIND, d.meta.kind, literal=True))
            if d.meta.source_ref is not None:
                store.add(
                    RdfTriple(d_iri, ULO_SOURCE_FILE, d.meta.source_ref.file, literal=True)
                )
            used = [d.tp, d.definiens]
            if include_proof_uses and isinstance(d.proof, ProofTerm):
                used.append(d.proof.term)
            distinct = dict.fromkeys(c for t in used if t is not None for c in constants_of(t))
            for c in distinct:
                store.add(RdfTriple(d_iri, ULO_USES, iri(c)))
            if isinstance(d.proof, DependsOn):
                for dep in d.proof.ids:
                    store.add(RdfTriple(d_iri, ULO_JUSTIFIED_BY, iri(dep)))
    return store


# ---------------------------------------------------------------------------
# queries


def _walk(store: TripleStore, ident: Ident, forward: bool) -> set[str]:
    """`ident`'s IRI and every IRI that uses and justifiedBy edges reach
    from it, each edge followed from subject to object if `forward`, else
    from object to subject."""
    start = iri_of(ident)
    if start not in store._by_subject and start not in store._by_object:
        raise UnknownIdent(str(ident))
    edges, end = (store._by_subject, 2) if forward else (store._by_object, 0)
    seen, frontier = {start}, [start]
    while frontier:
        for t in edges.get(frontier.pop(), ()):
            if t.predicate in _EDGE_PREDICATES and t[end] not in seen:
                seen.add(t[end])
                frontier.append(t[end])
    return seen


def transitive_uses(store: TripleStore, ident: Ident) -> set[Ident]:
    """Reflexive-transitive closure over uses and justifiedBy edges."""
    return {ident_of_iri(iri) for iri in _walk(store, ident, True)}


def used_by(
    store: TripleStore, concept: Ident, kind_filter: Optional[str] = None
) -> set[Ident]:
    """Everything whose transitive uses reach the concept.

    The concept itself never counts as its own user; with a kind
    filter, only subjects declared with that kind survive.
    """
    seen = _walk(store, concept, False) - {iri_of(concept)}
    if kind_filter is not None:
        seen = {iri for iri in seen if RdfTriple(iri, ULO_KIND, kind_filter, True) in store}
    return {ident_of_iri(iri) for iri in seen}


# ---------------------------------------------------------------------------
# N-Triples

FILE_EXTENSION = ".nt"

_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}


def _escape_literal(s: str) -> str:
    out = []
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif 0x20 <= ord(ch) <= 0x7E:
            out.append(ch)
        elif ord(ch) <= 0xFFFF:
            out.append(f"\\u{ord(ch):04X}")
        else:
            out.append(f"\\U{ord(ch):08X}")
    return "".join(out)


def _unescape_literal(s: str, line_no: int) -> str:
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        if i + 1 >= len(s):
            raise Malformed("bad escape in literal", line_no)
        esc = s[i + 1]
        if esc in _UNESCAPES:
            out.append(_UNESCAPES[esc])
            i += 2
        elif esc in ("u", "U"):
            width = 4 if esc == "u" else 8
            digits = s[i + 2 : i + 2 + width]
            if len(digits) != width or not all(c in "0123456789abcdefABCDEF" for c in digits):
                raise Malformed("bad unicode escape in literal", line_no)
            out.append(chr(int(digits, 16)))
            i += 2 + width
        else:
            raise Malformed("bad escape in literal", line_no)
    return "".join(out)


def write_ntriples(store: TripleStore) -> bytes:
    lines = []
    for t in store:
        obj = f'"{_escape_literal(t.obj)}"' if t.literal else f"<{t.obj}>"
        lines.append(f"<{t.subject}> <{t.predicate}> {obj} .")
    return ("\n".join(lines) + "\n").encode("ascii") if lines else b""


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
