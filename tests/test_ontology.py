"""RDF abstraction: extraction, reachability queries, N-Triples IO.

The query oracles are deliberately naive: a plain adjacency-list BFS
and a full inversion over every subject, computed from the raw triple
list without touching the store's indexes.
"""

import random
import re
from collections import deque
from pathlib import Path

import pytest

import generators

from proofport.errors import Malformed, UnknownIdent
from proofport.importers import import_toyhol, parse_toyhol
from proofport.kernel import (
    Apply,
    Const,
    Declaration,
    DependsOn,
    Ident,
    Library,
    Metadata,
    Omitted,
    ProofTerm,
    Theory,
    TypeKind,
    constants_of,
    theory_ident,
)
from proofport.ontology import (
    RdfTriple,
    TripleStore,
    ULO_CHECK_STATUS,
    ULO_DECLARES,
    ULO_INCLUDES,
    ULO_JUSTIFIED_BY,
    ULO_KIND,
    ULO_META_THEORY,
    ULO_SOURCE_FILE,
    ULO_USES,
    _decode_component,
    _encode_component,
    extract_triples,
    ident_of_iri,
    iri_of,
    read_ntriples,
    transitive_uses,
    used_by,
    write_ntriples,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

NS = "lib://onto"


# ---------------------------------------------------------------------------
# oracles


def oracle_edges(store):
    """(subject, object) pairs of the two dependency predicates."""
    return [
        (t.subject, t.obj)
        for t in store
        if t.predicate in (ULO_USES, ULO_JUSTIFIED_BY)
    ]


def oracle_bfs(store, start_iri):
    adj = {}
    for s, o in oracle_edges(store):
        adj.setdefault(s, []).append(o)
    seen = {start_iri}
    queue = deque([start_iri])
    while queue:
        cur = queue.popleft()
        for nxt in adj.get(cur, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def oracle_used_by(store, concept_iri, kind_filter=None):
    """Full inversion: run the closure from every outgoing subject."""
    subjects = {s for s, _ in oracle_edges(store)}
    hits = {
        s for s in subjects if s != concept_iri and concept_iri in oracle_bfs(store, s)
    }
    if kind_filter is not None:
        kinds = {
            t.subject: t.obj for t in store if t.predicate == ULO_KIND and t.literal
        }
        hits = {s for s in hits if kinds.get(s) == kind_filter}
    return hits


def oracle_decl_triples(lib, include_proof_uses=False):
    """Independent traversal of the declaration tree: the triples in
    document order, each at its first occurrence."""
    expected = []

    def add(t):
        if t not in expected:
            expected.append(t)

    for th in lib.theories:
        for inc in th.includes:
            add(RdfTriple(iri_of(th.name), ULO_INCLUDES, iri_of(inc)))
        if th.meta_theory is not None:
            add(RdfTriple(iri_of(th.name), ULO_META_THEORY, iri_of(th.meta_theory)))
        for d in th.decls:
            s = iri_of(d.name)
            add(RdfTriple(iri_of(th.name), ULO_DECLARES, s))
            add(RdfTriple(s, ULO_KIND, d.meta.kind, literal=True))
            if d.meta.source_ref is not None:
                add(RdfTriple(s, ULO_SOURCE_FILE, d.meta.source_ref.file, literal=True))
            terms = [d.tp, d.definiens]
            if include_proof_uses and isinstance(d.proof, ProofTerm):
                terms.append(d.proof.term)
            for t in terms:
                if t is not None:
                    for c in constants_of(t):
                        add(RdfTriple(s, ULO_USES, iri_of(c)))
            if isinstance(d.proof, DependsOn):
                for dep in d.proof.ids:
                    add(RdfTriple(s, ULO_JUSTIFIED_BY, iri_of(dep)))
    return expected


# ---------------------------------------------------------------------------
# fixtures


def _decl(name, kind="constant", tp=None, proof=None, src=None):
    meta = Metadata(kind=kind, source_ref=src)
    return Declaration(Ident(NS, "t", name), tp=tp or TypeKind(), proof=proof, meta=meta)


def _uses(*names):
    t = TypeKind()
    for n in names:
        t = Apply(t, Const(Ident(NS, "t", n)))
    return t


def _library(*decls):
    return Library(NS, (Theory(theory_ident(NS, "t"), decls=tuple(decls)),))


def _ident(name):
    return Ident(NS, "t", name)


CHAIN = _library(
    _decl("b"),
    _decl("a", kind="axiom", tp=_uses("b"), proof=Omitted()),
    _decl("t", kind="theorem", tp=TypeKind(), proof=DependsOn((_ident("a"),))),
)


# ---------------------------------------------------------------------------
# extraction


def test_empty_library_gives_empty_store():
    assert len(extract_triples(Library("lib://void"))) == 0


def test_theorem_triples_match_the_declaration_tree():
    lib = _library(
        _decl("c"),
        _decl("a", kind="axiom", proof=Omitted()),
        _decl("thm", kind="theorem", tp=_uses("c"), proof=DependsOn((_ident("a"),))),
    )
    store = extract_triples(lib)
    t_iri = iri_of(_ident("thm"))
    mine = store.with_subject(t_iri)
    assert {(x.predicate, x.obj) for x in mine} == {
        (ULO_KIND, "theorem"),
        (ULO_USES, iri_of(_ident("c"))),
        (ULO_JUSTIFIED_BY, iri_of(_ident("a"))),
    }
    assert RdfTriple(iri_of(theory_ident(NS, "t")), ULO_DECLARES, t_iri) in store
    # subject t carries exactly those plus no spill from other declarations
    assert len(store.with_subject(t_iri)) == 3


def test_extraction_matches_the_traversal_oracle_on_generated_libraries():
    for seed in range(30):
        lib = generators.gen_library(random.Random(seed))
        for proofs in (False, True):
            store = extract_triples(lib, include_proof_uses=proofs)
            expected = oracle_decl_triples(lib, include_proof_uses=proofs)
            got = [t for t in store if t.predicate != ULO_CHECK_STATUS]
            assert got == expected, f"seed {seed}, include_proof_uses={proofs}"


def test_triple_count_at_least_twice_declaration_count():
    for seed in range(30):
        lib = generators.gen_dep_library(random.Random(seed), max_decls=60)
        decls = sum(len(th.decls) for th in lib.theories)
        assert len(extract_triples(lib)) >= 2 * decls


def test_check_status_provenance():
    assert any(
        t.predicate == ULO_CHECK_STATUS and t.obj == "checked" and t.literal
        for t in extract_triples(CHAIN, checked=True)
    )
    assert any(
        t.predicate == ULO_CHECK_STATUS and t.obj == "unchecked"
        for t in extract_triples(CHAIN, checked=False)
    )


def test_proof_term_constants_are_not_uses_by_default():
    lib = _library(
        _decl("k"),
        _decl("t", kind="theorem", tp=TypeKind(), proof=ProofTerm(_uses("k"))),
    )
    k_iri = iri_of(_ident("k"))
    plain = extract_triples(lib)
    assert not any(t.predicate == ULO_USES and t.obj == k_iri for t in plain)
    full = extract_triples(lib, include_proof_uses=True)
    assert any(t.predicate == ULO_USES and t.obj == k_iri for t in full)


def _uses_of(store, name):
    return [t.obj for t in store.with_subject(iri_of(_ident(name))) if t.predicate == ULO_USES]


def test_one_uses_triple_per_distinct_constant_in_first_occurrence_order():
    d = Declaration(
        _ident("d"),
        tp=_uses("c", "b", "c"),
        definiens=_uses("b", "a", "c"),
        proof=ProofTerm(_uses("e", "a", "e")),
        meta=Metadata(kind="theorem"),
    )
    lib = _library(*(_decl(n) for n in "abce"), d)
    assert _uses_of(extract_triples(lib), "d") == [iri_of(_ident(n)) for n in "cba"]
    with_proofs = extract_triples(lib, include_proof_uses=True)
    assert _uses_of(with_proofs, "d") == [iri_of(_ident(n)) for n in "cbae"]


def test_includes_and_meta_theory_triples():
    x = Declaration(Ident(NS, "t0", "x"), tp=TypeKind(), meta=Metadata(kind="constant"))
    t0 = Theory(theory_ident(NS, "t0"), decls=(x,))
    t1 = Theory(
        theory_ident(NS, "t1"),
        meta_theory=theory_ident("lib://logics", "holChurch"),
        includes=(theory_ident(NS, "t0"),),
    )
    store = extract_triples(Library(NS, (t0, t1)))
    s = iri_of(theory_ident(NS, "t1"))
    assert RdfTriple(s, ULO_INCLUDES, iri_of(theory_ident(NS, "t0"))) in store
    assert RdfTriple(s, ULO_META_THEORY, iri_of(theory_ident("lib://logics", "holChurch"))) in store


def test_extraction_is_deterministic():
    lib = generators.gen_library(random.Random(5))
    assert extract_triples(lib).triples == extract_triples(lib).triples


def test_objects_are_identifiers_never_terms():
    for seed in range(10):
        lib = generators.gen_library(random.Random(seed))
        for t in extract_triples(lib):
            if not t.literal:
                ident_of_iri(t.obj)  # must decode as a three-part identifier


# ---------------------------------------------------------------------------
# identifiers as IRIs


def test_iri_scheme_examples():
    assert iri_of(Ident("lib://x", "m", "plus")) == "lib://x?m?plus"
    assert iri_of(Ident("lib://x", "m", "δ a")) == "lib://x?m?%CE%B4%20a"
    assert iri_of(Ident("lib://x", "m", "100%")) == "lib://x?m?100%25"


def test_iri_round_trips_on_hostile_names():
    rng = random.Random(0)
    alphabet = 'ab?%<>"{} λδ\n\t\\`^|'
    for _ in range(100):
        parts = [
            "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 8)))
            for _ in range(3)
        ]
        if any("?" == p for p in parts):
            continue
        ident = Ident(*(p.replace("?", "x") or "x" for p in parts))
        assert ident_of_iri(iri_of(ident)) == ident


@pytest.mark.parametrize(
    "component", ["plus", "lib://x", "100%", "δ a", "%41", "a\tb", "λ?%", "𝔸"]
)
def test_components_round_trip_through_the_percent_encoding(component):
    encoded = _encode_component(component)
    assert encoded.isascii()
    assert _decode_component(encoded) == component


def test_decoding_leaves_plain_ascii_alone_and_refuses_raw_non_ascii():
    assert _decode_component("plain-name_1") == "plain-name_1"
    assert _decode_component("caf%C3%A9") == "café"
    for raw in ("δ", "é"):
        with pytest.raises(UnicodeError):
            _decode_component(raw)


def test_non_identifier_iri_is_rejected():
    with pytest.raises(UnknownIdent):
        ident_of_iri("http://example.org/flat")


@pytest.mark.parametrize("iri", ["a?b?%C3", "a??c", "a?b?%3F", "a?b?λ"],
                         ids=["truncated-utf8", "empty", "escaped-separator", "raw"])
def test_an_iri_that_names_no_identifier_is_unknown_ident(iri):
    with pytest.raises(UnknownIdent, match=re.escape(f"not a library identifier: {iri}")):
        ident_of_iri(iri)
    if not iri.isascii():  # N-Triples are ASCII
        return
    # nor does a query that reaches such an object end in another error
    store = read_ntriples(f"<a?b?c> <{ULO_USES}> <{iri}> .\n".encode("ascii"))
    with pytest.raises(UnknownIdent, match="not a library identifier"):
        transitive_uses(store, Ident("a", "b", "c"))


# ---------------------------------------------------------------------------
# reachability


def test_isolated_declaration_reaches_only_itself():
    store = extract_triples(_library(_decl("lone")))
    assert transitive_uses(store, _ident("lone")) == {_ident("lone")}


def test_chain_closure():
    store = extract_triples(CHAIN)
    assert transitive_uses(store, _ident("t")) == {
        _ident("t"),
        _ident("a"),
        _ident("b"),
    }


def test_transitive_uses_unknown_identifier():
    with pytest.raises(UnknownIdent):
        transitive_uses(extract_triples(CHAIN), _ident("nope"))


def test_transitive_uses_matches_bfs_oracle_on_dags():
    for seed in range(50):
        rng = random.Random(seed)
        lib = generators.gen_dep_library(rng, max_decls=200)
        store = extract_triples(lib)
        decls = [d.name for th in lib.theories for d in th.decls]
        for start in rng.sample(decls, min(5, len(decls))):
            got = {iri_of(i) for i in transitive_uses(store, start)}
            assert got == oracle_bfs(store, iri_of(start)), f"seed {seed} start {start}"


def test_transitive_uses_is_monotone():
    from proofport.ontology import ULO_USES as USES

    for seed in range(20):
        rng = random.Random(seed)
        lib = generators.gen_dep_library(rng, max_decls=60)
        store = extract_triples(lib)
        decls = [iri_of(d.name) for th in lib.theories for d in th.decls]
        start = rng.choice([d.name for th in lib.theories for d in th.decls])
        before = transitive_uses(store, start)
        grown = TripleStore(store)
        for _ in range(10):
            grown.add(RdfTriple(rng.choice(decls), USES, rng.choice(decls)))
        assert transitive_uses(grown, start) >= before


def test_used_by_nothing_is_empty():
    store = extract_triples(_library(_decl("alone")))
    assert used_by(store, _ident("alone")) == set()


def test_used_by_two_theorems_with_kind_filter():
    lib = _library(
        _decl("nat"),
        _decl("even", kind="theorem", tp=_uses("nat"), proof=Omitted()),
        _decl("odd", kind="theorem", tp=_uses("nat"), proof=Omitted()),
        _decl("extra", tp=_uses("nat")),
    )
    store = extract_triples(lib)
    assert used_by(store, _ident("nat"), "theorem") == {_ident("even"), _ident("odd")}
    assert used_by(store, _ident("nat")) == {
        _ident("even"),
        _ident("odd"),
        _ident("extra"),
    }


def test_used_by_never_returns_the_concept_itself():
    store = extract_triples(CHAIN)
    assert _ident("a") not in used_by(store, _ident("a"))


def test_used_by_unknown_identifier():
    with pytest.raises(UnknownIdent):
        used_by(extract_triples(CHAIN), _ident("nope"))


def test_used_by_matches_the_inversion_oracle_on_dags():
    kinds = (None, "theorem", "axiom")
    for seed in range(50):
        rng = random.Random(1000 + seed)
        lib = generators.gen_dep_library(rng, max_decls=200)
        store = extract_triples(lib)
        decls = [d.name for th in lib.theories for d in th.decls]
        for concept in rng.sample(decls, min(3, len(decls))):
            kf = rng.choice(kinds)
            got = {iri_of(i) for i in used_by(store, concept, kf)}
            assert got == oracle_used_by(store, iri_of(concept), kf), (
                f"seed {seed} concept {concept} filter {kf}"
            )


# ---------------------------------------------------------------------------
# the store itself


def test_store_equality_ignores_insertion_order():
    a = RdfTriple("s1", "p", "o1")
    b = RdfTriple("s2", "p", "o2")
    assert TripleStore([a, b]) == TripleStore([b, a])
    assert TripleStore([a]) != TripleStore([b])


def test_triples_are_named_tuples_with_the_dataclass_surface():
    t = RdfTriple("s", "p", "o")
    assert RdfTriple._fields == ("subject", "predicate", "obj", "literal")
    assert t.literal is False
    assert repr(t) == "RdfTriple(subject='s', predicate='p', obj='o', literal=False)"
    assert t == ("s", "p", "o", False) and hash(t) == hash(("s", "p", "o", False))
    assert t != RdfTriple("s", "p", "o", literal=True)
    store = TripleStore([t, RdfTriple("s", "p", "o", False), RdfTriple("s", "p", "o", True)])
    assert len(store) == 2 and t in store
    assert store.with_subject("s") == (t, RdfTriple("s", "p", "o", True))
    assert store.with_object("o") == (t,)


def test_duplicate_triples_are_dropped():
    t = RdfTriple("s", "p", "o")
    store = TripleStore([t, t, t])
    assert len(store) == 1
    assert store.add(t) is False
    assert store.with_subject("s") == (t,)
    assert store.with_object("o") == (t,)


def test_literal_objects_do_not_enter_the_object_index():
    lit = RdfTriple("s", "p", "o", literal=True)
    store = TripleStore([lit])
    assert store.with_object("o") == ()
    assert store.with_subject("s") == (lit,)


# ---------------------------------------------------------------------------
# N-Triples


def test_empty_store_writes_empty_bytes():
    assert write_ntriples(TripleStore()) == b""
    assert read_ntriples(b"") == TripleStore()


def test_written_lines_pass_a_naive_grammar_check():
    line_re = re.compile(rb'^<[^<>" ]+> <[^<>" ]+> (<[^<>" ]+>|"[^"]*(?:\\.[^"]*)*") \.$')
    for seed in range(30):
        lib = generators.gen_library(random.Random(seed))
        data = write_ntriples(extract_triples(lib))
        for raw in data.splitlines():
            assert line_re.match(raw), raw


def test_read_write_identity_on_100_generated_stores():
    for seed in range(100):
        rng = random.Random(seed)
        if seed % 2:
            lib = generators.gen_library(rng)
        else:
            lib = generators.gen_dep_library(rng, max_decls=40)
        store = extract_triples(lib, checked=bool(seed % 3))
        assert read_ntriples(write_ntriples(store)) == store, f"seed {seed}"


def test_escaping_of_hostile_literals():
    nasty = 'quote " back \\ slash\nnewline\ttab λ unicode \U0001f40d'
    store = TripleStore([RdfTriple("lib://x?m?n", ULO_SOURCE_FILE, nasty, literal=True)])
    data = write_ntriples(store)
    assert b'\\"' in data and b"\\n" in data and b"\\u03BB" in data and b"\\U0001F40D" in data
    assert read_ntriples(data) == store


def test_missing_terminal_dot_reports_the_line():
    data = b'<lib://a?b?c> <lib://ulo?core?kind> "x" .\n<lib://a?b?d> <lib://ulo?core?kind> "y"\n'
    with pytest.raises(Malformed) as err:
        read_ntriples(data)
    assert err.value.line == 2


def test_garbage_line_is_malformed():
    with pytest.raises(Malformed):
        read_ntriples(b"this is not a triple .\n")


def test_bad_literal_escape_is_malformed():
    with pytest.raises(Malformed):
        read_ntriples(b'<lib://a?b?c> <lib://a?b?p> "bad \\q escape" .\n')


def test_non_ascii_bytes_are_malformed():
    with pytest.raises(Malformed):
        read_ntriples("<lib://a?b?λ> <p> <o> .\n".encode("utf-8"))


def test_comments_and_blank_lines_are_skipped():
    data = (
        b"# header comment\n"
        b"\n"
        b'<lib://a?b?c> <lib://ulo?core?kind> "axiom" .\n'
    )
    store = read_ntriples(data)
    assert len(store) == 1


def test_fixture_import_extracts_and_round_trips():
    raw = (FIXTURES / "core.toyhol.json").read_bytes()
    lib, report = import_toyhol(parse_toyhol(raw))
    assert report.ok
    store = extract_triples(lib, checked=True)
    assert read_ntriples(write_ntriples(store)) == store
    t = Ident("lib://toyhol", "core", "t")
    assert Ident("lib://toyhol", "core", "p") in transitive_uses(store, t)
