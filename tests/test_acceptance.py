"""Release gate: the nine headline guarantees, one test and one printed
verdict line each.

Each test re-runs its guarantee end to end at full advertised volume,
reusing the generators and oracles of the per-module suites. Run with
`pytest tests/test_acceptance.py -v -s` to see the verdict lines; a
FAIL line always accompanies a test failure.
"""

import functools
import itertools
import random
import time
from pathlib import Path

import generators
from generators import (
    BASE_LIB,
    NAT,
    SURFACE_ENV,
    SURFACE_BASES,
    gen_library,
    gen_scoped,
    gen_stype,
    gen_surface,
    gen_term,
    gen_type,
    gen_typed_closed,
    mutate_hints,
    stype_term,
    surface_consts,
    surface_library,
)
from test_encodings import identity_theorem
from test_morphisms import (
    ALGEBRA,
    TO_INT,
    algebra_library,
    gen_monoid_term,
)
from test_ontology import oracle_bfs, oracle_used_by

from proofport import omdoc
from proofport.cli import main as cli_main
from proofport.encodings import (
    LOGIC_NS,
    church_curry_size_ratio,
    dtt_ident,
    hol_ident,
    logic_library,
)
from proofport.errors import AmbiguousType, CheckError, ReductionDepthExceeded
from proofport.importers import (
    import_toyhol,
    import_toyset,
    infer_church_annotations,
    parse_toyhol,
    parse_toyset,
)
from proofport.kernel import (
    Apply,
    Config,
    Const,
    Declaration,
    Ident,
    Library,
    Metadata,
    ProofTerm,
    SubIn,
    SubOut,
    Term,
    Terms,
    Theory,
    apps,
    check,
    check_library,
    check_theory,
    equal,
    infer,
    substitute,
    theory_ident,
    whnf,
)
from proofport.morphisms import compose, identity_morphism, install_morphism, translate
from proofport.ontology import extract_triples, iri_of, read_ntriples, write_ntriples
from generators import SAbs, SName

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CTX = ()
LOGICS = logic_library()


def criterion(n, label):
    """Print one verdict line per guarantee, pass or fail."""

    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"criterion {n}: FAIL  {label}")
                raise
            print(f"criterion {n}: PASS  {label}")

        return run

    return wrap


@criterion(1, "kernel property suite, 500 terms per property, under 30 s")
def test_1_kernel_properties():
    start = time.monotonic()

    rng = random.Random(11)
    for _ in range(500):  # substitution lemma
        a, b = gen_type(rng), gen_type(rng)
        t = gen_term(rng, [a], b)
        s = gen_term(rng, [], a)
        check(BASE_LIB, CTX, substitute(t, 0, s), b)

    rng = random.Random(22)
    for _ in range(500):  # subject reduction
        t, tp = gen_typed_closed(rng)
        reduced = whnf(BASE_LIB, t)
        assert equal(BASE_LIB, infer(BASE_LIB, CTX, reduced), tp)

    rng = random.Random(33)
    cfg = Config(reduction_budget=400)
    for _ in range(500):  # whnf idempotence
        t = gen_scoped(rng, 0)
        try:
            once = whnf(BASE_LIB, t, cfg)
        except ReductionDepthExceeded:
            continue
        assert whnf(BASE_LIB, once, cfg) == once

    rng = random.Random(44)
    for _ in range(500):  # alpha invariance: binder hints carry no meaning
        t, _tp = gen_typed_closed(rng)
        mutated = mutate_hints(rng, t)
        assert mutated == t
        assert infer(BASE_LIB, CTX, mutated) == infer(BASE_LIB, CTX, t)

    assert time.monotonic() - start < 30.0


@criterion(2, "three encoding theories check clean; HOL identity proof term checks")
def test_2_encodings_check_and_identity_proof():
    for report in check_library(LOGICS):
        assert report.ok, report.failures

    statement, proof = identity_theorem()
    check(LOGICS, CTX, proof, statement)
    ns = "lib://user"
    th = Theory(
        theory_ident(ns, "id"),
        meta_theory=Ident(LOGIC_NS, "holChurch", "holChurch"),
        decls=(
            Declaration(
                Ident(ns, "id", "identity"),
                tp=statement,
                proof=ProofTerm(proof),
                meta=Metadata(kind="theorem"),
            ),
        ),
    )
    report = check_theory(Library(ns, (th,), deps=(LOGICS,)), th.name)
    assert report.ok, report.failures


def _enumerate_nats():
    level = [Const(generators._i("zero")), Const(generators._i("one"))]
    succ = Const(generators._i("succ"))
    plus = Const(generators._i("plus"))
    for _ in range(2):
        level = level + [Apply(succ, t) for t in level] + [
            apps(plus, a, b) for a, b in itertools.product(level, repeat=2)
        ]
    return level


@criterion(3, "refinement rules and tmOf equivalence on an enumerated set")
def test_3_refinement_rules_enumerated():
    tt = Const(generators._i("tt"))
    neg_tt = Apply(Const(generators._i("neg")), tt)
    succ = Const(generators._i("succ"))
    instances = 0
    for t in _enumerate_nats():
        check(BASE_LIB, CTX, t, NAT)
        for w in (tt, neg_tt):
            assert equal(BASE_LIB, SubOut(SubIn(t, w)), t)
            instances += 1
        # witness irrelevance: proofs never separate refined terms,
        # but distinct elements stay distinct
        assert equal(BASE_LIB, SubIn(t, tt), SubIn(t, neg_tt))
        assert not equal(BASE_LIB, SubIn(t, tt), SubIn(Apply(succ, t), tt))
    assert instances >= 100

    # tmOf membership is exactly possession of an `of e A` proof
    ns = "lib://user"
    a, c0, pf = (Ident(ns, "c", n) for n in ("A", "c0", "pf"))
    expr_tp = Const(dtt_ident("expr"))
    of = Const(dtt_ident("of"))
    appc = Const(dtt_ident("app'"))
    tmof = Const(dtt_ident("tmOf"))
    refined = Declaration(
        Ident(ns, "c", "c"),
        tp=Apply(tmof, Const(a)),
        definiens=SubIn(Const(c0), Const(pf)),
        meta=Metadata(kind="definition"),
    )
    th = Theory(
        theory_ident(ns, "c"),
        meta_theory=Ident(LOGIC_NS, "dttCurry", "dttCurry"),
        decls=(
            Declaration(a, tp=expr_tp, meta=Metadata(kind="constant")),
            Declaration(c0, tp=expr_tp, meta=Metadata(kind="constant")),
            Declaration(pf, tp=apps(of, Const(c0), Const(a)), meta=Metadata(kind="constant")),
            refined,
        ),
    )
    lib = Library(ns, (th,), deps=(LOGICS,))
    assert check_theory(lib, th.name).ok

    def accepted(term, tp):
        try:
            check(lib, CTX, term, tp)
            return True
        except CheckError:
            return False

    atoms = [Const(a), Const(c0), SubOut(Const(refined.name))]
    exprs = atoms + [apps(appc, x, y) for x, y in itertools.product(atoms, repeat=2)]
    witnesses = exprs + [Const(pf)]
    pairs = positives = 0
    for e, w in itertools.product(exprs, witnesses):
        has_proof = accepted(w, apps(of, e, Const(a)))
        is_member = accepted(SubIn(e, w), Apply(tmof, Const(a)))
        assert has_proof == is_member, (e, w)
        pairs += 1
        positives += has_proof
    assert pairs >= 100
    assert 0 < positives < pairs


@criterion(4, "annotation inference on 200 surface terms; ambiguity is an error")
def test_4_annotation_inference():
    base = surface_library()
    lib = Library(base.namespace, base.theories, deps=(LOGICS,))
    tm = Const(hol_ident("tm"))
    rng = random.Random(55)
    for _ in range(200):
        target = gen_stype(rng, 2)
        t = gen_surface(rng, target, (), 3)
        term, ty = infer_church_annotations(surface_consts(SURFACE_ENV), t, SURFACE_BASES, Terms())
        assert ty == stype_term(target)
        check(lib, CTX, term, Apply(tm, stype_term(target)))

    try:
        infer_church_annotations({}, SAbs("x", None, SName("x")), SURFACE_BASES, Terms())
    except AmbiguousType:
        pass
    else:
        raise AssertionError("unannotated identity must not get a guessed type")


@criterion(5, "serialization round-trips: fixtures, 100 libraries, 100 stores")
def test_5_round_trips():
    libs = [
        import_toyhol(parse_toyhol((FIXTURES / "core.toyhol.json").read_bytes()))[0],
        import_toyhol(parse_toyhol((FIXTURES / "minimal.toyhol.json").read_bytes()))[0],
        import_toyset(parse_toyset((FIXTURES / "sets.toyset.xml").read_bytes()))[0],
        LOGICS,
        algebra_library(morphisms=(TO_INT,)),
    ]
    for lib in libs:
        data = omdoc.serialize(lib)
        again = omdoc.parse(data, deps=(LOGICS,))
        assert again == lib
        assert omdoc.serialize(again) == data

    for seed in range(100):
        lib = gen_library(random.Random(seed))
        data = omdoc.serialize(lib)
        assert omdoc.parse(data) == lib
        assert omdoc.serialize(omdoc.parse(data)) == data

    for seed in range(100):
        rng = random.Random(seed)
        lib = gen_library(rng) if seed % 2 else generators.gen_dep_library(rng)
        store = extract_triples(lib, checked=bool(seed % 3))
        assert read_ntriples(write_ntriples(store)) == store


@criterion(6, "dependency queries equal brute-force oracles on 50 DAGs")
def test_6_dependency_queries():
    from proofport.ontology import transitive_uses, used_by

    for seed in range(50):
        rng = random.Random(seed)
        lib = generators.gen_dep_library(rng, max_decls=200)
        store = extract_triples(lib)
        decls = [d.name for th in lib.theories for d in th.decls]
        for start in rng.sample(decls, min(5, len(decls))):
            got = {iri_of(i) for i in transitive_uses(store, start)}
            assert got == oracle_bfs(store, iri_of(start))
        for concept in rng.sample(decls, min(3, len(decls))):
            kf = rng.choice((None, "theorem", "axiom"))
            got = {iri_of(i) for i in used_by(store, concept, kf)}
            assert got == oracle_used_by(store, iri_of(concept), kf)


@criterion(7, "morphism laws, install checks, hand-derived translated statements")
def test_7_morphisms():
    monoid = theory_ident("lib://algebra", "monoid")
    integers = theory_ident("lib://algebra", "integers")
    ident = identity_morphism(ALGEBRA, monoid)
    rng = random.Random(66)
    for _ in range(200):  # identity law
        t = gen_monoid_term(rng, 4)
        assert translate(ALGEBRA, ident, t) == t

    id_int = identity_morphism(ALGEBRA, integers)
    composed = compose(ALGEBRA, id_int, TO_INT)
    for _ in range(200):  # composition law against the two-step pipeline
        t = gen_monoid_term(rng, 3)
        two_step = translate(ALGEBRA, id_int, translate(ALGEBRA, TO_INT, t))
        assert translate(ALGEBRA, composed, t) == two_step

    for _ in range(100):  # typing preservation
        t = gen_monoid_term(rng, 3)
        translated = translate(ALGEBRA, TO_INT, t)
        set_tp = Const(Ident(LOGIC_NS, "folSoft", "set"))
        check(ALGEBRA, CTX, t, set_tp)
        check(ALGEBRA, CTX, translated, set_tp)

    installed = install_morphism(ALGEBRA, TO_INT)
    lib = algebra_library(extra_theories=(installed,), morphisms=(TO_INT,))
    report = check_theory(lib, installed.name)
    assert report.ok, report.failures

    # hand-derived: ee (`e . e = e`) must land at `0 + 0 = 0`
    ded = Const(Ident(LOGIC_NS, "folSoft", "ded"))
    eq = Const(Ident(LOGIC_NS, "folSoft", "eq'"))
    zero = Const(Ident("lib://algebra", "integers", "zero"))
    add = Const(Ident("lib://algebra", "integers", "add"))
    by_name = {d.name.name: d for d in installed.decls}
    assert by_name["toInt/ee"].tp == Apply(ded, apps(eq, apps(add, zero, zero), zero))
    assert by_name["toInt/ee_refl"].tp == Apply(
        ded, apps(eq, apps(add, zero, zero), apps(add, zero, zero))
    )


@criterion(8, "CLI pipeline byte-stable, exit codes per table, under 5 s")
def test_8_cli_end_to_end():
    import tempfile

    start = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        first, second = tmp / "first.omdoc.xml", tmp / "second.omdoc.xml"
        core = str(FIXTURES / "core.toyhol.json")
        assert cli_main(["check", core]) == 0
        assert cli_main(["export-omdoc", core, "--output", str(first)]) == 0
        assert cli_main(["check", str(first)]) == 0
        assert cli_main(["export-omdoc", str(first), "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

        assert cli_main(["check", str(FIXTURES / "broken-dep.omdoc.xml")]) == 1

        empty = tmp / "empty.toyhol.json"
        empty.write_text('{"version": "1", "theories": []}')
        assert cli_main(["check", str(empty)]) == 2
        assert cli_main(["check", str(empty), "--allow-empty"]) == 0

        missing = tmp / "absent.toyhol.json"
        assert cli_main(["check", str(missing)]) == 2
    assert time.monotonic() - start < 5.0


@criterion(9, "Church/Curry size ratio exceeds 1; single application is exactly 5/3")
def test_9_size_ratio():
    from fractions import Fraction

    from test_encodings import _defs_library

    bool_code = Const(hol_ident("bool'"))
    app_church = Const(hol_ident("app"))
    app_curry = Const(dtt_ident("app'"))
    f = Const(Ident("lib://u", "m", "f"))
    a = Const(Ident("lib://u", "m", "a"))

    def corpus(napps):
        church: Term = f
        curry: Term = f
        for _ in range(napps):
            church = apps(app_church, bool_code, bool_code, church, a)
            curry = apps(app_curry, curry, a)
        return (
            _defs_library("lib://u", "m", {"d": church}),
            _defs_library("lib://u", "m", {"d": curry}),
        )

    assert church_curry_size_ratio(*corpus(1)) == Fraction(5, 3)

    rng = random.Random(77)
    for _ in range(20):
        assert church_curry_size_ratio(*corpus(rng.randint(1, 6))) > 1
