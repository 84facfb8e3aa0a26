"""Morphism laws and the monoid-to-integers fixture.

The fixture is small enough that every translated statement is written
out by hand; the law tests compute both sides independently on random
terms over the source signature."""

import random

import pytest

from proofport import morphisms
from proofport.encodings import FOL_SOFT, fol_ident, logic_library
from proofport.errors import Mismatch, UnassignedConstant, UnknownIdent
from proofport.kernel import (
    Apply,
    Const,
    Context,
    Declaration,
    DependsOn,
    Ident,
    Lambda,
    Library,
    Metadata,
    Omitted,
    Term,
    Theory,
    Var,
    apps,
    check,
    check_library,
    check_theory,
    fn_type,
    substitute,
    theory_ident,
)
from proofport.morphisms import (
    Morphism,
    check_morphism,
    compose,
    identity_morphism,
    install_morphism,
    translate,
)

NS = "lib://algebra"
LOGICS = logic_library()

SET = Const(fol_ident("set"))
PROP = Const(fol_ident("prop"))
DED = Const(fol_ident("ded"))
EQ = Const(fol_ident("eq'"))
FORALL = Const(fol_ident("forallSet"))

SET2 = fn_type(SET, fn_type(SET, SET))


def _i(module: str, name: str) -> Ident:
    return Ident(NS, module, name)


E = Const(_i("monoid", "e"))
OP = Const(_i("monoid", "op"))
ZERO = Const(_i("integers", "zero"))
ADD = Const(_i("integers", "add"))
NEG = Const(_i("integers", "neg"))


def _monoid() -> Theory:
    def d(name, tp, kind="constant", proof=None, deps=None):
        if deps is not None:
            proof = DependsOn(deps)
        return Declaration(_i("monoid", name), tp=tp, proof=proof, meta=Metadata(kind=kind))

    left_id = Apply(
        DED, Apply(FORALL, Lambda("x", SET, apps(EQ, apps(OP, E, Var(0)), Var(0))))
    )
    return Theory(
        theory_ident(NS, "monoid"),
        meta_theory=FOL_SOFT,
        decls=(
            d("e", SET),
            d("op", SET2),
            d("left_id", left_id, kind="axiom", proof=Omitted()),
            d("ee", Apply(DED, apps(EQ, apps(OP, E, E), E)), kind="theorem",
              deps=(_i("monoid", "left_id"),)),
            d("ee_refl", Apply(DED, apps(EQ, apps(OP, E, E), apps(OP, E, E))),
              kind="theorem", deps=(_i("monoid", "ee"),)),
        ),
    )


def _integers() -> Theory:
    def d(name, tp, kind="constant", proof=None):
        return Declaration(_i("integers", name), tp=tp, proof=proof, meta=Metadata(kind=kind))

    zero_add = Apply(
        DED, Apply(FORALL, Lambda("x", SET, apps(EQ, apps(ADD, ZERO, Var(0)), Var(0))))
    )
    return Theory(
        theory_ident(NS, "integers"),
        meta_theory=FOL_SOFT,
        decls=(
            d("zero", SET),
            d("add", SET2),
            d("neg", fn_type(SET, SET)),
            d("zero_add", zero_add, kind="axiom", proof=Omitted()),
        ),
    )


TO_INT = Morphism(
    _i("morphs", "toInt"),
    theory_ident(NS, "monoid"),
    theory_ident(NS, "integers"),
    ((_i("monoid", "e"), ZERO), (_i("monoid", "op"), ADD)),
)


def algebra_library(extra_theories=(), morphisms=()) -> Library:
    return Library(
        NS,
        (_monoid(), _integers()) + tuple(extra_theories),
        morphisms=tuple(morphisms),
        deps=(LOGICS,),
    )


ALGEBRA = algebra_library()


def gen_monoid_term(rng: random.Random, depth: int, free: int = 0) -> Term:
    """A set-valued term over the monoid signature, `free` open vars."""
    atoms = [E] + [Var(i) for i in range(free)]
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(atoms)
    return apps(
        OP,
        gen_monoid_term(rng, depth - 1, free),
        gen_monoid_term(rng, depth - 1, free),
    )


def test_fixture_library_checks():
    assert all(r.ok for r in check_library(ALGEBRA))


def test_translate_leaves_meta_theory_alone():
    assert translate(ALGEBRA, TO_INT, EQ) == EQ
    assert translate(ALGEBRA, TO_INT, SET) == SET


def test_translate_hand_example():
    assert translate(ALGEBRA, TO_INT, apps(OP, E, E)) == apps(ADD, ZERO, ZERO)


def test_translate_under_binder():
    t = Apply(FORALL, Lambda("x", SET, apps(EQ, apps(OP, E, Var(0)), Var(0))))
    expected = Apply(FORALL, Lambda("x", SET, apps(EQ, apps(ADD, ZERO, Var(0)), Var(0))))
    assert translate(ALGEBRA, TO_INT, t) == expected


def test_translate_unassigned_constant():
    bare = Theory(
        theory_ident(NS, "bare"),
        meta_theory=FOL_SOFT,
        decls=(
            Declaration(_i("bare", "mystery"), tp=SET, meta=Metadata(kind="constant")),
        ),
    )
    lib = algebra_library(extra_theories=(bare,))
    m = Morphism(
        _i("morphs", "partial"),
        theory_ident(NS, "bare"),
        theory_ident(NS, "integers"),
    )
    with pytest.raises(UnassignedConstant):
        translate(lib, m, Const(_i("bare", "mystery")))


def test_translate_unknown_source_theory():
    m = Morphism(
        _i("morphs", "ghost"),
        theory_ident(NS, "nonexistent"),
        theory_ident(NS, "integers"),
    )
    with pytest.raises(UnknownIdent):
        translate(ALGEBRA, m, E)


def test_translate_expands_definiens_when_unassigned():
    withdef = Theory(
        theory_ident(NS, "withdef"),
        meta_theory=FOL_SOFT,
        includes=(theory_ident(NS, "monoid"),),
        decls=(
            Declaration(
                _i("withdef", "sq"),
                tp=fn_type(SET, SET),
                definiens=Lambda("x", SET, apps(OP, Var(0), Var(0))),
                meta=Metadata(kind="definition"),
            ),
        ),
    )
    lib = algebra_library(extra_theories=(withdef,))
    m = Morphism(
        _i("morphs", "toIntDef"),
        theory_ident(NS, "withdef"),
        theory_ident(NS, "integers"),
        ((_i("monoid", "e"), ZERO), (_i("monoid", "op"), ADD)),
    )
    out = translate(lib, m, Apply(Const(_i("withdef", "sq")), E))
    assert out == Apply(Lambda("x", SET, apps(ADD, Var(0), Var(0))), ZERO)


def _extension(name: str, decls) -> Library:
    """The algebra library plus a theory `name` over the monoid, and toInt
    extended to it as the morphism `name`."""
    th = Theory(
        theory_ident(NS, name),
        meta_theory=FOL_SOFT,
        includes=(theory_ident(NS, "monoid"),),
        decls=tuple(decls),
    )
    m = Morphism(_i("morphs", name), th.name, TO_INT.target, TO_INT.assignments)
    return algebra_library(extra_theories=(th,), morphisms=(m,))


def test_a_doubly_shared_chain_translates_each_definition_once(monkeypatch):
    steps = 60
    defs = [Declaration(_i("chain", "c0"), tp=SET, definiens=E, meta=Metadata(kind="definition"))]
    for k in range(1, steps + 1):
        prev = Const(defs[-1].name)
        defs.append(
            Declaration(
                _i("chain", f"c{k}"),
                tp=SET,
                definiens=apps(OP, prev, prev),
                meta=Metadata(kind="definition"),
            )
        )
    lib = _extension("chain", defs)
    calls = 0
    real = morphisms.map_consts

    def spy(t, fn):
        nonlocal calls
        calls += 1
        assert calls <= 4 * steps, "a definition was translated more than once"
        return real(t, fn)

    monkeypatch.setattr(morphisms, "map_consts", spy)
    node = translate(lib, lib.morphisms[0], Const(defs[-1].name))
    for _ in range(steps):  # add x x, with both x the one shared image
        assert node.fn.fn == ADD and node.fn.arg is node.arg
        node = node.arg
    assert node == ZERO


def test_an_image_that_cannot_be_made_fails_only_where_it_is_used():
    loop = _i("loopy", "loop")
    lib = _extension(
        "loopy",
        (
            Declaration(loop, tp=SET, definiens=apps(OP, Const(loop), E),
                        meta=Metadata(kind="definition")),
            Declaration(_i("loopy", "mystery"), tp=SET, meta=Metadata(kind="constant")),
            Declaration(_i("loopy", "uses"), tp=SET, definiens=Const(_i("loopy", "mystery")),
                        meta=Metadata(kind="definition")),
        ),
    )
    m = lib.morphisms[0]
    assert translate(lib, m, apps(OP, E, E)) == apps(ADD, ZERO, ZERO)
    with pytest.raises(UnknownIdent, match="loop"):
        translate(lib, m, Const(loop))
    for name in ("mystery", "uses"):
        with pytest.raises(UnassignedConstant, match="mystery"):
            translate(lib, m, Const(_i("loopy", name)))


def test_identity_law():
    rng = random.Random(7001)
    ident = identity_morphism(ALGEBRA, theory_ident(NS, "monoid"))
    for _ in range(200):
        t = gen_monoid_term(rng, 4)
        assert translate(ALGEBRA, ident, t) == t


def test_translate_commutes_with_substitute():
    rng = random.Random(7002)
    for _ in range(200):
        t = gen_monoid_term(rng, 3, free=1)
        s = gen_monoid_term(rng, 2)
        lhs = translate(ALGEBRA, TO_INT, substitute(t, 0, s))
        rhs = substitute(
            translate(ALGEBRA, TO_INT, t), 0, translate(ALGEBRA, TO_INT, s)
        )
        assert lhs == rhs


def test_check_morphism_passes_fixture():
    report = check_morphism(ALGEBRA, TO_INT)
    assert report.ok
    assert {r.subject for r in report.results} == {_i("monoid", "e"), _i("monoid", "op")}


def test_check_morphism_identity():
    ident = identity_morphism(ALGEBRA, theory_ident(NS, "monoid"))
    assert check_morphism(ALGEBRA, ident).ok


def test_check_morphism_flags_exactly_the_bad_assignment():
    bad = Morphism(
        _i("morphs", "broken"),
        theory_ident(NS, "monoid"),
        theory_ident(NS, "integers"),
        ((_i("monoid", "e"), ZERO), (_i("monoid", "op"), NEG)),
    )
    report = check_morphism(ALGEBRA, bad)
    assert not report.ok
    assert [r.subject for r in report.failures] == [_i("monoid", "op")]


def test_check_morphism_collects_check_errors_only(monkeypatch):
    def failing(exc):
        def check_stub(*args, **kwargs):
            raise exc

        return check_stub

    monkeypatch.setattr(morphisms, "check", failing(Mismatch("planted")))
    report = check_morphism(ALGEBRA, TO_INT)
    assert [(r.subject, r.message) for r in report.failures] == [
        (_i("monoid", "e"), "Mismatch: planted"),
        (_i("monoid", "op"), "Mismatch: planted"),
    ]
    monkeypatch.setattr(morphisms, "check", failing(TypeError("a bug")))
    with pytest.raises(TypeError, match="a bug"):
        check_morphism(ALGEBRA, TO_INT)


def test_check_morphism_reports_gap():
    gappy = Morphism(
        _i("morphs", "gappy"),
        theory_ident(NS, "monoid"),
        theory_ident(NS, "integers"),
        ((_i("monoid", "e"), ZERO),),
    )
    report = check_morphism(ALGEBRA, gappy)
    assert not report.ok
    (gap,) = report.failures
    assert gap.subject == _i("monoid", "op")
    assert "UnassignedConstant" in gap.message


def test_theorem_statements_translate_and_check():
    from proofport.kernel import TypeKind

    for d in ALGEBRA.find_theory(theory_ident(NS, "monoid")).decls:
        if d.meta.kind not in ("axiom", "theorem"):
            continue
        translated = translate(ALGEBRA, TO_INT, d.tp)
        # a statement's translation is again a wellformed statement type
        check(ALGEBRA, Context(), translated, TypeKind())


def test_typing_preservation_on_generated_terms():
    rng = random.Random(7003)
    for _ in range(100):
        t = gen_monoid_term(rng, 3)
        check(ALGEBRA, Context(), t, SET)
        translated = translate(ALGEBRA, TO_INT, t)
        check(ALGEBRA, Context(), translated, SET)


def test_install_morphism_fixture():
    installed = install_morphism(ALGEBRA, TO_INT)
    assert installed.name == theory_ident(NS, "toInt")
    assert installed.includes == (theory_ident(NS, "integers"),)
    assert [d.name.name for d in installed.decls] == ["toInt/ee", "toInt/ee_refl"]
    by_name = {d.name.name: d for d in installed.decls}
    # hand-derived translated statements
    assert by_name["toInt/ee"].tp == Apply(DED, apps(EQ, apps(ADD, ZERO, ZERO), ZERO))
    assert by_name["toInt/ee_refl"].tp == Apply(
        DED, apps(EQ, apps(ADD, ZERO, ZERO), apps(ADD, ZERO, ZERO))
    )
    assert by_name["toInt/ee"].proof == DependsOn(
        (_i("monoid", "ee"), _i("morphs", "toInt"))
    )


def test_install_morphism_checks():
    installed = install_morphism(ALGEBRA, TO_INT)
    lib = algebra_library(extra_theories=(installed,), morphisms=(TO_INT,))
    report = check_theory(lib, installed.name)
    assert report.ok, report.failures


def test_install_refuses_broken_morphism():
    bad = Morphism(
        _i("morphs", "broken"),
        theory_ident(NS, "monoid"),
        theory_ident(NS, "integers"),
        ((_i("monoid", "e"), ZERO), (_i("monoid", "op"), NEG)),
    )
    with pytest.raises(Mismatch):
        install_morphism(ALGEBRA, bad)


def test_install_no_theorems_yields_plain_extension():
    m = Morphism(
        _i("morphs", "intId"),
        theory_ident(NS, "integers"),
        theory_ident(NS, "integers"),
        (
            (_i("integers", "zero"), ZERO),
            (_i("integers", "add"), ADD),
            (_i("integers", "neg"), NEG),
        ),
    )
    installed = install_morphism(ALGEBRA, m)
    assert installed.decls == ()
    assert installed.includes == (theory_ident(NS, "integers"),)


def test_composition_law():
    rng = random.Random(7004)
    double = Theory(
        theory_ident(NS, "doubled"),
        meta_theory=FOL_SOFT,
        decls=(
            Declaration(_i("doubled", "base"), tp=SET, meta=Metadata(kind="constant")),
            Declaration(_i("doubled", "join"), tp=SET2, meta=Metadata(kind="constant")),
        ),
    )
    lib = algebra_library(extra_theories=(double,))
    m1 = TO_INT
    m2 = Morphism(
        _i("morphs", "intToDouble"),
        theory_ident(NS, "integers"),
        theory_ident(NS, "doubled"),
        (
            (_i("integers", "zero"), Const(_i("doubled", "base"))),
            (_i("integers", "add"), Const(_i("doubled", "join"))),
            (_i("integers", "neg"), Lambda("x", SET, Var(0))),
        ),
    )
    composed = compose(lib, m2, m1)
    assert composed.source == m1.source and composed.target == m2.target
    for _ in range(200):
        t = gen_monoid_term(rng, 3, free=1)
        assert translate(lib, m2, translate(lib, m1, t)) == translate(lib, composed, t)


def test_compose_rejects_mismatched_boundary():
    with pytest.raises(Mismatch):
        compose(ALGEBRA, TO_INT, TO_INT)
