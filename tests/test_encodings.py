"""The built-in logic encodings: well-formedness, inference, sizes."""

import random

import pytest

from proofport.elaboration import Pattern, PatternInstance, elaborate_pattern
from proofport.encodings import (
    DTT_CURRY,
    FOL_SOFT,
    HOL_CHURCH,
    LOGIC_NS,
    church_curry_size_ratio,
    dtt_curry,
    dtt_ident,
    fol_ident,
    fol_soft,
    hol_church,
    hol_ident,
    logic_library,
)
from proofport.errors import EmptyCorpus, Mismatch
from proofport.kernel import (
    Apply,
    Const,
    Context,
    Declaration,
    Ident,
    Lambda,
    Library,
    Metadata,
    Pi,
    ProofTerm,
    SubIn,
    SubOut,
    Term,
    Theory,
    TypeKind,
    Var,
    apps,
    check,
    check_theory,
    constants_of,
    equal,
    fn_type,
    infer,
    theory_ident,
)

LOGICS = logic_library()

TP = Const(hol_ident("tp"))
TM = Const(hol_ident("tm"))
BOOL = Const(hol_ident("bool'"))
ARROW = Const(hol_ident("arrow"))
LAM = Const(hol_ident("lam"))
APP = Const(hol_ident("app"))
FORALL = Const(hol_ident("forall"))
IMPL = Const(hol_ident("impl"))
EQ = Const(hol_ident("eq"))
DED = Const(hol_ident("ded"))
IMPLI = Const(hol_ident("implI"))
FORALLI = Const(hol_ident("forallI"))

EXPR = Const(dtt_ident("expr"))
OF = Const(dtt_ident("of"))
TMOF = Const(dtt_ident("tmOf"))

SET = Const(fol_ident("set"))
PROP = Const(fol_ident("prop"))
DEDF = Const(fol_ident("ded"))
IMPLF = Const(fol_ident("impl'"))
FORALLSET = Const(fol_ident("forallSet"))
IMPLIF = Const(fol_ident("implI'"))


def tm(t: Term) -> Term:
    return Apply(TM, t)


def ded(t: Term) -> Term:
    return Apply(DED, t)


@pytest.mark.parametrize("ident", [HOL_CHURCH, DTT_CURRY, FOL_SOFT], ids=lambda i: i.module)
def test_encoding_theories_check(ident):
    report = check_theory(LOGICS, ident)
    assert report.ok, report.failures


@pytest.mark.parametrize("build", [hol_church, dtt_curry, fol_soft])
def test_encoding_theories_are_closed(build):
    th = build()
    own = {d.name for d in th.decls}
    for d in th.decls:
        for t in (d.tp, d.definiens):
            if t is None:
                continue
            for c in constants_of(t):
                assert c in own, f"{d.name} references foreign constant {c}"


def test_identity_application_infers():
    ctx = Context().extend("c", tm(BOOL))
    ident_fn = apps(LAM, BOOL, BOOL, Lambda("x", tm(BOOL), Var(0)))
    t = apps(APP, BOOL, BOOL, ident_fn, Var(0))
    assert equal(LOGICS, ctx, infer(LOGICS, ctx, t), tm(BOOL))


def identity_theorem() -> tuple[Term, Term]:
    """The statement `ded (forall bool' (λp. impl p p))` and its proof."""
    body = Lambda("p", tm(BOOL), apps(IMPL, Var(0), Var(0)))
    statement = ded(apps(FORALL, BOOL, body))
    proof = apps(
        FORALLI,
        BOOL,
        body,
        Lambda(
            "p",
            tm(BOOL),
            apps(IMPLI, Var(0), Var(0), Lambda("h", ded(Var(0)), Var(0))),
        ),
    )
    return statement, proof


def test_hol_identity_theorem_checks():
    statement, proof = identity_theorem()
    check(LOGICS, Context(), proof, statement)


def test_hol_identity_theorem_as_declaration():
    statement, proof = identity_theorem()
    ns = "lib://user"
    th = Theory(
        theory_ident(ns, "id"),
        meta_theory=HOL_CHURCH,
        decls=(
            Declaration(
                Ident(ns, "id", "identity"),
                tp=statement,
                proof=ProofTerm(proof),
                meta=Metadata(kind="theorem"),
            ),
        ),
    )
    lib = Library(ns, (th,), deps=(LOGICS,))
    report = check_theory(lib, th.name)
    assert report.ok, report.failures


def test_hol_app_inference_on_random_simple_types():
    rng = random.Random(2020)

    def gen_obj_type(depth: int) -> Term:
        if depth == 0 or rng.random() < 0.4:
            return BOOL
        return apps(ARROW, gen_obj_type(depth - 1), gen_obj_type(depth - 1))

    for _ in range(100):
        a = gen_obj_type(2)
        b = gen_obj_type(2)
        ctx = Context().extend("f", tm(apps(ARROW, a, b))).extend("x", tm(a))
        got = infer(LOGICS, ctx, apps(APP, a, b, Var(1), Var(0)))
        assert equal(LOGICS, ctx, got, tm(b))


# ---------------------------------------------------------------------------
# dttCurry refinement typing


def _curry_user_lib() -> Library:
    ns = "lib://user"
    a = Ident(ns, "c", "A")
    c0 = Ident(ns, "c", "c0")
    pf = Ident(ns, "c", "pf")
    th = Theory(
        theory_ident(ns, "c"),
        meta_theory=DTT_CURRY,
        decls=(
            Declaration(a, tp=EXPR, meta=Metadata(kind="constant")),
            Declaration(c0, tp=EXPR, meta=Metadata(kind="constant")),
            Declaration(
                pf, tp=apps(OF, Const(c0), Const(a)), meta=Metadata(kind="constant")
            ),
            Declaration(
                Ident(ns, "c", "c"),
                tp=Apply(TMOF, Const(a)),
                definiens=SubIn(Const(c0), Const(pf)),
                meta=Metadata(kind="definition"),
            ),
        ),
    )
    return Library(ns, (th,), deps=(LOGICS,))


def test_curry_refined_constant_checks():
    lib = _curry_user_lib()
    report = check_theory(lib, theory_ident("lib://user", "c"))
    assert report.ok, report.failures


def test_curry_refined_constant_projects_to_expr():
    lib = _curry_user_lib()
    c = Const(Ident("lib://user", "c", "c"))
    got = infer(lib, Context(), SubOut(c))
    assert equal(lib, Context(), got, EXPR)


def test_curry_membership_requires_witnessed_term():
    lib = _curry_user_lib()
    a = Const(Ident("lib://user", "c", "A"))
    c0 = Const(Ident("lib://user", "c", "c0"))
    pf = Const(Ident("lib://user", "c", "pf"))
    check(lib, Context(), SubIn(c0, pf), Apply(TMOF, a))
    with pytest.raises(Mismatch):
        # wrong witness type: pf proves `of c0 A`, not `of A A`
        check(lib, Context(), SubIn(a, pf), Apply(TMOF, a))


# ---------------------------------------------------------------------------
# folSoft


def test_fol_separation_schema_closure_is_a_type():
    sp = fn_type(SET, PROP)
    body = Apply(
        DEDF,
        Apply(
            FORALLSET,
            Lambda(
                "x", SET, apps(IMPLF, Apply(Var(1), Var(0)), Apply(Var(1), Var(0)))
            ),
        ),
    )
    check(LOGICS, Context(), Pi("P", sp, body), TypeKind())


def test_fol_identity_implication_inhabited():
    ns = "lib://user"
    p = Ident(ns, "f", "p")
    proof = apps(
        IMPLIF, Const(p), Const(p), Lambda("h", Apply(DEDF, Const(p)), Var(0))
    )
    th = Theory(
        theory_ident(ns, "f"),
        meta_theory=FOL_SOFT,
        decls=(
            Declaration(p, tp=PROP, meta=Metadata(kind="constant")),
            Declaration(
                Ident(ns, "f", "triv"),
                tp=Apply(DEDF, apps(IMPLF, Const(p), Const(p))),
                proof=ProofTerm(proof),
                meta=Metadata(kind="theorem"),
            ),
        ),
    )
    lib = Library(ns, (th,), deps=(LOGICS,))
    report = check_theory(lib, th.name)
    assert report.ok, report.failures


# ---------------------------------------------------------------------------
# typedef pattern


def typedef_pattern() -> Pattern:
    """HOL-style type definition over holChurch: from a type `A : tp` and a
    predicate `P : tm A -> tm bool'`, a type `t`, a representation
    `rep : tm t -> tm A` and an axiom that every representative satisfies P."""

    def pid(name: str) -> Ident:
        return Ident("lib://patterns", "hol", name)

    t, rep = Const(pid("t")), Const(pid("rep"))
    params = Context().extend("A", TP).extend("P", Pi("x", tm(Var(0)), tm(BOOL)))
    body = (
        Declaration(pid("t"), tp=TP, meta=Metadata(kind="constant")),
        Declaration(pid("rep"), tp=fn_type(tm(t), tm(Var(1))), meta=Metadata(kind="constant")),
        Declaration(pid("ax"), tp=Pi("x", tm(t), ded(Apply(Var(1), Apply(rep, Var(0))))),
                    meta=Metadata(kind="axiom")),
    )
    return Pattern(pid("typedef"), params, body)


def test_typedef_pattern_elaborates_and_checks():
    ns = "lib://user"
    b = Ident(ns, "t", "b")
    pat = typedef_pattern()
    pred = Lambda("x", tm(Const(b)), apps(EQ, Const(b), Var(0), Var(0)))
    inst = PatternInstance(Ident(ns, "t", "selfeq"), pat.name, (Const(b), pred))
    base = Theory(
        theory_ident(ns, "t"),
        meta_theory=HOL_CHURCH,
        decls=(Declaration(b, tp=TP, meta=Metadata(kind="constant")),),
    )
    lib = Library(ns, (base,), deps=(LOGICS,))
    decls = elaborate_pattern(lib, inst, {pat.name: pat})
    assert [d.name.name for d in decls] == ["selfeq/t", "selfeq/rep", "selfeq/ax"]
    extended = Theory(base.name, meta_theory=HOL_CHURCH, decls=base.decls + tuple(decls))
    lib2 = Library(ns, (extended,), deps=(LOGICS,))
    report = check_theory(lib2, base.name)
    assert report.ok, report.failures


# ---------------------------------------------------------------------------
# size ratio


def _defs_library(ns: str, module: str, definientia: dict[str, Term]) -> Library:
    decls = [
        Declaration(Ident(ns, module, "h"), tp=TypeKind(), meta=Metadata(kind="type"))
    ]
    for name, definiens in definientia.items():
        decls.append(
            Declaration(
                Ident(ns, module, name),
                tp=Const(Ident(ns, module, "h")),
                definiens=definiens,
                meta=Metadata(kind="definition"),
            )
        )
    return Library(ns, (Theory(theory_ident(ns, module), decls=tuple(decls)),))


def test_size_ratio_empty_corpus():
    with pytest.raises(EmptyCorpus):
        church_curry_size_ratio(
            Library("lib://a"), Library("lib://b")
        )


def test_size_ratio_single_application():
    f = Const(Ident("lib://u", "m", "f"))
    a = Const(Ident("lib://u", "m", "a"))
    church = _defs_library(
        "lib://u", "m", {"d": apps(APP, BOOL, BOOL, f, a)}
    )
    curry = _defs_library(
        "lib://u", "m", {"d": apps(Const(dtt_ident("app'")), f, a)}
    )
    from fractions import Fraction

    assert church_curry_size_ratio(church, curry) == Fraction(5, 3)


def test_size_ratio_exceeds_one_with_applications():
    rng = random.Random(2121)
    f = Const(Ident("lib://u", "m", "f"))
    a = Const(Ident("lib://u", "m", "a"))
    for _ in range(20):
        napps = rng.randint(1, 6)
        church_def: Term = f
        curry_def: Term = f
        for _ in range(napps):
            church_def = apps(APP, BOOL, BOOL, church_def, a)
            curry_def = apps(Const(dtt_ident("app'")), curry_def, a)
        ratio = church_curry_size_ratio(
            _defs_library("lib://u", "m", {"d": church_def}),
            _defs_library("lib://u", "m", {"d": curry_def}),
        )
        assert ratio > 1
