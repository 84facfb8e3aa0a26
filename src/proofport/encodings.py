"""Built-in logic encodings as kernel theories.

Three meta-theories cover the representation strategies the toolchain
supports:

* holChurch, a Church-style simply typed higher-order logic: every
  object-level type is a term of `tp`, terms live in the dependent
  family `tm`, and application/abstraction record their types.
* dttCurry, a Curry-style dependent type theory: one type `expr` of all
  object terms, soft typing through the judgment `of`, and the
  refinement forms to carve `tmOf A` out of `expr`.
* folSoft, untyped first-order set theory with propositions, membership
  and a set quantifier; a second-order schema is an axiom under one Pi
  per predicate variable.

All constructors return freshly built immutable theories under the
`lib://logics` namespace. `logic_library()` bundles the three for
registration as a dependency of a library; `LOGICS` is the one such
bundle that the readers attach to what they read.
"""

from __future__ import annotations

from .errors import EmptyCorpus
from .kernel import (
    Apply,
    Const,
    Declaration,
    Ident,
    Lambda,
    Library,
    Metadata,
    Pi,
    SubIn,
    SubOut,
    SubType,
    Term,
    Theory,
    TypeKind,
    Var,
    apps,
    fn_type,
    theory_ident,
)

LOGIC_NS = "lib://logics"

HOL_CHURCH = theory_ident(LOGIC_NS, "holChurch")
DTT_CURRY = theory_ident(LOGIC_NS, "dttCurry")
FOL_SOFT = theory_ident(LOGIC_NS, "folSoft")


def hol_ident(name: str) -> Ident:
    return Ident(LOGIC_NS, "holChurch", name)


def dtt_ident(name: str) -> Ident:
    return Ident(LOGIC_NS, "dttCurry", name)


def fol_ident(name: str) -> Ident:
    return Ident(LOGIC_NS, "folSoft", name)


def _decl(ident: Ident, tp: Term, kind: str = "constant") -> Declaration:
    return Declaration(ident, tp=tp, meta=Metadata(kind=kind))


def hol_church() -> Theory:
    """Church-style HOL: typed terms, minimal natural-deduction rules."""
    tp = Const(hol_ident("tp"))
    tm = Const(hol_ident("tm"))
    bool_ = Const(hol_ident("bool'"))
    arrow = Const(hol_ident("arrow"))
    lam = Const(hol_ident("lam"))
    app = Const(hol_ident("app"))
    forall = Const(hol_ident("forall"))
    impl = Const(hol_ident("impl"))
    eq = Const(hol_ident("eq"))
    ded = Const(hol_ident("ded"))

    def TM(t: Term) -> Term:
        return Apply(tm, t)

    def DED(t: Term) -> Term:
        return Apply(ded, t)

    tmb = TM(bool_)

    decls = (
        _decl(hol_ident("tp"), TypeKind(), "type"),
        _decl(hol_ident("tm"), fn_type(tp, TypeKind()), "type"),
        _decl(hol_ident("bool'"), tp),
        _decl(hol_ident("arrow"), fn_type(tp, fn_type(tp, tp))),
        _decl(
            hol_ident("lam"),
            Pi("A", tp, Pi("B", tp,
                Pi("f", Pi("x", TM(Var(1)), TM(Var(1))),
                   TM(apps(arrow, Var(2), Var(1)))))),
        ),
        _decl(
            hol_ident("app"),
            Pi("A", tp, Pi("B", tp,
                Pi("f", TM(apps(arrow, Var(1), Var(0))),
                   Pi("x", TM(Var(2)), TM(Var(2)))))),
        ),
        _decl(
            hol_ident("forall"),
            Pi("A", tp, Pi("p", Pi("x", TM(Var(0)), tmb), tmb)),
        ),
        _decl(hol_ident("impl"), fn_type(tmb, fn_type(tmb, tmb))),
        _decl(
            hol_ident("eq"),
            Pi("A", tp, Pi("x", TM(Var(0)), Pi("y", TM(Var(1)), tmb))),
        ),
        _decl(hol_ident("ded"), fn_type(tmb, TypeKind()), "type"),
        _decl(
            hol_ident("implI"),
            Pi("p", tmb, Pi("q", tmb,
                Pi("h", Pi("x", DED(Var(1)), DED(Var(1))),
                   DED(apps(impl, Var(2), Var(1)))))),
        ),
        _decl(
            hol_ident("implE"),
            Pi("p", tmb, Pi("q", tmb,
                Pi("h", DED(apps(impl, Var(1), Var(0))),
                   Pi("x", DED(Var(2)), DED(Var(2)))))),
        ),
        _decl(
            hol_ident("forallI"),
            Pi("A", tp, Pi("F", Pi("x", TM(Var(0)), tmb),
                Pi("h", Pi("x", TM(Var(1)), DED(Apply(Var(1), Var(0)))),
                   DED(apps(forall, Var(2), Var(1)))))),
        ),
        _decl(
            hol_ident("forallE"),
            Pi("A", tp, Pi("F", Pi("x", TM(Var(0)), tmb),
                Pi("h", DED(apps(forall, Var(1), Var(0))),
                   Pi("x", TM(Var(2)), DED(Apply(Var(2), Var(0))))))),
        ),
        _decl(
            hol_ident("beta"),
            Pi("A", tp, Pi("B", tp,
                Pi("F", Pi("x", TM(Var(1)), TM(Var(1))),
                   Pi("x", TM(Var(2)),
                      DED(apps(
                          eq, Var(2),
                          apps(app, Var(3), Var(2),
                               apps(lam, Var(3), Var(2), Var(1)), Var(0)),
                          Apply(Var(1), Var(0)))))))),
        ),
    )
    return Theory(HOL_CHURCH, decls=decls)


def dtt_curry() -> Theory:
    """Curry-style dependent type theory with soft typing via refinement."""
    expr = Const(dtt_ident("expr"))
    of = Const(dtt_ident("of"))
    app = Const(dtt_ident("app'"))
    lam = Const(dtt_ident("lam'"))
    pi = Const(dtt_ident("pi'"))

    def OF(e: Term, a: Term) -> Term:
        return apps(of, e, a)

    ee = fn_type(expr, expr)

    decls = (
        _decl(dtt_ident("expr"), TypeKind(), "type"),
        _decl(dtt_ident("of"), fn_type(expr, fn_type(expr, TypeKind())), "type"),
        _decl(dtt_ident("app'"), fn_type(expr, fn_type(expr, expr))),
        _decl(dtt_ident("lam'"), fn_type(expr, fn_type(ee, expr))),
        _decl(dtt_ident("pi'"), fn_type(expr, fn_type(ee, expr))),
        _decl(
            dtt_ident("of_app"),
            Pi("A", expr, Pi("B", ee, Pi("f", expr, Pi("a", expr,
                Pi("hf", OF(Var(1), apps(pi, Var(3), Var(2))),
                   Pi("ha", OF(Var(1), Var(4)),
                      OF(apps(app, Var(3), Var(2)), Apply(Var(4), Var(2))))))))),
        ),
        _decl(
            dtt_ident("of_lam"),
            Pi("A", expr, Pi("B", ee, Pi("F", ee,
                Pi("h", Pi("x", expr,
                          Pi("hx", OF(Var(0), Var(3)),
                             OF(Apply(Var(2), Var(1)), Apply(Var(3), Var(1))))),
                   OF(apps(lam, Var(3), Var(1)), apps(pi, Var(3), Var(2))))))),
        ),
        Declaration(
            dtt_ident("tmOf"),
            tp=fn_type(expr, TypeKind()),
            definiens=Lambda(
                "A", expr, SubType(expr, Lambda("e", expr, OF(Var(0), Var(1))))
            ),
            meta=Metadata(kind="definition"),
        ),
    )
    return Theory(DTT_CURRY, decls=decls)


def fol_soft() -> Theory:
    """Soft untyped FOL over sets, with rules for impl' and forallSet."""
    set_ = Const(fol_ident("set"))
    prop = Const(fol_ident("prop"))
    ded = Const(fol_ident("ded"))
    impl = Const(fol_ident("impl'"))
    forall = Const(fol_ident("forallSet"))

    def DED(t: Term) -> Term:
        return Apply(ded, t)

    pp = fn_type(prop, fn_type(prop, prop))
    sp = fn_type(set_, prop)

    decls = (
        _decl(fol_ident("set"), TypeKind(), "type"),
        _decl(fol_ident("prop"), TypeKind(), "type"),
        _decl(fol_ident("ded"), fn_type(prop, TypeKind()), "type"),
        _decl(fol_ident("in'"), fn_type(set_, fn_type(set_, prop))),
        _decl(fol_ident("eq'"), fn_type(set_, fn_type(set_, prop))),
        _decl(fol_ident("and'"), pp),
        _decl(fol_ident("or'"), pp),
        _decl(fol_ident("not'"), fn_type(prop, prop)),
        _decl(fol_ident("impl'"), pp),
        _decl(fol_ident("forallSet"), fn_type(sp, prop)),
        _decl(
            fol_ident("implI'"),
            Pi("p", prop, Pi("q", prop,
                Pi("h", Pi("x", DED(Var(1)), DED(Var(1))),
                   DED(apps(impl, Var(2), Var(1)))))),
        ),
        _decl(
            fol_ident("implE'"),
            Pi("p", prop, Pi("q", prop,
                Pi("h", DED(apps(impl, Var(1), Var(0))),
                   Pi("x", DED(Var(2)), DED(Var(2)))))),
        ),
        _decl(
            fol_ident("forallSetI'"),
            Pi("P", sp,
               Pi("h", Pi("x", set_, DED(Apply(Var(1), Var(0)))),
                  DED(Apply(forall, Var(1))))),
        ),
        _decl(
            fol_ident("forallSetE'"),
            Pi("P", sp,
               Pi("h", DED(Apply(forall, Var(0))),
                  Pi("x", set_, DED(Apply(Var(2), Var(0)))))),
        ),
    )
    return Theory(FOL_SOFT, decls=decls)


def logic_library() -> Library:
    """All built-in encodings in one library."""
    return Library(LOGIC_NS, (hol_church(), dtt_curry(), fol_soft()))


# Built once per process and shared: a Library is immutable, and a check
# keeps its memo on the library it checks, never on a dependency.
LOGICS = logic_library()


def _node_count(t: Term) -> int:
    """Term nodes with application spines transparent."""
    match t:
        case Apply(f, a):
            return _node_count(f) + _node_count(a)
        case Lambda(_, d, b) | Pi(_, d, b):
            return 1 + _node_count(d) + _node_count(b)
        case SubType(b, p):
            return 1 + _node_count(b) + _node_count(p)
        case SubIn(e, w):
            return 1 + _node_count(e) + _node_count(w)
        case SubOut(e):
            return 1 + _node_count(e)
        case _:
            return 1


def _library_size(lib: Library) -> int:
    return sum(
        _node_count(d.definiens)
        for th in lib.theories
        for d in th.decls
        if d.definiens is not None
    )


def church_curry_size_ratio(lib_church: Library, lib_curry: Library) -> Fraction:
    """Size of the Church export over the Curry export of one corpus.

    Counts definiens nodes; the fully annotated Church encoding is
    strictly larger as soon as the corpus applies anything.
    """
    from fractions import Fraction  # here, so that no command loads it at start-up

    church = _library_size(lib_church)
    curry = _library_size(lib_curry)
    if church == 0 or curry == 0:
        raise EmptyCorpus("size ratio needs a nonempty dual-encoded corpus")
    return Fraction(church, curry)
