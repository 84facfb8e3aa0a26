"""Pattern elaboration."""

import random

import pytest

import named_terms as nt
from generators import ARG_TYPES, BASE_LIB, DEFAULT_CONSTS, NAT, NS, O, gen_scoped, gen_term
from proofport.elaboration import (
    Pattern,
    PatternInstance,
    elaborate_pattern,
)
from proofport.errors import ArityMismatch, Mismatch, UnknownIdent
from proofport.kernel import (
    Apply,
    Const,
    Context,
    Declaration,
    Ident,
    Library,
    Metadata,
    Pi,
    Theory,
    TypeKind,
    Var,
    check_theory,
    fn_type,
    substitute,
    theory_ident,
)

EMPTY = Library("lib://empty")


def _pid(name: str) -> Ident:
    return Ident("lib://patterns", "pats", name)


def _logic_library() -> Library:
    """BASE_LIB plus a prop/ded layer so axioms have somewhere to live."""
    ns = NS
    li = theory_ident(ns, "logic")

    def d(name, **kw):
        return Declaration(Ident(ns, "logic", name), **kw)

    prop = Const(Ident(ns, "logic", "prop"))
    decls = (
        d("prop", tp=TypeKind(), meta=Metadata(kind="type")),
        d("ded", tp=fn_type(prop, TypeKind()), meta=Metadata(kind="type")),
        d("even", tp=fn_type(NAT, prop), meta=Metadata(kind="constant")),
    )
    th = Theory(li, includes=(theory_ident(ns, "base"),), decls=decls)
    return Library(ns, BASE_LIB.theories + (th,))


LOGIC_LIB = _logic_library()
PROP = Const(Ident(NS, "logic", "prop"))
DED = Const(Ident(NS, "logic", "ded"))
EVEN = Const(Ident(NS, "logic", "even"))


def test_empty_params_pattern():
    tmpl = Declaration(_pid("c"), tp=O, meta=Metadata(kind="constant"))
    pat = Pattern(_pid("trivial"), Context(), (tmpl,))
    inst = PatternInstance(Ident(NS, "base", "here"), pat.name, ())
    (decl,) = elaborate_pattern(BASE_LIB, inst, {pat.name: pat})
    assert decl.name == Ident(NS, "base", "here/c")
    assert decl.tp == O
    assert decl.meta.kind == "patternInstance"
    assert decl.meta.origin == inst.name


def _typedef_pattern() -> Pattern:
    # params: A : type, P : A -> prop  (A = Var 1, P = Var 0 in the body)
    params = Context().extend("A", TypeKind()).extend("P", fn_type(Var(0), PROP))
    t = Declaration(_pid("t"), tp=TypeKind(), meta=Metadata(kind="type"))
    inj = Declaration(
        _pid("inj"), tp=fn_type(Var(1), Const(_pid("t"))), meta=Metadata(kind="constant")
    )
    # ax : {x : A} ded (P x)
    ax = Declaration(
        _pid("ax"),
        tp=Pi("x", Var(1), Apply(DED, Apply(Var(1), Var(0)))),
        meta=Metadata(kind="axiom"),
    )
    return Pattern(_pid("typedef"), params, (t, inj, ax))


def test_typedef_pattern_matches_hand_substitution():
    pat = _typedef_pattern()
    inst = PatternInstance(Ident(NS, "logic", "evens"), pat.name, (NAT, EVEN))
    decls = elaborate_pattern(LOGIC_LIB, inst, {pat.name: pat})
    t, inj, ax = decls
    t_ident = Ident(NS, "logic", "evens/t")
    assert t.name == t_ident and t.tp == TypeKind()
    assert inj.name == Ident(NS, "logic", "evens/inj")
    assert inj.tp == fn_type(NAT, Const(t_ident))
    assert ax.name == Ident(NS, "logic", "evens/ax")
    assert ax.tp == Pi("x", NAT, Apply(DED, Apply(EVEN, Var(0))))
    assert all(d.meta.kind == "patternInstance" for d in decls)
    assert all(d.meta.origin == inst.name for d in decls)


def test_elaborated_declarations_pass_theory_check():
    pat = _typedef_pattern()
    inst = PatternInstance(Ident(NS, "logic", "evens"), pat.name, (NAT, EVEN))
    decls = elaborate_pattern(LOGIC_LIB, inst, {pat.name: pat})
    logic = LOGIC_LIB.find_theory(theory_ident(NS, "logic"))
    extended = Theory(logic.name, includes=logic.includes, decls=logic.decls + tuple(decls))
    lib = Library(NS, BASE_LIB.theories + (extended,))
    report = check_theory(lib, logic.name)
    assert report.ok, report.failures


def test_pattern_arity_mismatch():
    pat = _typedef_pattern()
    inst = PatternInstance(Ident(NS, "logic", "evens"), pat.name, (NAT,))
    with pytest.raises(ArityMismatch):
        elaborate_pattern(LOGIC_LIB, inst, {pat.name: pat})


def test_pattern_ill_typed_argument():
    pat = _typedef_pattern()
    # P must map A to prop; the successor function does not
    inst = PatternInstance(
        Ident(NS, "logic", "evens"), pat.name, (NAT, Const(Ident(NS, "base", "succ")))
    )
    with pytest.raises(Mismatch):
        elaborate_pattern(LOGIC_LIB, inst, {pat.name: pat})


def test_unknown_pattern():
    inst = PatternInstance(Ident(NS, "base", "x"), _pid("nope"), ())
    with pytest.raises(UnknownIdent):
        elaborate_pattern(BASE_LIB, inst, {})


def test_duplicate_template_names_rejected():
    a = Declaration(_pid("c"), tp=O, meta=Metadata(kind="constant"))
    with pytest.raises(ValueError):
        Pattern(_pid("dup"), Context(), (a, a))


def _random_pattern_case(rng: random.Random):
    n = rng.randint(1, 3)
    params = Context()
    args = []
    for k in range(n):
        tp = rng.choice(ARG_TYPES)
        params = params.extend(f"p{k}", tp)
        args.append(gen_term(rng, [], tp))
    body = tuple(
        Declaration(
            _pid(f"d{j}"),
            tp=gen_scoped(rng, n, depth=3),
            meta=Metadata(kind="constant"),
        )
        for j in range(rng.randint(1, 3))
    )
    pat = Pattern(_pid("rand"), params, body)
    inst = PatternInstance(Ident(NS, "base", "i"), pat.name, tuple(args))
    return pat, inst


def test_elaboration_matches_independent_substitution():
    """Oracle: capture-avoiding named-variable substitution per template."""
    rng = random.Random(1313)
    for _ in range(100):
        pat, inst = _random_pattern_case(rng)
        n = len(inst.args)
        decls = elaborate_pattern(BASE_LIB, inst, {pat.name: pat})
        for tmpl, decl in zip(pat.body, decls):
            fresh = nt.fresh_source()
            env = [f"p{n - 1 - i}" for i in range(n)]
            expected = nt.from_debruijn(tmpl.tp, env, fresh)
            for k, arg in enumerate(inst.args):
                expected = nt.substitute(
                    expected, f"p{k}", nt.from_debruijn(arg, [], fresh), fresh
                )
            assert nt.alpha_equal(expected, nt.from_debruijn(decl.tp, [], fresh))


def test_elaboration_commutes_with_constant_renaming():
    """Renaming argument constants commutes with elaboration."""
    rng = random.Random(1414)
    # templates draw on one constant pool, arguments on a disjoint one,
    # so a renaming of the argument pool leaves templates untouched
    sigma_pairs = {
        Ident(NS, "base", "zero"): Ident(NS, "base", "one"),
        Ident(NS, "base", "one"): Ident(NS, "base", "zero"),
    }

    def sigma(t):
        from proofport.kernel import map_consts

        return map_consts(t, lambda c: Const(sigma_pairs[c]) if c in sigma_pairs else None)

    tmpl_consts = tuple(Ident(NS, "base", n) for n in ("succ", "plus", "tt", "neg"))
    for _ in range(60):
        n = rng.randint(1, 2)
        params = Context()
        args = []
        for k in range(n):
            params = params.extend(f"p{k}", NAT)
            args.append(gen_term(rng, [], NAT))
        body = (
            Declaration(
                _pid("d"),
                tp=gen_scoped(rng, n, depth=3, consts=tmpl_consts),
                meta=Metadata(kind="constant"),
            ),
        )
        pat = Pattern(_pid("ren"), params, body)
        base = PatternInstance(Ident(NS, "base", "i"), pat.name, tuple(args))
        renamed = PatternInstance(
            Ident(NS, "base", "i"), pat.name, tuple(sigma(a) for a in args)
        )
        reg = {pat.name: pat}
        left = [d.tp for d in elaborate_pattern(BASE_LIB, renamed, reg)]
        right = [sigma(d.tp) for d in elaborate_pattern(BASE_LIB, base, reg)]
        assert left == right

