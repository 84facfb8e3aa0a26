"""Kernel tests: substitution, reduction, equality, typing, theories.

Derived expectations come from independent oracles: a named-variable
substitutor (tests/named_terms.py) and a single-step head reducer
iterated to fixpoint, both defined apart from the kernel's machinery.
"""

import copy
import pickle
import random
import re
from pathlib import Path
from typing import Optional

import pytest

import named_terms as nt
from generators import (
    BASE_LIB,
    BASE_THEORY,
    NAT,
    NS,
    O,
    gen_dag_library,
    gen_library,
    gen_scoped,
    gen_signature,
    gen_term,
    gen_type,
    gen_typed_closed,
    mutate_hints,
)
from test_morphisms import ALGEBRA, TO_INT

from proofport import kernel, omdoc
from proofport.errors import (
    CheckError,
    Cycle,
    Mismatch,
    NotAFunction,
    NotTyped,
    ReductionDepthExceeded,
    SubtypeWitnessMissing,
    UnknownIdent,
)
from proofport.importers import import_toyhol, import_toyset, parse_toyhol, parse_toyset
from proofport.kernel import (
    Apply,
    Config,
    Const,
    Declaration,
    DependsOn,
    Ident,
    Lambda,
    Library,
    Metadata,
    Omitted,
    Pi,
    ProofTerm,
    Scope,
    SubIn,
    SubOut,
    SourceRef,
    SubType,
    Term,
    Terms,
    Theory,
    TypeKind,
    Var,
    apps,
    check,
    check_library,
    check_theory,
    constants_of,
    equal,
    flatten,
    fn_type,
    format_term,
    infer,
    map_consts,
    replace,
    shift,
    substitute,
    theory_ident,
    whnf,
)
from proofport.morphisms import Morphism, install_morphism

EMPTY = Library("lib://empty")
CTX = ()


def _i(name: str) -> Ident:
    return Ident(NS, "base", name)


ZERO = Const(_i("zero"))
SUCC = Const(_i("succ"))
TT = Const(_i("tt"))
ONE = Const(_i("one"))
TWICE = Const(_i("twice"))


# ---------------------------------------------------------------------------
# substitution


def test_substitute_identity_redex():
    assert substitute(Var(0), 0, ZERO) == ZERO


def test_substitute_shift_under_binder():
    t = Lambda("x", NAT, Var(1))
    assert substitute(t, 0, ZERO) == Lambda("x", NAT, ZERO)


def _check_against_named_oracle(t: Term, depth: int, s: Term, nfree: int) -> None:
    """Replay the substitution on named terms and compare alpha-equal."""
    env_t = [f"v{k}" for k in range(nfree)]
    env_s = [f"v{k}" if k < depth else f"v{k + 1}" for k in range(max(nfree - 1, 0))]
    fresh = nt.fresh_source()
    expected = nt.substitute(
        nt.from_debruijn(t, env_t, fresh), f"v{depth}", nt.from_debruijn(s, env_s, fresh), fresh
    )
    actual = nt.from_debruijn(substitute(t, depth, s), env_s, fresh)
    assert nt.alpha_equal(expected, actual), f"oracle disagrees for {t} [{depth} := {s}]"


def test_substitute_spec_apply_case_against_oracle():
    # the named-variable oracle fixes the expected final indices
    t = Apply(Var(0), Var(1))
    result = substitute(t, 0, Var(0))
    assert result == Apply(Var(0), Var(0))
    _check_against_named_oracle(t, 0, Var(0), nfree=2)


def test_substitute_matches_named_oracle_on_random_terms():
    rng = random.Random(101)
    for _ in range(200):
        nfree = rng.randint(1, 4)
        depth = rng.randrange(nfree)
        t = gen_scoped(rng, nfree)
        s = gen_scoped(rng, max(nfree - 1, 0))
        _check_against_named_oracle(t, depth, s, nfree)


# ---------------------------------------------------------------------------
# the shared traversal


def test_traversals_return_unchanged_terms_themselves():
    rng = random.Random(103)
    for _ in range(200):
        t = gen_scoped(rng, rng.randint(0, 3))
        assert map_consts(t, lambda c: None) is t
        closed = gen_scoped(rng, 0)
        assert shift(closed, 5) is closed
        assert substitute(closed, 0, gen_scoped(rng, rng.randint(0, 3))) is closed


def _fresh_copy(t: Term) -> Term:
    """`t` rebuilt with a new object for every node but TypeKind."""
    return kernel.rebuild(t, lambda n, k: Const(n.ident) if type(n) is Const else Var(n.index))


def _built(terms: Terms, t: Term) -> Term:
    """`t` built node by node through the builders of `terms`."""
    cls = type(t)
    if cls is Const:
        return terms.const(t.ident)
    if cls is Var:
        return terms.var(t.index)
    if cls is Apply:
        return terms.apps(_built(terms, t.fn), _built(terms, t.arg))
    hint = getattr(t, "hint", None)
    fields = t.__match_args__ if hint is None else t.__match_args__[1:]
    return terms.node(cls, hint, *(_built(terms, getattr(t, f)) for f in fields))


def test_terms_gives_equal_terms_with_equal_hints_one_node():
    rng = random.Random(109)
    terms = Terms()
    for _ in range(300):
        t = gen_scoped(rng, rng.randint(0, 3))
        shared = _built(terms, t)
        assert repr(shared) == repr(t)
        assert _built(terms, _fresh_copy(t)) is shared
        other = mutate_hints(rng, t)
        assert other == t
        assert (_built(terms, other) is shared) == (repr(other) == repr(t))


def test_terms_builders_give_one_node_per_term():
    terms = Terms()
    f, x = terms.named("lib://t?m?f"), terms.var(0)
    assert f is terms.const(Ident("lib://t", "m", "f")) and f == Const(f.ident)
    assert terms.apps(f, x, x) is terms.apps(terms.apps(f, x), x)
    assert terms.apps(f, x, x) == Apply(Apply(f, Var(0)), x)
    lam = terms.node(Lambda, "y", f, x)
    assert lam is terms.node(Lambda, "y", terms.const(f.ident), terms.var(0))
    assert lam == Lambda("y", Const(f.ident), Var(0))
    assert lam is not terms.node(Lambda, "z", f, x)
    kind = terms.node(TypeKind, None)
    assert kind is terms.node(TypeKind, None) and kind == TypeKind()
    out = terms.node(SubOut, None, f)
    assert out is terms.node(SubOut, None, terms.named("lib://t?m?f")) and out == SubOut(f)
    with pytest.raises(ValueError):
        terms.named("not an identifier")
    with pytest.raises(ValueError):
        terms.var(-1)


def test_terms_keeps_the_children_its_nodes_are_keyed_by():
    # children built elsewhere die with their last reference; were the
    # table not to hold them, their ids would be reused by the next pair
    terms = Terms()
    for i in range(2000):
        f, x = Const(Ident("lib://t", "m", f"f{i % 7}")), Var(i % 5)
        t = terms.apps(f, x)
        assert t.fn is f and t.arg is x
        del f, x, t


def test_shift_then_unshift_is_identity():
    rng = random.Random(107)
    for _ in range(200):
        nfree = rng.randint(0, 4)
        t = gen_scoped(rng, nfree)
        a, c = rng.randint(0, 3), rng.randint(0, nfree)
        assert shift(shift(t, a, c), -a, c) == t


def _ref_rebuild(t: Term, leaf, k: int = 0) -> Term:
    """A plain structural recursion that copies every node: the reference
    for the leaf functions of the kernel's traversal."""
    match t:
        case Var() | Const():
            return leaf(t, k)
        case Apply(f, a):
            return Apply(_ref_rebuild(f, leaf, k), _ref_rebuild(a, leaf, k))
        case Lambda(h, d, b):
            return Lambda(h, _ref_rebuild(d, leaf, k), _ref_rebuild(b, leaf, k + 1))
        case Pi(h, d, c):
            return Pi(h, _ref_rebuild(d, leaf, k), _ref_rebuild(c, leaf, k + 1))
        case SubType(b, p):
            return SubType(_ref_rebuild(b, leaf, k), _ref_rebuild(p, leaf, k))
        case SubIn(e, w):
            return SubIn(_ref_rebuild(e, leaf, k), _ref_rebuild(w, leaf, k))
        case SubOut(e):
            return SubOut(_ref_rebuild(e, leaf, k))
    return t


def _ref_shift(t: Term, by: int, cutoff: int = 0) -> Term:
    return _ref_rebuild(
        t, lambda n, k: Var(n.index + by) if isinstance(n, Var) and n.index >= k else n, cutoff
    )


def _ref_substitute(t: Term, depth: int, s: Term) -> Term:
    def leaf(n: Term, k: int) -> Term:
        if isinstance(n, Var) and n.index == k:
            return _ref_shift(s, k - depth)
        if isinstance(n, Var) and n.index > k:
            return Var(n.index - 1)
        return n

    return _ref_rebuild(t, leaf, depth)


def _ref_constants(t: Term) -> list[Ident]:
    out: list[Ident] = []

    def leaf(n: Term, k: int) -> Term:
        if isinstance(n, Const):
            out.append(n.ident)
        return n

    _ref_rebuild(t, leaf)
    return out


def _subterms(t: Term):
    """Every subterm occurrence of `t`; children are found by field."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        kids = (getattr(node, f) for f in node.__match_args__)
        stack.extend(v for v in kids if isinstance(v, Term))


def test_traversals_agree_with_a_reference_recursion():
    def same(a: Term, b: Term) -> bool:
        return a == b and repr(a) == repr(b)  # repr shows the hints == ignores

    def rename(c: Ident):
        return None if c.name == "zero" else Const(Ident(NS, "renamed", c.name))

    def rename_leaf(n: Term, k: int) -> Term:
        return (rename(n.ident) or n) if isinstance(n, Const) else n

    rng = random.Random(113)
    seen: set[type] = set()
    for _ in range(300):
        nfree = rng.randint(0, 3)
        t = mutate_hints(rng, gen_scoped(rng, nfree, depth=5))
        seen.update(type(node) for node in _subterms(t))
        by, cutoff = rng.randint(0, 3), rng.randint(0, nfree)
        assert same(shift(t, by, cutoff), _ref_shift(t, by, cutoff))
        s, depth = gen_scoped(rng, rng.randint(0, 2), depth=2), rng.randint(0, 2)
        assert same(substitute(t, depth, s), _ref_substitute(t, depth, s))
        assert same(map_consts(t, rename), _ref_rebuild(t, rename_leaf))
        assert constants_of(t) == _ref_constants(t)
    assert {Apply, Lambda, Pi, SubType, SubIn, SubOut, Var, Const, TypeKind} <= seen


def test_constants_of_commutes_with_renaming():
    def rename(c: Ident) -> Ident:
        # not injective, so repeats must survive the renaming
        return _i("zero") if c.name == "one" else Ident(NS, "renamed", c.name)

    rng = random.Random(109)
    for _ in range(200):
        t = gen_scoped(rng, rng.randint(0, 3))
        renamed = map_consts(t, lambda c: Const(rename(c)))
        assert constants_of(renamed) == [rename(c) for c in constants_of(t)]


def _ref_loose(t: Term) -> int:
    """One more than the largest free index of `t`, by plain recursion."""
    match t:
        case Var(k):
            return k + 1
        case Lambda(_, d, b) | Pi(_, d, b):
            return max(_ref_loose(d), _ref_loose(b) - 1)
        case Apply(x, y) | SubType(x, y) | SubIn(x, y):
            return max(_ref_loose(x), _ref_loose(y))
        case SubOut(e):
            return _ref_loose(e)
    return 0


def test_loose_range_agrees_with_a_reference_recursion():
    rng = random.Random(127)
    seen: set[type] = set()
    for _ in range(300):
        for node in _subterms(gen_scoped(rng, rng.randint(0, 3), depth=5)):
            seen.add(type(node))
            assert node.loose == _ref_loose(node), node
    assert {Apply, Lambda, Pi, SubType, SubIn, SubOut, Var, Const, TypeKind} <= seen


def _free_vars_at_or_above(t: Term, k: int) -> int:
    """How many Var occurrences of `t` are free and at least `k`, counted
    at the binder depth where each occurs."""
    hits = []

    def leaf(n: Term, j: int) -> Term:
        if isinstance(n, Var) and n.index >= j:
            hits.append(n)
        return n

    _ref_rebuild(t, leaf, k)
    return len(hits)


def test_shift_and_substitute_call_their_leaf_only_on_free_variables(monkeypatch):
    calls: list[Term] = []
    real = kernel.rebuild

    def counting(t, leaf, k=0, free_only=False):
        if leaf.__name__ == "counted":  # a recursive call
            return real(t, leaf, k, free_only)

        def counted(node, j):
            calls.append(node)
            return leaf(node, j)

        return real(t, counted, k, free_only)

    monkeypatch.setattr(kernel, "rebuild", counting)
    rng = random.Random(131)
    for _ in range(200):
        closed = gen_scoped(rng, 0, depth=5)
        del calls[:]
        assert shift(closed, 3) is closed
        assert substitute(closed, 0, gen_scoped(rng, 2)) is closed
        assert Pi("x", closed, shift(closed, 1)).cod is closed
        assert calls == []
        nfree = rng.randint(1, 3)
        t = gen_scoped(rng, nfree, depth=5)
        cutoff = rng.randint(0, nfree)
        del calls[:]
        assert shift(t, 2, cutoff) == _ref_shift(t, 2, cutoff)
        assert len(calls) == _free_vars_at_or_above(t, cutoff)
        del calls[:]
        s = gen_scoped(rng, 0, depth=2)  # closed, so it moves under binders unvisited
        assert substitute(t, 0, s) == _ref_substitute(t, 0, s)
        assert len(calls) == _free_vars_at_or_above(t, 0)


# ---------------------------------------------------------------------------
# weak head normalization


def head_step(lib, t):
    """Oracle: one leftmost head reduction, or None when head-stuck."""
    match t:
        case Apply(Lambda(_, _, b), a):
            return substitute(b, 0, a)
        case Apply(f, a):
            f2 = head_step(lib, f)
            return None if f2 is None else Apply(f2, a)
        case SubOut(SubIn(e, _)):
            return e
        case SubOut(e):
            e2 = head_step(lib, e)
            return None if e2 is None else SubOut(e2)
        case Const(c):
            d = lib.find_decl(c) if lib is not None else None
            if d is not None and d.definiens is not None:
                return d.definiens
            return None
        case _:
            return None


def whnf_fixpoint(lib, t, budget):
    steps = 0
    while True:
        nxt = head_step(lib, t)
        if nxt is None:
            return t
        t = nxt
        steps += 1
        if steps > budget:
            raise ReductionDepthExceeded(str(budget))


def test_whnf_beta_identity():
    assert whnf(EMPTY, Apply(Lambda("x", NAT, Var(0)), ZERO)) == ZERO


def test_whnf_leaves_an_applied_pi_stuck():
    # only a Lambda is a redex; `infer` rejects the head of Apply(Pi, a) with
    # NotAFunction, so no well-typed term reduces one
    stuck = Apply(Pi("x", NAT, NAT), ZERO)
    assert whnf(BASE_LIB, stuck) == stuck
    with pytest.raises(NotAFunction):
        infer(BASE_LIB, CTX, stuck)


def test_whnf_subtype_cancellation():
    assert whnf(EMPTY, SubOut(SubIn(ZERO, TT))) == ZERO


def test_whnf_unfolds_definiens_to_lambda():
    result = whnf(BASE_LIB, TWICE)
    assert isinstance(result, Lambda)
    assert result == BASE_LIB.find_decl(_i("twice")).definiens


def test_whnf_matches_fixpoint_oracle_on_random_signatures():
    rng = random.Random(202)
    cfg = Config(reduction_budget=500)
    for _ in range(100):
        lib = gen_signature(rng)
        consts = tuple(d.name for t in lib.theories for d in t.decls)
        for _ in range(5):
            t = gen_scoped(rng, 0, depth=4, consts=consts)
            try:
                got = whnf(lib, t, cfg)
            except ReductionDepthExceeded:
                with pytest.raises(ReductionDepthExceeded):
                    whnf_fixpoint(lib, t, cfg.reduction_budget)
                continue
            assert got == whnf_fixpoint(lib, t, cfg.reduction_budget)


def test_whnf_budget_exhaustion():
    omega = Lambda("x", NAT, Apply(Var(0), Var(0)))
    with pytest.raises(ReductionDepthExceeded):
        whnf(EMPTY, Apply(omega, omega), Config(reduction_budget=50))


# ---------------------------------------------------------------------------
# definitional equality


def test_equal_reflexive_on_random_terms():
    rng = random.Random(303)
    for _ in range(50):
        t = gen_scoped(rng, 0)
        assert equal(BASE_LIB, t, t)


def test_equal_eta():
    lam = Lambda("x", NAT, Apply(SUCC, Var(0)))
    for eta, expected in ((True, True), (False, False)):
        cfg = Config(eta_enabled=eta)
        assert equal(EMPTY, lam, SUCC, cfg) is expected
        assert equal(EMPTY, SUCC, lam, cfg) is expected
    # the expanded side may be a bound variable or sit behind a definiens
    under_x = Lambda("y", NAT, Apply(Var(1), Var(0)))
    assert equal(EMPTY, under_x, Var(0)) and equal(EMPTY, Var(0), under_x)
    twice_eta = Lambda("f", fn_type(NAT, NAT), Apply(TWICE, Var(0)))
    assert equal(BASE_LIB, TWICE, twice_eta) and equal(BASE_LIB, twice_eta, TWICE)
    # eta is tried only when the two heads differ; a wrong body stays unequal
    wrong = Lambda("x", NAT, Apply(SUCC, ZERO))
    assert not equal(EMPTY, wrong, SUCC) and not equal(EMPTY, SUCC, wrong)


class Hole(Term):
    """A term class that no kernel stage knows: one field, closed (`loose` 0)."""

    __match_args__ = _fields = ("var_id",)

    def __init__(self, var_id: int) -> None:
        object.__setattr__(self, "var_id", var_id)


def test_a_term_class_the_kernel_does_not_know_falls_through():
    hole = Hole(0)
    with pytest.raises(NotTyped, match=r"^cannot infer: Hole\(var_id=0\)$"):
        infer(BASE_LIB, CTX, hole)
    with pytest.raises(NotTyped, match=r"^cannot infer: Hole\(var_id=0\)$"):
        check(BASE_LIB, CTX, hole, NAT)
    with pytest.raises(NotTyped, match=r"^not a kind: Hole\(var_id=0\)$"):
        kernel.check_kind(BASE_LIB, CTX, hole)
    assert whnf(BASE_LIB, hole) is hole
    assert whnf(BASE_LIB, Apply(hole, ZERO)) == Apply(hole, ZERO)
    assert equal(BASE_LIB, hole, Hole(0))  # structurally equal
    for other in (Hole(1), ZERO, Var(0), TypeKind(), SubOut(hole), Apply(hole, ZERO)):
        assert not equal(BASE_LIB, hole, other)
        assert not equal(BASE_LIB, other, hole)
    lam = Lambda("x", NAT, Apply(SUCC, Var(0)))
    assert not equal(BASE_LIB, hole, lam) and not equal(BASE_LIB, lam, hole)


@pytest.mark.parametrize("budget", [0, 1])
def test_subout_of_subin_cancels_within_the_budget(budget):
    cfg = Config(reduction_budget=budget)
    cancel = SubOut(SubIn(ZERO, TT))
    if budget == 0:
        with pytest.raises(ReductionDepthExceeded, match="within 0 steps"):
            whnf(EMPTY, cancel, cfg)
    else:
        assert whnf(EMPTY, cancel, cfg) == ZERO
        assert equal(EMPTY, cancel, ZERO, cfg)
    # two steps each: a beta step or a second cancellation first
    for two in (SubOut(Apply(Lambda("x", NAT, SubIn(Var(0), TT)), ZERO)),
                SubOut(SubOut(SubIn(SubIn(ZERO, TT), TT)))):
        with pytest.raises(ReductionDepthExceeded):
            whnf(EMPTY, two, cfg)
        assert whnf(EMPTY, two, Config(reduction_budget=2)) == ZERO
    # a SubIn reduces only under SubOut and a Lambda only under an argument,
    # so these are stuck and cost no step
    for stuck in (Apply(SubIn(ZERO, TT), ONE), SubOut(Lambda("x", NAT, Var(0))),
                  Apply(SubOut(Lambda("x", NAT, Var(0))), ZERO), SubOut(ZERO)):
        assert whnf(EMPTY, stuck, cfg) == stuck


def test_equal_witness_irrelevance():
    a = SubIn(ZERO, TT)
    b = SubIn(ZERO, Apply(Const(_i("neg")), TT))
    assert equal(EMPTY, a, b)
    assert not equal(EMPTY, a, SubIn(ONE, TT))


def test_equal_unfolds_definitions():
    assert equal(BASE_LIB, ONE, Apply(SUCC, ZERO))
    assert not equal(BASE_LIB, ONE, ZERO)


def test_equal_ignores_hints():
    a = Lambda("x", NAT, Var(0))
    b = Lambda("completely_else", NAT, Var(0))
    assert a == b and hash(a) == hash(b)
    c, d = Pi("x", NAT, NAT), Pi("y", NAT, NAT)
    assert c == d and hash(c) == hash(d)
    assert equal(EMPTY, a, b)


# ---------------------------------------------------------------------------
# inference and checking


def test_infer_lambda_identity():
    some = Ident("lib://x", "m", "b")
    got = infer(EMPTY, CTX, Lambda("x", Const(some), Var(0)))
    assert got == Pi("x", Const(some), Const(some))


def test_infer_var_shifts_context_types():
    # under x : (nat -> nat), y : nat the variable x keeps its type
    ctx = (fn_type(NAT, NAT), NAT)
    assert infer(BASE_LIB, ctx, Var(1)) == fn_type(NAT, NAT)
    assert infer(BASE_LIB, ctx, Var(0)) == NAT
    with pytest.raises(NotTyped, match="^unbound variable index 2$"):
        infer(BASE_LIB, ctx, Var(2))


def test_infer_const_and_apply():
    assert infer(BASE_LIB, CTX, ZERO) == NAT
    assert infer(BASE_LIB, CTX, apps(Const(_i("plus")), ZERO, ONE)) == NAT


def test_infer_unknown_ident():
    with pytest.raises(UnknownIdent):
        infer(BASE_LIB, CTX, Const(Ident(NS, "base", "missing")))


def test_infer_typekind_has_no_type():
    with pytest.raises(NotTyped):
        infer(BASE_LIB, CTX, TypeKind())


def test_infer_subout():
    sub = SubType(NAT, Lambda("n", NAT, O))
    ctx = (sub,)
    assert infer(BASE_LIB, ctx, SubOut(Var(0))) == shift(NAT, 1)


def test_check_const_against_declared_type():
    check(BASE_LIB, CTX, ZERO, NAT)


def test_check_not_a_function():
    with pytest.raises(NotAFunction):
        check(BASE_LIB, CTX, Apply(TT, TT), NAT)


def test_check_subtype_introduction():
    sub = SubType(NAT, Lambda("n", NAT, O))
    check(BASE_LIB, CTX, SubIn(ZERO, TT), sub)
    with pytest.raises(Mismatch):
        check(BASE_LIB, CTX, SubIn(TT, TT), sub)


def test_check_witness_missing():
    sub = SubType(NAT, Lambda("n", NAT, O))
    with pytest.raises(SubtypeWitnessMissing):
        check(BASE_LIB, CTX, ZERO, sub)


def test_check_lambda_domain_mismatch():
    with pytest.raises(Mismatch):
        check(BASE_LIB, CTX, Lambda("x", O, Var(0)), fn_type(NAT, NAT))


def test_mismatch_qualifies_only_the_names_that_clash():
    # a second theory declares its own `nat` and a constant `n` of it
    nat2, n2 = Ident(NS, "other", "nat"), Ident(NS, "other", "n")
    other = Theory(theory_ident(NS, "other"), decls=(
        Declaration(nat2, tp=TypeKind(), meta=Metadata(kind="type")),
        Declaration(n2, tp=Const(nat2), meta=Metadata(kind="constant")),
    ))
    lib = Library(NS, BASE_LIB.theories + (other,))
    nat = _i("nat")
    for t, tp, message in (
        (Const(n2), NAT, f"expected {nat}, got {nat2}"),
        (Lambda("x", Const(nat2), Var(0)), fn_type(NAT, NAT), f"lambda domain {nat2} vs expected {nat}"),
        (TT, NAT, "expected nat, got o"),
        (Lambda("x", O, Var(0)), fn_type(NAT, NAT), "lambda domain o vs expected nat"),
    ):
        with pytest.raises(Mismatch) as exc:
            check(lib, CTX, t, tp)
        assert str(exc.value) == message


def test_infer_matches_generator_types():
    rng = random.Random(404)
    for _ in range(150):
        t, tp = gen_typed_closed(rng)
        assert equal(BASE_LIB, infer(BASE_LIB, CTX, t), tp)
        check(BASE_LIB, CTX, t, tp)


# ---------------------------------------------------------------------------
# kernel invariants


def test_substitution_lemma():
    rng = random.Random(505)
    for _ in range(120):
        a = gen_type(rng)
        b = gen_type(rng)
        t = gen_term(rng, [a], b)
        s = gen_term(rng, [], a)
        # closed simple types ignore the substitution on the type side
        check(BASE_LIB, CTX, substitute(t, 0, s), b)


def test_subject_reduction():
    rng = random.Random(606)
    for _ in range(120):
        t, tp = gen_typed_closed(rng)
        reduced = whnf(BASE_LIB, t)
        assert equal(BASE_LIB, infer(BASE_LIB, CTX, reduced), tp)


def test_whnf_idempotent():
    rng = random.Random(707)
    cfg = Config(reduction_budget=400)
    for _ in range(150):
        t = gen_scoped(rng, 0)
        try:
            once = whnf(BASE_LIB, t, cfg)
        except ReductionDepthExceeded:
            continue
        assert whnf(BASE_LIB, once, cfg) == once


def test_alpha_invariance_of_hints():
    rng = random.Random(808)
    for _ in range(100):
        t, tp = gen_typed_closed(rng)
        mutated = mutate_hints(rng, t)
        assert mutated == t
        assert equal(BASE_LIB, mutated, t)
        assert infer(BASE_LIB, CTX, mutated) == infer(BASE_LIB, CTX, t)


def test_equal_is_congruence_under_apply():
    rng = random.Random(909)
    for _ in range(50):
        f = gen_term(rng, [], fn_type(NAT, NAT))
        a = gen_term(rng, [], NAT)
        b = whnf(BASE_LIB, a)
        assert equal(BASE_LIB, Apply(f, a), Apply(f, b))


def test_refinement_cancellation():
    rng = random.Random(111)
    for _ in range(100):
        t, _tp = gen_typed_closed(rng)
        assert equal(BASE_LIB, SubOut(SubIn(t, TT)), t)


# ---------------------------------------------------------------------------
# flatten and theory checking


def _tiny_theory(ns, name, includes=(), ntypes=1):
    decls = tuple(
        Declaration(Ident(ns, name, f"c{j}"), tp=TypeKind(), meta=Metadata(kind="type"))
        for j in range(ntypes)
    )
    return Theory(
        theory_ident(ns, name),
        includes=tuple(theory_ident(ns, i) for i in includes),
        decls=decls,
    )


def test_flatten_no_includes():
    assert flatten(BASE_LIB, BASE_THEORY) == list(BASE_LIB.theories[0].decls)


def test_flatten_diamond_dedup():
    ns = "lib://d"
    lib = Library(
        ns,
        (
            _tiny_theory(ns, "a"),
            _tiny_theory(ns, "b", includes=("a",)),
            _tiny_theory(ns, "c", includes=("a",)),
            _tiny_theory(ns, "d", includes=("b", "c")),
        ),
    )
    decls = flatten(lib, theory_ident(ns, "d"))
    modules = [d.name.module for d in decls]
    assert modules == ["a", "b", "c", "d"]


def test_flatten_matches_bfs_oracle():
    rng = random.Random(121)
    from generators import gen_dag_library

    for _ in range(50):
        lib = gen_dag_library(rng)
        root = rng.choice(lib.theories).name
        # oracle: BFS reachability, then each reachable theory's decls once
        reach = set()
        frontier = [root]
        while frontier:
            cur = frontier.pop(0)
            if cur in reach:
                continue
            reach.add(cur)
            frontier.extend(lib.find_theory(cur).includes)
        expected = sorted(
            str(d.name) for th in lib.theories if th.name in reach for d in th.decls
        )
        got = sorted(str(d.name) for d in flatten(lib, root))
        assert got == expected


def test_flatten_cycle():
    ns = "lib://cyc"
    lib = Library(
        ns,
        (
            _tiny_theory(ns, "a", includes=("b",)),
            _tiny_theory(ns, "b", includes=("a",)),
        ),
    )
    with pytest.raises(Cycle):
        flatten(lib, theory_ident(ns, "a"))


def test_check_theory_base_passes():
    report = check_theory(BASE_LIB, BASE_THEORY)
    assert report.ok
    assert len(report.results) == len(BASE_LIB.theories[0].decls)


def test_check_theory_empty():
    lib = Library("lib://e", (Theory(theory_ident("lib://e", "t")),))
    report = check_theory(lib, theory_ident("lib://e", "t"))
    assert report.ok and report.results == ()


def test_check_theory_dangling_dependency():
    ns = "lib://dep"
    axiom = Declaration(
        Ident(ns, "t", "a"), tp=Const(Ident(ns, "t", "p")), meta=Metadata(kind="axiom")
    )
    ptype = Declaration(Ident(ns, "t", "p"), tp=TypeKind(), meta=Metadata(kind="type"))
    good = Declaration(
        Ident(ns, "t", "good"),
        tp=Const(Ident(ns, "t", "p")),
        proof=DependsOn((Ident(ns, "t", "a"),)),
        meta=Metadata(kind="theorem"),
    )
    bad = Declaration(
        Ident(ns, "t", "bad"),
        tp=Const(Ident(ns, "t", "p")),
        proof=DependsOn((Ident(ns, "t", "ghost"),)),
        meta=Metadata(kind="theorem"),
    )
    lib = Library(ns, (Theory(theory_ident(ns, "t"), decls=(ptype, axiom, good, bad)),))
    report = check_theory(lib, theory_ident(ns, "t"))
    by_name = {r.subject.name: r for r in report.results}
    assert by_name["good"].ok
    assert not by_name["bad"].ok
    assert "UnknownIdent" in by_name["bad"].message


def _verdicts(ns: str, *decls: Declaration) -> dict[str, Optional[str]]:
    """name -> failure message (None when it checks) of a one-theory library."""
    lib = Library(ns, (Theory(theory_ident(ns, "t"), decls=decls),))
    report = check_theory(lib, theory_ident(ns, "t"))
    return {r.subject.name: r.message for r in report.results}


def test_a_declaration_cannot_prove_itself():
    ns = "lib://self"
    p = Declaration(Ident(ns, "t", "p"), tp=TypeKind(), meta=Metadata(kind="type"))
    bad_ident = Ident(ns, "t", "bad")
    bad = Declaration(
        bad_ident, tp=Const(p.name), definiens=Const(bad_ident), meta=Metadata(kind="definition")
    )
    thm = Declaration(
        Ident(ns, "t", "thm"),
        tp=Const(p.name),
        proof=ProofTerm(Const(bad_ident)),
        meta=Metadata(kind="theorem"),
    )
    got = _verdicts(ns, p, bad, thm)
    assert got["bad"] == f"UnknownIdent: {bad_ident}"
    assert got["p"] is None and got["thm"] is None


def test_a_declaration_cannot_use_a_later_one():
    ns = "lib://fwd"
    p = Declaration(Ident(ns, "t", "p"), tp=TypeKind(), meta=Metadata(kind="type"))
    early = Declaration(
        Ident(ns, "t", "early"),
        tp=Const(p.name),
        definiens=Const(Ident(ns, "t", "late")),
        meta=Metadata(kind="definition"),
    )
    late = Declaration(Ident(ns, "t", "late"), tp=Const(p.name), meta=Metadata(kind="constant"))
    # the same declarations in dependency order check
    assert set(_verdicts(ns, p, late, early).values()) == {None}
    got = _verdicts(ns, p, early, late)
    assert got["early"] == f"UnknownIdent: {late.name}"
    assert got["late"] is None


def _fixture_libraries() -> list[Library]:
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    return [
        import_toyhol(parse_toyhol((fixtures / "core.toyhol.json").read_bytes()))[0],
        import_toyhol(parse_toyhol((fixtures / "minimal.toyhol.json").read_bytes()))[0],
        import_toyset(parse_toyset((fixtures / "sets.toyset.xml").read_bytes()))[0],
        omdoc.parse((fixtures / "broken-dep.omdoc.xml").read_bytes()),
    ]


def test_check_theory_only_gives_the_full_verdicts():
    rng = random.Random(404)
    libs = _fixture_libraries()
    libs += [gen_dag_library(rng) for _ in range(30)] + [gen_library(rng) for _ in range(30)]
    failed = 0
    for lib in libs:
        for th in lib.theories:
            full = check_theory(lib, th.name).results
            head = tuple(r for r in full if r.subject == th.name)
            rows = full[len(head):]
            assert [r.subject for r in rows] == [d.name for d in th.decls]
            failed += sum(not r.ok for r in rows)
            for k in range(len(th.decls) + 1):
                prefix = check_theory(lib, th.name, only=th.decls[:k]).results
                suffix = check_theory(lib, th.name, only=th.decls[k:]).results
                assert prefix == head + rows[:k]
                assert suffix == head + rows[k:]
    assert failed  # the comparison covers rejected declarations too


def _scope_state(scope: Scope) -> tuple:
    return list(scope.decls), dict(scope.index), set(scope.visible), scope.row


def test_a_growing_scope_gives_the_from_scratch_verdicts():
    rng = random.Random(505)
    libs = _fixture_libraries()
    libs += [gen_dag_library(rng) for _ in range(30)] + [gen_library(rng) for _ in range(30)]
    libs.append(Library("lib://x", (_tiny_theory("lib://x", "t", includes=("absent",), ntypes=2),)))
    rows = {"failed": 0, "theory": 0}
    for lib in libs:
        for th in lib.theories:
            def holding(decls, th=th, lib=lib):
                prefix = replace(th, decls=tuple(decls))
                return replace(lib, theories=tuple(prefix if t is th else t for t in lib.theories))

            grown = th.decls
            scope = Scope(holding(()), th.name)
            for k, d in enumerate(grown):
                before = _scope_state(scope)
                undo = scope.add((d,))
                got = check_theory(scope, th.name, only=(d,))
                assert got == check_theory(holding(grown[: k + 1]), th.name, only=(d,))
                rows["failed"] += sum(not r.ok for r in got.results if r.subject != th.name)
                rows["theory"] += any(r.subject == th.name for r in got.results)
                undo()
                assert _scope_state(scope) == before
                scope.add((d,))
            assert check_theory(scope, th.name) == check_theory(holding(grown), th.name)
            # the first declaration again: refused, and nothing changes
            before = _scope_state(scope)
            for d in grown[:1]:
                with pytest.raises(CheckError, match=re.escape(f"duplicate declaration {d.name}")):
                    scope.add((d,))
            assert _scope_state(scope) == before
    assert rows["failed"] and rows["theory"]


def test_lookups_return_the_first_match_in_scan_order(monkeypatch):
    ns = "lib://shadow"
    t, u, w = (theory_ident(ns, m) for m in ("t", "u", "w"))

    def decl(module, name, note):
        return Declaration(
            Ident(ns, module, name), tp=TypeKind(), meta=Metadata(kind="type", comments=(note,))
        )

    first = decl("t", "p", "first")
    main_t = Theory(t, decls=(first,))
    dep_t = Theory(t, decls=(decl("t", "ghost", "only in the shadowed theory"),))
    dep_u = Theory(u, decls=(decl("u", "q", "only in a dependency"),))
    w_early, w_late = Theory(w), Theory(w, decls=(decl("w", "r", "late"),))
    m_early, m_late = (Morphism(Ident(ns, "m", "f"), x, x) for x in (u, w))
    elsewhere = Library("lib://elsewhere", (Theory(theory_ident(ns, "v")),))
    lib = Library(
        ns,
        (main_t,),
        deps=(
            Library(ns, (w_late,), (m_late,)),
            Library(ns, (dep_t, dep_u, w_early), (m_early,)),
            elsewhere,
        ),
    )
    # libraries() pops its stack, so the last dependency is scanned first
    assert [len(x.theories) for x in lib.libraries()] == [1, 1, 3, 1]
    assert lib.find_morphism(m_early.name) is m_early
    assert lib.find_morphism(Ident(ns, "m", "g")) is None
    assert lib.find_theory(t) is main_t
    assert lib.find_decl(first.name) is first
    assert lib.find_decl(Ident(ns, "t", "ghost")) is None
    assert lib.find_theory(u) is dep_u
    assert lib.find_decl(Ident(ns, "u", "q")) is dep_u.decls[0]
    assert lib.find_theory(w) is w_early
    assert lib.find_decl(Ident(ns, "w", "r")) is None
    assert lib.find_theory(theory_ident(ns, "v")) is None
    assert lib.find_theory(theory_ident(ns, "absent")) is None
    assert lib.find_decl(Ident(ns, "absent", "p")) is None

    # every answer, hits and misses, equals a plain scan, also once the
    # tables are built; find_decl reads them and never calls find_theory
    probes = [d.name for x in lib.libraries() for th in x.theories for d in th.decls]
    probes += [Ident(ns, "absent", "p"), Ident(ns, "t", "nothing"), Ident(ns, "v", "p")]
    for _ in range(2):
        for ident in probes:
            assert lib.find_decl(ident) is _scanned_decl(lib, ident)
    answers = [lib.find_decl(ident) for ident in probes]
    assert None in answers and first in answers
    monkeypatch.setattr(Library, "find_theory", None)
    assert [lib.find_decl(ident) for ident in probes] == answers


def _scanned_decl(lib: Library, ident: Ident):
    """find_decl by a plain scan: the first theory of that name in a library
    of that namespace, in `libraries()` order, then its declaration of that name."""
    home = theory_ident(ident.namespace, ident.module)
    for x in lib.libraries():
        for th in x.theories:
            if x.namespace == ident.namespace and th.name == home:
                return next((d for d in th.decls if d.name == ident), None)
    return None


def test_theory_and_library_reject_a_repeated_name():
    ns = "lib://rep"
    c = Declaration(Ident(ns, "t", "c"), tp=TypeKind(), meta=Metadata(kind="type"))
    with pytest.raises(ValueError, match=r"duplicate declaration lib://rep\?t\?c"):
        Theory(theory_ident(ns, "t"), decls=(c, replace(c, tp=Const(c.name))))
    t = Theory(theory_ident(ns, "t"), decls=(c,))
    with pytest.raises(ValueError, match=r"duplicate theory lib://rep\?t\?t"):
        Library(ns, (t, Theory(t.name)))
    # the same theory name in another library only shadows
    assert Library(ns, (t,), deps=(Library(ns, (Theory(t.name),)),)).find_theory(t.name) is t


def test_a_theory_rejects_a_repeated_include():
    """An include listed twice would give the RDF export one `includes`
    triple twice; the readers name the repeat first, the record refuses it."""
    ns = "lib://rep"
    a, b, c = (theory_ident(ns, n) for n in "abc")
    for includes, repeat in (((a, a), a), ((a, b, b, a), b)):
        with pytest.raises(ValueError, match=f"^duplicate include {re.escape(str(repeat))}$"):
            Theory(c, includes=includes)
    th = Theory(c, includes=(a, b))
    with pytest.raises(ValueError, match=r"^duplicate include lib://rep\?a\?a$"):
        replace(th, includes=(a, b, a))
    assert th.includes == (a, b)


def test_scope_add_refuses_a_repeated_name_and_changes_nothing():
    ns = "lib://rep"
    base = _tiny_theory(ns, "b", ntypes=1)
    th = _tiny_theory(ns, "t", includes=("b",), ntypes=2)
    scope = Scope(Library(ns, (base, th)), th.name)

    def fresh(name):
        return Declaration(Ident(ns, "t", name), tp=TypeKind(), meta=Metadata(kind="type"))

    scope.add((fresh("x"),))
    before = _scope_state(scope)
    for repeated in (th.decls[:1], (fresh("x"),), (fresh("y"), fresh("y")), base.decls):
        with pytest.raises(CheckError, match="duplicate declaration"):
            scope.add(repeated)
        assert _scope_state(scope) == before
    undo = scope.add((fresh("y"),))
    assert scope.find_decl(Ident(ns, "t", "y")) is not None
    undo()
    assert _scope_state(scope) == before
    # also where an include does not resolve
    broken = _tiny_theory(ns, "t", includes=("absent",), ntypes=2)
    scope = Scope(Library(ns, (broken,)), broken.name)
    assert scope.row is not None
    with pytest.raises(CheckError, match="duplicate declaration"):
        scope.add(broken.decls[1:])


def test_a_declaration_names_its_theory():
    ns = "lib://home"
    t = theory_ident(ns, "t")
    own = Declaration(Ident(ns, "t", "x"), tp=TypeKind(), meta=Metadata(kind="type"))
    strays = (Ident(ns, "u", "x"), Ident("lib://away", "t", "x"), Ident(ns, "tt", "t"))
    for stray in strays:
        with pytest.raises(ValueError, match=re.escape(
            f"declaration {stray} is not named in theory {t}"
        )):
            Theory(t, decls=(own, replace(own, name=stray)))
    # a Scope refuses one before anything changes, its well-named batch-mates included
    base = _tiny_theory(ns, "b", ntypes=1)
    whole = Scope(Library(ns, (base, _tiny_theory(ns, "t", includes=("b",), ntypes=2))), t)
    broken = Scope(Library(ns, (_tiny_theory(ns, "t", includes=("absent",)),)), t)
    assert broken.row is not None
    for scope in (whole, broken):
        scope.add((own,))
        before = _scope_state(scope)
        for stray in strays:
            batch = (replace(own, name=Ident(ns, "t", "y")), replace(own, name=stray))
            with pytest.raises(CheckError, match=re.escape(
                f"declaration {stray} is not named in theory {t}"
            )):
                scope.add(batch)
            assert _scope_state(scope) == before
            assert scope.find_decl(Ident(ns, "t", "y")) is None


def test_installed_morphisms_and_pattern_expansions_name_their_theories():
    installed = install_morphism(ALGEBRA, TO_INT)
    sets = _fixture_libraries()[2]
    expanded = [d for th in sets.theories for d in th.decls if d.meta.kind == "patternInstance"]
    assert installed.decls and expanded
    for th in (installed, *sets.theories):
        assert all(d.name[:2] == th.name[:2] for d in th.decls)
    assert all(sets.find_decl(d.name) is d for d in expanded)


def test_infer_forgets_a_declaration_whose_add_was_undone():
    th = Theory(theory_ident(NS, "ext"), includes=(BASE_THEORY,))
    scope = Scope(Library(NS, (BASE_LIB.theories[0], th)), th.name)
    f = Declaration(Ident(NS, "ext", "f"), tp=fn_type(NAT, NAT), meta=Metadata(kind="constant"))
    t = Apply(Const(f.name), ZERO)
    undo = scope.add((f,))
    assert infer(scope, (), t) == NAT
    assert infer(scope, (), t) == NAT  # from the memo
    undo()
    with pytest.raises(UnknownIdent, match="f"):
        infer(scope, (), t)


def test_one_open_application_has_the_type_each_context_gives_it():
    t = Apply(Var(0), ZERO)
    for cod in (NAT, O, NAT):
        assert infer(BASE_LIB, (fn_type(NAT, cod),), t) == cod


def _config_sensitive_document() -> bytes:
    """A theory over the base signature in which `a` checks only with eta
    and `b` only with a reduction budget of at least 2 steps. Each is a
    closed application, so its type is memoized when it checks."""
    def d(name, tp, definiens=None):
        kind = "constant" if definiens is None else "definition"
        return Declaration(
            Ident(NS, "cfg", name), tp=tp, definiens=definiens, meta=Metadata(kind=kind)
        )

    def c(name):
        return Const(Ident(NS, "cfg", name))

    nn = fn_type(NAT, NAT)
    decls = (
        d("P", fn_type(nn, TypeKind())),
        d("p", Apply(c("P"), SUCC)),
        d("r", fn_type(Apply(c("P"), Lambda("x", NAT, Apply(SUCC, Var(0)))), NAT)),
        d("a", NAT, Apply(c("r"), c("p"))),
        d("Q", fn_type(NAT, TypeKind())),
        d("n1", NAT, ZERO),
        d("n2", NAT, c("n1")),
        d("v", Apply(c("Q"), c("n2"))),
        d("u", fn_type(Apply(c("Q"), ZERO), NAT)),
        d("b", NAT, Apply(c("u"), c("v"))),
    )
    th = Theory(theory_ident(NS, "cfg"), includes=(BASE_THEORY,), decls=decls)
    return omdoc.serialize(Library(NS, (BASE_LIB.theories[0], th)))


def test_one_library_checked_under_each_config_gives_a_fresh_parse_reports():
    data = _config_sensitive_document()
    lib = omdoc.parse(data, deps=())
    configs = (Config(), Config(eta_enabled=False), Config(reduction_budget=1), Config())
    reports = []
    for cfg in configs:
        reports.append(check_library(lib, cfg))
        assert reports[-1] == check_library(omdoc.parse(data, deps=()), cfg)
    failed = [{r.subject.name for rep in reps for r in rep.failures} for reps in reports]
    assert failed == [set(), {"a"}, {"b"}, set()]


def test_declaration_invariants():
    ns = "lib://inv"
    with pytest.raises(ValueError):
        Declaration(Ident(ns, "t", "empty"), meta=Metadata(kind="constant"))
    with pytest.raises(ValueError):
        Declaration(Ident(ns, "t", "thm"), tp=NAT, meta=Metadata(kind="theorem"))
    with pytest.raises(ValueError):
        Declaration(
            Ident(ns, "t", "c"), tp=NAT, proof=Omitted(), meta=Metadata(kind="constant")
        )


def test_ident_validation():
    with pytest.raises(ValueError):
        Ident("", "m", "n")
    with pytest.raises(ValueError):
        Ident("lib://x", "m?d", "n")
    assert str(Ident("lib://x", "m", "n")) == "lib://x?m?n"
    assert Ident.parse("lib://x?m?n") == Ident("lib://x", "m", "n")


def test_format_term_concrete_syntax():
    c = Const(Ident("lib://x", "m", "c"))
    fn = Lambda("f", Pi("x", TypeKind(), TypeKind()), Apply(Var(0), c))
    assert format_term(fn) == "[f : type -> type] f c"
    dependent = Pi("x", TypeKind(), Apply(c, Var(0)))
    assert format_term(dependent) == "{x : type} c x"
    shadowed = Lambda("x", TypeKind(), Lambda("x", TypeKind(), Apply(Var(1), Var(0))))
    assert format_term(shadowed) == "[x : type] [x1 : type] x x1"
    nested = Apply(c, Apply(c, c))
    assert format_term(nested) == "c (c c)"
    sub = SubType(TypeKind(), Lambda("e", TypeKind(), Var(0)))
    assert format_term(SubOut(SubIn(c, sub))) == "out(in(c, <type | [e : type] e>))"
    assert format_term(Var(3)) == "#3"


# ---------------------------------------------------------------------------
# records

_ID = "Ident(namespace='ns', module='m', name='n')"
_C = f"Const(ident={_ID})"
_REF = "SourceRef(file='f', start_line=1, start_col=2, end_line=3, end_col=4)"
_META = "Metadata(kind='type', source_ref=None, comments=(), notation=None, origin=None)"
_DECL = f"Declaration(name={_ID}, tp={_C}, definiens=None, proof=None, meta={_META})"


def _record_samples():
    """One instance of each record class, its repr at the dataclass
    version of the classes, and its `__match_args__`."""
    from proofport import importers, morphisms

    i = Ident("ns", "m", "n")
    c, v = Const(i), Var(0)
    ref = SourceRef("f", 1, 2, 3, 4)
    decl = Declaration(i, c, meta=Metadata("type"))
    decl_args = ("name", "tp", "definiens", "proof")
    return [
        (i, _ID, ("namespace", "module", "name")),
        (kernel.Term(), "Term()", ()),
        (c, _C, ("ident",)),
        (v, "Var(index=0)", ("index",)),
        (Apply(c, v), f"Apply(fn={_C}, arg=Var(index=0))", ("fn", "arg")),
        (Lambda("x", c, v), f"Lambda(hint='x', dom={_C}, body=Var(index=0))",
         ("hint", "dom", "body")),
        (Pi("y", c, v), f"Pi(hint='y', dom={_C}, cod=Var(index=0))", ("hint", "dom", "cod")),
        (TypeKind(), "TypeKind()", ()),
        (SubType(c, v), f"SubType(base={_C}, pred=Var(index=0))", ("base", "pred")),
        (SubIn(c, v), f"SubIn(elem={_C}, witness=Var(index=0))", ("elem", "witness")),
        (SubOut(v), "SubOut(elem=Var(index=0))", ("elem",)),
        (Omitted(), "Omitted()", ()),
        (DependsOn([i]), f"DependsOn(ids=({_ID},))", ("ids",)),
        (ProofTerm(c), f"ProofTerm(term={_C})", ("term",)),
        (ref, _REF, ("file", "start_line", "start_col", "end_line", "end_col")),
        (Metadata("axiom", ref, ["c"], "n", i),
         f"Metadata(kind='axiom', source_ref={_REF}, comments=('c',), notation='n', "
         f"origin={_ID})", ("kind", "source_ref", "comments", "notation", "origin")),
        (decl, _DECL, decl_args),
        (Theory(theory_ident("ns", "m"), i, [i], [decl]),
         f"Theory(name=Ident(namespace='ns', module='m', name='m'), meta_theory={_ID}, "
         f"includes=({_ID},), decls=({_DECL},))", ("name", "meta_theory", "includes", "decls")),
        (Library("ns", deps=[Library("d")]), "Library(namespace='ns', theories=(), morphisms=())",
         ("namespace", "theories", "morphisms", "deps")),
        (Config(False, 3), "Config(eta_enabled=False, reduction_budget=3)",
         ("eta_enabled", "reduction_budget")),
        (kernel.CheckResult(i, False, "x"), f"CheckResult(subject={_ID}, ok=False, message='x')",
         ("subject", "ok", "message")),
        (kernel.CheckReport(()), "CheckReport(results=())", ("results",)),
        (importers.DeclRecord("axiom", "n", "t", None, ("d",), None, "nt", "c", (("p", 1),)),
         "DeclRecord(kind='axiom', name='n', tp='t', definiens=None, deps=('d',), src=None, "
         "notation='nt', comment='c', pvars=(('p', 1),))",
         ("kind", "name", "tp", "definiens", "deps", "src", "notation", "comment", "pvars")),
        (importers.TheoryRecord("t", (), ("u",)),
         "TheoryRecord(name='t', decls=(), includes=('u',))", ("name", "decls", "includes")),
        (importers.ExportDoc("1", ()),
         "ExportDoc(version='1', theories=())", ("version", "theories")),
        (morphisms.Morphism(i, i, i, [(i, c)]),
         f"Morphism(name={_ID}, source={_ID}, target={_ID}, assignments=(({_ID}, {_C}),))",
         ("name", "source", "target", "assignments")),
    ]


def test_records_keep_their_repr_match_args_equality_and_immutability():
    samples = _record_samples()
    assert len({type(r) for r, _, _ in samples}) == 26
    for record, text, match_args in samples:
        cls = type(record)
        assert repr(record) == text
        assert cls.__match_args__ == match_args
        assert not hasattr(record, "__dataclass_fields__")
        again = kernel.replace(record)
        assert again is not record and again == record and hash(again) == hash(record)
        for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert type(twin) is cls and twin == record and repr(twin) == text
        assert record != object() and (record == object()) is False
        for name in (*match_args, "loose", "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        for name in match_args:
            with pytest.raises(AttributeError):
                delattr(record, name)
    # `==` and `hash` go by the fields shown, never by `loose`, a hint or `deps`
    c = Const(Ident("ns", "m", "n"))
    assert hash(Apply(c, Var(2))) == hash((c, Var(2))) and hash(Var(2)) == hash((2,))
    assert hash(Lambda("x", c, Var(0))) == hash((c, Var(0))) == hash(Pi("y", c, Var(0)))
    assert hash(SubOut(Var(1))) == hash((Var(1),)) and Apply(c, Var(0)) != SubIn(c, Var(0))
    lib = Library("ns", deps=(BASE_LIB,))
    assert lib == Library("ns") and hash(lib) == hash(Library("ns"))
    # an Ident is a named tuple, not a Record: it is the tuple of its parts
    i = Ident("ns", "m", "n")
    assert not isinstance(i, kernel.Record) and isinstance(i, tuple)
    assert i == ("ns", "m", "n") and hash(i) == hash(("ns", "m", "n"))
    assert list(i) == ["ns", "m", "n"] and (i.namespace, i.module, i.name) == tuple(i)
    assert i != ("ns", "m") and i != ["ns", "m", "n"] and i != "ns?m?n"
    unsorted = [Ident("b", "a", "a"), Ident("a", "b", "c"), Ident("a", "b", "a")]
    assert sorted(unsorted) == [unsorted[2], unsorted[1], unsorted[0]]
    assert Ident("a", "b", "c") < ("a", "c", "a") and max(unsorted) is unsorted[0]
    assert type(i._replace(name="o")) is Ident and i._make(("ns", "m", "o")) == i._replace(name="o")
    for bad in (lambda: i._replace(name=""), lambda: Ident._make(("ns", "m?", "n"))):
        with pytest.raises(ValueError):
            bad()


def test_the_checker_dispatches_on_the_exact_class_and_idents_hash_as_tuples():
    import dis

    for fn in (whnf, kernel.equal, infer, check, kernel.check_kind):
        ops = {ins.opname for ins in dis.get_instructions(fn)}
        assert "MATCH_CLASS" not in ops, fn.__name__
    assert Ident.__hash__ is tuple.__hash__ and Ident.__eq__ is tuple.__eq__
    for parts in (("a", "b", "c"), ("lib://x", "m", "n")):
        assert hash(Ident(*parts)) == hash(parts)


def test_replace_rebuilds_through_the_constructor():
    meta = Metadata("axiom", comments=["c"])
    assert kernel.replace(meta, kind="theorem") == Metadata("theorem", comments=("c",))
    with pytest.raises(ValueError, match="unknown declaration kind 'bogus'"):
        kernel.replace(meta, kind="bogus")
    with pytest.raises(TypeError):
        kernel.replace(meta, colour="red")
    i = Ident("ns", "m", "n")
    with pytest.raises(ValueError, match="needs a type or a definiens"):
        kernel.replace(Declaration(i, NAT, meta=Metadata("constant")), tp=None)
    lib = Library("ns", deps=(BASE_LIB,))
    th = Theory(theory_ident("ns", "m"), decls=[Declaration(i, NAT, meta=Metadata("constant"))])
    grown = kernel.replace(lib, theories=[th])
    assert grown.deps == (BASE_LIB,) and grown.find_decl(i) is th.decls[0]
    with pytest.raises(ValueError, match="duplicate theory"):
        kernel.replace(lib, theories=(th, th))
