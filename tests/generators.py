"""Seeded random generators and the shared base signature for tests.

Every generator takes an explicit random.Random so individual tests stay
reproducible. The typed-term generator records each term's type by
construction, which makes it an oracle for the checker: infer must
return the recorded type up to definitional equality.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from proofport.kernel import (
    Apply,
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
    SourceRef,
    SubIn,
    SubOut,
    SubType,
    Term,
    Theory,
    TypeKind,
    Var,
    fn_type,
    theory_ident,
)

NS = "lib://testbase"
BASE_THEORY = theory_ident(NS, "base")


def _i(name: str) -> Ident:
    return Ident(NS, "base", name)


NAT = Const(_i("nat"))
O = Const(_i("o"))


def base_library() -> Library:
    zero = Const(_i("zero"))
    succ = Const(_i("succ"))
    nn = fn_type(NAT, NAT)

    def d(name, tp=None, definiens=None, kind="constant"):
        return Declaration(_i(name), tp=tp, definiens=definiens, meta=Metadata(kind=kind))

    decls = (
        d("nat", tp=TypeKind(), kind="type"),
        d("o", tp=TypeKind(), kind="type"),
        d("zero", tp=NAT),
        d("succ", tp=nn),
        d("plus", tp=fn_type(NAT, nn)),
        d("tt", tp=O),
        d("neg", tp=fn_type(O, O)),
        d("isz", tp=fn_type(NAT, O)),
        d("one", tp=NAT, definiens=Apply(succ, zero), kind="definition"),
        d(
            "twice",
            tp=fn_type(nn, nn),
            definiens=Lambda("f", nn, Lambda("x", NAT, Apply(Var(1), Apply(Var(1), Var(0))))),
            kind="definition",
        ),
    )
    return Library(NS, (Theory(BASE_THEORY, decls=decls),))


BASE_LIB = base_library()

# constants usable at each (structural) type, definitions included so
# that generated terms exercise delta reduction
CONST_POOL: dict[Term, list[Term]] = {}
for _decl in BASE_LIB.theories[0].decls:
    if _decl.tp is not None and not isinstance(_decl.tp, TypeKind):
        CONST_POOL.setdefault(_decl.tp, []).append(Const(_decl.name))

ARG_TYPES = [NAT, O, fn_type(NAT, NAT), fn_type(O, O), fn_type(NAT, O)]


def gen_type(rng: random.Random, depth: int = 2) -> Term:
    """A simple type over the base signature's ground types."""
    if depth <= 0 or rng.random() < 0.55:
        return rng.choice([NAT, O])
    return fn_type(gen_type(rng, depth - 1), gen_type(rng, depth - 1))


def gen_term(rng: random.Random, ctx_types: list[Term], target: Term, depth: int = 4) -> Term:
    """A well-typed term of the given (closed) simple type.

    ctx_types lists the types of free variables, innermost last, as in a
    kernel Context. The result has type `target` by construction.
    """
    atoms: list[Term] = []
    n = len(ctx_types)
    for idx in range(n):
        if ctx_types[n - 1 - idx] == target:
            atoms.append(Var(idx))
    atoms.extend(CONST_POOL.get(target, []))

    choices = []
    if atoms:
        choices.append("atom")
    if isinstance(target, Pi):
        choices.append("lambda")
    if depth > 0:
        choices.append("apply")
        if isinstance(target, Pi):
            choices.extend(["lambda", "lambda"])
    if not choices:
        # no atom of a function type in scope: eta-expand our way there
        choices = ["lambda"] if isinstance(target, Pi) else ["apply"]

    pick = rng.choice(choices)
    if pick == "atom":
        return rng.choice(atoms)
    if pick == "lambda":
        assert isinstance(target, Pi)
        hint = rng.choice(["x", "y", "f", "v"])
        body = gen_term(rng, ctx_types + [target.dom], target.cod, depth - 1)
        return Lambda(hint, target.dom, body)
    # application at a randomly chosen argument type
    sigma = rng.choice(ARG_TYPES)
    fn = gen_term(rng, ctx_types, fn_type(sigma, target), depth - 1)
    arg = gen_term(rng, ctx_types, sigma, depth - 1)
    return Apply(fn, arg)


def gen_typed_closed(rng: random.Random) -> tuple[Term, Term]:
    """A closed well-typed term and its type."""
    tp = gen_type(rng)
    return gen_term(rng, [], tp), tp


DEFAULT_CONSTS = tuple(_i(n) for n in ("zero", "succ", "plus", "tt", "neg", "one"))


def gen_scoped(
    rng: random.Random,
    free: int,
    depth: int = 4,
    consts: tuple[Ident, ...] = DEFAULT_CONSTS,
) -> Term:
    """An arbitrary well-scoped term with free indices < `free`.

    Not necessarily well-typed; exercises every constructor, which is
    what the substitution and reduction oracles need.
    """
    leaf_kinds = ["const", "kind"] + (["var"] * 3 if free > 0 else [])
    if depth <= 0:
        kind = rng.choice(leaf_kinds)
    else:
        kind = rng.choice(
            leaf_kinds + ["apply", "apply", "lambda", "lambda", "pi", "sub", "subin", "subout"]
        )
    if kind == "var":
        return Var(rng.randrange(free))
    if kind == "const":
        return Const(rng.choice(consts))
    if kind == "kind":
        return TypeKind()
    if kind == "apply":
        return Apply(
            gen_scoped(rng, free, depth - 1, consts), gen_scoped(rng, free, depth - 1, consts)
        )
    if kind == "lambda":
        return Lambda(
            rng.choice(["x", "y", "z"]),
            gen_scoped(rng, free, depth - 1, consts),
            gen_scoped(rng, free + 1, depth - 1, consts),
        )
    if kind == "pi":
        return Pi(
            rng.choice(["x", "y", "z"]),
            gen_scoped(rng, free, depth - 1, consts),
            gen_scoped(rng, free + 1, depth - 1, consts),
        )
    if kind == "sub":
        return SubType(
            gen_scoped(rng, free, depth - 1, consts), gen_scoped(rng, free, depth - 1, consts)
        )
    if kind == "subin":
        return SubIn(
            gen_scoped(rng, free, depth - 1, consts), gen_scoped(rng, free, depth - 1, consts)
        )
    return SubOut(gen_scoped(rng, free, depth - 1, consts))


def gen_signature(rng: random.Random) -> Library:
    """A small random signature with definiens chains for delta testing.

    Later constants may unfold to terms over earlier ones, so reduction
    has actual work to do; opaque constants stay stuck.
    """
    ns = "lib://sig"
    th = theory_ident(ns, "s")
    decls: list[Declaration] = []
    earlier: list[Ident] = []
    for i in range(rng.randint(2, 6)):
        name = Ident(ns, "s", f"k{i}")
        if earlier and rng.random() < 0.6:
            body = gen_scoped(rng, 0, depth=3, consts=tuple(earlier))
            decls.append(
                Declaration(name, definiens=body, meta=Metadata(kind="definition"))
            )
        else:
            decls.append(Declaration(name, tp=TypeKind(), meta=Metadata(kind="type")))
        earlier.append(name)
    return Library(ns, (Theory(th, decls=tuple(decls)),))


def mutate_hints(rng: random.Random, t: Term) -> Term:
    """Rewrite every binder hint randomly; must never change semantics."""
    match t:
        case Apply(f, a):
            return Apply(mutate_hints(rng, f), mutate_hints(rng, a))
        case Lambda(_, d, b):
            return Lambda(
                rng.choice(["a", "b", "q", "zz", ""]),
                mutate_hints(rng, d),
                mutate_hints(rng, b),
            )
        case Pi(_, d, c):
            return Pi(
                rng.choice(["a", "b", "q", "zz", ""]),
                mutate_hints(rng, d),
                mutate_hints(rng, c),
            )
        case SubType(b, p):
            return SubType(mutate_hints(rng, b), mutate_hints(rng, p))
        case SubIn(e, w):
            return SubIn(mutate_hints(rng, e), mutate_hints(rng, w))
        case SubOut(e):
            return SubOut(mutate_hints(rng, e))
        case _:
            return t


def gen_dag_library(rng: random.Random, max_theories: int = 8) -> Library:
    """A library whose include graph is a random DAG of tiny theories."""
    ns = "lib://dag"
    n = rng.randint(1, max_theories)
    theories = []
    for i in range(n):
        name = theory_ident(ns, f"t{i}")
        includes = tuple(
            theory_ident(ns, f"t{j}") for j in range(i) if rng.random() < 0.4
        )
        decls = tuple(
            Declaration(
                Ident(ns, f"t{i}", f"c{i}_{j}"),
                tp=TypeKind(),
                meta=Metadata(kind="type"),
            )
            for j in range(rng.randint(1, 2))
        )
        theories.append(Theory(name, includes=includes, decls=decls))
    return Library(ns, tuple(theories))


# ---------------------------------------------------------------------------
# surface terms for the annotation-inference tests

from proofport.encodings import HOL_CHURCH, hol_ident  # noqa: E402

# Surface types and terms are toyhol JSON values, as the reader checks
# and keeps them: a type is a base name or {"arrow": [dom, cod]}.
SurfaceType = Union[str, dict]
SurfaceTerm = dict


def SBase(name: str) -> str:
    return name


def SArrow(dom: SurfaceType, cod: SurfaceType) -> dict:
    return {"arrow": [dom, cod]}


def SName(name: str) -> dict:
    return {"name": name}


def SApp(fn: SurfaceTerm, arg: SurfaceTerm) -> dict:
    return {"app": [fn, arg]}


def SBinder(kind: str, var: str, annot: Optional[SurfaceType], body: SurfaceTerm) -> dict:
    """An `abs` or `forall` term; a None annotation is left out."""
    inner = {"var": var, "body": body}
    if annot is not None:
        inner["annot"] = annot
    return {kind: inner}


def SAbs(var: str, annot: Optional[SurfaceType], body: SurfaceTerm) -> dict:
    return SBinder("abs", var, annot, body)


SURFACE_NS = "lib://surfacebase"
_S_BOOL = SBase("bool")
_S_I = SBase("i")

SURFACE_ENV: dict[str, SurfaceType] = {
    "c": _S_BOOL,
    "d": _S_I,
    "f": SArrow(_S_BOOL, _S_BOOL),
    "g": SArrow(_S_I, _S_BOOL),
    "r": SArrow(_S_I, SArrow(_S_I, _S_BOOL)),
    "h": SArrow(SArrow(_S_BOOL, _S_BOOL), _S_BOOL),
}

SURFACE_BASES = {"i": Ident(SURFACE_NS, "surface", "i")}


def surface_resolve(name: str):
    if name in SURFACE_ENV:
        return Const(Ident(SURFACE_NS, "surface", name))
    return None


def surface_consts(env: dict[str, SurfaceType]) -> dict[str, tuple[Term, Term]]:
    """The inference environment binding each name of `env` (a subset of
    SURFACE_ENV) to its surface-library constant and object type."""
    return {n: (Const(Ident(SURFACE_NS, "surface", n)), stype_term(st)) for n, st in env.items()}


def stype_term(st: SurfaceType) -> Term:
    """The holChurch object type denoted by a surface type."""
    match st:
        case "bool":
            return Const(hol_ident("bool'"))
        case str(n):
            return Const(SURFACE_BASES[n])
        case {"arrow": [d, c]}:
            return Apply(Apply(Const(hol_ident("arrow")), stype_term(d)), stype_term(c))
    raise AssertionError(st)


def surface_library() -> Library:
    """Kernel-side declarations matching SURFACE_ENV, under holChurch."""
    tm = Const(hol_ident("tm"))

    def d(name, tp, kind="constant"):
        return Declaration(
            Ident(SURFACE_NS, "surface", name), tp=tp, meta=Metadata(kind=kind)
        )

    decls = [d("i", Const(hol_ident("tp")), kind="type")]
    for name, st in SURFACE_ENV.items():
        decls.append(d(name, Apply(tm, stype_term(st))))
    th = Theory(
        theory_ident(SURFACE_NS, "surface"),
        meta_theory=HOL_CHURCH,
        decls=tuple(decls),
    )
    return Library(SURFACE_NS, (th,))


def gen_stype(rng: random.Random, depth: int = 2) -> SurfaceType:
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice([_S_BOOL, _S_I])
    return SArrow(gen_stype(rng, depth - 1), gen_stype(rng, depth - 1))


def gen_surface(
    rng: random.Random,
    target: SurfaceType,
    scope: tuple[tuple[str, SurfaceType], ...] = (),
    depth: int = 3,
) -> SurfaceTerm:
    """A closed-over-SURFACE_ENV surface term of the given type.

    All binders are annotated, so annotation inference must succeed and
    return exactly `target`; the generation is the typing oracle.
    """
    atoms = [n for n, st in scope if st == target]
    atoms += [n for n, st in SURFACE_ENV.items() if st == target]
    choices = []
    if atoms:
        choices += ["atom"] * 3
    if depth > 0:
        choices.append("app")
        if target == _S_BOOL:
            choices += ["impl", "eq", "forall"]
    if isinstance(target, dict):
        choices += ["abs", "abs"]
    match rng.choice(choices):
        case "atom":
            return SName(rng.choice(atoms))
        case "app":
            at = gen_stype(rng, 1)
            fn = gen_surface(rng, SArrow(at, target), scope, depth - 1)
            arg = gen_surface(rng, at, scope, depth - 1)
            return SApp(fn, arg)
        case "impl":
            lhs = gen_surface(rng, _S_BOOL, scope, depth - 1)
            rhs = gen_surface(rng, _S_BOOL, scope, depth - 1)
            return SApp(SApp(SName("impl"), lhs), rhs)
        case "eq":
            at = gen_stype(rng, 1)
            lhs = gen_surface(rng, at, scope, depth - 1)
            rhs = gen_surface(rng, at, scope, depth - 1)
            return SApp(SApp(SName("eq"), lhs), rhs)
        case "forall":
            vt = gen_stype(rng, 1)
            var = f"v{len(scope)}"
            body = gen_surface(rng, _S_BOOL, scope + ((var, vt),), depth - 1)
            return SBinder("forall", var, vt, body)
        case "abs":
            dom, cod = target["arrow"]
            var = f"v{len(scope)}"
            body = gen_surface(rng, cod, scope + ((var, dom),), depth - 1)
            return SAbs(var, dom, body)
    raise AssertionError


# ---------------------------------------------------------------------------
# toyhol documents whose theories reuse local names

CLASH_TYPES = ("j", "k")
CLASH_TERMS = ("x", "y", "f", "g")
CLASH_STMTS = ("p", "q")


def gen_clash_toyhol(rng: random.Random, n_theories: int = 4) -> dict:
    """A toyhol document (as JSON data) over a random include DAG whose
    theories declare names from the same small pools: sibling theories
    declare the same type and constant names, and a theory that
    includes both sees the later include's. References go to names
    visible by the include rule, so most of them resolve; terms are
    random, so some definitions and axioms are ill-typed."""
    seen: dict[str, set[str]] = {}  # theory -> names declared in it or its includes
    theories = []
    for i in range(n_theories):
        includes = rng.sample(list(seen), rng.randint(0, min(3, len(seen))))
        visible = set().union(*(seen[inc] for inc in includes))
        decls = []

        def stype(depth=1):
            if depth and rng.random() < 0.3:
                return {"arrow": [stype(0), stype(0)]}
            return rng.choice(sorted(visible.intersection(CLASH_TYPES)) + ["bool"])

        def term(depth=2, bound=()):
            roll = rng.random()
            if depth and roll < 0.35:
                return {"app": [term(depth - 1, bound), term(depth - 1, bound)]}
            if depth and roll < 0.45:
                var = f"v{len(bound)}"
                return {"abs": {"var": var, "annot": stype(0), "body": term(depth - 1, bound + (var,))}}
            return {"name": rng.choice(sorted(visible.intersection(CLASH_TERMS)) + list(bound))}

        for name in rng.sample(CLASH_TYPES, rng.randint(0, 2)):
            decls.append({"kind": "type", "name": name})
            visible.add(name)
        for name in rng.sample(CLASH_TERMS, rng.randint(1, 4)):
            if rng.random() < 0.5 or not visible.intersection(CLASH_TERMS):
                decl = {"kind": "constant", "name": name, "type": stype()}
            else:
                decl = {"kind": "definition", "name": name, "definiens": term()}
                if rng.random() < 0.5:
                    decl["type"] = stype()
            decls.append(decl)
            visible.add(name)
        if rng.random() < 0.5:
            eq = {"app": [{"app": [{"name": "eq"}, term(1)]}, term(1)]}
            decls.append({"kind": "axiom", "name": rng.choice(CLASH_STMTS), "type": eq})
        seen[f"t{i}"] = visible
        theories.append({"name": f"t{i}", "includes": includes, "decls": decls})
    return {"version": "1", "theories": theories}


# ---------------------------------------------------------------------------
# full-featured libraries for the serialization round-trip tests

from proofport.morphisms import Morphism  # noqa: E402

NASTY_STRINGS = (
    "plain",
    'has "quotes" inside',
    "ampersand & angle <brackets>",
    "tab\there and newline\nthere",
    "carriage\rreturn",
    "unicode λ→∀ κόσμε",
    "  padded  ",
    "apostrophe's",
)

NASTY_HINTS = ("x", "y'", "a b", 'q"r', "λx", "nl\nhint", "")


def _nasty_hints(rng: random.Random, t: Term) -> Term:
    match t:
        case Apply(f, a):
            return Apply(_nasty_hints(rng, f), _nasty_hints(rng, a))
        case Lambda(_, d, b):
            return Lambda(rng.choice(NASTY_HINTS), _nasty_hints(rng, d), _nasty_hints(rng, b))
        case Pi(_, d, c):
            return Pi(rng.choice(NASTY_HINTS), _nasty_hints(rng, d), _nasty_hints(rng, c))
        case SubType(b, p):
            return SubType(_nasty_hints(rng, b), _nasty_hints(rng, p))
        case SubIn(e, w):
            return SubIn(_nasty_hints(rng, e), _nasty_hints(rng, w))
        case SubOut(e):
            return SubOut(_nasty_hints(rng, e))
        case _:
            return t


def _gen_metadata(rng: random.Random, kind: str, origins: list[Ident]) -> Metadata:
    src = None
    if rng.random() < 0.4:
        line = rng.randint(1, 99)
        col = rng.randint(1, 40)
        src = SourceRef(rng.choice(NASTY_STRINGS) + ".src", line, col, line, col + rng.randint(0, 10))
    comments = tuple(rng.choice(NASTY_STRINGS) for _ in range(rng.randint(0, 2)))
    notation = rng.choice(NASTY_STRINGS) if rng.random() < 0.3 else None
    origin = rng.choice(origins) if origins and rng.random() < 0.2 else None
    return Metadata(kind=kind, source_ref=src, comments=comments, notation=notation, origin=origin)


def gen_library(rng: random.Random, ns: str = "lib://gen") -> Library:
    """A random library exercising every serializable construct.

    Well-scoped but not necessarily well-typed; every identifier it
    mentions resolves within the library or the bundled logics.
    """
    from proofport.encodings import logic_library

    fallback = (hol_ident("bool'"), hol_ident("tm"))
    theories: list[Theory] = []
    consts: list[Ident] = []      # non-statement decls, usable inside terms
    stmts: list[Ident] = []       # axiom/theorem idents, usable in DependsOn
    per_theory_consts: dict[Ident, list[Ident]] = {}

    def term(depth: int = 3) -> Term:
        t = gen_scoped(rng, 0, depth, tuple(consts) or fallback)
        return _nasty_hints(rng, t) if rng.random() < 0.5 else t

    for i in range(rng.randint(1, 4)):
        module = f"m{i}"
        tname = theory_ident(ns, module)
        includes = tuple(t.name for t in theories if rng.random() < 0.3)
        meta = HOL_CHURCH if rng.random() < 0.4 else None
        decls: list[Declaration] = []
        mine: list[Ident] = []
        for j in range(rng.randint(0, 5)):
            local = rng.choice([f"d{j}", f"d{j}'", f"d {j}", f"δ{j}"])
            name = Ident(ns, module, local)
            kind = rng.choice(
                ["type", "constant", "constant", "definition", "axiom", "theorem", "patternInstance"]
            )
            md = _gen_metadata(rng, kind, consts + stmts)
            if kind == "type":
                d = Declaration(name, tp=TypeKind(), meta=md)
            elif kind == "constant":
                d = Declaration(name, tp=term(), meta=md)
            elif kind == "definition":
                tp = term(2) if rng.random() < 0.5 else None
                d = Declaration(name, tp=tp, definiens=term(), meta=md)
            elif kind == "axiom":
                proof = Omitted() if rng.random() < 0.7 else None
                d = Declaration(name, tp=term(), proof=proof, meta=md)
                stmts.append(name)
            elif kind == "theorem":
                style = rng.random()
                if style < 0.4 and stmts:
                    k = rng.randint(0, min(3, len(stmts)))
                    proof = DependsOn(tuple(rng.sample(stmts, k)))
                elif style < 0.7:
                    proof = ProofTerm(term(2))
                else:
                    proof = Omitted()
                d = Declaration(name, tp=term(), proof=proof, meta=md)
                stmts.append(name)
            else:
                d = Declaration(name, tp=term(2), meta=md)
            decls.append(d)
            if kind not in ("axiom", "theorem"):
                consts.append(name)
                mine.append(name)
        theories.append(Theory(tname, meta_theory=meta, includes=includes, decls=tuple(decls)))
        per_theory_consts[tname] = mine

    morphisms: list[Morphism] = []
    for k in range(rng.randint(0, 2)):
        if not theories:
            break
        source = rng.choice(theories).name
        target = rng.choice(theories).name
        pool = per_theory_consts[source]
        count = rng.randint(0, len(pool))
        assigned = rng.sample(pool, count)
        morphisms.append(
            Morphism(
                Ident(ns, "morphs", f"mor{k}"),
                source,
                target,
                tuple((c, term(2)) for c in assigned),
            )
        )
    return Library(ns, tuple(theories), tuple(morphisms), deps=(logic_library(),))


def gen_dep_library(rng: random.Random, max_decls: int = 200) -> Library:
    """A single theory whose declarations form a random dependency DAG.

    Types mention earlier constants (uses edges), theorems depend on
    earlier statements (justifiedBy edges). Nothing here typechecks;
    the ontology layer never looks that deep.
    """
    ns = "lib://deps"
    n = rng.randint(1, max_decls)
    consts: list[Ident] = []
    stmts: list[Ident] = []
    decls: list[Declaration] = []
    for i in range(n):
        name = Ident(ns, "d", f"n{i}")
        tp: Term = TypeKind()
        for c in rng.sample(consts, rng.randint(0, min(3, len(consts)))):
            tp = Apply(tp, Const(c))
        roll = rng.random()
        if roll < 0.45 or not stmts:
            decls.append(Declaration(name, tp=tp, meta=Metadata(kind="constant")))
            consts.append(name)
        elif roll < 0.7:
            decls.append(
                Declaration(name, tp=tp, proof=Omitted(), meta=Metadata(kind="axiom"))
            )
            stmts.append(name)
        else:
            deps = tuple(rng.sample(stmts, rng.randint(1, min(4, len(stmts)))))
            decls.append(
                Declaration(
                    name, tp=tp, proof=DependsOn(deps), meta=Metadata(kind="theorem")
                )
            )
            stmts.append(name)
    return Library(ns, (Theory(theory_ident(ns, "d"), decls=tuple(decls)),))
