"""Theory morphisms: assignment checking, homomorphic translation, and
installation of translated theorems as a new theory.

A morphism maps the primitive constants of a source theory to terms
over a target theory sharing the same logic encoding. Defined constants
need no assignment (their definiens is translated); constants of the
shared meta-theory always map to themselves. Statement declarations
(axioms, theorems) are not assigned either: their statements are what
`translate` moves, and `install_morphism` records the provenance.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterable, Optional

from .errors import CheckError, Mismatch, NotTyped, UnassignedConstant, UnknownIdent
from .kernel import (
    CheckReport,
    CheckResult,
    Config,
    Const,
    Context,
    DEFAULT_CONFIG,
    Declaration,
    DependsOn,
    Ident,
    Library,
    Metadata,
    Record,
    STATEMENT_KINDS,
    Term,
    Theory,
    check,
    flatten,
    map_consts,
    theory_ident,
)


class Morphism(Record):
    """`source` and `target` name theories; `assignments` maps source
    constants to closed terms over the target."""

    __match_args__ = _fields = ("name", "source", "target", "assignments")

    def __init__(
        self, name: Ident, source: Ident, target: Ident,
        assignments: Iterable[tuple[Ident, Term]] = (),
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "assignments", tuple(assignments))
        seen = set()
        for c, _ in self.assignments:
            if c in seen:
                raise ValueError(f"{name}: duplicate assignment for {c}")
            seen.add(c)


def _domain(lib: Library, m: Morphism) -> dict[Ident, Declaration]:
    if lib.find_theory(m.source) is None:
        raise UnknownIdent(f"source theory {m.source}")
    if lib.find_theory(m.target) is None:
        raise UnknownIdent(f"target theory {m.target}")
    return {d.name: d for d in flatten(lib, m.source)}


def _translator(m: Morphism, domain: dict[Ident, Declaration]) -> Callable[[Term], Term]:
    """Translation along `m` over its `_domain`, each definition translated once.

    The images are filled in `flatten` order, so a definiens meets only
    images already made and no call stack runs along a chain of
    definitions; splicing the shared images keeps the result a DAG of
    linear size. A constant whose image cannot be made (an unassigned
    primitive, or a definition that uses its own or a later domain
    declaration) stores its CheckError without a traceback; each use
    raises a copy, so no stored error reaches a frame that holds `image`.
    """
    image: dict[Ident, Optional[Term] | CheckError] = dict(m.assignments)
    pending = domain.keys() - image.keys()

    def fn(c: Ident) -> Optional[Term]:
        img = image.get(c)
        if isinstance(img, CheckError):
            raise copy.copy(img)
        if img is None and c in pending:
            raise UnknownIdent(f"{c} is used before its declaration")
        return img

    for c, d in domain.items():
        if c in image:  # assigned
            continue
        try:
            if d.definiens is not None:
                img = map_consts(d.definiens, fn)
            elif d.meta.kind in STATEMENT_KINDS:
                img = None
            else:
                raise UnassignedConstant(str(c))
        except CheckError as err:
            img = err.with_traceback(None)
        image[c] = img
        pending.discard(c)
    return lambda t: map_consts(t, fn)


def translate(lib: Library, m: Morphism, t: Term) -> Term:
    """Homomorphic image of `t` under `m`.

    Constants with an assignment are replaced by it, defined domain
    constants by the translation of their definiens, and everything
    outside the domain (the logic encoding in particular) stays put.
    """
    return _translator(m, _domain(lib, m))(t)


def check_morphism(lib: Library, m: Morphism, config: Config = DEFAULT_CONFIG) -> CheckReport:
    """Typing condition, reported per assigned constant.

    Each assignment for c : A must check against translate(A) in the
    target; primitive non-statement domain constants without an
    assignment are reported as gaps.
    """
    domain = _domain(lib, m)
    go = _translator(m, domain)
    results: list[CheckResult] = []
    for c, term in m.assignments:
        try:
            d = domain.get(c)
            if d is None:
                raise UnknownIdent("not a source constant")
            if d.tp is None:
                raise NotTyped("assigned constant has no type")
            check(lib, Context(), term, go(d.tp), config)
            results.append(CheckResult(c, True))
        except CheckError as err:  # collected, not raised
            results.append(CheckResult.failed(c, err))
    asg = dict(m.assignments)
    for c, d in domain.items():
        if c in asg or d.definiens is not None or d.meta.kind in STATEMENT_KINDS:
            continue
        results.append(CheckResult.failed(c, UnassignedConstant(f"{c} has no assignment")))
    return CheckReport(tuple(results))


def install_morphism(lib: Library, m: Morphism, config: Config = DEFAULT_CONFIG) -> Theory:
    """The conservative extension T_m induced by `m`.

    A new theory including the target, holding for each source theorem
    `th` a translated statement named `m/th` justified by DependsOn on
    the original theorem and the morphism itself. The caller registers
    the morphism on the library so those justifications resolve.
    """
    report = check_morphism(lib, m, config)
    if not report.ok:
        first = report.failures[0]
        raise Mismatch(f"morphism {m.name} does not check: {first.subject}: {first.message}")
    target = lib.find_theory(m.target)
    domain = _domain(lib, m)
    go = _translator(m, domain)
    name = theory_ident(m.name.namespace, m.name.name)
    decls = []
    for d in domain.values():
        if d.meta.kind != "theorem" or d.tp is None:
            continue
        decls.append(
            Declaration(
                Ident(name.namespace, name.module, f"{m.name.name}/{d.name.name}"),
                tp=go(d.tp),
                proof=DependsOn((d.name, m.name)),
                meta=Metadata(kind="theorem", origin=m.name),
            )
        )
    try:
        return Theory(name, meta_theory=target.meta_theory, includes=(m.target,), decls=decls)
    except ValueError as err:  # two source theorems of one local name
        raise Mismatch(f"morphism {m.name} cannot be installed: {err}") from None


def compose(
    lib: Library, m2: Morphism, m1: Morphism, name: Optional[Ident] = None
) -> Morphism:
    """m2 after m1: assignment-wise translation through m2."""
    if m1.target != m2.source:
        raise Mismatch(f"{m1.name} targets {m1.target}, {m2.name} starts at {m2.source}")
    if name is None:
        name = Ident(
            m1.name.namespace,
            m1.name.module,
            f"{m1.name.name}_then_{m2.name.name}",
        )
    go = _translator(m2, _domain(lib, m2))
    assignments = tuple((c, go(t)) for c, t in m1.assignments)
    return Morphism(name, m1.source, m2.target, assignments)


def identity_morphism(lib: Library, th: Ident, name: Optional[Ident] = None) -> Morphism:
    """The identity on `th`: every primitive constant maps to itself."""
    if name is None:
        name = Ident(th.namespace, th.module, f"id_{th.name}")
    assignments = []
    for d in flatten(lib, th):
        if d.definiens is None and d.meta.kind not in STATEMENT_KINDS:
            assignments.append((d.name, Const(d.name)))
    return Morphism(name, th, th, tuple(assignments))
