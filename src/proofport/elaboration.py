"""Structured declarations above the kernel: patterns and schemas.

Declaration patterns are substitution templates. A pattern binds a
parameter context and carries a body of template declarations; an
instance supplies one argument per parameter and elaborates into
ordinary declarations, so higher-level definition principles (type
definitions, function definitions) stay declarative and checkable.

Schematic declarations capture toplevel implicit binding: a statement
with free schematic variables is either closed by an explicit Pi prefix
or expanded into ground substitution instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ArityMismatch, ArityUnsupported, CheckError, Mismatch, UnknownIdent
from .kernel import (
    DEFAULT_CONFIG,
    Config,
    Const,
    Context,
    Declaration,
    Ident,
    Library,
    Pi,
    Term,
    check,
    map_consts,
    substitute,
)


@dataclass(frozen=True)
class Pattern:
    """A parameterized family of declarations.

    Template types and definientia may reference the parameters through
    Vars (innermost parameter = index 0) and each other through Consts
    of the template names.
    """

    name: Ident
    params: Context
    body: tuple[Declaration, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        locals_ = [d.name.name for d in self.body]
        if len(set(locals_)) != len(locals_):
            raise ValueError(f"{self.name}: duplicate template names")


@dataclass(frozen=True)
class PatternInstance:
    name: Ident
    pattern: Ident
    args: tuple[Term, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class SchematicDecl:
    """A statement with implicitly bound toplevel variables."""

    schematic_vars: Context
    statement: Term


def elaborate_pattern(
    lib: Library,
    inst: PatternInstance,
    patterns: dict[Ident, Pattern],
    config: Config = DEFAULT_CONFIG,
) -> list[Declaration]:
    """Expand a pattern instance into plain declarations.

    Each template comes back with the instance arguments substituted for
    the parameters and sibling references renamed to the generated
    names `inst.name/templateName`. Generated declarations are marked
    kind=patternInstance with an origin pointing back at the instance.
    """
    pat = patterns.get(inst.pattern)
    if pat is None:
        raise UnknownIdent(f"pattern {inst.pattern}")
    params = list(pat.params)
    if len(inst.args) != len(params):
        raise ArityMismatch(
            f"{pat.name} takes {len(params)} argument(s), got {len(inst.args)}"
        )
    for i, (binding, arg) in enumerate(zip(params, inst.args)):
        ptp = binding.tp
        # param types see earlier params; close them with the earlier args
        for earlier in reversed(inst.args[:i]):
            ptp = substitute(ptp, 0, earlier)
        try:
            check(lib, Context(), arg, ptp, config)
        except Mismatch:
            raise
        except CheckError as err:
            raise Mismatch(f"argument {i} of {inst.name}: {err}") from err

    renames = {
        tmpl.name: Ident(
            inst.name.namespace, inst.name.module, f"{inst.name.name}/{tmpl.name.name}"
        )
        for tmpl in pat.body
    }

    def expand(t: Term | None) -> Term | None:
        if t is None:
            return None
        for arg in reversed(inst.args):
            t = substitute(t, 0, arg)
        return map_consts(t, lambda c: Const(renames[c]) if c in renames else None)

    out = []
    for tmpl in pat.body:
        meta = replace(tmpl.meta, kind="patternInstance", origin=inst.name)
        out.append(
            Declaration(
                renames[tmpl.name],
                tp=expand(tmpl.tp),
                definiens=expand(tmpl.definiens),
                meta=meta,
            )
        )
    return out


def close_toplevel(sd: SchematicDecl) -> Term:
    """Wrap the statement in one Pi per schematic variable, outermost first."""
    t = sd.statement
    for binding in reversed(list(sd.schematic_vars)):
        t = Pi(binding.hint, binding.tp, t)
    return t


def ground_instances(
    sd: SchematicDecl, candidates: list[Term], limit: int
) -> list[Term]:
    """Instantiate a one-variable schema at up to `limit` candidates.

    Deterministic in candidate order. Candidates are assumed closed and
    well-typed at the schematic variable's type.
    """
    if len(sd.schematic_vars) != 1:
        raise ArityUnsupported(
            f"ground instantiation handles exactly one schematic variable, "
            f"got {len(sd.schematic_vars)}"
        )
    return [substitute(sd.statement, 0, c) for c in candidates[:limit]]
