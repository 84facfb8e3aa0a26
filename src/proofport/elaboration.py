"""Structured declarations above the kernel: declaration patterns.

Declaration patterns are substitution templates. A pattern binds a
parameter context and carries a body of template declarations; an
instance supplies one argument per parameter and elaborates into
ordinary declarations, so higher-level definition principles (type
definitions, function definitions) stay declarative and checkable.
"""

from __future__ import annotations

from typing import Iterable

from .errors import ArityMismatch, CheckError, Mismatch, UnknownIdent
from .kernel import (
    DEFAULT_CONFIG,
    Config,
    Const,
    Context,
    Declaration,
    Ident,
    Library,
    Record,
    Term,
    check,
    map_consts,
    replace,
    substitute,
)


class Pattern(Record):
    """A parameterized family of declarations.

    Template types and definientia may reference the parameters through
    Vars (innermost parameter = index 0) and each other through Consts
    of the template names.
    """

    __match_args__ = _fields = ("name", "params", "body")

    def __init__(self, name: Ident, params: Context, body: Iterable[Declaration]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "body", tuple(body))
        locals_ = [d.name.name for d in self.body]
        if len(set(locals_)) != len(locals_):
            raise ValueError(f"{name}: duplicate template names")


class PatternInstance(Record):
    __match_args__ = _fields = ("name", "pattern", "args")

    def __init__(self, name: Ident, pattern: Ident, args: Iterable[Term]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "args", tuple(args))


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
