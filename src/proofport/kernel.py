"""The logical-framework kernel.

Terms form a dependently typed lambda calculus with one kind (`type`)
plus predicate subtypes. Bound variables are de Bruijn indices, so
alpha-equivalent terms are structurally identical; binder name hints are
carried for printing only and never participate in equality.

The operational core is substitution, weak head normalization (beta,
definiens unfolding, and the subtype computation rule), definitional
equality (beta-delta-eta with witness-irrelevant SubIn), and a
bidirectional checker. Theories bundle declarations; libraries bundle
theories and morphisms and may register dependency libraries for
cross-library resolution.

All values here are immutable after construction and safe to share,
except a Scope: what one theory sees while it is built, which grows
with each declaration added to it. No value refers to itself, directly
or through others, so reference counting frees each one.

Readers share equal subterms through `Terms`, the one hash-consing
factory: `omdoc.parse` makes one per document and each import one per
call, so the equal subterms, hints included, of one document or one
import are one node. `infer` relies on that: it memoizes the type of
each closed application by the node's identity, on the Library or Scope
asked, and a node built outside the factory only misses. An entry holds
its node, so the id cannot be reused while the entry lives; it holds
the Config it was inferred under and serves no other; and only a
successful inference is stored. A Library never changes, so its entries
stay true; a Scope only grows, which keeps every success a success,
and `Scope.add`'s undo clears the Scope's entries. The Scopes of one
import share one memo, as the theories of a Library do: a constant is
the same declaration in every theory that sees it, and what a theory
sees is checked apart from `infer`.

The hot path has one dispatch idiom. `rebuild`, `constants_of` and the
checker's per-node functions (`whnf`, `equal`, `infer`, `check`,
`check_kind`) test `type(t) is C`, most frequent class first, and read
each class's fields by name. No class subclasses a term node, so this
matches what a structural `match` would, at a fraction of its cost. Only
the message printer `_fmt` and the per-declaration proof still `match`.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Union

from .errors import (
    CheckError,
    Cycle,
    Mismatch,
    NotAFunction,
    NotTyped,
    ReductionDepthExceeded,
    SubtypeWitnessMissing,
    UnknownIdent,
)

# ---------------------------------------------------------------------------
# records


_set = object.__setattr__  # how a constructor sets each field, once


class Record:
    """Base of the immutable records of every module.

    `_fields` are the constructor's parameters in order: `repr` shows
    them, `==` (within one class) and `hash` compare them, and `replace`
    passes them back, with `_extra`, the parameters `==` ignores.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _fields: tuple[str, ...] = ()
    _extra: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{type(self).__qualname__}({args})"

    def __setstate__(self, state: object) -> None:
        # `copy` and `pickle` pass a slotted record's fields as `(None, fields)`
        for name, value in (state[1] if isinstance(state, tuple) else state).items():
            _set(self, name, value)


def replace(obj: Record, **changes: object) -> Record:
    """`obj` with `changes` to its fields, built, and so checked, by its constructor."""
    for f in obj._fields + obj._extra:
        changes.setdefault(f, getattr(obj, f))
    return type(obj)(**changes)


# ---------------------------------------------------------------------------
# identifiers


class _IdentFields(NamedTuple):
    namespace: str
    module: str
    name: str


class Ident(_IdentFields):
    """Fully qualified name: namespace, module, local name.

    Rendered as ``namespace?module?name``; no component may be empty or
    contain the separator. A named tuple, so `hash` and `==` are the
    plain tuple's, computed in C: identifiers are the keys of every
    kernel index and memo. It equals the tuple of its three parts, and
    it iterates and orders as that tuple does.
    """

    __slots__ = ()
    _extra: tuple[str, ...] = ()  # `replace` passes only the fields

    def __new__(cls, namespace: str, module: str, name: str) -> "Ident":
        for part in (namespace, module, name):
            if not part:
                raise ValueError("identifier components must be nonempty")
            if "?" in part:
                raise ValueError(f"identifier component contains '?': {part!r}")
        return tuple.__new__(cls, (namespace, module, name))

    @classmethod
    def _make(cls, parts: Iterable[str]) -> "Ident":
        # the named tuple's `_make`, which `_replace` calls, skips `__new__`
        return cls(*parts)

    def __str__(self) -> str:
        return "?".join(self)

    @classmethod
    def parse(cls, text: str) -> "Ident":
        parts = text.split("?")
        if len(parts) != 3:
            raise ValueError(f"not an identifier: {text!r}")
        return cls(*parts)


def theory_ident(namespace: str, name: str) -> Ident:
    """Identifier of a theory: module and local name coincide."""
    return Ident(namespace, name, name)


# ---------------------------------------------------------------------------
# terms


# Term nodes are slotted, and each writes its `__init__` and `==` out, so
# that neither costs an extra call. No command hashes a term, so only a
# Lambda and a Pi, whose hint takes no part, write `hash` out.


class Term(Record):
    """Base class for framework terms.

    `loose` is one more than the largest de Bruijn index free in the
    term, or 0 when it is closed. It is computed once, when the node is
    built; Const and TypeKind keep the class-level 0.
    """

    __slots__ = ()
    loose = 0


class Const(Term):
    __slots__ = ("ident",)
    __match_args__ = _fields = ("ident",)
    __hash__ = Record.__hash__

    def __init__(self, ident: Ident) -> None:
        _set(self, "ident", ident)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.ident,) == (other.ident,)
        return NotImplemented


class Var(Term):
    __slots__ = ("index", "loose")
    __match_args__ = _fields = ("index",)
    __hash__ = Record.__hash__

    def __init__(self, index: int) -> None:
        if index < 0:
            raise ValueError("de Bruijn index must be nonnegative")
        _set(self, "index", index)
        _set(self, "loose", index + 1)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.index,) == (other.index,)
        return NotImplemented


class Apply(Term):
    __slots__ = ("fn", "arg", "loose")
    __match_args__ = _fields = ("fn", "arg")
    __hash__ = Record.__hash__

    def __init__(self, fn: Term, arg: Term) -> None:
        _set(self, "fn", fn)
        _set(self, "arg", arg)
        a, b = fn.loose, arg.loose
        _set(self, "loose", a if a >= b else b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.fn, self.arg) == (other.fn, other.arg)
        return NotImplemented


class Lambda(Term):
    __slots__ = ("hint", "dom", "body", "loose")
    __match_args__ = _fields = ("hint", "dom", "body")

    def __init__(self, hint: str, dom: Term, body: Term) -> None:
        _set(self, "hint", hint)
        _set(self, "dom", dom)
        _set(self, "body", body)
        a, b = dom.loose, body.loose - 1
        _set(self, "loose", a if a >= b else b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.dom, self.body) == (other.dom, other.body)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dom, self.body))


class Pi(Term):
    __slots__ = ("hint", "dom", "cod", "loose")
    __match_args__ = _fields = ("hint", "dom", "cod")

    def __init__(self, hint: str, dom: Term, cod: Term) -> None:
        _set(self, "hint", hint)
        _set(self, "dom", dom)
        _set(self, "cod", cod)
        a, b = dom.loose, cod.loose - 1
        _set(self, "loose", a if a >= b else b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.dom, self.cod) == (other.dom, other.cod)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dom, self.cod))


class TypeKind(Term):
    """The kind `type`. It classifies types and has itself no type."""

    __slots__ = ()


class SubType(Term):
    """Predicate subtype: elements of `base` satisfying `pred`."""

    __slots__ = ("base", "pred", "loose")
    __match_args__ = _fields = ("base", "pred")
    __hash__ = Record.__hash__

    def __init__(self, base: Term, pred: Term) -> None:
        _set(self, "base", base)
        _set(self, "pred", pred)
        a, b = base.loose, pred.loose
        _set(self, "loose", a if a >= b else b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.base, self.pred) == (other.base, other.pred)
        return NotImplemented


class SubIn(Term):
    """Introduce into a subtype: an element paired with a witness."""

    __slots__ = ("elem", "witness", "loose")
    __match_args__ = _fields = ("elem", "witness")
    __hash__ = Record.__hash__

    def __init__(self, elem: Term, witness: Term) -> None:
        _set(self, "elem", elem)
        _set(self, "witness", witness)
        a, b = elem.loose, witness.loose
        _set(self, "loose", a if a >= b else b)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.elem, self.witness) == (other.elem, other.witness)
        return NotImplemented


class SubOut(Term):
    """Project the underlying element out of a subtype."""

    __slots__ = ("elem", "loose")
    __match_args__ = _fields = ("elem",)
    __hash__ = Record.__hash__

    def __init__(self, elem: Term) -> None:
        _set(self, "elem", elem)
        _set(self, "loose", elem.loose)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.elem,) == (other.elem,)
        return NotImplemented


def apps(fn: Term, *args: Term) -> Term:
    """Left-nested application spine."""
    for a in args:
        fn = Apply(fn, a)
    return fn


def fn_type(dom: Term, cod: Term) -> Pi:
    """Non-dependent function type: `cod` is shifted under the new binder."""
    return Pi("_", dom, shift(cod, 1))


class Terms:
    """The hash-consing term factory (Filliâtre and Conchon, "Type-Safe
    Modular Hash-Consing", ML Workshop 2006).

    It returns one node per distinct term built through it, hints
    included: a Const per identifier, a Var per index, an Apply per pair
    of children's ids, and any other node per class, hint and children's
    ids. The ids stay valid because each node the table keeps keeps its
    children alive. A child built elsewhere is taken as it is, so a node
    is shared only as far as its children are. One Terms serves one
    document or one import and goes with it.
    """

    __slots__ = ("_nodes",)

    def __init__(self) -> None:
        self._nodes: dict = {}

    def const(self, ident: Ident) -> Const:
        c = self._nodes.get(ident)
        if c is None:
            c = self._nodes[ident] = Const(ident)
        return c

    def named(self, text: str) -> Const:
        """The constant of the identifier written `text`, keyed by the text
        too, so each distinct text is parsed once; a ValueError if `text`
        is not an identifier."""
        c = self._nodes.get(text)
        if c is None:
            c = self._nodes[text] = self.const(Ident.parse(text))
        return c

    def var(self, index: int) -> Var:
        v = self._nodes.get(index)
        if v is None:
            v = self._nodes[index] = Var(index)
        return v

    def apps(self, fn: Term, *args: Term) -> Term:
        """The left-nested application spine of `fn` to `args`."""
        nodes = self._nodes
        for a in args:
            key = (id(fn), id(a))
            t = nodes.get(key)
            if t is None:
                t = nodes[key] = Apply(fn, a)
            fn = t
        return fn

    def node(self, cls: type, hint: Optional[str], *parts: Term) -> Term:
        """The `cls` node of `parts`, other than an Apply; `hint` is a
        Lambda's or Pi's binder name and None for the other classes."""
        key = (cls, hint, *map(id, parts))
        t = self._nodes.get(key)
        if t is None:
            t = self._nodes[key] = cls(*parts) if hint is None else cls(hint, *parts)
        return t


# ---------------------------------------------------------------------------
# proofs, metadata, declarations


class Omitted(Record):
    """No proof was exported."""


class DependsOn(Record):
    """Dependency-only proof: the statements this one relies on."""

    __match_args__ = _fields = ("ids",)

    def __init__(self, ids: Iterable[Ident]) -> None:
        _set(self, "ids", tuple(ids))
        if len(set(self.ids)) != len(self.ids):
            raise ValueError("dependency list contains duplicates")


class ProofTerm(Record):
    __match_args__ = _fields = ("term",)

    def __init__(self, term: Term) -> None:
        _set(self, "term", term)


Proof = Union[Omitted, DependsOn, ProofTerm]


class SourceRef(Record):
    """1-based physical location of a declaration in its source file."""

    __match_args__ = _fields = ("file", "start_line", "start_col", "end_line", "end_col")

    def __init__(
        self, file: str, start_line: int, start_col: int, end_line: int, end_col: int
    ) -> None:
        if any(p < 1 for p in (start_line, start_col, end_line, end_col)):
            raise ValueError("source positions are 1-based")
        if (start_line, start_col) > (end_line, end_col):
            raise ValueError("source range end precedes start")
        _set(self, "file", file)
        _set(self, "start_line", start_line)
        _set(self, "start_col", start_col)
        _set(self, "end_line", end_line)
        _set(self, "end_col", end_col)


KINDS = ("type", "constant", "definition", "axiom", "theorem", "patternInstance")
STATEMENT_KINDS = ("axiom", "theorem", "patternInstance")


class Metadata(Record):
    """Non-logical attributes of a declaration.

    `origin` points back to the source record a generated declaration came
    from, such as the toyset definition that `name/fn` and `name/def`
    expand.
    """

    __match_args__ = _fields = ("kind", "source_ref", "comments", "notation", "origin")

    def __init__(
        self, kind: str, source_ref: Optional[SourceRef] = None, comments: Iterable[str] = (),
        notation: Optional[str] = None, origin: Optional[Ident] = None,
    ) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown declaration kind {kind!r}")
        _set(self, "kind", kind)
        _set(self, "source_ref", source_ref)
        _set(self, "comments", tuple(comments))
        _set(self, "notation", notation)
        _set(self, "origin", origin)


class Declaration(Record):
    """A named constant with an optional type, definiens, and proof."""

    _fields = ("name", "tp", "definiens", "proof", "meta")
    __match_args__ = _fields[:4]

    def __init__(
        self, name: Ident, tp: Optional[Term] = None, definiens: Optional[Term] = None,
        proof: Optional[Proof] = None, *, meta: Metadata,
    ) -> None:
        _set(self, "name", name)
        _set(self, "tp", tp)
        _set(self, "definiens", definiens)
        _set(self, "proof", proof)
        _set(self, "meta", meta)
        if tp is None and definiens is None:
            raise ValueError(f"{name}: needs a type or a definiens")
        kind = meta.kind
        if kind == "theorem" and proof is None:
            raise ValueError(f"{name}: a theorem carries a proof")
        if proof is not None:
            if kind == "axiom" and not isinstance(proof, Omitted):
                raise ValueError(f"{name}: an axiom may only omit its proof")
            if kind not in ("axiom", "theorem"):
                raise ValueError(f"{name}: kind {kind!r} carries no proof")


def _index(items: Iterable, what: str) -> dict[Ident, object]:
    """`items` by name; a repeated name is a ValueError."""
    index = {}
    for x in items:
        if x.name in index:
            raise ValueError(f"duplicate {what} {x.name}")
        index[x.name] = x
    return index


class Theory(Record):
    """Declarations under one theory name; no two share a name, and each
    names this theory: theory `ns?T?T` holds `ns?T?x` and no `ns?U?x`."""

    __match_args__ = _fields = ("name", "meta_theory", "includes", "decls")

    def __init__(
        self, name: Ident, meta_theory: Optional[Ident] = None,
        includes: Iterable[Ident] = (), decls: Iterable[Declaration] = (),
    ) -> None:
        _set(self, "name", name)
        _set(self, "meta_theory", meta_theory)
        _set(self, "includes", tuple(includes))
        _set(self, "decls", tuple(decls))
        _set(self, "_decl_index", _index(self.decls, "declaration"))
        for d in self.decls:
            if d.name[:2] != name[:2]:
                raise ValueError(f"declaration {d.name} is not named in theory {name}")


class Library(Record):
    """A namespace of theories and morphisms.

    `deps` registers supporting libraries (typically the logic encodings)
    for identifier resolution; it is not part of the library's value and
    is left out of equality and repr.

    No two of a library's own theories share a name. Every lookup reads
    one table of theories or one of morphisms, each built on its first
    lookup from `libraries()` in order: a theory counts only in a library
    of its own namespace, and the first of a name wins. A library, its
    theories and their tuples are frozen, so the tables stay true.
    """

    __match_args__ = ("namespace", "theories", "morphisms", "deps")
    _fields, _extra = __match_args__[:3], ("deps",)

    # `morphisms` holds Morphism values; the type lives in morphisms.py
    def __init__(
        self, namespace: str, theories: Iterable[Theory] = (), morphisms: Iterable = (),
        deps: Iterable[Library] = (),
    ) -> None:
        _set(self, "namespace", namespace)
        _set(self, "theories", tuple(theories))
        _set(self, "morphisms", tuple(morphisms))
        _set(self, "deps", tuple(deps))
        _index(self.theories, "theory")

    def libraries(self) -> Iterator["Library"]:
        """This library and its registered dependencies, each once."""
        seen: set[int] = set()
        stack: list[Library] = [self]
        while stack:
            lib = stack.pop()
            if id(lib) in seen:
                continue
            seen.add(id(lib))
            yield lib
            stack.extend(lib.deps)

    @cached_property
    def _theories(self) -> dict[Ident, Theory]:
        table: dict[Ident, Theory] = {}
        for lib in self.libraries():
            for th in lib.theories:
                if th.name.namespace == lib.namespace:
                    table.setdefault(th.name, th)
        return table

    @cached_property
    def _morphisms(self) -> dict[Ident, object]:
        table: dict[Ident, object] = {}
        for lib in self.libraries():
            for m in lib.morphisms:
                table.setdefault(m.name, m)
        return table

    @cached_property
    def _infer_memo(self) -> dict[int, tuple[Term, Config, Term]]:
        return {}

    def find_theory(self, ident: Ident) -> Optional[Theory]:
        return self._theories.get(ident)

    def find_decl(self, ident: Ident) -> Optional[Declaration]:
        ns, module, _ = ident  # names its theory `ns?module?module`, see Theory
        th = self._theories.get((ns, module, module))
        return None if th is None else th._decl_index.get(ident)

    def find_morphism(self, ident: Ident):
        return self._morphisms.get(ident)


class Config(Record):
    """Checker settings, shared by every stage that type-checks."""

    __match_args__ = _fields = ("eta_enabled", "reduction_budget")

    def __init__(self, eta_enabled: bool = True, reduction_budget: int = 100000) -> None:
        _set(self, "eta_enabled", eta_enabled)
        _set(self, "reduction_budget", reduction_budget)


DEFAULT_CONFIG = Config()


# ---------------------------------------------------------------------------
# traversal and substitution


def rebuild(
    t: Term, leaf: Callable[[Term, int], Term], k: int = 0, free_only: bool = False
) -> Term:
    """Rebuild `t` with every Var and Const node replaced by leaf(node, j).

    `j` is `k` plus the number of binders between the root and the node.
    A node whose children all come back unchanged (`is`) is returned
    itself, so a leaf that changes nothing returns `t` without a copy.
    With `free_only`, the leaf changes only a Var whose index is at least
    its `j`; a subterm whose `loose` range is at most its `k` holds no
    such Var and is returned at once, without visiting it.

    It uses the hot path's dispatch idiom (see the module docstring):
    this is the kernel's hottest function, and with a structural `match`
    `shift` took about 2.5 times as long.
    """
    if free_only and t.loose <= k:
        return t
    cls = type(t)
    if cls is Apply:
        x, y = t.fn, t.arg
    elif cls is Const or cls is Var:
        return leaf(t, k)
    elif cls is Lambda or cls is Pi:
        d = t.dom
        b = t.body if cls is Lambda else t.cod
        d2 = rebuild(d, leaf, k, free_only)
        b2 = rebuild(b, leaf, k + 1, free_only)
        return t if d2 is d and b2 is b else cls(t.hint, d2, b2)
    elif cls is SubType:
        x, y = t.base, t.pred
    elif cls is SubIn:
        x, y = t.elem, t.witness
    elif cls is SubOut:
        e = t.elem
        e2 = rebuild(e, leaf, k, free_only)
        return t if e2 is e else SubOut(e2)
    else:
        return t
    x2 = rebuild(x, leaf, k, free_only)
    y2 = rebuild(y, leaf, k, free_only)
    return t if x2 is x and y2 is y else cls(x2, y2)


def shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Add `by` to every free index at or above `cutoff`."""

    def leaf(node: Var, k: int) -> Term:
        return Var(node.index + by)

    return rebuild(t, leaf, cutoff, True)


def substitute(t: Term, depth: int, s: Term) -> Term:
    """Replace Var(depth) by `s` in `t`.

    Free indices above `depth` decrement (the binder at `depth` is
    consumed); `s` is shifted as it moves under binders. This is exactly
    the beta contraction when called with depth 0 on a redex body.
    A closed `s` moves under binders unchanged, in O(1).
    """

    def leaf(node: Var, k: int) -> Term:
        if node.index == k:
            return shift(s, k - depth)
        return Var(node.index - 1)

    return rebuild(t, leaf, depth, True)


def map_consts(t: Term, fn) -> Term:
    """Rebuild `t`, replacing Const(c) by fn(c) wherever fn(c) is not None.

    Replacement terms must be closed; they are spliced in without index
    adjustment.
    """

    def leaf(node: Term, k: int) -> Term:
        repl = fn(node.ident) if isinstance(node, Const) else None
        return node if repl is None else repl

    return rebuild(t, leaf)


def constants_of(t: Term) -> list[Ident]:
    """All constant identifiers in `t`, left to right, with repeats.

    It walks an explicit stack, children pushed right to left, so a term
    nested past the recursion limit costs no Python frame per level.
    """
    out: list[Ident] = []
    stack = [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is Apply:
            stack += (t.arg, t.fn)
        elif cls is Const:
            out.append(t.ident)
        elif cls is Lambda:
            stack += (t.body, t.dom)
        elif cls is Pi:
            stack += (t.cod, t.dom)
        elif cls is SubType:
            stack += (t.pred, t.base)
        elif cls is SubIn:
            stack += (t.witness, t.elem)
        elif cls is SubOut:
            stack.append(t.elem)
    return out


# ---------------------------------------------------------------------------
# reduction and equality

_SUBOUT = object()  # spine marker: the position under a SubOut eliminator


def whnf(lib: Library | Scope, t: Term, config: Config = DEFAULT_CONFIG) -> Term:
    """Weak head normal form.

    Reduces beta redexes, unfolds constants with a definiens, and
    cancels SubOut(SubIn(t, p)) to t, until the head is stuck. Raises
    ReductionDepthExceeded past the configured step budget.
    """
    budget = config.reduction_budget
    steps = 0
    spine: list = []  # arguments and _SUBOUT markers, innermost last
    head = t
    while True:
        cls = type(head)
        if cls is Apply:
            spine.append(head.arg)
            head = head.fn
        elif cls is Const:
            d = lib.find_decl(head.ident)
            if d is None or d.definiens is None:
                break
            steps += 1
            if steps > budget:
                raise ReductionDepthExceeded(f"no head normal form within {budget} steps")
            head = d.definiens
        elif cls is Lambda:
            if not spine or spine[-1] is _SUBOUT:
                break
            steps += 1
            if steps > budget:
                raise ReductionDepthExceeded(f"no head normal form within {budget} steps")
            head = substitute(head.body, 0, spine.pop())
        elif cls is SubOut:
            spine.append(_SUBOUT)
            head = head.elem
        elif cls is SubIn:
            if not spine or spine[-1] is not _SUBOUT:
                break
            steps += 1
            if steps > budget:
                raise ReductionDepthExceeded(f"no head normal form within {budget} steps")
            spine.pop()
            head = head.elem
        else:
            break
    while spine:
        e = spine.pop()
        head = SubOut(head) if e is _SUBOUT else Apply(head, e)
    return head


def equal(lib: Library | Scope, a: Term, b: Term, cfg: Config = DEFAULT_CONFIG) -> bool:
    """Definitional equality of `a` and `b` in `lib`: beta, delta (definiens
    unfolding), the subtype computation rule, eta when `cfg` enables it, and
    SubIn witness irrelevance. Bound variables are de Bruijn indices, so the
    answer needs no typing context."""
    if a is b or a == b:  # structural, hint-insensitive
        return True
    a = whnf(lib, a, cfg)
    b = whnf(lib, b, cfg)
    cls = type(a)
    if cls is type(b):
        if cls is Apply:
            return equal(lib, a.fn, b.fn, cfg) and equal(lib, a.arg, b.arg, cfg)
        if cls is Const:
            return a.ident == b.ident
        if cls is Pi:
            return equal(lib, a.dom, b.dom, cfg) and equal(lib, a.cod, b.cod, cfg)
        if cls is Var:
            return a.index == b.index
        if cls is Lambda:
            return equal(lib, a.dom, b.dom, cfg) and equal(lib, a.body, b.body, cfg)
        if cls is TypeKind:
            return True
        if cls is SubType:
            return equal(lib, a.base, b.base, cfg) and equal(lib, a.pred, b.pred, cfg)
        if cls is SubIn or cls is SubOut:
            return equal(lib, a.elem, b.elem, cfg)  # SubIn witnesses are irrelevant
    elif cfg.eta_enabled:
        if cls is Lambda:
            return equal(lib, a.body, Apply(shift(b, 1), Var(0)), cfg)
        if type(b) is Lambda:
            return equal(lib, Apply(shift(a, 1), Var(0)), b.body, cfg)
    return False


# ---------------------------------------------------------------------------
# typing


def is_kind(t: Term) -> bool:
    """Syntactic kinds: TypeKind, or a Pi telescope ending in TypeKind."""
    while isinstance(t, Pi):
        t = t.cod
    return isinstance(t, TypeKind)


def infer(
    lib: Library | Scope,
    ctx: tuple[Term, ...],
    t: Term,
    config: Config = DEFAULT_CONFIG,
) -> Term:
    """Synthesize the type of `t` under `ctx`, the types of the enclosing
    binders, innermost last.

    Binder domains are not sort-checked here; declaration-level checking
    (check_theory) enforces that declared classifiers are types or kinds.
    The type of a closed application does not depend on `ctx`; it is
    memoized (see the module docstring).
    """
    cls = type(t)
    if cls is Apply:
        closed = t.loose == 0
        if closed:
            memo = lib._infer_memo
            hit = memo.get(id(t))
            if hit is not None and (hit[1] is config or hit[1] == config):
                return hit[2]
        ft = whnf(lib, infer(lib, ctx, t.fn, config), config)
        if type(ft) is not Pi:
            raise NotAFunction(f"cannot apply a term of type {format_term(ft)}")
        check(lib, ctx, t.arg, ft.dom, config)
        tp = substitute(ft.cod, 0, t.arg)
        if closed:
            memo[id(t)] = (t, config, tp)
        return tp
    if cls is Const:
        d = lib.find_decl(t.ident)
        if d is None:
            raise UnknownIdent(str(t.ident))
        if d.tp is not None:
            return d.tp
        return infer(lib, (), d.definiens, config)
    if cls is Var:
        k = t.index
        if k >= len(ctx):
            raise NotTyped(f"unbound variable index {k}")
        return shift(ctx[-1 - k], k + 1)
    if cls is Pi:
        sort = infer(lib, ctx + (t.dom,), t.cod, config)
        if not equal(lib, sort, TypeKind(), config):
            raise Mismatch("Pi codomain is not a type")
        return TypeKind()
    if cls is Lambda:
        bt = infer(lib, ctx + (t.dom,), t.body, config)
        return Pi(t.hint, t.dom, bt)
    if cls is SubOut:
        et = whnf(lib, infer(lib, ctx, t.elem, config), config)
        if type(et) is not SubType:
            raise Mismatch(f"SubOut of a non-subtype: {format_term(et)}")
        return et.base
    if cls is SubType:
        b = t.base
        if not equal(lib, infer(lib, ctx, b, config), TypeKind(), config):
            raise Mismatch("subtype base is not a type")
        check(lib, ctx, t.pred, Pi("x", b, TypeKind()), config)
        return TypeKind()
    if cls is TypeKind:
        raise NotTyped("the kind 'type' has no type")
    if cls is SubIn:
        raise NotTyped("subtype introduction needs an expected subtype")
    raise NotTyped(f"cannot infer: {format_term(t)}")


def check(
    lib: Library | Scope,
    ctx: tuple[Term, ...],
    t: Term,
    expected: Term,
    config: Config = DEFAULT_CONFIG,
) -> None:
    """Check `t` against `expected` (which must itself classify)."""
    exp = whnf(lib, expected, config)
    cls = type(t)
    if cls is Lambda and type(exp) is Pi:
        # annotation and expected domain must agree definitionally
        d, pd = t.dom, exp.dom
        if not equal(lib, d, pd, config):
            q = clashing_names(d, pd)
            raise Mismatch(f"lambda domain {format_term(d, q)} vs expected {format_term(pd, q)}")
        check(lib, ctx + (pd,), t.body, exp.cod, config)
        return
    if cls is SubIn and type(exp) is SubType:
        e = t.elem
        check(lib, ctx, e, exp.base, config)
        check(lib, ctx, t.witness, whnf(lib, Apply(exp.pred, e), config), config)
        return
    actual = infer(lib, ctx, t, config)
    if equal(lib, actual, exp, config):
        return
    if isinstance(exp, SubType) and equal(lib, actual, exp.base, config):
        raise SubtypeWitnessMissing(
            f"term of base type {format_term(exp.base)} needs an explicit witness"
        )
    q = clashing_names(exp, actual)
    raise Mismatch(f"expected {format_term(exp, q)}, got {format_term(actual, q)}")


def check_kind(
    lib: Library | Scope,
    ctx: tuple[Term, ...],
    k: Term,
    config: Config = DEFAULT_CONFIG,
) -> None:
    """Validate a kind: a Pi telescope of proper types ending in TypeKind."""
    cls = type(k)
    if cls is TypeKind:
        return
    if cls is Pi:
        d = k.dom
        if not equal(lib, infer(lib, ctx, d, config), TypeKind(), config):
            raise Mismatch(f"kind domain is not a type: {format_term(d)}")
        check_kind(lib, ctx + (d,), k.cod, config)
        return
    raise NotTyped(f"not a kind: {format_term(k)}")


# ---------------------------------------------------------------------------
# theory checking


def flatten(lib: Library, th: Ident) -> list[Declaration]:
    """Depth-first include resolution with diamond deduplication.

    Each reachable theory's declarations appear exactly once, included
    theories in first-visit order, the named theory's own last.
    """
    order: list[Theory] = []
    done: set[Ident] = set()
    on_path: set[Ident] = set()
    path: list[tuple[Theory, Iterator[Ident]]] = []  # each visit and its includes left
    ident: Optional[Ident] = th
    while True:
        if ident is None:  # the innermost visit's includes are done
            theory, _ = path.pop()
            on_path.discard(theory.name)
            done.add(theory.name)
            order.append(theory)
            if not path:
                break
        elif ident not in done:
            if ident in on_path:
                chain = " -> ".join([str(t.name) for t, _ in path] + [str(ident)])
                raise Cycle(f"include cycle: {chain}")
            theory = lib.find_theory(ident)
            if theory is None:
                raise UnknownIdent(f"include target {ident} not found")
            on_path.add(ident)
            path.append((theory, iter(theory.includes)))
        ident = next(path[-1][1], None)
    return [d for theory in order for d in theory.decls]


class CheckResult(Record):
    """One row of a report: the subject, and for a failure a message
    `ErrorClass: message`, which only `failed` writes."""

    __match_args__ = _fields = ("subject", "ok", "message")

    def __init__(self, subject: Ident, ok: bool, message: Optional[str] = None) -> None:
        _set(self, "subject", subject)
        _set(self, "ok", ok)
        _set(self, "message", message)

    @classmethod
    def failed(cls, subject: Ident, err: CheckError) -> CheckResult:
        return cls(subject, False, f"{type(err).__name__}: {err}")


class CheckReport(Record):
    """Per-declaration rows of an import, a theory check or a morphism check."""

    __match_args__ = _fields = ("results",)

    def __init__(self, results: tuple[CheckResult, ...]) -> None:
        _set(self, "results", results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(r for r in self.results if not r.ok)


def _visible_idents(lib: Library, theory: Theory, decls: Iterable[Declaration]) -> set[Ident]:
    visible = {d.name for d in decls}
    seen: set[Ident] = set()
    mt = theory.meta_theory
    while mt is not None and mt not in seen:
        seen.add(mt)
        visible.update(d.name for d in flatten(lib, mt))
        mt_theory = lib.find_theory(mt)
        mt = mt_theory.meta_theory if mt_theory is not None else None
    return visible


def _is_statement(lib: Library | Scope, ident: Ident) -> bool:
    d = lib.find_decl(ident)
    if d is not None:
        return d.meta.kind in STATEMENT_KINDS
    return lib.find_morphism(ident) is not None


def _check_declaration(
    lib: Library | Scope, decl: Declaration, visible: set[Ident], cfg: Config
) -> None:
    terms = [t for t in (decl.tp, decl.definiens) if t is not None]
    if isinstance(decl.proof, ProofTerm):
        terms.append(decl.proof.term)
    for term in terms:
        for c in constants_of(term):
            if c not in visible:
                raise UnknownIdent(str(c))
    if decl.tp is not None:
        if is_kind(decl.tp):
            check_kind(lib, (), decl.tp, cfg)
        else:
            sort = infer(lib, (), decl.tp, cfg)
            if not equal(lib, sort, TypeKind(), cfg):
                raise Mismatch(f"{decl.name}: declared type is not a type")
    if decl.definiens is not None:
        if decl.tp is not None:
            check(lib, (), decl.definiens, decl.tp, cfg)
        else:
            infer(lib, (), decl.definiens, cfg)
    match decl.proof:
        case DependsOn(ids):
            # referential validation only; targets may live anywhere in
            # the library (morphism-installed theorems cite the morphism)
            for i in ids:
                if not _is_statement(lib, i):
                    raise UnknownIdent(f"dependency {i} does not resolve to a statement")
        case ProofTerm(pt):
            if decl.tp is None:
                raise NotTyped(f"{decl.name}: proof term without a statement")
            check(lib, (), pt, decl.tp, cfg)
        case _:
            pass


class Scope:
    """What one theory sees while it is built; the one mutable kernel value.

    The visible set of the theory's include closure and meta-theory chain
    is computed once. `add` appends declarations to `decls`, `visible` and
    `index`, which `find_decl` consults before the library; each names
    this theory, as a Theory's declarations do. `row` is set when an
    include does not resolve; it is then the one row a full check gives.
    The checker takes a Scope wherever it takes a Library, and `infer`
    keeps its memo on the Scope as on a Library: `memo`, which the Scopes
    of one import share, or one of its own.
    """

    def __init__(self, lib: Library, th: Ident, memo: Optional[dict] = None):
        theory = lib.find_theory(th)
        if theory is None:
            raise UnknownIdent(f"theory {th} not found")
        self.lib, self.theory, self.decls = lib, theory, list(theory.decls)
        self.index: dict[Ident, Declaration] = {}
        self._infer_memo: dict[int, tuple[Term, Config, Term]] = {} if memo is None else memo
        self.row: Optional[CheckResult] = None
        try:
            self.visible = _visible_idents(lib, theory, flatten(lib, th))
        except Cycle:
            raise
        except CheckError as err:  # `add` still refuses the theory's own names
            self.visible, self.row = set(theory._decl_index), CheckResult.failed(th, err)

    def add(self, decls: Iterable[Declaration]) -> Callable[[], None]:
        """Append `decls`; returns the undo of this add, valid while it is the last.

        A name the theory sees already, one repeated in `decls`, or one
        that does not name this theory (see `Theory`) is a CheckError,
        raised before anything changes.
        """
        decls, names, th = tuple(decls), set(), self.theory.name
        for d in decls:
            if d.name in self.visible or d.name in names:
                raise CheckError(f"duplicate declaration {d.name}")
            if d.name[:2] != th[:2]:
                raise CheckError(f"declaration {d.name} is not named in theory {th}")
            names.add(d.name)
        size = len(self.decls)
        self.decls.extend(decls)
        self.visible.update(names)
        self.index.update((d.name, d) for d in decls)

        def undo() -> None:
            del self.decls[size:]
            self.visible.difference_update(names)
            for n in names:
                del self.index[n]
            self._infer_memo.clear()

        return undo

    def find_decl(self, ident: Ident) -> Optional[Declaration]:
        d = self.index.get(ident)
        return self.lib.find_decl(ident) if d is None else d

    def find_morphism(self, ident: Ident):
        return self.lib.find_morphism(ident)


def check_theory(
    lib: Library | Scope, th: Ident, config: Config = DEFAULT_CONFIG,
    only: Optional[Iterable[Declaration]] = None,
) -> CheckReport:
    """Check every declaration the theory itself makes, or just `only`.

    `lib` is a Library or the theory's Scope. A declaration may use only
    what is declared before it: the names of the declarations being
    checked are hidden and each comes back once it is checked, so `only`,
    the declarations last added to the theory in their order, get the
    verdicts a full check gives them. Included theories are assumed
    checked separately; a Cycle in the include graph is raised,
    everything else is collected per declaration.
    """
    scope = lib if isinstance(lib, Scope) else Scope(lib, th)
    if scope.row is not None:
        return CheckReport((scope.row,))
    results: list[CheckResult] = []
    # The same answers either way, but not the same `infer` memo: a full
    # check uses the Library's, which every theory of the library shares,
    # and an import the one its Scopes share. Checking 700 parsed OMDoc declarations
    # calls `infer` 5,576 times this way and 5,766 times with `scope`.
    lookup = scope if scope.index else scope.lib
    todo = scope.decls if only is None else tuple(only)
    visible = scope.visible
    hidden = visible.intersection(d.name for d in todo)
    visible -= hidden
    for decl in todo:
        try:
            _check_declaration(lookup, decl, visible, config)
            results.append(CheckResult(decl.name, True))
        except CheckError as err:
            results.append(CheckResult.failed(decl.name, err))
        if decl.name in hidden:
            visible.add(decl.name)
    return CheckReport(tuple(results))


def check_library(lib: Library, config: Config = DEFAULT_CONFIG) -> list[CheckReport]:
    return [check_theory(lib, th.name, config) for th in lib.theories]


# ---------------------------------------------------------------------------
# printing


def format_term(t: Term, qualify: frozenset[str] = frozenset()) -> str:
    """Concrete syntax for messages and docs.

    Binders print Twelf-style: `[x : A] b` for lambda, `{x : A} B` for
    Pi, with `A -> B` sugar when the codomain ignores its variable.
    Subtypes print as `<A | P>`, `in(t, p)`, `out(t)`. A constant whose
    local name is in `qualify` prints in full.
    """
    return _fmt(t, [], 0, qualify)


def clashing_names(*terms: Term) -> frozenset[str]:
    """The local names that two or more distinct constants of `terms` share."""
    names = [c.name for c in {c for t in terms for c in constants_of(t)}]
    return frozenset(n for n in names if names.count(n) > 1)


def _mentions(t: Term, k: int) -> bool:
    """Whether Var(k) occurs free in `t`."""
    hits: list[Term] = []

    def leaf(node: Var, j: int) -> Term:
        if node.index == j:
            hits.append(node)
        return node

    rebuild(t, leaf, k, True)
    return bool(hits)


def _bind_name(hint: str, names: list[str]) -> str:
    base = hint if hint and hint != "_" else "x"
    name = base
    n = 0
    while name in names:
        n += 1
        name = f"{base}{n}"
    return name


def _fmt(t: Term, names: list[str], prec: int, q: frozenset[str]) -> str:
    # prec 0: binder/arrow position, 1: application head, 2: atom
    match t:
        case Const(c):
            return str(c) if c.name in q else c.name
        case Var(k):
            if k < len(names):
                return names[len(names) - 1 - k]
            return f"#{k}"
        case TypeKind():
            return "type"
        case Apply(f, a):
            s = f"{_fmt(f, names, 1, q)} {_fmt(a, names, 2, q)}"
            return f"({s})" if prec > 1 else s
        case Pi(h, d, c):
            if not _mentions(c, 0):
                body = _fmt(shift(c, -1, 1), names, 0, q)
                s = f"{_fmt(d, names, 1, q)} -> {body}"
            else:
                x = _bind_name(h, names)
                s = f"{{{x} : {_fmt(d, names, 0, q)}}} {_fmt(c, names + [x], 0, q)}"
            return f"({s})" if prec > 0 else s
        case Lambda(h, d, b):
            x = _bind_name(h, names)
            s = f"[{x} : {_fmt(d, names, 0, q)}] {_fmt(b, names + [x], 0, q)}"
            return f"({s})" if prec > 0 else s
        case SubType(b, p):
            return f"<{_fmt(b, names, 0, q)} | {_fmt(p, names, 0, q)}>"
        case SubIn(e, w):
            return f"in({_fmt(e, names, 0, q)}, {_fmt(w, names, 0, q)})"
        case SubOut(e):
            return f"out({_fmt(e, names, 0, q)})"
    return repr(t)
