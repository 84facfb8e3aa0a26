"""Seeded synthetic corpora for the benchmark, each with its manifest.

Stdlib only. Every input is written as text by this module, never
through `proofport`, so a change to one of the program's serializers
cannot change what the benchmark feeds it. The same seed gives the same
bytes.

A manifest holds what the program must answer for its corpus:

- `import`: the expected exit code, the planted failures (identifier to
  error class) and the declaration count of every imported theory;
- `library`: the library the downstream commands read, with its theories,
  declaration kinds and dependency graph (`uses` plus `justifiedBy`
  edges, as the RDF export draws them);
- `morphism`: the morphism's name, the theorem to translate and the
  expected `translate` line; for the import workloads also the
  `<morphism>` element that is appended to the imported library;
- `queries`: seeded `deps` and `used-by` targets.

Terms are built in the kernel's shape as tuples, so the expected
elaborated statements, their constants and their printed form all come
from one value:

    ("c", ident)                  constant
    ("v", index, hint)            de Bruijn variable
    ("a", head, (arg, ...))       application spine
    ("lam", hint, domain, body)   lambda
    ("pi", hint, domain, body)    dependent function type
"""

from __future__ import annotations

import json
import random
from xml.sax.saxutils import escape, quoteattr

HOL = "lib://logics?holChurch?"
FOL = "lib://logics?folSoft?"
HOL_META = "lib://logics?holChurch?holChurch"


# ---------------------------------------------------------------------------
# kernel-shaped terms


def C(ident: str) -> tuple:
    return ("c", ident)


def V(index: int, hint: str) -> tuple:
    return ("v", index, hint)


def A(head: tuple, *args: tuple) -> tuple:
    if head[0] == "a":
        return ("a", head[1], head[2] + args)
    return ("a", head, args)


def LAM(hint: str, dom: tuple, body: tuple) -> tuple:
    return ("lam", hint, dom, body)


def PI(hint: str, dom: tuple, body: tuple) -> tuple:
    return ("pi", hint, dom, body)


def constants(t: tuple, out: set) -> set:
    stack = [t]
    while stack:
        t = stack.pop()
        if t[0] == "c":
            out.add(t[1])
        elif t[0] == "a":
            stack.append(t[1])
            stack.extend(t[2])
        elif t[0] in ("lam", "pi"):
            stack.extend((t[2], t[3]))
    return out


def term_lines(t: tuple, ind: int, lines: list) -> None:
    """OMDoc XML for a term, one element per line, 2-space indentation."""
    stack = [(t, ind)]
    while stack:
        t, ind = stack.pop()
        sp = "  " * ind
        if isinstance(t, str):  # a closing tag
            lines.append(sp + t)
        elif t[0] == "c":
            lines.append(f"{sp}<OMS name={quoteattr(t[1])}/>")
        elif t[0] == "v":
            lines.append(f'{sp}<OMV index="{t[1]}" hint={quoteattr(t[2])}/>')
        elif t[0] == "a":
            lines.append(f"{sp}<OMA>")
            stack.append(("</OMA>", ind))
            stack.extend((k, ind + 1) for k in reversed((t[1],) + t[2]))
        else:
            binder = "lambda" if t[0] == "lam" else "pi"
            lines.append(f'{sp}<OMBIND binder="{binder}" var={quoteattr(t[1])}>')
            stack.append(("</OMBIND>", ind))
            stack.extend(((t[3], ind + 1), (t[2], ind + 1)))


def _bind_name(hint: str, names: tuple) -> str:
    base = hint if hint and hint != "_" else "x"
    name, n = base, 0
    while name in names:
        n += 1
        name = f"{base}{n}"
    return name


def fmt(t: tuple, names: tuple = (), prec: int = 0) -> str:
    """The text `proofport translate` prints for a term (no Pi needed)."""
    if t[0] == "c":
        return t[1].rsplit("?", 1)[1]
    if t[0] == "v":
        return names[len(names) - 1 - t[1]]
    if t[0] == "a":
        s = " ".join([fmt(t[1], names, 1)] + [fmt(a, names, 2) for a in t[2]])
        return f"({s})" if prec > 1 else s
    if t[0] == "lam":
        x = _bind_name(t[1], names)
        s = f"[{x} : {fmt(t[2], names, 0)}] {fmt(t[3], names + (x,), 0)}"
        return f"({s})" if prec > 0 else s
    raise ValueError(f"no printed form for {t[0]}")


# holChurch
TM, BOOL, ARROW, APP = C(HOL + "tm"), C(HOL + "bool'"), C(HOL + "arrow"), C(HOL + "app")
DED, EQ, IMPL, FORALL = C(HOL + "ded"), C(HOL + "eq"), C(HOL + "impl"), C(HOL + "forall")
TM_BOOL = A(TM, BOOL)
BOOL2 = A(ARROW, BOOL, BOOL)  # bool -> bool
BOOL3 = A(ARROW, BOOL, BOOL2)  # bool -> bool -> bool


def happ(fn: tuple, arg: tuple, cod: tuple = BOOL) -> tuple:
    """Church application at argument type bool."""
    return A(APP, BOOL, cod, fn, arg)


# folSoft
SET, PROP, FDED = C(FOL + "set"), C(FOL + "prop"), C(FOL + "ded")
FORALL_SET, IMPL_F, IN_F, EQ_F = (
    C(FOL + "forallSet"), C(FOL + "impl'"), C(FOL + "in'"), C(FOL + "eq'"),
)


def subset_stmt(a: tuple, b: tuple) -> tuple:
    """ded (forallSet [x : set] impl' (in' x a) (in' x b))"""
    x = V(0, "x")
    return A(FDED, A(FORALL_SET, LAM("x", SET, A(IMPL_F, A(IN_F, x, a), A(IN_F, x, b)))))


# ---------------------------------------------------------------------------
# a library model shared by the three corpora


class Model:
    """Theories, declarations and the edges the RDF export will draw."""

    def __init__(self, ns: str):
        self.ns = ns
        self.theories: dict[str, list[str]] = {}
        self.kinds: dict[str, str] = {}
        self.edges: dict[str, set] = {}

    def ident(self, theory: str, name: str) -> str:
        return f"{self.ns}?{theory}?{name}"

    def add(self, theory: str, name: str, kind: str, *terms, deps=()) -> str:
        ident = self.ident(theory, name)
        self.theories.setdefault(theory, []).append(ident)
        self.kinds[ident] = kind
        used: set = set()
        for t in terms:
            if t is not None:
                constants(t, used)
        self.edges[ident] = used | set(deps)
        return ident

    def manifest(self) -> dict:
        return {
            "theories": self.theories,
            "kinds": self.kinds,
            "graph": {k: sorted(v) for k, v in self.edges.items()},
        }


def deps_answer(graph: dict, start: str) -> list:
    """Reflexive-transitive closure over the manifest's edges."""
    seen, frontier = {start}, [start]
    while frontier:
        for nxt in graph.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


def used_by_answer(graph: dict, kinds: dict, start: str, kind) -> list:
    """Everything whose transitive uses reach `start`, minus itself."""
    rev: dict[str, list] = {}
    for src, targets in graph.items():
        for t in targets:
            rev.setdefault(t, []).append(src)
    seen, frontier = {start}, [start]
    while frontier:
        for nxt in rev.get(frontier.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    seen.discard(start)
    return sorted(i for i in seen if kind is None or kinds.get(i) == kind)


def _queries(rng: random.Random, model: Model, count: int) -> dict:
    """Seeded query targets of similar cost from seed to seed: `deps` of a
    theorem from the last tenth of the chain theories, `used-by` of a
    used declaration from their first tenth."""
    order = [i for th, ids in model.theories.items() if th != "struct" for i in ids]
    tenth = max(1, len(order) // 10)
    used = {t for targets in model.edges.values() for t in targets}
    theorems = [i for i in order if model.kinds[i] == "theorem"]
    late = [i for i in order[-tenth:] if model.kinds[i] == "theorem"] or theorems[-1:]
    early = [i for i in order[:tenth] if i in used] or [i for i in order if i in used][:1]
    deps = [rng.choice(late) for _ in range(count)]
    used_by = [[rng.choice(early), "theorem" if k % 2 else None] for k in range(count)]
    return {"deps": deps, "used_by": used_by}


def _split(records: list, parts: int) -> list:
    n = len(records)
    return [records[n * k // parts:n * (k + 1) // parts] for k in range(parts)]


def _morphism_xml(name: str, src: str, dst: str, assignments: list, ind: int) -> list:
    sp = "  " * ind
    lines = [f"{sp}<morphism name={quoteattr(name)} from={quoteattr(src)} to={quoteattr(dst)}>"]
    for const, term in assignments:
        lines.append(f"{sp}  <assignment name={quoteattr(const)}>")
        term_lines(term, ind + 2, lines)
        lines.append(f"{sp}  </assignment>")
    lines.append(f"{sp}</morphism>")
    return lines


def _theory_ident(ns: str, name: str) -> str:
    return f"{ns}?{name}?{name}"


# ---------------------------------------------------------------------------
# toyhol JSON: a definition chain over four included theories


def _hol_name(x: str) -> dict:
    return {"name": x}


def _hol_app(*parts) -> dict:
    t = parts[0]
    for p in parts[1:]:
        t = {"app": [t, p]}
    return t


def hol_corpus(seed: int, n: int) -> tuple[bytes, dict]:
    """About `n` toyhol records in four theories `t0`..`t3`, each
    including the previous one, plus a small `struct` theory that the
    benchmark's morphism maps into `t3`.

    The records form a definition chain `c_k := f c_{k-1}` (some steps
    use `g`), with an axiom and a `deps` theorem every 4th step. About
    2% are planted definitions `bad_k := f (p c_k)`, where `p` is not a
    function; nothing refers to them, so exactly they fail.
    """
    rng = random.Random(f"hol-import/{seed}")
    ns = "lib://toyhol"
    m = Model(ns)
    records: list = []  # (record json, model args) in document order
    planted: dict = {}
    n_bad = max(1, round(n * 0.02))

    def const(name: str, stype, tp_term: tuple) -> None:
        records.append(({"kind": "constant", "name": name, "type": stype},
                        (name, "constant", A(TM, tp_term))))

    const("f", {"arrow": ["bool", "bool"]}, BOOL2)
    const("g", {"arrow": ["bool", {"arrow": ["bool", "bool"]}]}, BOOL3)
    const("p", "bool", BOOL)
    const("c0", "bool", BOOL)
    chain = ["c0"]
    body = n - len(records) - n_bad
    steps = max(4, body * 2 // 3)
    bad_at = set(rng.sample(range(1, steps), min(n_bad, steps - 1)))
    last_thm = None
    shapes = []
    for k in range(1, steps + 1):
        if not shapes:
            shapes = [0, 0, 1, 2]
            rng.shuffle(shapes)
        shape = shapes.pop()
        prev = chain[-1]
        other = rng.choice(chain)
        name = f"c{k}"
        if shape == 0:
            surf = _hol_app(_hol_name("f"), _hol_name(prev))
            ker = ("f", prev)
        elif shape == 1:
            surf = _hol_app(_hol_name("g"), _hol_name(prev), _hol_name(other))
            ker = ("g", prev, other)
        else:
            surf = _hol_app(_hol_name("f"), _hol_app(_hol_name("g"), _hol_name(other), _hol_name(prev)))
            ker = ("fg", other, prev)
        records.append(({"kind": "definition", "name": name, "definiens": surf},
                         (name, "definition", ker)))
        chain.append(name)
        if k % 4 == 0:
            ax, th = f"ax{k}", f"th{k}"
            target = rng.choice(chain[:-1])
            if rng.random() < 0.5:
                stmt = _hol_app(_hol_name("eq"), _hol_name(name), _hol_name(target))
                ker = ("eq", name, target)
            else:
                stmt = _hol_app(_hol_name("impl"), _hol_name(name), _hol_name(target))
                ker = ("impl", name, target)
            records.append(({"kind": "axiom", "name": ax, "type": stmt}, (ax, "axiom", ker)))
            deps = [ax] + ([last_thm] if last_thm else [])
            thm = {"forall": {"var": "x", "body": _hol_app(_hol_name("impl"), _hol_name("x"), _hol_name(name))}}
            records.append(({"kind": "theorem", "name": th, "type": thm, "deps": deps},
                            (th, "theorem", ("all", name), deps)))
            last_thm = th
        if k in bad_at:
            bad = f"bad{k}"
            surf = _hol_app(_hol_name("f"), _hol_app(_hol_name("p"), _hol_name(name)))
            records.append(({"kind": "definition", "name": bad, "definiens": surf}, (bad, "bad")))

    theories = [f"t{i}" for i in range(4)]
    doc_theories = []
    where: dict[str, str] = {}  # local name -> theory
    for i, chunk in enumerate(_split(records, 4)):
        th = theories[i]
        doc_theories.append({"name": th, "includes": [theories[i - 1]] if i else [],
                             "decls": [r for r, _ in chunk]})
        for _, spec in chunk:
            name, kind = spec[0], spec[1]
            if kind == "bad":
                planted[m.ident(th, name)] = "UnificationFailure"
                continue
            where[name] = th

    def K(name: str) -> tuple:
        return C(m.ident(where[name], name))

    for _, spec in records:
        name, kind = spec[0], spec[1]
        if kind == "bad":
            continue
        th = where[name]
        if kind == "constant":
            m.add(th, name, kind, spec[2])
        elif kind == "definition":
            ker = spec[2]
            if ker[0] == "f":
                d = happ(K("f"), K(ker[1]))
            elif ker[0] == "g":
                d = happ(happ(K("g"), K(ker[1]), BOOL2), K(ker[2]))
            else:
                d = happ(K("f"), happ(happ(K("g"), K(ker[1]), BOOL2), K(ker[2])))
            m.add(th, name, kind, TM_BOOL, d)
        elif kind == "axiom":
            op, a, b = spec[2]
            stmt = A(EQ, BOOL, K(a), K(b)) if op == "eq" else A(IMPL, K(a), K(b))
            m.add(th, name, kind, A(DED, stmt))
        else:
            x = V(0, "x")
            stmt = A(DED, A(FORALL, BOOL, LAM("x", TM_BOOL, A(IMPL, x, K(spec[2][1])))))
            m.add(th, name, kind, stmt, deps=[m.ident(where[d], d) for d in spec[3]])

    # the morphism's source: a short chain over its own signature
    s_len = 6
    s_recs = [{"kind": "constant", "name": "s_f", "type": {"arrow": ["bool", "bool"]}},
              {"kind": "constant", "name": "s_e", "type": "bool"}]
    m.add("struct", "s_f", "constant", A(TM, BOOL2))
    m.add("struct", "s_e", "constant", TM_BOOL)
    S = lambda x: C(m.ident("struct", x))  # noqa: E731
    prev = "s_e"
    for k in range(1, s_len + 1):
        s_recs.append({"kind": "definition", "name": f"s{k}",
                       "definiens": _hol_app(_hol_name("s_f"), _hol_name(prev))})
        m.add("struct", f"s{k}", "definition", TM_BOOL, happ(S("s_f"), S(prev)))
        prev = f"s{k}"
    eq_stmt = _hol_app(_hol_name("eq"), _hol_name(prev), _hol_name("s_e"))
    s_recs.append({"kind": "axiom", "name": "s_ax", "type": eq_stmt})
    s_recs.append({"kind": "theorem", "name": "s_thm", "type": eq_stmt, "deps": ["s_ax"]})
    stmt = A(DED, A(EQ, BOOL, S(prev), S("s_e")))
    m.add("struct", "s_ax", "axiom", stmt)
    m.add("struct", "s_thm", "theorem", stmt, deps=[m.ident("struct", "s_ax")])
    doc_theories.append({"name": "struct", "decls": s_recs})

    image = K(rng.choice(chain))
    expected = image
    for _ in range(s_len):
        expected = happ(K("f"), expected)
    morphism = _morphism_entry(
        m, "struct", "t3",
        [(m.ident("struct", "s_f"), K("f")), (m.ident("struct", "s_e"), image)],
        "s_thm", A(DED, A(EQ, BOOL, expected, image)),
    )
    doc = {"version": "1", "theories": doc_theories}
    data = json.dumps(doc, indent=1).encode("utf-8") + b"\n"
    return data, _import_manifest(rng, m, planted, len(records) + len(s_recs), morphism)


def _morphism_entry(m: Model, src: str, dst: str, assignments: list, thm: str,
                    translated: tuple) -> dict:
    name = f"{m.ns}?views?v"
    thm_ident = m.ident(src, thm)
    return {
        "name": name,
        "theorem": thm_ident,
        "expected": f"{thm_ident} : {fmt(translated)}",
        "xml": _morphism_xml(name, _theory_ident(m.ns, src), _theory_ident(m.ns, dst),
                             assignments, 1),
    }


def _import_manifest(rng, m: Model, planted: dict, records: int, morphism: dict) -> dict:
    return {
        "import": {
            "exit": 1 if planted else 0,
            "failures": planted,
            "imported": {th: len(ids) for th, ids in m.theories.items()},
            "records": records,
        },
        "library": m.manifest(),
        "morphism": morphism,
        "queries": _queries(rng, m, 1),
    }


# ---------------------------------------------------------------------------
# toyset XML: sets, subset axioms, schemes, definitions, deps theorems


def _x_const(name: str) -> str:
    return f'<const name="{name}"/>'


def _x_subset(a: str, b: str) -> str:
    return (f'<forall var="x"><impl><in><var name="x"/>{a}</in>'
            f'<in><var name="x"/>{b}</in></impl></forall>')


def set_corpus(seed: int, n: int) -> tuple[bytes, dict]:
    """About `n` toyset records in four theories `s0`..`s3`, each
    including the previous one, plus a small `struct` theory for the
    morphism.

    Records rotate through constants, subset axioms, one-`pvar`
    schemes, `definition` records (each expands into `name/fn` and
    `name/def`) and `deps` theorems. About 2% are planted theorems that
    apply a set as a predicate, which the kernel rejects with
    `NotAFunction`.
    """
    rng = random.Random(f"set-import/{seed}")
    ns = "lib://toyset"
    m = Model(ns)
    n_bad = max(1, round(n * 0.02))
    recs: list = [("constant", f"k{i}") for i in range(4)]
    sets = [f"k{i}" for i in range(4)]  # surface names usable as sets
    stmts: list = []
    last_thm = None
    body = n - len(recs) - n_bad
    shapes: list = []
    bad_at = set(rng.sample(range(body), n_bad))
    for k in range(body):
        if not shapes:
            shapes = ["constant", "axiom", "definition", "theorem", "scheme", "axiom"]
            rng.shuffle(shapes)
        shape = shapes.pop()
        a, b = rng.choice(sets), rng.choice(sets)
        if shape == "constant":
            recs.append(("constant", f"k{k + 4}"))
            sets.append(f"k{k + 4}")
        elif shape == "definition":
            recs.append(("definition", f"d{k}", a))
            sets.append(f"d{k}")
        elif shape == "axiom":
            recs.append(("axiom", f"ax{k}", a, b))
            stmts.append(f"ax{k}")
        elif shape == "theorem":
            cited = ([last_thm] if last_thm else []) + [rng.choice(stmts or [None])]
            deps = sorted({c for c in cited if c})
            last_thm = f"th{k}"
            recs.append(("theorem", f"th{k}", a, b, deps))
            stmts.append(f"th{k}")
        else:
            recs.append(("scheme", f"sc{k}", a))
            stmts.append(f"sc{k}")
        if k in bad_at:
            recs.append(("bad", f"bad{k}", a, b))

    theories = [f"s{i}" for i in range(4)]
    where: dict[str, str] = {}
    planted: dict = {}
    xml = ['<export version="1">']

    def K(name: str) -> tuple:
        th = where[name]
        if name.startswith("d"):
            return C(m.ident(th, f"{name}/fn"))
        return C(m.ident(th, name))

    for i, chunk in enumerate(_split(recs, 4)):
        th = theories[i]
        inc = f' includes="{theories[i - 1]}"' if i else ""
        xml.append(f'  <theory name="{th}"{inc}>')
        for rec in chunk:
            kind, name = rec[0], rec[1]
            if kind == "bad":
                planted[m.ident(th, name)] = "NotAFunction"
                xml.append(f'    <theorem name="{name}"><forall var="x"><impl>'
                           f'<papp name="{rec[2]}"><var name="x"/></papp>'
                           f'<in><var name="x"/>{_x_const(rec[3])}</in></impl></forall></theorem>')
                continue
            where[name] = th
            if kind == "constant":
                src = f' src="{th}.mz:{len(xml)}:3"' if len(xml) % 5 == 0 else ""
                xml.append(f'    <constant name="{name}"{src}/>')
                m.add(th, name, "constant", SET)
            elif kind == "definition":
                xml.append(f'    <definition name="{name}"><value>{_x_const(rec[2])}</value></definition>')
                fn = m.add(th, f"{name}/fn", "patternInstance", SET)
                m.add(th, f"{name}/def", "patternInstance", A(FDED, A(EQ_F, C(fn), K(rec[2]))))
            elif kind == "axiom":
                xml.append(f'    <axiom name="{name}">{_x_subset(_x_const(rec[2]), _x_const(rec[3]))}</axiom>')
                m.add(th, name, "axiom", subset_stmt(K(rec[2]), K(rec[3])))
            elif kind == "theorem":
                deps = " ".join(rec[4])
                xml.append(f'    <theorem name="{name}" deps="{deps}">'
                           f'{_x_subset(_x_const(rec[2]), _x_const(rec[3]))}</theorem>')
                m.add(th, name, "theorem", subset_stmt(K(rec[2]), K(rec[3])),
                      deps=[m.ident(where[d], d) for d in rec[4]])
            else:
                xml.append(f'    <scheme name="{name}"><pvar name="P" arity="1"/>'
                           f'<forall var="y"><impl><papp name="P"><var name="y"/></papp>'
                           f'<papp name="P">{_x_const(rec[2])}</papp></impl></forall></scheme>')
                P, y = V(1, "P"), V(0, "y")
                stmt = A(FDED, A(FORALL_SET, LAM("y", SET, A(IMPL_F, A(P, y), A(P, K(rec[2]))))))
                m.add(th, name, "axiom", PI("P", PI("_", SET, PROP), stmt))
        xml.append("  </theory>")

    xml.append('  <theory name="struct">')
    xml.append('    <constant name="sa"/>')
    xml.append('    <constant name="sb"/>')
    xml.append(f'    <axiom name="s_ax">{_x_subset(_x_const("sa"), _x_const("sb"))}</axiom>')
    xml.append(f'    <theorem name="s_thm" deps="s_ax">{_x_subset(_x_const("sa"), _x_const("sb"))}</theorem>')
    xml.append("  </theory>")
    xml.append("</export>")
    S = lambda x: C(m.ident("struct", x))  # noqa: E731
    m.add("struct", "sa", "constant", SET)
    m.add("struct", "sb", "constant", SET)
    m.add("struct", "s_ax", "axiom", subset_stmt(S("sa"), S("sb")))
    m.add("struct", "s_thm", "theorem", subset_stmt(S("sa"), S("sb")),
          deps=[m.ident("struct", "s_ax")])
    ka, kb = K(rng.choice(sets)), K(rng.choice(sets))
    morphism = _morphism_entry(
        m, "struct", "s3",
        [(m.ident("struct", "sa"), ka), (m.ident("struct", "sb"), kb)],
        "s_thm", subset_stmt(ka, kb),
    )
    data = ("\n".join(xml) + "\n").encode("utf-8")
    return data, _import_manifest(rng, m, planted, len(recs) + 4, morphism)


# ---------------------------------------------------------------------------
# OMDoc: a well-typed holChurch library, a deep term, a morphism


def _decl_xml(lines: list, name: str, kind: str, tp=None, definiens=None,
              refs=None, comment=None, src=None) -> None:
    lines.append(f'    <constant name={quoteattr(name)} kind="{kind}">')
    for tag, term in (("type", tp), ("definition", definiens)):
        if term is not None:
            lines.append(f"      <{tag}>")
            term_lines(term, 4, lines)
            lines.append(f"      </{tag}>")
    if kind == "axiom":
        lines.append('      <proof style="omitted"/>')
    elif kind == "theorem" and not refs:
        lines.append('      <proof style="dependsOn"/>')
    elif kind == "theorem":
        lines.append('      <proof style="dependsOn">')
        lines.extend(f"        <ref name={quoteattr(r)}/>" for r in refs)
        lines.append("      </proof>")
    if comment or src:
        lines.append("      <metadata>")
        if src:
            lines.append(f'        <srcref file="{src[0]}" sl="{src[1]}" sc="1" el="{src[1]}" ec="40"/>')
        if comment:
            lines.append(f"        <comment>{escape(comment)}</comment>")
        lines.append("      </metadata>")
    lines.append("    </constant>")


class _OmdocWriter:
    """Declares into a Model and writes the matching OMDoc text."""

    def __init__(self, ns: str):
        self.m = Model(ns)
        self.lines = [f'<omdoc version="1" namespace={quoteattr(ns)}>']

    def theory(self, name: str, includes=()) -> None:
        self.th = name
        self.lines.append(f'  <theory name="{name}" meta="{HOL_META}">')
        for inc in includes:
            self.lines.append(f'    <include from="{_theory_ident(self.m.ns, inc)}"/>')

    def end(self) -> None:
        self.lines.append("  </theory>")

    def decl(self, name: str, kind: str, tp=None, definiens=None, refs=(), **meta) -> tuple:
        _decl_xml(self.lines, name, kind, tp, definiens, refs, **meta)
        return C(self.m.add(self.th, name, kind, tp, definiens, deps=refs))

    def text(self, extra=()) -> bytes:
        return ("\n".join(self.lines + list(extra) + ["</omdoc>"]) + "\n").encode("utf-8")


def _chain_term(fn: tuple, base: tuple, depth: int) -> tuple:
    t = base
    for _ in range(depth):
        t = happ(fn, t)
    return t


def omdoc_corpus(seed: int, n: int, deep: int = 400, queries: int = 2) -> tuple[bytes, dict]:
    """About `n` well-typed declarations in four holChurch theories
    `m0`..`m3` (an include chain), one declaration whose definiens
    nests `deep` applications, a `struct` theory with a 20-step
    definition chain, and a morphism from `struct` into `m3`.
    """
    rng = random.Random(f"omdoc-library/{seed}")
    w = _OmdocWriter("lib://bench")
    per = max(8, n // 4)
    w.theory("m0")
    f = w.decl("f", "constant", A(TM, BOOL2), comment="successor-like")
    g = w.decl("g", "constant", A(TM, BOOL3))
    chain = [w.decl("c0", "constant", TM_BOOL, src=("m0.hol", 3))]
    stmts: list = []
    last_thm = None
    count = 3
    for i in range(4):
        if i:
            w.end()
            w.theory(f"m{i}", includes=[f"m{i - 1}"])
        shapes: list = []
        while count < per * (i + 1):
            if not shapes:
                shapes = ["f", "f", "g", "fg", "ax", "thm"]
                rng.shuffle(shapes)
            shape = shapes.pop()
            k = count
            prev, other = chain[-1], rng.choice(chain)
            meta = {"src": (f"m{i}.hol", k)} if k % 10 == 0 else {}
            if shape == "f":
                chain.append(w.decl(f"c{k}", "definition", TM_BOOL, happ(f, prev), **meta))
            elif shape == "g":
                chain.append(w.decl(f"c{k}", "definition", TM_BOOL,
                                    happ(happ(g, prev, BOOL2), other), **meta))
            elif shape == "fg":
                chain.append(w.decl(f"c{k}", "definition", TM_BOOL,
                                    happ(f, happ(happ(g, other, BOOL2), prev)), **meta))
            elif shape == "ax":
                stmt = A(EQ, BOOL, prev, other) if k % 2 else A(IMPL, prev, other)
                stmts.append(w.decl(f"ax{k}", "axiom", A(DED, stmt), **meta))
            else:
                x = V(0, "x")
                stmt = A(DED, A(FORALL, BOOL, LAM("x", TM_BOOL, A(IMPL, x, prev))))
                cited = ([last_thm] if last_thm else []) + [rng.choice(stmts or [None])]
                refs = sorted({c[1] for c in cited if c})
                last_thm = w.decl(f"th{k}", "theorem", stmt, refs=refs,
                                  comment=f"step {k}" if k % 7 == 0 else None)
                stmts.append(last_thm)
            count += 1
    w.decl("deep", "definition", TM_BOOL, _chain_term(f, chain[0], deep))
    w.end()

    s_len = 20
    w.theory("struct")
    s_f = w.decl("s_f", "constant", A(TM, BOOL2))
    s_e = w.decl("s_e", "constant", TM_BOOL)
    prev = s_e
    for k in range(1, s_len + 1):
        prev = w.decl(f"s{k}", "definition", TM_BOOL, happ(s_f, prev))
    ax = w.decl("s_ax", "axiom", A(DED, A(EQ, BOOL, prev, s_e)))
    w.decl("s_thm", "theorem", A(DED, A(EQ, BOOL, prev, s_e)), refs=[ax[1]])
    w.end()

    image = rng.choice(chain)
    morphism = _morphism_entry(
        w.m, "struct", "m3", [(s_f[1], f), (s_e[1], image)], "s_thm",
        A(DED, A(EQ, BOOL, _chain_term(f, image, s_len), image)),
    )
    data = w.text(morphism.pop("xml"))
    manifest = {
        "library": w.m.manifest(),
        "morphism": morphism,
        "queries": _queries(rng, w.m, queries),
        "deep": w.m.ident("m3", "deep"),
    }
    return data, manifest


def probe_deep(depth: int = 600) -> tuple[bytes, dict]:
    """A definiens nested `depth` applications deep."""
    w = _OmdocWriter("lib://probe")
    w.theory("deep")
    f = w.decl("f", "constant", A(TM, BOOL2))
    c0 = w.decl("c0", "constant", TM_BOOL)
    w.decl(f"d{depth}", "definition", TM_BOOL, _chain_term(f, c0, depth))
    w.end()
    return w.text(), {"library": w.m.manifest()}


def probe_chain(steps: int = 300) -> tuple[bytes, dict]:
    """A theorem whose translation unfolds a `steps`-long definition chain."""
    w = _OmdocWriter("lib://probe")
    w.theory("chain")
    f = w.decl("f", "constant", A(TM, BOOL2))
    c0 = prev = w.decl("c0", "constant", TM_BOOL)
    for k in range(1, steps + 1):
        prev = w.decl(f"c{k}", "definition", TM_BOOL, happ(f, prev))
    ax = w.decl("ax", "axiom", A(DED, A(EQ, BOOL, prev, c0)))
    w.decl("thm", "theorem", A(DED, A(EQ, BOOL, prev, c0)), refs=[ax[1]])
    w.end()
    w.theory("model")
    g = w.decl("g", "constant", A(TM, BOOL2))
    z = w.decl("z", "constant", TM_BOOL)
    w.end()
    morphism = _morphism_entry(
        w.m, "chain", "model", [(f[1], g), (c0[1], z)], "thm",
        A(DED, A(EQ, BOOL, _chain_term(g, z, steps), z)),
    )
    return w.text(morphism.pop("xml")), {"library": w.m.manifest(), "morphism": morphism}
