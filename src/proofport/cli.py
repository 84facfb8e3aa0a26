"""Batch pipeline entry point: import, check, export, query, stats.

Every command reads one input file, writes machine-parsable
tab-separated lines to stdout, and exits 0 on success, 1 on semantic
check failures, 2 on format or lookup errors. Flags can be preset via
environment variables prefixed OAF_ (OAF_FORMAT, OAF_ETA_ENABLED,
OAF_INCLUDE_PROOF_USES, OAF_REDUCTION_BUDGET, OAF_SOURCE_DIR,
OAF_ALLOW_EMPTY); explicit flags win.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, TextIO

from . import omdoc
from .errors import (
    CheckError,
    EmptyCorpus,
    FormatError,
    Malformed,
    UnknownIdent,
)
from .importers import (
    ImportReport,
    import_toyhol,
    import_toyset,
    parse_toyhol,
    parse_toyset,
    recover_source_refs,
)
from .kernel import (
    DEFAULT_CONFIG,
    KINDS,
    Config,
    Declaration,
    DependsOn,
    Ident,
    Library,
    Omitted,
    ProofTerm,
    check_theory,
    format_term,
)
from .morphisms import check_morphism, translate
from .ontology import extract_triples, transitive_uses, used_by, write_ntriples

# format name -> parse and import of the input bytes. The readers are looked
# up by name on every call, so a rebinding of `parse_toyhol` is seen here.
_READERS = {
    "toyhol-json": lambda data, cfg: import_toyhol(parse_toyhol(data), cfg.allow_empty, cfg.checker),
    "toyset-xml": lambda data, cfg: import_toyset(parse_toyset(data), cfg.allow_empty, cfg.checker),
    "omdoc": lambda data, cfg: (omdoc.parse(data), ImportReport(())),
}
FORMATS = tuple(_READERS)
PROOF_STYLES = ("omitted", "dependsOn", "term")


@dataclass(frozen=True)
class CliConfig:
    command: str
    input: str
    output: Optional[str] = None
    format: Optional[str] = None
    checker: Config = DEFAULT_CONFIG
    include_proof_uses: bool = False
    source_dir: Optional[str] = None
    allow_empty: bool = False
    ident: Optional[str] = None
    kind: Optional[str] = None
    morphism: Optional[str] = None
    theorem: Optional[str] = None
    skip_check: bool = False


# ---------------------------------------------------------------------------
# argument handling


def _format(text: str) -> str:
    if text not in FORMATS:
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from {FORMATS})")
    return text


def _budget(text: str) -> int:
    if not text.strip().removeprefix("+").isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _boolean(text: str) -> bool:
    value = text.strip().lower()
    if value not in _TRUE + _FALSE:
        raise argparse.ArgumentTypeError(f"expected one of {'/'.join(_TRUE + _FALSE)}, got {text!r}")
    return value in _TRUE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="input file path")
    # An OAF_* value is a string default, which argparse converts with
    # `type` as it does a command-line value. BooleanOptionalAction never
    # converts its own flag, so its `type` is set afterwards.
    common.add_argument(
        "--format",
        choices=FORMATS,
        type=_format,
        default=os.environ.get("OAF_FORMAT"),
        help="input format; inferred from the file suffix when omitted",
    )
    common.add_argument(
        "--eta",
        action=argparse.BooleanOptionalAction,
        default=os.environ.get("OAF_ETA_ENABLED", True),
        help="enable eta in definitional equality",
    ).type = _boolean
    common.add_argument(
        "--include-proof-uses",
        action=argparse.BooleanOptionalAction,
        default=os.environ.get("OAF_INCLUDE_PROOF_USES", False),
        help="count constants inside proof terms as uses",
    ).type = _boolean
    common.add_argument(
        "--reduction-budget",
        type=_budget,
        default=os.environ.get("OAF_REDUCTION_BUDGET", DEFAULT_CONFIG.reduction_budget),
        help="reduction step budget",
    )
    common.add_argument(
        "--source-dir",
        default=os.environ.get("OAF_SOURCE_DIR"),
        help="directory of source files for reference recovery on import",
    )
    common.add_argument(
        "--allow-empty",
        action=argparse.BooleanOptionalAction,
        default=os.environ.get("OAF_ALLOW_EMPTY", False),
        help="accept nonempty input that yields zero declarations",
    ).type = _boolean

    parser = argparse.ArgumentParser(
        prog="proofport", description="proof library interchange pipeline"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check", parents=[common], help="kernel-check every theory")
    sub.add_parser("import", parents=[common], help="import and report, optionally write omdoc")
    p = sub.add_parser("export-omdoc", parents=[common], help="write the library as omdoc XML")
    p.add_argument("--output", required=True, help="output file path")
    p = sub.add_parser("export-rdf", parents=[common], help="write the library as N-Triples")
    p.add_argument("--output", required=True, help="output file path")
    p.add_argument(
        "--skip-check",
        action="store_true",
        help="record checkStatus=unchecked instead of checking first",
    )
    for name, needs_kind in (("deps", False), ("used-by", True)):
        p = sub.add_parser(name, parents=[common], help=f"{name} query over the dependency graph")
        p.add_argument("--ident", required=True, help="full identifier ns?module?name")
        if needs_kind:
            p.add_argument("--kind", help="restrict results to this declaration kind")
    p = sub.add_parser("translate", parents=[common], help="translate a statement along a morphism")
    p.add_argument("--morphism", required=True, help="full morphism identifier")
    p.add_argument("--theorem", required=True, help="full statement identifier")
    sub.add_parser("stats", parents=[common], help="print library statistics")
    sub.choices["import"].add_argument("--output", help="optional omdoc output path")
    return parser


def parse_cli(argv: list[str]) -> CliConfig:
    ns = build_parser().parse_args(argv)
    return CliConfig(
        command=ns.command,
        input=ns.input,
        output=getattr(ns, "output", None),
        format=ns.format,
        checker=Config(eta_enabled=ns.eta, reduction_budget=ns.reduction_budget),
        include_proof_uses=ns.include_proof_uses,
        source_dir=ns.source_dir,
        allow_empty=ns.allow_empty,
        ident=getattr(ns, "ident", None),
        kind=getattr(ns, "kind", None),
        morphism=getattr(ns, "morphism", None),
        theorem=getattr(ns, "theorem", None),
        skip_check=getattr(ns, "skip_check", False),
    )


# ---------------------------------------------------------------------------
# loading


def _infer_format(path: str) -> str:
    if path.endswith(".omdoc.xml"):
        return "omdoc"
    if path.endswith(".toyset.xml"):
        return "toyset-xml"
    if path.endswith(".json"):
        return "toyhol-json"
    raise Malformed(f"cannot infer format from {path!r}; pass --format")


def _read_sources(source_dir: str) -> dict[str, str]:
    root = Path(source_dir)
    if not root.is_dir():
        raise Malformed(f"source directory {source_dir!r} does not exist")
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            rel = str(p.relative_to(root))
            try:
                out[rel] = p.read_text(encoding="utf-8")
            except UnicodeDecodeError as err:
                raise Malformed(f"{rel}: {err}") from err
    return out


def _load(cfg: CliConfig, guard_empty: bool) -> tuple[Library, list[str]]:
    """Load the input as a library plus human-readable import failures."""
    try:
        data = Path(cfg.input).read_bytes()
    except OSError as err:
        raise Malformed(str(err)) from err
    lib, report = _READERS[cfg.format or _infer_format(cfg.input)](data, cfg)
    failures = [f"{e.subject}\t{e.message}" for e in report.failures]
    if cfg.source_dir is not None:
        lib, _ = recover_source_refs(lib, _read_sources(cfg.source_dir))
    decls = sum(len(th.decls) for th in lib.theories)
    if guard_empty and data.strip() and decls == 0 and not cfg.allow_empty:
        raise EmptyCorpus(
            f"{cfg.input}: nonempty input produced zero declarations"
        )
    return lib, failures


# ---------------------------------------------------------------------------
# commands


def _proof_styles(decls: Iterable[Declaration]) -> dict[str, int]:
    """How many of `decls` carry each proof style of PROOF_STYLES."""
    styles = {s: 0 for s in PROOF_STYLES}
    for d in decls:
        match d.proof:
            case Omitted():
                styles["omitted"] += 1
            case DependsOn(_):
                styles["dependsOn"] += 1
            case ProofTerm(_):
                styles["term"] += 1
    return styles


def _check_rows(lib: Library, cfg: CliConfig, out: TextIO) -> int:
    """Per-theory check report; returns the total failure count."""
    failed = 0
    for th in lib.theories:
        report = check_theory(lib, th.name, cfg.checker)
        ok = sum(1 for r in report.results if r.ok)
        bad = [r for r in report.results if not r.ok]
        styles = _proof_styles(th.decls)
        out.write(
            f"theory\t{th.name.name}\tdeclarations\t{len(report.results)}"
            f"\tchecked\t{ok}\tfailed\t{len(bad)}"
            + "".join(f"\t{s}\t{styles[s]}" for s in PROOF_STYLES)
            + "\n"
        )
        for r in bad:
            out.write(f"failure\t{r.subject}\t{r.message}\n")
        failed += len(bad)
    return failed


def run_check(cfg: CliConfig, out: TextIO) -> int:
    lib, import_failures = _load(cfg, guard_empty=True)
    for row in import_failures:
        out.write(f"failure\t{row}\n")
    failed = _check_rows(lib, cfg, out) + len(import_failures)
    out.write(f"total\tfailed\t{failed}\n")
    return 1 if failed else 0


def run_import(cfg: CliConfig, out: TextIO) -> int:
    lib, import_failures = _load(cfg, guard_empty=True)
    for th in lib.theories:
        out.write(f"imported\t{th.name.name}\t{len(th.decls)}\n")
    for row in import_failures:
        out.write(f"failure\t{row}\n")
    if cfg.output is not None:
        Path(cfg.output).write_bytes(omdoc.serialize(lib))
        out.write(f"written\t{cfg.output}\n")
    return 1 if import_failures else 0


def run_export_omdoc(cfg: CliConfig, out: TextIO) -> int:
    lib, _ = _load(cfg, guard_empty=False)
    data = omdoc.serialize(lib)
    Path(cfg.output).write_bytes(data)
    out.write(f"written\t{cfg.output}\t{len(data)}\n")
    return 0


def run_export_rdf(cfg: CliConfig, out: TextIO) -> int:
    lib, import_failures = _load(cfg, guard_empty=False)
    checked = False
    if not cfg.skip_check:
        clean = all(
            r.ok
            for th in lib.theories
            for r in check_theory(lib, th.name, cfg.checker).results
        )
        checked = clean and not import_failures
    store = extract_triples(lib, checked=checked, include_proof_uses=cfg.include_proof_uses)
    data = write_ntriples(store)
    Path(cfg.output).write_bytes(data)
    out.write(f"written\t{cfg.output}\t{len(store)}\n")
    return 0


def _parse_ident(text: str) -> Ident:
    try:
        return Ident.parse(text)
    except ValueError as err:
        raise Malformed(str(err)) from None


def run_deps(cfg: CliConfig, out: TextIO) -> int:
    lib, _ = _load(cfg, guard_empty=False)
    store = extract_triples(lib, include_proof_uses=cfg.include_proof_uses)
    reached = transitive_uses(store, _parse_ident(cfg.ident))
    for ident in sorted(str(i) for i in reached):
        out.write(ident + "\n")
    return 0


def run_used_by(cfg: CliConfig, out: TextIO) -> int:
    lib, _ = _load(cfg, guard_empty=False)
    store = extract_triples(lib, include_proof_uses=cfg.include_proof_uses)
    users = used_by(store, _parse_ident(cfg.ident), cfg.kind)
    for ident in sorted(str(i) for i in users):
        out.write(ident + "\n")
    return 0


def run_translate(cfg: CliConfig, out: TextIO) -> int:
    lib, _ = _load(cfg, guard_empty=False)
    m = lib.find_morphism(_parse_ident(cfg.morphism))
    if m is None:
        raise UnknownIdent(f"morphism {cfg.morphism} not found")
    decl = lib.find_decl(_parse_ident(cfg.theorem))
    if decl is None:
        raise UnknownIdent(f"statement {cfg.theorem} not found")
    if decl.tp is None:
        raise UnknownIdent(f"{cfg.theorem} has no statement to translate")
    report = check_morphism(lib, m, cfg.checker)
    bad = [r for r in report.results if not r.ok]
    if bad:
        for r in bad:
            out.write(f"failure\t{r.subject}\t{r.message}\n")
        return 1
    translated = translate(lib, m, decl.tp)
    out.write(f"{decl.name} : {format_term(translated)}\n")
    return 0


def run_stats(cfg: CliConfig, out: TextIO) -> int:
    lib, _ = _load(cfg, guard_empty=False)
    decls = [d for th in lib.theories for d in th.decls]
    kinds = {k: 0 for k in KINDS}
    styles = _proof_styles(decls)
    with_src = 0
    for d in decls:
        kinds[d.meta.kind] += 1
        if d.meta.source_ref is not None:
            with_src += 1
    store = extract_triples(lib, include_proof_uses=cfg.include_proof_uses)
    coverage = 100.0 * with_src / len(decls) if decls else 0.0
    out.write(f"theories\t{len(lib.theories)}\n")
    out.write(f"declarations\t{len(decls)}\n")
    for k in KINDS:
        out.write(f"kind:{k}\t{kinds[k]}\n")
    for s in PROOF_STYLES:
        out.write(f"proof:{s}\t{styles[s]}\n")
    out.write(f"rdfTriples\t{len(store)}\n")
    out.write(f"sourceRefCoverage\t{coverage:.1f}\n")
    return 0


# ---------------------------------------------------------------------------
# entry point


COMMANDS = {
    "check": run_check,
    "import": run_import,
    "export-omdoc": run_export_omdoc,
    "export-rdf": run_export_rdf,
    "deps": run_deps,
    "used-by": run_used_by,
    "translate": run_translate,
    "stats": run_stats,
}


def run(cfg: CliConfig, out: TextIO) -> int:
    return COMMANDS[cfg.command](cfg, out)


def main(argv: Optional[list[str]] = None) -> int:
    cfg = parse_cli(sys.argv[1:] if argv is None else argv)
    try:
        return run(cfg, sys.stdout)
    except UnknownIdent as err:
        # names supplied by the user that fail to resolve are input
        # errors, not library check failures
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
