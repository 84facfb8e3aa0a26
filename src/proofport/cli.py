"""Batch pipeline entry point: import, check, export, query, stats.

Every command reads one input file, writes machine-parsable
tab-separated lines to stdout, and exits 0 on success, 1 on semantic
check failures, 2 on format errors and unresolved command-line names.
Flags can be preset via environment variables prefixed OAF_ (OAF_FORMAT,
OAF_ETA_ENABLED, OAF_INCLUDE_PROOF_USES, OAF_REDUCTION_BUDGET,
OAF_SOURCE_DIR, OAF_ALLOW_EMPTY); explicit flags win.

`build_parser` declares every option and every command once: each
subcommand's parser stores its runner as `runner`. `parse_cli` returns the
parsed arguments with the checker settings attached as one `Config` in
`checker`, and each runner reads only the options its own subcommand defines.

Every command runs with the cyclic garbage collector paused, because the
pipeline makes no reference cycles; `main` then restores the caller's
setting. The collector would only rescan a heap that grows all along.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Optional, TextIO

from . import omdoc
from .errors import (
    CheckError,
    EmptyCorpus,
    FormatError,
    Malformed,
    UnknownIdent,
)
from .importers import (
    import_toyhol,
    import_toyset,
    parse_toyhol,
    parse_toyset,
    recover_source_refs,
)
from .kernel import (
    DEFAULT_CONFIG,
    KINDS,
    CheckReport,
    CheckResult,
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
from .ontology import TripleStore, extract_triples, transitive_uses, used_by, write_ntriples

# format name -> parse and import of the input bytes. The readers are looked
# up by name on every call, so a rebinding of `parse_toyhol` is seen here.
_READERS = {
    "toyhol-json": lambda data, args: import_toyhol(parse_toyhol(data), args.checker),
    "toyset-xml": lambda data, args: import_toyset(parse_toyset(data), args.checker),
    "omdoc": lambda data, args: (omdoc.parse(data), None),
}
FORMATS = tuple(_READERS)
PROOF_STYLES = ("omitted", "dependsOn", "term")


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


def _source_dir(text: str) -> str:
    # an empty path would be the current directory
    if not text:
        raise argparse.ArgumentTypeError("expected a directory path, got ''")
    return text


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
        type=_source_dir,
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

    def command(name: str, runner: Callable[[argparse.Namespace, TextIO], int], help: str):
        """A subcommand with the common options; its parsed arguments carry `runner`."""
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(runner=runner)
        return p

    command("check", run_check, "kernel-check every theory")
    p = command("import", run_import, "import and report, optionally write omdoc")
    p.add_argument("--output", help="optional omdoc output path")
    p = command("export-omdoc", run_export_omdoc, "write the library as omdoc XML")
    p.add_argument("--output", required=True, help="output file path")
    p = command("export-rdf", run_export_rdf, "write the library as N-Triples")
    p.add_argument("--output", required=True, help="output file path")
    p.add_argument(
        "--skip-check",
        action="store_true",
        help="record checkStatus=unchecked instead of checking first",
    )
    for name, runner in (("deps", run_deps), ("used-by", run_used_by)):
        p = command(name, runner, f"{name} query over the dependency graph")
        p.add_argument("--ident", required=True, help="full identifier ns?module?name")
        if runner is run_used_by:
            p.add_argument(
                "--kind", choices=KINDS, help="restrict results to this declaration kind"
            )
    p = command("translate", run_translate, "translate a statement along a morphism")
    p.add_argument("--morphism", required=True, help="full morphism identifier")
    p.add_argument("--theorem", required=True, help="full statement identifier")
    command("stats", run_stats, "print library statistics")
    return parser


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments, plus the checker settings as one `Config` in `checker`."""
    args = build_parser().parse_args(argv)
    args.checker = Config(eta_enabled=args.eta, reduction_budget=args.reduction_budget)
    return args


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
        problem = "is not a directory" if root.exists() else "does not exist"
        raise Malformed(f"source directory {source_dir!r} {problem}")
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            rel = str(p.relative_to(root))
            try:
                out[rel] = p.read_text(encoding="utf-8")
            except UnicodeDecodeError as err:
                raise Malformed(f"{rel}: {err}") from err
    return out


def _load(args: argparse.Namespace) -> tuple[Library, Optional[CheckReport]]:
    """Load the input as a library plus its import's report, None for OMDoc.
    The import keeps the declarations that pass, with a full check's verdicts."""
    try:
        data = Path(args.input).read_bytes()
    except OSError as err:
        raise Malformed(str(err)) from err
    lib, report = _READERS[args.format or _infer_format(args.input)](data, args)
    if args.source_dir is not None:
        lib, _ = recover_source_refs(lib, _read_sources(args.source_dir))
    return lib, report


def _guard_empty(lib: Library, args: argparse.Namespace) -> None:
    """Reject a library without declarations, unless --allow-empty."""
    if not args.allow_empty and not any(th.decls for th in lib.theories):
        raise EmptyCorpus(f"{args.input}: nonempty input produced zero declarations")


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


def _write_failures(rows: Iterable[CheckResult], out: TextIO) -> None:
    for r in rows:
        out.write(f"failure\t{r.subject}\t{r.message}\n")


def _check_rows(lib: Library, args: argparse.Namespace, out: TextIO, imported: bool) -> int:
    """Per-theory check report; returns the total failure count."""
    failed = 0
    for th in lib.theories:
        if imported:
            ok, bad = len(th.decls), ()
        else:
            report = check_theory(lib, th.name, args.checker)
            bad = report.failures
            ok = len(report.results) - len(bad)
        styles = _proof_styles(th.decls)
        out.write(
            f"theory\t{th.name.name}\tdeclarations\t{len(th.decls)}"
            f"\tchecked\t{ok}\tfailed\t{len(bad)}"
            + "".join(f"\t{s}\t{styles[s]}" for s in PROOF_STYLES)
            + "\n"
        )
        _write_failures(bad, out)
        failed += len(bad)
    return failed


def run_check(args: argparse.Namespace, out: TextIO) -> int:
    lib, report = _load(args)
    import_failures = () if report is None else report.failures
    _write_failures(import_failures, out)
    _guard_empty(lib, args)
    failed = _check_rows(lib, args, out, report is not None) + len(import_failures)
    out.write(f"total\tfailed\t{failed}\n")
    return 1 if failed else 0


def _write(path: str, data: bytes) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_bytes(data)
    except OSError as err:
        raise Malformed(f"cannot write {path}: {err.strerror or err}") from err


def run_import(args: argparse.Namespace, out: TextIO) -> int:
    lib, report = _load(args)
    import_failures = () if report is None else report.failures
    for th in lib.theories:
        out.write(f"imported\t{th.name.name}\t{len(th.decls)}\n")
    _write_failures(import_failures, out)
    _guard_empty(lib, args)
    if args.output is not None:
        _write(args.output, omdoc.serialize(lib))
        out.write(f"written\t{args.output}\n")
    return 1 if import_failures else 0


def run_export_omdoc(args: argparse.Namespace, out: TextIO) -> int:
    lib, _ = _load(args)
    data = omdoc.serialize(lib)
    _write(args.output, data)
    out.write(f"written\t{args.output}\t{len(data)}\n")
    return 0


def run_export_rdf(args: argparse.Namespace, out: TextIO) -> int:
    lib, report = _load(args)
    checked = False
    if not args.skip_check:
        checked = report.ok if report is not None else all(
            r.ok
            for th in lib.theories
            for r in check_theory(lib, th.name, args.checker).results
        )
    store = extract_triples(lib, checked=checked, include_proof_uses=args.include_proof_uses)
    data = write_ntriples(store)
    _write(args.output, data)
    out.write(f"written\t{args.output}\t{len(store)}\n")
    return 0


def _parse_ident(text: str) -> Ident:
    try:
        return Ident.parse(text)
    except ValueError as err:
        raise Malformed(str(err)) from None


def _run_query(
    args: argparse.Namespace, out: TextIO, query: Callable[[TripleStore, Ident], set[Ident]]
) -> int:
    """Print what `query` finds from `--ident`, sorted; an unknown one is an input error."""
    lib, _ = _load(args)
    store = extract_triples(lib, include_proof_uses=args.include_proof_uses)
    try:
        found = query(store, _parse_ident(args.ident))
    except UnknownIdent as err:
        raise Malformed(str(err)) from None
    for ident in sorted(str(i) for i in found):
        out.write(ident + "\n")
    return 0


def run_deps(args: argparse.Namespace, out: TextIO) -> int:
    return _run_query(args, out, transitive_uses)


def run_used_by(args: argparse.Namespace, out: TextIO) -> int:
    return _run_query(args, out, lambda store, ident: used_by(store, ident, args.kind))


def run_translate(args: argparse.Namespace, out: TextIO) -> int:
    lib, _ = _load(args)
    m = lib.find_morphism(_parse_ident(args.morphism))
    if m is None:
        raise Malformed(f"morphism {args.morphism} not found")
    decl = lib.find_decl(_parse_ident(args.theorem))
    if decl is None:
        raise Malformed(f"statement {args.theorem} not found")
    if decl.tp is None:
        raise Malformed(f"{args.theorem} has no statement to translate")
    bad = check_morphism(lib, m, args.checker).failures
    if bad:
        _write_failures(bad, out)
        return 1
    translated = translate(lib, m, decl.tp)
    out.write(f"{decl.name} : {format_term(translated)}\n")
    return 0


def run_stats(args: argparse.Namespace, out: TextIO) -> int:
    lib, _ = _load(args)
    decls = [d for th in lib.theories for d in th.decls]
    kinds = {k: 0 for k in KINDS}
    styles = _proof_styles(decls)
    with_src = 0
    for d in decls:
        kinds[d.meta.kind] += 1
        if d.meta.source_ref is not None:
            with_src += 1
    store = extract_triples(lib, include_proof_uses=args.include_proof_uses)
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


def run(args: argparse.Namespace, out: TextIO) -> int:
    return args.runner(args, out)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_cli(sys.argv[1:] if argv is None else argv)
    enabled = gc.isenabled()
    gc.disable()  # the collector policy; see the module docstring
    try:
        return run(args, sys.stdout)
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CheckError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
