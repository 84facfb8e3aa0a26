"""Batch pipeline entry point: import, check, export, query, stats.

Every command reads one input file, writes machine-parsable
tab-separated lines to stdout, and exits 0 on success, 1 on semantic
check failures, 2 on format errors and unresolved command-line names.

`COMMANDS` is the command line's one table: each `Command` has its runner
and its `Option`s, and each option its dest, converter, OAF_* preset
variable, default, required flag and help string. The presets are
OAF_FORMAT, OAF_ETA_ENABLED, OAF_INCLUDE_PROOF_USES, OAF_REDUCTION_BUDGET,
OAF_SOURCE_DIR and OAF_ALLOW_EMPTY; a preset is read only when its flag is
absent, so explicit flags win. `parse_cli` reads `argv` against the table in
one pass, with argparse's syntax: options anywhere after the command, as
`--opt value` or `--opt=value`, a unique prefix for a flag, `--` to end the
options, and the last of a repeated option. It returns a namespace that
carries the command's `runner` and its checker settings as one `Config` in
`checker`; each runner reads only the options its own command defines.

Every command runs with the cyclic garbage collector paused, because the
pipeline makes no reference cycles; `main` then restores the caller's
setting. The collector would only rescan a heap that grows all along.
"""

from __future__ import annotations

import gc
import os
import sys
from contextlib import contextmanager
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NoReturn, Optional, TextIO

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
from .ontology import UseGraph, transitive_uses, triples, used_by, write_ntriples

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


class _UsageError(Exception):
    """A command line the table rejects; `parse_cli` prints it and exits 2."""


def _choice(choices: tuple[str, ...], listed: str) -> Callable[[str], str]:
    """A converter that accepts only `choices`; `listed` spells them in its message."""

    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"invalid choice: {text!r} (choose from {listed})")
        return text

    return convert


def _budget(text: str) -> int:
    if not text.strip().removeprefix("+").isdecimal():
        raise ValueError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


def _source_dir(text: str) -> str:
    # an empty path would be the current directory
    if not text:
        raise ValueError("expected a directory path, got ''")
    return text


_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _boolean(text: str) -> bool:
    value = text.strip().lower()
    if value not in _TRUE + _FALSE:
        raise ValueError(f"expected one of {'/'.join(_TRUE + _FALSE)}, got {text!r}")
    return value in _TRUE


class Option:
    """One row of the table: the positional `input`, a `--flag VALUE`, a
    switch (`--flag`/`--no-flag`) or a bare `--flag`.

    `convert` turns a value into the setting stored as `dest`, raising
    ValueError with the reason for a bad one. A switch's `convert` reads only
    its `env` preset; a bare flag has none. An option absent from the command
    line takes its preset, converted, when `env` is set, else its `default`.
    """

    __slots__ = ("flag", "dest", "name", "help", "convert", "env", "default", "required", "switch")

    def __init__(self, flag: str, help: str, convert: Optional[Callable[[str], Any]] = str,
                 env: Optional[str] = None, default: Any = None, required: bool = False,
                 switch: bool = False) -> None:
        self.flag, self.help, self.convert, self.env = flag, help, convert, env
        self.default, self.required, self.switch = default, required, switch
        self.dest = flag.lstrip("-").replace("-", "_")
        # what error messages call the option
        self.name = f"{flag}/--no-{flag[2:]}" if switch else flag

    def read(self, text: str) -> Any:
        try:
            return self.convert(text)
        except ValueError as err:
            raise _UsageError(f"argument {self.name}: {err}") from None


_HELP = (None, None)  # what -h and --help name in a table of flags

# The options of every command: the input and how it is read.
_INPUT_OPTIONS = (
    Option("input", "input file path", required=True),
    Option("--format", "input format: " + ", ".join(FORMATS) + "; inferred from the "
           "file suffix when omitted", _choice(FORMATS, str(FORMATS)), "OAF_FORMAT"),
    Option("--eta", "enable eta in definitional equality", _boolean, "OAF_ETA_ENABLED",
           True, switch=True),
    Option("--include-proof-uses", "count constants inside proof terms as uses", _boolean,
           "OAF_INCLUDE_PROOF_USES", False, switch=True),
    Option("--reduction-budget", "reduction step budget", _budget, "OAF_REDUCTION_BUDGET",
           DEFAULT_CONFIG.reduction_budget),
    Option("--source-dir", "directory of source files for reference recovery on import",
           _source_dir, "OAF_SOURCE_DIR"),
    Option("--allow-empty", "accept nonempty input that yields zero declarations", _boolean,
           "OAF_ALLOW_EMPTY", False, switch=True),
)


class Command:
    """One command: its name, its runner, a help line and its options.

    `flags` maps each spelling of an option to the option and the value that
    spelling sets, None where it reads one; -h and --help map to `_HELP`.
    """

    __slots__ = ("name", "runner", "help", "options", "flags")

    def __init__(self, name: str, runner: Callable[[SimpleNamespace, TextIO], int], help: str,
                 *options: Option) -> None:
        self.name, self.runner, self.help = name, runner, help
        self.options = _INPUT_OPTIONS + options
        self.flags: dict[str, tuple] = {"-h": _HELP, "--help": _HELP}
        for opt in self.options:
            if opt.switch:
                self.flags[opt.flag] = (opt, True)
                self.flags[f"--no-{opt.flag[2:]}"] = (opt, False)
            elif opt.flag.startswith("-"):
                self.flags[opt.flag] = (opt, True if opt.convert is None else None)


def _option(flags: dict[str, tuple], token: str) -> Optional[tuple[Optional[str], Optional[str]]]:
    """The flag `token` spells and its `=` value, or None when `token` is a
    value; the flag is None for an option not in `flags`.

    As argparse reads a token: a unique prefix names a flag, and a token
    that starts with `-` is a value only when it is `-` alone, looks like a
    negative number or holds a space.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in flags:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in flags:
        return name, value
    if token[1] == "-":
        found = [flag for flag in flags if flag.startswith(name)]
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token.startswith("-h"):  # -h, then the rest as more one-letter flags: -hh is -h -h
        return "-h", token[1:].lstrip("h") or None
    whole, dot, fraction = token[1:].partition(".")
    negative = fraction.isdecimal() and (not whole or whole.isdecimal()) if dot else whole.isdecimal()
    return None if negative or " " in token else (None, None)


def _help(command: Optional[Command], explicit: Optional[str], rest: Iterable[str] = ()) -> NoReturn:
    """Print the help of `command`, or of the program when None, and exit 0;
    an ambiguous prefix in the `rest` of the options still fails first."""
    if explicit is not None:
        raise _UsageError(f"argument -h/--help: ignored explicit argument {explicit!r}")
    if command is None:
        about = "proof library interchange pipeline; proofport <command> --help lists its options"
        rows = [(name, c.help) for name, c in COMMANDS.items()]
    else:
        for token in rest:
            _option(command.flags, token)
        about, rows = command.help, [("-h, --help", "show this help message and exit")]
        for opt in command.options:
            left = opt.flag
            if opt.switch:
                left += f", --no-{opt.flag[2:]}"
            elif opt.convert is not None and opt.flag.startswith("-"):
                left += f" {opt.dest.upper()}"
            rows.append((left, opt.help + (f" (preset: {opt.env})" if opt.env else "")))
    sys.stdout.write(f"{_usage(command)}\n\n{about}\n\n"
                     + "".join(f"  {left}\n      {text}\n" for left, text in rows))
    raise SystemExit(0)


def _usage(command: Optional[Command]) -> str:
    if command is None:
        return f"usage: proofport [-h] {{{','.join(COMMANDS)}}} ..."
    required = "".join(f" {o.flag} {o.dest.upper()}" for o in command.options
                       if o.required and o.flag.startswith("-"))
    return f"usage: proofport {command.name} [-h] [options]{required} input"


def _parse(command: Command, argv: list[str], extras: list[str]) -> SimpleNamespace:
    """The namespace of `command` from the tokens after its name; `extras`
    holds the unknown options met before the name."""
    flags, values, positionals = command.flags, {}, []
    end = argv.index("--") if "--" in argv else len(argv)
    i = 0
    while i < end:
        token = argv[i]
        i += 1
        hit = _option(flags, token)
        if hit is None:
            positionals.append(token)
            continue
        flag, value = hit
        if flag is None:
            extras.append(token)
            continue
        opt, setting = flags[flag]
        if opt is None:
            _help(command, value, argv[i:end])
        if setting is not None:
            if value is not None:
                raise _UsageError(f"argument {opt.name}: ignored explicit argument {value!r}")
            values[opt.dest] = setting
            continue
        if value is None:
            if i == end or _option(flags, argv[i]) is not None:
                raise _UsageError(f"argument {opt.name}: expected one argument")
            value = argv[i]
            i += 1
        values[opt.dest] = opt.read(value)
    positionals += argv[end + 1:]
    if positionals:
        values["input"] = positionals[0]
        extras += positionals[1:]
    missing = []
    for opt in command.options:
        if opt.dest in values:
            continue
        preset = os.environ.get(opt.env) if opt.env else None
        if preset is not None:
            values[opt.dest] = opt.read(preset)
        elif opt.required:
            missing.append(opt.flag)
        else:
            values[opt.dest] = opt.default
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command.name, runner=command.runner, **values)


def parse_cli(argv: list[str]) -> SimpleNamespace:
    """The parsed arguments, plus the checker settings as one `Config` in `checker`.

    -h or --help prints the help and exits 0; a usage error prints the usage
    and the reason to stderr and exits 2.
    """
    command = None
    try:
        extras = []
        for i, token in enumerate(argv):
            hit = None if token == "--" else _option(_TOP_FLAGS, token)
            if hit is None:
                command = COMMANDS.get(token)
                if command is None:
                    raise _UsageError(f"argument command: invalid choice: {token!r} "
                                      f"(choose from {', '.join(map(repr, COMMANDS))})")
                args = _parse(command, argv[i + 1:], extras)
                break
            if hit[0] is None:
                extras.append(token)
            else:
                _help(None, hit[1])
        else:
            raise _UsageError("the following arguments are required: command")
    except _UsageError as err:
        prog = "proofport" if command is None else f"proofport {command.name}"
        sys.stderr.write(f"{_usage(command)}\n{prog}: error: {err}\n")
        raise SystemExit(2) from None
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
            except (OSError, UnicodeDecodeError) as err:
                raise Malformed(f"{rel}: {err}") from err
    return out


def _load(args: SimpleNamespace) -> tuple[Library, Optional[CheckReport]]:
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


def _guard_empty(lib: Library, args: SimpleNamespace) -> None:
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


def _check_rows(lib: Library, args: SimpleNamespace, out: TextIO, imported: bool) -> int:
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


def run_check(args: SimpleNamespace, out: TextIO) -> int:
    lib, report = _load(args)
    import_failures = () if report is None else report.failures
    _write_failures(import_failures, out)
    _guard_empty(lib, args)
    failed = _check_rows(lib, args, out, report is not None) + len(import_failures)
    out.write(f"total\tfailed\t{failed}\n")
    return 1 if failed else 0


@contextmanager
def _output(path: str) -> Iterator[BinaryIO]:
    """An output file open for writing; a path that cannot be written is a usage error."""
    try:
        with open(path, "wb") as f:
            yield f
    except OSError as err:
        raise Malformed(f"cannot write {path}: {err.strerror or err}") from err


def _write(path: str, data: bytes) -> None:
    with _output(path) as f:
        f.write(data)


def run_import(args: SimpleNamespace, out: TextIO) -> int:
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


def run_export_omdoc(args: SimpleNamespace, out: TextIO) -> int:
    lib, _ = _load(args)
    data = omdoc.serialize(lib)
    _write(args.output, data)
    out.write(f"written\t{args.output}\t{len(data)}\n")
    return 0


def run_export_rdf(args: SimpleNamespace, out: TextIO) -> int:
    lib, report = _load(args)
    checked = False
    if not args.skip_check:
        checked = report.ok if report is not None else all(
            r.ok
            for th in lib.theories
            for r in check_theory(lib, th.name, args.checker).results
        )
    # the file is opened only once the check is done, and written as the
    # triples are extracted, a few thousand at a time
    rows, written = triples(lib, checked, args.include_proof_uses), 0
    with _output(args.output) as f:
        while chunk := write_ntriples(islice(rows, 4096)):
            f.write(chunk)
            written += chunk.count(b"\n")  # a line per triple
    out.write(f"written\t{args.output}\t{written}\n")
    return 0


def _parse_ident(text: str) -> Ident:
    try:
        return Ident.parse(text)
    except ValueError as err:
        raise Malformed(str(err)) from None


def _run_query(
    args: SimpleNamespace, out: TextIO, query: Callable[[UseGraph, Ident], set[Ident]]
) -> int:
    """Print what `query` finds from `--ident`, sorted; an unknown one is an input error."""
    lib, _ = _load(args)
    try:
        found = query(UseGraph(lib, args.include_proof_uses), _parse_ident(args.ident))
    except UnknownIdent as err:
        raise Malformed(str(err)) from None
    for ident in sorted(str(i) for i in found):
        out.write(ident + "\n")
    return 0


def run_deps(args: SimpleNamespace, out: TextIO) -> int:
    return _run_query(args, out, transitive_uses)


def run_used_by(args: SimpleNamespace, out: TextIO) -> int:
    return _run_query(args, out, lambda graph, ident: used_by(graph, ident, args.kind))


def run_translate(args: SimpleNamespace, out: TextIO) -> int:
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


def run_stats(args: SimpleNamespace, out: TextIO) -> int:
    lib, _ = _load(args)
    decls = [d for th in lib.theories for d in th.decls]
    kinds = {k: 0 for k in KINDS}
    styles = _proof_styles(decls)
    with_src = 0
    for d in decls:
        kinds[d.meta.kind] += 1
        if d.meta.source_ref is not None:
            with_src += 1
    rdf = sum(1 for _ in triples(lib, include_proof_uses=args.include_proof_uses))
    coverage = 100.0 * with_src / len(decls) if decls else 0.0
    out.write(f"theories\t{len(lib.theories)}\n")
    out.write(f"declarations\t{len(decls)}\n")
    for k in KINDS:
        out.write(f"kind:{k}\t{kinds[k]}\n")
    for s in PROOF_STYLES:
        out.write(f"proof:{s}\t{styles[s]}\n")
    out.write(f"rdfTriples\t{rdf}\n")
    out.write(f"sourceRefCoverage\t{coverage:.1f}\n")
    return 0


# ---------------------------------------------------------------------------
# the command table

_OUTPUT = Option("--output", "output file path", required=True)
_IDENT = Option("--ident", "full identifier ns?module?name", required=True)
COMMANDS = {c.name: c for c in (
    Command("check", run_check, "kernel-check every theory"),
    Command("import", run_import, "import and report, optionally write omdoc",
            Option("--output", "optional omdoc output path")),
    Command("export-omdoc", run_export_omdoc, "write the library as omdoc XML", _OUTPUT),
    Command("export-rdf", run_export_rdf, "write the library as N-Triples", _OUTPUT,
            Option("--skip-check", "record checkStatus=unchecked instead of checking first",
                   None, default=False)),
    Command("deps", run_deps, "deps query over the dependency graph", _IDENT),
    Command("used-by", run_used_by, "used-by query over the dependency graph", _IDENT,
            Option("--kind", "restrict results to this declaration kind: " + ", ".join(KINDS),
                   _choice(KINDS, ", ".join(map(repr, KINDS))))),
    Command("translate", run_translate, "translate a statement along a morphism",
            Option("--morphism", "full morphism identifier", required=True),
            Option("--theorem", "full statement identifier", required=True)),
    Command("stats", run_stats, "print library statistics"),
)}
_TOP_FLAGS = {"-h": _HELP, "--help": _HELP}


# ---------------------------------------------------------------------------
# entry point


def run(args: SimpleNamespace, out: TextIO) -> int:
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
