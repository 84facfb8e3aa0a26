"""The argparse command line that `proofport.cli` replaced, kept as the
reference its table-driven parser is compared against.

`build_parser`, its converters and `parse_cli` are as they were before the
table replaced them.
"""

import argparse
import os
from typing import Callable, TextIO

from proofport.cli import (
    FORMATS,
    run_check,
    run_deps,
    run_export_omdoc,
    run_export_rdf,
    run_import,
    run_stats,
    run_translate,
    run_used_by,
)
from proofport.kernel import DEFAULT_CONFIG, KINDS, Config


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
