"""Exception hierarchy shared across the toolchain.

Two families matter to callers: CheckError covers semantic failures
(typing, name resolution, reduction budgets), FormatError covers
rejected input documents. The command line maps the families to exit
codes 1 and 2 respectively. The strict-reading primitives that every
input reader shares live next to the format errors they raise.
"""

import xml.etree.ElementTree as ET
from typing import Mapping


class ProofportError(Exception):
    """Base class for every deliberate error in this package."""


class CheckError(ProofportError):
    """A term, declaration, morphism, or library failed a semantic check."""


class FormatError(ProofportError):
    """An input document violated its format contract."""


# ---------------------------------------------------------------------------
# semantic errors


class ReductionDepthExceeded(CheckError):
    """Reduction did not reach a head normal form within the step budget."""


class NotTyped(CheckError):
    """The term has no type (the kind `type`, or an unsynthesizable form)."""


class UnknownIdent(CheckError):
    """An identifier did not resolve to a visible declaration.

    `name` is the unresolved name as the input document wrote it, when
    an importer raised the error."""

    def __init__(self, message: str, name: str | None = None):
        self.name = name
        super().__init__(message)


class NotAFunction(CheckError):
    """Application head whose type is not a Pi after reduction."""


class Mismatch(CheckError):
    """Inferred and expected types are not definitionally equal."""


class SubtypeWitnessMissing(CheckError):
    """A term of the base type was used where the subtype requires a witness."""


class Cycle(CheckError):
    """The include graph contains a cycle."""


class DanglingIdent(CheckError):
    """Serialization found an identifier that does not resolve."""


class UnassignedConstant(CheckError):
    """A morphism has no assignment for an undefined source constant."""


class UnificationFailure(CheckError):
    """Simple-type unification failed."""

    def __init__(self, where: str, message: str = ""):
        self.where = where
        super().__init__(f"{where}: {message}" if message else where)


class AmbiguousType(CheckError):
    """A type variable survived unification; no principal ground type."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(name)


# ---------------------------------------------------------------------------
# format errors


class Malformed(FormatError):
    """Input is not syntactically valid for its format; `line` and `column`,
    both 1-based, say where when they are known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line, self.column = line, column
        where = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{where}: {message}" if line is not None else message)


class SchemaViolation(FormatError):
    """Structurally valid input that breaks the schema; path names the spot."""

    def __init__(self, path: str, message: str = ""):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}" if message else path)


class UnsupportedVersion(FormatError):
    """The document declares a format version this tool does not speak."""


class EmptyCorpus(FormatError):
    """An operation that needs content received none."""


# ---------------------------------------------------------------------------
# strict reading, shared by every input format

# The deepest nesting an input may ask for, as a toyset pvar arity. The kernel
# takes a few frames per level: at Python's default recursion limit a scheme
# that applies its variable fails from about arity 500 on.
MAX_DEPTH = 256


def check_keys(obj: Mapping, path: str, required: tuple[str, ...],
               optional: tuple[str, ...] = (), noun: str = "attribute") -> Mapping:
    """`obj` (a JSON object or an XML attrib), once it is known to hold every
    `required` key and no key outside `required` and `optional`; a violation
    is a SchemaViolation at `path.key`."""
    for key in obj:
        if key not in required and key not in optional:
            raise SchemaViolation(f"{path}.{key}" if path else key, f"unknown {noun}")
    for key in required:
        if key not in obj:
            raise SchemaViolation(f"{path}.{key}" if path else key, f"missing {noun}")
    return obj


def check_version(version: str, supported: str) -> None:
    if version != supported:
        raise UnsupportedVersion(version)


def read_xml(data: bytes, tag: str, attrs: tuple[str, ...], version: str) -> ET.Element:
    """The root element of UTF-8 XML `data`: a `<tag>` with exactly the
    attributes `attrs`, among them a `version` equal to `version`."""
    try:
        root = ET.fromstring(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise Malformed(str(err)) from err
    except ET.ParseError as err:
        from xml.parsers.expat import ErrorString  # only on this error path

        line, column = err.position  # expat's column counts from 0
        raise Malformed(ErrorString(err.code), line, column + 1) from err
    except OverflowError as err:  # the parser's size limits
        raise Malformed(str(err)) from err
    if root.tag != tag:
        raise SchemaViolation(root.tag, f"root element must be <{tag}>")
    check_version(check_keys(root.attrib, tag, attrs)["version"], version)
    return root
