"""Proof library interchange: a small logical-framework kernel, logic
encodings, prover-export importers, XML and RDF serialization, and
theory morphisms.

The usual flow: parse an export (`parse_toyhol`/`parse_toyset`), import
it (`import_toyhol`/`import_toyset`), `check_library`, then hand the
result to `omdoc.serialize` or `extract_triples`. The `proofport`
console script drives the same pipeline from the shell.
"""

from . import omdoc
from .encodings import logic_library
from .errors import CheckError, FormatError
from .importers import (
    import_toyhol,
    import_toyset,
    parse_toyhol,
    parse_toyset,
    recover_source_refs,
)
from .kernel import (
    Apply,
    CheckReport,
    CheckResult,
    Config,
    Const,
    DEFAULT_CONFIG,
    Declaration,
    DependsOn,
    Ident,
    Lambda,
    Library,
    Metadata,
    Omitted,
    Pi,
    ProofTerm,
    SourceRef,
    SubIn,
    SubOut,
    SubType,
    Term,
    Theory,
    TypeKind,
    Var,
    check_library,
    check_theory,
    flatten,
    format_term,
    theory_ident,
)
from .morphisms import (
    Morphism,
    check_morphism,
    compose,
    identity_morphism,
    install_morphism,
    translate,
)
from .ontology import (
    RdfTriple,
    TripleStore,
    extract_triples,
    ident_of_iri,
    iri_of,
    read_ntriples,
    transitive_uses,
    used_by,
    write_ntriples,
)

__version__ = "0.1.0"

__all__ = [
    "Apply",
    "CheckError",
    "CheckReport",
    "CheckResult",
    "Config",
    "Const",
    "DEFAULT_CONFIG",
    "Declaration",
    "DependsOn",
    "FormatError",
    "Ident",
    "Lambda",
    "Library",
    "Metadata",
    "Morphism",
    "Omitted",
    "Pi",
    "ProofTerm",
    "RdfTriple",
    "SourceRef",
    "SubIn",
    "SubOut",
    "SubType",
    "Term",
    "Theory",
    "TripleStore",
    "TypeKind",
    "Var",
    "check_library",
    "check_morphism",
    "check_theory",
    "compose",
    "extract_triples",
    "flatten",
    "format_term",
    "ident_of_iri",
    "identity_morphism",
    "import_toyhol",
    "import_toyset",
    "install_morphism",
    "iri_of",
    "logic_library",
    "omdoc",
    "parse_toyhol",
    "parse_toyset",
    "read_ntriples",
    "recover_source_refs",
    "theory_ident",
    "transitive_uses",
    "translate",
    "used_by",
    "write_ntriples",
]
