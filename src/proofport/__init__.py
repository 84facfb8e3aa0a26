"""Proof library interchange: a small logical-framework kernel, logic
encodings, prover-export importers, XML and RDF serialization, and
theory morphisms.

The usual flow: parse an export (`importers.parse_toyhol`/`parse_toyset`),
import it (`importers.import_toyhol`/`import_toyset`),
`kernel.check_library`, then hand the result to `omdoc.serialize` or
`ontology.extract_triples`. Each name lives in its submodule. The
`proofport` console script drives the same pipeline from the shell.
"""

__version__ = "0.1.0"
