"""The benchmark corpus: named STG specifications as a first-class subsystem.

The corpus turns the specifications the repository is evaluated on --
integration-test controllers, the paper's Table-1-style circuits and the
negative examples of Section 3 -- into registered, metadata-carrying
entries instead of loose files::

    from repro import corpus

    corpus.names()                      # all registered benchmarks
    stg = corpus.load("sbuf_send_ctl")  # parsed via repro.stg.parser
    corpus.write_g("vme_read", "/tmp/vme_read.g")
    corpus.entry("mutex_element").expected["csc"]   # -> True

Every entry records its expected verdicts (consistency, persistency,
CSC/USC, deadlock freedom, state count, classification), which the
``batch-check`` CLI mode and the cross-engine tests validate against both
verification engines.
"""

from repro.corpus.loader import (
    ensure_g_file,
    entry,
    g_text,
    load,
    names,
    structurally_equal,
    write_all,
    write_g,
)
from repro.corpus.registry import (
    FAMILIES,
    REGISTRY,
    REPORT_FIELDS,
    CorpusEntry,
    CorpusError,
    ScalableFamily,
    UnknownFamilyError,
    family,
    mismatches_against,
)

__all__ = [
    "FAMILIES",
    "REGISTRY",
    "REPORT_FIELDS",
    "CorpusEntry",
    "ScalableFamily",
    "UnknownFamilyError",
    "family",
    "mismatches_against",
    "CorpusError",
    "ensure_g_file",
    "entry",
    "g_text",
    "load",
    "names",
    "structurally_equal",
    "write_all",
    "write_g",
]
