"""Ahead-of-time compiled filter-index machinery.

Three modules, one pipeline: :mod:`~repro.filters.compiled.automaton`
packs the index's keyword set into flat Aho-Corasick tables,
:mod:`~repro.filters.compiled.index` wraps them (plus per-content-type
bucket partitions and a literal-gated fallback) as the frozen engine's
probe structure, and
:mod:`~repro.filters.compiled.artifact` serializes the whole thing as a
versioned, CRC-checksummed artifact that
:class:`~repro.state.snapshots.SnapshotStore` keys by epoch + content
fingerprint, so fork workers and the serving daemon load it read-only
instead of rebuilding.  See docs/PERFORMANCE.md for the cost model.
"""

from repro.filters.compiled.artifact import (
    ARTIFACT_MAGIC,
    ARTIFACT_VERSION,
    CompiledArtifact,
    CompiledArtifactError,
    parse_artifact,
    serialize_artifact,
)
from repro.filters.compiled.automaton import (
    TOKEN_TABLE,
    KeywordAutomaton,
)
from repro.filters.compiled.index import CompiledFilterIndex

__all__ = [
    "ARTIFACT_MAGIC",
    "ARTIFACT_VERSION",
    "CompiledArtifact",
    "CompiledArtifactError",
    "CompiledFilterIndex",
    "KeywordAutomaton",
    "TOKEN_TABLE",
    "parse_artifact",
    "serialize_artifact",
]
