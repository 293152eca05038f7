"""Source-code scanner: meta-model matching over program ASTs (§IV-A)."""

from repro.scanner.bindings import Bindings, CallCapture
from repro.scanner.cache import (
    MatchMemo,
    ScanCache,
    faultload_digest,
    source_digest,
)
from repro.scanner.index import (
    FileFingerprint,
    FileIndex,
    build_index,
    call_name,
)
from repro.scanner.matcher import Match, Matcher, name_matches
from repro.scanner.points import InjectionPoint, component_of
from repro.scanner.prefilter import (
    Anchor,
    SpecRequirements,
    derive_anchor,
    derive_requirements,
)
from repro.scanner.scan import (
    ScanEngine,
    ScanResult,
    match_source,
    nth_match,
    scan_file,
    scan_files,
    scan_source,
    scan_tree,
)

__all__ = [
    "Anchor",
    "Bindings",
    "CallCapture",
    "FileFingerprint",
    "FileIndex",
    "InjectionPoint",
    "Match",
    "MatchMemo",
    "Matcher",
    "ScanCache",
    "ScanEngine",
    "ScanResult",
    "SpecRequirements",
    "build_index",
    "call_name",
    "component_of",
    "derive_anchor",
    "derive_requirements",
    "faultload_digest",
    "match_source",
    "name_matches",
    "nth_match",
    "scan_file",
    "scan_files",
    "scan_source",
    "scan_tree",
    "source_digest",
]
