"""Darshan-equivalent trace substrate.

Models the information content of Blue Waters-era Darshan POSIX logs
(aggregated per file between open and close, no DXT) with JSON and binary
codecs, structural validity checking, and NumPy operation views consumed
by the MOSAIC algorithms.
"""

from .errors import (
    DarshanError,
    TraceFormatError,
    TraceReadError,
    TraceUnavailableError,
    TraceValidationError,
    TraceWriteError,
)
from .limits import DEFAULT_LIMITS, DecodeLimits
from .records import FileRecord, JobMeta
from .trace import Direction, OperationArray, Trace
from .validate import ValidationReport, Violation, is_valid, validate_trace
from .io_json import dumps, load_json, loads, save_json
from .io_binary import (
    dumps_binary,
    load_binary,
    load_binary_meta,
    loads_binary,
    save_binary,
)
from .source import (
    DirectorySource,
    InMemorySource,
    RecordBatch,
    SyntheticSource,
    TraceRef,
    TraceSource,
)
from .statistics import TraceSummary, summarize
from .repair import RepairOutcome, repair_trace
from .io_text import dumps_text, load_text, loads_text, save_text

__all__ = [
    "DarshanError",
    "TraceFormatError",
    "TraceReadError",
    "TraceUnavailableError",
    "TraceValidationError",
    "TraceWriteError",
    "DecodeLimits",
    "DEFAULT_LIMITS",
    "FileRecord",
    "JobMeta",
    "Direction",
    "OperationArray",
    "Trace",
    "ValidationReport",
    "Violation",
    "is_valid",
    "validate_trace",
    "dumps",
    "loads",
    "save_json",
    "load_json",
    "dumps_binary",
    "loads_binary",
    "save_binary",
    "load_binary",
    "load_binary_meta",
    "TraceRef",
    "RecordBatch",
    "TraceSource",
    "DirectorySource",
    "InMemorySource",
    "SyntheticSource",
    "TraceSummary",
    "summarize",
    "RepairOutcome",
    "repair_trace",
    "dumps_text",
    "load_text",
    "loads_text",
    "save_text",
]
