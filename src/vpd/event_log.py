"""Event-driven checkpoint sensor logs: parsing, densification, serialization.

A log row is written only when an input sensor bit changes; between rows every
signal holds its last value (zero-order hold). ``densify`` realizes the dense
per-frame view, ``sparsify`` is its minimal inverse on the input channels.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping

import numpy as np

HEADER = "frame,shield,loop,cor,basic,ref"

#: dense channel names, in CSV column order
CHANNELS = ("shield", "loop", "cor", "basic_clf", "ref_pass")

#: channels the event-driven invariant is checked on
INPUT_CHANNELS = ("shield", "loop", "cor")

#: frame numbers must be below this, so that ``densify``'s int64 table holds them
FRAME_LIMIT = 2 ** 63

#: most frames ``densify`` realizes for one log (5 bytes each): far above any
#: real log, far below what a stray frame number would ask for
SPAN_LIMIT = 10 ** 7


class LogFormatError(ValueError):
    """Malformed log text (bad header, row shape, or non-bit value), or a log
    whose frames span more than ``SPAN_LIMIT``."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class LogOrderError(LogFormatError):
    """frame_no not strictly increasing."""


class EmptyLogError(ValueError):
    """Operation requires at least one record."""


def _check_bit(value: int, name: str) -> int:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")
    return value


@dataclass(frozen=True)
class EventRecord:
    """One log row: frame index plus the five binary signals."""

    frame_no: int
    shield: int
    loop: int
    cor: int
    basic_clf: int
    ref_pass: int

    def __post_init__(self):
        if not isinstance(self.frame_no, (int, np.integer)) or self.frame_no < 0:
            raise ValueError(f"frame_no must be a non-negative integer, got {self.frame_no!r}")
        for name in CHANNELS:
            _check_bit(getattr(self, name), name)

    def inputs(self) -> tuple[int, int, int]:
        return (self.shield, self.loop, self.cor)


@dataclass(frozen=True)
class EventLog:
    """Ordered event records from one log file.

    ``invariant_warnings`` lists indices of records that do not change any of
    the input channels relative to their predecessor.  Such rows are accepted
    (real logs may re-record on label changes) but flagged.
    """

    records: tuple[EventRecord, ...]
    source_id: str = ""
    invariant_warnings: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        warnings = []
        for i, (prev, rec) in enumerate(zip(self.records, self.records[1:]), start=1):
            if rec.frame_no <= prev.frame_no:
                raise LogOrderError(
                    f"frame_no not strictly increasing: {prev.frame_no} then {rec.frame_no}")
            if rec.inputs() == prev.inputs():
                warnings.append(i)
        object.__setattr__(self, "invariant_warnings", tuple(warnings))

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class FrameSeries:
    """Dense per-frame multichannel binary signal starting at ``first_frame``."""

    first_frame: int
    channels: Mapping[str, np.ndarray]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("FrameSeries needs at least one channel")
        lengths = set()
        frozen = {}
        for name, vec in self.channels.items():
            arr = np.asarray(vec, dtype=np.uint8)
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"channel {name!r} must be a non-empty 1-d vector")
            if not np.all((arr == 0) | (arr == 1)):
                raise ValueError(f"channel {name!r} contains non-bit values")
            arr.setflags(write=False)
            frozen[name] = arr
            lengths.add(arr.size)
        if len(lengths) != 1:
            raise ValueError(f"channel lengths differ: {sorted(lengths)}")
        object.__setattr__(self, "channels", frozen)

    def __len__(self) -> int:
        return next(iter(self.channels.values())).size

    @property
    def last_frame(self) -> int:
        return self.first_frame + len(self) - 1

    def channel(self, name: str) -> np.ndarray:
        try:
            return self.channels[name]
        except KeyError:
            raise KeyError(f"unknown channel {name!r}; have {sorted(self.channels)}") from None


def parse_log(text: str | Iterable[str], source_id: str = "") -> EventLog:
    """Parse CSV log text (header ``frame,shield,loop,cor,basic,ref``).

    The frame field is ASCII decimal digits below ``FRAME_LIMIT``; the other
    fields are 0 or 1.  Whitespace around a field is allowed.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\r\n") for ln in text]
    if not lines:
        raise LogFormatError("empty input, expected header", line_no=1)
    if lines[0].strip() != HEADER:
        raise LogFormatError(f"bad header {lines[0]!r}, expected {HEADER!r}", line_no=1)

    records = []
    last_frame = -1
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise LogFormatError(f"expected 6 columns, got {len(parts)}", line_no=line_no)
        frame_text = parts[0].strip()
        digits = frame_text.lstrip("0") or frame_text[-1:]
        # the length test keeps int() off inputs longer than its digit limit
        if not (digits.isascii() and digits.isdigit() and len(digits) <= 19
                and int(digits) < FRAME_LIMIT):
            raise LogFormatError(f"frame must be ASCII digits below 2**63, "
                                 f"got {parts[0][:40]!r}", line_no=line_no)
        frame = int(digits)
        try:
            values = [int(p) for p in parts[1:]]
        except ValueError:
            raise LogFormatError(f"non-integer field in {line!r}", line_no=line_no) from None
        for name, v in zip(CHANNELS, values):
            if v not in (0, 1):
                raise LogFormatError(f"{name} must be 0 or 1, got {v}", line_no=line_no)
        if frame <= last_frame:
            raise LogOrderError(
                f"frame {frame} not greater than previous {last_frame}", line_no=line_no
            )
        last_frame = frame
        records.append(EventRecord(frame, *values))

    return EventLog(tuple(records), source_id=source_id)


def write_log(log: EventLog) -> str:
    """Serialize to the CSV format accepted by :func:`parse_log` (LF endings)."""
    lines = [HEADER]
    for r in log.records:
        lines.append(f"{r.frame_no},{r.shield},{r.loop},{r.cor},{r.basic_clf},{r.ref_pass}")
    return "\n".join(lines) + "\n"


def densify(log: EventLog) -> FrameSeries:
    """Dense per-frame view from first to last recorded frame, zero-order hold."""
    if not log.records:
        raise EmptyLogError(f"cannot densify empty log {log.source_id!r}")
    span = log.records[-1].frame_no - log.records[0].frame_no + 1
    if span > SPAN_LIMIT:
        raise LogFormatError(f"log spans {span} frames, above the limit of {SPAN_LIMIT}")
    table = np.array(list(map(attrgetter("frame_no", *CHANNELS), log.records)), dtype=np.int64)
    frames = table[:, 0]
    # hold each record's values until the next record; the last holds one frame
    spans = np.diff(frames, append=frames[-1] + 1)
    return FrameSeries(int(frames[0]), {name: np.repeat(table[:, j].astype(np.uint8), spans)
                                        for j, name in enumerate(CHANNELS, start=1)})


def sparsify(series: FrameSeries, source_id: str = "") -> EventLog:
    """Minimal event log whose densify matches ``series`` on the input channels.

    A record is emitted at the first frame and wherever any of shield/loop/cor
    changes; channels absent from the series are written as 0.
    """
    n = len(series)
    if n == 0:
        raise EmptyLogError("cannot sparsify empty series")
    zeros = np.zeros(n, dtype=np.uint8)
    table = np.stack([series.channels.get(c, zeros) for c in CHANNELS], axis=1)
    inputs = table[:, :len(INPUT_CHANNELS)]  # INPUT_CHANNELS lead CHANNELS
    change = np.ones(n, dtype=bool)
    change[1:] = np.any(inputs[1:] != inputs[:-1], axis=1)
    idx = np.flatnonzero(change)
    frames = (idx + series.first_frame).tolist()
    records = tuple(EventRecord(f, *row) for f, row in zip(frames, table[idx].tolist()))
    return EventLog(records, source_id=source_id)
