"""API-log record format, rendering and parsing.

Table II of the paper shows an excerpt of a monitored-execution log::

    GetStartupInfoW:7FEFDD39C37 ()"61468"
    GetProcAddress:13FBC34D6 (76D30000,"FlsAlloc")"61484"

i.e. ``<ApiName>:<ReturnAddress> (<args>)"<ThreadId>"``.  This module defines
:class:`LogRecord` for one such line, :class:`ApiLog` for a whole execution
trace (with the sample / OS metadata the generator attaches), and round-trip
``format_line`` / ``parse_line`` helpers used by the feature-extraction
pipeline and by the tests that validate the substrate end to end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SandboxError

_LINE_RE = re.compile(
    r"^(?P<api>[A-Za-z_][A-Za-z0-9_]*)"      # API name
    r":(?P<address>[0-9A-Fa-f]+)"             # return address (hex)
    r"\s+\((?P<args>.*)\)"                    # argument list (possibly empty)
    r"\"(?P<thread>\d+)\"$"                   # thread identifier
)


@dataclass(frozen=True)
class LogRecord:
    """A single monitored API call."""

    api: str
    address: int
    args: Tuple[str, ...] = ()
    thread_id: int = 0

    def canonical_api(self) -> str:
        """The lower-cased API name used for feature lookup."""
        return self.api.lower()


def format_line(record: LogRecord) -> str:
    """Render a :class:`LogRecord` in the Table II line format."""
    args = ",".join(record.args)
    return f"{record.api}:{record.address:X} ({args})\"{record.thread_id}\""


def parse_line(line: str) -> LogRecord:
    """Parse a Table II-format line back into a :class:`LogRecord`.

    Raises
    ------
    SandboxError
        If the line does not match the expected format.
    """
    match = _LINE_RE.match(line.strip())
    if match is None:
        raise SandboxError(f"malformed log line: {line!r}")
    args_text = match.group("args")
    args = tuple(part for part in args_text.split(",") if part) if args_text else ()
    return LogRecord(
        api=match.group("api"),
        address=int(match.group("address"), 16),
        args=args,
        thread_id=int(match.group("thread")),
    )


def _int_column(values) -> np.ndarray:
    """``values`` as an ``int64`` column, or an object column of Python ints
    when one does not fit (a parsed hex address has no length limit)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


class ApiLog:
    """A full execution trace for one sample, stored as columns.

    A log holds about 400 calls, so it keeps them as arrays rather than
    :class:`LogRecord` objects, in the dictionary-encoded layout of Apache
    Arrow's columnar format:

    * ``spellings`` — the distinct API names as they were logged
      (``GetFileType`` and ``getfiletype`` are two entries), in first-call
      order;
    * ``codes`` — one ``int32`` per call, indexing ``spellings``;
    * one ``int64`` return-address column and one thread-id column;
    * the argument tuples, kept only when some call has arguments.

    :attr:`records` builds the :class:`LogRecord` objects on demand.  The
    columns are read-only; :meth:`append` replaces them with copies one call
    longer, so a long log is best built in one go from ``records`` or with
    :meth:`from_columns`.

    Attributes
    ----------
    sample_id:
        Identifier of the source sample that produced the log.
    os_version:
        The simulated OS the sample was executed on (``win7``, ``winxp``,
        ``win8``, ``win10``) — the paper's "mixed data".
    label:
        Ground-truth class of the sample (0 clean, 1 malware) when known.
    """

    def __init__(self, sample_id: str, os_version: str, label: Optional[int] = None,
                 records: Iterable[LogRecord] = ()) -> None:
        self.sample_id = sample_id
        self.os_version = os_version
        self.label = label
        records = list(records)
        code_of: Dict[str, int] = {}
        codes = [code_of.setdefault(record.api, len(code_of)) for record in records]
        self._assign(tuple(code_of), np.array(codes, dtype=np.int32),
                     _int_column([record.address for record in records]),
                     _int_column([record.thread_id for record in records]),
                     [record.args for record in records])

    @classmethod
    def from_columns(cls, sample_id: str, os_version: str, label: Optional[int],
                     spellings: Sequence[str], codes, addresses, thread_ids,
                     args: Optional[Sequence[Tuple[str, ...]]] = None) -> "ApiLog":
        """Build a log from its columns (see the class docstring).

        ``codes[i]`` is the index in ``spellings`` of call ``i``'s API name.
        The spellings are put in first-call order and unused ones dropped,
        so equal call sequences always give equal columns.  The columns are
        copied.

        Raises
        ------
        SandboxError
            If the spellings repeat a name, the codes are not integers or
            point outside ``spellings``, or the columns differ in length.
        """
        spellings = tuple(spellings)
        if len(set(spellings)) != len(spellings):
            raise SandboxError("API spellings must be distinct")
        codes = np.asarray(codes)
        if codes.ndim != 1 or (codes.size and codes.dtype.kind not in "iu"):
            raise SandboxError(f"codes must be a 1-D integer array, got {codes.dtype} "
                               f"with shape {codes.shape}")
        if codes.size and (codes.min() < 0 or codes.max() >= len(spellings)):
            raise SandboxError(f"codes must lie in [0, {len(spellings)}), got values "
                               f"from {codes.min()} to {codes.max()}")
        addresses, thread_ids = _int_column(addresses), _int_column(thread_ids)
        args = None if args is None else list(args)
        if (addresses.shape != codes.shape or thread_ids.shape != codes.shape
                or (args is not None and len(args) != codes.size)):
            raise SandboxError(f"columns differ in shape: {codes.size} codes, addresses "
                               f"{addresses.shape}, thread ids {thread_ids.shape}, "
                               f"{'no' if args is None else len(args)} argument tuples")
        codes = codes.astype(np.intp, copy=False)
        used, first = np.unique(codes, return_index=True)
        order = used[np.argsort(first)]
        recode = np.zeros(len(spellings), dtype=np.int32)
        recode[order] = np.arange(order.size, dtype=np.int32)
        log = cls.__new__(cls)
        log.sample_id, log.os_version, log.label = sample_id, os_version, label
        log._assign(tuple(spellings[code] for code in order.tolist()), recode[codes],
                    addresses, thread_ids, args)
        return log

    def _assign(self, spellings: Tuple[str, ...], codes: np.ndarray,
                addresses: np.ndarray, thread_ids: np.ndarray,
                args: Optional[List[Tuple[str, ...]]]) -> None:
        for column in (codes, addresses, thread_ids):
            column.flags.writeable = False
        self._spellings = spellings
        self._codes = codes
        self._addresses = addresses
        self._thread_ids = thread_ids
        self._args = args if args is not None and any(args) else None

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        for column in (self._codes, self._addresses, self._thread_ids):
            column.flags.writeable = False

    @property
    def spellings(self) -> Tuple[str, ...]:
        """The distinct API names as logged, in first-call order."""
        return self._spellings

    @property
    def codes(self) -> np.ndarray:
        """Read-only ``int32`` index into :attr:`spellings` of every call."""
        return self._codes

    @property
    def records(self) -> Tuple[LogRecord, ...]:
        """Ordered monitored API calls, built from the columns on each read."""
        args = self._args if self._args is not None else repeat((), len(self))
        return tuple(map(LogRecord, [self._spellings[code] for code in self._codes.tolist()],
                         self._addresses.tolist(), args, self._thread_ids.tolist()))

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[LogRecord]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.sample_id, self.os_version, self.label, self.records)
                == (other.sample_id, other.os_version, other.label, other.records))

    def __repr__(self) -> str:
        return (f"ApiLog(sample_id={self.sample_id!r}, os_version={self.os_version!r}, "
                f"label={self.label!r}, {len(self)} records)")

    def append(self, record: LogRecord) -> None:
        """Append one record to the trace (copies every column)."""
        spellings = self._spellings
        if record.api in spellings:
            code = spellings.index(record.api)
        else:
            code, spellings = len(spellings), spellings + (record.api,)
        args = self._args
        if args is not None or record.args:
            args = (args if args is not None else [()] * len(self)) + [record.args]
        self._assign(spellings,
                     np.concatenate([self._codes, np.array([code], dtype=np.int32)]),
                     np.concatenate([self._addresses, _int_column([record.address])]),
                     np.concatenate([self._thread_ids, _int_column([record.thread_id])]),
                     args)

    def api_names(self) -> List[str]:
        """Lower-cased API name of every record, in call order."""
        lowered = [name.lower() for name in self._spellings]
        return [lowered[code] for code in self._codes.tolist()]

    def api_counts(self) -> dict[str, int]:
        """Raw per-API call counts (the detector's raw feature values)."""
        counts: dict[str, int] = {}
        per_spelling = np.bincount(self._codes, minlength=len(self._spellings))
        for name, count in zip(self._spellings, per_spelling.tolist()):
            key = name.lower()
            counts[key] = counts.get(key, 0) + count
        return counts

    def to_text(self) -> str:
        """Render the whole log in the Table II text format."""
        return "\n".join(format_line(record) for record in self.records)

    @classmethod
    def from_text(cls, text: str, sample_id: str = "unknown",
                  os_version: str = "win7", label: Optional[int] = None) -> "ApiLog":
        """Parse a Table II-format text blob into an :class:`ApiLog`."""
        records = [parse_line(line) for line in text.splitlines() if line.strip()]
        return cls(sample_id=sample_id, os_version=os_version, label=label,
                   records=records)

    def head(self, n: int = 10) -> "ApiLog":
        """A copy containing only the first ``n`` records (for excerpts)."""
        return ApiLog.from_columns(
            self.sample_id, self.os_version, self.label, self._spellings,
            self._codes[:n], self._addresses[:n], self._thread_ids[:n],
            None if self._args is None else self._args[:n])
