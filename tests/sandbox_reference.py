"""Reference implementation of ``Sandbox.execute``: one record per call.

The sandbox builds logs as columns, with the body's codes shuffled as an
array and the return addresses drawn in two blocks.  This module keeps the
per-record loop it replaced, which draws every address, argument and the
body shuffle one call at a time and collects :class:`LogRecord` objects.
``reference_execute`` consumes the sandbox's generator exactly as that loop
did, so a test can compare the records, the text and the generator's next
draw with the fast path's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.apilog.log_format import LogRecord, format_line
from repro.apilog.sandbox import (
    _ARG_TEMPLATES,
    _DLLS,
    _OS_INTENSITY,
    _OS_PREAMBLE,
    _PATHS,
    _REGPATHS,
    _SYMBOLS,
    Sandbox,
)
from repro.apilog.source_sample import SourceSample


@dataclass
class ReferenceRun:
    """What one reference execution logged."""

    sample_id: str
    label: int
    records: List[LogRecord]
    preamble_calls: int
    sample_calls: int

    def to_text(self) -> str:
        return "\n".join(format_line(record) for record in self.records)


def _render_args(sandbox: Sandbox, api: str, rng: np.random.Generator) -> tuple:
    if not sandbox.record_args:
        return ()
    template = _ARG_TEMPLATES.get(api)
    if template is None:
        return ()
    values = {
        "module": int(rng.integers(0x10000000, 0x7FFFFFFF)),
        "symbol": _SYMBOLS[int(rng.integers(len(_SYMBOLS)))],
        "dll": _DLLS[int(rng.integers(len(_DLLS)))],
        "path": _PATHS[int(rng.integers(len(_PATHS)))],
        "regpath": _REGPATHS[int(rng.integers(len(_REGPATHS)))],
        "sock": int(rng.integers(0x100, 0xFFF)),
        "ip": ".".join(str(int(rng.integers(1, 255))) for _ in range(4)),
        "port": int(rng.integers(1024, 65535)),
        "handle": int(rng.integers(0x100, 0xFFFF)),
        "size": int(rng.integers(0x1000, 0x40000)),
    }
    return tuple(part.format(**values) for part in template)


def reference_execute(sandbox: Sandbox, sample: SourceSample) -> ReferenceRun:
    """Execute ``sample`` one record at a time on ``sandbox``'s generator."""
    rng = sandbox._rng
    counts_rng = np.random.default_rng(int(rng.integers(2**63 - 1)))
    preamble_counts: Dict[str, int] = {}
    for api, mean in _OS_PREAMBLE[sandbox.os_version]:
        count = int(counts_rng.poisson(mean))
        if count > 0:
            preamble_counts[api] = count

    intensity = _OS_INTENSITY[sandbox.os_version]
    body_counts: Dict[str, int] = {}
    for api, sites in sample.combined_calls().items():
        repeats = sites + int(counts_rng.poisson(max(sites * (intensity - 0.8), 0.05)))
        if repeats > 0:
            body_counts[api] = repeats

    records: List[LogRecord] = []
    thread_main = int(rng.integers(40000, 99999))
    thread_worker = thread_main + int(rng.integers(8, 64))
    base_address = int(rng.integers(0x13F000000, 0x140000000))
    runtime_address = int(rng.integers(0x7FEFD000000, 0x7FEFE000000))

    def _emit(api: str, count: int, thread_id: int, base: int) -> None:
        for _ in range(count):
            address = base + int(rng.integers(0x100, 0xFFFF))
            records.append(LogRecord(api=api, address=address,
                                     args=_render_args(sandbox, api, rng),
                                     thread_id=thread_id))

    preamble_calls = 0
    for api, count in preamble_counts.items():
        _emit(api, count, thread_main, runtime_address)
        preamble_calls += count

    body_sequence: List[str] = []
    for api, count in body_counts.items():
        body_sequence.extend([api] * count)
    rng.shuffle(body_sequence)
    for index, api in enumerate(body_sequence):
        thread_id = thread_main if index % 7 else thread_worker
        _emit(api, 1, thread_id, base_address)

    return ReferenceRun(sample_id=sample.sample_id, label=sample.label, records=records,
                        preamble_calls=preamble_calls, sample_calls=len(body_sequence))
