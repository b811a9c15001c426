"""A simulated multi-OS sandbox that executes source samples into API logs.

The paper's corpus was built by running PE samples in instrumented
environments on Windows 7, XP, 8 and 10 ("the mixed data") and capturing
monitored API calls into log files (Table II).  :class:`Sandbox` reproduces
that pipeline for the synthetic substrate:

* every execution starts with an OS-specific *runtime preamble* (loader and
  C-runtime calls whose mix differs between OS versions — this is what makes
  the data "mixed"),
* the sample's own API call sites are then executed, with call counts jittered
  by an OS-dependent intensity factor,
* each call is rendered as a Table II log line with realistic return
  addresses and thread identifiers.

The sandbox is intentionally deterministic given ``(sample, os_version,
random_state)`` so that end-to-end experiments are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.apilog.log_format import ApiLog, LogRecord
from repro.apilog.source_sample import SourceSample
from repro.exceptions import SandboxError
from repro.utils.rng import RandomState, as_rng

#: The OS versions the paper's "mixed data" was generated on.
SUPPORTED_OS_VERSIONS = ("win7", "winxp", "win8", "win10")

#: OS-specific intensity multiplier applied to the sample's own call counts
#: (newer runtimes issue slightly more helper calls per program action).
_OS_INTENSITY = {"winxp": 0.85, "win7": 1.0, "win8": 1.08, "win10": 1.15}

#: OS-specific runtime preamble: (api, mean count).  These calls appear in
#: (nearly) every log regardless of the program, mirroring the loader /
#: CRT startup sequence visible in Table II.
_OS_PREAMBLE: Dict[str, Sequence[tuple[str, float]]] = {
    "winxp": (
        ("getmodulehandlea", 2.0), ("getprocaddress", 6.0), ("getversion", 1.0),
        ("getstartupinfoa", 1.0), ("getcommandlinea", 1.0), ("heapcreate", 1.0),
        ("heapalloc", 10.0), ("tlsalloc", 1.0), ("getacp", 1.0),
    ),
    "win7": (
        ("getstartupinfow", 1.0), ("getfiletype", 2.0), ("getmodulehandlew", 2.0),
        ("getprocaddress", 8.0), ("getstdhandle", 2.0), ("freeenvironmentstringsw", 1.0),
        ("getcpinfo", 1.0), ("flsalloc", 1.0), ("heapalloc", 12.0),
        ("getcommandlinew", 1.0), ("getsystemtimeasfiletime", 1.0),
    ),
    "win8": (
        ("getstartupinfow", 1.0), ("getfiletype", 2.0), ("getmodulehandlew", 3.0),
        ("getprocaddress", 9.0), ("getstdhandle", 2.0), ("getcpinfo", 1.0),
        ("flsalloc", 1.0), ("heapalloc", 14.0), ("getcommandlinew", 1.0),
        ("getsystemtimeasfiletime", 1.0), ("gettickcount64", 1.0),
        ("iswow64process", 1.0),
    ),
    "win10": (
        ("getstartupinfow", 1.0), ("getfiletype", 2.0), ("getmodulehandlew", 3.0),
        ("getmodulehandleexw", 1.0), ("getprocaddress", 10.0), ("getstdhandle", 2.0),
        ("getcpinfo", 1.0), ("flsalloc", 1.0), ("heapalloc", 16.0),
        ("getcommandlinew", 1.0), ("getsystemtimeasfiletime", 1.0),
        ("gettickcount64", 2.0), ("iswow64process", 1.0),
        ("queryperformancecounter", 1.0),
    ),
}

#: Plausible argument templates rendered into log lines for a few well-known
#: APIs; everything else gets an empty argument list like most Table II rows.
_ARG_TEMPLATES: Dict[str, Sequence[str]] = {
    "getprocaddress": ("{module:08X}", '"{symbol}"'),
    "loadlibrarya": ('"{dll}"',),
    "loadlibraryw": ('"{dll}"',),
    "createfilew": ('"{path}"', "40000000", "3"),
    "regopenkeyexw": ("80000002", '"{regpath}"',),
    "connect": ("{sock}", '"{ip}:{port}"'),
    "writeprocessmemory": ("{handle:08X}", "{module:08X}", "{size}"),
}

_SYMBOLS = ("FlsAlloc", "FlsFree", "FlsGetValue", "FlsSetValue", "EncodePointer",
            "DecodePointer", "IsProcessorFeaturePresent", "InitializeCriticalSectionEx",
            "CreateEventExW", "SetThreadStackGuarantee")
_DLLS = ("kernel32.dll", "user32.dll", "advapi32.dll", "ws2_32.dll", "wininet.dll",
         "shell32.dll", "ole32.dll", "crypt32.dll")
_PATHS = ("C:\\\\Users\\\\victim\\\\AppData\\\\Local\\\\Temp\\\\~tmp01.dat",
          "C:\\\\ProgramData\\\\cache.bin", "C:\\\\Windows\\\\System32\\\\config.nt",
          "C:\\\\Users\\\\victim\\\\Documents\\\\report.docx")
_REGPATHS = ("SOFTWARE\\\\Microsoft\\\\Windows\\\\CurrentVersion\\\\Run",
             "SOFTWARE\\\\Microsoft\\\\Windows NT\\\\CurrentVersion",
             "SYSTEM\\\\CurrentControlSet\\\\Services")


@dataclass
class SandboxRun:
    """The result of executing one sample: the log plus run metadata."""

    log: ApiLog
    os_version: str
    intensity: float
    preamble_calls: int
    sample_calls: int

    @property
    def total_calls(self) -> int:
        """Total number of monitored calls recorded."""
        return len(self.log)


class Sandbox:
    """Simulated instrumented execution environment.

    Parameters
    ----------
    os_version:
        One of ``win7``, ``winxp``, ``win8``, ``win10``.
    random_state:
        Seed or generator controlling count jitter, addresses and thread ids.
    record_args:
        Whether to render plausible argument strings into log lines (slower;
        disabled for bulk corpus generation, enabled for the Table II demo).
    """

    def __init__(self, os_version: str = "win7", random_state: RandomState = None,
                 record_args: bool = True) -> None:
        if os_version not in SUPPORTED_OS_VERSIONS:
            raise SandboxError(
                f"unsupported OS {os_version!r}; expected one of {SUPPORTED_OS_VERSIONS}"
            )
        self.os_version = os_version
        self.record_args = bool(record_args)
        self._rng = as_rng(random_state)

    # ------------------------------------------------------------------ #
    # Count-level execution (fast path shared with the dataset generator)
    # ------------------------------------------------------------------ #
    def execute_counts(self, sample: SourceSample,
                       rng: Optional[np.random.Generator] = None) -> Dict[str, int]:
        """Return the per-API call counts the execution would produce.

        This is the fast path used for bulk corpus generation: it produces
        exactly the distribution the full log path produces (the full path
        renders these counts into log lines), without materialising text.
        """
        rng = self._rng if rng is None else rng
        intensity = _OS_INTENSITY[self.os_version]
        counts: Dict[str, int] = {}
        for api, mean in _OS_PREAMBLE[self.os_version]:
            count = int(rng.poisson(mean))
            if count > 0:
                counts[api] = counts.get(api, 0) + count
        for api, sites in sample.combined_calls().items():
            # Each call site executes at least once; loops add a few repeats.
            repeats = sites + int(rng.poisson(max(sites * (intensity - 0.8), 0.05)))
            if repeats > 0:
                counts[api] = counts.get(api, 0) + repeats
        return counts

    # ------------------------------------------------------------------ #
    # Full log generation (Table II path)
    # ------------------------------------------------------------------ #
    def _render_args(self, api: str, rng: np.random.Generator) -> tuple[str, ...]:
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

    def execute(self, sample: SourceSample) -> SandboxRun:
        """Execute ``sample`` and return the full :class:`ApiLog`.

        The log interleaves the OS runtime preamble with the sample's own
        calls in a plausible order: preamble first (as in Table II), then the
        program body with call sites shuffled into a call sequence.

        Without ``record_args`` the log is built as columns: the body's
        ``int32`` API codes come from one ``np.repeat`` and one shuffle, and
        the return addresses from one ``size=n`` draw before the shuffle
        (preamble) and one after it (body).  numpy gives those the values of
        the per-call draws, and the code array the permutation of the
        per-call name list, so both paths log the same calls for the same
        seed.  With ``record_args`` each call's argument draws follow its
        address draw, so that path draws call by call.
        """
        rng = self._rng
        counts_rng = np.random.default_rng(int(rng.integers(2**63 - 1)))
        preamble_counts: Dict[str, int] = {}
        for api, mean in _OS_PREAMBLE[self.os_version]:
            count = int(counts_rng.poisson(mean))
            if count > 0:
                preamble_counts[api] = count

        intensity = _OS_INTENSITY[self.os_version]
        body_counts: Dict[str, int] = {}
        for api, sites in sample.combined_calls().items():
            repeats = sites + int(counts_rng.poisson(max(sites * (intensity - 0.8), 0.05)))
            if repeats > 0:
                body_counts[api] = repeats

        thread_main = int(rng.integers(40000, 99999))
        thread_worker = thread_main + int(rng.integers(8, 64))
        base_address = int(rng.integers(0x13F000000, 0x140000000))
        runtime_address = int(rng.integers(0x7FEFD000000, 0x7FEFE000000))
        if self.record_args:
            records: List[LogRecord] = []

            def _emit(api: str, thread_id: int, base: int) -> None:
                address = base + int(rng.integers(0x100, 0xFFFF))
                records.append(LogRecord(api=api, address=address,
                                         args=self._render_args(api, rng),
                                         thread_id=thread_id))

            for api, count in preamble_counts.items():
                for _ in range(count):
                    _emit(api, thread_main, runtime_address)
            # The program body: expand counts into a flat call sequence and
            # shuffle it so related APIs interleave like a real trace.
            body_sequence = [api for api, count in body_counts.items() for _ in range(count)]
            rng.shuffle(body_sequence)
            for index, api in enumerate(body_sequence):
                _emit(api, thread_main if index % 7 else thread_worker, base_address)
            log = ApiLog(sample_id=sample.sample_id, os_version=self.os_version,
                         label=sample.label, records=records)
        else:
            # The same body as a code column, expanded and shuffled.
            spellings = list(dict.fromkeys([*preamble_counts, *body_counts]))
            code_of = {api: code for code, api in enumerate(spellings)}
            preamble = np.repeat(np.arange(len(preamble_counts), dtype=np.int32),
                                 np.fromiter(preamble_counts.values(), np.intp))
            body = np.repeat(np.array([code_of[api] for api in body_counts], dtype=np.int32),
                             np.fromiter(body_counts.values(), np.intp))
            preamble_addresses = runtime_address + rng.integers(0x100, 0xFFFF,
                                                                size=preamble.size)
            rng.shuffle(body)
            body_addresses = base_address + rng.integers(0x100, 0xFFFF, size=body.size)
            log = ApiLog.from_columns(
                sample.sample_id, self.os_version, sample.label, spellings,
                np.concatenate([preamble, body]),
                np.concatenate([preamble_addresses, body_addresses]),
                np.concatenate([np.full(preamble.size, thread_main),
                                np.where(np.arange(body.size) % 7, thread_main,
                                         thread_worker)]))

        return SandboxRun(log=log, os_version=self.os_version, intensity=intensity,
                          preamble_calls=sum(preamble_counts.values()),
                          sample_calls=sum(body_counts.values()))

    def execute_to_text(self, sample: SourceSample) -> str:
        """Execute ``sample`` and return the log rendered as Table II text."""
        return self.execute(sample).log.to_text()
