"""Persistent on-disk cache for expensive experiment artifacts.

Every experiment process used to retrain the target, substitute and defended
models — and regenerate the corpus — from scratch before it could measure
anything.  :class:`ArtifactCache` persists those artifacts to disk, keyed by
a content hash of everything that determines them (scale profile, master
seed, compute dtype, artifact kind, plus any extra configuration), so warm
runs of the CLI, the examples and the benchmark harness skip straight to the
measurement.

Layout and invalidation rules
-----------------------------
Artifacts live under ``<root>/<kind>/<key>/`` where ``root`` defaults to the
``REPRO_CACHE_DIR`` environment variable, falling back to
``~/.cache/repro-dsn2019``.  The ``key`` is the first 16 hex digits of the
SHA-256 of the canonical JSON encoding of the key components, which always
include:

* ``schema`` — :data:`CACHE_SCHEMA_VERSION`, bumped whenever the stored
  format or the *meaning* of an artifact changes (a bump orphans every old
  entry rather than risking stale loads);
* the artifact ``kind`` (``corpus``, ``target``, ``substitute``, ...);
* the full scale-profile field dict, the master seed and the compute dtype
  (models trained under ``float32`` and ``float64`` are distinct artifacts).

A directory only counts as cached once its ``COMPLETE`` marker file exists,
and entries are published *atomically*: builds write into a hidden
``.tmp-<key>-...`` sibling directory (meta and marker included) that is
renamed over the final path in one ``os.replace`` — a crash mid-save leaves
only a temp directory that the next builder sweeps away, never a
half-written entry, and a concurrent reader sees either the old complete
entry or the new one, nothing in between.  Builds additionally serialise on
a per-entry ``<key>.lock`` file, so N parallel workers warm-starting from
one cache directory cannot corrupt or double-build an entry: the first
builder builds while the rest wait, then load the published result.  Every
complete entry also
carries a ``cache-meta.json`` stamping the ``repro`` package version that
wrote it: entries written under a *different* package version (or lacking
the stamp entirely, i.e. written before versions were stamped) are refused
on load and transparently rebuilt, so upgrading the package can never serve
stale artifacts trained by old code.  Beyond that there is no staleness
check: if you change generator or training *code* within a version in a way
that should invalidate entries, bump :data:`CACHE_SCHEMA_VERSION` or call
:meth:`ArtifactCache.clear`.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, List, Optional, TypeVar

try:  # POSIX advisory locks; the portable spin-lock below covers the rest.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.exceptions import SerializationError
from repro.obs.instrument import current as current_instrumentation
from repro.reliability.faults import FaultInjector, maybe_fire
from repro.version import __version__

_ENV_CACHE_VAR = "REPRO_CACHE_DIR"
_MARKER = "COMPLETE"
_ENTRY_META = "cache-meta.json"
_LOCK_SUFFIX = ".lock"
_TMP_PREFIX = ".tmp-"
#: How often a waiter re-polls a held per-entry lock (seconds).
_LOCK_POLL_S = 0.05

#: Bump when the on-disk format or artifact semantics change.
CACHE_SCHEMA_VERSION = 1

T = TypeVar("T")


def default_cache_root() -> Path:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-dsn2019``."""
    env = os.environ.get(_ENV_CACHE_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-dsn2019"


def _canonical(value: Any) -> Any:
    """Reduce key components to canonical JSON-encodable values."""
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, int):
        return int(value)
    return str(value)


@dataclass(frozen=True)
class CacheEntry:
    """Metadata of one on-disk cache entry (for ``cache-info`` style listings)."""

    kind: str
    key: str
    path: Path
    complete: bool
    package_version: Optional[str]
    created_at: Optional[float]
    size_bytes: int
    n_files: int

    @property
    def compatible(self) -> bool:
        """Whether this entry was written by the running package version."""
        return self.complete and self.package_version == __version__


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` is a live process (signal-0 probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, owned elsewhere
        return True
    except OSError:  # pragma: no cover - defensive
        return True
    return True


def _dir_stats(path: Path) -> tuple[int, int]:
    """(total size in bytes, file count) of a directory tree."""
    size = 0
    n_files = 0
    for child in path.rglob("*"):
        if child.is_file():
            size += child.stat().st_size
            n_files += 1
    return size, n_files


class ArtifactCache:
    """Content-addressed directory store for experiment artifacts.

    Parameters
    ----------
    root:
        Cache directory (created lazily).  Defaults to
        :func:`default_cache_root`.
    lock_timeout_s:
        How long a builder waits for another process/thread building the
        same entry before giving up with :class:`SerializationError`.  The
        default comfortably covers a full model-training build.
    injector:
        Optional :class:`~repro.reliability.faults.FaultInjector`; when
        armed, every acquired build lock announces itself at the
        ``cache.lock`` site (an ``exit`` fault there simulates a lock
        holder dying without releasing); fired faults count in the ambient
        instrumentation, like the cache's hit/miss counters.

    The holder's PID is recorded inside every lock file.  On the ``flock``
    path that is pure observability (the kernel releases the lock when its
    holder dies), but on the portable ``O_EXCL`` spin path it is what lets
    waiters *sweep* a dead holder's stale lock file immediately — counted
    in :attr:`n_stale_locks_swept` — instead of stalling until
    ``lock_timeout_s``.
    """

    def __init__(self, root: Optional[str | Path] = None,
                 lock_timeout_s: float = 600.0,
                 injector: Optional[FaultInjector] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.lock_timeout_s = float(lock_timeout_s)
        self.injector = injector
        #: Dead-owner lock files removed instead of waited on (spin path).
        self.n_stale_locks_swept = 0

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    def key_for(self, kind: str, **components: Any) -> str:
        """Deterministic 16-hex-digit key for ``kind`` + ``components``."""
        payload = {"schema": CACHE_SCHEMA_VERSION, "kind": kind,
                   **{k: _canonical(v) for k, v in components.items()}}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def path_for(self, kind: str, key: str) -> Path:
        """Directory that holds (or will hold) the artifact."""
        return self.root / kind / key

    def _entry_metadata(self, path: Path) -> Optional[dict]:
        """The entry's ``cache-meta.json`` contents, or None when absent/corrupt."""
        meta_path = path / _ENTRY_META
        if not meta_path.exists():
            return None
        try:
            return json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def has(self, kind: str, key: str) -> bool:
        """Whether a complete, version-compatible artifact is cached.

        An entry written under a different ``repro`` package version (or
        with no version stamp at all) does not count: serving it would risk
        loading artifacts whose semantics changed between releases, so it is
        treated as a miss and rebuilt by :meth:`load_or_build`.
        """
        path = self.path_for(kind, key)
        if not (path / _MARKER).exists():
            return False
        meta = self._entry_metadata(path)
        return meta is not None and meta.get("package_version") == __version__

    # ------------------------------------------------------------------ #
    # Per-entry locking
    # ------------------------------------------------------------------ #
    def _lock_path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}{_LOCK_SUFFIX}"

    @staticmethod
    def _read_lock_pid(lock_path: Path) -> Optional[int]:
        """The holder PID recorded in ``lock_path`` (None when unreadable).

        An empty file is a holder caught between creating the lock and
        stamping its PID — it must be treated as live, never swept.
        """
        try:
            text = lock_path.read_text(encoding="ascii").strip()
            return int(text) if text else None
        except (OSError, ValueError):
            return None

    @staticmethod
    def _stamp_lock_pid(fd: int) -> None:
        """Record the holder's PID inside the (held) lock file."""
        try:
            os.ftruncate(fd, 0)
            os.pwrite(fd, str(os.getpid()).encode("ascii"), 0)
        except OSError:  # pragma: no cover - observability only
            pass

    def _sweep_stale_lock(self, lock_path: Path, holder: int) -> bool:
        """Remove a lock file whose recorded holder is dead.

        The rename is the single-winner step: of N waiters that all saw the
        dead PID, exactly one moves the file aside and deletes it; the rest
        fall through and race for a fresh ``O_EXCL`` create.
        """
        stale_path = lock_path.with_name(
            f"{lock_path.name}.stale-{uuid.uuid4().hex[:8]}")
        try:
            os.rename(lock_path, stale_path)
        except OSError:
            return False
        stale_path.unlink(missing_ok=True)
        self.n_stale_locks_swept += 1
        return True

    @contextmanager
    def _entry_lock(self, kind: str, key: str):
        """Hold the per-entry build lock (exclusive across processes/threads).

        Uses a blocking-with-timeout ``flock`` poll where available (the
        lock dies with its holder, so crashes never wedge the cache) and an
        ``O_EXCL`` spin lock elsewhere.  On the spin path a lock file whose
        recorded holder PID is dead is swept immediately rather than waited
        on until ``lock_timeout_s``.  A contended ``flock`` lock file is
        never deleted — waiters hold fds to its inode.
        """
        lock_path = self._lock_path(kind, key)
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        deadline = time.monotonic() + self.lock_timeout_s
        if fcntl is not None:
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
            try:
                while True:
                    try:
                        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError:
                        if time.monotonic() >= deadline:
                            raise SerializationError(
                                f"timed out after {self.lock_timeout_s:.0f}s "
                                f"waiting for the build lock on {kind}/{key} "
                                f"(held by another worker?)") from None
                        time.sleep(_LOCK_POLL_S)
                self._stamp_lock_pid(fd)
                maybe_fire(self.injector, "cache.lock",
                           obs=current_instrumentation(), kind=kind, key=key)
                try:
                    yield
                finally:
                    fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        else:
            while True:
                try:
                    fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_RDWR)
                    break
                except FileExistsError:
                    holder = self._read_lock_pid(lock_path)
                    if holder is not None and not _pid_alive(holder):
                        if self._sweep_stale_lock(lock_path, holder):
                            continue
                    if time.monotonic() >= deadline:
                        raise SerializationError(
                            f"timed out after {self.lock_timeout_s:.0f}s "
                            f"waiting for the build lock on {kind}/{key}; "
                            f"remove {lock_path} if its holder crashed") from None
                    time.sleep(_LOCK_POLL_S)
            try:
                self._stamp_lock_pid(fd)
                maybe_fire(self.injector, "cache.lock",
                           obs=current_instrumentation(), kind=kind, key=key)
                yield
            finally:
                os.close(fd)
                lock_path.unlink(missing_ok=True)

    def _sweep_stale_tmp(self, kind: str, key: str) -> None:
        """Remove leftover temp directories of crashed builds (lock held)."""
        kind_dir = self.root / kind
        if not kind_dir.exists():
            return
        for stale in kind_dir.glob(f"{_TMP_PREFIX}{key}-*"):
            shutil.rmtree(stale, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # Store / retrieve
    # ------------------------------------------------------------------ #
    def load_or_build(self, kind: str, key: str,
                      build: Callable[[], T],
                      save: Callable[[T, Path], None],
                      load: Callable[[Path], T]) -> T:
        """Return the cached artifact, building and persisting it on a miss.

        Builds are safe under concurrency: writers serialise on a per-entry
        lock file (so the artifact is built exactly once even when N
        workers miss simultaneously — late arrivals load what the winner
        published), ``save(artifact, path)`` writes into a hidden temp
        directory, and the entry — meta and ``COMPLETE`` marker included —
        is published with one atomic rename.  Interrupted saves therefore
        leave no partial entry behind.  A corrupt entry (marker present but
        ``load`` failing) is evicted and rebuilt rather than propagated, as
        is an entry stamped with a different package version.

        When an ambient :class:`~repro.obs.Instrumentation` is active,
        warm loads count in ``cache.hits``, builds in ``cache.misses``,
        and each build's wall time lands in the ``cache.build_seconds``
        histogram (tagged with the artifact kind in the event stream).
        """
        obs = current_instrumentation()
        path = self.path_for(kind, key)
        if self.has(kind, key):
            try:
                artifact = load(path)
                if obs is not None:
                    obs.count("cache.hits", kind=kind)
                return artifact
            except (SerializationError, OSError, KeyError, ValueError):
                self.invalidate(kind, key)
        with self._entry_lock(kind, key):
            # Another worker may have published while we waited on the lock.
            if self.has(kind, key):
                try:
                    artifact = load(path)
                    if obs is not None:
                        obs.count("cache.hits", kind=kind)
                    return artifact
                except (SerializationError, OSError, KeyError, ValueError):
                    self.invalidate(kind, key)
            self._sweep_stale_tmp(kind, key)
            if obs is not None:
                obs.count("cache.misses", kind=kind)
                build_started = time.monotonic()
            artifact = build()
            if obs is not None:
                obs.observe("cache.build_seconds",
                            time.monotonic() - build_started, kind=kind)
            tmp_path = path.parent / (f"{_TMP_PREFIX}{key}-{os.getpid()}-"
                                      f"{uuid.uuid4().hex[:8]}")
            try:
                tmp_path.mkdir(parents=True)
                save(artifact, tmp_path)
                (tmp_path / _ENTRY_META).write_text(
                    json.dumps({"package_version": __version__,
                                "schema": CACHE_SCHEMA_VERSION,
                                "kind": kind, "key": key,
                                "created_at": time.time()},
                               indent=2, sort_keys=True),
                    encoding="utf-8")
                (tmp_path / _MARKER).touch()
                if path.exists():
                    shutil.rmtree(path)
                os.replace(tmp_path, path)
            except BaseException:
                shutil.rmtree(tmp_path, ignore_errors=True)
                raise
        return artifact

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def entries(self) -> List[CacheEntry]:
        """Every entry on disk (complete or not), sorted by kind then key."""
        found: List[CacheEntry] = []
        if not self.root.exists():
            return found
        for kind_dir in sorted(self.root.iterdir()):
            if not kind_dir.is_dir():
                continue
            for entry_dir in sorted(kind_dir.iterdir()):
                # Lock files are plain files; in-flight builds live in hidden
                # ``.tmp-*`` directories.  Neither is an entry.
                if not entry_dir.is_dir() or entry_dir.name.startswith("."):
                    continue
                meta = self._entry_metadata(entry_dir) or {}
                size_bytes, n_files = _dir_stats(entry_dir)
                found.append(CacheEntry(
                    kind=kind_dir.name,
                    key=entry_dir.name,
                    path=entry_dir,
                    complete=(entry_dir / _MARKER).exists(),
                    package_version=meta.get("package_version"),
                    created_at=meta.get("created_at"),
                    size_bytes=size_bytes,
                    n_files=n_files,
                ))
        return found

    def total_size_bytes(self) -> int:
        """Total on-disk footprint of every cache entry."""
        return sum(entry.size_bytes for entry in self.entries())

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def invalidate(self, kind: str, key: str) -> bool:
        """Drop one cached artifact; returns whether anything was removed."""
        path = self.path_for(kind, key)
        if path.exists():
            shutil.rmtree(path)
            return True
        return False

    def clear(self) -> int:
        """Drop every cached artifact; returns the number of entries removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for kind_dir in self.root.iterdir():
            if not kind_dir.is_dir():
                continue
            for entry in kind_dir.iterdir():
                if entry.is_dir():
                    shutil.rmtree(entry)
                    # Hidden ``.tmp-*`` build leftovers are swept but are
                    # not cache entries.
                    removed += not entry.name.startswith(".")
                # Per-entry ``.lock`` files are deliberately left in place:
                # unlinking one a concurrent builder holds via flock would
                # let a second builder lock a fresh inode at the same path,
                # breaking the build-exactly-once guarantee.  They are a few
                # bytes each and invisible to entries().
            if not any(kind_dir.iterdir()):
                kind_dir.rmdir()
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactCache(root={str(self.root)!r})"
