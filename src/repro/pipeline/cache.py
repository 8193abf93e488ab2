"""Compilation caching for the measurement harness and the service.

Two caches memoize the two stages of the pipeline that many requests
share, and both rest on one artifact store (:class:`_ArtifactStore`):

* :class:`FrontendCache` memoizes the post-SSA module (parse -> lower
  -> [inline] -> [rotate] -> SSA) per ``(source hash, rotate_loops,
  inline)`` key.  The frontend does not depend on the optimizer
  configuration, yet a table run evaluates ~19 configurations per
  program, so a table run pays the frontend once per program.  Every
  request gets a module no other caller holds: a miss hands over the
  module it built, and every hit, from memory or disk, unpickles a
  private copy of the cached one.
  A miss records the fresh pass events into the caller's
  :class:`PipelineTrace`, a hit a ``frontend`` (``cached=True``) and
  a ``clone`` event.
* :class:`BackendCache` memoizes the *translated* back-end module per
  ``(module fingerprint, engine version[, profile])`` key, so service
  workers and ``--jobs`` pools skip SSA destruction and translation
  when they execute one optimized module twice.  Compiled modules hold
  no run state, so every caller shares one instance per key.

The store owns the four mechanisms the two caches have in common:

* **Memory LRU.**  An ordered map guarded by a lock (the service's
  thread-mode workers share one cache), bounded by ``max_entries``
  (unbounded when unset) with an ``evictions`` count.
* **Sealed disk read.**  With ``disk_dir`` (or ``REPRO_CACHE_DIR`` for
  the process-wide caches) entries persist across processes, framed
  ``RPRC2 magic + sha256(pickle) + pickle``.  Any corrupt, truncated,
  legacy or unreadable entry -- including a single flipped byte that a
  raw pickle would silently decode into a different module -- is a
  miss, never a wrong result.
* **Atomic publish.**  :func:`atomic_write` writes a pid+tid temp file
  next to the entry and ``os.replace``\\ s it into place, so readers see
  the old entry or the new one, never a partial write.  Entries are
  encoded only when a disk layer is set.  The edge-profile artifact
  (:mod:`repro.pipeline.profile`) is published the same way.
* **Cross-process single-flight.**  With a disk layer, a miss takes a
  per-key advisory ``fcntl.flock`` on a ``<entry>.lock`` sidecar,
  re-reads the disk once the lock is held (another process may have
  published the entry while we waited), and only then builds and
  publishes.  A cold key hammered by every shard of a
  :mod:`repro.cluster` deployment is built exactly once cluster-wide.
  The lock only gates duplicate work: failing to take it -- no
  ``fcntl`` (non-POSIX), an unwritable or squatted lock path, a holder
  that outlives ``REPRO_CACHE_LOCK_TIMEOUT`` seconds, an armed
  ``cache.lock`` fault -- degrades to lock-less duplicate work
  (``lock_degraded``), never to a failed or wrong build.  Lock files
  are never unlinked: an unlink racing a fresh open would split the
  lock across two inodes and readmit the double build.

Disk reads and writes pass the ``diskcache.read`` / ``diskcache.write``
fault points (:mod:`repro.faults`); the resilience suite asserts the
miss-never-corruption contract by arming them.

Each cache adds only what differs: its key and file name, how an entry
is built, encoded and decoded, and its trace events.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Tuple

from .. import faults
from ..ir.function import Module
from .driver import ENGINE_NAMES, module_size, run_frontend, translate
from .trace import PipelineTrace

try:  # POSIX only; the lock degrades to duplicate work without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Environment variable enabling the on-disk layer for the default cache.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable bounding how long a fill waits on another
#: process's in-progress compile before degrading to duplicate work.
CACHE_LOCK_TIMEOUT_ENV = "REPRO_CACHE_LOCK_TIMEOUT"

#: Default cross-process fill-lock wait (seconds); compiles on this
#: workload are sub-second, so 30s only triggers on a wedged holder.
CACHE_LOCK_TIMEOUT_DEFAULT = 30.0

_LOCK_POLL_SECONDS = 0.01

#: Environment variable bounding the in-memory layer of the default
#: cache (unset or non-positive = unbounded).
CACHE_MAX_ENTRIES_ENV = "REPRO_CACHE_MAX_ENTRIES"

#: Environment variable bounding the in-memory layer of the default
#: backend cache (compiled modules are heavier than frontend modules,
#: so this one is bounded even by default).
BACKEND_CACHE_MAX_ENTRIES_ENV = "REPRO_BACKEND_CACHE_MAX_ENTRIES"

#: Default LRU bound of the shared backend cache.
BACKEND_CACHE_DEFAULT_MAX_ENTRIES = 512

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: Everything a disk-cache read can legitimately die of: I/O errors,
#: truncated or garbage pickles, entries written by an incompatible
#: version (including generated source that no longer compiles), and
#: injected faults.  All of them mean "miss", never a failed compile.
_DISK_READ_ERRORS = (OSError, faults.FaultError, pickle.PickleError,
                     EOFError, ValueError, AttributeError, ImportError,
                     IndexError, KeyError, MemoryError,
                     UnicodeDecodeError, SyntaxError, TypeError)

#: On-disk entries are framed ``MAGIC + sha256(payload) + payload``.
#: Unpickling raw bytes would happily decode a flipped byte into a
#: *different* module — silent wrong results.  The digest makes every
#: truncation or corruption detectable, so it degrades to a miss;
#: unframed entries and entries in an older pickled form (``RPRC1``)
#: fail the magic test and are recompiled.
_DISK_MAGIC = b"RPRC2\n"
_DISK_DIGEST_BYTES = 32


def _seal_entry(blob: bytes) -> bytes:
    return _DISK_MAGIC + hashlib.sha256(blob).digest() + blob


def _unseal_entry(data: bytes) -> Optional[bytes]:
    header = len(_DISK_MAGIC) + _DISK_DIGEST_BYTES
    if len(data) < header or not data.startswith(_DISK_MAGIC):
        return None
    blob = data[header:]
    if hashlib.sha256(blob).digest() != data[len(_DISK_MAGIC):header]:
        return None
    return blob


def atomic_write(path: str, data: bytes) -> None:
    """Publish ``data`` at ``path`` atomically; raises ``OSError``.

    The temp file lives next to ``path`` so the final ``os.replace``
    is a same-filesystem rename: readers see the old file or the new
    one, never a partial write.  Concurrent writers of one path each
    rename their own temp file (pid + thread id disambiguated) and the
    last one wins.  A failed write leaves no temp file behind.
    """
    tmp = "%s.tmp.%d.%d" % (path, os.getpid(), threading.get_ident())
    try:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _lock_timeout() -> float:
    try:
        timeout = float(os.environ.get(CACHE_LOCK_TIMEOUT_ENV, ""))
    except ValueError:
        return CACHE_LOCK_TIMEOUT_DEFAULT
    return timeout if timeout > 0 else CACHE_LOCK_TIMEOUT_DEFAULT


class _FillLock:
    """Cross-process single-flight gate for one disk-cache key.

    Advisory ``flock`` on a ``<entry path>.lock`` sidecar: the first
    process to reach a cold key holds the exclusive lock for the
    duration of compile+publish; concurrent fillers of the same key
    block in :meth:`acquire` and, once through, re-read the freshly
    published entry instead of recompiling.  ``held`` reports whether
    the lock was actually taken — *every* failure mode (no ``fcntl``,
    unwritable directory, a directory squatting on the lock path, an
    injected ``cache.lock`` fault, a holder that outlives the timeout)
    leaves ``held`` False and the caller simply compiles redundantly.
    The kernel drops ``flock`` locks when the holder dies, so a
    crashed compiler never wedges the cluster; the sidecar file itself
    is never unlinked (see the module docstring for why).
    """

    __slots__ = ("path", "held", "waited", "_fd")

    def __init__(self, path: str) -> None:
        self.path = path
        self.held = False
        #: True when another process held the lock when we arrived —
        #: after acquiring, the caller should expect a published entry.
        self.waited = False
        self._fd: Optional[int] = None

    def acquire(self) -> bool:
        if fcntl is None:
            return False
        try:
            faults.fire("cache.lock")
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
            deadline = time.monotonic() + _lock_timeout()
            while True:
                try:
                    fcntl.flock(self._fd,
                                fcntl.LOCK_EX | fcntl.LOCK_NB)
                    self.held = True
                    return True
                except OSError:
                    self.waited = True
                    if time.monotonic() >= deadline:
                        break
                    time.sleep(_LOCK_POLL_SECONDS)
        except (OSError, ValueError, faults.FaultError):
            pass  # degrade: compile without the lock
        if not self.held and self._fd is not None:
            try:
                os.close(self._fd)
            except OSError:
                pass
            self._fd = None
        return False

    def release(self) -> None:
        if self._fd is None:
            return
        try:
            if self.held:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
        except OSError:
            pass
        try:
            os.close(self._fd)
        except OSError:
            pass
        self._fd = None
        self.held = False


class _ArtifactStore:
    """The memory LRU, sealed disk layer, atomic publish and fill lock
    both caches share (see the module docstring).

    A cache names an entry's file (:meth:`_file_name`) and encodes an
    entry for disk (:meth:`_encode`); each lookup passes how to build
    a missed entry and how to decode a disk payload.
    """

    def __init__(self, disk_dir: Optional[str] = None,
                 max_entries: Optional[int] = None) -> None:
        self.disk_dir = disk_dir
        self.max_entries = max_entries if max_entries and max_entries > 0 \
            else None
        self.hits = 0
        #: Entries built here: every miss builds exactly once.
        self.misses = 0
        self.disk_hits = 0
        self.evictions = 0
        #: Fills that found another process's build in progress and
        #: waited on the cross-process lock instead of duplicating it.
        self.lock_waits = 0
        #: Fills that could not take the lock (timeout, I/O failure,
        #: armed ``cache.lock`` fault) and built redundantly.
        self.lock_degraded = 0
        self._lock = threading.Lock()
        self._memory: "OrderedDict[Hashable, object]" = OrderedDict()

    def _file_name(self, key: Hashable) -> str:
        raise NotImplementedError

    def _encode(self, entry: object) -> bytes:
        """The disk payload of ``entry``."""
        raise NotImplementedError

    def _path(self, key: Hashable) -> str:
        return os.path.join(self.disk_dir or "", self._file_name(key))

    def _remember(self, key: Hashable, entry: object) -> None:
        with self._lock:
            self._memory[key] = entry
            self._memory.move_to_end(key)
            if self.max_entries is not None:
                while len(self._memory) > self.max_entries:
                    self._memory.popitem(last=False)
                    self.evictions += 1

    def _read(self, key: Hashable,
              decode: Callable[[bytes], object]) -> Optional[object]:
        """The decoded disk entry for ``key``, or ``None`` (a miss)."""
        if not self.disk_dir:
            return None
        try:
            faults.fire("diskcache.read")
            with open(self._path(key), "rb") as handle:
                data = handle.read()
            blob = _unseal_entry(faults.corrupt_bytes("diskcache.read",
                                                      data))
            entry = decode(blob) if blob is not None else None
        except _DISK_READ_ERRORS:
            return None  # corrupt/truncated/incompatible entry == miss
        if entry is not None:
            self.disk_hits += 1
            self._remember(key, entry)
        return entry

    def _publish(self, key: Hashable, entry: object) -> None:
        blob = self._encode(entry)
        try:
            faults.fire("diskcache.write")
            atomic_write(self._path(key), faults.corrupt_bytes(
                "diskcache.write", _seal_entry(blob)))
        except (OSError, faults.FaultError):
            pass  # caching is best-effort; never fail a compile

    def _fill(self, key: Hashable, build: Callable[[], object]) -> object:
        entry = build()
        self.misses += 1
        self._remember(key, entry)
        if self.disk_dir:
            self._publish(key, entry)
        return entry

    def _lookup(self, key: Hashable, build: Callable[[], object],
                decode: Callable[[bytes], object]) -> Tuple[object, bool]:
        """``(entry, fresh)``: memory, then disk, else ``build()``.

        With a disk layer the build runs under the key's fill lock, and
        a fill that waited for another process's build re-reads the
        disk first.  ``fresh`` is True when this call built the entry.
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
        if entry is None:
            entry = self._read(key, decode)
        if entry is not None:
            self.hits += 1
            return entry, False
        if not self.disk_dir:
            return self._fill(key, build), True
        lock = _FillLock(self._path(key) + ".lock")
        try:
            if not lock.acquire():
                self.lock_degraded += 1
            elif lock.waited:
                self.lock_waits += 1
                entry = self._read(key, decode)
                if entry is not None:
                    self.hits += 1
                    return entry, False
            return self._fill(key, build), True
        finally:
            lock.release()

    def clear(self) -> None:
        """Drop the in-memory layer (the disk layer is left alone)."""
        with self._lock:
            self._memory.clear()

    def _counters(self) -> Dict[str, int]:
        with self._lock:
            entries = len(self._memory)
        return {"hits": self.hits, "misses": self.misses,
                "disk_hits": self.disk_hits, "evictions": self.evictions,
                "entries": entries}

    def __repr__(self) -> str:
        return "%s(%d entries, %d hits, %d misses)" % (
            type(self).__name__, len(self._memory), self.hits, self.misses)


class _CacheEntry:
    """A frontend module's pickled form and its size.

    Cloning by ``pickle.loads`` is ~5x faster than a deep copy on
    this IR, so the blob is the artifact: the entry keeps no live
    module beside it, and the module it was made from is free for the
    caller that built it.
    """

    __slots__ = ("blob", "size")

    def __init__(self, module: Module, blob: Optional[bytes] = None) -> None:
        self.size = module_size(module)
        self.blob = blob if blob is not None \
            else pickle.dumps(module, _PICKLE_PROTOCOL)

    def clone(self) -> Module:
        return pickle.loads(self.blob)


class FrontendCache(_ArtifactStore):
    """Shares one parsed+lowered+SSA module across configurations.

    ``frontend()`` returns a module no other caller holds, so callers
    may mutate (optimize, destruct) it freely: a miss hands over the
    module it built, and every hit gets a private copy.
    """

    @property
    def frontend_compiles(self) -> int:
        """Times the frontend passes actually ran — the counter the
        "at most once per program per table run" test asserts on."""
        return self.misses

    @staticmethod
    def key(source: str, rotate_loops: bool = False,
            inline: bool = False) -> Tuple[str, bool, bool]:
        digest = hashlib.sha256(source.encode("utf-8")).hexdigest()
        return (digest, rotate_loops, inline)

    def _file_name(self, key: Tuple[str, bool, bool]) -> str:
        digest, rotate_loops, inline = key
        return "%s-%d%d.frontend.pickle" % (digest, rotate_loops, inline)

    def _encode(self, entry: _CacheEntry) -> bytes:
        return entry.blob

    def frontend(self, source: str, rotate_loops: bool = False,
                 trace: Optional[PipelineTrace] = None,
                 inline: bool = False) -> Module:
        """The frontend module for ``source``, the caller's own.

        A miss compiles the module, caches its pickled form and hands
        over the module itself.  Every hit unpickles a private copy of
        the cached blob; a disk hit unpickles it once more first, to
        check its type.  A hit records a ``frontend`` (cached) and a
        ``clone`` event instead of the pass events.
        """
        built = []

        def build() -> _CacheEntry:
            compile_trace = PipelineTrace()
            module = run_frontend(source, rotate_loops=rotate_loops,
                                  trace=compile_trace, inline=inline)
            if trace is not None:
                trace.extend(compile_trace)
            built.append(module)
            return _CacheEntry(module)

        def decode(blob: bytes) -> Optional[_CacheEntry]:
            module = pickle.loads(blob)
            return _CacheEntry(module, blob) \
                if isinstance(module, Module) else None

        key = self.key(source, rotate_loops, inline)
        entry, fresh = self._lookup(key, build, decode)
        if fresh:
            return built[0]  # only this call holds it: hits unpickle
        start = time.perf_counter()
        module = entry.clone()
        if trace is not None:
            trace.record("frontend", 0.0, size_after=entry.size,
                         cached=True)
            trace.record("clone", time.perf_counter() - start,
                         size_before=entry.size, size_after=entry.size)
        return module

    def stats(self) -> Dict[str, int]:
        """Counter snapshot as a plain dict (JSON reporting)."""
        return dict(frontend_compiles=self.misses, **self._counters())


def _module_fingerprint(module: Module) -> str:
    """A canonical text form of everything the back-end consumes.

    The printed IR covers blocks, instructions, checks, and array
    declarations; the appended sections cover what the printer omits
    but codegen depends on: parameter and scalar types, and input
    defaults.  Hashing this is sound — two modules with equal
    fingerprints translate to identical Python source.
    """
    from ..ir.printer import format_module

    parts = [format_module(module)]
    for name in sorted(module.functions):
        function = module.functions[name]
        parts.append("=func %s" % name)
        parts.append("params " + ",".join(
            "%s:%s" % (p.name, p.type.value if p.type else "?")
            for p in function.params))
        parts.append("scalars " + ",".join(
            "%s:%s" % (sname, stype.value if stype else "?")
            for sname, stype in sorted(function.scalar_types.items())))
        parts.append("defaults " + ",".join(
            "%s=%r" % item for item in
            sorted(function.input_defaults.items())))
    return "\n".join(parts)


class BackendCache(_ArtifactStore):
    """Shares translated back-end modules across executions.

    ``compiled(module)`` returns a ready-to-run
    :class:`~repro.backend.pybackend.CompiledPythonModule` for the
    given (SSA or non-SSA) module, destructing and translating a
    private copy on first request.  Compiled modules hold no run state,
    so the same instance is handed to every caller.  The key hashes the
    printed IR plus the declarations the printer omits (scalar types,
    parameter types, input defaults) — everything the code generator
    consumes.  The disk layer stores the (destructed module, generated
    source) pair and re-``exec``\\ s it on load.

    Keys include the engine's translation-scheme version
    (:data:`~repro.backend.pybackend.ENGINE_VERSION` for the threaded
    engine, :data:`~repro.backend.specialized.SPECIALIZED_ENGINE_VERSION`
    for the tier-2 flat/vectorized engine), so entries written by an
    older translation scheme — in particular disk entries surviving an
    upgrade — can never be executed by a newer engine, and the two
    engines never collide on a key.  Any other engine name is a
    ``ValueError``: it never falls back to the threaded engine.
    """

    @property
    def translations(self) -> int:
        """Times the destruct+translate pass actually ran."""
        return self.misses

    @staticmethod
    def key(module: Module, engine: str = "compiled",
            profile_fingerprint: Optional[str] = None) -> str:
        from ..backend.pybackend import ENGINE_VERSION
        from ..backend.specialized import SPECIALIZED_ENGINE_VERSION

        if engine not in ENGINE_NAMES[1:]:
            raise ValueError("unknown back-end engine %r" % engine)
        digest = hashlib.sha256(
            _module_fingerprint(module).encode("utf-8")).hexdigest()
        if engine == "specialized":
            key = "%s-sp%d" % (digest, SPECIALIZED_ENGINE_VERSION)
        else:
            key = "%s-e%d" % (digest, ENGINE_VERSION)
        if profile_fingerprint:
            # Profile-guided modules carry the training profile's
            # fingerprint: the module fingerprint already reflects the
            # placement the profile produced, but the explicit suffix
            # keeps artifacts from different training runs separable
            # (and auditable) on disk.
            key = "%s-p%s" % (key, profile_fingerprint[:16])
        return key

    def _file_name(self, key: str) -> str:
        return "%s.pybackend.pickle" % key

    def _encode(self, compiled) -> bytes:
        return pickle.dumps((compiled.module, compiled.source),
                            _PICKLE_PROTOCOL)

    def compiled(self, module: Module,
                 trace: Optional[PipelineTrace] = None,
                 engine: str = "compiled",
                 profile_fingerprint: Optional[str] = None):
        """The translated back-end module for ``module``.

        ``engine`` selects the tier: ``"compiled"`` (direct-threaded)
        or ``"specialized"`` (flat source + vectorized affine loops).
        The input module is never mutated: destruction runs on a
        private clone.  Records one ``backend`` trace event per call —
        ``cached=True`` on a hit, wall time of the
        clone+destruct+translate pipeline on a miss.
        ``profile_fingerprint`` (for profile-guided modules) becomes
        part of the key so training runs never share artifacts.
        """

        def build():
            start = time.perf_counter()
            compiled = translate(module, engine)
            if trace is not None:
                trace.record("backend", time.perf_counter() - start,
                             size_after=module_size(compiled.module),
                             counters={"key": key})
            return compiled

        key = self.key(module, engine, profile_fingerprint)
        compiled, fresh = self._lookup(
            key, build, lambda blob: _decode_compiled(blob, engine))
        if trace is not None and not fresh:
            trace.record("backend", 0.0, cached=True)
        return compiled

    def stats(self) -> Dict[str, int]:
        return dict(translations=self.misses, **self._counters())


def _decode_compiled(blob: bytes, engine: str):
    from ..backend.pybackend import CompiledPythonModule
    from ..backend.specialized import CompiledSpecializedModule

    module, source = pickle.loads(blob)
    if not isinstance(module, Module) or not isinstance(source, str):
        return None
    cls = CompiledSpecializedModule if engine == "specialized" \
        else CompiledPythonModule
    return cls(module, source=source)


_shared: Dict[type, _ArtifactStore] = {}
_shared_lock = threading.Lock()


def _shared_instance(cls, max_entries_env: str, default_max_entries: int):
    with _shared_lock:
        if cls not in _shared:
            try:
                max_entries = int(os.environ.get(max_entries_env,
                                                 default_max_entries))
            except ValueError:
                max_entries = default_max_entries
            _shared[cls] = cls(os.environ.get(CACHE_DIR_ENV) or None,
                               max_entries=max_entries)
        return _shared[cls]


def shared_cache() -> FrontendCache:
    """The process-wide cache the table runners and service workers
    default to.

    Honors ``REPRO_CACHE_DIR`` for the optional on-disk layer and
    ``REPRO_CACHE_MAX_ENTRIES`` for an LRU bound on the in-memory
    layer (unset or non-positive = unbounded).
    """
    return _shared_instance(FrontendCache, CACHE_MAX_ENTRIES_ENV, 0)


def reset_shared_cache() -> None:
    """Forget the process-wide cache (tests, long-lived servers)."""
    with _shared_lock:
        _shared.pop(FrontendCache, None)


def shared_backend_cache() -> BackendCache:
    """The process-wide backend cache ``run_compiled`` defaults to.

    Honors ``REPRO_CACHE_DIR`` for the on-disk layer (shared with the
    frontend cache directory; file names cannot collide) and
    ``REPRO_BACKEND_CACHE_MAX_ENTRIES`` for the LRU bound (default
    :data:`BACKEND_CACHE_DEFAULT_MAX_ENTRIES`; non-positive =
    unbounded is not offered — compiled modules pin exec'd code
    objects, so long-lived fuzz campaigns need the bound).
    """
    return _shared_instance(BackendCache, BACKEND_CACHE_MAX_ENTRIES_ENV,
                            BACKEND_CACHE_DEFAULT_MAX_ENTRIES)


def reset_shared_backend_cache() -> None:
    """Forget the process-wide backend cache (tests, servers)."""
    with _shared_lock:
        _shared.pop(BackendCache, None)
