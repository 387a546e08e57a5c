"""Content-addressed on-disk result store: determinism turned into reuse.

Every engine task (synthesis point, floorplan restart, simulation run) is
deterministic in its inputs — PRs 1-4 asserted bit-identical results across
serial and parallel execution. This module makes that determinism pay off
across *process lifetimes*: results are filed on disk under a stable
fingerprint of (task type, task payload, code-version salt), so repeated
CLI invocations, benchmark reruns and interrupted campaigns fetch
already-computed points instead of recomputing them.

Design:

* **content addressing** — :func:`fingerprint_task` folds the task's value
  fields (specs, configs, topologies, scenario objects) into a SHA-256
  digest through a canonical type-tagged encoding; caller-chosen labels
  (``key``) and run-local handles (``context_token``) are excluded, so two
  campaigns asking for the same computation share entries regardless of how
  they label their points;
* **code-version salt** — the digest includes :data:`CODE_SALT` (overridable
  per store and via ``$REPRO_STORE_SALT``); bump it when a change makes old
  results stale, and every entry silently becomes a miss;
* **layout** — every entry is a frame appended to a per-process pack
  file ``<root>/packs/NNNNNN.pack``, Bitcask-style (Sheehy & Smith,
  2010), so a cold sweep does not pay a file creation per record (one
  synthesis writes hundreds of stage records). A frame is the raw
  fingerprint digest, the body length, the body's CRC32, then the body:
  the header pickle and the payload pickle;
* **append-only writes** — a frame is one ``os.writev`` to a pack only its
  own process appends to (opened ``O_APPEND`` on the first write; a
  forked worker opens its own), so a killed campaign never leaves a
  half-written entry that reads as valid. A torn frame (a killed writer,
  a full disk) ends the scan of its pack, a CRC-failing one reads as a
  miss, and a writer whose pack no longer ends where its last frame did
  starts a new pack. Entries that older versions filed one file each
  are not read;
* **pack index** — each store keeps an in-memory index, fingerprint ->
  (pack, offset, length, CRC), built from frame headers only (a sweep's
  stage-cached tasks and a synthesis run's candidates evaluate on the
  caller's store, and fork workers inherit its index, so a run builds it
  once). A lookup that misses it refreshes it: packs that grew are read
  from where the last scan stopped, and the next pack number is probed.
  :meth:`ResultStore.indexed` answers from the index alone, so a stage
  replay reads only the records it loads (Bitcask's keydir rule);
  packs no writer holds any more are skipped until the directory
  changes. A stale index costs a miss (a recomputation), never a wrong
  result;
* **corruption-tolerant reads** — a torn, CRC-failing or mismatched
  entry is treated as a miss (counted, and dropped from the index), never
  an error;
  ``python -m repro.cli cache verify`` audits and optionally repairs;
* **inter-process safety** — store-wide mutations (``clear``,
  ``verify(repair=True)``, which rewrites a pack without its bad frames)
  run under an advisory
  :class:`~repro.engine.locks.FileLock` at ``<root>/.lock``, so serving
  workers, a resident campaign service and ad-hoc CLI runs can share one
  warm store without racing each other's walks. The kernel releases the
  lock when a holder dies (SIGKILL included), and each pack's unlink or
  rewrite is atomic, so a crash mid-sweep leaves a smaller-but-consistent
  store and no stuck lock.

The executor integration lives in :func:`repro.engine.executor.run_tasks`
(``store=``): hits short-circuit the worker pool, misses are computed and
checkpointed incrementally as they complete, so a killed-then-resumed sweep
finishes from the store with merged results bit-identical to a cold run.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import hashlib
import io
import os
import pickle
import struct
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.engine.locks import FileLock, acquires_lock, requires_lock
from repro.errors import LockTimeoutError, StoreError

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: every pack stays live
    fcntl = None

#: Bump when a code change invalidates previously stored results (routing,
#: floorplanning, simulation semantics). Overridable per store and via the
#: ``REPRO_STORE_SALT`` environment variable.
CODE_SALT = "repro-store-v1"

#: On-disk record format version; a mismatching record reads as a miss.
#: Version 2: ``cli synth`` files the engine's bare ``SynthesisResult``
#: (version 1 entries from it were ``{"result", "stage_timings"}`` dicts).
STORE_FORMAT = 2

#: Default store location for CLI/library callers that do not choose one;
#: ``$REPRO_CACHE_DIR`` takes precedence.
DEFAULT_STORE_DIR = ".repro-cache"

_PACK_SUFFIX = ".pack"

#: A pack frame's head: the raw SHA-256 digest of the fingerprint, the
#: body length and the body's CRC32. The body (header pickle, then
#: payload pickle) follows.
_FRAME = struct.Struct("<32sII")


#: How long a mutation waits for the store lock before proceeding
#: best-effort without it.
_LOCK_WAIT_S = 10.0

#: Task fields that must not shape the fingerprint: ``key`` is a
#: caller-chosen merge label, ``context_token`` a run-local cache handle,
#: ``skip_reason`` a human note attached to pre-skipped tasks.
_NON_CONTENT_FIELDS = frozenset({"key", "context_token", "skip_reason"})


def default_store_dir() -> str:
    """The store directory used when the caller does not pick one."""
    return os.environ.get("REPRO_CACHE_DIR", DEFAULT_STORE_DIR)


def resolve_salt(salt: Optional[str] = None) -> str:
    """An explicit salt, else ``$REPRO_STORE_SALT``, else :data:`CODE_SALT`."""
    if salt is not None:
        return salt
    return os.environ.get("REPRO_STORE_SALT", CODE_SALT)


# --------------------------------------------------------------------------
# canonical fingerprinting
# --------------------------------------------------------------------------

def _feed(h, obj: Any) -> None:
    """Fold ``obj`` into digest ``h`` via a canonical type-tagged encoding.

    Every value is emitted as a type tag plus a length-prefixed payload, so
    distinct structures can never collide by concatenation (``("ab", "c")``
    vs ``("a", "bc")``). Dicts and sets are encoded in sorted-key order when
    their keys are orderable (falling back to the order of the keys' own
    encodings), so logically equal containers built in different orders
    still fingerprint equal.
    """
    if obj is None:
        h.update(b"N;")
    elif obj is True:
        h.update(b"T;")
    elif obj is False:
        h.update(b"F;")
    elif isinstance(obj, enum.Enum):
        # Before the int branch: an IntEnum member must not fingerprint
        # as its plain integer value — same digest, different semantics.
        _feed_tagged(h, b"E", _type_tag(obj), obj.name)
    elif isinstance(obj, int):
        data = str(obj).encode()
        h.update(b"i%d:" % len(data) + data)
    elif isinstance(obj, float):
        # Shortest round-trip repr of the plain float, so a subclass such
        # as np.float64 encodes the same under every numpy version.
        data = repr(float(obj)).encode()
        h.update(b"f%d:" % len(data) + data)
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"s%d:" % len(data) + data)
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    elif isinstance(obj, (tuple, list)):
        h.update(b"(%d:" % len(obj))
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{%d:" % len(obj))
        for key, value in _ordered(obj.items()):
            _feed(h, key)
            _feed(h, value)
        h.update(b"}")
    elif isinstance(obj, (set, frozenset)):
        h.update(b"<%d:" % len(obj))
        for item in _ordered_values(obj):
            _feed(h, item)
        h.update(b">")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"D")
        _feed(h, _type_tag(obj))
        for f in dataclasses.fields(obj):
            _feed(h, f.name)
            _feed(h, getattr(obj, f.name))
        h.update(b";")
    elif _is_ndarray(obj):
        h.update(b"A")
        _feed(h, str(obj.dtype))
        _feed(h, tuple(obj.shape))
        data = obj.tobytes()
        h.update(b"%d:" % len(data) + data)
    elif hasattr(obj, "__dict__") and not callable(obj):
        # Plain value object (e.g. a stateless Stage instance): class
        # identity plus its instance attributes, sorted by name.
        h.update(b"O")
        _feed(h, _type_tag(obj))
        for name in sorted(vars(obj)):
            _feed(h, name)
            _feed(h, vars(obj)[name])
        h.update(b";")
    else:
        text = repr(obj)
        if " at 0x" in text:
            raise StoreError(
                f"cannot fingerprint {type(obj).__qualname__} instances "
                "(no stable representation)"
            )
        _feed_tagged(h, b"r", _type_tag(obj), text)


def _type_tag(obj: Any) -> str:
    """Module-qualified class identity: same-named value classes from
    different modules must never share a fingerprint."""
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def _feed_tagged(h, tag: bytes, *parts: str) -> None:
    h.update(tag)
    for part in parts:
        data = part.encode("utf-8")
        h.update(b"%d:" % len(data) + data)
    h.update(b";")


def _is_ndarray(obj: Any) -> bool:
    cls = type(obj)
    return cls.__module__ == "numpy" and cls.__name__ == "ndarray"


def _ordered(items):
    try:
        return sorted(items)
    except TypeError:
        # Unorderable dict keys: order by the keys' own encoding, as
        # _ordered_values does for set members.
        return sorted(items, key=lambda item: _encoding(item[0]))


def _ordered_values(values):
    try:
        return sorted(values)
    except TypeError:
        # Unorderable set members: order by their own encoding for a
        # construction-order-independent digest.
        return sorted(values, key=_encoding)


def _encoding(value: Any) -> bytes:
    h = hashlib.sha256()
    _feed(h, value)
    return h.digest()


class _Chunks(list):
    """A :func:`_feed` target that keeps the encoded bytes instead of
    hashing them; SHA-256 is a stream, so feeding ``b"".join(chunks)``
    later gives the digest of feeding the value directly."""

    update = list.append


#: Field values cheap enough to encode inline, never memoised.
_ATOMS = (type(None), bool, int, float, str, bytes)


def fingerprint_task(task: Any, *, salt: Optional[str] = None) -> str:
    """The content address of one engine task.

    Folds the task's type name, its value fields (minus caller labels and
    run-local handles) and the code-version ``salt`` into a SHA-256 hex
    digest. Raises :class:`~repro.errors.StoreError` when a field has no
    stable representation.

    A task class may declare ``__fingerprint_delegate__ = "<field>"`` to
    fingerprint as the task held in that field — fault-injection wrappers
    (:class:`~repro.engine.faults.FaultyTask`) use this so a chaos run
    shares content addresses with a clean one.
    """
    return _fingerprint(task, salt, {})


def _fingerprint(task: Any, salt: Optional[str], memo: dict) -> str:
    """:func:`fingerprint_task` with an identity memo of encoded fields.

    ``memo`` maps ``id(value)`` to ``(value, encoding)`` for every
    top-level non-atom field value already encoded, so tasks sharing one
    payload object (the replications of a batch share a ``Topology``)
    encode it once. The memo holds the value, so its ``id`` cannot be
    reused, and the digest is byte-identical to an unmemoised one. Sound
    only while no memoised value is mutated: the caller scopes it to one
    :func:`~repro.engine.executor.run_tasks` call.
    """
    delegate = getattr(type(task), "__fingerprint_delegate__", None)
    if delegate is not None:
        return _fingerprint(getattr(task, delegate), salt, memo)
    if not dataclasses.is_dataclass(task) or isinstance(task, type):
        raise StoreError(
            f"tasks must be dataclass instances, got {type(task).__qualname__}"
        )
    h = hashlib.sha256()
    _feed(h, resolve_salt(salt))
    _feed(h, type(task).__qualname__)
    exclude = _NON_CONTENT_FIELDS.union(
        getattr(type(task), "__fingerprint_exclude__", ())
    )
    for f in dataclasses.fields(task):
        if f.name in exclude:
            continue
        _feed(h, f.name)
        value = getattr(task, f.name)
        if isinstance(value, _ATOMS):
            _feed(h, value)
            continue
        hit = memo.get(id(value))
        if hit is None:
            chunks = _Chunks()
            _feed(chunks, value)
            hit = memo[id(value)] = (value, b"".join(chunks))
        h.update(hit[1])
    return h.hexdigest()


# --------------------------------------------------------------------------
# packs
# --------------------------------------------------------------------------

class _PackIndex:
    """A store's view of the packs under its root, and the pack this
    process appends to.

    ``entries`` maps a fingerprint to ``(pack, offset, body length, CRC)``;
    ``seen`` maps a pack number to ``(inode, offset its last scan stopped
    at)``. Pack numbers run 0, 1, 2, … with no gaps: a writer takes the
    first free number, and a refresh stops at the first one missing. A
    writer holds an exclusive ``flock`` on its pack from before its first
    frame on, so a non-empty pack nobody holds is **final**: it will not
    grow, and a refresh skips it until the packs directory changes (a pack
    added, removed or rewritten).
    """

    def __init__(self, directory: str) -> None:
        self.dir = directory
        self.entries: Dict[str, Tuple[int, int, int, int]] = {}
        self.seen: Dict[int, Tuple[int, int]] = {}
        self.final: set = set()
        self._mtime: Optional[int] = None
        self._fd: Optional[int] = None
        self._pid = self._pack = self._end = 0

    def path(self, number: int) -> str:
        return os.path.join(self.dir, f"{number:06d}{_PACK_SUFFIX}")

    # -- reading ------------------------------------------------------------

    def read(self, fingerprint: str) -> Optional[bytes]:
        """The body of ``fingerprint``'s frame; ``None`` when no pack holds
        it. Raises ``ValueError`` for a torn or corrupt frame and
        ``OSError`` for a failed read."""
        loc = self.entries.get(fingerprint)
        if loc is None:
            self.refresh()
            loc = self.entries.get(fingerprint)
            if loc is None:
                return None
        number, offset, length, crc = loc
        fd = os.open(self.path(number), os.O_RDONLY)
        try:
            frame = os.pread(fd, _FRAME.size + length, offset)
        finally:
            os.close(fd)
        body = frame[_FRAME.size:]
        if (
            frame[:_FRAME.size]
            != _FRAME.pack(bytes.fromhex(fingerprint), length, crc)
            or zlib.crc32(body) != crc
        ):
            raise ValueError("torn or corrupt frame")
        return body

    def refresh(self) -> int:
        """Index the frames written since the last refresh, up to the first
        pack number missing; returns that number. Each pack that is not
        final or this process's own is scanned from where its last scan
        stopped (from the start if it shrank or was replaced)."""
        try:
            mtime = os.stat(self.dir).st_mtime_ns
        except OSError:
            return 0
        changed, self._mtime = mtime != self._mtime, mtime
        number = 0
        while True:
            if (number in self.final and not changed) or (
                number == self._pack and self._owned()
            ):
                number += 1
                continue
            try:
                fd = os.open(self.path(number), os.O_RDONLY)
            except OSError:
                return number
            try:
                held = _held(fd)
                st = os.fstat(fd)
                ino, end = self.seen.get(number, (st.st_ino, 0))
                if ino != st.st_ino or st.st_size < end:
                    end = 0
                if st.st_size != end:
                    end = self._scan(fd, number, end, st.st_size)
                self.seen[number] = (st.st_ino, end)
                if held or not st.st_size:
                    self.final.discard(number)
                else:
                    self.final.add(number)
            finally:
                os.close(fd)
            number += 1

    def _scan(self, fd: int, number: int, offset: int, size: int) -> int:
        """Index the frames of one pack between ``offset`` and ``size`` from
        their heads alone; returns where the scan stopped (at a torn frame,
        or one still being written)."""
        try:
            while offset + _FRAME.size <= size:
                digest, length, crc = _FRAME.unpack(
                    os.pread(fd, _FRAME.size, offset)
                )
                end = offset + _FRAME.size + length
                if end > size:
                    break
                self.entries[digest.hex()] = (number, offset, length, crc)
                offset = end
        except (OSError, struct.error):
            pass
        return offset

    # -- writing ------------------------------------------------------------

    def append(self, fingerprint: str, *parts: bytes) -> int:
        """Append one frame, whose body is ``parts`` joined, to this
        process's pack in a single write; returns the bytes written. Raises
        on a fingerprint that is not a SHA-256 hex digest or a failed write
        (after which this process's next append starts a new pack)."""
        digest = bytes.fromhex(fingerprint)
        if len(digest) != 32:
            raise ValueError("not a SHA-256 fingerprint")
        length = crc = 0
        for part in parts:
            length += len(part)
            crc = zlib.crc32(part, crc)
        frame = [_FRAME.pack(digest, length, crc), *parts]
        self._claim()
        try:
            written = os.writev(self._fd, frame)
        except OSError:
            written = -1
        if written != _FRAME.size + length:
            self.close()
            raise OSError("short write to a pack")
        self.entries[fingerprint] = (self._pack, self._end, length, crc)
        self._end += written
        return written

    def _owned(self) -> bool:
        return self._fd is not None and self._pid == os.getpid()

    def _claim(self) -> None:
        """Make ``_fd`` this process's pack, ending at ``_end``. A pack
        opened by the parent of a fork, or one that was removed, replaced
        or written past ``_end`` since, is left for a new one."""
        if self._owned():
            st = os.fstat(self._fd)
            if st.st_nlink and st.st_size == self._end:
                return
        self.close()
        os.makedirs(self.dir, exist_ok=True)
        number = self.refresh()
        while True:
            try:
                fd = os.open(
                    self.path(number),
                    os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_APPEND,
                    0o644,
                )
                break
            except FileExistsError:
                number += 1
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        self._fd, self._pid, self._pack, self._end = fd, os.getpid(), number, 0

    def close(self, _close=os.close) -> None:
        """Drop this process's pack handle (a forked child's copy of its
        parent's handle is closed in the child only). ``os.close`` is bound
        at definition time: at interpreter exit ``__del__`` can run after
        this module's globals are cleared."""
        if self._fd is not None:
            _close(self._fd)
            self._fd = None

    __del__ = close

    def reset(self) -> None:
        """Forget everything: the packs were removed or rewritten."""
        self.close()
        self.entries.clear()
        self.seen.clear()
        self.final.clear()
        self._mtime = None


def _held(fd: int) -> bool:
    """Whether a writer holds the pack open as ``fd`` (always assumed
    where ``fcntl`` does not exist)."""
    if fcntl is None:
        return True
    try:
        fcntl.flock(fd, fcntl.LOCK_SH | fcntl.LOCK_NB)
    except OSError:
        return True
    return False


def _walk_pack(path: Path) -> Iterator[Tuple[int, str, bytes, Optional[str]]]:
    """Every frame of one pack, read whole: ``(offset, fingerprint, frame,
    problem)``. ``problem`` is ``None``, ``"CRC mismatch"`` or ``"torn
    frame"``; a torn frame runs past the end of the pack and ends the
    walk."""
    data = path.read_bytes()
    offset = 0
    while offset < len(data):
        end = offset + _FRAME.size
        if end <= len(data):
            digest, length, crc = _FRAME.unpack_from(data, offset)
            end += length
        if end > len(data):
            yield offset, "", data[offset:], "torn frame"
            return
        frame = data[offset:end]
        problem = (
            None if zlib.crc32(frame[_FRAME.size:]) == crc else "CRC mismatch"
        )
        yield offset, digest.hex(), frame, problem
        offset = end


# --------------------------------------------------------------------------
# the store
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StoreEntry:
    """One cached result, as returned by :meth:`ResultStore.get`."""

    fingerprint: str
    task_type: str
    payload: Any
    elapsed_s: float
    created_s: float


@dataclasses.dataclass
class StoreStats:
    """Disk-level totals plus this instance's session counters."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    shadowed: int = 0
    by_task_type: Dict[str, int] = dataclasses.field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    corrupt_dropped: int = 0


@dataclasses.dataclass
class VerifyReport:
    """Outcome of a full-store audit (see :meth:`ResultStore.verify`)."""

    checked: int = 0
    ok: int = 0
    bad: List[Tuple[str, str]] = dataclasses.field(default_factory=list)
    removed: int = 0

    @property
    def clean(self) -> bool:
        return not self.bad


class ResultStore:
    """A content-addressed, corruption-tolerant result cache.

    Args:
        root: Store directory; created (with parents) if missing. An
            unwritable or invalid location raises
            :class:`~repro.errors.StoreError` immediately, with a clear
            message, rather than a traceback at first write.
        salt: Code-version salt folded into every fingerprint (default:
            ``$REPRO_STORE_SALT`` or :data:`CODE_SALT`).
        readonly: Open for inspection only (``cache stats`` / ``verify``):
            no directory creation, no write probe — a store on a read-only
            mount can still be audited, and asking for stats of a missing
            store does not create one as a side effect.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        salt: Optional[str] = None,
        readonly: bool = False,
    ) -> None:
        self.root = Path(root)
        self.salt = resolve_salt(salt)
        self.readonly = readonly
        self.hits = 0
        self.misses = 0
        self.corrupt_dropped = 0
        self._packs = _PackIndex(str(self.root / "packs"))
        self._prepare_root()

    @acquires_lock("store")
    def _mutation_lock(self) -> Optional[FileLock]:
        """A held store-wide lock for a mutation of every pack, or ``None``
        when it could not be taken (busy peer / unwritable root): the
        caller then proceeds best-effort — never blocks forever, never
        raises from a maintenance path."""
        lock = FileLock(self.root / ".lock", timeout_s=_LOCK_WAIT_S)
        try:
            if lock.acquire():
                return lock
        except LockTimeoutError:
            pass
        return None

    # -- directory plumbing -------------------------------------------------

    def _prepare_root(self) -> None:
        if self.root.exists() and not self.root.is_dir():
            raise StoreError(
                f"cache directory {self.root} exists and is not a directory"
            )
        if self.readonly:
            return
        try:
            os.makedirs(self._packs.dir, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot create cache directory {self.root}: {exc}"
            ) from None
        # Probe writability now: a read-only store should fail loudly at
        # open time, not with a traceback mid-campaign.
        try:
            fd, probe = tempfile.mkstemp(prefix=".probe-", dir=self._packs.dir)
            os.close(fd)
            os.unlink(probe)
        except OSError as exc:
            raise StoreError(
                f"cache directory {self.root} is not writable: {exc}"
            ) from None

    def _pack_paths(self) -> List[Path]:
        return sorted(self.root.glob("packs/*" + _PACK_SUFFIX))

    # -- fingerprints -------------------------------------------------------

    def fingerprint(self, task: Any) -> Optional[str]:
        """The task's content address, or ``None`` when it has none.

        Pre-skipped tasks (``skip=True``) short-circuit to an empty result
        more cheaply than a disk read, and tasks whose payload has no
        stable representation simply run uncached — never an error.
        """
        return self._fingerprint(task, {})

    def _fingerprint(self, task: Any, memo: dict) -> Optional[str]:
        """:meth:`fingerprint` sharing ``memo`` (see :func:`_fingerprint`)
        across the tasks of one executor call."""
        if getattr(task, "skip", False):
            return None
        try:
            return _fingerprint(task, self.salt, memo)
        except StoreError:
            return None

    # -- entry IO -----------------------------------------------------------

    def get(
        self, fingerprint: Optional[str], *, counted: bool = True
    ) -> Optional[StoreEntry]:
        """Fetch one entry; ``None`` on miss *or* unreadable entry.
        ``counted=False`` (a stage record) leaves ``hits``/``misses``."""
        if fingerprint is None:
            return None
        try:
            body = self._packs.read(fingerprint)
            if body is None:
                raise FileNotFoundError(fingerprint)
            source = io.BytesIO(body)
            header = pickle.load(source)
            if not self._header_ok(header, fingerprint):
                raise ValueError("stale or mismatched record")
            payload = pickle.load(source)
        except OSError:
            # Not found, or a *transient* open/read failure (EMFILE
            # mid-campaign, a flaky network mount): a plain miss. The frame
            # stays indexed; only proven-bad content is dropped.
            self.misses += counted
            return None
        except Exception:
            # Torn or corrupt frame, foreign header, unpicklable class,
            # stale format/salt: a miss; drop the frame from the index so
            # it is not re-read.
            self.misses += counted
            self.corrupt_dropped += 1
            self._packs.entries.pop(fingerprint, None)
            return None
        self.hits += counted
        return StoreEntry(
            fingerprint=fingerprint,
            task_type=str(header.get("task_type", "")),
            payload=payload,
            elapsed_s=float(header.get("elapsed_s", 0.0)),
            created_s=float(header.get("created_s", 0.0)),
        )

    def indexed(self, fingerprint: str, *, refresh: bool = False) -> bool:
        """Whether the pack index holds ``fingerprint`` (no frame is read,
        so it can still fail to load); ``refresh=True`` refreshes the
        index first if it does not."""
        if refresh and fingerprint not in self._packs.entries:
            self._packs.refresh()
        return fingerprint in self._packs.entries

    def _header_ok(self, header: Any, fingerprint: str) -> bool:
        return (
            isinstance(header, dict)
            and header.get("format") == STORE_FORMAT
            and header.get("fingerprint") == fingerprint
            and header.get("salt") == self.salt
        )

    def put(
        self,
        fingerprint: Optional[str],
        payload: Any,
        *,
        pickled: Optional[bytes] = None,
        task_type: str = "",
        elapsed_s: float = 0.0,
    ) -> int:
        """Append one entry as a frame to this process's pack; returns the
        bytes written (0/False when nothing was stored, so the result still
        reads as a boolean).

        The frame's body is a small metadata header pickle followed by the
        payload pickle, so ``stats``/``verify`` can read metadata without
        deserialising payloads. ``pickled`` is ``payload``'s pickle when
        the caller already holds one (a pool worker's result, see
        :func:`~repro.engine.tasks.run_task_pickled`): those bytes are
        filed as is, and ``payload`` is not pickled again. Unpicklable
        payloads are skipped (the campaign still completes — it just
        cannot resume through this point).
        """
        if fingerprint is None:
            return False
        header = {
            "format": STORE_FORMAT,
            "fingerprint": fingerprint,
            "salt": self.salt,
            "task_type": task_type,
            "elapsed_s": float(elapsed_s),
            "created_s": time.time(),  # repro: noqa[RPL202] -- bookkeeping clock; the header never enters a fingerprint
        }
        try:
            if pickled is None:
                pickled = pickle.dumps(
                    payload, protocol=pickle.HIGHEST_PROTOCOL
                )
            return self._packs.append(
                fingerprint,
                pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL),
                pickled,
            )
        except Exception:
            # Unpicklable payloads surface as TypeError/AttributeError (not
            # just PicklingError), and any disk failure must degrade to
            # "not cached", never abort the campaign mid-checkpoint.
            return False

    def size_of(self, fingerprint: Optional[str]) -> int:
        """On-disk bytes of one entry's frame, from the index; 0 when it is
        not indexed."""
        loc = self._packs.entries.get(fingerprint)
        return 0 if loc is None else _FRAME.size + loc[2]

    # -- maintenance --------------------------------------------------------

    def stats(self) -> StoreStats:
        """Disk totals (entries, bytes, per-task-type) + session counters.

        ``entries`` and ``by_task_type`` count each fingerprint once, by
        its last frame; ``total_bytes`` counts every frame that is not
        torn, and ``shadowed`` the frames a later frame of the same
        fingerprint hides, so the size reported is what the packs hold.
        """
        stats = StoreStats(
            root=str(self.root),
            hits=self.hits,
            misses=self.misses,
            corrupt_dropped=self.corrupt_dropped,
        )
        frames = list(self._frames())
        last = {fp: task_type for fp, task_type, _size, _pack in frames}
        stats.entries = len(last)
        stats.shadowed = len(frames) - len(last)
        stats.total_bytes = sum(size for _fp, _type, size, _pack in frames)
        stats.by_task_type = dict(collections.Counter(last.values()))
        return stats

    def entries(self) -> Dict[str, str]:
        """``{fingerprint: task type}`` of every entry."""
        return {fp: rec[0] for fp, rec in self._records().items()}

    def _records(self) -> Dict[str, Tuple[str, int, Path]]:
        """``{fingerprint: (task type, frame bytes, pack)}``; a fingerprint
        written more than once counts once: its last frame that is not
        torn wins, as in the index."""
        return {
            fingerprint: (task_type, size, pack)
            for fingerprint, task_type, size, pack in self._frames()
        }

    def _frames(self) -> Iterator[Tuple[str, str, int, Path]]:
        """``(fingerprint, task type, frame bytes, pack)`` of every frame
        that is not torn, in pack order; only headers are unpickled."""
        for path in self._pack_paths():
            try:
                frames = list(_walk_pack(path))
            except OSError:
                continue
            for _offset, fingerprint, frame, problem in frames:
                if problem != "torn frame":
                    yield (fingerprint, _task_type(frame[_FRAME.size:]),
                           len(frame), path)

    def verify(self, *, repair: bool = False) -> VerifyReport:
        """Audit every frame: whole, its CRC matching, header readable and
        matching (format, salt, fingerprint), payload deserialisable.
        ``repair=True`` rewrites the packs that hold bad frames without
        them (under the store lock, so a repair sweep cannot race a peer's
        ``clear``)."""
        lock = self._mutation_lock() if repair else None
        try:
            return self._verify(repair=repair)
        finally:
            if lock is not None:
                lock.release()

    # requires the lock for its repair mode (rewrites race a peer's
    # clear); the read-only path rides along under it.
    @requires_lock("store")
    def _verify(self, *, repair: bool) -> VerifyReport:
        report = VerifyReport()
        for path in self._pack_paths():
            try:
                frames = list(_walk_pack(path))
            except OSError as exc:
                report.bad.append((str(path), f"unreadable ({exc})"))
                continue
            kept, bad = [], 0
            for offset, fingerprint, frame, problem in frames:
                report.checked += 1
                reason = problem or self._audit(
                    frame[_FRAME.size:], fingerprint
                )
                if reason is None:
                    report.ok += 1
                    kept.append(frame)
                    continue
                report.bad.append((f"{path}@{offset}", reason))
                bad += 1
            if repair and bad and _rewrite(path, kept):
                report.removed += bad
        if repair:
            self._packs.reset()
        return report

    def _audit(self, body: bytes, fingerprint: str) -> Optional[str]:
        """Why one frame body fails the audit, or ``None`` if it passes."""
        try:
            source = io.BytesIO(body)
            header = pickle.load(source)
            if not self._header_ok(header, fingerprint):
                return "stale or mismatched record"
            pickle.load(source)  # the payload must deserialise too
        except Exception as exc:
            return f"unreadable ({type(exc).__name__})"
        return None

    def clear(self) -> Tuple[int, int]:
        """Delete every pack (and any orphaned temp file left by a killed
        rewrite); returns ``(removed, failed)`` entries so callers can tell
        a clean sweep from unlinks an unwritable store silently refused.
        Runs under the store lock when one can be taken (best-effort: a
        read-only root cannot host a lock file but unlinks there fail
        anyway and are reported)."""
        lock = self._mutation_lock()
        try:
            return self._clear()
        finally:
            if lock is not None:
                lock.release()

    @requires_lock("store")
    def _clear(self) -> Tuple[int, int]:
        per_pack = collections.Counter(
            pack for _type, _size, pack in self._records().values()
        )
        removed = 0
        failed = 0
        for path in self._pack_paths():
            try:
                path.unlink()
                removed += per_pack[path]
            except OSError:
                failed += max(per_pack[path], 1)  # the store is not clear
        for pattern in (".tmp-*", ".probe-*"):
            for path in self.root.glob("packs/" + pattern):
                try:
                    path.unlink()
                except OSError:
                    pass
        self._packs.reset()
        return removed, failed


def _task_type(body: bytes) -> str:
    """The task type named by the header pickle at the start of a frame
    body, ``"?"`` when unreadable; the payload after it is never
    deserialised."""
    try:
        return str(pickle.loads(body).get("task_type", "?")) or "?"
    except Exception:  # unreadable, or not a dict
        return "?"


def _rewrite(path: Path, frames: List[bytes]) -> bool:
    """Replace the pack at ``path`` with ``frames``; an emptied pack stays,
    empty, so the pack numbers keep no gap."""
    try:
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=path.parent)
        with os.fdopen(fd, "wb") as fh:
            fh.write(b"".join(frames))
        os.replace(tmp, path)
    except OSError:
        return False
    return True


def open_store(
    cache_dir: Optional[Union[str, Path]] = None,
    *,
    salt: Optional[str] = None,
    readonly: bool = False,
) -> ResultStore:
    """Open (creating if needed, unless ``readonly``) the store at
    ``cache_dir``.

    ``None`` falls back to ``$REPRO_CACHE_DIR`` or
    :data:`DEFAULT_STORE_DIR`. Raises :class:`~repro.errors.StoreError`
    with a clear message for unwritable/invalid locations.
    """
    return ResultStore(
        cache_dir if cache_dir is not None else default_store_dir(),
        salt=salt, readonly=readonly,
    )
