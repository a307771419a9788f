"""Persisted artifact store: compiled results that outlive the process.

The in-memory :class:`repro.service.ResultCache` dies with its service;
:class:`ArtifactStore` is the tier below it — a content-addressed,
on-disk mapping from the service's cache keys to compiled artifacts, so
a restarted service (or a sibling process sharing the directory) serves
previously compiled designs **byte-identically with zero recompiles**.
The determinism contract makes this safe by construction: every
artifact is a pure function of ``(netlist, options)``, so whichever
process published a key first, the bytes any process reads back are the
bytes any of them would have compiled.

Four properties carry the contract (proven in
``tests/test_service_store.py``):

* **content addressing** — keys are the service's own tuples,
  ``(canonical_hash(netlist), CompileOptions.key())`` (the options key
  embeds ``CANONICAL_HASH_VERSION``), extended with the defect-map
  digest for repaired dies.  A key's file name is the SHA-256 of its
  canonical JSON encoding (:func:`key_digest`), fanned out over 256
  two-hex-character subdirectories;
* **atomic publication** — a blob is staged to a temporary file in the
  store and ``os.replace``\\ d into its final path, so readers (in this
  process or another) only ever see a complete blob or none at all;
* **verified integrity, no code from disk** — every blob embeds the
  SHA-256 of its payload; :meth:`ArtifactStore.get` recomputes and
  compares it before decoding.  The payload is a
  :mod:`repro.pnr.artifact` blob — JSON, zlib and configuration digits,
  never a pickle — so loading runs no code the file supplies.  A
  truncated, bit-flipped or otherwise malformed blob (a pickle
  included) is **quarantined** (moved aside, counted) and reported as a
  plain miss — corruption can cost a recompile, never a crash or a
  wrong artifact.  A blob of an older envelope version is a plain miss
  that the next publication overwrites;
* **budgeted LRU eviction** — ``max_entries`` / ``max_bytes`` bound the
  store; :meth:`put` evicts least-recently-used blobs (recency is
  bumped on every hit) until the budget holds, returning the evicted
  keys exactly like :meth:`repro.service.ResultCache.put`, and the
  counters satisfy the same identity (``lookups == hits + misses``).

Values are :class:`CacheEntry` objects — a compiled result plus its
netlist's port order and provenance flags, exactly what the compile
service caches.  Only the blob's small header is decoded on a hit; the
result's bulky fields (array, routes, ...) decode on first touch:

>>> import tempfile
>>> from repro.datapath.adder import ripple_carry_netlist
>>> from repro.pnr import compile_to_fabric
>>> from repro.service.store import ArtifactStore, CacheEntry
>>> nl = ripple_carry_netlist(2)
>>> entry = CacheEntry(compile_to_fabric(nl, seed=0, workers=0),
...                    tuple(nl.inputs), tuple(nl.outputs))
>>> root = tempfile.mkdtemp()
>>> store = ArtifactStore(root, max_entries=2)
>>> store.put(("rca2", ("opts", 0)), entry)
[]
>>> back = ArtifactStore(root).get(("rca2", ("opts", 0)))  # a fresh process
>>> back.result.stats == entry.result.stats, back.input_ports == entry.input_ports
(True, True)
>>> store.put(("k2",), entry) + store.put(("k3",), entry)  # evicts the LRU
[('rca2', ('opts', 0))]
>>> store.get(("rca2", ("opts", 0))) is None
True
>>> s = store.stats()
>>> (s["entries"], s["hits"], s["misses"], s["evictions"])
(2, 0, 1, 1)

See ``docs/artifact-store.md`` for the on-disk layout, the corruption
semantics and a worked two-process session.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.pnr.artifact import decode_result, encode_result
from repro.pnr.parallel import fault_point

__all__ = [
    "ARTIFACT_STORE_VERSION",
    "ArtifactStore",
    "CacheEntry",
    "StoreKeyError",
    "decode_key",
    "encode_key",
    "key_digest",
]

#: Version of the on-disk envelope (magic line + meta + payload).  A
#: bump makes every existing blob read as a plain miss (not a
#: quarantine) that the next publication of its key overwrites — the
#: store-level analogue of ``CANONICAL_HASH_VERSION`` bumping the cache
#: keys.  Version 1 held a pickle; version 2 holds a
#: :mod:`repro.pnr.artifact` blob.
ARTIFACT_STORE_VERSION = 2

#: First line of every blob: magic token + envelope version.
_MAGIC_TOKEN = b"REPROART "
_MAGIC = _MAGIC_TOKEN + str(ARTIFACT_STORE_VERSION).encode()

#: File name suffix of published blobs under ``objects/``.
_SUFFIX = ".art"


class StoreKeyError(TypeError):
    """The key is not encodable (only tuples of JSON scalars are)."""


@dataclass(frozen=True)
class CacheEntry:
    """What the cache and the store hold: an artifact plus its port order."""

    result: object  # PnrResult | ShardedPnrResult
    input_ports: tuple[str, ...]
    output_ports: tuple[str, ...]
    incremental: bool = False
    repaired: bool = False
    #: Degraded entries (golden served in place of an exhausted die
    #: repair) are handed to the submitter but never cached/persisted.
    degraded: bool = False


class _StaleBlob(Exception):
    """A blob of another envelope version: a miss, not corruption."""


def encode_key(key: Any) -> Any:
    """A key tuple as a JSON-ready structure (tuples become lists).

    Store keys are the service's cache keys: arbitrarily nested tuples
    of strings, ints, floats, bools and ``None`` — exactly the shapes
    JSON can carry losslessly once tuples are spelled as lists.
    Anything else raises :class:`StoreKeyError`: a key that cannot be
    encoded canonically cannot be content-addressed.
    """
    if isinstance(key, tuple):
        return [encode_key(item) for item in key]
    if key is None or isinstance(key, (str, bool, int, float)):
        return key
    raise StoreKeyError(
        f"store keys are nested tuples of JSON scalars; got "
        f"{type(key).__name__}: {key!r}"
    )


def decode_key(obj: Any) -> Any:
    """Inverse of :func:`encode_key` (lists become tuples again)."""
    if isinstance(obj, list):
        return tuple(decode_key(item) for item in obj)
    return obj


def key_digest(key: Any) -> str:
    """SHA-256 hex digest of a key's canonical JSON encoding.

    The digest is the blob's file name, so it must be stable across
    processes and Python versions: ``sort_keys`` is irrelevant (no
    dicts survive :func:`encode_key`) and separators are pinned.

    >>> key_digest(("rca8", ("opts", 3, None)))[:16]
    '77c526418c01a313'
    """
    text = json.dumps(encode_key(key), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class ArtifactStore:
    """A content-addressed, size-budgeted, on-disk artifact store.

    Parameters
    ----------
    root:
        Directory of the store (created if missing).  Multiple
        :class:`ArtifactStore` instances — in this process or others —
        may share one root: publication is atomic and loads are
        integrity-checked, so concurrent readers and writers only ever
        cost each other recompiles, never corruption.
    max_entries, max_bytes:
        Eviction budgets (``None`` = unbounded).  ``max_bytes`` counts
        the blobs' on-disk envelope sizes.  A single blob larger than
        ``max_bytes`` is refused outright (counted under ``oversize``)
        rather than evicting the whole store to fit it.

    Layout under ``root``::

        objects/<d[:2]>/<d>.art    the blobs, d = key_digest(key)
        quarantine/<name>          corrupt blobs moved aside on load

    Every blob is ``REPROART <version>`` + a JSON meta line (the
    encoded key, the payload's SHA-256 and size) + the payload, a
    :mod:`repro.pnr.artifact` blob whose header carries the entry's
    ports and flags.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._objects = self.root / "objects"
        self._quarantine = self.root / "quarantine"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._quarantine.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # Strictly increasing recency stamps (written as mtimes): two
        # puts/hits inside one clock tick must still order.
        self._last_stamp = 0
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0
        self.quarantined = 0
        self.oversize = 0
        self.dir_syncs = 0

    # -- paths ----------------------------------------------------------
    def path_of(self, key: Any) -> Path:
        """The blob path a key publishes to (whether or not it exists)."""
        digest = key_digest(key)
        return self._objects / digest[:2] / (digest + _SUFFIX)

    def _fsync_dir(self, directory: Path) -> None:
        """Flush a rename to the directory's metadata, best-effort.

        ``os.replace`` makes publication atomic against *readers*; the
        directory fsync makes it durable against *power loss* — without
        it a crash after the rename can still lose the entry.  Counted
        (``dir_syncs``); filesystems that refuse directory fds degrade
        silently to the old (rename-only) behaviour.
        """
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
            self.dir_syncs += 1
        except OSError:
            pass
        finally:
            os.close(fd)

    def _touch(self, path: Path) -> None:
        """Stamp ``path`` as most-recently-used (monotonic mtime)."""
        stamp = max(time.time_ns(), self._last_stamp + 1)
        self._last_stamp = stamp
        os.utime(path, ns=(stamp, stamp))

    def _scan(self) -> list[tuple[int, int, Path]]:
        """All published blobs as ``(mtime_ns, size, path)``, LRU first.

        Ties on mtime (possible across processes) break on the file
        name, so eviction order is deterministic everywhere.
        """
        entries = []
        for sub in self._objects.iterdir():
            if not sub.is_dir():
                continue
            for path in sub.iterdir():
                if path.suffix != _SUFFIX:
                    continue
                try:
                    st = path.stat()
                except OSError:
                    continue  # raced with a sibling's eviction
                entries.append((st.st_mtime_ns, st.st_size, path))
        entries.sort(key=lambda e: (e[0], e[2].name))
        return entries

    # -- the envelope ---------------------------------------------------
    @staticmethod
    def _encode_blob(key: Any, entry: CacheEntry) -> bytes:
        encoded_key = encode_key(key)
        if not isinstance(entry, CacheEntry):
            raise TypeError(
                f"the store holds CacheEntry values, got {type(entry).__name__}"
            )
        payload = encode_result(entry.result, meta={
            "input_ports": entry.input_ports,
            "output_ports": entry.output_ports,
            "incremental": entry.incremental,
            "repaired": entry.repaired,
            "degraded": entry.degraded,
        })
        meta = {
            "key": encoded_key,
            "sha256": hashlib.sha256(payload).hexdigest(),
            "size": len(payload),
        }
        meta_line = json.dumps(meta, separators=(",", ":")).encode()
        return _MAGIC + b"\n" + meta_line + b"\n" + payload

    @staticmethod
    def _decode_blob(blob: bytes) -> CacheEntry:
        """The entry of a verified envelope; raises on any defect.

        Raises :class:`_StaleBlob` for another envelope version, and
        anything else for a corrupt blob.  Only the result's header is
        decoded here; the SHA-256 check covers the whole payload, so a
        lazily decoded section cannot turn out corrupt later.
        """
        magic, _, rest = blob.partition(b"\n")
        if magic != _MAGIC:
            if magic.startswith(_MAGIC_TOKEN) and magic[len(_MAGIC_TOKEN):].isdigit():
                raise _StaleBlob(magic.decode())
            raise ValueError(f"bad magic line {magic[:32]!r}")
        meta_line, sep, payload = rest.partition(b"\n")
        if not sep:
            raise ValueError("truncated before payload")
        meta = json.loads(meta_line)
        if len(payload) != meta["size"]:
            raise ValueError(
                f"payload is {len(payload)} bytes, meta says {meta['size']}"
            )
        digest = hashlib.sha256(payload).hexdigest()
        if digest != meta["sha256"]:
            raise ValueError("payload digest mismatch")
        result, flags = decode_result(payload)
        return CacheEntry(
            result=result,
            input_ports=tuple(flags["input_ports"]),
            output_ports=tuple(flags["output_ports"]),
            incremental=bool(flags["incremental"]),
            repaired=bool(flags["repaired"]),
            degraded=bool(flags["degraded"]),
        )

    def _load(self, path: Path, blob: bytes) -> CacheEntry | None:
        """Decode a read blob; quarantine corruption; ``None`` = miss."""
        try:
            return self._decode_blob(blob)
        except _StaleBlob:
            return None
        except Exception as e:  # noqa: BLE001 - any defect is a miss
            self._quarantine_blob(path, e)
            return None

    def _read_key(self, path: Path) -> Any:
        """The key recorded in a blob's meta line (no payload verify)."""
        with path.open("rb") as fh:
            magic = fh.readline().rstrip(b"\n")
            if magic != _MAGIC:
                raise ValueError(f"bad magic line {magic[:32]!r}")
            return decode_key(json.loads(fh.readline())["key"])

    def _quarantine_blob(self, path: Path, reason: Exception) -> None:
        """Move a corrupt blob aside; never raises (a miss must stay a miss)."""
        target = self._quarantine / f"{path.stem}.{self.quarantined}{_SUFFIX}"
        try:
            os.replace(path, target)
        except OSError:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        self.quarantined += 1
        self.last_quarantine_reason = str(reason)

    # -- the mapping ----------------------------------------------------
    def get(self, key: Any, default: Any = None) -> Any:
        """Load and verify a blob; bump recency; count a hit or a miss.

        A missing file is a miss, and so is a blob of another envelope
        version.  A file that fails *any* integrity check — magic,
        meta, size, payload digest, the result header — is quarantined
        and reported as a miss: corruption degrades to a recompile,
        never to an exception or a wrong artifact.  Nothing read from
        disk is executed: the payload is JSON, zlib and digits.

        The ``store.load`` fault point sits between the read and the
        verification, so an injected corruption exercises the real
        quarantine path and an injected IO error propagates as
        ``OSError`` — which the service's retry policy classifies
        transient and retries.
        """
        digest = key_digest(key)
        path = self._objects / digest[:2] / (digest + _SUFFIX)
        with self._lock:
            try:
                blob = path.read_bytes()
            except OSError:
                self.misses += 1
                return default
            blob = fault_point("store.load", token=digest, data=blob)
            entry = self._load(path, blob)
            if entry is None:
                self.misses += 1
                return default
            self._touch(path)
            self.hits += 1
            return entry

    def peek(self, key: Any, default: Any = None) -> Any:
        """Load without touching recency or hit/miss counters."""
        path = self.path_of(key)
        with self._lock:
            try:
                blob = path.read_bytes()
            except OSError:
                return default
            entry = self._load(path, blob)
            return default if entry is None else entry

    def __contains__(self, key: Any) -> bool:
        return self.path_of(key).exists()

    def __len__(self) -> int:
        with self._lock:
            return len(self._scan())

    def put(self, key: Any, value: CacheEntry) -> list[Any]:
        """Publish a blob atomically; evict past the budget.

        The entry is encoded (:func:`repro.pnr.artifact.encode_result`)
        into a self-verifying envelope, staged to
        a temporary file and ``os.replace``\\ d into place — a reader in
        any process sees the old blob, the new blob, or none; never a
        torn write.  Returns the keys evicted to restore the budget
        (oldest first), mirroring :meth:`ResultCache.put`; re-putting
        an existing key refreshes its bytes and recency and evicts
        nothing new.  An entry alone exceeding ``max_bytes`` is refused
        (``oversize`` counter) — one huge artifact must not wipe the
        store.

        Fault points (see ``docs/resilience.md``) bracket the critical
        sequence: ``store.publish`` before staging (a corruption fault
        here publishes bad bytes — which :meth:`get`'s verification
        then quarantines into a miss), ``store.publish.stage`` between
        staging and the rename (an interruption leaves only a cleaned
        temp file: old state wins), and ``store.publish.commit`` after
        the rename (an interruption leaves the complete new blob).
        Every interruption therefore leaves the store in the old state
        or the complete new one — never a torn write; the fault sweep
        in ``tests/test_resilience.py`` pins all three.
        """
        blob = self._encode_blob(key, value)
        digest = key_digest(key)
        with self._lock:
            blob = fault_point("store.publish", token=digest, data=blob)
            if self.max_entries == 0 or (
                self.max_bytes is not None and len(blob) > self.max_bytes
            ):
                self.oversize += 1
                return []
            path = self._objects / digest[:2] / (digest + _SUFFIX)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=self._objects, prefix="stage-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                    fh.flush()
                    os.fsync(fh.fileno())
                fault_point("store.publish.stage", token=digest)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            fault_point("store.publish.commit", token=digest)
            self._fsync_dir(path.parent)
            self._touch(path)
            self.insertions += 1
            return self._evict_over_budget(keep=path)

    def _evict_over_budget(self, keep: Path) -> list[Any]:
        """Unlink LRU blobs until the budget holds; return their keys.

        ``keep`` (the blob just published) is evicted last by
        construction — it carries the newest recency stamp — so the
        loop naturally never removes it while any older blob remains.
        """
        evicted: list[Any] = []
        if self.max_entries is None and self.max_bytes is None:
            return evicted  # unbounded: no need to list the store
        entries = self._scan()
        total = sum(size for _, size, _ in entries)
        while entries and (
            (self.max_entries is not None and len(entries) > self.max_entries)
            or (self.max_bytes is not None and total > self.max_bytes)
        ):
            _, size, path = entries.pop(0)
            fault_point("store.evict", token=path.name)
            try:
                evicted.append(self._read_key(path))
            except Exception:  # noqa: BLE001 - evict unreadable blobs too
                evicted.append(None)
            try:
                path.unlink()
            except OSError:
                pass  # a sibling got there first; budget is restored anyway
            total -= size
            self.evictions += 1
        return evicted

    def keys(self) -> list[Any]:
        """Published keys in recency order, least- to most-recent."""
        with self._lock:
            out = []
            for _, _, path in self._scan():
                try:
                    out.append(self._read_key(path))
                except Exception:  # noqa: BLE001 - skip corrupt headers
                    continue
            return out

    def clear(self) -> None:
        """Unlink every published blob (counters keep accumulating)."""
        with self._lock:
            for _, _, path in self._scan():
                try:
                    path.unlink()
                except OSError:
                    pass

    def size_bytes(self) -> int:
        """Total on-disk bytes of the published blobs."""
        with self._lock:
            return sum(size for _, size, _ in self._scan())

    def stats(self) -> dict[str, Any]:
        """A counters snapshot; ``lookups == hits + misses`` always."""
        with self._lock:
            entries = self._scan()
            return {
                "root": str(self.root),
                "entries": len(entries),
                "bytes": sum(size for _, size, _ in entries),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "lookups": self.hits + self.misses,
                "insertions": self.insertions,
                "evictions": self.evictions,
                "quarantined": self.quarantined,
                "oversize": self.oversize,
                "dir_syncs": self.dir_syncs,
            }
