"""Content-addressed artifact cache for optimization results.

An *artifact* is everything ``bds_optimize`` produced for one (input
network, options) pair: the optimized network (as canonical BLIF -- the
storage format round-trips through ``parse_blif``/``write_blif``), the
aggregated kernel perf counters and the verify verdict.  Artifacts are
keyed by

    sha256(canonical BLIF of the input)  x  BDSOptions.cache_key()

so a hit is exact: same function, same semantic options, same (possibly
verified) result.  Design points:

* **Atomic writes** -- payloads land in a temp file in the same directory
  and are ``os.replace``d into place; readers never observe a torn write.
* **Corruption detection** -- every object embeds a sha256 of its payload;
  a truncated, bit-flipped, or unparsable object is treated as a *miss*
  (and deleted), never an exception.
* **Size-bounded LRU index** -- ``index.json`` tracks last-use ticks; once
  ``max_entries`` is exceeded the least recently used objects are evicted.
  A missing or corrupt index is rebuilt from the object files.
* **Multi-process safe** -- index mutation is a read-modify-write, so two
  processes sharing a cache dir (``repro batch --cache-dir X`` twice)
  would silently drop each other's stores and LRU bumps; every mutation
  therefore runs under an ``fcntl`` advisory lock (``index.lock``) and
  re-reads the on-disk index before applying itself.
* **Counters** -- hits / misses / stores / evictions / corruption events
  are exposed as a ``perf_snapshot()`` dict using ``artifact_cache_*``
  keys, mergeable by :func:`repro.perf.merge_snapshots` alongside the
  kernel counters (the computed-table ``cache_hits``/``cache_misses``).

See ``docs/SERVICE.md`` for the on-disk layout and failure modes.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: single-writer only
    fcntl = None  # type: ignore[assignment]

from repro.network.blif import parse_blif, write_blif
from repro.network.network import Network

#: Bump when the payload schema changes; old-version objects read as misses.
FORMAT_VERSION = 1


def canonical_blif(net_or_text: Any) -> str:
    """Canonical BLIF text for keying: parse (when given text) + rewrite.

    ``write_blif`` emits nodes in topological order with a normalized
    cover syntax, so textual variations of the same netlist (comments,
    line wrapping, node order) key identically.
    """
    if isinstance(net_or_text, Network):
        return write_blif(net_or_text)
    return write_blif(parse_blif(net_or_text))


def content_key(net_or_text: Any, options: Any) -> str:
    """``sha256(canonical BLIF)`` x ``options.cache_key()`` (hex digest)."""
    blif_sha = hashlib.sha256(
        canonical_blif(net_or_text).encode("utf-8")).hexdigest()
    return hashlib.sha256(
        ("%s:%s" % (blif_sha, options.cache_key())).encode("utf-8")).hexdigest()


@dataclass
class Artifact:
    """One cached optimization result."""

    network_blif: str
    perf: Dict[str, float] = field(default_factory=dict)
    verify_mode: str = "off"
    verify_unknown_outputs: List[str] = field(default_factory=list)

    def network(self) -> Network:
        return parse_blif(self.network_blif)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "version": FORMAT_VERSION,
            "network_blif": self.network_blif,
            "perf": self.perf,
            "verify_mode": self.verify_mode,
            "verify_unknown_outputs": list(self.verify_unknown_outputs),
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Artifact":
        """Read the keys above and ignore the rest, so objects written
        with extra keys (earlier revisions also stored decomposition
        stats, timings and counts) still hit."""
        if payload.get("version") != FORMAT_VERSION:
            raise ValueError("unsupported artifact version %r"
                             % payload.get("version"))
        return cls(
            network_blif=payload["network_blif"],
            perf=dict(payload.get("perf") or {}),
            verify_mode=str(payload.get("verify_mode", "off")),
            verify_unknown_outputs=list(
                payload.get("verify_unknown_outputs") or []),
        )


def _payload_text(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ArtifactCache:
    """Content-addressed on-disk store with an LRU-bounded index.

    Layout under ``root``::

        objects/<key[:2]>/<key>.json   {"sha256": ..., "payload": {...}}
        index.json                     {"tick": N, "entries": {key: ...}}

    All operations are non-raising on damaged state: corrupt objects and
    a corrupt index degrade to misses / a rebuild, never an exception.
    """

    def __init__(self, root: str, max_entries: int = 4096) -> None:
        self.root = os.path.abspath(root)
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        os.makedirs(os.path.join(self.root, "objects"), exist_ok=True)
        self._index = self._load_index()

    # -- keying --------------------------------------------------------

    def key_for(self, net_or_text: Any, options: Any) -> str:
        return content_key(net_or_text, options)

    # -- lookup / store ------------------------------------------------

    def lookup(self, key: str) -> Optional[Artifact]:
        """Return the artifact under ``key`` or None (counting the event).

        Any damage -- unreadable file, bad JSON, checksum mismatch,
        unknown version -- deletes the object and reads as a miss.
        """
        path = self._object_path(key)
        try:
            with open(path) as fh:
                wrapper = json.load(fh)
            payload = wrapper["payload"]
            if wrapper.get("sha256") != hashlib.sha256(
                    _payload_text(payload).encode("utf-8")).hexdigest():
                raise ValueError("checksum mismatch")
            artifact = Artifact.from_payload(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # Truncation, bit flips, schema drift: clean miss.
            self.corrupt += 1
            self.misses += 1
            self._remove_object(key)
            return None
        self.hits += 1
        self._touch(key)
        return artifact

    def store(self, key: str, artifact: Artifact) -> str:
        """Atomically write ``artifact`` under ``key``; returns the path."""
        payload = artifact.to_payload()
        text = _payload_text(payload)
        wrapper = {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                   "payload": payload}
        path = self._object_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                   prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(wrapper, fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

        def _finish(index: Dict[str, Any]) -> None:
            index["tick"] += 1
            index["entries"][key] = index["tick"]
            entries = index["entries"]
            while len(entries) > self.max_entries:
                oldest = min(entries, key=lambda k: entries[k])
                del entries[oldest]
                try:
                    os.unlink(self._object_path(oldest))
                except OSError:
                    pass
                self.evictions += 1

        self._mutate_index(_finish)
        return path

    # -- counters ------------------------------------------------------

    def perf_snapshot(self) -> Dict[str, float]:
        """Cumulative counters in :func:`repro.perf.merge_snapshots` shape."""
        return {
            "artifact_cache_hits": float(self.hits),
            "artifact_cache_misses": float(self.misses),
            "artifact_cache_stores": float(self.stores),
            "artifact_cache_evictions": float(self.evictions),
            "artifact_cache_corrupt": float(self.corrupt),
        }

    def __len__(self) -> int:
        return len(self._index["entries"])

    # -- internals -----------------------------------------------------

    def _object_path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], key + ".json")

    def _index_path(self) -> str:
        return os.path.join(self.root, "index.json")

    def _load_index(self) -> Dict[str, Any]:
        try:
            with open(self._index_path()) as fh:
                index = json.load(fh)
            entries = index["entries"]
            if not isinstance(entries, dict):
                raise ValueError("bad index")
            return {"tick": int(index.get("tick", 0)), "entries": entries}
        except FileNotFoundError:
            pass
        except (OSError, ValueError, KeyError, TypeError):
            self.corrupt += 1
        return self._rebuild_index()

    def _rebuild_index(self) -> Dict[str, Any]:
        """Recover the index by scanning ``objects/`` (order arbitrary)."""
        entries: Dict[str, int] = {}
        objects = os.path.join(self.root, "objects")
        for dirpath, _dirs, files in os.walk(objects):
            for name in files:
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    entries[name[:-len(".json")]] = len(entries)
        return {"tick": len(entries), "entries": entries}

    def _write_index(self) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".tmp-idx-")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(self._index, fh)
            os.replace(tmp, self._index_path())
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @contextmanager
    def _index_lock(self) -> Iterator[None]:
        """``fcntl`` advisory lock serializing index mutation across every
        process sharing this cache directory (no-op where unavailable)."""
        if fcntl is None:
            yield
            return
        fd = os.open(os.path.join(self.root, "index.lock"),
                     os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # closing the fd releases the lock

    def _mutate_index(self, mutate: Callable[[Dict[str, Any]], None]) -> None:
        """One locked read-modify-write of ``index.json``.

        Two unlocked writers interleave load -> mutate -> replace and the
        later replace silently discards the earlier writer's stores and
        LRU bumps; re-reading the on-disk index under the lock makes
        every mutation apply to the current truth instead of a stale
        in-memory copy.
        """
        with self._index_lock():
            self._index = self._load_index()
            mutate(self._index)
            self._write_index()

    def _touch(self, key: str) -> None:
        def _bump(index: Dict[str, Any]) -> None:
            index["tick"] += 1
            index["entries"][key] = index["tick"]

        self._mutate_index(_bump)

    def _remove_object(self, key: str) -> None:
        try:
            os.unlink(self._object_path(key))
        except OSError:
            pass
        # Unconditional: the key may live only in the on-disk index
        # (written by another process) and must not outlive its object.
        self._mutate_index(lambda index: index["entries"].pop(key, None))
