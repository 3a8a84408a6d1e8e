"""Corpus I/O: persisting shrunk fuzzing failures as replayable BLIFs.

Every find is one self-contained ``.blif`` file under ``tests/corpus/``:
the minimized netlist plus a ``# repro-fuzz meta:`` comment line carrying
the exact flow options, mapping mode, generator spec and failure facts as
JSON.  BLIF comments are stripped by the parser, so an entry is both a
plain netlist (any tool can read it) and a replay recipe (the corpus
regression test re-runs each entry with its recorded options forever
after the bug is fixed).

File names are content-addressed (``<kind>_<digest>.blif``), so re-finding
a known failure never duplicates an entry.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.bds.flow import BDSOptions
from repro.network.blif import parse_blif
from repro.network.network import Network

#: Comment prefix carrying the JSON replay metadata inside an entry.
META_PREFIX = "# repro-fuzz meta:"


@dataclass
class CorpusEntry:
    """One replayable corpus find."""

    path: str
    network: Network
    options: BDSOptions
    map_mode: Optional[str] = None
    kind: str = "mismatch"            # "mismatch" | "crash"
    stage: str = "flow"               # "flow" | "map"
    detail: str = ""
    seed: Optional[int] = None        # the fuzz run's master seed
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return os.path.basename(self.path)


def entry_text(blif_text: str, meta: Dict[str, Any]) -> str:
    """Compose the on-disk form: banner + meta comment + netlist."""
    header = [
        "# repro-fuzz corpus entry (minimized differential-fuzzing failure)",
        "# replay: every entry is re-run by tests/test_corpus_replay.py",
        META_PREFIX + " " + json.dumps(meta, sort_keys=True),
    ]
    return "\n".join(header) + "\n" + blif_text


def entry_filename(blif_text: str, meta: Dict[str, Any]) -> str:
    digest = hashlib.sha1(
        (blif_text + json.dumps(meta, sort_keys=True)).encode()).hexdigest()
    return "%s_%s.blif" % (meta.get("kind", "find"), digest[:12])


def save_entry(corpus_dir: str, blif_text: str,
               meta: Dict[str, Any]) -> str:
    """Write one entry (idempotent -- content-addressed name); return path."""
    os.makedirs(corpus_dir, exist_ok=True)
    path = os.path.join(corpus_dir, entry_filename(blif_text, meta))
    if not os.path.exists(path):
        # Atomic publish: a reader (or a concurrent fuzzer sharing the
        # corpus) must never observe a half-written entry.
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "w") as fh:
            fh.write(entry_text(blif_text, meta))
        os.replace(tmp, path)
    return path


def load_entry(path: str) -> CorpusEntry:
    """Parse one corpus file back into a replayable entry."""
    with open(path) as fh:
        text = fh.read()
    meta: Dict[str, Any] = {}
    for line in text.splitlines():
        if line.startswith(META_PREFIX):
            meta = json.loads(line[len(META_PREFIX):])
            break
        if line and not line.startswith("#"):
            break
    network = parse_blif(text)
    return CorpusEntry(
        path=path,
        network=network,
        options=BDSOptions.from_dict(meta.get("options") or {}),
        map_mode=meta.get("map_mode"),
        kind=meta.get("kind", "mismatch"),
        stage=meta.get("stage", "flow"),
        detail=meta.get("detail", ""),
        seed=meta.get("seed"),
        meta=meta,
    )


def load_entries(corpus_dir: str) -> List[CorpusEntry]:
    """All entries of a corpus directory (missing/empty dir -> [])."""
    if not os.path.isdir(corpus_dir):
        return []
    out: List[CorpusEntry] = []
    for name in sorted(os.listdir(corpus_dir)):
        if name.endswith(".blif"):
            out.append(load_entry(os.path.join(corpus_dir, name)))
    return out
