"""Content-addressed result cache for experiment runs.

A sweep over N seeds repeats the same (attack, params, seed, fault
spec) cells every time the bench reruns; this cache makes the second
run nearly free.  Each completed cell's journaled result payload is
stored under a **canonical key**: the SHA-256 of a sorted-key JSON
encoding of the attack name, the full parameter dict (which carries the
seed and any fault spec) and the **code version** — a digest over every
``repro`` source file, so editing any module invalidates the whole
cache rather than silently serving stale numbers.

Entries live one-per-file under ``root/<k[:2]>/<k>.json`` (a two-level
fanout keeps directories small), written atomically via a same-dir
temp file + :func:`os.replace` so concurrent sweep workers can never
observe a torn entry.  A corrupt entry is treated as a miss and
counted, never raised — and the offending file is moved aside into a
``.corrupt/`` sidecar directory (:data:`QUARANTINE_DIR`) so the slot
can be rewritten cleanly instead of reading as corrupt forever;
``repro report --cache-dir`` surfaces the quarantine count.

The cache stores only the JSON-safe payload that the sweep checkpoint
journals (:func:`repro.runner.checkpoint.result_payload`) — the lossy
flattening is deliberate and shared, so a cache hit is byte-identical
to a cold run in every aggregate.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.errors import ConfigurationError
from repro.obs import metrics as obs_metrics

#: Environment variable naming the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Sidecar directory (under the cache root) holding quarantined entries.
QUARANTINE_DIR = ".corrupt"

_CODE_VERSION: Optional[str] = None


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``.repro-cache`` under the working dir."""
    return os.environ.get(CACHE_DIR_ENV) or os.path.join(os.getcwd(), ".repro-cache")


def _digest_tree(package_root: str) -> str:
    """SHA-256 over every ``.py`` under ``package_root`` (path + bytes)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, package_root).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def code_version(package_root: Optional[str] = None) -> str:
    """Digest of every ``repro`` source file (memoised per process).

    Hashing content rather than asking git means an uncommitted edit
    still invalidates the cache, and the digest is stable across
    machines that check out the same tree.  The walk starts at the
    package root (the directory containing ``repro/__init__.py``'s
    package), so *every* subpackage — including ones added after a
    cache was populated, like ``repro.kernels`` — participates; a new
    or edited kernel file can never be silently missed by a stale
    digest.  ``package_root`` overrides the walk root for tests; only
    the default root is memoised.
    """
    global _CODE_VERSION
    if package_root is not None:
        return _digest_tree(package_root)
    if _CODE_VERSION is None:
        default_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        _CODE_VERSION = _digest_tree(default_root)
    return _CODE_VERSION


def cache_key(
    attack_name: str, params: Dict[str, object], version: Optional[str] = None
) -> str:
    """Canonical content address of one run cell.

    ``params`` carries the seed, any fault spec/fault seed, and — for
    scenario runs — the resolved ``workload``/``workload_params``
    binding, so all of them participate in the key without special
    cases; two scenarios over different workloads can never collide.
    """
    from repro.obs.ledger import jsonable

    payload = json.dumps(
        {
            "attack": attack_name,
            "params": jsonable(params),
            "code": version if version is not None else code_version(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


class ResultCache:
    """Filesystem-backed content-addressed store of result payloads."""

    def __init__(self, root: str):
        if not root:
            raise ConfigurationError("cache root must be a non-empty path")
        self.root = root
        self.stats = CacheStats()
        os.makedirs(root, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry into the ``.corrupt/`` sidecar.

        The move is an :func:`os.replace` (atomic on one filesystem),
        so a concurrent reader sees either the corrupt entry or a clean
        miss, never a half-moved file.  Quarantining instead of
        deleting keeps the bad bytes around for post-mortems while
        freeing the slot for a fresh store.
        """
        self.stats.corrupt += 1
        self.stats.misses += 1
        obs_metrics.inc("cache.corrupt")
        obs_metrics.inc("cache.misses")
        quarantine = os.path.join(self.root, QUARANTINE_DIR)
        try:
            os.makedirs(quarantine, exist_ok=True)
            os.replace(self._path(key), os.path.join(quarantine, key + ".json"))
        except OSError:
            # Another process may have quarantined (or rewritten) the
            # entry first; either way the slot is no longer poisoned.
            return

    def get(self, key: str) -> Optional[dict]:
        """The stored result payload, or None (corruption counts as a
        miss and quarantines the entry)."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            obs_metrics.inc("cache.misses")
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._quarantine(key)
            return None
        result = entry.get("result") if isinstance(entry, dict) else None
        if not isinstance(result, dict):
            self._quarantine(key)
            return None
        self.stats.hits += 1
        obs_metrics.inc("cache.hits")
        return result

    def put(self, key: str, attack_name: str, result: dict) -> None:
        """Store one payload atomically (tempfile + rename, same dir)."""
        path = self._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        entry = {"attack": attack_name, "result": result, "code": code_version()}
        fd, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        obs_metrics.inc("cache.stores")

    # -- maintenance / reporting -------------------------------------------

    def scan(self) -> Dict[str, object]:
        """Walk the store: entry count, bytes, per-attack breakdown,
        quarantined-entry count."""
        entries = 0
        total_bytes = 0
        by_attack: Dict[str, int] = {}
        for dirpath, dirnames, filenames in os.walk(self.root):
            if QUARANTINE_DIR in dirnames:
                dirnames.remove(QUARANTINE_DIR)
            for filename in filenames:
                if not filename.endswith(".json") or filename.startswith(".tmp-"):
                    continue
                path = os.path.join(dirpath, filename)
                try:
                    size = os.path.getsize(path)
                    with open(path, "r", encoding="utf-8") as handle:
                        entry = json.load(handle)
                except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                    continue
                entries += 1
                total_bytes += size
                name = str(entry.get("attack", "?")) if isinstance(entry, dict) else "?"
                by_attack[name] = by_attack.get(name, 0) + 1
        quarantined = 0
        try:
            quarantined = sum(
                1
                for name in os.listdir(os.path.join(self.root, QUARANTINE_DIR))
                if name.endswith(".json")
            )
        except OSError:
            pass
        return {
            "entries": entries,
            "bytes": total_bytes,
            "by_attack": by_attack,
            "quarantined": quarantined,
        }

