"""Environment fingerprint stamped on every benchmark result.

Records from a one-CPU box and a multi-core box, or from two different
source trees, must never be compared as if they were the same machine
and code.  The benchmark often runs from an exported tree without git
metadata, so the source tree is also identified by a digest of its files.
"""

from __future__ import annotations

import hashlib
import os
import platform
from importlib import metadata
from typing import Dict, Optional

FIELDS = (
    "nproc",
    "cpu_model",
    "python",
    "numpy",
    "git_sha",
    "src_digest",
    "scheduler",
    "backend",
    "shards",
)


def cpu_model(path: str = "/proc/cpuinfo") -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() in ("model name", "Model", "cpu model"):
                    return value.strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def git_sha(root: str) -> Optional[str]:
    """HEAD of the checkout at ``root``, read from ``.git``; None without one."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        return None
    return None


def src_digest(src: str) -> str:
    """sha256 over the relative paths and bytes of every ``.py`` under ``src``."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, src).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def fingerprint(root: str, shards: int) -> Dict[str, object]:
    """The fingerprint of this machine, interpreter and source tree.

    Resolves the program's scheduler and kernel backend the way a user's
    run would (defaults; the benchmark clears every ``REPRO_*`` knob).
    """
    from repro.kernels import resolve_backend_name
    from repro.netsim.events import resolve_scheduler_name

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(root),
        "src_digest": src_digest(os.path.join(root, "src")),
        "scheduler": resolve_scheduler_name(None),
        "backend": resolve_backend_name(None),
        "shards": shards,
    }
