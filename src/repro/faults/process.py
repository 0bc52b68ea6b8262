"""Process-plane fault injection: killing shard workers on demand.

The link/clock/telemetry injectors in this package break the *simulated*
planes; chaos drills for the sharded engines also need to break the
*host* plane — a worker process dying mid-run, exactly what a ``kill
-9`` or an OOM kill does in production.  The mechanism is a **crash
flag file**: the drill creates the file, the next shard worker that
checks it consumes it (an atomic :func:`os.unlink` — exactly one worker
wins the race) and dies via :func:`os._exit`, and every run after that
proceeds normally because the flag is gone.  One flag, one crash,
deterministic recovery.

Only shard worker processes call :func:`consume_crash_flag`:
consuming the flag in the coordinator would kill the run it is meant
to exercise.
"""

from __future__ import annotations

import os

#: Exit status a crashed worker reports, mirroring a SIGKILL'd process.
CRASH_EXIT_STATUS = 137


def consume_crash_flag(flag_path: str) -> bool:
    """Die via ``os._exit`` iff ``flag_path`` exists and we won its race.

    Returns ``False`` when there is nothing to do: no flag path, or the
    flag is absent (already consumed).  Returns never (the process
    exits) on a consumed flag; the ``True`` annotation below keeps the
    signature honest for tests that monkeypatch :func:`os._exit`.
    """
    if not flag_path:
        return False
    try:
        os.unlink(flag_path)
    except OSError:
        return False
    os._exit(CRASH_EXIT_STATUS)
    return True  # pragma: no cover - only reachable with a patched os._exit
