"""Worker count and ordered thread map shared by the batch entry points.

Parallel sections are deterministic by construction (ordered inputs,
per-task RNG substreams, ordered reduction), so the worker count only
affects wall time, never results.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

ENV_VAR = "RESPONDER_THREADS"


def worker_count(n_tasks: int) -> int:
    raw = os.environ.get(ENV_VAR, "").strip()
    if raw:
        try:
            limit = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
        # Capped too, so no setting can start thousands of threads.
        limit = min(max(1, limit), 4 * (os.cpu_count() or 1))
    else:
        limit = min(4, os.cpu_count() or 1)
    return max(1, min(limit, n_tasks))


def ordered_map(fn: Callable, items: Sequence) -> list:
    """fn applied to each item on worker_count(len(items)) threads, in item order."""
    workers = worker_count(len(items))
    if workers == 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
