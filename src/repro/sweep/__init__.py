"""repro.sweep — sharded experiment sweeps with caching and quarantine.

The repository's one execution path for experiment grids: every solo
profile set, sensitivity sweep, predictor, placement study and figure is
a list of independent, content-addressed *shards* plus a merge, resolved
by :func:`run_grid` on a :class:`SweepRunner` — inline (``jobs=1``, the
default) or on a ``ProcessPoolExecutor`` — and merged
deterministically: the output is bit-identical for any job count, shard
completion order, or cache state.

Layers:

* :mod:`~repro.sweep.shard` — shard identity: canonical JSON, content
  keys, :class:`Shard` / :class:`ShardResult`.
* :mod:`~repro.sweep.cache` — content-addressed result cache (on-disk
  or in-memory), hash-validated against truncation/corruption.
* :mod:`~repro.sweep.tasks` — the executable task registry (what a
  shard *does*); pure functions of the shard params.
* :mod:`~repro.sweep.orchestrator` — :class:`SweepRunner`: dedup,
  cache consult, inline or pool execution, quarantine of pooled shards
  that raise or lose their worker, obs integration; and
  :func:`run_grid`.
* :mod:`~repro.sweep.parallel` — the shard-block builders grids are
  assembled from (profiles, curves, predictor, co-runs).

A figure's grid lives in its own experiment module (``grid(config)``);
its ``run(config, runner=None)`` resolves that grid through
:func:`run_grid`.
"""

from .cache import MemoryCache, ResultCache, default_cache_dir
from .codeversion import code_version
from .orchestrator import (SweepError, SweepOptions, SweepOutcome,
                           SweepRunner, run_grid)
from .shard import Shard, ShardResult, canonical_json, shard_key
from .tasks import run_task

__all__ = [
    "MemoryCache",
    "ResultCache",
    "Shard",
    "ShardResult",
    "SweepError",
    "SweepOptions",
    "SweepOutcome",
    "SweepRunner",
    "canonical_json",
    "code_version",
    "default_cache_dir",
    "run_grid",
    "run_task",
    "shard_key",
]
