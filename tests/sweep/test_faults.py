"""Fault-injection tests: the orchestrator survives misbehaving shards.

Every scenario uses the ``fault`` task, which misbehaves (raise / hang /
SIGKILL) for a configurable number of attempts coordinated through
on-disk marker files — the only mechanism that survives a SIGKILL'd
worker process. Assertions cover the merged results (correct payloads in
input order despite the chaos) and the execution stats (retry / kill /
quarantine counters).
"""

from __future__ import annotations

import pytest

from repro.sweep import (MemoryCache, ResultCache, Shard, SweepError,
                        SweepOptions, SweepRunner)


def fault_shard(token, mode="ok", fail_times=0, state_dir=None, value=None,
                **extra):
    params = {"mode": mode, "fail_times": fail_times, "token": token,
              "value": value}
    if state_dir is not None:
        params["state_dir"] = str(state_dir)
    params.update(extra)
    return Shard("fault", params, tag=f"fault:{token}")


def run(shards, **options):
    return SweepRunner(SweepOptions(**options)).run(shards)


# -- raising workers ----------------------------------------------------------

def test_raising_shard_is_retried_to_success(tmp_path):
    shards = [
        fault_shard("good", value=1),
        fault_shard("flaky", mode="raise", fail_times=1,
                    state_dir=tmp_path, value=2),
    ]
    outcome = run(shards, jobs=2, retries=2, backoff=0.01)
    outcome.raise_for_quarantine()
    assert [r.payload["value"] for r in outcome.results] == [1, 2]
    flaky = outcome.results[1]
    assert flaky.attempts == 2
    assert outcome.stats["retries"] == 1
    assert outcome.stats["quarantined"] == 0
    # A raising worker reports and keeps serving; nobody is killed.
    assert outcome.stats["workers_killed"] == 0


def test_poison_shard_is_quarantined_not_the_sweep(tmp_path):
    shards = [
        fault_shard("poison", mode="raise", fail_times=99,
                    state_dir=tmp_path),
        fault_shard("good", value=7),
    ]
    outcome = run(shards, jobs=2, retries=1, backoff=0.01)
    poison, good = outcome.results
    assert poison.status == "quarantined"
    assert poison.payload is None
    assert "injected failure" in poison.error
    assert poison.attempts == 2  # first try + 1 retry
    assert good.ok and good.payload["value"] == 7
    assert outcome.stats["quarantined"] == 1
    with pytest.raises(SweepError, match="quarantined"):
        outcome.raise_for_quarantine()


def test_inline_shard_raises_original_exception(tmp_path):
    """``jobs=1`` runs shards in-process with no retry: a deterministic
    shard that raised once would raise again, so the error propagates."""
    shards = [
        fault_shard("good", value=3),
        fault_shard("poison", mode="raise", fail_times=99,
                    state_dir=tmp_path),
    ]
    with pytest.raises(RuntimeError, match="injected failure of 'poison'"):
        run(shards, jobs=1, retries=2, backoff=0.0)
    # Attempted exactly once.
    assert (tmp_path / "poison.attempts").read_text() == "x"


# -- hanging workers ----------------------------------------------------------

def test_hung_shard_is_killed_and_retried(tmp_path):
    shards = [
        fault_shard("hang", mode="hang", fail_times=1,
                    state_dir=tmp_path, value=5),
    ]
    outcome = run(shards, jobs=2, retries=2, backoff=0.01,
                  shard_timeout=1.5)
    outcome.raise_for_quarantine()
    res = outcome.results[0]
    assert res.payload == {"token": "hang", "value": 5, "attempts_seen": 1}
    assert res.attempts == 2
    assert outcome.stats["workers_killed"] >= 1
    assert outcome.stats["retries"] == 1


def test_always_hanging_shard_is_quarantined(tmp_path):
    shards = [fault_shard("wedge", mode="hang", fail_times=99,
                          state_dir=tmp_path)]
    outcome = run(shards, jobs=2, retries=1, backoff=0.01,
                  shard_timeout=0.8)
    res = outcome.results[0]
    assert res.status == "quarantined"
    assert "timed out" in res.error
    assert outcome.stats["workers_killed"] >= 2


# -- dying workers ------------------------------------------------------------

def test_sigkilled_worker_is_replaced_and_shard_retried(tmp_path):
    shards = [
        fault_shard("victim", mode="sigkill", fail_times=1,
                    state_dir=tmp_path, value=9),
        fault_shard("good", value=4),
    ]
    outcome = run(shards, jobs=2, retries=2, backoff=0.01)
    outcome.raise_for_quarantine()
    victim, good = outcome.results
    assert victim.payload["value"] == 9
    assert victim.attempts == 2
    assert good.payload["value"] == 4
    assert outcome.stats["retries"] == 1


def test_repeatedly_dying_shard_is_quarantined(tmp_path):
    shards = [fault_shard("crasher", mode="sigkill", fail_times=99,
                          state_dir=tmp_path)]
    outcome = run(shards, jobs=2, retries=1, backoff=0.01)
    res = outcome.results[0]
    assert res.status == "quarantined"
    assert "died" in res.error
    with pytest.raises(SweepError):
        outcome.raise_for_quarantine()


# -- dedupe and cache interaction ---------------------------------------------

def test_duplicate_shards_execute_once():
    shards = [fault_shard("dup", value=1), fault_shard("dup", value=1),
              fault_shard("dup", value=1)]
    outcome = run(shards, jobs=2)
    assert outcome.stats["shards"] == 3
    assert outcome.stats["unique"] == 1
    assert outcome.stats["executed"] == 1
    assert [r.payload["value"] for r in outcome.results] == [1, 1, 1]


def test_cache_hit_skips_execution(tmp_path):
    cache = ResultCache(str(tmp_path))
    shards = [fault_shard("cached", value=6)]
    first = run(shards, jobs=1, cache=cache)
    assert first.stats["executed"] == 1
    second = run(shards, jobs=1, cache=cache)
    assert second.stats["executed"] == 0
    assert second.stats["cache_hits"] == 1
    assert second.results[0].from_cache
    assert second.results[0].payload == first.results[0].payload


def test_truncated_cache_entry_is_recomputed(tmp_path):
    cache = ResultCache(str(tmp_path))
    shards = [fault_shard("mangle", value=8)]
    first = run(shards, jobs=1, cache=cache)
    key = first.results[0].key
    path = cache.path(key)
    with open(path, "r+") as fh:
        fh.truncate(10)
    second = run(shards, jobs=1, cache=ResultCache(str(tmp_path)))
    assert second.stats["cache_corrupt_detected"] == 1
    assert second.stats["executed"] == 1
    assert not second.results[0].from_cache
    assert second.results[0].payload == first.results[0].payload
    # The recompute healed the cache entry.
    third = run(shards, jobs=1, cache=ResultCache(str(tmp_path)))
    assert third.stats["cache_hits"] == 1


def test_memory_cache_shares_shards_across_sweeps():
    runner = SweepRunner(SweepOptions(jobs=1, cache=MemoryCache()))
    shards = [fault_shard("shared", value=2)]
    runner.run(shards)
    outcome = runner.run(shards)
    assert outcome.stats["cache_hits"] == 1
    assert runner.execution_stats()["sweeps"] == 2
    assert runner.execution_stats()["cache_hits"] == 1


def test_quarantined_result_is_not_cached(tmp_path):
    cache = ResultCache(str(tmp_path))
    shards = [fault_shard("bad", mode="raise", fail_times=99,
                          state_dir=tmp_path / "state")]
    outcome = run(shards, jobs=2, retries=0, backoff=0.0, cache=cache)
    assert outcome.stats["quarantined"] == 1
    assert len(cache) == 0
