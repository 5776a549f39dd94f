"""Failure tests: what the orchestrator does with misbehaving shards.

Every scenario uses the ``fault`` task, which returns, raises, or
SIGKILLs the process running it. A shard is deterministic, so nothing is
retried: inline shards raise their original exception, and a pooled
shard that raises or loses its worker is quarantined while the sweep
still resolves every other shard.
"""

from __future__ import annotations

import pytest

from repro.sweep import (MemoryCache, ResultCache, Shard, SweepError,
                        SweepOptions, SweepRunner, orchestrator, run_grid)


def fault_shard(token, mode="ok", value=None):
    return Shard("fault", {"mode": mode, "token": token, "value": value},
                 tag=f"fault:{token}")


def run(shards, **options):
    return SweepRunner(SweepOptions(**options)).run(shards)


# -- raising shards -----------------------------------------------------------

def test_poison_shard_is_quarantined_not_the_sweep():
    shards = [fault_shard("poison", mode="raise"),
              fault_shard("good", value=7)]
    outcome = run(shards, jobs=2)
    poison, good = outcome.results
    assert poison.status == "quarantined"
    assert poison.payload is None
    assert "injected failure of 'poison'" in poison.error
    assert good.ok and good.payload["value"] == 7
    assert outcome.stats["executed"] == 2
    assert outcome.stats["quarantined"] == 1
    assert outcome.payloads() == {good.key: good.payload}
    with pytest.raises(SweepError, match="quarantined"):
        outcome.raise_for_quarantine()


def test_run_grid_names_the_quarantined_shard():
    runner = SweepRunner(SweepOptions(jobs=2))
    grid = ([fault_shard("good", value=1),
             fault_shard("poison", mode="raise")],
            lambda results: [r.payload for r in results])
    with pytest.raises(SweepError) as info:
        run_grid(grid, runner)
    message = str(info.value)
    assert "1 shard(s) quarantined" in message
    assert "fault:poison: RuntimeError: injected failure of 'poison'" \
        in message


def test_inline_shard_raises_original_exception(monkeypatch):
    """``jobs=1`` runs shards in-process with no retry: a deterministic
    shard that raised once would raise again, so the error propagates."""
    calls = []
    real = orchestrator.run_task

    def counting(kind, params):
        calls.append(params["token"])
        return real(kind, params)

    monkeypatch.setattr(orchestrator, "run_task", counting)
    shards = [fault_shard("good", value=3),
              fault_shard("poison", mode="raise")]
    with pytest.raises(RuntimeError, match="injected failure of 'poison'"):
        run(shards, jobs=1)
    # Each shard ran exactly once, through the module-global run_task.
    assert calls == ["good", "poison"]


# -- dying workers ------------------------------------------------------------

def test_sigkilled_worker_fails_the_sweep_without_hanging():
    shards = [fault_shard("victim", mode="sigkill")]
    outcome = run(shards, jobs=2)
    victim, = outcome.results
    assert victim.status == "quarantined"
    assert "BrokenProcessPool" in victim.error
    assert outcome.stats["quarantined"] == 1
    with pytest.raises(SweepError, match="fault:victim"):
        run_grid((shards, list), SweepRunner(SweepOptions(jobs=2)))


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
    shards = [fault_shard("bad", mode="raise"), fault_shard("fine", value=5)]
    outcome = run(shards, jobs=2, cache=cache)
    assert outcome.stats["quarantined"] == 1
    assert len(cache) == 1
    assert cache.get(outcome.results[1].key) == outcome.results[1].payload
    assert cache.get(outcome.results[0].key) is None
