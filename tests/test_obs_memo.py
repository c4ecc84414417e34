"""The shared memo primitive: LRU bounds, accounting, registry, threads."""

from __future__ import annotations

import random
import sys
import threading

import pytest

import repro.service  # noqa: F401  (registers the service-side memos)
from repro.core.gp_step import gp_step_cache_info, solve_gp_step
from repro.obs import memo as memo_module
from repro.obs.memo import BoundedMemo, clear_all, memo_stats
from repro.reporting.experiments import case_study


@pytest.fixture
def registry(monkeypatch):
    """An empty process-wide registry for the duration of one test."""
    monkeypatch.setattr(memo_module, "_REGISTRY", {})
    return memo_module._REGISTRY


class TestBoundedMemo:
    def test_lru_eviction_and_refresh(self):
        memo = BoundedMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshed: "b" is now the oldest
        memo.put("c", 3)
        assert memo.keys() == ["a", "c"]
        assert memo.get("b") is None
        assert memo.stats() == {"hits": 1, "misses": 1, "entries": 2}

    def test_put_refreshes_an_existing_key(self):
        memo = BoundedMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 10)
        memo.put("c", 3)
        assert memo.keys() == ["a", "c"]
        assert memo.get("a") == 10

    def test_unhashable_key_is_a_miss_never_stored(self):
        memo = BoundedMemo(4)
        memo.put(["unhashable"], 1)
        assert len(memo) == 0
        assert memo.get(["unhashable"], "fallback") == "fallback"
        assert memo.get_or_create({"k": 1}, lambda: "made") == "made"
        assert memo.stats() == {"hits": 0, "misses": 2, "entries": 0}

    def test_get_or_create_calls_factory_once_per_key(self):
        memo = BoundedMemo(4)
        calls = []
        first = memo.get_or_create("k", lambda: calls.append(1) or object())
        assert memo.get_or_create("k", lambda: calls.append(1) or object()) is first
        assert calls == [1]

    def test_clear_resets_entries_and_counters(self):
        memo = BoundedMemo(4)
        memo.put("a", 1)
        memo.get("a")
        memo.get("b")
        memo.clear()
        assert memo.stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BoundedMemo(0)

    def test_concurrent_get_put_under_eviction_pressure(self):
        """8 threads hammer a memo far smaller than their key space: no
        call raises and every get is counted exactly once."""
        memo = BoundedMemo(16)
        threads_count, gets_per_thread = 8, 5000
        errors: list[BaseException] = []

        def work(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for _ in range(gets_per_thread):
                    key = rng.randrange(64)
                    if memo.get(key) is None:
                        memo.put(key, key)
            except BaseException as error:  # pragma: no cover - the failure path
                errors.append(error)

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(threads_count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == threads_count * gets_per_thread
        assert stats["hits"] > 0
        assert stats["entries"] <= 16


class TestRegistry:
    def test_named_memos_register_and_clear_together(self, registry):
        first = BoundedMemo(4, name="first")
        second = BoundedMemo(4, name="second")
        BoundedMemo(4)  # unnamed: per-instance, not registered
        first.put("a", 1)
        first.get("a")
        second.get("missing")
        assert memo_stats() == {
            "first": {"hits": 1, "misses": 0, "entries": 1},
            "second": {"hits": 0, "misses": 1, "entries": 0},
        }
        clear_all()
        assert memo_stats() == {
            "first": {"hits": 0, "misses": 0, "entries": 0},
            "second": {"hits": 0, "misses": 0, "entries": 0},
        }

    def test_every_process_wide_cache_is_registered(self):
        assert {
            "gp_step",
            "discretize",
            "allocation",
            "relaxation_caches",
            "packing_memos",
            "decode",
        } <= set(memo_stats())

    def test_clear_all_is_a_cold_start(self):
        problem = case_study("alex-16", resource_limit_percent=70.0)
        solve_gp_step(problem)
        solve_gp_step(problem)
        assert gp_step_cache_info()["hits"] >= 1
        clear_all()
        assert all(
            stats == {"hits": 0, "misses": 0, "entries": 0} for stats in memo_stats().values()
        )
