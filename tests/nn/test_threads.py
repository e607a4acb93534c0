"""The BLAS thread-count knob and the heap top pad (``repro.nn.threads``).

The module talks to numpy's vendored BLAS via ctypes and degrades to an
informative no-op when no known runtime is found.  The tests exercise both
shapes: on this repository's pinned numpy the runtime is controllable, so the
set/get/context-manager round trips run for real; the no-op contract is
tested by stubbing resolution away.
"""

import os
import platform

import pytest

from repro.nn import threads


@pytest.fixture()
def restore_thread_count():
    before = threads.num_threads()
    yield
    if before is not None:
        threads.set_num_threads(before)


class TestControl:
    def test_set_and_get_round_trip(self, restore_thread_count):
        if not threads.set_num_threads(2):
            pytest.skip("BLAS runtime not controllable on this numpy")
        assert threads.num_threads() == 2
        threads.set_num_threads(1)
        assert threads.num_threads() == 1

    def test_context_manager_restores_previous_count(self, restore_thread_count):
        if not threads.set_num_threads(1):
            pytest.skip("BLAS runtime not controllable on this numpy")
        with threads.blas_threads(3) as previous:
            assert previous == 1
            assert threads.num_threads() == 3
        assert threads.num_threads() == 1

    def test_invalid_count_is_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            threads.set_num_threads(0)
        with pytest.raises(ValueError, match="positive"):
            threads.set_num_threads(-4)

    def test_thread_info_shape(self):
        info = threads.thread_info()
        assert set(info) == {
            "controllable", "blas_threads", "env", "cpu_count", "budget", "heap_top_pad"
        }
        assert info["budget"] == threads.max_threads()
        assert isinstance(info["controllable"], bool)
        if info["controllable"]:
            assert isinstance(info["blas_threads"], int)
        else:
            assert info["blas_threads"] is None


class TestHeapTopPad:
    def test_pad_is_applied_and_reported_on_glibc(self):
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("mallopt is glibc-only")
        assert threads.thread_info()["heap_top_pad"] == threads.HEAP_TOP_PAD

    def test_pad_is_a_recorded_noop_off_glibc(self, monkeypatch):
        monkeypatch.setattr(threads.platform, "libc_ver", lambda: ("", ""))
        assert threads._apply_heap_pad() is None


class TestUncontrollableFallback:
    @pytest.fixture()
    def uncontrollable(self, monkeypatch):
        monkeypatch.setattr(threads, "_resolve", lambda: None)

    def test_everything_degrades_to_noops(self, uncontrollable):
        assert threads.set_num_threads(4) is False
        assert threads.num_threads() is None
        with threads.blas_threads(4) as previous:
            assert previous is None
        assert threads.thread_info()["controllable"] is False

    def test_env_application_ignores_invalid_values(self, monkeypatch):
        calls: list[int] = []
        monkeypatch.setattr(threads, "set_num_threads", lambda count: calls.append(count))
        monkeypatch.setenv(threads.ENV_VAR, "not-a-number")
        threads._apply_env()
        monkeypatch.setenv(threads.ENV_VAR, "-2")
        threads._apply_env()
        assert calls == []
        monkeypatch.setenv(threads.ENV_VAR, "3")
        threads._apply_env()
        assert calls == [3]


class TestThreadBudget:
    """One budget, split by :func:`blas_share` at every parallel axis."""

    def test_max_threads_defaults_to_the_affinity_mask(self, monkeypatch):
        monkeypatch.delenv(threads.BUDGET_ENV_VAR, raising=False)
        if hasattr(os, "sched_getaffinity"):
            assert threads.max_threads() == len(os.sched_getaffinity(0))
        else:
            assert threads.max_threads() == (os.cpu_count() or 1)

    def test_max_threads_follows_a_one_core_mask(self, monkeypatch):
        monkeypatch.delenv(threads.BUDGET_ENV_VAR, raising=False)
        monkeypatch.setattr(threads.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(threads.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert threads.max_threads() == 1
        assert threads.thread_info()["budget"] == 1

    def test_max_threads_defaults_to_cpu_count(self, monkeypatch):
        # Where the platform reports no affinity mask.
        monkeypatch.delenv(threads.BUDGET_ENV_VAR, raising=False)
        monkeypatch.setattr(threads.os, "cpu_count", lambda: 8)
        monkeypatch.delattr(threads.os, "sched_getaffinity", raising=False)
        assert threads.max_threads() == 8

    def test_budget_env_overrides(self, monkeypatch):
        monkeypatch.setenv(threads.BUDGET_ENV_VAR, "12")
        assert threads.max_threads() == 12

    def test_invalid_budget_env_is_ignored(self, monkeypatch):
        monkeypatch.delenv(threads.BUDGET_ENV_VAR, raising=False)
        default = threads.max_threads()
        for bad in ("zero", "-3", "0", ""):
            monkeypatch.setenv(threads.BUDGET_ENV_VAR, bad)
            assert threads.max_threads() == default

    def test_blas_share_splits_the_budget(self, monkeypatch):
        monkeypatch.delenv(threads.ENV_VAR, raising=False)
        monkeypatch.setenv(threads.BUDGET_ENV_VAR, "8")
        assert threads.blas_share(1) == 8
        assert threads.blas_share(2) == 4
        assert threads.blas_share(3) == 2
        assert threads.blas_share(16) == 1  # floor at one thread
        with pytest.raises(ValueError, match="units"):
            threads.blas_share(0)

    def test_shard_blas_threads_splits_the_budget(self, monkeypatch, tmp_path):
        """Each serve shard process is launched with its share of the budget."""
        from repro.serve.shard import ShardedFrontend
        from tests.serve.test_sharding import _spec_with_tenants

        spec = _spec_with_tenants(["a", "b", "c", "d"])

        def shard_blas_threads(shards: int) -> str:
            frontend = ShardedFrontend(spec, shards, tmp_path / f"shards-{shards}")
            return frontend._worker_env()[threads.ENV_VAR]

        monkeypatch.delenv(threads.ENV_VAR, raising=False)
        monkeypatch.setenv(threads.BUDGET_ENV_VAR, "8")
        assert shard_blas_threads(2) == "4"
        assert shard_blas_threads(4) == "2"
        monkeypatch.setenv(threads.BUDGET_ENV_VAR, "2")
        assert shard_blas_threads(4) == "1"  # floor at one thread
        monkeypatch.setenv(threads.ENV_VAR, "3")  # the operator's pin wins
        assert shard_blas_threads(2) == "3"

    def test_explicit_blas_setting_wins(self, monkeypatch):
        monkeypatch.setenv(threads.BUDGET_ENV_VAR, "8")
        monkeypatch.setenv(threads.ENV_VAR, "3")
        assert threads.blas_share(2) == 3
        monkeypatch.setenv(threads.ENV_VAR, "not-a-number")
        assert threads.blas_share(2) == 4
