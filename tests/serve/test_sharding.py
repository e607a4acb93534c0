"""Process-sharded serving: partitioning, routing, and bit-exact scale-out.

The tentpole guarantee under test: a ``--shards K`` deployment — K worker
processes behind the routing front-end — drains a **byte-identical**
checkpoint tree to a single-process server fed the same events, for sync
and async-trained tenants alike.  Determinism carries because the tenant
partition, checkpoint layout and checkpoint phases all derive from the
spec's global tenant order, and each tenant's trajectory depends only on
its own event sequence.
"""

import asyncio
import contextlib
import json
import time

import pytest

from repro.api.registry import registry_payload
from repro.serve import ServeSpec
from repro.serve.loadgen import run_loadgen
from repro.serve.protocol import ServeClient, decode_line, encode_line, event_to_wire
from repro.serve.server import checkpoint_phases
from repro.serve.shard import ShardedFrontend, partition_tenants, worker_spec

from tests.serve.conftest import (
    CI_SPEC_PATH,
    FrontendThread,
    ServerThread,
    assert_state_dirs_equal,
)


def _spec_with_tenants(names, port=0, **extra) -> ServeSpec:
    return ServeSpec.from_dict(
        {
            "name": "shard-unit",
            "host": "127.0.0.1",
            "port": port,
            "tenants": [
                {
                    "name": name,
                    "dataset": {"scale": 0.03, "num_months": 2, "seed": index + 1},
                    "runner": {"seed": index, "checkpoint_every": 25},
                    "policy": {"policy": "random", "kwargs": {}},
                }
                for index, name in enumerate(names)
            ],
            **extra,
        }
    )


class TestPartitioning:
    def test_round_robin_by_spec_order(self):
        spec = _spec_with_tenants(["a", "b", "c", "d", "e"])
        groups = partition_tenants(spec, 2)
        assert [[t.name for t in g] for g in groups] == [["a", "c", "e"], ["b", "d"]]

    def test_more_shards_than_tenants_clamps(self):
        spec = _spec_with_tenants(["a", "b"])
        groups = partition_tenants(spec, 8)
        assert [[t.name for t in g] for g in groups] == [["a"], ["b"]]

    def test_single_shard_keeps_everyone(self):
        spec = _spec_with_tenants(["a", "b", "c"])
        (group,) = partition_tenants(spec, 1)
        assert [t.name for t in group] == ["a", "b", "c"]

    def test_invalid_shard_count_raises(self):
        spec = _spec_with_tenants(["a"])
        with pytest.raises(ValueError, match="shards"):
            partition_tenants(spec, 0)

    def test_worker_spec_hosts_its_partition_on_an_ephemeral_port(self):
        spec = _spec_with_tenants(["a", "b", "c"], port=7612)
        sub = worker_spec(spec, 1, 2)
        assert sub.name == "shard-unit-shard1"
        assert sub.port == 0
        assert sub.shards == 1
        assert [t.name for t in sub.tenants] == ["b"]
        # The full spec is untouched.
        assert spec.port == 7612 and len(spec.tenants) == 3

    def test_worker_spec_index_out_of_range(self):
        spec = _spec_with_tenants(["a", "b"])
        with pytest.raises(ValueError, match="out of range"):
            worker_spec(spec, 2, 4)  # only 2 effective shards for 2 tenants

    def test_spec_shards_field_round_trips_and_validates(self):
        spec = _spec_with_tenants(["a"], shards=4)
        assert spec.shards == 4
        assert ServeSpec.from_dict(spec.to_dict()).shards == 4
        with pytest.raises(ValueError, match="shards"):
            ServeSpec.from_dict({**spec.to_dict(), "shards": 0})


class TestCheckpointPhases:
    def test_phases_stagger_across_the_period(self):
        spec = _spec_with_tenants(["a", "b", "c", "d", "e"])
        phases = checkpoint_phases(spec)
        assert phases == {"a": 0, "b": 5, "c": 10, "d": 15, "e": 20}

    def test_workers_inherit_global_phases_not_subset_phases(self):
        """The stagger a shard worker must apply is the *global* one.

        Recomputing phases from a worker's tenant subset would re-pack them
        (breaking bit-exactness with single-process state); the front-end
        therefore passes ``checkpoint_phases(full_spec)`` down.
        """
        spec = _spec_with_tenants(["a", "b", "c", "d"])
        global_phases = checkpoint_phases(spec)
        sub = worker_spec(spec, 1, 2)  # hosts b, d
        subset_phases = checkpoint_phases(sub)
        assert {n: global_phases[n] for n in ("b", "d")} != subset_phases


class TestShardedExactness:
    """K=2 process-sharded serve ≡ single-process serve, byte for byte.

    Sync-trained tenants are held to bitwise checkpoint equality; the
    async-trained tenant serves decisions from its trainer's published
    snapshot, whose staleness is wall-clock-dependent (true of *any*
    deployment shape — two single-process runs differ the same way), so it
    is held to semantic equality: same trace window consumed, clean drain.
    """

    @pytest.fixture(scope="class")
    def mixed_spec(self):
        """Two sync ddqn tenants + one async-trained tenant."""
        data = json.loads(CI_SPEC_PATH.read_text())
        data["name"] = "shard-exact"
        gamma = json.loads(json.dumps(data["tenants"][0]))
        gamma["name"] = "gamma"
        gamma["dataset"]["seed"] = 3
        gamma["runner"]["seed"] = 2
        gamma["policy"]["kwargs"]["async_training"] = True
        data["tenants"].append(gamma)
        return ServeSpec.from_dict(data)

    def test_two_shard_drain_matches_single_process(self, mixed_spec, cache_dir, tmp_path):
        events = 120

        single_dir = tmp_path / "single"
        server = ServerThread(
            mixed_spec, state_dir=single_dir, resume=False, dataset_cache_dir=cache_dir
        )
        run_loadgen(
            mixed_spec,
            port=server.address[1],
            max_events=events,
            dataset_cache_dir=cache_dir,
            shutdown=True,
        )
        server.join()

        sharded_dir = tmp_path / "sharded"
        frontend = FrontendThread(
            mixed_spec, 2, state_dir=sharded_dir, resume=False, dataset_cache_dir=cache_dir
        )
        status = ServeClient(*frontend.address).request({"op": "status"})["status"]
        # The front-end advertises the routing table and per-shard health.
        assert status["frontend"] and status["shard_count"] == 2
        assert {route["shard"] for route in status["routes"].values()} == {0, 1}
        assert set(status["tenants"]) == {"alpha", "beta", "gamma"}
        report = run_loadgen(
            mixed_spec,
            port=frontend.address[1],
            max_events=events,
            dataset_cache_dir=cache_dir,
            shutdown=True,
        )
        frontend.join()

        # Both deployments consumed the same trace windows...
        for entry in report["shutdown"].values():
            assert entry["events_consumed"] == events
            assert entry["error"] is None
        # ...the sync tenants drained byte-identical checkpoints (modulo
        # wall-clock keys)...
        assert_state_dirs_equal(single_dir, sharded_dir, only={"alpha", "beta"})
        # ...and the async tenant checkpointed on both sides.
        assert (single_dir / "gamma.npz").exists()
        assert (sharded_dir / "gamma.npz").exists()


class TestFrontendEndpoint:
    """The front-end speaks the hosting server's protocol and rides out bad shards."""

    def test_shared_ops_and_hardening_match_the_server(self, cache_dir, tmp_path):
        """The assertions the server's hardening tests make, on a 2-shard front-end.

        The request budget is small, and shard answers longer than it (status,
        decisions, drain summaries) still come through whole.
        """
        spec = _spec_with_tenants(["a", "b"], limits={"max_frame_bytes": 512})
        dataset = spec.tenants[0].dataset.build(cache_dir=cache_dir)
        _, online = dataset.trace.split_warmup(dataset.warmup_end)
        frontend = FrontendThread(
            spec, 2, state_dir=tmp_path, resume=False, dataset_cache_dir=cache_dir
        )
        try:
            with ServeClient(*frontend.address) as client:
                assert set(client.request({"op": "status"})["status"]["tenants"]) == {"a", "b"}
                for seq, event in enumerate(online.events[:20]):
                    assert client.request(event_to_wire("a", event, seq=seq))["ok"]
                assert client.request({"op": "ping"}) == {"ok": True}
                policies = client.request({"op": "policies"})
                assert policies["ok"] and policies["policies"] == registry_payload()
                unknown = client.request({"op": "fly"})
                assert unknown["ok"] is False and unknown["code"] == "unknown_op"
                client._sock.sendall(b"{not json\n")
                garbage = json.loads(client._file.readline())
                assert garbage["code"] == "bad_request"
                assert "invalid JSON" in garbage["error"]
                client._sock.sendall(
                    json.dumps({"op": "ping", "pad": "x" * 2048}).encode() + b"\n"
                )
                oversized = json.loads(client._file.readline())
                assert oversized["code"] == "frame_too_large"
                assert oversized["max_frame_bytes"] == 512
                # The connection survives both; the next request is served.
                assert client.request({"op": "ping"}) == {"ok": True}
                drained = client.request({"op": "shutdown"})
                assert drained["ok"] and set(drained["shutdown"]) == {"a", "b"}
                assert drained["shutdown"]["a"]["events_consumed"] == 20
                assert drained["shutdown"]["b"]["error"] is None
                # The shutdown answer was this connection's last line.
                assert client._file.readline() == b""
        finally:
            with contextlib.suppress(OSError), ServeClient(*frontend.address) as client:
                client.request({"op": "shutdown"})
            frontend.join()

    @pytest.mark.parametrize("same_connection", [True, False], ids=["same", "second"])
    def test_drain_is_prompt_while_a_routing_client_stays_connected(
        self, same_connection, cache_dir, tmp_path, capfd
    ):
        """Idle upstream links do not hold the workers' drains.

        A client routes events to both shards and stays connected; the
        ``shutdown`` answer (on that connection or a second one) must not
        wait out each worker's connection grace, and no worker cancels a
        lingering connection task.
        """
        spec = _spec_with_tenants(["a", "b"])
        frontend = FrontendThread(
            spec, 2, state_dir=tmp_path, resume=False, dataset_cache_dir=cache_dir
        )
        try:
            with ServeClient(*frontend.address) as client:
                for tenant in spec.tenants:
                    dataset = tenant.dataset.build(cache_dir=cache_dir)
                    _, online = dataset.trace.split_warmup(dataset.warmup_end)
                    for seq, event in enumerate(online.events[:10]):
                        assert client.request(event_to_wire(tenant.name, event, seq=seq))["ok"]
                started = time.perf_counter()
                if same_connection:
                    drained = client.request({"op": "shutdown"})
                else:
                    with ServeClient(*frontend.address) as second:
                        drained = second.request({"op": "shutdown"})
                elapsed = time.perf_counter() - started
        finally:
            with contextlib.suppress(OSError), ServeClient(*frontend.address) as client:
                client.request({"op": "shutdown"})
            frontend.join()
        assert drained["ok"] and set(drained["shutdown"]) == {"a", "b"}
        assert elapsed < 1.0, f"shutdown answered in {elapsed:.2f}s"
        assert "CancelledError" not in capfd.readouterr().err

    def test_torn_shard_reply_counts_as_a_dropped_shard(self, tmp_path):
        """A shard killed mid-write leaves half a line before EOF.

        The routed event answers ``tenant_restarting`` on a connection that
        keeps serving, and the drain completes with the shard's tenants
        reported unreachable instead of hanging the front-end.
        """
        spec = _spec_with_tenants(["a", "b"])

        class LiveProcess:
            pid = returncode = None

            def terminate(self):
                self.returncode = -15

            async def wait(self):
                return self.returncode

        async def torn_reply(reader, writer):
            await reader.readline()
            writer.write(b'{"ok": tr')
            await writer.drain()
            writer.close()

        async def scenario():
            stub = await asyncio.start_server(torn_reply, "127.0.0.1", 0)
            frontend = ShardedFrontend(spec, 2, tmp_path)

            async def spawn(worker):
                worker.process = LiveProcess()
                worker.host, worker.port = stub.sockets[0].getsockname()[:2]

            frontend._spawn = spawn
            host, port = await frontend.start()
            served = asyncio.ensure_future(frontend.run_until_shutdown())
            reader, writer = await asyncio.open_connection(host, port)

            async def request(payload):
                writer.write(encode_line(payload))
                await writer.drain()
                return decode_line(await asyncio.wait_for(reader.readline(), timeout=30))

            event = {"op": "event", "tenant": "a", "kind": "worker_arrival",
                     "subject_id": 1, "timestamp": 0.0}
            routed = await request(event)
            assert routed["ok"] is False and routed["code"] == "tenant_restarting"
            assert await request({"op": "ping"}) == {"ok": True}
            drained = (await request({"op": "shutdown"}))["shutdown"]
            assert drained["a"]["error"] == "shard 0 unreachable at drain"
            assert drained["b"]["error"] == "shard 1 unreachable at drain"
            assert await asyncio.wait_for(served, timeout=30) == drained
            late = await frontend._answer(event, encode_line(event), {})
            assert late["code"] == "draining"
            writer.close()
            stub.close()
            await stub.wait_closed()

        asyncio.run(scenario())
