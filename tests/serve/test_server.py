"""In-process server tests: the NDJSON protocol end to end over real TCP.

One module-scoped :class:`ArrangementServer` (the bundled CI spec, two tiny
ddqn-worker tenants) runs on a background thread; tests talk to it with the
blocking :class:`ServeClient`.  The final test drains it and checks the
shutdown summary, so it must stay last in the file.
"""

import socket
import threading
import time

import pytest

from repro.api.registry import registry_payload
from repro.crowd.events import EventType
from repro.serve import ServeClient, ServeSpec, event_to_wire

from tests.serve.conftest import CI_SPEC_PATH, ServerThread


@pytest.fixture(scope="module")
def served(tmp_path_factory, cache_dir):
    spec = ServeSpec.load(CI_SPEC_PATH)
    state_dir = tmp_path_factory.mktemp("serve-state")
    thread = ServerThread(spec, state_dir=state_dir, dataset_cache_dir=cache_dir)
    yield thread
    try:
        with ServeClient(*thread.address) as client:
            client.request({"op": "shutdown"})
    except OSError:
        pass  # already drained by the last test
    thread.join()


@pytest.fixture(scope="module")
def traces(cache_dir):
    """Each tenant's online events, rebuilt exactly as the load generator does."""
    spec = ServeSpec.load(CI_SPEC_PATH)
    out = {}
    for tenant in spec.tenants:
        dataset = tenant.dataset.build(cache_dir=cache_dir)
        _, online = dataset.trace.split_warmup(dataset.warmup_end)
        out[tenant.name] = online.events
    return out


def test_ping(served):
    with ServeClient(*served.address) as client:
        assert client.request({"op": "ping"}) == {"ok": True}


def test_policies_matches_cli_registry(served):
    with ServeClient(*served.address) as client:
        response = client.request({"op": "policies"})
    assert response["ok"]
    assert response["policies"] == registry_payload()
    names = {entry["name"] for entry in response["policies"]["policies"]}
    assert {"random", "linucb", "ddqn-worker"} <= names


def test_status_surface_shape(served):
    with ServeClient(*served.address) as client:
        response = client.request({"op": "status"})
    assert response["ok"]
    status = response["status"]
    assert status["name"] == "serve-ci"
    assert status["closing"] is False
    assert set(status["tenants"]) == {"alpha", "beta"}
    for tenant in status["tenants"].values():
        assert tenant["policy"] == "ddqn-worker"
        assert tenant["error"] is None
        for key in ("events_consumed", "queue_depth", "decisions", "latency_ms", "trainer"):
            assert key in tenant
        assert {"p50_ms", "p90_ms", "p99_ms"} <= set(tenant["latency_ms"])
    assert {"batches", "requests"} <= set(status["batching"])


def test_unknown_op_is_answered_not_fatal(served):
    with ServeClient(*served.address) as client:
        response = client.request({"op": "fly"})
        assert response["ok"] is False
        assert "unknown op" in response["error"]
        # The connection survives a bad request.
        assert client.request({"op": "ping"}) == {"ok": True}


def test_malformed_line_is_answered_not_fatal(served):
    host, port = served.address
    with socket.create_connection((host, port), timeout=30) as sock:
        reader = sock.makefile("rb")
        sock.sendall(b"{this is not json\n")
        line = reader.readline()
        assert b'"ok":false' in line
        assert b"invalid JSON" in line
        sock.sendall(b'{"op":"ping"}\n')
        assert b'"ok":true' in reader.readline()


def test_unknown_tenant_is_error(served):
    with ServeClient(*served.address) as client:
        response = client.request(
            {"op": "event", "tenant": "ghost", "kind": "worker_arrival",
             "subject_id": 1, "timestamp": 0.0}
        )
    assert response["ok"] is False
    assert "unknown tenant" in response["error"]
    assert "alpha" in response["error"]


def test_unknown_event_kind_is_error(served):
    with ServeClient(*served.address) as client:
        response = client.request(
            {"op": "event", "tenant": "alpha", "kind": "meteor",
             "subject_id": 1, "timestamp": 0.0}
        )
    assert response["ok"] is False
    assert "unknown event kind" in response["error"]


def test_event_feed_serves_decisions(served, traces):
    """Feed a prefix of each tenant's trace; arrivals answer with decisions."""
    per_tenant = {}
    with ServeClient(*served.address) as client:
        for name, events in traces.items():
            start = client.request({"op": "status"})["status"]["tenants"][name]
            offset = int(start["events_consumed"])
            arrivals = decisions = 0
            for event in events[offset : offset + 60]:
                response = client.request(event_to_wire(name, event))
                assert response["ok"], response
                if event.event_type is EventType.WORKER_ARRIVAL:
                    arrivals += 1
                    decision = response["decision"]
                    if decision is not None:
                        decisions += 1
                        assert decision["presented"], "decision with empty ranking"
                        assert decision["latency_ms"] >= 0.0
                        assert "quality_gain" in decision
                else:
                    assert "queued" in response
            per_tenant[name] = (offset, arrivals, decisions)
        status = client.request({"op": "status"})["status"]
    for name, (offset, arrivals, decisions) in per_tenant.items():
        tenant = status["tenants"][name]
        assert arrivals > 0 and decisions > 0
        assert tenant["events_consumed"] >= offset + 60 - tenant["queue_depth"]
        assert tenant["decisions"] >= decisions
        assert tenant["latency_ms"]["count"] >= decisions
    # Every decision went through the batcher.
    assert status["batching"]["requests"] >= sum(d for _, _, d in per_tenant.values())


def test_concurrent_connections_are_isolated(served, traces):
    """Two tenants driven from two sockets at once: no cross-talk, no errors."""
    errors = []

    def drive(name):
        try:
            with ServeClient(*served.address) as client:
                offset = int(
                    client.request({"op": "status"})["status"]["tenants"][name][
                        "events_consumed"
                    ]
                )
                for event in traces[name][offset : offset + 20]:
                    response = client.request(event_to_wire(name, event))
                    assert response["ok"], response
                    assert response["tenant"] == name
        except BaseException as error:  # noqa: BLE001 - reported to the test
            errors.append((name, error))

    threads = [threading.Thread(target=drive, args=(name,)) for name in traces]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors


def test_idle_client_does_not_hold_the_exit(cache_dir, capfd, caplog):
    """A client waiting for its next frame is closed as soon as the drain ends."""
    spec = ServeSpec.from_dict(
        {
            "name": "idle-client",
            "port": 0,
            "tenants": [
                {
                    "name": "solo",
                    "dataset": {"scale": 0.03, "num_months": 2, "seed": 1},
                    "runner": {"seed": 0},
                    "policy": {"policy": "random", "kwargs": {"seed": 0}},
                }
            ],
        }
    )
    thread = ServerThread(spec, dataset_cache_dir=cache_dir)
    with ServeClient(*thread.address) as idle:
        assert idle.request({"op": "ping"})["ok"]
        with ServeClient(*thread.address) as client:
            assert client.request({"op": "shutdown"})["ok"]
        answered = time.perf_counter()
        thread.join(timeout=30)
        assert time.perf_counter() - answered < 1.0
        assert idle._file.readline() == b""
    assert "CancelledError" not in capfd.readouterr().err
    assert "CancelledError" not in caplog.text


def test_shutdown_drains_and_reports(served):
    """Must run last: drains the module server and checks the summary."""
    with ServeClient(*served.address) as client:
        before = client.request({"op": "status"})["status"]["tenants"]
        response = client.request({"op": "shutdown"})
        assert response["ok"]
        summary = response["shutdown"]
        assert set(summary) == {"alpha", "beta"}
        for name, entry in summary.items():
            assert entry["error"] is None
            assert entry["events_consumed"] >= before[name]["events_consumed"]
            assert entry["checkpoint"] is not None
            # The drain runs each loop to completion, so results exist.
            assert "result" in entry
            assert entry["arrivals"] > 0
        # The server closes the shutdown connection once answered.
        assert client._file.readline() == b""
    served.join()
    # The listener is gone: new connections are refused.
    with pytest.raises(OSError):
        socket.create_connection(served.address, timeout=5)
