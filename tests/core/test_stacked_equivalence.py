"""Bitwise guarantees of the one Q-network forward over parameter stacks.

Every scoring and training path runs :func:`repro.core.qnetwork.q_forward`
and differs only in the parameters it passes: ``N = 1`` views of one
network's (or one snapshot's) parameters, or N networks stacked along a
leading replica axis.  The episode-vectorized platform's determinism
contract (a vectorized replica is float-for-float equal to its serial run)
rests on properties of this machine's BLAS/numpy that these tests pin
explicitly:

* a stacked ``(N, m, k) @ (N, k, n)`` matmul equals the N separate 2-D
  matmuls bitwise;
* GEMM results are row-stable when the left operand gains extra rows
  (M-invariance, for M >= 2) — what lets the no-grad target forwards pad the
  *batch* axis across replicas;
* scoring one state is the ``B = 1`` case of batched scoring, and equals the
  network's own layer modules applied to the 2-D state;
* each slice of an N-stacked call equals the ``N = 1`` call, for values and
  for every parameter gradient, and the graph-free array path equals the
  tensor graph;
* the lockstep decision path and the fused group train step
  (:mod:`repro.core.vectorized`) leave every framework and agent in the
  exact state of its serial calls.

If any of these fail on a new platform, the vectorized runner's equality
tests would fail with it — these isolate the root cause.
"""

import copy

import numpy as np
import pytest

from repro.core import FrameworkConfig, TaskArrangementFramework, vectorized
from repro.core import learner as learner_module
from repro.core.agent import AgentConfig, DQNAgent
from repro.core.qnetwork import SetQNetwork, pad_state_batch, q_forward, stack_parameters
from repro.core.replay import Transition
from repro.core.state import StateMatrix
from repro.core.vectorized import decide_lockstep, fused_train_steps
from repro.crowd.entities import MINUTES_PER_DAY
from repro.nn import Tensor, is_grad_enabled, no_grad

from test_checkpoint import make_context, snapshot  # noqa: F401 (fixture)


def make_state(rng, rows, dim, min_tasks=1):
    real = int(rng.integers(min_tasks, rows + 1))
    matrix = np.zeros((rows, dim))
    matrix[:real] = rng.standard_normal((real, dim))
    mask = np.ones(rows, dtype=bool)
    mask[:real] = False
    return StateMatrix(matrix=matrix, mask=mask, task_ids=list(range(real)))


def make_transition(rng, rows, dim, branches=3):
    future = [
        (float(p), make_state(rng, rows, dim))
        for p in np.full(branches, 1.0 / branches)
    ]
    state = make_state(rng, rows, dim, min_tasks=2)
    return Transition(
        state=state,
        action_index=int(rng.integers(0, state.num_tasks)),
        reward=float(rng.random()),
        future_states=future,
    )


def make_siblings(rng, rows, dim, count, branches=3):
    """``count`` transitions of one feedback: one ``state``, one ``future_states`` list."""
    future = [(1.0 / branches, make_state(rng, rows, dim)) for _ in range(branches)]
    state = make_state(rng, rows, dim, min_tasks=count)
    reward = float(rng.random())
    return [
        Transition(
            state=state,
            action_index=int(action),
            reward=reward if k == 0 else 0.0,
            future_states=future,
        )
        for k, action in enumerate(rng.permutation(state.num_tasks)[:count])
    ]


class TestEnvironmentAssumptions:
    """Numerical platform properties the stacked engine relies on."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stacked_matmul_equals_per_slice_matmul(self, dtype):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 40, 17)).astype(dtype)
        b = rng.standard_normal((6, 17, 24)).astype(dtype)
        stacked = a @ b
        for i in range(a.shape[0]):
            assert np.array_equal(stacked[i], a[i] @ b[i])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gemm_rows_are_m_invariant(self, dtype):
        """Row i of (A @ W) must not change when A gains rows (M >= 2)."""
        rng = np.random.default_rng(1)
        w = rng.standard_normal((90, 64)).astype(dtype)
        a = rng.standard_normal((200, 90)).astype(dtype)
        full = a @ w
        for m in (2, 3, 7, 32, 100):
            assert np.array_equal(np.ascontiguousarray(a[:m]) @ w, full[:m]), m

    def test_axis_reductions_are_slice_isomorphic(self):
        rng = np.random.default_rng(2)
        g = rng.standard_normal((5, 37, 12))
        assert np.array_equal(
            np.sum(g, axis=1), np.stack([g[i].sum(axis=0) for i in range(5)])
        )
        assert np.array_equal(
            g.sum(axis=-1), np.stack([g[i].sum(axis=-1) for i in range(5)])
        )


def layer_forward(network: SetQNetwork, state: StateMatrix) -> np.ndarray:
    """The six blocks applied through the network's own layer modules to one 2-D state."""
    x = Tensor(np.asarray(state.matrix, dtype=network.dtype))
    with no_grad():
        hidden = network.embed_2(network.embed_1(x))
        attended = network.attention_1(hidden, mask=state.mask)
        hidden = network.post_attention(attended + hidden)
        hidden = network.attention_2(hidden, mask=state.mask) + hidden
        return network.value_head(hidden).numpy()[: state.num_tasks, 0]


class TestSingleStateIsBatchOfOne:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("hidden", [8, 64, 128])
    @pytest.mark.parametrize("rows", [1, 2, 15, 68])
    def test_q_values_is_the_b1_batch_bitwise(self, dtype, hidden, rows):
        network = SetQNetwork(input_dim=23, hidden_dim=hidden, num_heads=4, seed=rows, dtype=dtype)
        rng = np.random.default_rng(hidden + rows)
        for _ in range(3):
            state = make_state(rng, rows, 23)
            values = network.q_values(state)
            assert values.dtype == np.dtype(dtype)
            assert np.array_equal(values, network.q_values_batch([state])[0])
            assert np.array_equal(values, layer_forward(network, state))


@pytest.fixture(params=["float64", "float32"])
def networks(request):
    return [
        SetQNetwork(input_dim=13, hidden_dim=16, num_heads=2, seed=seed, dtype=request.param)
        for seed in range(4)
    ]


def stacked_batches(networks, state_lists):
    batches = [pad_state_batch(states, dtype=networks[0].dtype) for states in state_lists]
    return np.stack([batch for batch, _ in batches]), np.stack([mask for _, mask in batches])


class TestQForwardStacks:
    def test_signature_separates_architectures(self, networks):
        assert len({network.signature for network in networks}) == 1
        other = SetQNetwork(input_dim=13, hidden_dim=32, num_heads=2, dtype=networks[0].dtype)
        assert other.signature != networks[0].signature

    def test_n1_views_share_memory_with_the_parameters(self, networks):
        network = networks[0]
        for name, view in stack_parameters([network.parameter_arrays()]).items():
            assert view.shape == (1,) + network.parameter_map[name].shape
            assert np.shares_memory(view, network.parameter_map[name].data), name

    def test_slices_equal_n1_values_bitwise(self, networks):
        rng = np.random.default_rng(5)
        state_lists = [[make_state(rng, 8, 13) for _ in range(6)] for _ in networks]
        batch, mask = stacked_batches(networks, state_lists)
        params = stack_parameters([network.parameter_arrays() for network in networks])
        fused = q_forward(params, batch, mask, networks[0].num_heads)
        for i, (network, states) in enumerate(zip(networks, state_lists)):
            assert np.array_equal(fused[i], network.forward_batch(states).numpy())

    def test_array_path_equals_tensor_graph_bitwise(self, networks):
        rng = np.random.default_rng(4)
        state_lists = [[make_state(rng, 7, 13) for _ in range(5)] for _ in networks]
        batch, mask = stacked_batches(networks, state_lists)
        arrays = stack_parameters([network.parameter_arrays() for network in networks])
        tensors = stack_parameters([network.parameter_map for network in networks])
        inference = q_forward(arrays, batch, mask, networks[0].num_heads)
        graph = q_forward(tensors, batch, mask, networks[0].num_heads)
        assert isinstance(inference, np.ndarray) and isinstance(graph, Tensor)
        assert np.array_equal(inference, graph.numpy())

    def test_slices_equal_n1_gradients_bitwise(self, networks):
        rng = np.random.default_rng(6)
        state_lists = [[make_state(rng, 8, 13) for _ in range(5)] for _ in networks]
        serial_grads = []
        for network, states in zip(networks, state_lists):
            network.zero_grad()
            values = network.forward_batch(states)
            (values * values).mean().backward()
            serial_grads.append(
                {name: param.grad.copy() for name, param in network.named_parameters()}
            )
            network.zero_grad()

        batch, mask = stacked_batches(networks, state_lists)
        params = stack_parameters([network.parameter_map for network in networks])
        out = q_forward(params, batch, mask, networks[0].num_heads)
        losses = [(row * row).mean() for row in out.unbind(0)]
        Tensor.stack(losses, axis=0).sum().backward()
        for network, expected in zip(networks, serial_grads):
            for name, param in network.named_parameters():
                assert np.array_equal(param.grad, expected[name]), name
            network.zero_grad()


TINY = dict(hidden_dim=16, num_heads=2, batch_size=8, train_interval=1, seed=5)


class TestDecideLockstep:
    def test_mixed_scorers_rank_like_serial_calls(self, snapshot):
        """Sync and async frameworks, two widths and two state shapes in one call."""
        _, _, schema, _ = snapshot
        configs = [
            dict(TINY),
            dict(TINY, seed=6),
            dict(TINY, seed=7, max_tasks=12),
            dict(TINY, seed=8, hidden_dim=32),
            dict(TINY, seed=9, async_training=True, async_handoff_lag=0),
        ]

        def build():
            return [
                TaskArrangementFramework(schema, FrameworkConfig(**config))
                for config in configs
            ]

        fused, serial = build(), build()
        try:
            for step in range(3):
                contexts = [
                    make_context(snapshot, MINUTES_PER_DAY + 7.0 * (step * len(configs) + i))
                    for i in range(len(configs))
                ]
                rankings = decide_lockstep(list(zip(fused, contexts)))
                expected = [
                    framework.rank_tasks(context)
                    for framework, context in zip(serial, contexts)
                ]
                assert rankings == expected
                for a, b in zip(fused, serial):
                    for key, decision in a._pending.items():
                        other = b._pending[key]
                        for role in ("worker_q", "requester_q"):
                            assert np.array_equal(getattr(decision, role), getattr(other, role))
        finally:
            for framework in fused + serial:
                framework.trainer.close()


class TestFusedTrainSteps:
    def build_agents(self, count, rng, rows=8, dim=13, batch_size=4, dtype="float64"):
        agents = [
            DQNAgent(
                dim,
                AgentConfig(
                    hidden_dim=16, num_heads=2, batch_size=batch_size, seed=seed, dtype=dtype
                ),
            )
            for seed in range(count)
        ]
        for agent in agents:
            for _ in range(batch_size + 12):
                agent.store(make_transition(rng, rows, dim))
        return agents

    def clone_states(self, agents):
        return [
            {
                "learner": {
                    name: value.copy()
                    for name, value in agent.learner.online.state_dict().items()
                },
                "rng": agent.memory.rng.bit_generator.state,
            }
            for agent in agents
        ]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_group_step_is_bitwise_equal_to_serial_steps(self, dtype):
        rng = np.random.default_rng(8)
        fused_agents = self.build_agents(4, rng, dtype=dtype)
        rng = np.random.default_rng(8)
        serial_agents = self.build_agents(4, rng, dtype=dtype)

        for _ in range(3):
            fused_train_steps(fused_agents)
            for agent in serial_agents:
                agent.record_report(agent.learner.train_step(agent.memory))
        self.assert_agents_equal(fused_agents, serial_agents)

    def test_serial_and_fused_steps_run_one_train_step(self, monkeypatch):
        """A serial step is the one-job call of the functions a fused step calls."""
        calls = []
        for name in ("bellman_targets", "gradient_updates"):
            original = getattr(learner_module, name)
            assert getattr(vectorized, name) is original, name

            def spy(jobs, name=name, original=original):
                calls.append((name, len(jobs)))
                return original(jobs)

            monkeypatch.setattr(learner_module, name, spy)
            monkeypatch.setattr(vectorized, name, spy)
        agents = self.build_agents(3, np.random.default_rng(4))
        agents[0].learner.train_step(agents[0].memory)
        assert calls == [("bellman_targets", 1), ("gradient_updates", 1)]
        calls.clear()
        fused_train_steps(agents)
        assert calls == [("bellman_targets", 3), ("gradient_updates", 3)]

    @staticmethod
    def assert_agents_equal(fused_agents, serial_agents):
        for fused_agent, serial_agent in zip(fused_agents, serial_agents):
            fused_state = fused_agent.learner.state_dict()
            serial_state = serial_agent.learner.state_dict()
            for key in ("online", "target"):
                for name in fused_state[key]:
                    assert np.array_equal(fused_state[key][name], serial_state[key][name]), (
                        key,
                        name,
                    )
            assert fused_agent.memory.rng.bit_generator.state == (
                serial_agent.memory.rng.bit_generator.state
            )
            np.testing.assert_array_equal(
                fused_agent.memory._tree._tree, serial_agent.memory._tree._tree
            )
            assert fused_agent.diagnostics.train_steps == serial_agent.diagnostics.train_steps
            assert fused_agent.diagnostics.losses == serial_agent.diagnostics.losses

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_shared_states_and_repeated_samples_stay_bitwise_serial(self, dtype, monkeypatch):
        """Sibling transitions share a state and a future list; samples repeat.

        Each job scores its distinct states once, so jobs fuse when their
        deduplicated batches match, and the gather maps repeated states and
        repeated samples back onto their rows exactly as the serial step does.
        """

        def build(seed):
            rng = np.random.default_rng(seed)
            agents = [
                DQNAgent(
                    13,
                    AgentConfig(hidden_dim=16, num_heads=2, batch_size=6, seed=s, dtype=dtype),
                )
                for s in range(4)
            ]
            # The last memory holds fewer transitions than a batch: its jobs
            # gather 5 transitions over as many distinct states as the
            # others' 6, and must not fuse with them.
            for agent, sizes in zip(agents, [(3, 3, 2)] * 3 + [(2, 2, 1)]):
                for size in sizes:
                    for transition in make_siblings(rng, 8, 13, size):
                        agent.store(transition)
                # One dominant priority: stratified sampling draws it repeatedly.
                stored = len(agent.memory)
                agent.memory.update_priorities(
                    np.arange(stored), np.where(np.arange(stored) == 1, 50.0, 0.1)
                )
            return agents

        fused_agents, serial_agents = build(12), build(12)
        # What the fused update did: each job's sampled state objects, and
        # the distinct-state lists of every stacked prediction forward.
        sampled, fused_groups = [], []
        update, group_forward = vectorized.gradient_updates, learner_module._group_forward

        def update_spy(jobs):
            sampled.extend([id(t.state) for t in job.transitions] for job in jobs)
            return update(jobs)

        def forward_spy(networks, batches):
            if len(networks) > 1 and is_grad_enabled():
                fused_groups.append([[id(state) for state in states] for states, _ in batches])
            return group_forward(networks, batches)

        monkeypatch.setattr(vectorized, "gradient_updates", update_spy)
        monkeypatch.setattr(learner_module, "_group_forward", forward_spy)
        repeated = 0
        for _ in range(3):
            for agent in serial_agents:
                _, indices, _ = copy.deepcopy(agent.memory).sample(agent.learner.batch_size)
                repeated += len(set(indices.tolist())) < len(indices)
                agent.record_report(agent.learner.train_step(agent.memory))
            fused_train_steps(fused_agents)

        assert repeated, "the dominant priority should repeat samples"
        assert fused_groups, "expected a fused group"
        fused_jobs = [distinct for group in fused_groups for distinct in group]
        assert any(
            len(set(ids)) < len(ids) and list(dict.fromkeys(ids)) in fused_jobs for ids in sampled
        ), "expected a fused job with a repeated state"
        self.assert_agents_equal(fused_agents, serial_agents)

    def test_mixed_architectures_split_into_groups(self):
        rng = np.random.default_rng(9)
        small = self.build_agents(2, rng)
        rng2 = np.random.default_rng(10)
        wide = [
            DQNAgent(13, AgentConfig(hidden_dim=32, num_heads=2, batch_size=4, seed=7))
        ]
        for _ in range(16):
            wide[0].store(make_transition(rng2, 8, 13))
        rng = np.random.default_rng(9)
        small_reference = self.build_agents(2, rng)
        rng2 = np.random.default_rng(10)
        wide_reference = [
            DQNAgent(13, AgentConfig(hidden_dim=32, num_heads=2, batch_size=4, seed=7))
        ]
        for _ in range(16):
            wide_reference[0].store(make_transition(rng2, 8, 13))

        fused_train_steps(small + wide)
        for agent in small_reference + wide_reference:
            agent.learner.train_step(agent.memory)
        for fused_agent, serial_agent in zip(small + wide, small_reference + wide_reference):
            fused_params = fused_agent.learner.online.state_dict()
            serial_params = serial_agent.learner.online.state_dict()
            for name in fused_params:
                assert np.array_equal(fused_params[name], serial_params[name]), name
