"""Reference implementations that the batched engine is compared against.

**Train step.**  ``DoubleDQNLearner.train_step`` is the one-job call of
the group train step (``repro.core.learner.bellman_targets`` and
``gradient_updates``): every revised Bellman target of a replay batch comes
from two batched forwards and the whole prediction loss from one padded
graph.  :func:`td_target` and :func:`train_step_unbatched` are the original
per-transition versions it replaced — two forwards per future branch, one
autograd graph per sampled transition.  They finish with the learner's own
clip, step, priority and sync code (``_finish_update``).

**SumTree walks.**  ``SumTree.update_batch`` and the stacked descent of
``repro.core.replay.sample_fused`` replaced one Python walk per leaf write
and per query; :func:`sumtree_update`, :func:`sumtree_find` and
:func:`prioritized_sample` are those walks.

**Serial run.**  ``SimulationRunner.run`` is the one-replica call of the
lockstep runner, which answers every round through ``decide_lockstep`` and
``observe_lockstep``.  :func:`serial_run` is the plain loop it replaced: it
answers each request of one replica's loop with the policy's own
``rank_tasks`` / ``observe_feedback``.

All of them are kept only so the equivalence tests can compare against them.
"""

from __future__ import annotations

import numpy as np

from repro.core import DoubleDQNLearner, PrioritizedReplayMemory, SumTree, Transition
from repro.eval import ReplicaRun
from repro.nn import Tensor, no_grad


@no_grad()
def td_target(learner: DoubleDQNLearner, transition: Transition) -> float:
    """The revised Bellman target of one transition (Eq. 3 / Eq. 6)."""
    if not transition.future_states:
        return float(transition.reward)
    expected_future = 0.0
    for probability, future_state in transition.future_states:
        if future_state.num_tasks == 0:
            continue
        best_action = int(np.argmax(learner.online.q_values(future_state)))
        target_values = learner.target.q_values(future_state)
        expected_future += probability * float(target_values[best_action])
    return float(transition.reward) + learner.gamma * expected_future


def train_step_unbatched(learner: DoubleDQNLearner, memory):
    """One gradient step built transition by transition (same RNG draws)."""
    if len(memory) == 0:
        return None
    transitions, indices, weights = memory.sample(learner.batch_size)
    targets = np.array([td_target(learner, t) for t in transitions], dtype=np.float64)

    predictions = []
    for transition in transitions:
        values = learner.online.forward(transition.state.matrix, mask=transition.state.mask)
        predictions.append(values[transition.action_index])
    stacked = Tensor.stack(predictions, axis=0)

    dtype = learner.online.dtype
    diff = stacked - Tensor(np.asarray(targets, dtype=dtype))
    loss = (Tensor(np.asarray(weights, dtype=dtype)) * diff * diff).mean()
    learner.optimizer.zero_grad()
    loss.backward()
    return learner._finish_update(
        memory, float(loss.item()), targets, stacked.numpy(), indices, len(transitions)
    )


def sumtree_update(tree: SumTree, index: int, priority: float) -> None:
    """Set one leaf and recompute each ancestor from its two children."""
    node = index + tree._leaf_count
    tree._tree[node] = priority
    node //= 2
    while node >= 1:
        tree._tree[node] = tree._tree[2 * node] + tree._tree[2 * node + 1]
        node //= 2


def sumtree_find(tree: SumTree, value: float) -> int:
    """The leaf whose cumulative priority range contains ``value``."""
    node = 1
    while node < tree._leaf_count:
        left = 2 * node
        if value <= tree._tree[left] or tree._tree[left + 1] <= 0.0:
            node = left
        else:
            value -= tree._tree[left]
            node = left + 1
    return node - tree._leaf_count


def prioritized_sample(memory: PrioritizedReplayMemory, batch_size: int):
    """One prioritized draw with a scalar :func:`sumtree_find` walk per slot.

    Takes the same stratified uniform draw from the memory's RNG as
    ``sample_fused`` and anneals β the same way.
    """
    count = min(batch_size, len(memory))
    total = memory._tree.total
    segment = total / count
    lows = np.arange(count, dtype=np.float64) * segment
    targets = memory.rng.uniform(lows, lows + segment)
    indices = np.array(
        [min(sumtree_find(memory._tree, float(target)), len(memory) - 1) for target in targets],
        dtype=np.int64,
    )
    priorities = np.maximum(memory._tree.get_batch(indices), 1e-12)
    weights = (len(memory) * (priorities / total)) ** (-memory.beta)
    weights /= weights.max()
    memory.beta = min(1.0, memory.beta + memory.beta_increment)
    return [memory._storage[int(index)] for index in indices], indices, weights


def serial_run(dataset, policy, config):
    """One replica's loop, each request answered by the policy's own methods."""
    loop = ReplicaRun(dataset, policy, config).loop()
    response = None
    while True:
        try:
            request = loop.send(response)
        except StopIteration as stop:
            return stop.value
        if request[0] == "rank":
            response = policy.rank_tasks(request[1])
        else:
            _, context, presented, feedback = request
            policy.observe_feedback(context, presented, feedback)
            response = None
