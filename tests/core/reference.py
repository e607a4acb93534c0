"""Per-sample reference implementations of the learner's batched train step.

``DoubleDQNLearner.train_step`` is the one-job call of the group train step
(``repro.core.learner.bellman_targets`` and ``gradient_updates``): every
revised Bellman target of a replay batch comes from two batched forwards and
the whole prediction loss from one padded graph.  The functions here are the
original per-transition versions it replaced — two forwards per future
branch, one autograd graph per sampled transition — kept only so the
equivalence tests can compare against them.  They finish with the learner's
own clip, step, priority and sync code (``_finish_update``).
"""

from __future__ import annotations

import numpy as np

from repro.core import DoubleDQNLearner, Transition
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
