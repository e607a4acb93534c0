"""A single-MDP DQN agent: network + target + replay memory + learner.

:class:`DQNAgent` bundles everything one MDP (worker-side *or*
requester-side) needs: it scores the available tasks of a state, stores
transitions built by the framework and trains the network on a configurable
cadence.  :class:`repro.core.framework.TaskArrangementFramework` owns two of
these agents and combines their Q values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .learner import DoubleDQNLearner, TrainStepReport
from .qnetwork import SetQNetwork
from .replay import PrioritizedReplayMemory, ReplayMemory, Transition
from .state import StateMatrix

__all__ = ["AgentConfig", "DQNAgent"]


@dataclass
class AgentConfig:
    """Hyper-parameters of one DQN agent.

    Defaults follow Sec. VII-B-1 of the paper: hidden width 128, buffer size
    1 000, learning rate 0.001, batch size 64, target sync every 100
    iterations, γ = 0.3 for the worker MDP and γ = 0.5 for the requester MDP
    (set by the framework).  ``train_interval`` controls how many feedbacks
    are observed between gradient steps (1 reproduces the paper's
    update-after-every-feedback behaviour; larger values trade fidelity for
    speed in CI-scale runs).
    """

    hidden_dim: int = 128
    num_heads: int = 4
    gamma: float = 0.5
    learning_rate: float = 1e-3
    batch_size: int = 64
    buffer_size: int = 1_000
    target_sync_interval: int = 100
    train_interval: int = 1
    grad_clip: float = 10.0
    prioritized_replay: bool = True
    min_buffer_before_training: int = 16
    #: Compute precision of the Q-networks ("float64" keeps the historical
    #: bit-exact behaviour; "float32" roughly halves GEMM time).
    dtype: str = "float64"
    seed: int = 0


@dataclass
class AgentDiagnostics:
    """Running counters exposed for tests, reports and ablations."""

    observations: int = 0
    train_steps: int = 0
    last_loss: float | None = None
    losses: list[float] = field(default_factory=list)


class DQNAgent:
    """One Deep Q-Network with its replay memory and learner."""

    def __init__(self, input_dim: int, config: AgentConfig | None = None) -> None:
        self.config = config if config is not None else AgentConfig()
        self.network = SetQNetwork(
            input_dim=input_dim,
            hidden_dim=self.config.hidden_dim,
            num_heads=self.config.num_heads,
            seed=self.config.seed,
            dtype=self.config.dtype,
        )
        self.learner = DoubleDQNLearner(
            self.network,
            gamma=self.config.gamma,
            learning_rate=self.config.learning_rate,
            batch_size=self.config.batch_size,
            target_sync_interval=self.config.target_sync_interval,
            grad_clip=self.config.grad_clip,
        )
        if self.config.prioritized_replay:
            self.memory: ReplayMemory | PrioritizedReplayMemory = PrioritizedReplayMemory(
                capacity=self.config.buffer_size, seed=self.config.seed
            )
        else:
            self.memory = ReplayMemory(capacity=self.config.buffer_size, seed=self.config.seed)
        self.diagnostics = AgentDiagnostics()

    # ------------------------------------------------------------------ #
    def q_values(self, state: StateMatrix) -> np.ndarray:
        """Q values of the real tasks in ``state`` under the online network."""
        return self.network.q_values(state)

    def store(self, transition: Transition) -> None:
        """Add a transition to the replay memory (no training)."""
        self.memory.push(transition)
        self.diagnostics.observations += 1

    def should_train(self) -> bool:
        """Whether the training cadence and buffer fill allow a step *now*.

        Evaluated after every :meth:`store`; ``train_interval`` amortises the
        per-arrival update path by training only every N-th observation.
        """
        return (
            self.diagnostics.observations % self.config.train_interval == 0
            and len(self.memory) >= self.config.min_buffer_before_training
        )

    def record_report(self, report: TrainStepReport | None) -> None:
        """Fold one train-step report into the diagnostics counters."""
        if report is not None:
            self.diagnostics.train_steps += 1
            self.diagnostics.last_loss = report.loss
            self.diagnostics.losses.append(report.loss)

    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict:
        """Everything the agent learned: learner (networks + optimiser),
        replay memory contents and the diagnostic counters that drive the
        training cadence."""
        return {
            "learner": self.learner.state_dict(),
            "memory": self.memory.state_dict(),
            "diagnostics": {
                "observations": self.diagnostics.observations,
                "train_steps": self.diagnostics.train_steps,
                "last_loss": self.diagnostics.last_loss,
                "losses": np.array(self.diagnostics.losses, dtype=np.float64),
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self.learner.load_state_dict(state["learner"])
        self.memory.load_state_dict(state["memory"])
        diagnostics = state["diagnostics"]
        self.diagnostics.observations = int(diagnostics["observations"])
        self.diagnostics.train_steps = int(diagnostics["train_steps"])
        last_loss = diagnostics["last_loss"]
        self.diagnostics.last_loss = None if last_loss is None else float(last_loss)
        self.diagnostics.losses = [float(x) for x in np.asarray(diagnostics["losses"])]
