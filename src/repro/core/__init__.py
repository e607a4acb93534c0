"""The paper's contribution: the Deep RL task-arrangement framework."""

from .agent import AgentConfig, DQNAgent
from .aggregator import QValueAggregator
from .explorer import EpsilonGreedyExplorer, GaussianPerturbationExplorer
from .framework import (
    CHECKPOINT_FORMAT,
    FrameworkConfig,
    TaskArrangementFramework,
    migrate_config_tree,
)
from .trainer import AsyncTrainer, SnapshotNetwork, SyncTrainer, TrainerLoop
from .vectorized import decide_lockstep, fused_train_steps, observe_lockstep
from .interfaces import ArrangementPolicy
from .learner import DoubleDQNLearner, TrainStepReport
from .predictor import FutureStatePredictorR, FutureStatePredictorW, expiry_branches
from .qnetwork import (
    QScorer,
    SetQNetwork,
    pad_state_batch,
    q_forward,
    score_states,
    stack_parameters,
)
from .replay import PrioritizedReplayMemory, ReplayMemory, SumTree, Transition, sample_fused
from .state import StateMatrix, StateTransformer, pack_state_matrices, unpack_state_matrices

__all__ = [
    "ArrangementPolicy",
    "StateMatrix",
    "StateTransformer",
    "pack_state_matrices",
    "unpack_state_matrices",
    "CHECKPOINT_FORMAT",
    "QScorer",
    "SetQNetwork",
    "pad_state_batch",
    "q_forward",
    "score_states",
    "stack_parameters",
    "ReplayMemory",
    "PrioritizedReplayMemory",
    "SumTree",
    "Transition",
    "sample_fused",
    "FutureStatePredictorW",
    "FutureStatePredictorR",
    "expiry_branches",
    "DoubleDQNLearner",
    "TrainStepReport",
    "EpsilonGreedyExplorer",
    "GaussianPerturbationExplorer",
    "QValueAggregator",
    "AgentConfig",
    "DQNAgent",
    "FrameworkConfig",
    "TaskArrangementFramework",
    "migrate_config_tree",
    "TrainerLoop",
    "SyncTrainer",
    "AsyncTrainer",
    "SnapshotNetwork",
    "decide_lockstep",
    "observe_lockstep",
    "fused_train_steps",
]
