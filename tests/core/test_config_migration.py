"""Checkpoint config migration: old checkpoints keep loading as config grows.

A checkpoint written before :class:`FrameworkConfig` gained a field carries a
config tree without that key; :func:`repro.core.migrate_config_tree` fills
such gaps with the current dataclass defaults (after applying any per-format
migration steps), while still rejecting truly unknown keys and unsupported
formats loudly.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core import (
    CHECKPOINT_FORMAT,
    FrameworkConfig,
    TaskArrangementFramework,
    migrate_config_tree,
)
from repro.crowd import FeatureSchema
from repro.nn import load_checkpoint, save_checkpoint

TINY = dict(hidden_dim=8, num_heads=2, batch_size=4, seed=3)


@pytest.fixture()
def schema():
    return FeatureSchema(num_categories=3, num_domains=2, award_bins=(10.0, 100.0))


class TestMigrateConfigTree:
    def test_full_current_tree_round_trips(self):
        config = FrameworkConfig(**TINY)
        assert migrate_config_tree(asdict(config), CHECKPOINT_FORMAT) == config

    def test_missing_fields_fall_back_to_defaults(self):
        """Simulates a checkpoint from before newer fields existed."""
        tree = asdict(FrameworkConfig(**TINY))
        del tree["train_interval"]
        del tree["dtype"]
        config = migrate_config_tree(tree, CHECKPOINT_FORMAT)
        assert config.train_interval == FrameworkConfig().train_interval
        assert config.dtype == FrameworkConfig().dtype
        assert config.hidden_dim == TINY["hidden_dim"]

    def test_unknown_keys_are_rejected(self):
        tree = asdict(FrameworkConfig(**TINY))
        tree["obsolete_knob"] = 1
        with pytest.raises(ValueError, match="unknown keys.*obsolete_knob"):
            migrate_config_tree(tree, CHECKPOINT_FORMAT)

    def test_unsupported_format_is_rejected(self):
        with pytest.raises(ValueError, match="unsupported checkpoint format"):
            migrate_config_tree(asdict(FrameworkConfig(**TINY)), "repro.framework/1")

    @pytest.mark.parametrize("checkpoint_format", ["repro.framework/2", CHECKPOINT_FORMAT])
    def test_removed_quality_p_knob_is_dropped(self, checkpoint_format):
        """Trees written while ``FrameworkConfig.quality_p`` existed still load."""
        tree = {**asdict(FrameworkConfig(**TINY)), "quality_p": 3.0}
        assert migrate_config_tree(tree, checkpoint_format) == FrameworkConfig(**TINY)


class TestFrameworkLoadMigration:
    def test_checkpoint_with_missing_config_keys_loads(self, schema, tmp_path):
        """An on-disk checkpoint missing later-added config fields restores."""
        framework = TaskArrangementFramework.worker_only(schema, FrameworkConfig(**TINY))
        path = framework.save(tmp_path / "old.npz")
        tree = load_checkpoint(path)
        # Rewrite the file as an older writer would have produced it: the
        # same format tag, but a config vocabulary without train_interval.
        del tree["config"]["train_interval"]
        save_checkpoint(tree, path)

        restored = TaskArrangementFramework.load(path)
        assert restored.config.train_interval == FrameworkConfig().train_interval
        assert restored.config.hidden_dim == TINY["hidden_dim"]
        state = framework.state_dict()
        restored_state = restored.state_dict()
        for name in state["agent_w"]["learner"]["online"]:
            assert np.array_equal(
                state["agent_w"]["learner"]["online"][name],
                restored_state["agent_w"]["learner"]["online"][name],
            )

    def test_checkpoint_carrying_quality_p_loads_with_equal_parameters(self, schema, tmp_path):
        framework = TaskArrangementFramework.worker_only(schema, FrameworkConfig(**TINY))
        path = framework.save(tmp_path / "with-quality-p.npz")
        tree = load_checkpoint(path)
        assert tree["format"] == CHECKPOINT_FORMAT
        tree["config"]["quality_p"] = 2.0
        save_checkpoint(tree, path)

        restored = TaskArrangementFramework.load(path)
        assert restored.config == framework.config
        state = framework.state_dict()
        restored_state = restored.state_dict()
        for name, value in state["agent_w"]["learner"]["online"].items():
            assert np.array_equal(value, restored_state["agent_w"]["learner"]["online"][name])

    def test_checkpoint_with_unknown_config_key_is_rejected(self, schema, tmp_path):
        framework = TaskArrangementFramework.worker_only(schema, FrameworkConfig(**TINY))
        path = framework.save(tmp_path / "bogus.npz")
        tree = load_checkpoint(path)
        tree["config"]["not_a_field"] = 42
        save_checkpoint(tree, path)
        with pytest.raises(ValueError, match="not_a_field"):
            TaskArrangementFramework.load(path)
