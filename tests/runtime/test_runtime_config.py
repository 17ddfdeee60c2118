"""RuntimeConfig: validation, persistence round-trip, CLI mapping.

The unified runtime API collapses the historical ``executor=`` /
``chunk_size=`` / ``retries=`` / ``task_timeout=`` / ``failure_policy=``
/ ``checkpoint=`` keyword sprawl into one value; these tests pin the
dataclass contract the facade, the CLI and model persistence all share.
"""

from __future__ import annotations

import pytest

from repro.runtime import (
    ResolvedRuntime,
    RuntimeConfig,
    SerialExecutor,
    cost_aware_block,
    record_stage_cost,
    resolve_runtime,
)


class TestValidation:
    def test_defaults_are_valid(self):
        config = RuntimeConfig()
        assert config.chunk_size == "auto"

    def test_rejects_unknown_dispatch(self):
        # Profiling has one transport: no dispatch value is known.
        with pytest.raises(TypeError, match="dispatch"):
            RuntimeConfig(dispatch="shm")

    @pytest.mark.parametrize("bad", [0, -3, 1.5, "large"])
    def test_rejects_bad_chunk_size(self, bad):
        with pytest.raises(ValueError, match="chunk_size"):
            RuntimeConfig(chunk_size=bad)

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            RuntimeConfig(retries=-1)

    def test_rejects_non_positive_timeout(self):
        with pytest.raises(ValueError, match="task_timeout_s"):
            RuntimeConfig(task_timeout_s=0.0)

    def test_rejects_unknown_failure_policy(self):
        with pytest.raises(ValueError):
            RuntimeConfig(failure_policy="shrug")

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            RuntimeConfig(resume=True)


class TestDerivedPieces:
    def test_no_resilience_by_default(self):
        assert RuntimeConfig().resilience() is None

    def test_resilience_from_knobs(self):
        res = RuntimeConfig(retries=2, task_timeout_s=1.5).resilience()
        assert res is not None
        assert res.retry.max_retries == 2
        assert res.timeout_s == 1.5
        assert res.policy.value == "retry_then_raise"

    def test_explicit_policy_without_retries(self):
        res = RuntimeConfig(failure_policy="retry_then_skip").resilience()
        assert res.policy.value == "retry_then_skip"
        assert res.retry.max_retries == 3  # documented default

    def test_no_checkpoint_without_dir(self):
        assert RuntimeConfig().checkpoint(("fit", "x")) is None

    def test_checkpoint_run_key_separates_journals(self, tmp_path):
        config = RuntimeConfig(checkpoint_dir=str(tmp_path))
        a = config.checkpoint(("fit", "a"))
        b = config.checkpoint(("fit", "b"))
        assert a.run_id != b.run_id

    def test_checkpoint_clears_unless_resume(self, tmp_path):
        config = RuntimeConfig(checkpoint_dir=str(tmp_path))
        journal = config.checkpoint("key")
        journal.put("a" * 64, [1.0])
        # A fresh (non-resume) run starts from a cleared journal…
        assert len(config.checkpoint("key")) == 0
        journal.put("b" * 64, [2.0])
        # …while resume=True keeps the journaled chunks.
        assert len(config.with_(resume=True).checkpoint("key")) == 1


class TestPersistence:
    def test_round_trip(self):
        config = RuntimeConfig(
            executor="process:2",
            chunk_size=32,
            retries=1,
            task_timeout_s=4.0,
            failure_policy="retry_then_raise",
            checkpoint_dir="/tmp/journal",
            resume=False,
        )
        assert RuntimeConfig.from_dict(config.to_dict()) == config

    def test_legacy_dispatch_key_is_ignored(self):
        # Saved models and ledger records from older versions carry a
        # "dispatch" transport choice.
        config = RuntimeConfig(executor="process:2", chunk_size=8)
        payload = {**config.to_dict(), "dispatch": "shm"}
        assert "dispatch" not in config.to_dict()
        assert RuntimeConfig.from_dict(payload) == config

    def test_executor_instance_persists_as_spec(self):
        with SerialExecutor() as pool:
            payload = RuntimeConfig(executor=pool).to_dict()
        assert isinstance(payload["executor"], str)

    def test_with_copies(self):
        base = RuntimeConfig()
        assert base.with_(chunk_size=8).chunk_size == 8
        assert base.chunk_size == "auto"


class TestResolveRuntime:
    def test_none_resolves_owned(self):
        resolved = resolve_runtime(None)
        assert resolved.owned
        resolved.close()

    def test_executor_instance_not_owned(self):
        with SerialExecutor() as pool:
            resolved = resolve_runtime(pool)
            assert resolved.executor is pool
            assert not resolved.owned
            resolved.close()  # must not close the caller's executor
            assert pool.map(lambda x: x, [1]) == [1]

    def test_resolved_passthrough_is_identity(self):
        resolved = resolve_runtime("serial")
        assert resolve_runtime(resolved) is resolved
        resolved.close()

    def test_config_with_instance_not_owned(self):
        with SerialExecutor() as pool:
            resolved = resolve_runtime(RuntimeConfig(executor=pool))
            assert not resolved.owned
            resolved.close()
            assert pool.map(lambda x: x, [1]) == [1]

    def test_garbage_raises(self):
        with pytest.raises(TypeError):
            resolve_runtime(3.14)

    def test_close_is_idempotent(self):
        resolved = resolve_runtime("serial")
        resolved.close()
        resolved.close()
        assert isinstance(resolved, ResolvedRuntime)


class TestCostAwareBlock:
    def test_fallback_divisor_without_observations(self):
        assert cost_aware_block(640, 1, "never-observed-stage") == 10

    def test_fallback_floors_at_one(self):
        assert cost_aware_block(10, 1, "never-observed-stage") == 1

    def test_zero_items(self):
        assert cost_aware_block(0, 4, "never-observed-stage") == 1

    def test_cost_model_targets_block_seconds(self):
        stage = "test-cost-model-stage"
        for _ in range(10):
            record_stage_cost(stage, wall_s=1.0, n_items=100)  # 10ms/item
        # 0.05s target / 0.01s per item = 5 items per block.
        assert cost_aware_block(10_000, 1, stage) == 5

    def test_balance_cap_with_many_workers(self):
        stage = "test-cost-cap-stage"
        for _ in range(10):
            record_stage_cost(stage, wall_s=0.000001, n_items=1000)
        # Cheap items would give a huge block; the cap keeps >= 4
        # blocks per worker for load balancing.
        assert cost_aware_block(160, 4, stage) == 10


class TestCliMapping:
    def _parse(self, extra):
        from repro.cli import build_parser

        return build_parser().parse_args(
            ["fit", "--dataset", "d.json", "--out", "m.json", *extra]
        )

    def test_flags_map_one_to_one(self, tmp_path):
        from repro.cli import _resolve_runtime

        args = self._parse(
            [
                "--chunk-size", "32",
                "--retries", "2",
                "--task-timeout", "9.5",
                "--failure-policy", "retry_then_skip",
                "--checkpoint", str(tmp_path),
            ]
        )
        resolved = _resolve_runtime(args, ("fit", "d.json", 18))
        try:
            config = resolved.config
            assert config.chunk_size == 32
            assert config.retries == 2
            assert config.task_timeout_s == 9.5
            assert config.failure_policy == "retry_then_skip"
            assert config.checkpoint_dir == str(tmp_path)
            assert config.resume is False
        finally:
            resolved.close()

    def test_default_flags_mean_legacy_path(self):
        from repro.cli import _resolve_runtime

        args = self._parse([])
        assert _resolve_runtime(args, ("fit", "d.json", 18)) is None

    def test_resume_requires_checkpoint(self):
        from repro.cli import _resolve_runtime

        args = self._parse(["--resume"])
        with pytest.raises(SystemExit, match="--checkpoint"):
            _resolve_runtime(args, ("fit", "d.json", 18))

    def test_rejects_unknown_dispatch_choice(self, capsys):
        # The flag is gone with the transports it chose between.
        with pytest.raises(SystemExit):
            self._parse(["--dispatch", "shm"])
        assert "unrecognized arguments: --dispatch" in capsys.readouterr().err
