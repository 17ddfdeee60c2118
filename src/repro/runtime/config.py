"""Unified runtime configuration: one dataclass instead of six keywords.

Execution knobs accreted one keyword at a time — ``executor=``,
``chunk_size=``, ``retries=``, ``task_timeout=``, ``failure_policy=``,
``checkpoint=`` — each threaded separately through the facade, the CLI
and the experiment context.  :class:`RuntimeConfig` collapses them into
a single value that travels as one argument, persists in saved models
(like ``memo=``), and maps one-to-one onto CLI flags:

==================  ======================  =====================
legacy keyword      RuntimeConfig field     CLI flag
==================  ======================  =====================
``executor=``       ``executor``            ``--executor``
``chunk_size=``     ``chunk_size``          ``--chunk-size``
``retries=``        ``retries``             ``--retries``
``task_timeout=``   ``task_timeout_s``      ``--task-timeout``
``failure_policy=`` ``failure_policy``      ``--failure-policy``
``checkpoint=``     ``checkpoint_dir``      ``--checkpoint``
(new)               ``resume``              ``--resume``
==================  ======================  =====================

Cost-aware chunking lives here too: fan-out stages record their
measured per-item cost into a :mod:`repro.obs` histogram
(:func:`record_stage_cost`) and :func:`cost_aware_block` sizes the next
dispatch from it, replacing the fixed ``len(items) // 64`` heuristic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from ..obs.metrics import get_metrics, observe

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .cache import CheckpointJournal
    from .executor import Executor
    from .resilience import ResilienceConfig

__all__ = [
    "RuntimeConfig",
    "ResolvedRuntime",
    "resolve_runtime",
    "record_stage_cost",
    "cost_aware_block",
]

#: Histogram-name prefix for measured per-item stage costs.
_COST_PREFIX = "item_cost_s:"

#: Target wall-clock of one dispatched block under cost-aware chunking —
#: large enough to amortise dispatch overhead, small enough to keep the
#: pool load-balanced and the checkpoint journal fine-grained.
_TARGET_BLOCK_SECONDS = 0.05

#: Minimum observations before the cost model is trusted over the
#: legacy divisor heuristic.
_MIN_COST_SAMPLES = 8


@dataclass(frozen=True)
class RuntimeConfig:
    """Everything about *how* the pipeline executes, in one value.

    The default configuration reproduces historical behaviour exactly:
    executor resolution falls through to the ``REPRO_EXECUTOR``
    environment variable (serial fallback), chunking is chosen
    automatically, and no resilience or checkpointing is
    attached.  Like everything else in the runtime, none of these knobs
    may change results — only speed and failure behaviour.
    """

    executor: "Executor | str | None" = None
    chunk_size: "int | str" = "auto"
    retries: int | None = None
    task_timeout_s: float | None = None
    failure_policy: str | None = None
    checkpoint_dir: str | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.chunk_size != "auto":
            if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
                raise ValueError(
                    "chunk_size must be a positive int or 'auto', got "
                    f"{self.chunk_size!r}"
                )
        if self.retries is not None and self.retries < 0:
            raise ValueError("retries must be non-negative (or None)")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0.0:
            raise ValueError("task_timeout_s must be positive (or None)")
        if self.failure_policy is not None:
            from .resilience import FailurePolicy

            FailurePolicy.parse(self.failure_policy)
        if self.resume and not self.checkpoint_dir:
            raise ValueError("resume=True requires checkpoint_dir")

    # ------------------------------------------------------------------
    def resilience(self) -> "ResilienceConfig | None":
        """The failure model these knobs describe (``None`` = no-op)."""
        wants = (
            self.failure_policy is not None
            or self.retries is not None
            or self.task_timeout_s is not None
        )
        if not wants:
            return None
        from .resilience import ResilienceConfig, RetryPolicy

        retry = RetryPolicy(
            max_retries=self.retries if self.retries is not None else 3
        )
        return ResilienceConfig(
            policy=self.failure_policy or "retry_then_raise",
            retry=retry,
            timeout_s=self.task_timeout_s,
        )

    def checkpoint(self, run_key: Any = "default") -> "CheckpointJournal | None":
        """The resume journal for one logical run (``None`` = off).

        *run_key* digests into the journal's run id, so resuming only
        ever restores chunks journaled by an identical invocation.
        Without ``resume`` the journal starts clean.
        """
        if not self.checkpoint_dir:
            return None
        from .cache import CheckpointJournal

        run_id = hashlib.sha256(repr(run_key).encode()).hexdigest()[:16]
        journal = CheckpointJournal(self.checkpoint_dir, run_id)
        if not self.resume:
            journal.clear()
        return journal

    def resolve(self, run_key: Any = "default") -> "Executor":
        """Build the configured executor, resilience and journal attached."""
        from .executor import resolve_executor

        return resolve_executor(
            self.executor,
            resilience=self.resilience(),
            checkpoint=self.checkpoint(run_key),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able form for model persistence (executor as its spec)."""
        executor = self.executor
        if executor is not None and not isinstance(executor, str):
            # A live executor instance is session state, not
            # configuration; persist its spec string instead.
            workers = getattr(executor, "max_workers", None)
            name = getattr(executor, "name", "serial")
            executor = f"{name}:{workers}" if workers else name
        return {
            "executor": executor,
            "chunk_size": self.chunk_size,
            "retries": self.retries,
            "task_timeout_s": self.task_timeout_s,
            "failure_policy": self.failure_policy,
            "checkpoint_dir": self.checkpoint_dir,
            "resume": self.resume,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RuntimeConfig":
        """Inverse of :meth:`to_dict`.

        Unknown keys are ignored, so payloads saved by older versions
        (which carried a ``"dispatch"`` transport choice) still load.
        """
        return cls(
            executor=payload.get("executor"),
            chunk_size=payload.get("chunk_size", "auto"),
            retries=payload.get("retries"),
            task_timeout_s=payload.get("task_timeout_s"),
            failure_policy=payload.get("failure_policy"),
            checkpoint_dir=payload.get("checkpoint_dir"),
            resume=bool(payload.get("resume", False)),
        )

    def with_(self, **changes) -> "RuntimeConfig":
        """A copy with *changes* applied (convenience over ``replace``)."""
        return replace(self, **changes)


@dataclass
class ResolvedRuntime:
    """A :class:`RuntimeConfig` plus the live executor it resolved to.

    ``owned`` records whether *this* resolution created the executor —
    only owned executors are closed by :meth:`close`, so passing a
    caller-managed executor through the facade never shuts it down
    underneath them.
    """

    executor: "Executor"
    config: RuntimeConfig
    owned: bool = False

    def close(self) -> None:
        if self.owned:
            self.executor.close()
            self.owned = False


def resolve_runtime(
    value: "ResolvedRuntime | RuntimeConfig | Executor | str | None",
    run_key: Any = "default",
) -> ResolvedRuntime:
    """Normalise any accepted ``runtime=`` spelling to a resolved pair.

    Accepts an already-resolved runtime (returned unchanged, so the
    facade can resolve once and thread the result through internal
    layers), a :class:`RuntimeConfig`, a bare executor instance, a spec
    string (``"process:4"``), or ``None`` for the defaults.
    """
    if isinstance(value, ResolvedRuntime):
        return value
    from .executor import Executor

    if value is None or isinstance(value, str):
        config = RuntimeConfig(executor=value)
        return ResolvedRuntime(config.resolve(run_key), config, owned=True)
    if isinstance(value, RuntimeConfig):
        executor = value.executor
        owned = executor is None or isinstance(executor, str)
        return ResolvedRuntime(value.resolve(run_key), value, owned=owned)
    if isinstance(value, Executor):
        return ResolvedRuntime(value, RuntimeConfig(), owned=False)
    raise TypeError(f"cannot resolve a runtime from {value!r}")


# ----------------------------------------------------------------------
def record_stage_cost(stage: str, wall_s: float, n_items: int) -> None:
    """Record one fan-out's measured per-item cost for *stage*.

    Observed unconditionally (parent side, one call per fan-out), unlike
    the trace-gated ``task_latency_s`` histograms — this is the feedback
    signal :func:`cost_aware_block` sizes the *next* dispatch from.
    """
    if n_items > 0 and wall_s >= 0.0:
        observe(f"{_COST_PREFIX}{stage}", wall_s / n_items)


def cost_aware_block(
    n_items: int,
    n_workers: int,
    stage: str,
    *,
    fallback_divisor: int = 64,
) -> int:
    """Items per dispatched block, sized from measured per-item cost.

    With enough cost observations for *stage*, the block targets
    ``_TARGET_BLOCK_SECONDS`` of work; otherwise the legacy
    ``n_items // fallback_divisor`` heuristic applies.  Either way the
    block is capped so every worker sees at least ~4 blocks (load
    balancing) and floored at 1.
    """
    if n_items <= 0:
        return 1
    balance_cap = max(1, -(-n_items // (4 * max(1, n_workers))))
    hist = get_metrics().histogram(f"{_COST_PREFIX}{stage}")
    if hist is not None and hist.count >= _MIN_COST_SAMPLES and hist.mean > 0:
        ideal = max(1, int(_TARGET_BLOCK_SECONDS / hist.mean))
    else:
        ideal = max(1, n_items // fallback_divisor)
    return min(ideal, balance_cap) if n_workers > 1 else ideal
