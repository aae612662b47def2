"""Per-worker local execution engine (paper Section 5.3).

Serial task runs + result-buffer pool, with the In-Place and Buffer
aggregation strategies for block matrix multiplication and model-byte memory
metering.  The paper's ``L`` local threads are a model parameter.
"""

from repro.localexec.engine import EngineStats, Grid, LocalEngine
from repro.localexec.pool import MemoryTracker, ResultBufferPool
from repro.localexec.tasks import (
    BlockKey,
    BlockTask,
    MultiplyAccumulateTask,
    MultiplyTask,
    TaskResult,
    buffered_matmul_tasks,
    inplace_matmul_tasks,
)

__all__ = [
    "BlockKey",
    "BlockTask",
    "EngineStats",
    "Grid",
    "LocalEngine",
    "MemoryTracker",
    "MultiplyAccumulateTask",
    "MultiplyTask",
    "ResultBufferPool",
    "TaskResult",
    "buffered_matmul_tasks",
    "inplace_matmul_tasks",
]
