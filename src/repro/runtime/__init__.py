"""Shared-memory streaming runtime: persistent pools + zero-copy frames.

The paper's architecture is a throughput design — one pixel per cycle,
fully pipelined.  This package gives the Python reproduction the same
posture on multi-frame workloads: worker processes that live across calls
and construct their engine exactly once (:mod:`repro.runtime.pool`,
:mod:`repro.runtime.worker`), a shared-memory ring that moves frames
between processes without pickling a single pixel
(:mod:`repro.runtime.ring`), a bounded streaming API with ordered and
as-completed result iterators (:mod:`repro.runtime.streaming`), and the
supervision layer every stream runs under, which turns worker crashes,
lost results and poison frames into retries, inline degradation or
structured failures instead of hangs (:mod:`repro.runtime.supervision`).

Quick start::

    from repro import ArchitectureConfig, EngineSpec
    from repro.kernels import BoxFilterKernel
    from repro.runtime import StreamingProcessor

    config = ArchitectureConfig(image_width=512, image_height=512,
                                window_size=16)
    spec = EngineSpec(config=config, kernel=BoxFilterKernel(16))
    with StreamingProcessor(spec, workers=4) as proc:
        for result in proc.map(frames):          # ordered, backpressured
            consume(result.index, result.outputs, result.stats)
"""

from .pool import (
    PersistentPool,
    default_workers,
    preferred_context,
    shared_pool,
    shutdown_shared_pools,
)
from ..spec import EngineSpec
from .ring import FrameRing, RingSpec
from .streaming import StreamingProcessor, StreamResult, stream_frames
from .supervision import (
    FrameFailure,
    FrameSupervisor,
    SupervisionPolicy,
    SupervisorStats,
)

__all__ = [
    "PersistentPool",
    "default_workers",
    "preferred_context",
    "shared_pool",
    "shutdown_shared_pools",
    "FrameRing",
    "RingSpec",
    "StreamingProcessor",
    "StreamResult",
    "stream_frames",
    "EngineSpec",
    "FrameFailure",
    "FrameSupervisor",
    "SupervisionPolicy",
    "SupervisorStats",
]
