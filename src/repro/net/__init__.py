"""Simulated distributed-memory machine with the paper's cost model.

* :class:`~repro.net.machine.Machine` — SPMD generator programs
  scheduled by the event engine of :mod:`repro.sim`;
* :class:`~repro.sim.network.Network` — message arrival model
  (``"alpha-beta"`` flat compatibility model or ``"contended"``
  link-level hierarchy), re-exported here for convenience;
* :class:`~repro.net.costmodel.MachineSpec` — alpha-beta constants
  (presets: SUPERMUC, LAN, CLOUD);
* :mod:`~repro.net.comm` — collectives built from point-to-point
  messages (barrier, allreduce, dense & sparse all-to-all);
* :class:`~repro.net.aggregation.BufferedMessageQueue` — DITRIC's
  dynamic aggregation with linear memory;
* :class:`~repro.net.indirect.GridRouter` — 2D-grid indirect delivery;
* :mod:`~repro.net.reliable` — reliable/lossy transports under the
  :mod:`repro.faults` fault model (sequence numbers, acks, retransmit,
  dedup), costs charged to the alpha-beta model;
* :mod:`~repro.net.shm` — the zero-copy shared-memory frame pool the
  process backend uses to move payloads between workers without
  pickling (``ProcessMachine(..., shm=...)``, see
  ``docs/PERFORMANCE.md``).
"""

from .aggregation import BufferedMessageQueue
from .frames import (
    ForwardFrame,
    RecordFrame,
    merge_frames,
)
from .comm import (
    allreduce,
    alltoallv_dense,
    barrier,
    bcast,
    drain,
    reduce_to_root,
    sparse_alltoall,
)
from .costmodel import CLOUD, DEFAULT_SPEC, LAN, SUPERMUC, MachineSpec
from .indirect import Grid, GridRouter
from .machine import (
    DeadlockError,
    Machine,
    MachineResult,
    OutOfMemoryError,
    PEContext,
    PECrashError,
    ProtocolError,
)
from .messages import HEADER_WORDS, Message
from .metrics import PEMetrics, RunMetrics
from .parallel import ProcessMachine, RemoteDist
from .shm import (
    PoolHandle,
    SharedFramePool,
    ShmObjectHandle,
    ShmPayload,
    attach_object,
    publish_object,
    shm_supported,
)
from .reliable import (
    LossyTransport,
    ReliableConfig,
    ReliableTransport,
    TransportError,
    fault_tolerant,
    reliable_send,
)
from .trace import SpanRecord, TraceEvent, Tracer, render_timeline
from ..sim.engine import EngineStats
from ..sim.network import Link, Network, NetworkStats

__all__ = [
    "EngineStats",
    "Link",
    "Network",
    "NetworkStats",
    "BufferedMessageQueue",
    "RecordFrame",
    "ForwardFrame",
    "merge_frames",
    "allreduce",
    "alltoallv_dense",
    "barrier",
    "bcast",
    "drain",
    "reduce_to_root",
    "sparse_alltoall",
    "CLOUD",
    "DEFAULT_SPEC",
    "LAN",
    "SUPERMUC",
    "MachineSpec",
    "Grid",
    "GridRouter",
    "DeadlockError",
    "Machine",
    "MachineResult",
    "OutOfMemoryError",
    "PEContext",
    "PECrashError",
    "ProtocolError",
    "LossyTransport",
    "ReliableConfig",
    "ReliableTransport",
    "TransportError",
    "fault_tolerant",
    "reliable_send",
    "HEADER_WORDS",
    "Message",
    "PEMetrics",
    "RunMetrics",
    "ProcessMachine",
    "RemoteDist",
    "PoolHandle",
    "SharedFramePool",
    "ShmObjectHandle",
    "ShmPayload",
    "attach_object",
    "publish_object",
    "shm_supported",
    "SpanRecord",
    "TraceEvent",
    "Tracer",
    "render_timeline",
]
