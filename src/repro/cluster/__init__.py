"""repro.cluster -- the distributed stripe store.

The paper's encode/decode kernels, lifted from a single-process
simulator to separate failure domains: strips live on asyncio TCP
:class:`~repro.cluster.node.StripNode` servers, and one
:class:`~repro.cluster.client.ClusterArray` client stripes writes
across them, serves degraded reads by decoding survivor strips (the
optimal Algorithm 4 path for Liberation codes), and routes every strip
through a holder map over an epoch-numbered membership table.  On a
``k + 2`` node pool column *c* lives on node *c*, and
:class:`~repro.cluster.rebuild.RebuildScheduler` rebuilds a lost
column onto a replacement; a larger pool places stripes by rendezvous
hashing, and :class:`~repro.cluster.rebalance.Rebalancer` migrates
strips as nodes join, drain and die.

Modules:

* :mod:`repro.cluster.protocol` -- length-prefixed CRC-32 framing;
* :mod:`repro.cluster.node` -- the strip server;
* :mod:`repro.cluster.client` -- retrying RPC + the striped array
  (holder routing, epoch-bump retry, per-stripe write lock);
* :mod:`repro.cluster.rebuild` -- background batch rebuild of a column;
* :mod:`repro.cluster.scrub` -- distributed scrub & repair (the
  paper's single-column locator, applied over the wire);
* :mod:`repro.cluster.health` -- heartbeats that drive membership
  verdicts, circuit breakers and automatic fail-to-rebuilt healing;
* :mod:`repro.cluster.txn` -- atomic stripe updates via two-phase
  commit (the distributed write-hole fix);
* :mod:`repro.cluster.membership` -- epoch-numbered node states
  (join/live/drain/dead);
* :mod:`repro.cluster.placement` -- deterministic rendezvous placement
  of stripes over the live pool (minimal movement under churn);
* :mod:`repro.cluster.rebalance` -- throttled, crash-safe stripe
  migration converging routing onto placement (drains, heals, joins);
* :mod:`repro.cluster.local` -- an in-process node pool for tests and
  examples.

The counters and histograms behind the ``stats`` verb and the
``repro stats`` CLI view come from :mod:`repro.obs.metrics`.
"""

from repro.cluster.client import (
    ClusterArray,
    ClusterDegradedError,
    ClusterError,
    NodeClient,
    NodeUnavailableError,
    RemoteDiskError,
    RetryPolicy,
    send_verb,
)
from repro.cluster.health import BreakerState, CircuitBreaker, HealthMonitor
from repro.cluster.local import LocalCluster
from repro.cluster.membership import MembershipError, MembershipTable, NodeState
from repro.cluster.node import NodeCrashPlan, NodeCrashed, StripNode
from repro.cluster.placement import PlacementError, PlacementMap, place_stripe
from repro.cluster.rebalance import RebalanceError, Rebalancer, TokenBucket
from repro.cluster.protocol import (
    FrameChecksumError,
    ProtocolError,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.cluster.rebuild import RebuildScheduler
from repro.cluster.scrub import ClusterScrubReport, ClusterScrubber
from repro.cluster.txn import ClientCrash, TwoPhaseWriter, TxnCrashPoint
from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ClientCrash",
    "ClusterArray",
    "ClusterDegradedError",
    "ClusterError",
    "ClusterScrubReport",
    "ClusterScrubber",
    "Counter",
    "FrameChecksumError",
    "HealthMonitor",
    "Histogram",
    "LocalCluster",
    "MembershipError",
    "MembershipTable",
    "MetricsRegistry",
    "NodeClient",
    "NodeCrashPlan",
    "NodeCrashed",
    "NodeState",
    "NodeUnavailableError",
    "PlacementError",
    "PlacementMap",
    "ProtocolError",
    "RebalanceError",
    "Rebalancer",
    "RebuildScheduler",
    "RemoteDiskError",
    "RetryPolicy",
    "StripNode",
    "TokenBucket",
    "TwoPhaseWriter",
    "TxnCrashPoint",
    "place_stripe",
    "encode_frame",
    "read_frame",
    "send_verb",
    "write_frame",
]
