"""The lazy-replication ESDS algorithm (Section 6 of the paper).

The algorithm replicates the data object at every replica, assigns each
operation a *label* from a per-replica well-ordered set, gossips
``(rcvd, done, label, stable)`` information among replicas, and uses the
system-wide minimum label of each operation as its position in the eventual
total order.  Strict operations are answered only once the replica knows the
operation is stable (done at every replica).

Modules:

* :mod:`repro.algorithm.labels` — the label space ``L = U_r L_r`` and per
  replica label generation (Section 6.3);
* :mod:`repro.algorithm.messages` — request, response and gossip messages
  (Section 6.1);
* :mod:`repro.algorithm.channel` — reliable non-FIFO channels (Section 6.1);
* :mod:`repro.algorithm.frontend` — the per-client front end (Section 6.2);
* :mod:`repro.algorithm.replica` — the replica state machine (Section 6.3),
  replaying every response from scratch as Fig. 7 does, including
  destination-specific delta gossip;
* :mod:`repro.algorithm.delta` — per-peer seqno/ack/epoch bookkeeping for
  delta gossip (an ack-based, crash-safe form of Section 10.4);
* :mod:`repro.algorithm.checkpoint` — stability-driven checkpoint compaction
  (the agreed stable prefix of Invariant 7.2 / Theorem 5.8 collapsed into a
  base state, bounding replica memory by the unstable suffix);
* :mod:`repro.algorithm.fastcore` — the production replica core: interned
  label keys, one derived knowledge set, order splices deferred across a
  gossip batch, a memoized compaction prefix and a response-replay cache
  (the reference automaton above stays the oracle); :mod:`repro.algorithm.batchcore` holds only the
  ``core_factory`` that picks between the two;
* :mod:`repro.algorithm.memoized` — the memoizing replica ESDS-Alg'
  (Section 10.1);
* :mod:`repro.algorithm.commute` — the ``Commute`` replica exploiting
  commutativity (Section 10.3);
* :mod:`repro.algorithm.node` — the sans-IO replica node: the one place a
  burst of inbound messages becomes core calls and an outbox, driven by both
  the simulator and the asyncio runtime;
* :mod:`repro.algorithm.system` — the complete system ``ESDS-Alg x Users``
  (Section 6.4), a :class:`~repro.deployment.Deployment` driven
  action-by-action.
"""

from repro.algorithm.labels import Label, LabelGenerator, label_sort_key
from repro.algorithm.checkpoint import (
    Checkpoint,
    CheckpointAdvert,
    CompactionLedger,
    CompactionPolicy,
    OpIdSummary,
)
from repro.algorithm.delta import GossipSnapshot, PeerInState, PeerOutState
from repro.algorithm.messages import (
    CheckpointTransferMessage,
    GossipMessage,
    PullRequestMessage,
    RequestMessage,
    ResponseMessage,
)
from repro.algorithm.channel import Channel
from repro.algorithm.frontend import FrontEndCore
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.replica import ReplicaCore
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.algorithm.commute import CommuteReplicaCore
from repro.algorithm.node import ReplicaNode
from repro.algorithm.system import AlgorithmSystem

__all__ = [
    "Label",
    "LabelGenerator",
    "label_sort_key",
    "Checkpoint",
    "CheckpointAdvert",
    "CheckpointTransferMessage",
    "CompactionLedger",
    "CompactionPolicy",
    "OpIdSummary",
    "PullRequestMessage",
    "GossipMessage",
    "GossipSnapshot",
    "PeerInState",
    "PeerOutState",
    "RequestMessage",
    "ResponseMessage",
    "Channel",
    "FrontEndCore",
    "ReplicaCore",
    "FastReplicaCore",
    "MemoizedReplicaCore",
    "CommuteReplicaCore",
    "ReplicaNode",
    "AlgorithmSystem",
]
