"""Runtime checks of the paper's invariants.

``AlgorithmInvariantChecker`` checks the state of any
:class:`~repro.deployment.Deployment` — the action-level
:class:`~repro.algorithm.system.AlgorithmSystem`, a simulated or a networked
cluster, passed as is — against the invariants of Sections 4, 7 and 8 (and
the Section 10 invariants for the memoizing replica).
``SpecInvariantChecker`` checks an ESDS-I/II specification automaton
against the invariants of Section 5.2.

Each invariant is a separate method named after the paper's numbering, so a
failing test points directly at the corresponding claim; ``check_all`` runs
every applicable check and raises :class:`~repro.common.InvariantViolation`
with the invariant name on failure.

With checkpoint compaction enabled (:mod:`repro.algorithm.checkpoint`) a
replica's raw sets cover only the unstable suffix; the Section 7/8 claims
are then evaluated against the **checkpoint + suffix** view:

* membership invariants (7.4, 7.13, and message checks in 7.3) treat a
  replica's compacted operations — reconstructed from the system's
  :class:`~repro.algorithm.checkpoint.CompactionLedger` — as received, done
  and stable;
* label invariants (7.10, 7.17, 7.19) skip identifiers a replica has
  compacted: the archived label was the global minimum when it was dropped
  (Invariant 7.19), which the dedicated checkpoint invariant re-verifies
  structurally;
* order invariants (7.21, 8.3) compare only operations still tracked
  somewhere; the frozen order of the compacted prefix is checked directly
  against the ledger by :meth:`invariant_checkpoint_compaction` (nestedness,
  frontier below every tracked label, base state = prefix replay, retained
  values = replay values).

Under **advert/pull** gossip the gossip channels additionally carry pull
requests and checkpoint transfers.  Those are not ``(R, D, L, S)``
messages: the per-message Section 7 checks apply only to ``kind ==
"gossip"`` traffic, while :meth:`invariant_advert_pull_messages` checks the
catch-up protocol's own structural claims (an advertised or transferred
frontier never ahead of the sender's, transferred content nested within the
agreed ledger prefix).  An advert is treated as *knowledge* only once the
pull it triggers completes — the effective-view evaluation of in-transit
messages therefore ignores adverts, matching what receiving one actually
does to a caught-up replica (nothing beyond stability marking).
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Set

from repro.algorithm.labels import label_sort_key
from repro.algorithm.memoized import MemoizedReplicaCore
from repro.common import INFINITY, InvariantViolation, OperationId
from repro.core.operations import client_specified_constraints
from repro.core.orders import transitive_closure
from repro.deployment import Deployment
from repro.spec.base import EsdsSpecBase


def _fail(name: str, detail: str) -> None:
    raise InvariantViolation(f"{name}: {detail}")


class AlgorithmInvariantChecker:
    """Checks the Section 7/8 invariants on a deployment of the algorithm.

    A timed driver keeps no explicit channels, so its in-transit messages
    are not seen: check it once quiescent (:meth:`Deployment.fully_converged`).
    """

    def __init__(self, system: Deployment) -> None:
        self.system = system

    # -- checkpoint + suffix views ---------------------------------------------

    def _compacted(self, replica_id: str) -> Set:
        """The operations *replica_id* has folded into its checkpoint, as
        descriptors (reconstructed from the system's compaction ledger)."""
        replica = self.system.replicas[replica_id]
        if not replica.checkpoint.count:
            return set()
        return set(self.system.compacted_ops(replica_id))

    def _is_compacted(self, replica_id: str, op_id: OperationId) -> bool:
        return self.system.replicas[replica_id].checkpoint.covers(op_id)

    @staticmethod
    def _gossip_messages(channel):
        """The ``(R, D, L, S)`` messages in transit on *channel* — pull and
        checkpoint-transfer traffic shares the gossip channels but has its
        own structural check (:meth:`invariant_advert_pull_messages`)."""
        return [m for m in channel.contents() if m.kind == "gossip"]

    # -- entry points ----------------------------------------------------------

    def check_all(self) -> None:
        """Run every invariant check; raise on the first violation."""
        self.invariant_4_1_unique_identifiers()
        self.invariant_4_2_csc_is_strict_partial_order()
        self.invariant_7_1_local_knowledge_dominates()
        self.invariant_7_2_stable_is_done_everywhere()
        self.invariant_7_3_gossip_not_ahead_of_sender()
        self.invariant_7_4_remote_knowledge_not_ahead()
        self.invariant_7_5_labels_exactly_for_done()
        self.invariant_7_6_everything_was_requested()
        self.invariant_7_7_replies_are_done()
        self.invariant_7_8_answered_requests_are_done()
        self.invariant_7_10_prev_labels_not_larger()
        self.invariant_7_11_local_constraints_acyclic()
        self.invariant_7_12_system_constraints_acyclic()
        self.invariant_7_13_own_labels_imply_done()
        self.invariant_7_15_labels_total_on_done()
        self.invariant_7_17_own_label_is_minimum_seen()
        self.invariant_7_19_stable_prefix_has_min_labels()
        self.invariant_7_21_stable_order_matches_minlabel()
        self.invariant_8_1_po_is_partial_order()
        self.invariant_8_3_stable_ordered_by_minlabel()
        self.invariant_10_memoized_replicas()
        self.invariant_checkpoint_compaction()
        self.invariant_advert_pull_messages()

    def __call__(self, *_args, **_kwargs) -> None:
        """Allow use as a step hook."""
        self.check_all()

    # -- Section 4 -------------------------------------------------------------

    def invariant_4_1_unique_identifiers(self) -> None:
        # ``requested`` is keyed by identifier, so count the request events.
        ids = [x.id for x in self.system.trace.requests]
        if len(ids) != len(set(ids)):
            _fail("Invariant 4.1", "duplicate operation identifiers in requested")

    def invariant_4_2_csc_is_strict_partial_order(self) -> None:
        closure = transitive_closure(
            client_specified_constraints(self.system.requested.values())
        )
        if any(a == b for a, b in closure):
            _fail("Invariant 4.2", "client-specified constraints contain a cycle")

    # -- Section 7: basic invariants -------------------------------------------

    def invariant_7_1_local_knowledge_dominates(self) -> None:
        for r, replica in self.system.replicas.items():
            union_done = set().union(*replica.done.values())
            union_stable = set().union(*replica.stable.values())
            if replica.done_here() != union_done:
                _fail("Invariant 7.1", f"done_{r}[{r}] != U_i done_{r}[i]")
            if replica.stable_here() != union_stable:
                _fail("Invariant 7.1", f"stable_{r}[{r}] != U_i stable_{r}[i]")

    def invariant_7_2_stable_is_done_everywhere(self) -> None:
        for r, replica in self.system.replicas.items():
            intersection = set.intersection(*(replica.done[i] for i in replica.replica_ids))
            if replica.stable_here() != intersection:
                _fail("Invariant 7.2", f"stable_{r}[{r}] != ⋂_i done_{r}[i]")

    def invariant_7_3_gossip_not_ahead_of_sender(self) -> None:
        # Delta messages are checked through their *effective* views
        # (delta ∪ acknowledged basis) — the knowledge the message conveys,
        # which is exactly what a full message sent at the same instant would
        # have carried.  A sender may have compacted operations an in-flight
        # message still lists; its checkpoint + suffix view still covers them.
        for (src, dst), channel in self.system.gossip_channels.items():
            sender = self.system.replicas[src]
            compacted = self._compacted(src)
            for message in self._gossip_messages(channel):
                if not message.effective_received() <= sender.rcvd | compacted:
                    _fail("Invariant 7.3", f"gossip {src}->{dst}: R not within rcvd_{src}")
                if not message.effective_done() <= sender.done_here() | compacted:
                    _fail("Invariant 7.3", f"gossip {src}->{dst}: D not within done_{src}")
                if not message.effective_stable() <= sender.stable_here() | compacted:
                    _fail("Invariant 7.3", f"gossip {src}->{dst}: S not within stable_{src}")
                if not message.effective_stable() <= message.effective_done():
                    _fail("Invariant 7.3", f"gossip {src}->{dst}: S not within D")
                for op_id, label in message.effective_labels().items():
                    if self._is_compacted(src, op_id):
                        # The sender's archived label was the global minimum
                        # (Invariant 7.19), so it cannot exceed the message's.
                        continue
                    if label_sort_key(sender.label_of(op_id)) > label_sort_key(label):
                        _fail(
                            "Invariant 7.3",
                            f"gossip {src}->{dst}: message label for {op_id} below sender's",
                        )
                coverage = message.coverage()
                if coverage is not None and coverage.count:
                    frontier = sender.checkpoint.frontier
                    if frontier is None or label_sort_key(
                        coverage.frontier
                    ) > label_sort_key(frontier):
                        _fail(
                            "Invariant 7.3",
                            f"gossip {src}->{dst}: checkpoint frontier ahead of sender's",
                        )

    def invariant_7_4_remote_knowledge_not_ahead(self) -> None:
        for r, replica in self.system.replicas.items():
            for i in replica.replica_ids:
                actual = self.system.replicas[i]
                compacted = self._compacted(i)
                if not replica.done[i] <= actual.done_here() | compacted:
                    _fail("Invariant 7.4", f"done_{r}[{i}] not within done_{i}[{i}]")
                if not replica.stable[i] <= actual.stable_here() | compacted:
                    _fail("Invariant 7.4", f"stable_{r}[{i}] not within stable_{i}[{i}]")

    def invariant_7_5_labels_exactly_for_done(self) -> None:
        for r, replica in self.system.replicas.items():
            done_ids = {x.id for x in replica.done_here()}
            labelled_ids = set(replica.labels)
            if done_ids != labelled_ids:
                _fail(
                    "Invariant 7.5",
                    f"replica {r}: labelled ids {len(labelled_ids)} != done ids {len(done_ids)}",
                )
        for (src, dst), channel in self.system.gossip_channels.items():
            for message in self._gossip_messages(channel):
                if {x.id for x in message.effective_done()} != set(message.effective_labels()):
                    _fail("Invariant 7.5", f"gossip {src}->{dst}: D.id != labelled ids")

    def invariant_7_6_everything_was_requested(self) -> None:
        requested = set(self.system.requested.values())
        in_flight: Set = set()
        for channel in self.system.request_channels.values():
            in_flight |= {m.operation for m in channel.contents()}
        everything: Set = set()
        for frontend in self.system.frontends.values():
            everything |= frontend.wait
        everything |= in_flight
        for replica in self.system.replicas.values():
            everything |= replica.rcvd
        everything |= self.system.ops()
        if not everything <= requested:
            _fail("Invariant 7.6", "operation present in the system but never requested")

    def invariant_7_7_replies_are_done(self) -> None:
        ops = self.system.ops()
        for client, frontend in self.system.frontends.items():
            answered = {x for (x, _v) in frontend.rept}
            answered |= {x for (x, _v) in self.system.potential_rept(client)}
            if not answered <= ops:
                _fail("Invariant 7.7", f"client {client}: reply for an operation not done anywhere")

    def invariant_7_8_answered_requests_are_done(self) -> None:
        waiting: Set = set()
        for frontend in self.system.frontends.values():
            waiting |= frontend.wait
        finished = set(self.system.requested.values()) - waiting
        if not finished <= self.system.ops():
            _fail("Invariant 7.8", "a request left wait without being done at a replica")

    # -- Section 7: constraint invariants --------------------------------------

    def invariant_7_10_prev_labels_not_larger(self) -> None:
        ops = self.system.ops()
        csc = client_specified_constraints(ops)
        for r, replica in self.system.replicas.items():
            for before, after in csc:
                if self._is_compacted(r, after):
                    # The prefix property makes the strengthened claim
                    # checkable without labels: a compacted operation's
                    # predecessors must have been compacted with it.
                    if not self._is_compacted(r, before):
                        _fail(
                            "Invariant 7.10",
                            f"replica {r}: {after} compacted but its prev {before} is not",
                        )
                    continue
                if self._is_compacted(r, before):
                    continue  # archived below the frontier; after's label is above it
                if label_sort_key(replica.label_of(before)) > label_sort_key(replica.label_of(after)):
                    _fail(
                        "Invariant 7.10",
                        f"replica {r}: label({before}) > label({after}) despite prev constraint",
                    )
        for (src, dst), channel in self.system.gossip_channels.items():
            for message in self._gossip_messages(channel):
                # Coverage = the attached checkpoint body or advert (both
                # are structural assertions by the sender about its frozen
                # prefix), falling back to a delta's acknowledged basis.
                coverage = message.coverage()
                if coverage is None:
                    coverage = message.effective_checkpoint()
                for before, after in csc:
                    if coverage is not None and coverage.covers(after):
                        if not coverage.covers(before):
                            _fail(
                                "Invariant 7.10",
                                f"gossip {src}->{dst}: checkpoint covers {after} "
                                f"but not its prev {before}",
                            )
                        continue
                    if coverage is not None and coverage.covers(before):
                        continue
                    if label_sort_key(message.label_of(before)) > label_sort_key(message.label_of(after)):
                        _fail(
                            "Invariant 7.10",
                            f"gossip {src}->{dst}: L({before}) > L({after}) despite prev constraint",
                        )

    def invariant_7_11_local_constraints_acyclic(self) -> None:
        ops = self.system.ops()
        csc = client_specified_constraints(ops)
        for r in self.system.replica_ids:
            closure = transitive_closure(csc | self.system.local_constraints(r))
            if any(a == b for a, b in closure):
                _fail("Invariant 7.11", f"TC(CSC(ops) u lc_{r}) has a cycle")

    def invariant_7_12_system_constraints_acyclic(self) -> None:
        ops = self.system.ops()
        csc = client_specified_constraints(ops)
        closure = transitive_closure(csc | self.system.system_constraints())
        if any(a == b for a, b in closure):
            _fail("Invariant 7.12", "TC(CSC(ops) u sc) has a cycle")

    def invariant_7_13_own_labels_imply_done(self) -> None:
        ops = self.system.ops()
        for r, replica in self.system.replicas.items():
            done_here = replica.done_here()
            for x in ops:
                if self._is_compacted(r, x.id):
                    continue  # done at r; the record lives in the checkpoint
                for other in self.system.replicas.values():
                    label = other.label_of(x.id)
                    if label is not INFINITY and label.replica == r and x not in done_here:
                        _fail(
                            "Invariant 7.13",
                            f"operation {x.id} labelled from L_{r} but not done at {r}",
                        )

    def invariant_7_15_labels_total_on_done(self) -> None:
        for r, replica in self.system.replicas.items():
            labels = [replica.label_of(x.id) for x in replica.done_here()]
            keys = [label_sort_key(l) for l in labels]
            if len(keys) != len(set(keys)):
                _fail("Invariant 7.15", f"replica {r}: two done operations share a label")
            if any(l is INFINITY for l in labels):
                _fail("Invariant 7.15", f"replica {r}: a done operation has no label")

    def invariant_7_17_own_label_is_minimum_seen(self) -> None:
        # Identifiers compacted at r are skipped: r archived the global
        # minimum label for them (Invariant 7.19), so nothing seen elsewhere
        # can be smaller.
        for r, replica in self.system.replicas.items():
            for other in self.system.replicas.values():
                for op_id, label in other.labels.items():
                    if label.replica == r and not self._is_compacted(r, op_id):
                        if label_sort_key(replica.label_of(op_id)) > label_sort_key(label):
                            _fail(
                                "Invariant 7.17",
                                f"replica {r} has a larger label for {op_id} than its own label "
                                f"held elsewhere",
                            )
            for (_src, _dst), channel in self.system.gossip_channels.items():
                for message in self._gossip_messages(channel):
                    for op_id, label in message.effective_labels().items():
                        if label.replica == r and not self._is_compacted(r, op_id):
                            if label_sort_key(replica.label_of(op_id)) > label_sort_key(label):
                                _fail(
                                    "Invariant 7.17",
                                    f"replica {r} has a larger label for {op_id} than a gossiped "
                                    f"label from L_{r}",
                                )

    def invariant_7_19_stable_prefix_has_min_labels(self) -> None:
        # ``minlabel`` ranges over replicas that still track the identifier;
        # an identifier compacted at r is skipped for r (its archived label
        # was the minimum), and one compacted everywhere has no tracked
        # minimum to compare at all (its order is frozen in the checkpoint,
        # audited by invariant_checkpoint_compaction).
        for r, replica in self.system.replicas.items():
            for stable_op in replica.stable_here():
                stable_min = label_sort_key(self.system.minlabel(stable_op.id))
                for x in self.system.ops():
                    if self._is_compacted(r, x.id):
                        continue
                    if label_sort_key(self.system.minlabel(x.id)) <= stable_min:
                        if label_sort_key(replica.label_of(x.id)) != label_sort_key(
                            self.system.minlabel(x.id)
                        ):
                            _fail(
                                "Invariant 7.19",
                                f"replica {r} does not hold the minimum label for {x.id} although "
                                f"{stable_op.id} is stable with a larger minimum label",
                            )

    def invariant_7_21_stable_order_matches_minlabel(self) -> None:
        # Restricted to operations still tracked everywhere: once an
        # identifier is compacted somewhere its minimum label is partially
        # forgotten, and its (frozen) order is audited against the ledger by
        # invariant_checkpoint_compaction instead.
        compacted_anywhere = self.system.compaction_ledger.ids
        everywhere_stable = self.system.stable_everywhere()
        ops = self.system.ops()
        constraints = transitive_closure(
            client_specified_constraints(ops) | self.system.system_constraints()
        )
        for x in everywhere_stable:
            if x.id in compacted_anywhere:
                continue
            for y in ops:
                if x.id == y.id or y.id in compacted_anywhere:
                    continue
                expected = label_sort_key(self.system.minlabel(x.id)) < label_sort_key(
                    self.system.minlabel(y.id)
                )
                actual = (x.id, y.id) in constraints
                if expected != actual:
                    _fail(
                        "Invariant 7.21",
                        f"ordering of stable {x.id} vs {y.id} disagrees with minimum labels",
                    )

    # -- Section 8 --------------------------------------------------------------

    def invariant_8_1_po_is_partial_order(self) -> None:
        try:
            po = self.system.partial_order()
        except ValueError as exc:
            _fail("Invariant 8.1", f"derived po is cyclic: {exc}")
            return
        ops_ids = {x.id for x in self.system.ops()}
        if not po.span() <= ops_ids:
            _fail("Invariant 8.1", "derived po mentions identifiers outside ops")

    def invariant_8_3_stable_ordered_by_minlabel(self) -> None:
        po = self.system.partial_order()
        compacted_anywhere = self.system.compaction_ledger.ids
        everywhere_stable = self.system.stable_everywhere()
        for x in everywhere_stable:
            if x.id in compacted_anywhere:
                continue
            for y in self.system.ops():
                if x.id == y.id or y.id in compacted_anywhere:
                    continue
                by_label = label_sort_key(self.system.minlabel(x.id)) < label_sort_key(
                    self.system.minlabel(y.id)
                )
                if by_label != po.precedes(x.id, y.id):
                    _fail(
                        "Invariant 8.3",
                        f"po ordering of stable {x.id} vs {y.id} disagrees with minimum labels",
                    )

    # -- Section 10 --------------------------------------------------------------

    def invariant_10_memoized_replicas(self) -> None:
        """Invariants 10.3 and 10.4 for memoizing replicas (no-op otherwise)."""
        for r, replica in self.system.replicas.items():
            if not isinstance(replica, MemoizedReplicaCore):
                continue
            solid = replica.solid_operations()
            if not replica.memoized <= solid:
                _fail("Invariant 10.3", f"replica {r}: memoized operation is not solid")
            # Invariant 10.4: ms equals the outcome of the memoized prefix in
            # label order — applied on top of the compaction checkpoint's
            # base state, which the memoized prefix now starts from.
            state = replica.checkpoint.base_state
            ordered = sorted(
                replica.memoized, key=lambda x: label_sort_key(replica.label_of(x.id))
            )
            for x in ordered:
                state, value = replica.data_type.apply(state, x.op)
                if replica.memo_values.get(x) != value:
                    _fail("Invariant 10.4", f"replica {r}: memoized value for {x.id} is wrong")
            if state != replica.memo_state:
                _fail("Invariant 10.4", f"replica {r}: memoized state diverges from replay")

    # -- checkpoint compaction ---------------------------------------------------

    def invariant_checkpoint_compaction(self) -> None:
        """The structural claims compaction rests on (no-op while nothing has
        been compacted):

        * every compacted identifier was requested, and every replica's
          compacted set is exactly a prefix of the system-wide agreed order
          (the ledger) — so checkpoints are nested across replicas;
        * every label a replica still tracks exceeds its frontier;
        * the checkpoint base state equals the replay of its prefix in the
          agreed order, and every retained value equals the replay value.
        """
        ledger = self.system.compaction_ledger
        requested_ids = self.system.requested
        prefix_states: List = []  # state after prefix[:k], computed lazily
        for r, replica in self.system.replicas.items():
            checkpoint = replica.checkpoint
            count = checkpoint.count
            if count == 0:
                continue
            if count > len(ledger.prefix):
                _fail(
                    "Checkpoint",
                    f"replica {r} compacted {count} operations but the ledger only "
                    f"records {len(ledger.prefix)}",
                )
            prefix = ledger.prefix[:count]
            for x in prefix:
                if not checkpoint.covers(x.id):
                    _fail(
                        "Checkpoint",
                        f"replica {r}: id summary does not cover prefix operation {x.id}",
                    )
                if x.id not in requested_ids:
                    _fail("Checkpoint", f"replica {r}: compacted {x.id} was never requested")
            frontier_key = label_sort_key(checkpoint.frontier)
            for op_id, label in replica.labels.items():
                if label_sort_key(label) <= frontier_key:
                    _fail(
                        "Checkpoint",
                        f"replica {r}: tracked label for {op_id} at or below the frontier",
                    )
            # Replay the agreed prefix once, reusing partial states across
            # replicas (checkpoints are nested prefixes of the same order).
            while len(prefix_states) < count:
                previous = (
                    prefix_states[-1][0]
                    if prefix_states
                    else self.system.data_type.initial_state()
                )
                state, value = self.system.data_type.apply(
                    previous, ledger.prefix[len(prefix_states)].op
                )
                prefix_states.append((state, value))
            if prefix_states[count - 1][0] != checkpoint.base_state:
                _fail(
                    "Checkpoint",
                    f"replica {r}: base state diverges from the agreed prefix replay",
                )
            by_position = {x.id: index for index, x in enumerate(prefix)}
            for op_id, value in checkpoint.values.items():
                position = by_position.get(op_id)
                if position is None:
                    _fail(
                        "Checkpoint",
                        f"replica {r}: retained value for {op_id} outside the prefix",
                    )
                if prefix_states[position][1] != value:
                    _fail(
                        "Checkpoint",
                        f"replica {r}: retained value for {op_id} diverges from replay",
                    )


    # -- advert/pull gossip -------------------------------------------------------

    def invariant_advert_pull_messages(self) -> None:
        """Structural claims of the advert/pull catch-up protocol (no-op
        while no pull or transfer traffic is in flight):

        * a transferred checkpoint's frontier is never ahead of its sender's
          current frontier (the sender answers pulls with its *current*
          checkpoint, and frontiers only advance);
        * the transferred identifier summary is exactly a prefix of the
          system-wide agreed ledger order — the nestedness adoption relies
          on;
        * a pull request targets the replica that advertised (routing
          integrity on the shared gossip channels).
        """
        ledger = self.system.compaction_ledger
        for (src, dst), channel in self.system.gossip_channels.items():
            for message in channel.contents():
                if message.kind == "pull":
                    if message.target != dst or message.requester != src:
                        _fail(
                            "Advert/pull",
                            f"pull on channel {src}->{dst} addressed "
                            f"{message.requester}->{message.target}",
                        )
                elif message.kind == "transfer":
                    sender = self.system.replicas[src]
                    frontier = sender.checkpoint.frontier
                    if frontier is None or label_sort_key(message.frontier) > label_sort_key(
                        frontier
                    ):
                        _fail(
                            "Advert/pull",
                            f"transfer {src}->{dst}: frontier ahead of sender's",
                        )
                    if message.ids.count > len(ledger.prefix):
                        _fail(
                            "Advert/pull",
                            f"transfer {src}->{dst}: covers {message.ids.count} operations "
                            f"but the ledger records {len(ledger.prefix)}",
                        )
                    for x in ledger.prefix[: message.ids.count]:
                        if x.id not in message.ids:
                            _fail(
                                "Advert/pull",
                                f"transfer {src}->{dst}: id summary is not the agreed "
                                f"ledger prefix (missing {x.id})",
                            )


def check_reshard_handoff(
    slice_order: Sequence[OperationId],
    dest_order: Sequence[OperationId],
    post_flip: Mapping[OperationId, OperationId],
    context: str = "",
) -> None:
    """The live-resharding handoff invariants, checked per migrated pair.

    *slice_order* is the frozen source-side history of the moved key ranges
    (the source shard's eventual order restricted to migrated operations);
    *dest_order* is the destination shard's eventual order after injection;
    *post_flip* maps each operation minted at the destination for a migrated
    key to that key's migrated-history tail.

    Checks:

    * every migrated operation is present at the destination;
    * the slice appears as an **in-order subsequence** of the destination's
      eventual order — the destination never reorders the migrated history
      (this is what makes per-key values response-equivalent across the
      handoff, by keyed-store obliviousness).  Callers audit one key's
      sub-slice at a time: cross-key interleavings are unobservable through
      a keyed store and stop being preserved once a history migrates back
      to a former owner (already-present operations keep their original
      positions there);
    * every post-flip operation on a migrated key is ordered **after** that
      key's migrated tail — the barrier constraints held, so new traffic
      cannot interleave into (or undercut) the relocated past.
    """
    where = f" ({context})" if context else ""
    position = {op_id: index for index, op_id in enumerate(dest_order)}
    previous = -1
    for op_id in slice_order:
        index = position.get(op_id)
        if index is None:
            _fail(
                "Reshard handoff",
                f"migrated operation {op_id} missing from destination order{where}",
            )
        if index <= previous:
            _fail(
                "Reshard handoff",
                f"destination reordered migrated history at {op_id}{where}",
            )
        previous = index
    for op_id, tail in post_flip.items():
        if op_id not in position:
            continue  # not yet labelled anywhere; ordered after everything
        if tail in position and position[op_id] <= position[tail]:
            _fail(
                "Reshard handoff",
                f"post-flip operation {op_id} ordered before migrated tail {tail}{where}",
            )


class SpecInvariantChecker:
    """Checks the Section 5.2 invariants on an ESDS-I / ESDS-II automaton."""

    def __init__(self, spec: EsdsSpecBase) -> None:
        self.spec = spec

    def check_all(self) -> None:
        self.invariant_5_2_po_spans_ops_and_contains_csc()
        self.invariant_5_3_stable_comparable_to_all()
        self.invariant_5_4_stabilized_totally_ordered()
        self.invariant_5_6_stable_values_unique()

    def __call__(self, *_args, **_kwargs) -> None:
        self.check_all()

    def invariant_5_2_po_spans_ops_and_contains_csc(self) -> None:
        ops_ids = self.spec.ops_ids
        if not self.spec.po.span() <= ops_ids:
            _fail("Invariant 5.2", "po mentions identifiers outside ops")
        csc = client_specified_constraints(self.spec.ops)
        if not csc <= set(self.spec.po.pairs):
            _fail("Invariant 5.2", "po does not contain the client-specified constraints")

    def invariant_5_3_stable_comparable_to_all(self) -> None:
        for x in self.spec.stabilized:
            for y in self.spec.ops:
                if not self.spec.po.comparable(x.id, y.id):
                    _fail("Invariant 5.3", f"stable {x.id} incomparable with {y.id}")

    def invariant_5_4_stabilized_totally_ordered(self) -> None:
        ids = [x.id for x in self.spec.stabilized]
        if not self.spec.po.totally_orders(ids):
            _fail("Invariant 5.4", "stabilized operations are not totally ordered by po")

    def invariant_5_6_stable_values_unique(self) -> None:
        from repro.core.orders import valset

        for x in self.spec.stabilized:
            values = valset(self.spec.data_type, x, self.spec.ops, self.spec.po, limit=64)
            if len(values) != 1:
                _fail("Invariant 5.6", f"stable operation {x.id} has non-unique value set {values}")
