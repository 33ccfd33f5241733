"""Delta gossip cut from change journals (:mod:`repro.algorithm.delta`).

A delta is the journal slice past the peer's acked mark, restricted to what
is still live, so a send must cost what it carries: the journals may hold
nothing below the oldest mark a peer retains, and nothing that a fold has
made dead once the acks have passed it.  What a delta *contains* is checked
elsewhere, against a copy of the sender's payload that
:class:`~repro.algorithm.system.AlgorithmSystem` takes at every send.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from repro.algorithm.checkpoint import CompactionPolicy
from repro.algorithm.delta import ChangeJournal
from repro.algorithm.fastcore import FastReplicaCore
from repro.algorithm.labels import Label
from repro.algorithm.messages import RequestMessage
from repro.algorithm.system import AlgorithmSystem
from repro.common import OperationIdGenerator
from repro.config import ReplicaConfig
from repro.core.operations import make_operation
from repro.datatypes import CounterType

BUDGET = Path(__file__).resolve().parent.parent / "benchmarks" / "budget"


def journals(core):
    return {
        "R": core._rcvd_journal,
        "D": core._done_journal,
        "S": core._stable_journal,
        "L": core._label_journal,
    }


def cores(count, compaction=False):
    ids = [f"r{i}" for i in range(1, count + 1)]
    made = [FastReplicaCore(rid, ids, CounterType()) for rid in ids]
    for core in made:
        core.configure_delta_gossip(True, full_state_interval=1 << 30)
        if compaction:
            core.configure_compaction(CompactionPolicy(min_batch=1))
    return made


def feed(core, count, gen):
    ops = [make_operation(CounterType.increment(), gen.fresh()) for _ in range(count)]
    for op in ops:
        core.receive_request(RequestMessage(op))
    core.do_all_ready()
    return ops


def gossip_round(group):
    for source in group:
        for destination in group:
            if source is not destination:
                destination.receive_gossip(source.make_gossip(destination.replica_id))
    for core in group:  # an answered operation no longer blocks a fold
        for operation in core.ready_responses():
            core.make_response(operation)


def test_a_delta_reads_only_the_unacked_entries(monkeypatch):
    writer, reader = cores(2)
    gen = OperationIdGenerator("c")
    for _ in range(100):
        feed(writer, 100, gen)
        gossip_round([writer, reader])
    for _ in range(2):
        gossip_round([writer, reader])
    assert len(writer.done_here()) == 10_000 and writer.checkpoint.count == 0
    held = sum(len(journal.entries) for journal in journals(writer).values())
    assert held <= 4, held  # the acked history is not pinned

    fresh = feed(writer, 5, gen)
    basis = writer._peer_out["r2"].basis
    unacked = {
        "R": writer._rcvd_journal.end - basis.received,
        "D": writer._done_journal.end - basis.done,
        "S": writer._stable_journal.end - basis.stable,
        "L": writer._label_journal.end - basis.labels,
    }
    read = []
    since = ChangeJournal.since

    def counting_since(journal, position):
        entries = since(journal, position)
        read.append(len(entries))
        return entries

    monkeypatch.setattr(ChangeJournal, "since", counting_since)
    message = writer.make_gossip("r2")
    assert message.is_delta and message.done == frozenset(fresh)
    assert sum(read) <= sum(unacked.values()) <= 3 * len(fresh) + held


def test_idle_acked_rounds_leave_no_folded_descriptor_in_the_journals():
    group = cores(3, compaction=True)
    gen = OperationIdGenerator("c")
    for index in range(60):
        feed(group[index % 3], 1, gen)
        gossip_round(group)
    for _ in range(4):
        gossip_round(group)
    for core in group:
        checkpoint = core.checkpoint
        assert checkpoint.count == 60 and not core.done_here()
        for name, journal in journals(core).items():
            ids = journal.entries if name == "L" else [
                x.id for chunk in journal.entries for x in chunk
            ]
            assert not any(checkpoint.covers(op_id) for op_id in ids), (core.replica_id, name)


def test_nothing_is_journaled_while_no_peer_retains_a_mark():
    writer, reader = cores(2)
    feed(writer, 3, OperationIdGenerator("c"))
    reader.receive_gossip(writer.make_gossip("r2"))
    assert writer._floor is not None and reader._floor is None
    assert all(not journal.entries for journal in journals(reader).values())


def test_a_journal_never_reads_below_its_floor():
    journal = ChangeJournal()
    journal.entries.extend("abcde")
    journal.prune(3)
    assert journal.since(3) == ["d", "e"] and journal.end == 5
    with pytest.raises(Exception, match="pruned past"):
        journal.since(2)


def stream_digest(stream) -> str:
    digest = hashlib.sha256()
    for batch in stream:
        for m in batch:
            digest.update(repr((
                m.sender,
                sorted(x.id for x in m.received),
                sorted(x.id for x in m.done),
                sorted(m.labels.items()),
                sorted(x.id for x in m.stable),
                m.seqno,
                m.ack,
                m.is_delta,
            )).encode())
    return digest.hexdigest()


def test_recorded_catchup_stream_is_unchanged(monkeypatch):
    """The budget's ``core_catchup`` stream at seed 1, full size, pinned by
    a digest over every message's ``(R, D, L, S, seqno, ack)``: the value
    deltas cut as the difference of two whole-payload copies produced."""
    monkeypatch.syspath_prepend(str(BUDGET))
    import refclock
    import workloads

    run = workloads.Run("core_catchup", seed=1, seconds=20.0)
    _ids, stream, total = workloads._record_stream(run, refclock.RefClock())
    assert (len(stream), total) == (240, 120171)
    assert stream_digest(stream) == (
        "55c94eba99ffc93254ef7904abfdbfaae4a7585bd0afe3f30b72b3aa184f739b"
    )


def test_every_label_store_reaches_the_next_delta():
    """The stores no random schedule makes: a harness-chosen label, and a
    recovery that reloads labels after a send already restarted the
    journals.  ``AlgorithmSystem.send_gossip`` raises if a delta misses
    what entered the payload since the acknowledged send."""
    system = AlgorithmSystem(
        CounterType(), ["r1", "r2"], ["c"],
        config=ReplicaConfig(fast_core=True, delta_gossip=True, full_state_interval=100),
    )
    r1 = system.replicas["r1"]
    gen = OperationIdGenerator("c")

    def exchange():
        for source, destination in (("r1", "r2"), ("r2", "r1"), ("r1", "r2"), ("r2", "r1")):
            system.receive_gossip(source, destination, system.send_gossip(source, destination))

    feed(r1, 2, gen)
    exchange()
    chosen = make_operation(CounterType.increment(), gen.fresh())
    r1.receive_request(RequestMessage(chosen))
    system.do_it("r1", chosen, Label(50, "r1"))
    message = system.send_gossip("r1", "r2")
    assert message.is_delta and message.labels == {chosen.id: Label(50, "r1")}

    exchange()
    (unseen,) = feed(r1, 1, gen)  # labelled here, never gossiped
    r1.crash(volatile_memory=True)
    exchange()  # the new incarnation's stream is acknowledged before recovery
    assert unseen.id not in r1.labels
    r1.recover_from_stable_storage()
    message = system.send_gossip("r1", "r2")
    assert message.is_delta and set(message.labels) == {unseen.id}
