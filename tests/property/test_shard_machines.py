"""The directory's three pure machines, checked against their claims.

Both runtimes drive exactly these objects (:mod:`repro.directory.shard`)
— the simulator in virtual time, the mp runtime over sockets — so the
properties below hold for the code each runtime actually runs:

* :class:`ShardNode` — any permutation or duplication of a writer's
  updates converges to the newest version, every ack covers the update
  it answers, and a missing record is never ``terminated``;
* :class:`Publisher` — a key is pending exactly while its owner has not
  acked the newest version, and a pending entry is never older than the
  newest version published for its key (the restart re-seed race);
* :class:`LookupLadder` — never answers ``unknown``, asks every owner
  each round, falls back exactly once after the last round, and never
  synthesizes ``terminated``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.messages import LookupReply
from repro.directory.base import LocationRecord
from repro.directory.hashring import HashRing
from repro.directory.messages import DirUpdate, DirUpdateAck
from repro.directory.shard import (
    Ask,
    Done,
    Fallback,
    LookupLadder,
    Publisher,
    ShardNode,
    Sleep,
    plan_handoff,
)

STATUSES = ["running", "migrating", "terminated", "starting"]
RANKS = range(4)


def _update(rank, version, status, node=0):
    return DirUpdate(rank=rank, status=status, vmid=("h", rank, version),
                     init_vmid=("i", rank, version), version=version,
                     node=node)


# -- ShardNode ----------------------------------------------------------------

writer_history = st.dictionaries(
    st.sampled_from(list(RANKS)),
    st.lists(st.sampled_from(STATUSES), min_size=1, max_size=5),
    min_size=1)


@given(history=writer_history, data=st.data())
@settings(max_examples=150, deadline=None)
def test_shard_node_converges_under_permutation_and_duplication(history,
                                                                data):
    # the single writer's updates: versions 1..n per rank
    updates = [_update(rank, v, status)
               for rank, statuses in history.items()
               for v, status in enumerate(statuses, start=1)]
    delivered = data.draw(st.permutations(
        updates + data.draw(st.lists(st.sampled_from(updates),
                                     max_size=10))))
    node = ShardNode()
    for upd in delivered:
        ack, applied = node.apply(upd)
        assert ack.rank == upd.rank and ack.node == upd.node
        assert ack.version >= upd.version
        assert ack.version == node.records[upd.rank].version
        assert not applied or node.records[upd.rank].version == upd.version
    for rank in RANKS:
        if rank not in history:
            assert rank not in node.records
            continue
        newest = len(history[rank])
        rec = node.records[rank]
        assert rec.version == newest
        assert rec.status == history[rank][-1]
    assert (node.stats.updates_applied + node.stats.updates_ignored
            == len(delivered))


@given(history=writer_history, token=st.integers(0, 99))
@settings(max_examples=100, deadline=None)
def test_missing_record_is_unknown_never_terminated(history, token):
    node = ShardNode()
    for rank, statuses in history.items():
        for v, status in enumerate(statuses, start=1):
            node.apply(_update(rank, v, status))
    for rank in range(6):
        reply = node.reply(rank, token)
        assert reply.token == token and reply.rank == rank
        rec = node.records.get(rank)
        if rec is None:
            assert reply.status == "unknown" and reply.vmid is None
        elif rec.status == "migrating":
            assert (reply.status, reply.vmid) == ("migrate", rec.init_vmid)
        elif rec.status == "terminated":
            assert (reply.status, reply.vmid) == ("terminated", None)
        else:
            assert (reply.status, reply.vmid) == (rec.status, rec.vmid)
        assert reply.status != "terminated" or rec.status == "terminated"


# -- Publisher ----------------------------------------------------------------

RING = HashRing([0, 1, 2, 3], replication=2)

publisher_ops = st.lists(st.one_of(
    st.tuples(st.just("publish"), st.sampled_from(list(RANKS))),
    # a re-seed built from a snapshot taken before the newest publish
    st.tuples(st.just("stale"), st.sampled_from(list(RANKS))),
    st.tuples(st.just("ack"), st.sampled_from(list(RANKS)),
              st.integers(0, 3), st.integers(0, 8)),
    st.tuples(st.just("reassign"), st.sampled_from(list(RANKS)),
              st.integers(0, 3)),
    st.tuples(st.just("forget"), st.integers(0, 3)),
    st.tuples(st.just("due"),),
), max_size=40)


@given(ops=publisher_ops)
@settings(max_examples=200, deadline=None)
def test_publisher_pending_is_exactly_the_unacked_newest(ops):
    pub = Publisher()
    records: dict[int, LocationRecord] = {}
    #: the model: (rank, node) -> version last enqueued / whether acked
    newest: dict[tuple, int] = {}
    acked: set[tuple] = set()

    def enqueued(rec, nodes):
        for node in nodes:
            # the drivers enqueue the writer's current record only
            assert rec.version >= newest.get((rec.rank, node), 0)
            newest[(rec.rank, node)] = rec.version
            acked.discard((rec.rank, node))

    for op in ops:
        kind = op[0]
        if kind == "publish":
            rank = op[1]
            v = records[rank].version + 1 if rank in records else 1
            records[rank] = LocationRecord(rank, "running", ("h", v), None, v)
            owners = RING.owners(rank)
            sent = pub.publish(records[rank], owners)
            assert [u.node for u in sent] == owners
            enqueued(records[rank], owners)
        elif kind == "stale" and op[1] in records:
            rec = records[op[1]]
            old = LocationRecord(rec.rank, "running", ("h", 0), None,
                                 rec.version - 1)
            pending = [n for n in RING.owners(rec.rank)
                       if (rec.rank, n) in pub.pending]
            assert pub.publish(old, pending) == []
        elif kind == "ack":
            _, rank, node, version = op
            key = (rank, node)
            version = min(version, newest.get(key, 0))  # never above sent
            covers = key in newest and key not in acked \
                and version >= newest[key]
            assert pub.on_ack(DirUpdateAck(rank=rank, version=version,
                                           node=node)) == covers
            if covers:
                acked.add(key)
        elif kind == "reassign" and op[1] in records:
            _, rank, node = op
            pub.reassign([(rank, (), (node,))], records)
            enqueued(records[rank], [node])
        elif kind == "forget":
            pub.forget(op[1])
            for key in [k for k in newest if k[1] == op[1]]:
                del newest[key]
                acked.discard(key)
        elif kind == "due":
            assert pub.due() == list(pub.pending.values())

        assert set(pub.pending) == set(newest) - acked
        for key, upd in pub.pending.items():
            assert (upd.rank, upd.node) == key
            # never older than the newest published for its key
            assert upd.version == newest[key]


def test_publisher_never_replaces_a_newer_pending_update():
    """The restart race, by hand: a re-seed built before a publish must
    not overwrite it."""
    pub = Publisher()
    new = LocationRecord(7, "running", ("h", 2), None, 2)
    old = LocationRecord(7, "running", ("h", 1), None, 1)
    assert [u.version for u in pub.publish(new, [1])] == [2]
    pub.reassign([(7, (), (1,))], {7: old})
    assert pub.pending[(7, 1)].version == 2
    # an ack of the old version does not retire the newer update
    assert not pub.on_ack(DirUpdateAck(rank=7, version=1, node=1))
    assert pub.on_ack(DirUpdateAck(rank=7, version=2, node=1))
    assert pub.pending == {}


# -- LookupLadder -------------------------------------------------------------

ANSWERS = ["unreachable", "unknown", "running", "migrate", "terminated",
           "echo"]


@given(nowners=st.integers(1, 4), salt=st.integers(0, 50),
       rounds=st.integers(1, 4), data=st.data())
@settings(max_examples=300, deadline=None)
def test_lookup_ladder_walks_every_owner_then_falls_back_once(
        nowners, salt, rounds, data):
    owners = list(range(10, 10 + nowners))
    ladder = LookupLadder(owners, salt, rounds, backoff=0.01)
    steps = ladder.steps()
    action = next(steps)
    asked: dict[int, list] = {}
    replies: list[LookupReply] = []
    sleeps: list[Sleep] = []
    terminals = []
    disproved = ("h", "stale")
    while True:
        if isinstance(action, Ask):
            asked.setdefault(action.round, []).append(action.node)
            answer = data.draw(st.sampled_from(ANSWERS))
            if answer == "unreachable":
                reply = None
            elif answer == "echo":
                reply = LookupReply(0, "running", disproved, 1)
            else:
                vmid = None if answer in ("unknown", "terminated") \
                    else ("h", answer)
                reply = LookupReply(0, answer, vmid, 1)
            if reply is not None:
                replies.append(reply)
            action = steps.send((reply, disproved))
        elif isinstance(action, Sleep):
            sleeps.append(action)
            action = next(steps)
        else:
            terminals.append(action)
            assert list(steps) == []  # the stream ends at a terminal
            break

    (outcome,) = terminals
    echoes = [s.echo for s in sleeps if s.echo is not None]
    if isinstance(outcome, Done):
        last = replies[-1]
        assert outcome.status != "unknown"
        # the answer is the last reply, verbatim: terminated is never
        # made up by the ladder
        assert (outcome.status, outcome.vmid) == (last.status, last.vmid)
        final_round = max(asked)
        # re-affirming the disproved address costs one pause, no more
        if outcome.vmid == disproved:
            assert echoes == [asked[final_round][-1]]
            assert sleeps[-1].seconds == 0.01 * 2 ** final_round
        else:
            assert echoes == []
        assert len(sleeps) - len(echoes) == final_round
    else:
        assert isinstance(outcome, Fallback)
        assert sorted(asked) == list(range(rounds))
        assert all(r.status == "unknown" for r in replies)
        assert echoes == []
        assert [s.seconds for s in sleeps] == [0.01 * 2 ** r
                                               for r in range(rounds)]
    # each round walks the owners from a start rotated by salt + round,
    # and every round before the last one asks all of them
    for round_no, nodes in asked.items():
        k = (salt + round_no) % nowners
        assert nodes == (owners[k:] + owners[:k])[:len(nodes)]
        if round_no < max(asked) or isinstance(outcome, Fallback):
            assert len(nodes) == nowners


def test_lookup_ladder_run_drives_the_callbacks():
    """``run`` is the drivers' loop: asks through the callback, sleeps
    through the other, returns the terminal action."""
    owners = [3, 5]
    calls = []

    def ask(step):
        calls.append(("ask", step.node, step.round))
        if step.round == 1 and step.node == 5:
            return LookupReply(9, "migrate", ("h", 1), 0), None
        return LookupReply(9, "unknown", None, 0), None

    outcome = LookupLadder(owners, 0, 3, 0.5).run(
        ask, lambda step: calls.append(("sleep", step.seconds)))
    assert outcome == Done("migrate", ("h", 1))
    assert calls == [("ask", 3, 0), ("ask", 5, 0), ("sleep", 0.5),
                     ("ask", 5, 1)]


# -- plan_handoff next to the machines --------------------------------------

def test_plan_handoff_moves_only_gained_owners():
    before = HashRing([0, 1, 2], replication=2)
    after = HashRing([0, 1, 2, 3], replication=2)
    for key, old, gained in plan_handoff(before, after, range(40)):
        assert gained == (3,)
        assert set(old) == set(before.owners(key))
