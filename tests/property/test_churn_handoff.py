"""Membership churn: handoff completeness and the consistent-hash bound.

Hypothesis drives random join/leave sequences against the pure handoff
planner (:func:`repro.runtime.mp_directory.plan_handoff`) over the same
:class:`~repro.directory.hashring.HashRing` the daemons route by, and
checks the two properties the churn protocol rests on:

* **completeness** — executing the planned moves leaves every owner
  under the *after* topology holding the current version of every
  record it owns (verified record-by-record, exactly what
  ``DirectoryDaemonHost._push_and_verify`` does over sockets);
* **consistent-hash bound** — a membership change only moves the arcs
  the changed node takes over (join) or gives up (leave): every planned
  move names the changed node, each key loses at most one old owner,
  and the move count is bounded by the number of keys the changed node
  owns — no global reshuffle.

A final example-based test runs the same sequence shape against *real*
daemon processes through :class:`DirectoryDaemonHost.join` / ``leave``
and checks the socket-level handoff reports the same completeness.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.directory.base import LocationRecord
from repro.directory.hashring import HashRing
from repro.directory.spec import DirectorySpec
from repro.runtime.mp_directory import DirectoryDaemonHost, plan_handoff

KEYS = list(range(50))
REPLICATION = 2


def ring(nodes) -> HashRing:
    return HashRing(list(nodes), replication=REPLICATION)


# ops: each int encodes one membership change; even → join, odd → leave
# (the value also picks which member leaves)
ops_strategy = st.lists(st.integers(0, 99), min_size=1, max_size=8)


@given(ops=ops_strategy)
@settings(max_examples=60, deadline=None)
def test_churn_sequence_handoff_is_complete_and_bounded(ops):
    nodes = [0, 1, 2, 3]
    next_id = 4
    topology = ring(nodes)
    versions = {k: 1 for k in KEYS}
    #: node -> key -> version (the pure analogue of the daemons' stores)
    store: dict[int, dict] = {n: {} for n in nodes}
    for k in KEYS:
        for o in topology.owners(k):
            store[o][k] = versions[k]

    for op in ops:
        join = (op % 2 == 0) or len(nodes) == 1
        if join:
            changed = next_id
            next_id += 1
            after_nodes = nodes + [changed]
        else:
            changed = nodes[op % len(nodes)]
            after_nodes = [n for n in nodes if n != changed]
        after = ring(after_nodes)
        moves = plan_handoff(topology, after, KEYS)

        # -- consistent-hash bound, structurally ------------------------
        for key, old, gained in moves:
            if join:
                # a join can only ever hand records *to* the new node
                assert gained == (changed,)
            else:
                # a leave only moves keys the leaving node owned
                assert changed in old
            # each key loses at most one old owner
            lost = set(old) - set(after.owners(key))
            assert len(lost) <= 1
        owned_by_changed = sum(
            1 for k in KEYS
            if changed in (after.owners(k) if join else topology.owners(k)))
        assert len(moves) <= owned_by_changed

        # -- execute the plan (push to gaining owners), then flip -------
        if join:
            store[changed] = {}
        for key, _old, gained in moves:
            for node in gained:
                store[node][key] = versions[key]
        topology = after
        nodes = after_nodes
        if not join:
            del store[changed]

        # -- completeness: every owner holds the current version --------
        for k in KEYS:
            for o in topology.owners(k):
                assert store[o].get(k) == versions[k], (
                    f"node {o} misses key {k} after "
                    f"{'join' if join else 'leave'} of {changed}")


@given(ops=ops_strategy)
@settings(max_examples=30, deadline=None)
def test_churn_with_concurrent_writes_converges(ops):
    """Records keep changing *during* the churn: a version bumped while
    a handoff is in flight must still land on the gaining owners. The
    host closes this race by re-enqueuing moved records after the flip;
    here the re-publish (to the new ring's owners) plays that role."""
    nodes = [0, 1, 2]
    next_id = 3
    topology = ring(nodes)
    versions = {k: 1 for k in KEYS}
    store: dict[int, dict] = {n: {} for n in nodes}
    for k in KEYS:
        for o in topology.owners(k):
            store[o][k] = versions[k]

    for step, op in enumerate(ops):
        join = (op % 2 == 0) or len(nodes) == 1
        if join:
            changed = next_id
            next_id += 1
            after_nodes = nodes + [changed]
        else:
            changed = nodes[op % len(nodes)]
            after_nodes = [n for n in nodes if n != changed]
        after = ring(after_nodes)
        moves = plan_handoff(topology, after, KEYS)

        if join:
            store[changed] = {}
        # handoff pushes the versions as of planning time...
        planned = {k: versions[k] for k, _o, _g in moves}
        # ...while a write races in (a publish during the handoff window;
        # it goes to the *old* owners, as in the real host)
        racing_key = KEYS[(step * 7) % len(KEYS)]
        versions[racing_key] += 1
        for o in topology.owners(racing_key):
            store[o][racing_key] = versions[racing_key]
        for key, _old, gained in moves:
            for node in gained:
                # version-checked apply: never regress
                if store[node].get(key, 0) < planned[key]:
                    store[node][key] = planned[key]
        topology = after
        nodes = after_nodes
        if not join:
            del store[changed]
        # post-flip re-publish of moved records under the NEW ring (the
        # host's race-window closer)
        for key, _old, _g in moves:
            for o in topology.owners(key):
                if store[o].get(key, 0) < versions[key]:
                    store[o][key] = versions[key]

        for k in KEYS:
            for o in topology.owners(k):
                assert store[o].get(k) == versions[k]


def test_real_daemon_churn_matches_the_plan():
    """Join twice, leave twice against real daemon processes: each
    handoff is verified record-by-record over sockets, and the moved
    sets match what plan_handoff predicts from the rings alone."""
    spec = DirectorySpec(backend="sharded", nodes=3,
                         replication=REPLICATION)
    host = DirectoryDaemonHost(spec)
    try:
        for r in range(16):
            host.publish(LocationRecord(r, "running", ("127.0.0.1", 9500 + r),
                                        version=1))
        assert host.flush(5.0)

        changes = [host.join(), host.join()]
        changes.append(host.leave(changes[0].node_id))
        changes.append(host.leave(host.node_ids[0]))

        for ch in changes:
            assert ch.complete, f"unverified handoff in {ch}"
            # every pushed record was read back at the gaining daemon
            assert all(h.verified for h in ch.handoff)
        # epochs are strictly increasing, one per change
        assert [ch.epoch for ch in changes] == [1, 2, 3, 4]

        # after the dust settles every owner really holds its records
        assert host.flush(5.0)
        for rank in range(16):
            for node in host.topology.owners(rank):
                recs = host.records_on(node, [rank])
                assert rank in recs
                assert recs[rank][1] == ("127.0.0.1", 9500 + rank)

        # and a client on the final membership resolves everything
        client = host.make_client(
            salt=0, fallback=lambda r: ("running", ("fb", r)))
        for rank in range(16):
            status, addr = client.lookup(rank)
            assert (status, addr) == ("running", ("127.0.0.1", 9500 + rank))
        assert client.stats["dir_fallbacks"] == 0
        client.close()
    finally:
        host.close()
