"""Unit tests for the location-directory structures.

Pure data-structure territory: the consistent-hash ring, the
version-stamped records, and the centralized reference backend. No
kernel, no messages.
"""

from __future__ import annotations

import pytest

from repro.core.pltable import PLTable
from repro.directory import (
    CentralizedDirectory,
    DirectorySpec,
    HashRing,
    LocationRecord,
)
from repro.directory.base import (
    STATUS_MIGRATING,
    STATUS_RUNNING,
    STATUS_TERMINATED,
    stable_hash,
)
from repro.directory.cache import LocationCache
from repro.util.errors import ProtocolError
from repro.vm.ids import VmId


# ---------------------------------------------------------------- stable_hash

def test_stable_hash_is_deterministic_and_bounded():
    assert stable_hash(("key", 3)) == stable_hash(("key", 3))
    assert stable_hash(("key", 3)) != stable_hash(("key", 4))
    for bits in (8, 32, 64):
        assert 0 <= stable_hash("x", bits=bits) < (1 << bits)


# ------------------------------------------------------------------ HashRing

def test_hashring_owners_are_distinct_and_replicated():
    ring = HashRing(range(5), replication=3)
    for key in range(40):
        owners = ring.owners(key)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        assert ring.primary(key) == owners[0]


def test_hashring_replication_is_capped_at_node_count():
    ring = HashRing(range(2), replication=5)
    assert ring.replication == 2
    assert len(ring.owners(0)) == 2


def test_hashring_partition_covers_every_key():
    ring = HashRing(range(4), replication=2)
    part = ring.partition(range(64))
    assert sorted(k for keys in part.values() for k in keys) == list(range(64))
    # vnodes smooth the split: nobody owns everything
    assert all(len(keys) < 64 for keys in part.values())


def test_hashring_is_stable_across_instances():
    a = HashRing(range(6), replication=2)
    b = HashRing(range(6), replication=2)
    assert all(a.owners(k) == b.owners(k) for k in range(50))


def test_hashring_membership_change_moves_few_keys():
    """Consistent hashing: adding a shard only moves the arcs it takes."""
    before = HashRing(range(6), replication=1)
    after = HashRing(range(7), replication=1)
    keys = range(200)
    moved = [k for k in keys if before.primary(k) != after.primary(k)]
    # a naive mod-N partition would move ~ (1 - 1/7) = 85% of keys
    assert 0 < len(moved) < len(list(keys)) // 2
    # every moved key moved *to* the new shard
    assert all(after.primary(k) == 6 for k in moved)


def test_hashring_rejects_bad_parameters():
    with pytest.raises(ProtocolError):
        HashRing([])
    with pytest.raises(ProtocolError):
        HashRing(range(3), replication=0)


# ------------------------------------------------------------ LocationRecord

def test_record_version_ordering():
    old = LocationRecord(0, STATUS_RUNNING, VmId("a", 1), version=3)
    new = LocationRecord(0, STATUS_RUNNING, VmId("b", 1), version=4)
    assert new.newer_than(old)
    assert not old.newer_than(new)
    assert not old.newer_than(old)  # equal versions: not newer (idempotent)
    assert old.newer_than(None)


# ------------------------------------------------------ CentralizedDirectory

def test_centralized_migration_lifecycle_bumps_versions():
    d = CentralizedDirectory()
    a, b, init = VmId("a", 1), VmId("b", 1), VmId("b", 0)

    assert d.lookup(0) is None
    r = d.install(0, a)
    assert (r.status, r.vmid, r.version) == (STATUS_RUNNING, a, 1)

    r = d.designate_init(0, init)
    assert r.init_vmid == init and r.version == 2

    r = d.begin_migration(0)
    assert r.status == STATUS_MIGRATING and r.vmid == a and r.version == 3

    r = d.commit_migration(0, b)
    assert (r.status, r.vmid, r.init_vmid) == (STATUS_RUNNING, b, None)
    assert r.version == 4
    assert d.lookup(0).vmid == b

    r = d.terminate(0)
    assert r.status == STATUS_TERMINATED and r.version == 5


def test_centralized_abort_keeps_old_location():
    d = CentralizedDirectory()
    a = VmId("a", 1)
    d.install(0, a)
    d.designate_init(0, VmId("b", 0))
    d.begin_migration(0)
    r = d.abort_migration(0)
    assert (r.status, r.vmid, r.init_vmid) == (STATUS_RUNNING, a, None)


def test_centralized_is_live_coupled_to_the_pl_table():
    """The scheduler's PLTable *is* the backend's storage, not a copy."""
    pl = PLTable()
    d = CentralizedDirectory(pl=pl)
    d.install(1, VmId("h", 2))
    assert pl.lookup(1) == VmId("h", 2)
    pl.update(1, VmId("z", 9))  # legacy direct-table writes stay visible
    assert d.lookup(1).vmid == VmId("z", 9)


# ------------------------------------------------------------- DirectorySpec

def test_spec_coerce_accepts_str_none_and_spec():
    assert DirectorySpec.coerce(None).backend == "centralized"
    assert not DirectorySpec.coerce(None).distributed
    s = DirectorySpec.coerce("sharded")
    assert s.backend == "sharded" and s.distributed
    assert DirectorySpec.coerce(s) is s


def test_spec_rejects_the_deleted_backend_and_knob():
    for make in (lambda: DirectorySpec(backend="chord"),
                 lambda: DirectorySpec.coerce("chord")):
        with pytest.raises(ProtocolError) as exc:
            make()
        assert "'centralized', 'sharded'" in str(exc.value)
    with pytest.raises(TypeError):
        DirectorySpec(backend="sharded", daemons=True)


def test_spec_validates_parameters():
    with pytest.raises(ProtocolError):
        DirectorySpec(backend="gossip")
    with pytest.raises(ProtocolError):
        DirectorySpec(backend="sharded", nodes=0)
    with pytest.raises(ProtocolError):
        DirectorySpec(backend="sharded", replication=0)


# ------------------------------------------------------------- LocationCache

def test_cache_counts_hits_misses_and_staleness():
    pl = PLTable({0: VmId("a", 1)})
    cache = LocationCache(pl)

    assert cache.resolve(0) == VmId("a", 1)
    assert cache.resolve(5) is None
    cache.invalidate(0)
    # a stale entry is still returned (retries chase the last-known
    # address) but accounted separately
    assert cache.resolve(0) == VmId("a", 1)
    cache.refresh(0, VmId("b", 2))
    assert not pl.is_stale(0)
    assert cache.resolve(0) == VmId("b", 2)

    s = cache.stats
    assert (s.hits, s.stale_hits, s.misses) == (2, 1, 1)
    assert (s.invalidations, s.refreshes) == (1, 1)
