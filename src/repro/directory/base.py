"""The directory-service contract and the centralized reference backend.

A *location record* is everything the lookup protocol ever needs to know
about a rank: its execution status, its current vmid, the designated
initialized process (while a migration is in flight), and a version
number. Versions are bumped by the scheduler — the single writer — on
every mutation, which makes record application idempotent and
commutative-with-duplicates at the directory nodes: a node applies an
update only if it is newer than what it holds, so the drop/dup/delay
adversary of :mod:`repro.sim.faults` can at worst delay convergence,
never corrupt it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.pltable import PLTable
from repro.vm.ids import Rank, VmId

__all__ = [
    "STATUS_RUNNING",
    "STATUS_MIGRATING",
    "STATUS_TERMINATED",
    "STATUS_FAILED",
    "STATUS_UNKNOWN",
    "LocationRecord",
    "CentralizedDirectory",
    "stable_hash",
]

# Execution statuses as stored in location records. These mirror the
# scheduler's constants; ``unknown`` is directory-specific — a node that
# has not yet received a rank's record answers "unknown", never
# "terminated" (an update may simply still be in flight).
STATUS_RUNNING = "running"
STATUS_MIGRATING = "migrating"
STATUS_TERMINATED = "terminated"
#: mp recovery: the rank's process died and a replacement is on its way
STATUS_FAILED = "failed"
STATUS_UNKNOWN = "unknown"


def stable_hash(key: object, bits: int = 64) -> int:
    """A process-invariant hash (Python's ``hash`` is salted per run)."""
    material = repr(key).encode()
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


@dataclass(frozen=True)
class LocationRecord:
    """One rank's entry in the directory, version-stamped by the writer."""

    rank: Rank
    status: str
    vmid: VmId | None
    init_vmid: VmId | None = None
    version: int = 0

    def newer_than(self, other: "LocationRecord | None") -> bool:
        return other is None or self.version > other.version


@dataclass
class CentralizedDirectory:
    """The scheduler's authoritative records over its master PL table.

    Wraps (and stays live-coupled to) the :class:`PLTable` the scheduler
    already owns, adding each rank's status, its designated initialized
    process and the one version counter every published record carries
    (the scheduler machine, :class:`repro.core.windows.Windows`, is its
    only writer). With no publisher attached this is exactly the seed's
    behaviour: one authoritative table, zero extra messages.

    The lookup contract the paper's proofs lean on: a lookup may return
    a *stale* location (the requester discovers that via a rejected
    connect and retries), but a lookup issued after a migration
    committed must *eventually* return the committed vmid. The
    centralized table and the consistent-hash shards both satisfy it.
    """

    pl: PLTable = field(default_factory=PLTable)
    status: dict[Rank, str] = field(default_factory=dict)
    init_vmid: dict[Rank, VmId] = field(default_factory=dict)
    versions: dict[Rank, int] = field(default_factory=dict)

    # -- reads ---------------------------------------------------------------
    def lookup(self, rank: Rank) -> LocationRecord | None:
        if rank not in self.status:
            return None
        return self.record(rank)

    def record(self, rank: Rank) -> LocationRecord:
        """The current record (rank must be known)."""
        vmid = self.pl.get(rank)
        return LocationRecord(
            rank=rank, status=self.status.get(rank, STATUS_TERMINATED),
            vmid=vmid, init_vmid=self.init_vmid.get(rank),
            version=self.versions.get(rank, 0))

    def ranks(self) -> Iterable[Rank]:
        return sorted(self.status)

    # -- writes (each bumps the rank's version) ------------------------------
    def _bump(self, rank: Rank) -> int:
        v = self.versions.get(rank, 0) + 1
        self.versions[rank] = v
        return v

    def install(self, rank: Rank, vmid: VmId) -> LocationRecord:
        self.pl.update(rank, vmid)
        self.status[rank] = STATUS_RUNNING
        self._bump(rank)
        return self.record(rank)

    def designate_init(self, rank: Rank, init_vmid: VmId) -> LocationRecord:
        self.init_vmid[rank] = init_vmid
        self._bump(rank)
        return self.record(rank)

    def begin_migration(self, rank: Rank) -> LocationRecord:
        self.status[rank] = STATUS_MIGRATING
        self._bump(rank)
        return self.record(rank)

    def commit_migration(self, rank: Rank, new_vmid: VmId) -> LocationRecord:
        self.pl.update(rank, new_vmid)
        self.status[rank] = STATUS_RUNNING
        self.init_vmid.pop(rank, None)
        self._bump(rank)
        return self.record(rank)

    def abort_migration(self, rank: Rank) -> LocationRecord:
        self.status[rank] = STATUS_RUNNING
        self.init_vmid.pop(rank, None)
        self._bump(rank)
        return self.record(rank)

    def terminate(self, rank: Rank) -> LocationRecord:
        self.status[rank] = STATUS_TERMINATED
        self.init_vmid.pop(rank, None)
        self._bump(rank)
        return self.record(rank)

    def fail(self, rank: Rank) -> LocationRecord:
        """The rank's process died; its last address stays published."""
        self.status[rank] = STATUS_FAILED
        self.init_vmid.pop(rank, None)
        self._bump(rank)
        return self.record(rank)
