"""The pluggable location-directory subsystem.

The paper's scheduler doubles as the *location service*: `connect()`
consults it after a connection rejection, strictly on demand (Section 2).
The paper notes that service "could equally be distributed (DNS/LDAP/
Chord-style)" because the communication-state-transfer protocol depends
only on the **lookup contract** — a stale belief is corrected by one
rejected connect plus one lookup — and not on the directory's internal
structure. This package makes that observation executable: one small
:class:`DirectoryService` interface (lookup / install / commit-migration)
with two interchangeable backends:

* ``centralized`` — the paper's configuration, the scheduler's own master
  PL table (default; byte-for-byte behaviour preserving);
* ``sharded`` — the rank → vmid space consistent-hash partitioned across
  directory daemon shards, with configurable replication and
  shard-failover retry on the client. This is the one distributed
  directory: the simulator runs its nodes as daemon processes in virtual
  time, the mp runtime as real shard OS processes
  (:mod:`repro.runtime.mp_directory`).

Reads scale out through the shards; writes stay with the scheduler,
which remains the single coordinator of migrations (it is the only
writer) and *publishes* location updates to the directory nodes
(version-stamped, acknowledged, retransmitted until applied — the
publication layer tolerates the drop/dup/delay adversary of
:mod:`repro.sim.faults`).
"""

from repro.directory.base import (
    STATUS_MIGRATING,
    STATUS_RUNNING,
    STATUS_TERMINATED,
    STATUS_UNKNOWN,
    CentralizedDirectory,
    DirectoryService,
    LocationRecord,
    stable_hash,
)
from repro.directory.cache import CacheStats, LocationCache
from repro.directory.client import DirectoryClient
from repro.directory.daemons import (
    DirectoryCluster,
    DirectoryNode,
    DirectoryPublisher,
    directory_node_main,
)
from repro.directory.hashring import HashRing
from repro.directory.messages import (
    DirLookup,
    DirRetransmitTick,
    DirUpdate,
    DirUpdateAck,
)
from repro.directory.spec import DirectorySpec

__all__ = [
    "STATUS_MIGRATING",
    "STATUS_RUNNING",
    "STATUS_TERMINATED",
    "STATUS_UNKNOWN",
    "CacheStats",
    "CentralizedDirectory",
    "DirLookup",
    "DirRetransmitTick",
    "DirUpdate",
    "DirUpdateAck",
    "DirectoryClient",
    "DirectoryCluster",
    "DirectoryNode",
    "DirectoryPublisher",
    "DirectoryService",
    "DirectorySpec",
    "HashRing",
    "LocationCache",
    "LocationRecord",
    "directory_node_main",
    "stable_hash",
]
