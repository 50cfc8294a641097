"""The pluggable location-directory subsystem.

The paper's scheduler doubles as the *location service*: `connect()`
consults it after a connection rejection, strictly on demand (Section 2).
The paper notes that service "could equally be distributed (DNS/LDAP/
Chord-style)" because the communication-state-transfer protocol depends
only on the **lookup contract** — a stale belief is corrected by one
rejected connect plus one lookup — and not on the directory's internal
structure. This package makes that observation executable, with two
backends behind that one contract:

* ``centralized`` — the paper's configuration, the scheduler's own master
  PL table (the default);
* ``sharded`` — ranks consistent-hash partitioned across replicated
  directory shards. Reads go to the shards; the scheduler stays the
  single writer and *publishes* version-stamped updates until acked.
  The shard's decisions are the pure machines of
  :mod:`repro.directory.shard`, driven in virtual time by the simulator
  (:mod:`~repro.directory.daemons`) and over sockets by real shard
  processes (:mod:`repro.runtime.mp_directory`).
"""

from repro.directory.base import (
    STATUS_MIGRATING,
    STATUS_RUNNING,
    STATUS_TERMINATED,
    STATUS_UNKNOWN,
    CentralizedDirectory,
    LocationRecord,
    stable_hash,
)
from repro.directory.cache import CacheStats, LocationCache
from repro.directory.client import DirectoryClient
from repro.directory.daemons import (
    DirectoryCluster,
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
    "DirectoryPublisher",
    "DirectorySpec",
    "HashRing",
    "LocationCache",
    "LocationRecord",
    "directory_node_main",
    "stable_hash",
]
