"""The public knobs, pinned: a new parameter is a reviewed diff.

ROADMAP aim 2 is "one way to do each thing, and fewer knobs". Every
parameter of the entry points below doubles what tests and benchmarks
must cover, so the set is literal here — adding one means editing this
file, in the open, with the caller that needs it. ``decode_owned`` (the
mp destination's consuming decode) takes the buffer and nothing else:
which decode runs is decided by who calls, never by an argument.
"""

from __future__ import annotations

import inspect

import pytest

from repro import Application
from repro.codec import decode, decode_owned, encode
from repro.core.endpoint import MigrationEndpoint
from repro.directory import DirectoryClient, DirectoryPublisher, DirectorySpec
from repro.recovery import RecoverySpec
from repro.runtime import (
    DaemonClientConfig,
    DirectoryDaemonHost,
    MPCluster,
    MPDirectoryClient,
)

EXPECTED = {
    encode: {"obj", "arch"},
    decode: {"data"},
    decode_owned: {"buf"},
    Application: {
        "vm", "program", "placement", "scheduler_host", "architectures",
        "migratable", "name", "checkpoint_store", "restore_version",
        "transport", "retry", "drain_timeout", "migration_retry_limit",
        "directory", "chunk_bytes", "migration_concurrency"},
    MigrationEndpoint: {
        "ctx", "rank", "scheduler_vmid", "pl", "arch", "migration_enabled",
        "initializing", "transport", "retry_policy", "drain_timeout",
        "directory_client", "chunk_bytes", "bandwidth_budget", "trace_id"},
    MPCluster: {
        "program", "nranks", "arch", "dest_arch", "directory", "obs",
        "init_states", "recovery", "chunk_bytes", "migration_concurrency"},
    # dataclasses: the constructor's parameters are the fields
    DirectorySpec: {"backend", "nodes", "replication"},
    DaemonClientConfig: {"epoch", "node_ids", "addrs", "replication"},
    # shard supervision and WALs are always on; the supervisor's scan
    # period, the delta chain bound and the heartbeat cadence
    # (heartbeat_timeout / 10) are constants
    RecoverySpec: {"dir", "checkpoint_every", "policy", "heartbeat_timeout",
                   "delta_checkpoints"},
    # the directory drivers: rounds, backoffs, ticks and timeouts are
    # each driver's module constants, never arguments
    DirectoryClient: {"topology", "peers", "salt"},
    DirectoryPublisher: {"topology", "peers"},
    MPDirectoryClient: {"config", "salt", "fallback", "refresh", "on_count"},
    DirectoryDaemonHost: {"spec", "metrics", "wal_dir"},
}


@pytest.mark.parametrize("entry", EXPECTED, ids=lambda f: f.__name__)
def test_signature_has_exactly_the_expected_parameters(entry):
    assert set(inspect.signature(entry).parameters) == EXPECTED[entry]
