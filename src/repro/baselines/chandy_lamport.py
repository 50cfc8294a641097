"""The Chandy-Lamport distributed snapshot algorithm.

The coordination inside the paper's migrate() ("based on the work of
Chandy and Lamport [28]") and the foundation of the CoCheck baseline
(coordinated checkpointing). Implemented in full over the VM substrate:

* an initiator records its local state and sends a *marker* on every
  outgoing channel;
* on first marker receipt a process records its state, marks the arrival
  channel empty, and sends markers on all its outgoing channels;
* messages arriving on a channel after the local snapshot but before that
  channel's marker are recorded as the channel's in-flight state.

The classic correctness property — conservation of a global quantity
(tokens) across process states plus channel states — is what the tests
check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.messages import DataMessage
from repro.baselines.common import RawPeer
from repro.vm.ids import Rank

__all__ = ["Marker", "SnapshotRecorder", "GlobalSnapshot"]


@dataclass(frozen=True)
class Marker:
    """The snapshot marker (travels in-band on data channels)."""

    snapshot_id: int
    src_rank: Rank
    protocol_control = True


@dataclass
class GlobalSnapshot:
    """Assembled result: per-process states and per-channel contents."""

    snapshot_id: int
    process_states: dict[Rank, Any] = field(default_factory=dict)
    channel_states: dict[tuple[Rank, Rank], list] = field(default_factory=dict)
    #: markers sent in total (the coordination cost)
    markers_sent: int = 0

    @property
    def complete(self) -> bool:
        return bool(self.process_states)


class SnapshotRecorder:
    """Per-process snapshot logic, embedded into a :class:`RawPeer` app.

    The application drives it: call :meth:`start` to initiate, feed every
    received marker to :meth:`on_marker` and every data message to
    :meth:`on_message`; :meth:`done` reports local completion. The
    harness merges local recordings into a :class:`GlobalSnapshot`.
    """

    def __init__(self, peer: RawPeer, state_fn: Callable[[], Any],
                 sink: GlobalSnapshot):
        self.peer = peer
        self.state_fn = state_fn
        self.sink = sink
        self.recording = False
        self.recorded = False
        #: channels (by src rank) whose marker has not arrived yet
        self.open_channels: set[Rank] = set()
        self._channel_log: dict[Rank, list] = {}

    def _record_local(self) -> None:
        self.recorded = True
        self.recording = True
        self.sink.process_states[self.peer.rank] = self.state_fn()
        self.open_channels = set(self.peer.channels)
        self._channel_log = {r: [] for r in self.open_channels}
        for rank in sorted(self.peer.channels):
            self.peer.send(rank, Marker(self.sink.snapshot_id,
                                        self.peer.rank),
                           tag=-1, nbytes=16)
            self.sink.markers_sent += 1

    def start(self) -> None:
        """Initiate the snapshot at this process."""
        if not self.recorded:
            self._record_local()

    def on_marker(self, marker: Marker) -> None:
        src = marker.src_rank
        if not self.recorded:
            # first marker: record state; the arrival channel is empty
            self._record_local()
            self.open_channels.discard(src)
            self.sink.channel_states[(src, self.peer.rank)] = []
            return
        if src in self.open_channels:
            self.open_channels.discard(src)
            self.sink.channel_states[(src, self.peer.rank)] = \
                self._channel_log.pop(src, [])

    def on_message(self, msg: DataMessage) -> None:
        """A data message passed through while the snapshot is open."""
        if self.recorded and msg.src in self.open_channels:
            self._channel_log[msg.src].append(msg.body)

    @property
    def done(self) -> bool:
        return self.recorded and not self.open_channels
