"""Configuration of the directory backend for one application run.

A :class:`DirectorySpec` is what callers hand to
:class:`~repro.core.launch.Application` (or :class:`~repro.runtime.mp`'s
cluster) to choose a backend. ``DirectorySpec.coerce`` accepts the
shorthand forms used throughout tests and benchmarks::

    Application(..., directory=None)            # centralized (default)
    Application(..., directory="sharded")       # 4 shards, replication 2
    Application(..., directory=DirectorySpec(
        backend="sharded", nodes=8, replication=2))

``sharded`` is the one distributed directory: the consistent-hash ring
of :mod:`repro.directory.hashring`, run as daemon processes in virtual
time by the simulator and as real shard OS processes by the mp runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ProtocolError

__all__ = ["DirectorySpec", "BACKENDS"]

BACKENDS = ("centralized", "sharded")


@dataclass(frozen=True)
class DirectorySpec:
    """How to build the location directory for a run.

    Parameters
    ----------
    backend:
        ``centralized`` | ``sharded``.
    nodes:
        Directory daemon count (ignored by ``centralized``).
    replication:
        Distinct nodes holding each rank's record.
    """

    backend: str = "centralized"
    nodes: int = 4
    replication: int = 2

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ProtocolError(
                f"unknown directory backend {self.backend!r}; "
                f"expected one of {BACKENDS}")
        if self.nodes < 1:
            raise ProtocolError("directory needs at least one node")
        if self.replication < 1:
            raise ProtocolError("replication must be >= 1")

    @property
    def distributed(self) -> bool:
        return self.backend != "centralized"

    @classmethod
    def coerce(cls, value: "DirectorySpec | str | None") -> "DirectorySpec":
        """Normalise the ``directory=`` argument of Application/cluster."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(backend=value)
        raise ProtocolError(
            f"cannot interpret {value!r} as a directory spec")
