"""GDDR memory controller model: per-client byte accounting.

Every stage routes its memory traffic through here tagged with a
:class:`~repro.gpu.stats.MemClient`, which is exactly the attribution the
paper's Tables XV and XVI report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.stats import MemClient


@dataclass
class MemoryController:
    """Byte counters per client and direction."""

    reads: dict[MemClient, int] = field(
        default_factory=lambda: {c: 0 for c in MemClient}
    )
    writes: dict[MemClient, int] = field(
        default_factory=lambda: {c: 0 for c in MemClient}
    )

    def read(self, client: MemClient, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative read size")
        self.reads[client] += nbytes

    def write(self, client: MemClient, nbytes: int) -> None:
        if nbytes < 0:
            raise ValueError("negative write size")
        self.writes[client] += nbytes

    # -- Table XV ---------------------------------------------------------
    @property
    def total_read_bytes(self) -> int:
        return sum(self.reads.values())

    @property
    def total_write_bytes(self) -> int:
        return sum(self.writes.values())

    @property
    def total_bytes(self) -> int:
        return self.total_read_bytes + self.total_write_bytes

    @property
    def read_fraction(self) -> float:
        total = self.total_bytes
        return self.total_read_bytes / total if total else 0.0

    def bytes_per_frame(self, frames: int) -> float:
        return self.total_bytes / frames if frames else 0.0

    def bandwidth_at_fps(self, frames: int, fps: float = 100.0) -> float:
        """Sustained bytes/second needed to render at ``fps`` (Table XV)."""
        return self.bytes_per_frame(frames) * fps

    # -- Table XVI --------------------------------------------------------
    def client_bytes(self, client: MemClient) -> int:
        return self.reads[client] + self.writes[client]

    @property
    def traffic_distribution(self) -> dict[MemClient, float]:
        total = self.total_bytes
        if total == 0:
            return {c: 0.0 for c in MemClient}
        return {c: 100.0 * self.client_bytes(c) / total for c in MemClient}
