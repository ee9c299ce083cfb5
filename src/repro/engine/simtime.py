"""Simulated-time cost model for the cluster substrate.

The engine executes **real kernels on real data**; only the clock is
simulated. Each task's duration is derived from the real byte sizes of
its inputs/outputs through the constants below, which are calibrated to
the paper's testbed (r6id instances: 8 vCPU / 64 GB / 474 GB NVMe per
2xlarge, 10 Gbps-class networking, TPC-H SF100 Parquet on S3).

Because we run the pipeline at SF≈0.1 instead of SF100, ``bytes_scale``
rescales observed batch sizes to paper-scale volumes before costing, so
fixed per-task/per-object overheads (task dispatch, S3/HDFS round trips)
carry realistic weight relative to bandwidth terms — that ratio is what
drives the paper's small-partition effects (spooling collapse at 16
workers, static batch-size crossover).

Shared resources are modelled as :class:`Timeline` s — serially reusable
devices (a worker's NIC, a worker's NVMe): reservations queue behind
each other, which is how contention (e.g. several stages backing up
shuffle partitions at once, §III-A) surfaces in simulated time.
"""
from __future__ import annotations

from dataclasses import dataclass


class Timeline:
    """A serially-reusable resource: reservations queue FIFO."""

    def __init__(self) -> None:
        self.busy_until = 0.0

    def reserve(self, ready: float, duration: float) -> float:
        """Use the resource for ``duration`` once free after ``ready``;
        returns the completion time and advances the busy horizon."""
        start = max(ready, self.busy_until)
        self.busy_until = start + duration
        return self.busy_until

    def reset(self) -> None:
        self.busy_until = 0.0


@dataclass(frozen=True)
class CostModel:
    """Calibrated constants (see module docstring). All sizes in bytes
    *after* ``bytes_scale`` is applied by the helpers."""

    bytes_scale: float = 1000.0     # SF0.1 measured bytes -> SF100-equivalent
    cpu_bytes_per_sec: float = 600e6   # relational kernel throughput / slot
    scan_bytes_per_sec: float = 350e6  # S3 Parquet read+decode / slot
    task_overhead_s: float = 0.01      # dispatch + poll + dependency check
    gcs_txn_s: float = 0.001           # write-ahead lineage commit (Redis)
    net_bytes_per_sec: float = 1.25e9  # 10 Gbps NIC, shared per worker
    push_lat_s: float = 0.001          # per remote slice (Flight RTT)
    disk_bytes_per_sec: float = 1.4e9  # instance NVMe, shared per worker
    s3_lat_s: float = 0.04             # per-object durable PUT latency
    s3_bytes_per_sec: float = 300e6    # durable write bandwidth / worker
    hdfs_lat_s: float = 0.03
    hdfs_replication: int = 3          # replicated writes consume NIC 3x
    detect_delay_s: float = 2.0        # failure detection (paper tunes Spark to 2 s)
    stage_sched_s: float = 0.15        # stagewise engines: per-stage barrier cost

    def scaled(self, nbytes: int) -> float:
        return nbytes * self.bytes_scale

    def cpu_time(self, nbytes_in: int, nbytes_out: int) -> float:
        return (self.scaled(nbytes_in) + self.scaled(nbytes_out)) / self.cpu_bytes_per_sec

    def scan_time(self, nbytes: int) -> float:
        return self.scaled(nbytes) / self.scan_bytes_per_sec

    def net_time(self, nbytes: int) -> float:
        return self.scaled(nbytes) / self.net_bytes_per_sec

    def disk_time(self, nbytes: int) -> float:
        return self.scaled(nbytes) / self.disk_bytes_per_sec

    def durable_time(self, nbytes: int, kind: str) -> float:
        """Latency + bandwidth cost of persisting one object durably."""
        if kind == "s3":
            return self.s3_lat_s + self.scaled(nbytes) / self.s3_bytes_per_sec
        if kind == "hdfs":
            return (
                self.hdfs_lat_s
                + self.scaled(nbytes) * self.hdfs_replication / self.net_bytes_per_sec
            )
        raise ValueError(f"unknown durable store kind: {kind}")
