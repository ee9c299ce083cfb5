"""Named system configurations and cluster setups for the experiments.

Each *system* is a point in the engine's mode matrix (DESIGN.md §3),
matching a system measured in the paper:

* ``quokka``          — pipelined + dynamic deps + write-ahead lineage
                        (+ aggregation pushdown); the paper's system.
* ``quokka_noft``     — fault tolerance off (overhead denominator, and
                        the measured restart baseline when failed).
* ``quokka_stagewise``— Fig 7's blocking-execution ablation.
* ``quokka_static_small`` / ``quokka_static_large`` — Fig 8's static
                        lineage strategies (paper: batch 8 vs 128).
* ``quokka_spool``    — Fig 9's Quokka-with-S3-spooling variant.
* ``quokka_ckpt``     — §V-C's incremental-checkpointing variant.
* ``trino``           — pipelined + static deps + durable HDFS spooling,
                        no aggregation pushdown (per §V-C).
* ``trino_noft``      — Trino with fault tolerance off.
* ``spark``           — stagewise (blocking) + upstream backup + data-
                        parallel recovery (one recompute task per lost
                        partition), with partial aggregation
                        (SparkSQL performs partial aggregation) and
                        ~2x-slower row-oriented kernels.

Workers model r6id instances with 2 task slots each
(``executor.SLOTS_PER_WORKER``).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from ..engine.executor import ExecConfig
from ..engine.simtime import CostModel

#: Scale factor / batch count used by benchmarks (SF0.1 rescaled to
#: SF100-equivalent volumes by CostModel.bytes_scale).
BENCH_SF = 0.1
BENCH_INPUT_BATCHES = 64

#: Single-node kernel throughput (bytes/s/slot). Quokka uses DuckDB/
#: Polars kernels (``CostModel``'s defaults); SparkSQL's Tungsten row
#: kernels are ~2x slower (paper §V-A attributes part of the gap to
#: kernels); Trino's vectorised Java kernels are the fastest (see
#: ``trino`` below).
TRINO_COST = CostModel(cpu_bytes_per_sec=1000e6, scan_bytes_per_sec=500e6)
SPARK_COST = CostModel(cpu_bytes_per_sec=280e6, scan_bytes_per_sec=280e6)


@dataclass(frozen=True)
class System:
    """An engine configuration plus whether the system's plans push
    partial aggregation into the scans."""

    cfg: ExecConfig
    pushdown: bool = True

    def exec_config(self, n_workers: int, input_batches: int) -> ExecConfig:
        return replace(self.cfg, n_workers=n_workers, input_batches=input_batches)


# ``ExecConfig``'s defaults are Quokka: pipelined, dynamic deps, write-ahead
# lineage, pipelined-parallel recovery.
SYSTEMS: dict[str, System] = {
    "quokka": System(ExecConfig()),
    "quokka_noft": System(ExecConfig(ft_mode="none")),
    "quokka_stagewise": System(ExecConfig(exec_mode="stagewise")),
    # Fig 8's static strategies. The paper batches 8 vs 128 partitions at
    # SF100 (~thousands of partitions per channel); at our batch counts
    # the scale-equivalent pair is 2 vs 16 (small: fine-grained
    # pipelining, many tiny shuffles; large: effectively stage-at-a-time).
    "quokka_static_small": System(ExecConfig(static_batch=2)),
    "quokka_static_large": System(ExecConfig(static_batch=16)),
    "quokka_spool": System(ExecConfig(ft_mode="spool_s3")),
    "quokka_ckpt": System(ExecConfig(ft_mode="checkpoint")),
    # Trino without FT is *faster* than Quokka (paper Figs 6+9 imply
    # trino-noFT ≈ 0.8x quokka: with-FT is 1.25-1.7x slower while spooling
    # alone costs 1.5-2.7x) — its mature vectorised Java kernels outrun
    # Quokka's Python-orchestrated DuckDB/Polars calls.
    "trino": System(
        ExecConfig(static_batch=8, ft_mode="spool_hdfs", cost=TRINO_COST),
        pushdown=False,
    ),
    "trino_noft": System(
        ExecConfig(static_batch=8, ft_mode="none", cost=TRINO_COST),
        pushdown=False,
    ),
    "spark": System(
        ExecConfig(
            exec_mode="stagewise", recovery_mode="data_parallel", cost=SPARK_COST
        )
    ),
}

#: Fault-tolerance design-choice matrix (paper Table I), derived from the
#: system definitions above so the table always reflects the code.
TABLE1_SYSTEMS = {
    "Trino": "trino",
    "SparkSQL": "spark",
    "Quokka": "quokka",
}
