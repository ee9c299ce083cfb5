"""Per-layer spans taken from outside the engine.

:class:`Tracer` wraps the public functions of each engine layer in
place (module functions and class methods), times every call, and
restores the original objects on :meth:`Tracer.uninstall`. Nothing in
``src/`` knows it is being traced.

A layer's *self time* is the time spent in its spans minus the time
covered by spans nested inside them, so the self times of all layers add
up to the wall time spent inside any span. A layer's *call count* counts
entries into the layer from outside it: ``LineageStore.closed_total``
calling ``Gcs.get`` is one GCS read, not two.

Spans are aggregated as they close (time and calls per layer) rather
than kept one by one: a pass makes a few hundred thousand calls.
"""
from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Optional

from repro import oracle
from repro.core import gcs, recovery, wal
from repro.engine import cluster, executor, operators, partition, simtime, util

#: Layers whose spans cover engine work inside a query run; the traced
#: wall time of a pass is compared against the sum of their self times.
RUN_LAYERS = (
    "executor", "operators.join", "operators.agg", "operators.topk",
    "operators.flush", "partition", "util.nbytes", "util.concat",
    "gcs.read", "gcs.txn", "recovery.plan", "cluster", "simtime",
)

_GCS_READS = ("get", "table", "keys")
_GCS_TXNS = ("transaction", "set", "delete")
_STORE_READS = (
    "lineage", "lineage_len", "is_committed", "closed_total", "watermark",
    "all_lineage", "location", "locations", "assignment", "assignments",
    "recovery_flag",
)
_STORE_TXNS = (
    "commit_task", "set_location", "prune_locations", "set_assignment",
    "set_recovery_flag",
)


def _repro_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if n == "repro" or n.startswith("repro.")]


def _rows(pdf) -> int:
    return 0 if pdf is None else len(pdf)


class Tracer:
    """Installs timing wrappers around every layer's public functions.

    ``self_s[layer]`` and ``calls[layer]`` hold time and entries per
    layer; ``counts[name]`` holds work counters (rows, bytes, simulated
    seconds) recorded at the same call boundaries.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._child: list[float] = []   # time covered by children, per open span
        self._layer: list[str] = []     # layer of each open span
        self._saved: list[tuple[Any, str, Any]] = []  # (owner, attr, original)
        self._timeline_kind: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._row_nbytes = util.row_nbytes  # unwrapped: hooks add no util spans

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn: Callable, layer: str,
              after: Optional[Callable[..., None]] = None) -> Callable:
        child, layers = self._child, self._layer
        self_s, calls = self.self_s, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not layers or layers[-1] != layer:
                calls[layer] += 1
            layers.append(layer)
            child.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                self_s[layer] += dur - child.pop()
                layers.pop()
                if child:
                    child[-1] += dur
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return traced

    def _patch(self, owner: Any, attr: str, layer: str,
               after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr``. A module function is also replaced in
        every ``repro`` module that imported it by name."""
        orig = owner.__dict__[attr]
        new = self._wrap(orig, layer, after)
        if isinstance(owner, type):
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, new)
            return
        for mod in _repro_modules():
            if mod.__dict__.get(attr) is orig:
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, new)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        c = self.counts
        p = self._patch

        p(executor.Executor, "__init__", "executor", self._after_executor_init)
        p(executor.Executor, "run", "executor", self._after_run)

        def after_join(out, op, idx, pdf):
            c["operators.join_rows_in"] += _rows(pdf)
            c["operators.join_rows_out"] += _rows(out)

        def after_agg(out, op, idx, pdf):
            c["operators.agg_rows_in"] += _rows(pdf)

        p(operators.SymmetricHashJoin, "on_batch", "operators.join", after_join)
        p(operators.HashAgg, "on_batch", "operators.agg", after_agg)
        p(operators.TopK, "on_batch", "operators.topk")
        for cls in (operators.Operator, operators.HashAgg, operators.TopK):
            p(cls, "flush", "operators.flush")

        def after_partition(out, pdf, cols, n):
            c["partition.rows"] += _rows(pdf)

        p(partition, "partition", "partition", after_partition)
        p(util, "pdf_nbytes", "util.nbytes")
        p(util, "row_nbytes", "util.nbytes")
        p(util, "concat_batches", "util.concat")

        for attr in _GCS_READS:
            p(gcs.Gcs, attr, "gcs.read")
        for attr in _GCS_TXNS:
            p(gcs.Gcs, attr, "gcs.txn")
        for attr in _STORE_READS:
            p(wal.LineageStore, attr, "gcs.read")
        for attr in _STORE_TXNS:
            p(wal.LineageStore, attr, "gcs.txn")

        p(recovery, "plan_recovery", "recovery.plan")

        def after_backup(out, worker, name, pdf):
            if pdf is not None and len(pdf):
                c["cluster.backup_bytes"] += self._row_nbytes(pdf) * len(pdf)

        p(cluster.Worker, "backup", "cluster", after_backup)

        def after_cpu(out, *_):
            c["simtime.cpu_s"] += out

        def after_scan(out, *_):
            c["simtime.scan_s"] += out

        def after_reserve(out, tl, ready, duration):
            kind = self._timeline_kind.get(tl)
            if kind is not None:
                c[f"simtime.{kind}_busy_s"] += duration
                c[f"simtime.{kind}_wait_s"] += max(0.0, out - duration - ready)

        p(simtime.CostModel, "cpu_time", "simtime", after_cpu)
        p(simtime.CostModel, "scan_time", "simtime", after_scan)
        # ``reserve`` has moved ``busy_until`` by the time the hook runs,
        # so the start of the reservation is taken from its return value.
        p(simtime.Timeline, "reserve", "simtime", after_reserve)

        p(oracle, "assert_equivalent", "oracle")

    def _after_executor_init(self, out, ex, *args, **kwargs) -> None:
        for w in ex.workers:
            self._timeline_kind[w.nic] = "nic"
            self._timeline_kind[w.disk] = "disk"

    def _after_run(self, res, ex, *args, **kwargs) -> None:
        st = res.stats
        self.counts["executor.tasks"] += st["n_tasks"]
        self.counts["recovery.rewound"] += sum(len(b) for b in st["rewound"])
        self.counts["recovery.replays"] += st["n_replays"]
        self.counts["recovery.rescans"] += st["n_rescans"]

    def uninstall(self) -> None:
        """Put back every original object, newest patch first."""
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


_WRAPPER = "Tracer._wrap.<locals>.traced"


def find_leftover_wrappers() -> list[str]:
    """Names of ``repro`` functions and methods that are still tracing
    wrappers. Scans the modules themselves, independently of the
    tracer's own record of what it patched."""
    left = set()
    for mod in _repro_modules():
        for name, obj in list(vars(mod).items()):
            members = list(vars(obj).items()) if isinstance(obj, type) else []
            for label, val in [(name, obj)] + [
                (f"{name}.{a}", v) for a, v in members
            ]:
                if getattr(val, "__qualname__", "") == _WRAPPER:
                    left.add(f"{mod.__name__}.{label}")
    return sorted(left)
