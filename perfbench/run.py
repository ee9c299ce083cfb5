"""Two-clock benchmark of the pipelined engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpch-fine-16w --seed 1 --seconds 40 --trace 0

The engine has two clocks. *Simulated* seconds are the paper's metric
(query completion time on the modelled cluster); *wall* seconds measure
how fast the simulator itself runs. One invocation runs one workload in
this process: a single client in a closed loop, one query run at a time,
each starting when the previous one ends. A *pass* is the workload's
list of query runs; passes repeat until ``--seconds`` is used up. The
first pass warms up and is checked but not timed.

A shared host can change speed by a quarter from one minute to the
next, as its other tenants come and go, so raw wall seconds of the same
code differ by that much between runs. ``wall_cal`` therefore
divides each query run's wall time by the time of a fixed calibration
kernel (pandas and plain Python, no engine code; see ``calibrate``) run
just before and just after it, which slows down with the host. It sums
these ratios over a pass and takes the median over the passes, so it
stays in proportion to the engine's speed; the raw wall seconds are
printed beside it. ``setup_s`` is scaled the same way, to seconds on a
host where one run of the kernel takes ``REF_KERNEL_S``; the raw set-up
seconds are printed beside it too.

Tables come from ``synth_data.PDF_GENERATORS`` with per-table seeds
derived from ``--seed``; the engine sees only the generated batches.
Queries run on ``Executor`` directly with the ``ExecConfig`` of
``harness.configs.SYSTEMS`` (not through ``Harness``, which memoises
runs). Every run is checked outside the timed region: the DuckDB oracle,
bit-identical ``sim_time`` across passes, and, for runs with a failure,
one recovery that rewinds only channels first hosted on the killed
worker.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, with spans wrapped around every layer from
outside (``spans.py``), and prints the per-layer metrics per pass. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
KILLED_WORKER = 1
KILL_AT = 0.5  # share of the same query's no-failure simulated time
CAL_SAMPLES = 3  # calibration kernel runs on each side of a timed query run
REF_KERNEL_S = 0.010  # kernel time on the reference host setup_s is scaled to


@dataclass(frozen=True)
class QueryRun:
    query: str
    system: str
    kill: bool = False  # KILLED_WORKER dies at KILL_AT of the no-failure run

    @property
    def label(self) -> str:
        return f"{self.query}/{self.system}" + ("/kill" if self.kill else "")


@dataclass(frozen=True)
class Workload:
    why: str
    sf: float
    row_groups: int
    workers: int
    runs: tuple[QueryRun, ...]  # one pass; a kill run follows its base run
    setup_reps: int


def _quokka(*queries: str) -> tuple[QueryRun, ...]:
    return tuple(QueryRun(q, "quokka") for q in queries)


def _both_systems(*queries: str) -> tuple[QueryRun, ...]:
    return tuple(
        QueryRun(q, s, kill)
        for q in queries for s in ("quokka", "spark") for kill in (False, True)
    )


# Every workload carries at least one run with a failure: each workload
# reports every end-to-end metric, sim_recovery_x included. The query
# lists fit several passes into a run and avoid q5/q7, whose filters keep
# a handful of the 30-100 suppliers, so their cost swings up to 3x with
# the seed.
WORKLOADS: dict[str, Workload] = {
    "tpch-fine-16w": Workload(
        "16 row-groups over 32 scan slots make every task tiny, so per-call "
        "overhead in scheduling, partitioning, size accounting and GCS dominates",
        sf=0.01, row_groups=16, workers=16,
        runs=_quokka("q1", "q6", "q10", "q14") + (QueryRun("q14", "quokka", True),),
        setup_reps=9,
    ),
    "tpch-bulk-4w": Workload(
        "big batches make per-row kernel cost dominate; SF 0.1 is the scale "
        "bytes_scale calibrates to SF100, so sim_s compares to the paper",
        sf=0.1, row_groups=64, workers=4,
        runs=_quokka("q1", "q6", "q10", "q14") + (QueryRun("q14", "quokka", True),),
        setup_reps=5,
    ),
    "recover-16w": Workload(
        "the only workload dominated by recovery: replays, rescans, both "
        "retrace paths and Spark-sim's stagewise barrier",
        sf=0.003, row_groups=8, workers=16,
        runs=_both_systems("q1", "q6", "q10"),
        setup_reps=15,
    ),
    # Not in BENCHMARK.json: the tests' seconds-long end-to-end check.
    "smoke": Workload(
        "tiny end-to-end check of the whole command",
        sf=0.003, row_groups=4, workers=4,
        runs=(QueryRun("q3", "quokka"), QueryRun("q3", "quokka", True)),
        setup_reps=1,
    ),
}


def metric_units(group: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as the
    benchmark's specification in ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def _import_engine() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: engine sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


def geomean(xs: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


_CAL_FRAMES: list = []


def calibrate() -> float:
    """Seconds one run of a fixed kernel takes: about 10 ms of the kind of
    work the engine does (small pandas joins, filters, group-bys and
    concats, and a dict loop), on inputs that never change. It uses no
    engine code, so it measures the host, not the program."""
    import numpy as np
    import pandas as pd

    if not _CAL_FRAMES:
        rng = np.random.default_rng(0)
        _CAL_FRAMES[:] = [
            pd.DataFrame({"k": rng.integers(0, 200, 3000), "v": rng.random(3000)}),
            pd.DataFrame({"k": np.arange(200), "w": rng.random(200)}),
        ]
    a, b = _CAL_FRAMES
    t0 = time.perf_counter()
    for _ in range(2):
        m = a.merge(b, on="k")
        m[m["v"] > 0.3].groupby("k", sort=False).agg(s=("w", "sum"))
        pd.concat([a, a], ignore_index=True)
        counts: dict = {}
        for k in a["k"].tolist():
            counts[k] = counts.get(k, 0) + 1
    return time.perf_counter() - t0


# ---------------------------------------------------------------- set-up


@dataclass
class Env:
    db: dict
    tables: dict
    plans: dict  # (query, pushdown) -> Plan


def table_seeds(seed: int, names: list[str]) -> dict[str, int]:
    """Independent per-table seeds derived from the workload seed."""
    import numpy as np

    children = np.random.SeedSequence(seed).spawn(len(names))
    return {n: int(c.generate_state(1)[0]) for n, c in zip(names, children)}


def setup(w: Workload, seed: int) -> tuple[Env, dict[str, float]]:
    """Generate the tables, split them into row-groups, build the plans.
    Returns the environment and the seconds each phase took."""
    from repro import synth_data
    from repro.harness.configs import SYSTEMS
    from repro.queries.tpch import QUERIES

    gens = synth_data.PDF_GENERATORS
    seeds = table_seeds(seed, list(gens))
    t0 = time.perf_counter()
    db = {name: gen(sf=w.sf, seed=seeds[name]) for name, gen in gens.items()}
    t1 = time.perf_counter()
    tables = {k: synth_data.split_batches(v, w.row_groups) for k, v in db.items()}
    t2 = time.perf_counter()
    plans = {}
    for r in w.runs:
        key = (r.query, SYSTEMS[r.system].pushdown)
        if key not in plans:
            plans[key] = QUERIES[r.query].plan(db, pushdown=key[1])
    t3 = time.perf_counter()
    phases = {"synth_data.gen_s": t1 - t0, "synth_data.split_s": t2 - t1,
              "queries.plan_s": t3 - t2}
    return Env(db, tables, plans), phases


# ------------------------------------------------------------- query runs


@dataclass
class Outcome:
    wall: float = 0.0
    sim: Optional[float] = None
    df: object = None
    stats: Optional[dict] = None
    hosts: Optional[dict] = None  # channel -> worker before the run
    journal_bytes: int = 0
    error: Optional[str] = None


class Runner:
    """Runs passes of one workload and checks every outcome."""

    def __init__(self, w: Workload, env: Env, keep_journal: bool = False) -> None:
        from repro.harness.configs import SYSTEMS

        self.w, self.env, self.keep_journal = w, env, keep_journal
        self.cfgs = {
            s: SYSTEMS[s].exec_config(w.workers, w.row_groups)
            for s in {r.system for r in w.runs}
        }
        self.pushdown = {s: SYSTEMS[s].pushdown for s in self.cfgs}
        self.base_sim: dict[tuple[str, str], float] = {}  # no-failure sim_time
        self.first_sim: dict[int, float] = {}  # run index -> first checked sim_time
        self.accepted: dict[str, list] = {}  # query -> results the oracle passed
        self.attempted = 0
        self.failures: list[str] = []

    def run_one(self, r: QueryRun) -> Outcome:
        """One query run; only Executor construction and run are timed."""
        from repro.core.gcs import Gcs
        from repro.core.wal import LineageStore
        from repro.engine.executor import Executor, Failure

        out = Outcome()
        failures = []
        if r.kill:
            base = self.base_sim.get((r.query, r.system))
            if base is None:
                out.error = "no successful no-failure run to time the kill"
                return out
            failures = [Failure(KILLED_WORKER, KILL_AT * base)]
        plan = self.env.plans[(r.query, self.pushdown[r.system])]
        try:
            t0 = time.perf_counter()
            ex = Executor(plan, self.env.tables, self.cfgs[r.system],
                          store=LineageStore(Gcs()))
            t1 = time.perf_counter()
            out.hosts = {cid: rt.worker for cid, rt in ex.channels.items()}
            t2 = time.perf_counter()
            res = ex.run(failures)
            t3 = time.perf_counter()
        except Exception:  # a failed run is counted, the loop goes on
            out.error = traceback.format_exc(limit=3)
            return out
        out.wall = (t1 - t0) + (t3 - t2)
        out.sim, out.df, out.stats = res.sim_time, res.df, res.stats
        if self.keep_journal:
            out.journal_bytes = sum(
                len(json.dumps(txn)) + 1 for txn in ex.store.gcs.journal
            )
        return out

    def run_pass(self, cal: Optional[list[list[float]]] = None) -> list[Outcome]:
        """One pass. With ``cal``, the calibration kernel is timed before
        each query run and after the last: ``cal[i]`` and ``cal[i + 1]``
        bracket run ``i``."""
        def calibrate_into() -> None:
            if cal is not None:
                cal.append([calibrate() for _ in range(CAL_SAMPLES)])

        outs = []
        for r in self.w.runs:
            calibrate_into()
            o = self.run_one(r)
            if o.error is None and not r.kill:
                self.base_sim.setdefault((r.query, r.system), o.sim)
            outs.append(o)
        calibrate_into()
        return outs

    def check_pass(self, outs: list[Outcome]) -> list[bool]:
        """Check every outcome of a pass; returns which ones passed."""
        ok = []
        for i, (r, o) in enumerate(zip(self.w.runs, outs)):
            self.attempted += 1
            err = o.error or self._violation(i, r, o)
            if err:
                self.failures.append(f"{r.label}: {err.strip()}")
            ok.append(not err)
        return ok

    def _violation(self, i: int, r: QueryRun, o: Outcome) -> Optional[str]:
        from repro import oracle
        from repro.queries.tpch import QUERIES

        first = self.first_sim.setdefault(i, o.sim)
        if o.sim != first:
            return f"sim_time {o.sim!r} differs from the first pass's {first!r}"
        if r.kill:
            st = o.stats
            if st["n_recoveries"] != 1:
                return f"{st['n_recoveries']} recoveries, expected 1"
            rolled_back = [c for batch in st["rewound"] for c in batch
                           if o.hosts[c] != KILLED_WORKER]
            if rolled_back:
                return f"rewound surviving channels {rolled_back[:4]}"
        # A result equal to one the oracle accepted needs no new DuckDB run.
        accepted = self.accepted.setdefault(r.query, [])
        if not any(o.df.equals(a) for a in accepted):
            try:
                oracle.assert_equivalent(o.df, QUERIES[r.query].sql, **self.env.db)
            except AssertionError as e:
                return f"oracle: {str(e)[:300]}"
            accepted.append(o.df)
        return None


# -------------------------------------------------------------- measuring


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(runner: Runner, seconds: float, tracer=None):
    """Passes until ``seconds`` are used (at least two). With a tracer,
    each untraced pass is followed by a traced one. Returns the untraced
    and the traced passes' outcomes, unchecked, and each untraced pass's
    calibration times."""
    plain, traced, cals = [], [], []
    t_start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        cals.append([])
        plain.append(runner.run_pass(cals[-1]))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.run_pass())
            finally:
                tracer.uninstall()
        longest = max(longest, time.perf_counter() - t0)
        if len(plain) >= 2 and time.perf_counter() - t_start + longest > seconds:
            return plain, traced, cals


def measure(w: Workload, seed: int,
            seconds: float) -> tuple[dict, Runner, list, dict]:
    """Untraced run: set-up repeated, then passes for ``seconds``."""
    totals, scaled = [], []
    calibrate()  # warm-up: the first run pays for pandas' lazy set-up
    for _ in range(w.setup_reps):
        before = [calibrate() for _ in range(CAL_SAMPLES)]
        env, phases = setup(w, seed)
        totals.append(sum(phases.values()))
        after = [calibrate() for _ in range(CAL_SAMPLES)]
        scaled.append(totals[-1] * REF_KERNEL_S / statistics.mean(before + after))
    runner = Runner(w, env)
    passes, _, cals = run_passes(runner, seconds)
    rss = peak_rss_mb()  # before the checks, which are not the workload
    walls: list[list[float]] = [[] for _ in w.runs]
    pass_walls, pass_cal = [], []
    for p, outs in enumerate(passes):
        ok = runner.check_pass(outs)
        if p == 0:  # warm-up
            continue
        good = [i for i in range(len(outs)) if ok[i]]
        for i in good:
            walls[i].append(outs[i].wall)
        pass_walls.append(sum(outs[i].wall for i in good))
        pass_cal.append(sum(
            outs[i].wall / statistics.mean(cals[p][i] + cals[p][i + 1])
            for i in good))
    metrics = {
        # The median pass, in calibration-kernel runs (module docstring).
        "wall_cal": statistics.median(pass_cal),
        "setup_s": statistics.median(scaled),
        "peak_rss_mb": rss,
        "ok_share": 1.0 - len(runner.failures) / runner.attempted,
    }
    metrics.update(sim_metrics(w, runner))
    raw = {"wall_s": statistics.median(pass_walls),
           "setup_s": statistics.median(totals),
           "cal_ms": 1000 * statistics.mean(
               c for cs in cals[1:] for bracket in cs for c in bracket)}
    return metrics, runner, walls, raw


def sim_metrics(w: Workload, runner: Runner) -> dict[str, float]:
    """Quokka's simulated-time geomeans, from the first pass."""
    base = [runner.first_sim[i] for i, r in enumerate(w.runs)
            if r.system == "quokka" and not r.kill and i in runner.first_sim]
    ratios = [runner.first_sim[i] / runner.base_sim[(r.query, r.system)]
              for i, r in enumerate(w.runs)
              if r.system == "quokka" and r.kill and i in runner.first_sim]
    return {"sim_s": geomean(base) if base else float("nan"),
            "sim_recovery_x": geomean(ratios) if ratios else float("nan")}


def measure_traced(w: Workload, seed: int, seconds: float) -> tuple[dict, Runner]:
    """Traced run: untraced and traced passes alternate. Per-layer
    metrics are per traced pass, except ``oracle.*`` (whole run)."""
    from spans import RUN_LAYERS, Tracer, find_leftover_wrappers

    phases = []
    for _ in range(w.setup_reps):
        env, ph = setup(w, seed)
        phases.append(ph)
    runner = Runner(w, env, keep_journal=True)
    tracer = Tracer()
    plain, traced, _ = run_passes(runner, seconds, tracer)
    # Traced passes are checked first, so the oracle runs under the
    # tracer; their sim_time must equal the untraced passes' bit for bit.
    tracer.install()
    try:
        for outs in traced:
            runner.check_pass(outs)
    finally:
        tracer.uninstall()
    for outs in plain:
        runner.check_pass(outs)
    leftovers = find_leftover_wrappers()
    if leftovers:
        runner.failures.append(f"wrappers left installed: {leftovers[:4]}")
    n = len(traced)
    plain_wall = sum(o.wall for outs in plain for o in outs)
    traced_wall = sum(o.wall for outs in traced for o in outs)
    journal = sum(o.journal_bytes for outs in traced for o in outs)

    s, calls, c = tracer.self_s, tracer.calls, tracer.counts
    tasks = c["executor.tasks"]
    m = {
        "operators.join_s": s["operators.join"],
        "operators.join_calls": calls["operators.join"],
        "operators.join_rows_in": c["operators.join_rows_in"],
        "operators.join_rows_out": c["operators.join_rows_out"],
        "operators.agg_s": s["operators.agg"],
        "operators.agg_calls": calls["operators.agg"],
        "operators.agg_rows_in": c["operators.agg_rows_in"],
        "operators.flush_s": s["operators.flush"],
        "operators.topk_s": s["operators.topk"],
        "partition.s": s["partition"],
        "partition.calls": calls["partition"],
        "partition.rows": c["partition.rows"],
        "util.nbytes_s": s["util.nbytes"],
        "util.nbytes_calls": calls["util.nbytes"],
        "util.concat_s": s["util.concat"],
        "util.concat_calls": calls["util.concat"],
        "executor.self_s": s["executor"],
        "executor.tasks": tasks,
        "gcs.read_s": s["gcs.read"],
        "gcs.reads": calls["gcs.read"],
        "gcs.txn_s": s["gcs.txn"],
        "gcs.txns": calls["gcs.txn"],
        "recovery.plan_s": s["recovery.plan"],
        "recovery.plans": calls["recovery.plan"],
        "recovery.rewound": c["recovery.rewound"],
        "recovery.replays": c["recovery.replays"],
        "recovery.rescans": c["recovery.rescans"],
        **{f"simtime.{k}": c[f"simtime.{k}"] for k in (
            "cpu_s", "scan_s", "nic_busy_s", "nic_wait_s", "disk_busy_s",
            "disk_wait_s")},
        "gcs.journal_bytes": journal,
        "cluster.backup_bytes": c["cluster.backup_bytes"],
    }
    m = {k: v / n for k, v in m.items()}
    m["oracle.s"] = s["oracle"]
    m["oracle.calls"] = calls["oracle"]
    m["executor.ms_per_task"] = 1000.0 * s["executor"] / tasks if tasks else 0.0
    m["gcs.journal_per_backup"] = (
        journal / c["cluster.backup_bytes"] if c["cluster.backup_bytes"] else 0.0
    )
    for k in ("synth_data.gen_s", "synth_data.split_s", "queries.plan_s"):
        m[k] = statistics.median(p[k] for p in phases)
    m["trace.overhead"] = traced_wall / plain_wall
    m["trace.coverage"] = sum(s[layer] for layer in RUN_LAYERS) / traced_wall
    return m, runner


# ---------------------------------------------------------------- output


def git_sha() -> str:
    """HEAD's commit id read from ``.git`` (no subprocess); ``unknown``
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(name: str, w: Workload, args) -> dict:
    import numpy
    import pandas

    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "pandas": pandas.__version__, "numpy": numpy.__version__,
        "sf": w.sf, "row_groups": w.row_groups, "workers": w.workers,
        "runs_per_pass": len(w.runs),
    }


def report_runs(w: Workload, runner: Runner, walls: list[list[float]]) -> None:
    print(f"{'run':<20} {'passes':>6} {'wall_med_s':>10} {'wall_max_s':>10} "
          f"{'sim_s':>10}")
    for i, r in enumerate(w.runs):
        ws = walls[i] or [float("nan")]
        sim = runner.first_sim.get(i, float("nan"))
        print(f"{r.label:<20} {len(walls[i]):>6} {statistics.median(ws):>10.4f} "
              f"{max(ws):>10.4f} {sim:>10.4f}")
    spark = [runner.first_sim[i] / runner.base_sim[(r.query, r.system)]
             for i, r in enumerate(w.runs)
             if r.system == "spark" and r.kill and i in runner.first_sim]
    if spark:
        print(f"spark sim_recovery_x (not a metric) = {geomean(spark):.4f}")


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_engine()
    w = WORKLOADS[args.workload]
    print("context " + json.dumps(context(args.workload, w, args)))

    if args.trace:
        metrics, runner = measure_traced(w, args.seed, args.seconds)
        units = metric_units("per_layer")
        print(f"lineage journal / upstream backup = "
              f"{metrics['gcs.journal_per_backup']:.6f} "
              f"({metrics['gcs.journal_bytes'] / 1024:.1f} KiB journal / "
              f"{metrics['cluster.backup_bytes'] / 2**20:.2f} MiB backed up, per pass)")
    else:
        metrics, runner, walls, raw = measure(w, args.seed, args.seconds)
        units = metric_units("end_to_end")
        report_runs(w, runner, walls)
        print(f"raw wall_s (median pass) = {raw['wall_s']:.4f} s; "
              f"raw setup_s = {raw['setup_s']:.4f} s; "
              f"calibration kernel = {raw['cal_ms']:.3f} ms "
              f"(reference {1000 * REF_KERNEL_S:g} ms)")
        print(f"failed_share = {1.0 - metrics['ok_share']:.4f} "
              f"({len(runner.failures)} of {runner.attempted} runs)")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for k in units:
        print(f"{k} = {metrics[k]:.6g} {units[k]}")
    for f in runner.failures:
        print(f"FAILED {f}", file=sys.stderr)
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
