"""Golden simulated times: pins the executor's exact output across commits.

Refactors of the executor must leave every simulated quantity
bit-identical. ``test_deterministic_sim_times`` only compares two runs of
the same code; this test compares against numbers recorded from the
engine, so any drift in scheduling, cost accounting or recovery shows.

``q3`` without pushdown, 4 workers, under each mode combination, once
without a failure and once with worker 1 killed at half the failure-free
time. Spark-sim (stagewise + data-parallel recovery) also runs a late
kill at 0.8: there a rewound channel's retrace merges many logged
records into one task, while at 0.5 each rewound channel has committed
at most one record, so its retrace matches Quokka's.

If a change is *meant* to alter simulated behaviour (a fidelity change),
regenerate these numbers and say so in CHANGES.md.
"""
import pytest

CONFIGS = {
    "quokka": {},
    "ft_none": {"ft_mode": "none"},
    "spool_s3": {"ft_mode": "spool_s3"},
    "spool_hdfs": {"ft_mode": "spool_hdfs"},
    "checkpoint": {"ft_mode": "checkpoint"},
    "stagewise": {"exec_mode": "stagewise"},
    "static2": {"static_batch": 2},
    "spark_sim": {"exec_mode": "stagewise", "recovery_mode": "data_parallel"},
}

#: (config, kill fraction) -> (sim_time, n_tasks, n_replays, n_rescans,
#: spooled_bytes)
GOLDEN = {
    ("quokka", None): (5.065868571428578, 241, 0, 0, 0),
    ("quokka", 0.5): (9.270880609523784, 240, 108, 10, 0),
    ("ft_none", None): (4.917344533333325, 240, 0, 0, 0),
    ("ft_none", 0.5): (11.420873447619034, 318, 0, 46, 0),
    ("spool_s3", None): (7.792631923809528, 228, 0, 0, 1230992),
    ("spool_s3", 0.5): (12.554973638095213, 241, 90, 0, 1230992),
    ("spool_hdfs", None): (7.033032990476199, 228, 0, 0, 1230992),
    ("spool_hdfs", 0.5): (11.543012647619028, 239, 91, 0, 1230992),
    ("checkpoint", None): (7.916477866666665, 244, 0, 0, 0),
    ("checkpoint", 0.5): (13.38187603809522, 240, 122, 10, 0),
    ("stagewise", None): (6.719651276190481, 193, 0, 0, 0),
    ("stagewise", 0.5): (11.291361942857106, 193, 87, 10, 0),
    ("static2", None): (5.234107657142864, 389, 0, 0, 0),
    ("static2", 0.5): (9.50639725714283, 377, 124, 10, 0),
    ("spark_sim", None): (6.719651276190481, 193, 0, 0, 0),
    ("spark_sim", 0.5): (11.291361942857106, 193, 87, 10, 0),
    ("spark_sim", 0.8): (11.200862963809513, 195, 126, 12, 0),
}


@pytest.mark.parametrize(
    "config,frac", list(GOLDEN), ids=[f"{c}-{f}" for c, f in GOLDEN]
)
def test_sim_golden(runner, config, frac):
    failure = None if frac is None else (1, frac)
    res = runner.run("q3", pushdown=False, failure=failure, **CONFIGS[config])
    s = res.stats
    got = (
        res.sim_time, s["n_tasks"], s["n_replays"], s["n_rescans"],
        s["spooled_bytes"],
    )
    assert got == GOLDEN[(config, frac)]
