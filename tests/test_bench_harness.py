"""Benchmark harness: result rendering, pairs, timing, and the figure drivers
as a gate."""

import functools
import gc

import pytest

from repro.bench import experiments
from repro.bench.harness import FigureResult, Timing, build_pair, time_rounds
from repro.bench.report import format_markdown_table, format_table
from repro.config import Config
from repro.sql.types import DOUBLE, LONG, Schema

SCHEMA = Schema.of(("k", LONG), ("v", DOUBLE))


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2.5], [10, 0.125]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])
        assert "bbb" in out and "0.12500" in out

    def test_format_table_empty_rows(self):
        out = format_table(["x"], [])
        assert "x" in out

    def test_number_formatting(self):
        out = format_table(["n"], [[1234567.0], [0.00001234], [5.5]])
        assert "1,234,567" in out
        assert "5.500" in out

    def test_markdown_table(self):
        md = format_markdown_table(["a", "b"], [[1, "x"]])
        assert md.splitlines()[0] == "| a | b |"
        assert "| 1 | x |" in md


class TestFigureResult:
    def test_checks_and_shape_ok(self):
        fig = FigureResult("Fig. X", "t", ["a"], [[1]])
        fig.check("good", True)
        assert fig.shape_ok
        fig.check("bad", False)
        assert not fig.shape_ok

    def test_to_text_marks_mismatches(self):
        fig = FigureResult("Fig. X", "t", ["a"], [[1]], notes="note")
        fig.check("holds", True)
        fig.check("fails", False)
        text = fig.to_text()
        assert "[ok] holds" in text
        assert "[MISMATCH] fails" in text
        assert "note" in text

    def test_to_markdown(self):
        fig = FigureResult("Fig. X", "title", ["a"], [[1]])
        fig.check("c", True)
        md = fig.to_markdown()
        assert md.startswith("### Fig. X")
        assert "✅ c" in md


class TestTiming:
    def test_time_rounds_alternates_and_rotates(self):
        calls = []

        def config(name):
            return lambda: calls.append((name, gc.isenabled()))

        timed = time_rounds({"a": config("a"), "b": config("b")}, rounds=3, warmup=1,
                            settle=lambda: calls.append("settle"))
        names = [c[0] for c in calls if c != "settle"]
        assert names == ["a", "b", "b", "a", "a", "b", "b", "a"]  # warmup included
        assert calls[1::2] == ["settle"] * 8  # after every call
        assert not any(c[1] for c in calls[::2])  # the collector stays off while timing
        assert gc.isenabled()
        assert [len(t.samples) for t in timed.values()] == [3, 3]

    def test_timing_median_and_quartiles(self):
        t = Timing((3.0, 1.0, 2.0, 5.0, 4.0))
        assert t.median == 3.0
        assert t.quartiles == (2.0, 4.0)
        assert str(t) == "3.000 [2.000–4.000]"


class TestBuildPair:
    def test_pair_has_both_representations(self):
        rows = [(i % 5, float(i)) for i in range(100)]
        pair = build_pair(
            rows, SCHEMA, "k",
            config=Config(default_parallelism=2, shuffle_partitions=2),
        )
        assert pair.index_build_seconds > 0
        assert sorted(pair.vanilla.collect_tuples()) == sorted(rows)
        assert pair.indexed.count() == 100
        assert sorted(pair.indexed.lookup_tuples(3)) == sorted(
            r for r in rows if r[0] == 3
        )


class TestExperimentRegistry:
    def test_all_paper_figures_covered(self):
        # Every evaluation figure of the paper (1, 4-15; 2 and 3 are
        # architecture diagrams) has a driver, plus the join-strategy ablation.
        assert set(experiments.ALL_EXPERIMENTS) == {
            "1", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "joins"
        }

    def test_main_rejects_unknown_figure(self, capsys):
        assert experiments.main(["--fig", "99"]) == 2

    def test_main_runs_one_small_figure(self, capsys, monkeypatch):
        # Fig. 11 counts bytes: its checks hold or fail the same way every run.
        small = functools.partial(experiments.fig11_memory_overhead, n_rows=20_000, partitions=4)
        monkeypatch.setitem(experiments.ALL_EXPERIMENTS, "11", small)
        assert experiments.main(["--fig", "11"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 11" in out
        assert "2/2 shape checks hold" in out


class TestReducedFigures:
    """The checks that read no wall clock, at sizes tier-1 can afford. Figs. 4
    and 6 re-schedule one measured task set under every topology through the
    makespan model; that model itself is tested on a synthetic task list in
    ``tests/test_cluster.py::TestMakespanModel``. Fig. 6 is asserted only at
    full size (``-m slow``): at 40 k rows it held 20 of 20 sequential runs
    but none of 10 under ``REPRO_SCHEDULER_MODE=threads``, where a task's
    measured time includes waits for the GIL another worker holds, so a few
    tasks of its 256 read 10-40x the rest and bound every cluster size."""

    def test_fig04_simulated_makespan(self):
        # Every deployment re-schedules the same measured task sets.
        assert experiments.fig04_numa(n_rows=10_000, reps=3).shape_ok

    def test_fig11_byte_counts(self):
        assert experiments.fig11_memory_overhead(n_rows=20_000, partitions=4).shape_ok

    def test_fig12_answers_survive_the_kill(self):
        fig = experiments.fig12_fault_tolerance(n_rows=10_000, n_queries=10, kill_at=5)
        assert [ok for desc, ok in fig.shape_checks if "pre-failure answer" in desc] == [True]

    def test_fig12_summary_when_the_slowest_query_is_the_last(self):
        """Nothing follows the spike: the table says so and the return check
        fails with that reason; no other check changes."""
        latencies = [0.010, 0.011, 0.009, 0.010, 0.012, 0.010, 0.011, 0.010, 0.009, 0.050]
        rows, checks = experiments.fig12_summary(latencies, [0.010] * 10, kill_at=8)
        table = dict(rows)
        assert table["spike (query 10) (s)"] == 0.050
        assert table["median after recovery (s)"] == "no query after the spike"
        assert table["never-killed twin, after / before"] == "no query after the spike"
        (returns,) = [check for check in checks if check[0].startswith("latency returns to normal")]
        assert returns == (
            "latency returns to normal after recovery (within 50%, net of the twin's drift): "
            "no query followed the spike",
            False,
        )
        others = dict(check for check in checks if check is not returns)
        assert others == {
            "failure query pays a visible recovery spike (>2x normal)": True,
            "spike occurs at (or right after) the kill point": True,
        }

    def test_fig12_summary_judges_recovery_net_of_the_twin(self):
        latencies = [0.010] * 4 + [0.060] + [0.014] * 5
        twin = [0.010] * 5 + [0.012] * 5
        rows, checks = experiments.fig12_summary(latencies, twin, kill_at=5)
        table = dict(rows)
        assert table["median after recovery (s)"] == 0.014
        assert table["never-killed twin, after / before"] == pytest.approx(1.2)
        assert all(ok for _, ok in checks)
        slower = experiments.fig12_summary([0.010] * 4 + [0.060] + [0.020] * 5, twin, kill_at=5)[1]
        assert [ok for _, ok in slower] == [True, False, True]

    def test_join_strategies_agree(self):
        fig = experiments.ablation_joins(n_rows=5_000, reps=1)
        assert [ok for desc, ok in fig.shape_checks if "same rows" in desc] == [True]


@pytest.mark.slow
@pytest.mark.parametrize("fig_id", list(experiments.ALL_EXPERIMENTS))
def test_figure_shape_at_full_size(fig_id):
    fig = experiments.ALL_EXPERIMENTS[fig_id]()
    assert fig.shape_ok, fig.to_text()
