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
        assert all(len(l) == len(lines[1]) for l in lines[1:])
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
    """The checks that read no wall clock, at sizes tier-1 can afford. Fig. 6's
    makespans come from per-topology measured task times: at a reduced size
    they are noise-bound, so it is asserted only at full size (``-m slow``)."""

    def test_fig04_simulated_makespan(self):
        # Every deployment re-schedules the same measured task sets.
        assert experiments.fig04_numa(n_rows=10_000, reps=3).shape_ok

    def test_fig11_byte_counts(self):
        assert experiments.fig11_memory_overhead(n_rows=20_000, partitions=4).shape_ok

    def test_fig12_answers_survive_the_kill(self):
        fig = experiments.fig12_fault_tolerance(n_rows=10_000, n_queries=10, kill_at=5)
        assert [ok for desc, ok in fig.shape_checks if "pre-failure answer" in desc] == [True]

    def test_join_strategies_agree(self):
        fig = experiments.ablation_joins(n_rows=5_000, reps=1)
        assert [ok for desc, ok in fig.shape_checks if "same rows" in desc] == [True]


@pytest.mark.slow
@pytest.mark.parametrize("fig_id", list(experiments.ALL_EXPERIMENTS))
def test_figure_shape_at_full_size(fig_id):
    fig = experiments.ALL_EXPERIMENTS[fig_id]()
    assert fig.shape_ok, fig.to_text()
