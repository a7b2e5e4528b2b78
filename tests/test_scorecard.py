"""Tests for the reproduction scorecard."""

import json

import pytest

from repro.experiments import ExperimentConfig, Runner, tables
from repro.experiments.report import Comparison
from repro.experiments.scorecard import (
    ExhibitScore,
    build_scorecard,
    experiments_markdown,
    score_comparison,
    scorecard_json,
)


def make_comparison(rows):
    return Comparison("Table T", "demo", ["a", "b"], rows)


class TestScoring:
    def test_pairs_extracted_and_scored(self):
        comparison = make_comparison([["x", (110.0, 100.0)], ["y", (90.0, 100.0)]])
        score = score_comparison("tableT", comparison)
        assert score.pairs == 2
        assert score.mean_rel_error == pytest.approx(0.1)
        assert score.worst_rel_error == pytest.approx(0.1)

    def test_plain_cells_ignored(self):
        comparison = make_comparison([["x", 5], ["y", "text"]])
        score = score_comparison("tableT", comparison)
        assert score.pairs == 0
        assert score.grade == "qualitative"

    def test_grades(self):
        exact = score_comparison("t", make_comparison([["x", (100.0, 100.0)]]))
        assert exact.grade.startswith("excellent")
        good = score_comparison("t", make_comparison([["x", (110.0, 100.0)]]))
        assert good.grade.startswith("good")
        fair = score_comparison("t", make_comparison([["x", (130.0, 100.0)]]))
        assert fair.grade.startswith("fair")
        config = score_comparison("table2", make_comparison([["x", (1.0, 9.0)]]))
        assert config.grade == "exact (configuration)"

    def test_scale_bound_label(self):
        bad = score_comparison("table8", make_comparison([["x", (10.0, 100.0)]]))
        assert bad.scale_bound
        assert bad.grade == "shape only"

    def test_json_roundtrip(self):
        scores = [
            ExhibitScore("Table X", "t", 3, 0.1234, 0.5),
        ]
        data = json.loads(scorecard_json(scores))
        assert data[0]["mean_rel_error"] == 0.1234
        assert data[0]["exhibit"] == "Table X"


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def tiny_runner(self):
        return Runner(
            ExperimentConfig(api_frames=4, sim_frames=1, geometry_frames=3)
        )

    def test_build_scorecard_covers_all_tables(self, tiny_runner):
        scores = build_scorecard(tiny_runner)
        assert len(scores) == 17
        exhibits = {s.exhibit for s in scores}
        assert "Table III" in exhibits and "Table XVII" in exhibits

    def test_markdown_render(self, tiny_runner):
        markdown = experiments_markdown(tiny_runner, include_figures=False)
        assert markdown.startswith("# EXPERIMENTS")
        assert "## Scorecard" in markdown
        assert "Table XVI" in markdown


def _exhibit_with_type_error(runner=None):
    """A registered exhibit whose own body raises TypeError on a runner."""
    if runner is not None:
        raise TypeError("bug inside the exhibit")
    return make_comparison([["x", (1.0, 1.0)]])


class TestExhibitDispatch:
    """Every exhibit takes ``runner=``; a TypeError raised inside one is
    its bug and must propagate, not silently re-run the exhibit on the
    default runner (which ignores --cache-dir, --jobs and the budgets)."""

    @pytest.fixture
    def broken(self, monkeypatch):
        monkeypatch.setattr(
            tables, "ALL_TABLES", {"tableT": _exhibit_with_type_error}
        )

    def test_every_registered_exhibit_takes_a_runner(self):
        import inspect

        from repro.experiments import figures

        for func in (*tables.ALL_TABLES.values(), *figures.ALL_FIGURES.values()):
            assert "runner" in inspect.signature(func).parameters, func

    def test_build_scorecard_propagates(self, broken):
        runner = Runner(ExperimentConfig(1, 1, 1), use_cache=False)
        with pytest.raises(TypeError, match="bug inside the exhibit"):
            build_scorecard(runner)

    def test_cli_tables_propagates(self, broken, tmp_path):
        from repro import cli

        with pytest.raises(TypeError, match="bug inside the exhibit"):
            cli.main(
                [
                    "tables", "--only", "tableT", "--jobs", "1",
                    "--out-dir", str(tmp_path / "out"),
                    "--cache-dir", str(tmp_path / "cache"),
                ]
            )
