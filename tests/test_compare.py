"""Tests for repro.compare: the cross-run regression explorer.

Covers the subsystem's load-bearing guarantees:

* two loads of the same run diff to *empty* — no manufactured deltas;
* a seeded metric perturbation is detected with the exact delta value and
  rendered in both the ASCII and HTML reports;
* the HTML report is self-contained (parses, no external resources);
* two live probes of the same spec at different ``--jobs`` widths report
  **zero non-timing deltas** (the farm's bit-identity guarantee, seen
  through the explorer);
* tolerance classes, gating modes, the meta/history round-trip, and the
  deterministic ``top_spans`` ordering.
"""

from __future__ import annotations

import html.parser
import json
import pathlib
import re
import subprocess

import pytest

from repro import compare
from repro.compare.diff import classify, direction
from repro.observe.export import top_spans

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
SERVE_FIXTURE = FIXTURE.parent / "BENCH_serve.json"


def _bench_doc() -> dict:
    return json.loads(FIXTURE.read_text())


# -- meta / history ---------------------------------------------------------
class TestMetaAndHistory:
    def test_run_meta_fields(self):
        meta = compare.run_meta()
        for field in ("git_rev", "timestamp_utc", "python", "cpu_count",
                      "platform", "machine", "no_native"):
            assert field in meta
        assert compare.machine_fingerprint(meta) is not None

    def test_fingerprint_none_for_missing_meta(self):
        assert compare.machine_fingerprint(None) is None
        assert compare.machine_fingerprint({}) is None
        assert compare.machine_fingerprint({"platform": "linux"}) is None

    def test_flatten_excludes_meta_and_handles_lists(self):
        flat = compare.flatten(
            {"meta": {"x": 1}, "a": {"b": 2}, "c": [1, {"d": 3}]}
        )
        assert flat == {"a.b": 2, "c[0]": 1, "c[1].d": 3}

    def test_history_round_trip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        doc = {"meta": compare.run_meta(), "value": 7, "nested": {"x": 1.5}}
        compare.append_history("pipeline", doc, path)
        compare.append_history("serve", {"value": 8}, path)
        entries = compare.load_history(path)
        assert len(entries) == 2
        only = compare.load_history(path, bench="pipeline")
        assert len(only) == 1
        assert only[0]["metrics"] == {"nested.x": 1.5, "value": 7}
        assert only[0]["meta"]["git_rev"] == doc["meta"]["git_rev"]

    def test_history_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "history.jsonl"
        compare.append_history("pipeline", {"value": 1}, path)
        with open(path, "a") as handle:
            handle.write('{"bench": "pipeline", "metr')  # killed mid-append
        assert len(compare.load_history(path)) == 1

    def test_bench_writers_stamp_meta_and_history(self, tmp_path, monkeypatch):
        from repro.experiments.bench import write_bench

        monkeypatch.chdir(tmp_path)
        out = write_bench({"speedup": {"fragments_per_s": 2.0}},
                          tmp_path / "BENCH_pipeline.json")
        doc = json.loads(out.read_text())
        assert "meta" in doc and "git_rev" in doc["meta"]
        entries = compare.load_history(tmp_path / compare.HISTORY_PATH)
        assert len(entries) == 1
        assert entries[0]["metrics"]["speedup.fragments_per_s"] == 2.0


# -- tolerance classes ------------------------------------------------------
class TestClassification:
    def test_identity_and_cells_are_exact(self):
        assert classify("identity", "frame_stats[0].fragments") == "exact"
        assert classify("cells", "Table III|UT2004/Primeval|idx") == "exact"

    def test_timing_rules(self):
        for name in ("farm.phase.simulate", "per_triangle.seconds",
                     "quadstream.fragments_per_s", "speedup.fragments_per_s",
                     "waves.cold.latency_s.p99", "observer.overhead_pct",
                     "farm.parallel.4.phases.merge"):
            assert classify("metrics", name) == "timing", name

    def test_info_rules(self):
        for name in ("observe.tracks_merged", "farm.cpu_count",
                     "cache.hit_rate", "server_stats.completed",
                     "backpressure_429s"):
            assert classify("metrics", name) == "info", name

    def test_gauges_are_info_counters_exact(self):
        assert classify("metrics", "gpu.memory_bytes", "gauge") == "info"
        assert classify("metrics", "sim.fragments", "counter") == "exact"

    def test_stage_classes(self):
        assert classify("stages", "gpu.frame.self_seconds") == "timing"
        assert classify("stages", "gpu.frame.count") == "exact"
        assert classify("stages", "farm.run.count") == "info"

    def test_direction(self):
        assert direction("quadstream.fragments_per_s") == 1
        assert direction("speedup.fragments_per_s") == 1
        assert direction("per_triangle.seconds") == -1
        assert direction("waves.cold.latency_s.p99") == -1
        assert direction("farm.phase.simulate") == -1


# -- diffing ----------------------------------------------------------------
class TestDiff:
    def test_identical_runs_empty_diff(self):
        a = compare.from_bench(FIXTURE, label="a")
        b = compare.from_bench(FIXTURE, label="b")
        diff = compare.diff_runs(a, b)
        assert diff.empty
        assert diff.non_timing_deltas == []
        assert diff.compared["metrics"] > 50

    def test_seeded_perturbation_exact_delta(self, tmp_path):
        doc = _bench_doc()
        doc["per_triangle"]["fragments"] += 1000
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        diff = compare.diff_runs(
            compare.from_bench(FIXTURE), compare.from_bench(mutated)
        )
        rows = diff.non_timing_deltas
        assert len(rows) == 1
        row = rows[0]
        assert row.name == "per_triangle.fragments"
        assert row.klass == "exact"
        assert row.status == "changed"
        assert row.delta == 1000

    def test_timing_band_and_direction(self, tmp_path):
        doc = _bench_doc()
        base = doc["per_triangle"]["seconds"]
        doc["per_triangle"]["seconds"] = round(base * 1.5, 6)  # 50% slower
        doc["quadstream"]["seconds"] = round(
            doc["quadstream"]["seconds"] * 0.98, 6
        )  # within band
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        diff = compare.diff_runs(
            compare.from_bench(FIXTURE), compare.from_bench(mutated),
            band_pct=10.0,
        )
        by_name = {row.name: row for row in diff.rows}
        slow = by_name["per_triangle.seconds"]
        assert slow.klass == "timing" and slow.status == "regression"
        # both sides carry the same committed meta -> like-for-like timing
        assert diff.fingerprint_match and not slow.advisory
        assert by_name["quadstream.seconds"].status == "noise"

    def test_added_removed_rows(self, tmp_path):
        doc = _bench_doc()
        doc.pop("observer", None)
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        diff = compare.diff_runs(
            compare.from_bench(FIXTURE), compare.from_bench(mutated)
        )
        removed = [r for r in diff.rows if r.status == "removed"]
        assert removed and all(
            r.name.startswith("observer.") for r in removed
        )

    def test_diff_is_order_stable(self, tmp_path):
        doc = _bench_doc()
        doc["per_triangle"]["fragments"] += 1
        doc["quadstream"]["seconds"] = round(
            doc["quadstream"]["seconds"] * 3, 6
        )
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        args = (compare.from_bench(FIXTURE), compare.from_bench(mutated))
        one = compare.render_ascii(compare.diff_runs(*args))
        two = compare.render_ascii(compare.diff_runs(*args))
        assert one == two

    def test_mismatched_sections_are_skipped(self):
        a = compare.from_bench(FIXTURE)
        b = compare.RunResults(
            "probe", "live", meta={}, metrics=dict(a.metrics),
            stages={"gpu.frame": {"count": 2, "self_seconds": 0.1}},
        )
        diff = compare.diff_runs(a, b)
        assert "stages" in diff.skipped
        assert diff.non_timing_deltas == []


# -- gating -----------------------------------------------------------------
class TestGate:
    def test_parse_fail_on(self):
        assert compare.parse_fail_on("exact") == ("exact", 10.0)
        assert compare.parse_fail_on("regression:5%") == ("regression", 5.0)
        assert compare.parse_fail_on("regression : 2.5") == ("regression", 2.5)
        assert compare.parse_fail_on("any") == ("any", 10.0)
        with pytest.raises(ValueError):
            compare.parse_fail_on("bogus")
        with pytest.raises(ValueError):
            compare.parse_fail_on("regression:-3")

    def test_gate_modes(self, tmp_path):
        doc = _bench_doc()
        doc["per_triangle"]["fragments"] += 5
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        diff = compare.diff_runs(
            compare.from_bench(FIXTURE), compare.from_bench(mutated)
        )
        assert compare.gate(diff, "exact")
        clean = compare.diff_runs(
            compare.from_bench(FIXTURE), compare.from_bench(FIXTURE)
        )
        assert compare.gate(clean, "exact") == []
        assert compare.gate(clean, "regression") == []
        assert compare.gate(clean, "any") == []

    def test_advisory_timing_does_not_gate_regression_mode(self, tmp_path):
        base = _bench_doc()
        base.pop("meta", None)  # pre-provenance document: unknown machine
        doc = json.loads(json.dumps(base))
        doc["per_triangle"]["seconds"] = round(
            doc["per_triangle"]["seconds"] * 2, 6
        )
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        a_path.write_text(json.dumps(base))
        b_path.write_text(json.dumps(doc))
        diff = compare.diff_runs(
            compare.from_bench(a_path), compare.from_bench(b_path)
        )
        assert not diff.fingerprint_match
        rows = [r for r in diff.rows if r.status == "regression"]
        assert rows and all(r.advisory for r in rows)
        assert compare.gate(diff, "regression") == []


# -- reports ----------------------------------------------------------------
class _HtmlCheck(html.parser.HTMLParser):
    def __init__(self):
        super().__init__()
        self.tags: list[str] = []
        self.external: list[str] = []

    def handle_starttag(self, tag, attrs):
        self.tags.append(tag)
        for name, value in attrs:
            if name in ("src", "href") and value and "://" in value:
                self.external.append(value)


class TestReports:
    def _perturbed_diff(self, tmp_path) -> compare.RunDiff:
        doc = _bench_doc()
        doc["per_triangle"]["fragments"] += 1000
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        return compare.diff_runs(
            compare.from_bench(FIXTURE), compare.from_bench(mutated)
        )

    def test_ascii_contains_delta(self, tmp_path):
        text = compare.render_ascii(self._perturbed_diff(tmp_path))
        assert "per_triangle.fragments" in text
        assert "1 non-timing delta(s)" in text

    def test_empty_diff_ascii(self):
        diff = compare.diff_runs(
            compare.from_bench(FIXTURE), compare.from_bench(FIXTURE)
        )
        assert "no differences" in compare.render_ascii(diff)

    def test_html_schema_and_self_containment(self, tmp_path):
        entries = [
            {"bench": "pipeline", "meta": {},
             "metrics": {"speedup.fragments_per_s": 3.9 + 0.01 * i}}
            for i in range(5)
        ]
        text = compare.render_html(
            self._perturbed_diff(tmp_path), history=entries
        )
        checker = _HtmlCheck()
        checker.feed(text)
        for tag in ("html", "head", "style", "body", "table", "svg",
                    "polyline"):
            assert tag in checker.tags, tag
        assert checker.external == []  # fully self-contained
        assert "per_triangle.fragments" in text
        perturbed = _bench_doc()["per_triangle"]["fragments"] + 1000
        assert f"{perturbed:,}" in text  # the perturbed value, rendered

    def test_render_json_round_trips(self, tmp_path):
        doc = json.loads(compare.render_json(self._perturbed_diff(tmp_path)))
        assert doc["counts"]["non_timing"] == 1
        assert doc["rows"][0]["name"] == "per_triangle.fragments"
        assert doc["rows"][0]["delta"] == 1000

    def test_sparklines(self):
        line = compare.ascii_sparkline([1.0, None, 2.0, 3.0])
        assert len(line) == 4 and line[1] == " "
        assert compare.ascii_sparkline([5.0, 5.0]) != ""
        svg = compare.sparkline_svg([1.0, 2.0, None, 4.0])
        assert svg.startswith("<svg") and "polyline" in svg

    def test_history_report(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for i in range(3):
            compare.append_history(
                "pipeline",
                {"speedup": {"fragments_per_s": 3.5 + 0.1 * i},
                 "meta": compare.run_meta()},
                path,
            )
        entries = compare.load_history(path)
        ascii_text = compare.render_history_ascii(entries)
        assert "speedup.fragments_per_s" in ascii_text
        html_text = compare.render_history_html(entries)
        assert "<svg" in html_text and "speedup.fragments_per_s" in html_text


# -- run loading ------------------------------------------------------------
class TestLoadRun:
    def test_bench_token(self):
        run = compare.load_run(str(FIXTURE))
        assert run.source == "bench"
        assert run.metrics["per_triangle.fragments"] > 0
        assert "meta" not in "".join(run.metrics)  # provenance not a metric

    def test_history_token(self, tmp_path):
        path = tmp_path / "history.jsonl"
        compare.append_history("pipeline", {"value": 1}, path)
        compare.append_history("pipeline", {"value": 2}, path)
        run = compare.load_run(str(path))
        assert run.source == "history"
        assert run.metrics == {"value": 2}  # last entry by default

    def test_spans_token(self, tmp_path):
        from repro.observe.spans import Tracer

        tracer = Tracer(track="main")
        outer = tracer.start("gpu.run", "gpu")
        inner = tracer.start("gpu.frame", "gpu")
        tracer.close(inner)
        tracer.close(outer)
        from repro.observe.export import to_jsonl

        path = tmp_path / "trace.spans.jsonl"
        path.write_text(to_jsonl(tracer.timeline()))
        run = compare.load_run(str(path))
        assert run.source == "spans"
        assert run.stages["gpu.frame"]["count"] == 1

    def test_unresolvable_token(self):
        with pytest.raises(ValueError):
            compare.load_run("no-such-thing-at-all")

    def test_spec_token_parses(self):
        from repro.compare.runset import _parse_spec_token

        probe = _parse_spec_token(
            "api:UT2004/Primeval@3", compare.ProbeSpec(jobs=2)
        )
        assert probe.kind == "api" and probe.frames == 3 and probe.jobs == 2
        assert _parse_spec_token("bad:token@x", compare.ProbeSpec()) is None

    def test_resolve_rev(self):
        """``HEAD`` resolves as git resolves it here: a full hash inside a
        work tree, ``None`` outside one (an exported source tree)."""
        root = FIXTURE.parent
        try:
            git = subprocess.run(
                ["git", "rev-parse", "--verify", "HEAD^{commit}"],
                cwd=root,
                capture_output=True,
                text=True,
            )
            expected = git.stdout.strip() if git.returncode == 0 else None
        except OSError:  # no git at all
            expected = None
        assert compare.resolve_rev("HEAD", root) == expected
        assert compare.resolve_rev("definitely-not-a-ref", root) is None


# -- live probes: the farm's bit-identity, seen through the explorer --------
@pytest.mark.slow
class TestLiveProbe:
    def test_jobs_width_invariance(self):
        """Same spec at --jobs 1 vs --jobs 2: zero non-timing deltas."""
        probe = compare.ProbeSpec(frames=2, shard_frames=1)
        a = compare.from_live(
            compare.ProbeSpec(**{**probe.__dict__, "jobs": 1}), label="j1"
        )
        b = compare.from_live(
            compare.ProbeSpec(**{**probe.__dict__, "jobs": 2}), label="j2"
        )
        diff = compare.diff_runs(a, b)
        assert a.identity, "probe produced no identity section"
        assert diff.compared.get("identity", 0) > 20
        assert diff.non_timing_deltas == []

    def test_live_probe_sections(self):
        run = compare.from_live(compare.ProbeSpec(frames=1, jobs=1))
        assert run.stages, "probe produced no span timeline"
        assert any(n.startswith("gpu.") for n in run.stages)
        assert run.metrics, "probe produced no metrics"
        assert run.meta["git_rev"]


# -- top_spans determinism (observe satellite) ------------------------------
class TestTopSpans:
    @staticmethod
    def _track(spans):
        return {"track": "main", "pid": 1, "epoch_ns": 0, "anchor_ns": 0,
                "spans": spans}

    def test_tie_break_is_deterministic(self):
        def span(name, t0, t1, parent=-1):
            return {"name": name, "cat": "test", "t0": t0, "t1": t1,
                    "s0": t0, "s1": t1, "parent": parent, "attrs": {}}

        spans = [
            span("zeta", 0, 100),
            span("alpha", 100, 200),
            span("mid", 200, 350),
        ]
        ranked = top_spans([self._track(spans)], n=None)
        # mid wins on total; alpha/zeta tie on total+self -> name order
        assert [a["name"] for a in ranked] == ["mid", "alpha", "zeta"]

    def test_n_none_returns_all(self):
        def span(i):
            return {"name": f"s{i}", "cat": "t", "t0": i, "t1": i + 1,
                    "s0": i, "s1": i + 1, "parent": -1, "attrs": {}}

        tracks = [self._track([span(i) for i in range(25)])]
        assert len(top_spans(tracks, n=None)) == 25
        assert len(top_spans(tracks, n=10)) == 10


# -- CLI --------------------------------------------------------------------
class TestCli:
    def test_compare_command_empty_diff(self, capsys):
        from repro.cli import main

        code = main(["compare", str(FIXTURE), str(FIXTURE)])
        out = capsys.readouterr().out
        assert code == 0
        assert "no differences" in out

    def test_compare_command_gate_failure(self, tmp_path, capsys):
        from repro.cli import main

        doc = _bench_doc()
        doc["per_triangle"]["fragments"] += 1000
        mutated = tmp_path / "mutated.json"
        mutated.write_text(json.dumps(doc))
        report = tmp_path / "report.html"
        code = main([
            "compare", str(FIXTURE), str(mutated),
            "--fail-on", "exact", "--format", "html", "--out", str(report),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "per_triangle.fragments" in captured.out  # ASCII summary
        assert "COMPARE GATE FAIL" in captured.err
        assert "per_triangle.fragments" in report.read_text()

    def test_compare_command_history(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main

        path = tmp_path / "history.jsonl"
        for i in range(2):
            compare.append_history(
                "pipeline", {"speedup": {"fragments_per_s": 3.0 + i}}, path
            )
        code = main(["compare", "--history", "--history-file", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 run(s)" in out

    def test_compare_command_usage_errors(self, capsys):
        from repro.cli import main

        assert main(["compare", str(FIXTURE)]) == 2
        assert main(["compare", str(FIXTURE), str(FIXTURE),
                     "--fail-on", "bogus"]) == 2
