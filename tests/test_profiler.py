"""Tests for the per-draw profiler (rows rebuilt from ``gpu.draw`` spans)."""

import pytest

from repro.gpu.profiler import DrawRecord, profile_workload
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def profiles():
    workload = build_workload("Doom3/trdemo2", sim=True)
    return profile_workload(workload, frames=2), workload


class TestRecords:
    def test_one_profile_per_frame(self, profiles):
        frames, _ = profiles
        assert [p.frame for p in frames] == [0, 1]

    def test_draw_counts_match_trace(self, profiles):
        frames, workload = profiles
        from repro.api.commands import Draw

        trace_frames = list(workload.trace(frames=2).frames())
        for profile, frame in zip(frames, trace_frames):
            draws = sum(1 for c in frame.calls if isinstance(c, Draw))
            assert len(profile.draws) == draws

    def test_per_draw_totals_sum_to_frame_totals(self, profiles):
        frames, workload = profiles
        result = workload.simulator().run_trace(workload.trace(frames=2))
        assert [p.frame for p in frames] == [
            fs.frame for fs in result.frame_stats
        ]
        for attribute in (
            "indices",
            "triangles_traversed",
            "fragments_rasterized",
            "fragments_shaded",
            "fragments_blended",
            "fragment_instructions",
            "bilinear_samples",
        ):
            for profile, fstats in zip(frames, result.frame_stats):
                assert profile.totals(attribute) == getattr(
                    fstats, attribute
                ), (attribute, profile.frame)
            assert sum(p.totals(attribute) for p in frames) == getattr(
                result.stats, attribute
            ), attribute

    def test_heaviest_sorted(self, profiles):
        frames, _ = profiles
        top = frames[1].heaviest(5, by="fragments_rasterized")
        values = [d.fragments_rasterized for d in top]
        assert values == sorted(values, reverse=True)

    def test_pass_kinds_present(self, profiles):
        frames, _ = profiles
        kinds = {d.pass_kind for d in frames[1].draws}
        assert kinds == {"depth prepass", "shadow volume", "shading"}

    def test_pass_kind_heuristic(self):
        volume = DrawRecord(0, 0, "x.vol.r0k1l2", "vp", None)
        assert volume.pass_kind == "shadow volume"
        prepass = DrawRecord(0, 0, "x.room", "vp", None)
        assert prepass.pass_kind == "depth prepass"
        shading = DrawRecord(0, 0, "x.room", "vp", "fp")
        assert shading.pass_kind == "shading"

    def test_memory_attribution_positive(self, profiles):
        frames, _ = profiles
        assert frames[1].totals("memory_bytes") > 0
        assert all(d.memory_bytes >= 0 for d in frames[1].draws)
