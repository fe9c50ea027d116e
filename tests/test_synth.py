import pytest

from abdtrack import AbductionEngine, EngineConfig
from abdtrack.io import explanation_to_boxes, parse_mot_tracks, write_tracks
from abdtrack.metrics import evaluate
from abdtrack.synth import (
    OcclusionScript,
    ScenarioConfig,
    generate,
    make_occlusion_scenario,
    measured_overlap_fraction,
)


class TestGenerate:
    def test_single_clean_track(self):
        cfg = ScenarioConfig(n_tracks=1, n_frames=10, seed=1)
        frames, gt = generate(cfg)
        assert len(frames) == 10
        assert all(len(dets) == 1 for _, dets in frames)
        assert list(gt) == [0] and len(gt[0]) == 10

    def test_scripted_occlusion_window_exact(self):
        cfg = ScenarioConfig(
            n_tracks=2,
            n_frames=40,
            seed=2,
            occlusions=(OcclusionScript(occluder=0, target=1, start=20, duration=6),),
        )
        frames, gt = generate(cfg)
        for f, dets in frames:
            expected = 1 if 20 <= f <= 25 else 2
            assert len(dets) == expected, f

    def test_seed_determinism(self):
        cfg = ScenarioConfig(n_tracks=4, n_frames=30, drop_prob=0.2, jitter_sigma=1.5,
                             spurious_rate=0.3, overlap_fraction=0.4, seed=7)
        a = generate(cfg)
        b = generate(cfg)
        assert a[1] == b[1]
        for (fa, da), (fb, db) in zip(a[0], b[0]):
            assert fa == fb and da == db

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(drop_prob=1.5)
        with pytest.raises(ValueError):
            ScenarioConfig(n_tracks=1, overlap_fraction=0.5)

    def test_overlap_fraction_within_tolerance(self):
        for target in (0.2, 0.5):
            cfg = ScenarioConfig(n_tracks=4, n_frames=200, overlap_fraction=target, seed=5)
            _, gt = generate(cfg)
            measured = measured_overlap_fraction(gt, cfg.n_frames)
            assert abs(measured - target) <= 0.05, (target, measured)


class TestEndToEnd:
    def test_tracks_stepped_from_generated_frames_round_trip(self):
        cfg = ScenarioConfig(n_tracks=2, n_frames=3, jitter_sigma=1.0)
        frames, _ = generate(cfg)
        eng = AbductionEngine(EngineConfig(frame_geom=cfg.frame_geom))
        for f, dets in frames:
            eng.step(f, dets)
        exp = eng.finalize()
        assert parse_mot_tracks(write_tracks(exp)) == explanation_to_boxes(exp)

    def test_clean_scenario_reconstructed_exactly(self):
        cfg = ScenarioConfig(n_tracks=3, n_frames=60, seed=11)
        frames, gt = generate(cfg)
        eng = AbductionEngine(EngineConfig(frame_geom=cfg.frame_geom))
        for f, dets in frames:
            eng.step(f, dets)
        hyp = explanation_to_boxes(eng.finalize())
        report = evaluate(gt, hyp)
        assert report.mota == 100.0
        assert report.idsw == 0

    def test_occlusion_scenario_bridged(self):
        cfg = make_occlusion_scenario(seed=3)
        assert cfg.occlusions, "constructed scenario must hide the target"
        frames, gt = generate(cfg)
        eng = AbductionEngine(EngineConfig(frame_geom=cfg.frame_geom))
        for f, dets in frames:
            eng.step(f, dets)
        exp = eng.finalize()
        from abdtrack.domain import EventKind

        kinds = [e.kind for e in exp.events]
        assert EventKind.HIDES_BEHIND in kinds
        assert EventKind.UNHIDES_FROM_BEHIND in kinds
        report = evaluate(gt, explanation_to_boxes(exp))
        assert report.idsw == 0
