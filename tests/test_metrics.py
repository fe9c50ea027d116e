import numpy as np
import pytest

from abdtrack.geometry import BBox2D
from abdtrack.metrics import evaluate, format_report


def track(frames, box=BBox2D(0, 0, 10, 10)):
    return {f: box for f in frames}


def constructed_60_percent():
    """1 gt track x 10 frames; hyp misses 2 frames, adds 1 spurious box,
    and switches id once: MOTA = 1 - (2+1+1)/10 = 60%."""
    gt = {100: track(range(1, 11))}
    hyp = {
        1: track(range(1, 5)),
        2: track(range(7, 11)),
        3: {5: BBox2D(500, 500, 10, 10)},
    }
    return gt, hyp


class TestEvaluate:
    def test_perfect_tracker(self):
        gt = {1: track(range(10)), 2: track(range(3, 9), BBox2D(50, 50, 8, 8))}
        r = evaluate(gt, {10: dict(gt[1]), 20: dict(gt[2])})
        assert r.mota == 100.0 and r.motp == 100.0
        assert r.fp == r.fn == r.idsw == 0
        assert r.mt == 100.0 and r.ml == 0.0

    def test_constructed_sixty_percent(self):
        gt, hyp = constructed_60_percent()
        r = evaluate(gt, hyp)
        assert (r.fn, r.fp, r.idsw) == (2, 1, 1)
        assert r.mota == pytest.approx(60.0)
        assert r.frag == 1

    def test_mostly_tracked_at_nine_of_ten(self):
        gt = {1: track(range(1, 11))}
        hyp = {7: track(range(1, 10))}  # 9 of 10 frames
        r = evaluate(gt, hyp)
        assert r.mt == 100.0 and r.ml == 0.0

    def test_mostly_lost_at_two_of_ten(self):
        gt = {1: track(range(1, 11))}
        hyp = {7: track(range(1, 3))}  # 2 of 10 frames
        r = evaluate(gt, hyp)
        assert r.ml == 100.0 and r.mt == 0.0

    def test_mt_and_ml_at_exactly_eighty_and_twenty_percent(self):
        # Kills the mutants that count MT only above 80% coverage
        # (`covered > 0.8 * len`) and ML only below 20% (`covered < 0.2 * len`).
        gt = {1: track(range(1, 11)), 2: track(range(1, 11), BBox2D(50, 50, 8, 8))}
        hyp = {7: track(range(1, 9)), 8: track(range(1, 3), BBox2D(50, 50, 8, 8))}
        r = evaluate(gt, hyp)  # covered 8 of 10 and 2 of 10
        assert r.mt == 50.0 and r.ml == 50.0

    def test_relabeling_invariance(self):
        gt, hyp = constructed_60_percent()
        base = evaluate(gt, hyp)
        rng = np.random.default_rng(16)
        ids = list(hyp)
        for _ in range(100):
            perm = rng.permutation(len(ids))
            renamed = {1000 + int(perm[i]): hyp[ids[i]] for i in range(len(ids))}
            assert evaluate(gt, renamed).to_dict() == base.to_dict()

    def test_single_fp_costs_one_over_gt(self):
        gt = {1: track(range(1, 11))}
        hyp = {5: track(range(1, 11))}
        base = evaluate(gt, hyp)
        hyp_fp = {5: track(range(1, 11)), 6: {4: BBox2D(900, 900, 5, 5)}}
        worse = evaluate(gt, hyp_fp)
        assert base.mota - worse.mota == pytest.approx(100.0 / 10)

    def test_frame_range_mismatch_rejected(self):
        gt = {1: track(range(1, 11))}
        hyp = {5: {999: BBox2D(0, 0, 10, 10)}}
        with pytest.raises(ValueError):
            evaluate(gt, hyp)

    @pytest.mark.parametrize("gt", [{}, {1: {}}])
    def test_hypothesis_against_empty_ground_truth_rejected(self, gt):
        # no ground-truth frame, so every hypothesis frame is outside the range
        with pytest.raises(ValueError, match=r"frame-range mismatch: hypothesis frames \[1\]"):
            evaluate(gt, {5: {1: BBox2D(0, 0, 10, 10)}})

    def test_both_empty(self):
        r = evaluate({}, {})
        assert r.fp == r.fn == r.idsw == r.num_gt_boxes == 0

    @pytest.mark.parametrize("match_iou", [0.0, -1.0, float("nan"), 1.5])
    def test_match_iou_out_of_range_rejected(self, match_iou):
        gt = {1: track(range(1, 4))}
        with pytest.raises(ValueError, match="match IoU"):
            evaluate(gt, gt, match_iou=match_iou)

    def test_match_persistence_beats_higher_iou(self):
        # h1 matched at t=0 persists at t=1 even though h2 overlaps better
        gt = {1: {0: BBox2D(0, 0, 10, 10), 1: BBox2D(0, 0, 10, 10)}}
        hyp = {
            1: {0: BBox2D(0, 0, 10, 10), 1: BBox2D(2, 0, 10, 10)},  # iou ~0.67
            2: {1: BBox2D(0, 0, 10, 10)},  # iou 1.0 but arrives later
        }
        r = evaluate(gt, hyp)
        assert r.idsw == 0
        # Continuity kept: IoU 2/3 with h1 at t=1; matching h2 would give 100.
        assert r.motp == 100 * (1 + 2 / 3) / 2

    def test_match_taken_and_kept_at_exactly_match_iou(self):
        # Kills the mutants that admit a residual pair (_residual_match) or
        # carry a previous match (evaluate) only at IoU > match_iou: h1's
        # IoU is exactly 0.5 in both frames, and h2 overlaps fully in frame 1.
        gt = {1: {0: BBox2D(0, 0, 10, 10), 1: BBox2D(0, 0, 10, 10)}}
        hyp = {
            1: {0: BBox2D(0, 0, 10, 5), 1: BBox2D(0, 5, 10, 5)},
            2: {1: BBox2D(0, 0, 10, 10)},
        }
        r = evaluate(gt, hyp, match_iou=0.5)
        assert (r.idsw, r.fp, r.fn) == (0, 1, 0)
        assert r.motp == 50.0

    def test_motp_mean_overlap(self):
        gt = {1: {0: BBox2D(0, 0, 10, 10)}}
        hyp = {1: {0: BBox2D(0, 0, 10, 5)}}  # iou 0.5
        r = evaluate(gt, hyp)
        assert r.motp == pytest.approx(50.0)

    def test_multi_track_mt_ml_split(self):
        gt = {
            1: track(range(10)),                      # covered fully -> MT
            2: track(range(10), BBox2D(50, 50, 8, 8)),  # covered 1/10 -> ML
            3: track(range(10), BBox2D(90, 90, 8, 8)),  # covered 5/10 -> neither
        }
        hyp = {
            11: track(range(10)),
            12: {0: BBox2D(50, 50, 8, 8)},
            13: track(range(5), BBox2D(90, 90, 8, 8)),
        }
        r = evaluate(gt, hyp)
        assert r.mt == pytest.approx(100.0 / 3)
        assert r.ml == pytest.approx(100.0 / 3)

    def test_fragmentation_counts_interruptions(self):
        gt = {1: track(range(12))}
        hyp = {5: {f: BBox2D(0, 0, 10, 10) for f in (0, 1, 4, 5, 8, 9)}}
        r = evaluate(gt, hyp)
        assert r.frag == 2  # two gaps, each followed by a re-acquisition
        assert r.idsw == 0

    def test_report_formatting(self):
        gt, hyp = constructed_60_percent()
        out = format_report(evaluate(gt, hyp), name="unit")
        assert "MOTA" in out and "unit" in out and "60.00%" in out
