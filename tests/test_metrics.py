import random
from collections import Counter

import numpy as np
import pytest

from abdtrack.geometry import BBox2D, iou
from abdtrack.metrics import _residual_match, evaluate, format_report


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


def _boxes(*rows):
    return {k: BBox2D(*xywh) for k, xywh in rows}


def _rule_by_enumeration(gts, hyps, match_iou):
    """The residual rule over every matching of admissible pairs: the
    highest total scaled IoU, then the most pairs, then each gt's hyp in
    gt order, the earliest hyp first and none last.  Returns the best
    matching as gt id -> hyp id, and the tier that decided it."""
    g_ids, h_ids = list(gts), list(hyps)
    scaled = {}
    for i, g in enumerate(g_ids):
        for j, h in enumerate(h_ids):
            v = iou(gts[g], hyps[h])
            if v >= match_iou:
                scaled[i, j] = int(round(v * 10_000_000))

    def matchings(i, used):
        if i == len(g_ids):
            yield ()
            return
        for j in [*range(len(h_ids)), -1]:
            if j < 0 or ((i, j) in scaled and j not in used):
                yield from ((j, *rest) for rest in matchings(i + 1, used | {j}))

    def key(m):
        pairs = [(i, j) for i, j in enumerate(m) if j >= 0]
        ranks = [j if j >= 0 else len(h_ids) for j in m]
        return -sum(scaled[p] for p in pairs), -len(pairs), ranks

    keys = sorted(map(key, matchings(0, frozenset())))
    best = keys[0]
    tied = [k for k in keys if k[0] == best[0]]
    decided_by = 1 if len(tied) == 1 else 2 if tied[1][1] != best[1] else 3
    match = {g_ids[i]: h_ids[j] for i, j in enumerate(best[2]) if j < len(h_ids)}
    return match, decided_by


class TestResidualMatchRule:
    """The residual matching's stated rule: the highest total scaled IoU,
    then the most pairs, then the lowest (gt, hyp) rank, row by row."""

    def test_exact_tie_goes_to_the_lowest_rank(self):
        # Two matchings, {0: 0, 1: 2} and {0: 2, 1: 0}, reach the same
        # total IoU with two pairs each; gt 0 takes the lower-ranked hyp.
        gts = _boxes((0, (25, 15, 15, 15)), (1, (25, 15, 15, 15)), (2, (10, 20, 10, 5)))
        hyps = _boxes((0, (20, 10, 15, 15)), (1, (30, 15, 15, 5)), (2, (25, 20, 15, 15)))
        got = _residual_match(gts, hyps, list(gts), list(hyps), 0.1)
        assert {g: h for g, (h, _) in got.items()} == {0: 0, 1: 2}
        assert _rule_by_enumeration(gts, hyps, 0.1) == ({0: 0, 1: 2}, 3)

    def test_more_pairs_win_at_an_equal_total(self):
        # One pair at IoU 1.0 (gt 0, hyp 2) ties two pairs at 0.5 + 0.5;
        # MOTA counts pairs, so the two are matched.
        gts = _boxes((0, (20, 5, 10, 5)), (4, (20, 5, 10, 10)))
        hyps = _boxes((2, (20, 5, 10, 5)), (4, (25, 5, 5, 5)))
        got = _residual_match(gts, hyps, list(gts), list(hyps), 0.3)
        assert got == {0: (4, 0.5), 4: (2, 0.5)}
        r = evaluate({g: {1: b} for g, b in gts.items()}, {h: {1: b} for h, b in hyps.items()},
                     match_iou=0.3)
        assert (r.fp, r.fn, r.motp) == (0, 0, 50.0)

    def test_equals_enumeration_on_random_grid_frames(self):
        rng = random.Random(30)

        def box():
            # 5 or 10 px on a 5-px grid in a 20-px square: many equal IoUs,
            # and equal sums of them
            return tuple(5 * rng.randint(*r) for r in ((0, 2), (0, 2), (1, 2), (1, 2)))

        decided_by = Counter()
        for _ in range(2000):
            gts = _boxes(*((g, box()) for g in rng.sample(range(20), rng.randint(1, 6))))
            hyps = _boxes(*((h, box()) for h in rng.sample(range(20), rng.randint(1, 6))))
            match_iou = rng.choice([0.1, 0.3, 0.5])
            expected, tier = _rule_by_enumeration(gts, hyps, match_iou)
            got = _residual_match(gts, hyps, list(gts), list(hyps), match_iou)
            assert {g: h for g, (h, _) in got.items()} == expected
            assert all(v == iou(gts[g], hyps[h]) for g, (h, v) in got.items())
            decided_by[tier] += 1
        assert all(decided_by[tier] for tier in (1, 2, 3)), decided_by
