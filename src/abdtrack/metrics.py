"""CLEAR-MOT evaluation: MOTA, MOTP, MT/ML, FP/FN, identity switches and
fragmentations.

Per frame, matches from the previous frame persist while their IoU stays
at or above the matching threshold; the remainder is matched by a
maximum-total-IoU assignment (admissible pairs only), solved by the
engine's exact matcher under the rule :func:`_residual_match` states, so
that exact ties are decided too.  MOTP is the mean IoU over matched
pairs, reported as a percentage.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

# Bound here, at import, and not looked up on the module at call time:
# perfbench/tracing.py wraps abduction.linear_sum_assignment by name to
# time the engine's matchings, and scoring's must stay out of that span.
from .abduction import canonical_matching, linear_sum_assignment
from .geometry import BBox2D, TrackBoxes, check_match_iou, iou

__all__ = ["TrackBoxes", "EvalReport", "check_match_iou", "evaluate", "format_report"]


@dataclass
class EvalReport:
    mota: float  # percent, may be negative
    motp: float  # percent (mean IoU over matches)
    mt: float  # percent of gt tracks covered >= 80%
    ml: float  # percent of gt tracks covered <= 20%
    fp: int
    fn: int
    idsw: int
    frag: int
    num_gt_boxes: int

    def to_dict(self) -> dict:
        return {
            "MOTA": self.mota,
            "MOTP": self.motp,
            "MT": self.mt,
            "ML": self.ml,
            "FP": self.fp,
            "FN": self.fn,
            "IDSW": self.idsw,
            "Frag": self.frag,
            "num_gt_boxes": self.num_gt_boxes,
        }


def _by_frame(tracks: TrackBoxes) -> dict[int, dict[int, BBox2D]]:
    """frame -> track id -> box, ids ascending within each frame."""
    out: dict[int, dict[int, BBox2D]] = defaultdict(dict)
    for tid in sorted(tracks):
        for f, box in tracks[tid].items():
            out[f][tid] = box
    return out


def evaluate(gt: TrackBoxes, hyp: TrackBoxes, match_iou: float = 0.5) -> EvalReport:
    """Score a hypothesis track set against ground truth.

    Raises ValueError unless 0 < match_iou <= 1, when the hypothesis
    claims frames outside the ground-truth frame range, which an empty
    ground truth leaves empty, and when a ground-truth track has no box:
    it would count as both mostly tracked and mostly lost.
    """
    check_match_iou(match_iou)
    gt_at = _by_frame(gt)
    hyp_at = _by_frame(hyp)
    if hyp_at:
        lo, hi = (min(gt_at), max(gt_at)) if gt_at else (math.inf, -math.inf)
        outside = [f for f in hyp_at if f < lo or f > hi]
        if outside:
            where = f"range [{lo}, {hi}]" if gt_at else "frames (there are none)"
            raise ValueError(
                f"frame-range mismatch: hypothesis frames {sorted(outside)[:5]} "
                f"outside ground-truth {where}"
            )
    empty = sorted(g for g, boxes in gt.items() if not boxes)
    if empty:
        raise ValueError(f"ground-truth track {empty[0]} has no box")

    # gt id -> (hyp id, IoU) at the previous frame; one-to-one.
    prev_match: dict[int, tuple[int, float]] = {}
    last_match: dict[int, int] = {}  # gt id -> last hyp id ever matched
    covered: dict[int, int] = {g: 0 for g in gt}  # matched-frame counts
    interrupted: set[int] = set()  # gt ids unmatched since their last match

    idsw = frag = 0
    iou_sum = 0.0

    for f in sorted(gt_at.keys() | hyp_at.keys()):
        gts = gt_at.get(f, {})
        hyps = hyp_at.get(f, {})
        matches: dict[int, tuple[int, float]] = {}

        # Persist still-valid previous matches.
        for g, (h, _) in prev_match.items():
            if g in gts and h in hyps:
                v = iou(gts[g], hyps[h])
                if v >= match_iou:
                    matches[g] = (h, v)

        # Matches are one to one: fewer than the gts leaves a gt
        # unmatched, fewer than the hyps a hyp.
        if len(matches) < len(gts) and len(matches) < len(hyps):
            used_h = {h for h, _ in matches.values()}
            free_g = [g for g in gts if g not in matches]
            free_h = [h for h in hyps if h not in used_h]
            matches.update(_residual_match(gts, hyps, free_g, free_h, match_iou))

        for g in sorted(matches):
            h, v = matches[g]
            iou_sum += v
            covered[g] += 1
            if g in last_match and last_match[g] != h:
                idsw += 1
            if g in interrupted:
                frag += 1
                interrupted.discard(g)
            last_match[g] = h

        if len(matches) < len(gts):
            interrupted.update(g for g in gts if g not in matches and covered[g])
        prev_match = matches

    # Every box is either matched or counted as a miss or a false positive.
    n_matches = sum(covered.values())
    num_gt_boxes = sum(len(boxes) for boxes in gt.values())
    fn = num_gt_boxes - n_matches
    fp = sum(len(boxes) for boxes in hyp.values()) - n_matches
    mota = 100.0 * (1.0 - (fn + fp + idsw) / num_gt_boxes) if num_gt_boxes else 100.0
    motp = 100.0 * iou_sum / n_matches if n_matches else 0.0
    mt = ml = 0.0
    if gt:
        mt = 100.0 * sum(1 for g in gt if covered[g] >= 0.8 * len(gt[g])) / len(gt)
        ml = 100.0 * sum(1 for g in gt if covered[g] <= 0.2 * len(gt[g])) / len(gt)
    return EvalReport(
        mota=mota,
        motp=motp,
        mt=mt,
        ml=ml,
        fp=fp,
        fn=fn,
        idsw=idsw,
        frag=frag,
        num_gt_boxes=num_gt_boxes,
    )


def _residual_match(
    gts: dict[int, BBox2D],
    hyps: dict[int, BBox2D],
    free_g: list[int],
    free_h: list[int],
    match_iou: float,
) -> dict[int, tuple[int, float]]:
    """Maximum-total-IoU assignment over one frame's still-unmatched boxes,
    as gt id -> (hyp id, IoU).

    Only pairs at or above match_iou are admissible.  Of the matchings of
    admissible pairs, the rule picks, exactly:

    1. the highest total IoU, each pair's in integer steps of 1e-7;
    2. then the most pairs;
    3. then the lowest (gt, hyp) rank, row by row: the first gt of
       ``free_g`` takes the earliest hyp of ``free_h`` that an optimum
       allows, or none if no optimum matches it, then the second, and so
       on.

    A pair's gain is its scaled IoU times len(free_h) + 1, plus 1: the
    pair counts of two matchings differ by at most len(free_h), so they
    decide only between equal totals.  The engine's canonical matching of
    those gains, one row per free gt with its hyps in ``free_h`` order,
    is the rule's matching.
    """
    if not free_g or not free_h:
        return {}
    n2 = len(free_h) + 1
    gain: list[dict[int, int]] = []
    ious: dict[tuple[int, int], float] = {}
    for i, g in enumerate(free_g):
        row = {}
        for j, h in enumerate(free_h):
            v = iou(gts[g], hyps[h])
            if v >= match_iou:
                row[j] = int(round(v * 10_000_000)) * n2 + 1
                ious[i, j] = v
        gain.append(row)
    if not ious:
        return {}
    match = canonical_matching(gain, *linear_sum_assignment(gain, len(free_h))[1:])
    return {free_g[i]: (free_h[j], ious[i, j]) for i, j in enumerate(match) if j >= 0}


def format_report(report: EvalReport, name: str = "sequence") -> str:
    """Aligned text table in the benchmark-table shape."""
    header = (
        f"{'SEQUENCE':<16} {'MOTA':>8} {'MOTP':>8} {'ML':>7} {'MT':>7} "
        f"{'FP':>6} {'FN':>6} {'IDsw':>6} {'Frag':>6}"
    )
    row = (
        f"{name:<16} {report.mota:>7.2f}% {report.motp:>7.2f}% "
        f"{report.ml:>6.2f}% {report.mt:>6.2f}% {report.fp:>6d} "
        f"{report.fn:>6d} {report.idsw:>6d} {report.frag:>6d}"
    )
    return header + "\n" + row
