"""Test-only reference solver: the canonical optimum by brute re-solving.

Each sub-problem is solved on a dummy-padded square matrix (one private
fallback column per track, one private fallback row per detection), and
the tie-break fixes tracks in id order, trying each candidate ranked
better than the incumbent against a fresh solve of what remains.  Slow
but direct, it checks :func:`abdtrack.solve` past the exhaustive
oracle's 5x5 limit.

:func:`halt_events_reference` is the halt's event list as a scan of
every other track as an occluder, which ``link_events`` narrows by a
geometric prefilter.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from abdtrack.abduction import (
    _L2_END,
    _L2_RESUME,
    _L2_START,
    _L3_WEIGHT,
    Action,
    ProblemSpec,
    SolveResult,
    _action_rank,
    _objective,
    _result,
    candidate_actions,
)
from abdtrack.domain import EventKind, EventOccurrence, possible


def solve_reference(spec: ProblemSpec) -> SolveResult:
    n_t, n_d = len(spec.predictions), len(spec.detections)
    max_l2 = _L2_END * n_t + (_L2_START + _L2_RESUME) * n_d + 1
    c2 = max_l2 + 1
    c1 = c2 * (_L3_WEIGHT * (n_t + n_d) + 1) + max_l2 + 1

    def value(a: Action) -> int:
        g, c3, cost2 = _objective(spec, (a,))
        return g * c1 - c3 * c2 - cost2

    track_cands, det_opts = candidate_actions(spec)
    edges = {(t, a.det): a for t, acts in track_cands.items() for a in acts[:-1]}
    fallback = {t: acts[-1] for t, acts in track_cands.items()}
    det_fallback = {d: acts[0] for d, acts in det_opts.items()}

    def best_value(tracks: list[int], dets: list[int]) -> tuple[int, dict[int, Action]]:
        if not tracks:
            return sum(value(det_fallback[d]) for d in dets), {}
        if not dets:
            return sum(value(fallback[t]) for t in tracks), {t: fallback[t] for t in tracks}
        nt, nd = len(tracks), len(dets)
        cost = np.full((nt + nd, nt + nd), np.inf)
        for i, t in enumerate(tracks):
            for j, d in enumerate(dets):
                if (t, d) in edges:
                    cost[i, j] = -float(value(edges[(t, d)]))
            cost[i, nd + i] = -float(value(fallback[t]))
        for j, d in enumerate(dets):
            cost[nt + j, j] = -float(value(det_fallback[d]))
            cost[nt + j, nd:] = 0.0
        _, cols = linear_sum_assignment(cost)
        total, chosen = 0, {}
        for i, t in enumerate(tracks):
            j = int(cols[i])
            chosen[t] = edges[(t, dets[j])] if j < nd else fallback[t]
            total += value(chosen[t])
        total += sum(value(det_fallback[d]) for j, d in enumerate(dets) if cols[nt + j] == j)
        return total, chosen

    tracks, dets = sorted(track_cands), [d.id for d in spec.detections]
    best, incumbent = best_value(tracks, dets)
    # partial + optimum(remaining tracks, remaining dets) == best
    chosen: dict[int, Action] = {}
    partial = 0
    remaining_t, remaining_d = list(tracks), list(dets)
    for t in tracks:
        remaining_t.remove(t)
        fixed = incumbent[t]
        for cand in track_cands[t]:
            if _action_rank(cand) >= _action_rank(incumbent[t]):
                break
            rest_val, rest_chosen = best_value(
                remaining_t, [d for d in remaining_d if d != cand.det]
            )
            if partial + value(cand) + rest_val == best:
                fixed, incumbent = cand, rest_chosen
                break
        chosen[t] = fixed
        partial += value(fixed)
        if fixed.det is not None:
            remaining_d.remove(fixed.det)
    used = {a.det for a in chosen.values()}
    cover = list(chosen.values()) + [det_fallback[d] for d in dets if d not in used]
    return _result(spec, cover)


def halt_events_reference(spec: ProblemSpec, t: int) -> list[EventOccurrence]:
    """The possible events that explain a halt of track ``t``, in the
    preference order: hides_behind each other track in ascending id, then
    missing_detections."""
    parts = [(EventKind.HIDES_BEHIND, t2) for t2 in sorted(spec.predictions) if t2 != t]
    parts.append((EventKind.MISSING_DETECTIONS, None))
    return [EventOccurrence(k, spec.frame, t, o) for k, o in parts if possible(spec, k, t, o)]
