"""Runs one workload's file jobs in a process of its own and writes a JSON
result; started by run.py, never by hand.

    python3 perfbench/worker.py PLAN RESULT [--passes N] [--trace]

PLAN lists the jobs and the workload's options.  One pass runs every job
once, as ``abdtrack track``/``anticipate`` do: ``io.parse_mot`` reads the
detections, ``AbductionEngine.step`` runs on every frame (closed loop:
the next frame goes in as soon as the previous one returns), the
``io.write_*`` functions render the results, which are written to files,
and ``metrics.evaluate`` scores them against the ground truth.

The first pass checks every frame and job and takes the memory figures;
it is not timed.  Without --trace, N timed passes follow it (N is fixed by
the caller, never by how fast the machine runs).  They run the reference
task of reference.py before and after each job and every PROBE_EVERY
frames, outside the timings, and their times are scaled by it.  --trace
runs one untraced pass, one pass with the span wrappers installed, and
the greedy-IoU baseline on the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import abdtrack.anticipation as anticipation  # noqa: E402
import abdtrack.io as abdio  # noqa: E402
import abdtrack.metrics as metrics  # noqa: E402
from abdtrack.abduction import ORACLE_LIMIT, ActionKind, solve_oracle  # noqa: E402
from abdtrack.baseline import GreedyIoUTracker  # noqa: E402
from abdtrack.domain import Provenance, TrackState  # noqa: E402
from abdtrack.tracker import AbductionEngine, EngineConfig  # noqa: E402

import reference  # noqa: E402

_now = time.perf_counter
PROBE_EVERY = 25  # frames between two runs of the reference task


def _rss_mb() -> float:
    """Current resident set size of this process, from /proc."""
    try:
        pages = int(Path("/proc/self/statm").read_text().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def check_frame(spec, result, oracle: bool) -> str | None:
    """None if the frame's solution is a valid cover, else what is wrong."""
    trk = sorted(a.trk for a in result.actions if a.trk is not None)
    det = sorted(a.det for a in result.actions if a.det is not None)
    if trk != sorted(spec.predictions):
        return "tracks not covered exactly once"
    if det != sorted(d.id for d in spec.detections):
        return "detections not covered exactly once"
    if any(a.event is None for a in result.actions if a.kind != ActionKind.ASSIGN):
        return "non-assign action without an event"
    if (
        oracle
        and len(spec.predictions) <= ORACLE_LIMIT
        and len(spec.detections) <= ORACLE_LIMIT
        and solve_oracle(spec) != result
    ):
        return "solve differs from solve_oracle"
    return None


def roundtrip_failures(exp, tracks_text: str) -> set[int]:
    """Frames whose observed track entries do not survive
    write_tracks -> parse_mot_tracks exactly."""
    parsed = abdio.parse_mot_tracks(tracks_text)
    bad = set()
    for trk in exp.tracks:
        for h in trk.history:
            if h.provenance == Provenance.OBSERVED and parsed.get(trk.id, {}).get(h.frame) != h.box:
                bad.add(h.frame)
    return bad


def _anticipate(engine: AbductionEngine, frame: int, config: EngineConfig, out: list[str]):
    """The per-frame anticipation block of ``abdtrack anticipate``."""
    th = config.thresholds
    views, hidden = anticipation.engine_views(engine)
    ants = anticipation.anticipate_unhide(views, hidden, frame, horizon=th.anticipation_horizon)
    warns = anticipation.warnings(ants, frame, config.frame_geom, th.anticipation_threshold)
    for a in ants:
        out.append(anticipation.format_anticipation(a))
        out.append(anticipation.format_position(a))
    out.extend(anticipation.format_warning(w) for w in warns)
    return hidden, ants, warns


class Pass:
    """Accumulates one pass over every job."""

    def __init__(self, probing: bool = False) -> None:
        self.probing = probing
        self.ref_s: list[float] = []  # times of the reference task, in order
        # for each frame and each phase: the index of the last probe before it
        self.frame_probe: list[int] = []
        self.phase_probe: list[int] = []
        self.latency_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.job_seconds = 0.0
        # per job, the times of its phases outside the frames: parse and
        # engine set-up, finalize and writes, evaluation
        self.phase_s: list[float] = []
        self.digests = {k: hashlib.sha256() for k in ("events", "tracks", "report", "anticipations")}
        self.fp = self.fn = self.idsw = self.gt_boxes = 0
        self.layer = {k: 0.0 for k in (
            "live", "halted", "dets", "hidden_pairs", "anticipations", "warnings",
            "tracks_total", "events", "rss_growth_mb", "parse_lines", "bytes_written",
        )}

    def note(self, why: str) -> None:
        if len(self.failures) < 10:
            self.failures.append(why)

    def probe(self) -> float:
        """Runs the reference task if this pass probes; its time."""
        if not self.probing:
            return 0.0
        t = reference.time_task()
        self.ref_s.append(t)
        return t

    def scaled(self) -> tuple[np.ndarray, np.ndarray]:
        """Frame latencies (ms) and phase times (s) scaled to the reference
        speed: each times REF_S over the smoothed probe before it."""
        scale = reference.REF_S / reference.smoothed(self.ref_s)
        return (
            np.asarray(self.latency_ms) * scale[self.frame_probe],
            np.asarray(self.phase_s) * scale[self.phase_probe],
        )


def run_job(job: dict, out_dir: Path, opts: dict, acc: Pass, checks: bool, store=None):
    """One file job; ``store`` is the span store of a traced pass."""
    traced = store is not None
    gt = abdio.parse_mot_tracks(Path(job["gt"]).read_text())
    config = EngineConfig()
    # RSS growth is taken on the checked pass only: it is untraced (the
    # span store would grow with it), and later passes reuse what it freed.
    rss0 = _rss_mb() if checks else 0.0
    untimed = 0.0
    failed_frames: set[int] = set()
    ant_lines: list[str] = []

    acc.probe()
    p_job = len(acc.ref_s) - 1
    t_job = _now()
    text = Path(job["dets"]).read_text()
    stream = abdio.parse_mot(text)
    engine = AbductionEngine(config)
    t_parsed = _now()
    for i, (frame, dets) in enumerate(stream.frames):
        if i and i % PROBE_EVERY == 0:
            untimed += acc.probe()
        acc.attempted += 1
        acc.frame_probe.append(len(acc.ref_s) - 1)
        t0 = _now()
        try:
            result = engine.step(frame, dets)
            if opts["anticipate"]:
                hidden, ants, warns = _anticipate(engine, frame, config, ant_lines)
        except Exception as exc:  # a failing frame is counted, the stream goes on
            failed_frames.add(frame)
            acc.note(f"{job['name']} frame {frame}: {type(exc).__name__}: {exc}")
            acc.latency_ms.append(float("nan"))
            continue
        t1 = _now()
        acc.latency_ms.append((t1 - t0) * 1e3)
        if checks:
            why = check_frame(engine.last_spec, result, opts["oracle"])
            if why is not None:
                failed_frames.add(frame)
                acc.note(f"{job['name']} frame {frame}: {why}")
            untimed += _now() - t1
        if traced:
            c = _now()
            states = [t.state for t in engine.tracks.values()]
            acc.layer["live"] += len(states) - states.count(TrackState.ENDED)
            acc.layer["halted"] += states.count(TrackState.HALTED)
            acc.layer["dets"] += len(dets)
            if opts["anticipate"]:
                acc.layer["hidden_pairs"] += len(hidden)
                acc.layer["anticipations"] += len(ants)
                acc.layer["warnings"] += len(warns)
            untimed += _now() - c
    if traced:
        store.current_frame = -1  # the job's remaining spans belong to no step
    untimed += acc.probe()
    p_out = len(acc.ref_s) - 1
    t_out = _now()
    exp = engine.finalize()
    outputs = {
        "events": abdio.write_events(exp),
        "tracks": abdio.write_tracks(exp),
        "report": abdio.write_report(exp),
        "anticipations": "".join(line + "\n" for line in ant_lines),
    }
    for kind, body in outputs.items():
        (out_dir / f"{job['name']}.{kind}.txt").write_text(body)
    t_eval = _now()
    report = metrics.evaluate(gt, abdio.explanation_to_boxes(exp))
    t_end = _now()
    acc.job_seconds += t_end - t_job - untimed
    acc.phase_s += [t_parsed - t_job, t_eval - t_out, t_end - t_eval]
    acc.phase_probe += [p_job, p_out, p_out]

    for kind, body in outputs.items():
        acc.digests[kind].update(body.encode())
    acc.fp += report.fp
    acc.fn += report.fn
    acc.idsw += report.idsw
    acc.gt_boxes += report.num_gt_boxes
    if checks:
        bad = roundtrip_failures(exp, outputs["tracks"])
        if bad:
            acc.note(f"{job['name']}: {len(bad)} frames fail the tracks round-trip")
        failed_frames |= bad
    acc.failed += len(failed_frames)
    if checks:
        acc.layer["rss_growth_mb"] += _rss_mb() - rss0
    if traced:
        acc.layer["tracks_total"] += len(exp.tracks)
        acc.layer["events"] += len(exp.events)
        acc.layer["parse_lines"] += text.count("\n")
        acc.layer["bytes_written"] += sum(len(b.encode()) for b in outputs.values())


def run_pass(plan: dict, out_dir: Path, checks: bool, store=None, probing=False) -> Pass:
    acc = Pass(probing)
    for job in plan["jobs"]:
        run_job(job, out_dir, plan["options"], acc, checks, store)
    return acc


def baseline(plan: dict) -> dict:
    """Greedy-IoU reference over the same inputs: frame latency and quality."""
    lat: list[float] = []
    fp = fn = idsw = n_gt = 0
    for job in plan["jobs"]:
        gt = abdio.parse_mot_tracks(Path(job["gt"]).read_text())
        stream = abdio.parse_mot(Path(job["dets"]).read_text())
        tracker = GreedyIoUTracker()
        for frame, dets in stream.frames:
            t0 = _now()
            tracker.step(frame, dets)
            lat.append((_now() - t0) * 1e3)
        r = metrics.evaluate(gt, tracker.result())
        fp, fn, idsw, n_gt = fp + r.fp, fn + r.fn, idsw + r.idsw, n_gt + r.num_gt_boxes
    return {
        "baseline.frame_ms_p50": float(np.median(lat)),
        "baseline.mota": 100.0 * (1.0 - (fp + fn + idsw) / n_gt),
        "baseline.idsw": float(idsw),
    }


STEP_LAYERS = (
    "tracker.self_ms",
    "abduction.solve_self_ms",
    "abduction.candidate_actions_ms",
    "abduction.link_events_ms",
    "abduction.lsap_ms",
    "domain.fluent_copy_ms",
    "domain.apply_event_ms",
    "geometry.iou_matrix_ms",
    "motion.predict_ms",
    "motion.update_ms",
)


def layer_metrics(store, acc: Pass, n_jobs: int, rss_growth_mb: float) -> tuple[dict, dict]:
    """Per-layer figures from one traced pass; ``_ms`` is per frame unless
    the name says per job (io, metrics).  ``rss_growth_mb`` is the checked
    pass's total over its jobs."""
    tot = store.totals()
    frames = max(acc.attempted, 1)
    counts = store.counts

    def ms(name, key="self_ns", per=frames):
        return tot.get(name, {}).get(key, 0.0) / 1e6 / per

    def calls(name):
        return tot.get(name, {}).get("calls", 0.0)

    lsap_calls = calls("abduction.lsap")
    out = {
        "abduction.solve_ms": ms("abduction.solve", "total_ns"),
        "abduction.solve_self_ms": ms("abduction.solve"),
        "abduction.candidate_actions_ms": ms("abduction.candidate_actions"),
        "abduction.candidates_per_frame": counts["abduction.candidates"] / frames,
        "abduction.link_events_ms": ms("abduction.link_events", "total_ns"),
        "abduction.link_events_calls": calls("abduction.link_events") / frames,
        "abduction.lsap_ms": ms("abduction.lsap"),
        "abduction.lsap_calls_per_frame": lsap_calls / frames,
        "abduction.lsap_side_mean": counts["abduction.lsap_side"] / lsap_calls if lsap_calls else 0.0,
        "abduction.resolve_share": _resolve_share(store),
        "domain.possible_ms": ms("domain.possible"),
        "domain.possible_calls": calls("domain.possible") / frames,
        "domain.fluent_copy_ms": ms("domain.fluent_copy"),
        "domain.apply_event_ms": ms("domain.apply_event"),
        "domain.apply_event_calls": calls("domain.apply_event") / frames,
        "geometry.iou_matrix_ms": ms("geometry.iou_matrix"),
        "geometry.iou_cells": counts["geometry.iou_cells"] / frames,
        "geometry.overlapping_top_calls": counts["geometry.overlapping_top_calls"] / frames,
        "motion.predict_ms": ms("motion.predict"),
        "motion.predict_calls": calls("motion.predict") / frames,
        "motion.update_ms": ms("motion.update"),
        "motion.update_calls": calls("motion.update") / frames,
        "tracker.self_ms": ms("tracker.step"),
        "tracker.live_tracks": acc.layer["live"] / frames,
        "tracker.halted_tracks": acc.layer["halted"] / frames,
        "tracker.tracks_total": acc.layer["tracks_total"] / n_jobs,
        "tracker.dets_per_frame": acc.layer["dets"] / frames,
        "tracker.events": acc.layer["events"] / n_jobs,
        "tracker.rss_growth_mb": rss_growth_mb / n_jobs,
        "anticipation.ms": ms("anticipation", "total_ns"),
        "anticipation.hidden_pairs": acc.layer["hidden_pairs"] / frames,
        "anticipation.anticipations": acc.layer["anticipations"] / frames,
        "anticipation.warnings": acc.layer["warnings"] / frames,
        "io.parse_ms": ms("io.parse", "total_ns", n_jobs),
        "io.parse_lines": acc.layer["parse_lines"] / n_jobs,
        "io.write_ms": ms("io.write", "total_ns", n_jobs),
        "io.bytes_written": acc.layer["bytes_written"] / n_jobs,
        "metrics.evaluate_ms": ms("metrics.evaluate", "total_ns", n_jobs),
    }
    # The step's layer self times plus tracker.self_ms must add up to the
    # traced step time (link_events_ms includes its domain.possible calls).
    check = {
        "step_ms": ms("tracker.step", "total_ns"),
        "self_sum_ms": sum(out[k] for k in STEP_LAYERS),
    }
    return out, check


def _resolve_share(store) -> float:
    """LSAP calls beyond the first in each frame, over all LSAP calls."""
    a = store.arrays()
    frames = a["frame"][a["name"] == store.name_id("abduction.lsap")]
    if len(frames) == 0:
        return 0.0
    return float(len(frames) - len(np.unique(frames))) / len(frames)


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _fps(acc: Pass) -> float:
    return acc.attempted / acc.job_seconds


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("plan")
    p.add_argument("result")
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    plan = json.loads(Path(args.plan).read_text())
    out_dir = Path(args.result).parent
    result: dict = {"env": environment()}

    # The checked pass comes first and is not timed: the checks run between
    # its frames.  Every later pass must repeat its outputs.
    checked = run_pass(plan, out_dir, checks=True)
    passes: list[Pass] = []
    if args.trace:
        from tracing import SpanStore, tracing

        # An untraced pass is the reference for trace.overhead.
        passes.append(run_pass(plan, out_dir, checks=False))
        store = SpanStore()
        with tracing(store):
            traced = run_pass(plan, out_dir, checks=False, store=store)
        layers, check = layer_metrics(
            store, traced, len(plan["jobs"]), checked.layer["rss_growth_mb"]
        )
        layers.update(baseline(plan))
        layers["trace.overhead"] = _fps(passes[-1]) / _fps(traced)
        store.save(out_dir / "spans.npz")
        result.update(layers=layers, self_time_check=check, spans=len(store.start))
        outputs = [checked, *passes, traced]
    else:
        for _ in range(max(args.passes, 1)):
            passes.append(run_pass(plan, out_dir, checks=False, probing=True))
        outputs = [checked, *passes]

    # The machine's speed drifts (see reference.py), so the timed passes'
    # times are scaled to the reference task's speed.  What drift is left,
    # and one-off stalls, each frame's latency takes as its least over the
    # timed passes, and so does each phase of a job outside its frames
    # (parse and set-up, finalize and writes, evaluation).  Throughput is
    # frames over the sum of those least times.  The number of passes is
    # fixed, so parent and change take the least over as many samples.
    # A traced run's untraced pass is not probed and stays unscaled.
    raw = [(np.asarray(acc.latency_ms), np.asarray(acc.phase_s)) for acc in passes]
    scaled = [acc.scaled() for acc in passes] if passes[0].probing else raw

    def least(times):
        frame_ms = np.fmin.reduce([f for f, _ in times])
        frame_ms = frame_ms[~np.isnan(frame_ms)]
        rest_s = np.min([ph for _, ph in times], axis=0).sum()
        return frame_ms, checked.attempted / (rest_s + frame_ms.sum() / 1e3)

    frame_ms, fps = least(scaled)
    raw_frame_ms, raw_fps = least(raw)
    ref_s = [t for acc in passes for t in acc.ref_s]
    digests = [{k: h.hexdigest() for k, h in acc.digests.items()} for acc in outputs]
    failures = [w for acc in outputs for w in acc.failures]
    if any(d != digests[0] for d in digests):
        failures.append("outputs differ between passes")
    result.update(
        passes=len(passes),
        measured_s=sum(acc.job_seconds for acc in passes),
        attempted=sum(acc.attempted for acc in outputs),
        failed=sum(acc.failed for acc in outputs),
        failures=failures,
        frames_per_s=fps,
        raw_frames_per_s=raw_fps,
        raw_frame_ms_p50=float(np.percentile(raw_frame_ms, 50)) if len(raw_frame_ms) else None,
        reference_ms=float(np.median(ref_s)) * 1e3 if ref_s else None,
        frame_ms_p50=float(np.percentile(frame_ms, 50)) if len(frame_ms) else None,
        frame_ms_p95=float(np.percentile(frame_ms, 95)) if len(frame_ms) else None,
        mota=100.0 * (1.0 - (checked.fp + checked.fn + checked.idsw) / checked.gt_boxes),
        idsw=checked.idsw,
        digests=digests[0],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
