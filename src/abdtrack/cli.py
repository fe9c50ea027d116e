"""Command-line entry points: track, eval, bench, anticipate.  ``track
--emit-facts DIR`` also dumps each frame's problem facts for ASP.
``synth``, which loads numpy, is imported by ``bench`` alone, so that
``track``, ``eval`` and ``anticipate`` load neither numpy nor scipy.

A config file may hold the same keys as the threshold flags, one
``key = value`` per line with ``#`` comments; explicit flags win.
Exit codes: 0 success, 1 runtime/parse failure, 2 usage or missing input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from functools import partial
from pathlib import Path

from .abduction import Thresholds, emit_facts
from .anticipation import frame_block
from .geometry import check_match_iou
from .io import (
    explanation_to_boxes,
    parse_kitti,
    parse_mot,
    parse_mot_tracks,
    write_events,
    write_report,
    write_tracks,
)
from .metrics import evaluate, format_report
from .tracker import AbductionEngine, EngineConfig

# (flag, Thresholds field, type): one row per threshold; each field is
# also a config-file key.  fov_margin is settable from the file only.
_THRESHOLDS = [
    ("--iou-thresh", "iou_thresh", float),
    ("--conf-assign", "conf_thresh_assign", int),
    ("--conf-resume", "conf_thresh_resume", int),
    ("--conf-new", "conf_thresh_new_track", int),
    ("--size-thresh", "size_threshold", float),
    ("--max-halted-age", "max_halted_age", int),
    ("--anticipation-threshold", "anticipation_threshold", int),
    ("--horizon", "anticipation_horizon", int),
    (None, "fov_margin", float),
]


def _parse_geom(text: str) -> tuple[float, float]:
    """(W, H) of a ``WxH`` frame size; :class:`EngineConfig` checks that
    both are finite and positive."""
    try:
        w, h = (float(v) for v in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"frame geometry must be WxH, finite and positive: {text}") from None
    return w, h


_CONFIG_KEYS = {field: kind for _, field, kind in _THRESHOLDS} | {"frame_geom": _parse_geom}


def _load_config_file(path: str) -> dict:
    """Typed values of a ``key = value`` config file."""
    out: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = _CONFIG_KEYS[key](value)
            # range check, reported with its line
            (EngineConfig if key == "frame_geom" else Thresholds)(**{key: out[key]})
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def _require(*paths: str) -> None:
    """Exits with code 2, as argparse does for a usage error, if any of
    ``paths`` does not exist; the first that does not gets
    ``error: file not found: PATH`` on stderr."""
    missing = next((p for p in paths if not Path(p).exists()), None)
    if missing is not None:
        print(f"error: file not found: {missing}", file=sys.stderr)
        raise SystemExit(2)


def _read_stream(args: argparse.Namespace):
    _require(args.input)
    text = Path(args.input).read_text()
    if args.format == "kitti":
        classes = set(args.classes.split(",")) if args.classes else None
        return parse_kitti(text, classes)
    return parse_mot(text)


def _engine_config(args: argparse.Namespace) -> EngineConfig:
    """Defaults, then the config file, then explicit flags."""
    values = _load_config_file(args.config) if args.config else {}
    geom = values.pop("frame_geom", EngineConfig.frame_geom)
    if args.frame_geom:
        geom = _parse_geom(args.frame_geom)
    for _, field, _ in _THRESHOLDS:
        if (value := getattr(args, field, None)) is not None:
            values[field] = value
    return EngineConfig(thresholds=Thresholds(**values), frame_geom=geom)


def _run_engine(args: argparse.Namespace, on_frame=None):
    """Steps an engine over the input, calling ``on_frame(engine, frame)``
    after each frame; returns the engine and its explanation."""
    stream = _read_stream(args)
    engine = AbductionEngine(_engine_config(args))
    for frame, dets in stream.frames:
        engine.step(frame, dets)
        if on_frame:
            on_frame(engine, frame)
    return engine, engine.finalize()


def _write_facts(directory: str, engine: AbductionEngine, frame: int) -> None:
    """Hook: writes the frame's facts to ``directory/frame_NNNNNN.lp``."""
    Path(directory).mkdir(parents=True, exist_ok=True)
    Path(directory, f"frame_{frame:06d}.lp").write_text(emit_facts(engine.last_spec))


def _print_latency(engine: AbductionEngine) -> None:
    totals = [s.total_ms for s in engine.latencies]
    if not totals:
        return
    mean = statistics.fmean(totals)
    p95 = sorted(totals)[min(len(totals) - 1, int(0.95 * len(totals)))]
    fps = 1000.0 / mean if mean > 0 else float("inf")
    print(f"steps: {len(totals)}  mean: {mean:.2f} ms  p95: {p95:.2f} ms  fps: {fps:.1f}")


def cmd_track(args: argparse.Namespace) -> int:
    if args.gt:
        _require(args.gt)
    check_match_iou(args.match_iou)
    facts = partial(_write_facts, args.emit_facts) if args.emit_facts else None
    engine, exp = _run_engine(args, facts)
    if args.out_tracks:
        Path(args.out_tracks).write_text(write_tracks(exp))
    if args.out_events:
        Path(args.out_events).write_text(write_events(exp))
    if args.out_report:
        Path(args.out_report).write_text(write_report(exp))
    if args.latency_csv:
        rows = ["frame,solve_ms,total_ms"] + [
            f"{s.frame},{s.solve_ms:.4f},{s.total_ms:.4f}" for s in engine.latencies
        ]
        Path(args.latency_csv).write_text("\n".join(rows) + "\n")
    if args.gt:
        gt = parse_mot_tracks(Path(args.gt).read_text())
        report = evaluate(gt, explanation_to_boxes(exp), match_iou=args.match_iou)
        print(format_report(report, name=Path(args.input).stem))
    _print_latency(engine)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    _require(args.gt, args.hyp)
    gt = parse_mot_tracks(Path(args.gt).read_text())
    hyp = parse_mot_tracks(Path(args.hyp).read_text())
    report = evaluate(gt, hyp, match_iou=args.match_iou)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_report(report, name=Path(args.hyp).stem))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from .synth import generate, scaling_scenario

    config = _engine_config(args)
    # One mean cannot resolve a small change on a busy machine; the
    # median and the worst frame sit beside it.
    print(f"{'tracks':>8} {'ms/frame':>10} {'p50 ms':>8} {'max ms':>8} {'fps':>8}")
    csv_rows = ["n_tracks,frame,total_ms"]
    for n in args.tracks:
        cfg = scaling_scenario(n, args.frames, args.seed, config.frame_geom)
        frames, _ = generate(cfg)
        engine = AbductionEngine(config)
        for frame, dets in frames:
            engine.step(frame, dets)
        times = [s.total_ms for s in engine.latencies]
        mean = statistics.fmean(times)
        fps = 1000.0 / mean if mean > 0 else float("inf")
        p50, worst = statistics.median(times), max(times)
        print(f"{n:>8} {mean:>10.2f} {p50:>8.2f} {worst:>8.2f} {fps:>8.2f}")
        csv_rows += [f"{n},{s.frame},{s.total_ms:.4f}" for s in engine.latencies]
    if args.latency_csv:
        Path(args.latency_csv).write_text("\n".join(csv_rows) + "\n")
    return 0


def cmd_anticipate(args: argparse.Namespace) -> int:
    last: list[str] = []  # the block printed last

    def print_block(engine: AbductionEngine, frame: int) -> None:
        # a steady prediction repeats frame after frame; print changes only
        block = frame_block(engine, frame)
        if block and block != last:
            print(*block, sep="\n", flush=True)
            last[:] = block

    _, exp = _run_engine(args, print_block)
    print(write_events(exp), end="")
    return 0


def _positive_int(text: str, least: int = 1) -> int:
    value = int(text)
    if value < least:
        raise argparse.ArgumentTypeError(f"must be at least {least}: {text}")
    return value


def _track_counts(text: str) -> list[int]:
    """The track counts of a comma-separated list, each at least 2: the
    scaling scenario pairs its tracks."""
    return [_positive_int(v, 2) for v in text.split(",")]


def _add_threshold_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags win")
    for flag, field, kind in _THRESHOLDS:
        if flag:
            p.add_argument(flag, dest=field, type=kind)
    p.add_argument("--frame-geom", dest="frame_geom", help="WxH in pixels")


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="detection file")
    p.add_argument("--format", choices=["mot", "kitti"], default="mot")
    p.add_argument("--classes", help="comma-separated class filter (kitti)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abdtrack",
        description="Online multi-object tracking with joint event abduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="run the tracker over a detection file")
    _add_input_flags(p)
    _add_threshold_flags(p)
    p.add_argument("--out-tracks", help="MOT result output path")
    p.add_argument("--out-events", help="event log output path")
    p.add_argument("--out-report", help="structured JSON report path")
    p.add_argument("--emit-facts", help="directory for per-frame fact dumps")
    p.add_argument("--latency-csv", help="per-frame latency CSV path")
    p.add_argument("--gt", help="optional ground-truth file; prints metrics after the run")
    p.add_argument("--match-iou", type=float, default=0.5)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="CLEAR-MOT evaluation of a result file")
    p.add_argument("--gt", required=True, help="ground-truth file (MOT format)")
    p.add_argument("--hyp", required=True, help="result file (MOT format)")
    p.add_argument("--match-iou", type=float, default=0.5)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="synthetic scaling benchmark")
    p.add_argument("--tracks", type=_track_counts, default="5,10,20,50,100")
    p.add_argument("--frames", type=_positive_int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--latency-csv", help="per-frame latency CSV path")
    _add_threshold_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("anticipate", help="track and print anticipations/warnings")
    _add_input_flags(p)
    _add_threshold_flags(p)
    p.set_defaults(func=cmd_anticipate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
