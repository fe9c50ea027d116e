"""Synthetic scenario generation for correctness scripts and scaling runs.

Ground-truth motion is piecewise linear with bounded speeds; boxes never
wrap, so trajectories that exit the frame produce genuine
field-of-view-exit cases.  Detections derive from ground truth by
occlusion suppression (scripted windows), random drops, box jitter, and
spurious boxes; everything is a pure function of the seed.

The overlap-fraction knob pairs tracks up and gives each pair a constant
relative crossing velocity sized so the boxes overlap for the requested
fraction of the sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Detection
from .geometry import DEFAULT_FRAME_GEOM, BBox2D, TrackBoxes, iou, proper_part

__all__ = [
    "OcclusionScript",
    "ScenarioConfig",
    "generate",
    "scaling_scenario",
    "measured_overlap_fraction",
    "make_occlusion_scenario",
    "occlusion_corpus",
]


@dataclass(frozen=True)
class OcclusionScript:
    """Suppress the target's detections while the occluder is scripted to
    cover it: frames [start, start+duration-1] inclusive."""

    occluder: int
    target: int
    start: int
    duration: int


@dataclass(frozen=True)
class ScenarioConfig:
    n_tracks: int = 5
    n_frames: int = 100
    frame_geom: tuple[float, float] = DEFAULT_FRAME_GEOM
    overlap_fraction: float = 0.0
    occlusions: tuple[OcclusionScript, ...] = ()
    drop_prob: float = 0.0
    jitter_sigma: float = 0.0
    spurious_rate: float = 0.0
    seed: int = 0
    # Explicit initial boxes/velocities override the random layout.
    fixed_boxes: tuple[tuple[float, float, float, float], ...] = ()
    fixed_velocities: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("overlap_fraction", "drop_prob", "spurious_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.overlap_fraction > 0.0 and self.n_tracks < 2:
            raise ValueError("overlap requires at least two tracks")


def generate(cfg: ScenarioConfig) -> tuple[list[tuple[int, list[Detection]]], TrackBoxes]:
    """Build (frames, ground truth) for a scenario.

    Returns the per-frame detection lists, every detection of class
    ``car``, and the ground-truth boxes per track id.
    """
    rng = np.random.default_rng(cfg.seed)
    W, H = cfg.frame_geom
    n = cfg.n_tracks

    sizes = np.column_stack(
        [rng.uniform(26, 48, size=n), rng.uniform(22, 40, size=n)]
    )
    if cfg.fixed_boxes:
        pos = np.array([[b[0], b[1]] for b in cfg.fixed_boxes], dtype=float)
        sizes = np.array([[b[2], b[3]] for b in cfg.fixed_boxes], dtype=float)
    else:
        pos = np.column_stack(
            [
                rng.uniform(0.08 * W, 0.85 * W, size=n),
                rng.uniform(0.08 * H, 0.75 * H, size=n),
            ]
        )
    if cfg.fixed_velocities:
        vel = np.array(cfg.fixed_velocities, dtype=float)
    else:
        vel = rng.uniform(-2.0, 2.0, size=(n, 2))

    # Pair tracks (0,1), (2,3), ... for the overlap windows: the follower
    # crosses the leader with a relative velocity sized to the target
    # overlap duration, centered mid-sequence.
    follower_of: dict[int, tuple[int, float, float]] = {}
    if cfg.overlap_fraction > 0.0 and not cfg.fixed_boxes:
        target_frames = max(1.0, cfg.overlap_fraction * cfg.n_frames)
        for a in range(0, n - 1, 2):
            b = a + 1
            span = sizes[a][0] + sizes[b][0]
            rel_vx = span / target_frames
            follower_of[b] = (a, rel_vx, span)

    resample_every = 40
    gt: TrackBoxes = {i: {} for i in range(n)}
    alive = [True] * n
    cur = pos.copy()
    for f in range(cfg.n_frames):
        # piecewise-linear: positions integrate, only the slope changes
        if (
            f > 0
            and f % resample_every == 0
            and not cfg.fixed_velocities
            and cfg.overlap_fraction == 0.0
        ):
            vel = rng.uniform(-2.0, 2.0, size=(n, 2))
        for i in range(n):
            if not alive[i]:
                continue
            if i in follower_of:
                a, rel_vx, span = follower_of[i]
                # relative x sweeps from -span to +span across the run
                t_mid = cfg.n_frames / 2.0
                rel = (f - t_mid) * rel_vx
                x = cur[a][0] + rel
                y = cur[a][1] + 0.25 * sizes[a][1]
            else:
                x, y = cur[i][0], cur[i][1]
            w, h = sizes[i]
            # plain floats: written boxes must read back (repr of numpy scalars does not)
            box = BBox2D(float(x), float(y), float(w), float(h))
            # wrap-free: once fully outside the frame the track is over
            if box.x2 <= 0 or box.y2 <= 0 or box.x >= W or box.y >= H:
                alive[i] = False
                continue
            gt[i][f] = box
        cur += vel
    gt = {i: boxes for i, boxes in gt.items() if boxes}

    suppressed: set[tuple[int, int]] = set()
    for occ in cfg.occlusions:
        for f in range(occ.start, occ.start + occ.duration):
            suppressed.add((occ.target, f))

    frames: list[tuple[int, list[Detection]]] = []
    for f in range(cfg.n_frames):
        dets: list[Detection] = []
        for i in sorted(gt):
            if f not in gt[i] or (i, f) in suppressed:
                continue
            if cfg.drop_prob > 0 and rng.random() < cfg.drop_prob:
                continue
            box = gt[i][f]
            if cfg.jitter_sigma > 0:
                dx, dy, dw, dh = rng.normal(0.0, cfg.jitter_sigma, size=4).tolist()
                box = BBox2D(
                    box.x + dx, box.y + dy, max(4.0, box.w + dw), max(4.0, box.h + dh)
                )
            conf = int(rng.integers(85, 100))
            dets.append(Detection(id=len(dets), cls="car", conf=conf, box=box))
        if cfg.spurious_rate > 0 and rng.random() < cfg.spurious_rate:
            w, h = float(rng.uniform(16, 40)), float(rng.uniform(14, 32))
            x = float(rng.uniform(0, W - w))
            y = float(rng.uniform(0, H - h))
            conf = int(rng.integers(55, 100))
            dets.append(Detection(id=len(dets), cls="car", conf=conf, box=BBox2D(x, y, w, h)))
        frames.append((f, dets))
    return frames, gt


def scaling_scenario(
    n_tracks: int,
    n_frames: int,
    seed: int = 0,
    frame_geom: tuple[float, float] = ScenarioConfig.frame_geom,
) -> ScenarioConfig:
    """The scaling bench's stream: random tracks paired up to overlap for
    30% of the frames, with 5% of the detections dropped and 1 px of box
    jitter."""
    return ScenarioConfig(
        n_tracks=n_tracks, n_frames=n_frames, frame_geom=frame_geom, overlap_fraction=0.3,
        drop_prob=0.05, jitter_sigma=1.0, seed=seed,
    )


def measured_overlap_fraction(gt: TrackBoxes, n_frames: int) -> float:
    """Fraction of frames in which at least one pair of ground-truth boxes
    overlaps."""
    hits = 0
    for f in range(n_frames):
        boxes = [gt[i][f] for i in gt if f in gt[i]]
        found = False
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if iou(boxes[i], boxes[j]) > 0:
                    found = True
                    break
            if found:
                break
        hits += found
    return hits / n_frames if n_frames else 0.0


def make_occlusion_scenario(
    seed: int,
    n_frames: int = 120,
    n_bystanders: int = 1,
) -> ScenarioConfig:
    """A target crossing behind a large static occluder, on the default
    frame, without drops or jitter.

    The suppression window is derived from the constructed geometry: the
    frames in which the target's box is strictly inside the occluder's.
    Track 0 is the occluder, track 1 the target; bystanders fill in.
    """
    rng = np.random.default_rng(seed)
    W, H = ScenarioConfig.frame_geom
    tgt_w, tgt_h = float(rng.uniform(28, 44)), float(rng.uniform(22, 34))
    speed = float(rng.uniform(2.0, 3.5))
    # size the occluder so the hidden stretch stays shorter than the
    # default halted-age limit and the track can be resumed
    hidden_target = float(rng.uniform(8, 24))
    occ_w = tgt_w + speed * hidden_target
    occ_h = float(rng.uniform(110, 160))
    occ_x = float(rng.uniform(0.3 * W, 0.55 * W))
    occ_y = float(rng.uniform(0.15 * H, 0.35 * H))
    # target passes through the occluder's interior, bottom above the
    # occluder's bottom edge so the depth heuristic holds
    tgt_y = occ_y + occ_h - tgt_h - float(rng.uniform(8, 24))
    travel = speed * n_frames
    tgt_x0 = occ_x + occ_w / 2.0 - travel / 2.0

    boxes = [(occ_x, occ_y, occ_w, occ_h), (tgt_x0, tgt_y, tgt_w, tgt_h)]
    vels = [(0.0, 0.0), (speed, 0.0)]
    for k in range(n_bystanders):
        bw, bh = float(rng.uniform(26, 40)), float(rng.uniform(20, 32))
        bx = float(rng.uniform(0.05 * W, 0.9 * W - bw))
        by = float(rng.uniform(0.55 * H, 0.9 * H - bh))
        boxes.append((bx, by, bw, bh))
        vels.append((float(rng.uniform(-1.0, 1.0)), 0.0))

    occluder = BBox2D(occ_x, occ_y, occ_w, occ_h)
    hidden_frames = [
        f for f in range(n_frames)
        if proper_part(BBox2D(tgt_x0 + speed * f, tgt_y, tgt_w, tgt_h), occluder)
    ]
    occlusions: tuple[OcclusionScript, ...] = ()
    if hidden_frames:
        start, end = hidden_frames[0], hidden_frames[-1]
        occlusions = (OcclusionScript(occluder=0, target=1, start=start, duration=end - start + 1),)

    return ScenarioConfig(
        n_tracks=len(boxes),
        n_frames=n_frames,
        occlusions=occlusions,
        seed=seed,
        fixed_boxes=tuple(boxes),
        fixed_velocities=tuple(vels),
    )


def occlusion_corpus(n_scenarios: int = 50, seed: int = 7) -> list[ScenarioConfig]:
    """Scenario set for the abduction-versus-baseline differential."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_scenarios):
        out.append(
            make_occlusion_scenario(
                seed=int(rng.integers(0, 2**31)),
                n_frames=int(rng.integers(100, 140)),
                n_bystanders=int(rng.integers(1, 3)),
            )
        )
    return out
