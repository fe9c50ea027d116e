import re
import warnings

import pytest

from abdtrack import synth
from abdtrack.cli import main
from abdtrack.tracker import AbductionEngine


def occlusion_mot_text() -> str:
    """MOT detections replaying the car-hides-behind-bus shape: a big
    static box plus a small one that vanishes for five frames."""
    lines = []
    for f in range(25):
        lines.append(f"{f+1},-1,150,80,120,100,0.99")
        if not (10 <= f < 15):
            x = 60 + 8 * f
            lines.append(f"{f+1},-1,{x},120,30,24,0.99")
    return "\n".join(lines) + "\n"


@pytest.fixture
def det_file(tmp_path):
    p = tmp_path / "dets.txt"
    p.write_text(occlusion_mot_text())
    return p


class TestTrack:
    def test_writes_tracks_and_events(self, det_file, tmp_path, capsys):
        tracks = tmp_path / "out.txt"
        events = tmp_path / "events.txt"
        rc = main(
            [
                "track",
                "--input",
                str(det_file),
                "--out-tracks",
                str(tracks),
                "--out-events",
                str(events),
                "--frame-geom",
                "400x300",
            ]
        )
        assert rc == 0
        text = events.read_text()
        assert re.search(r"occurs_at\(hides_behind\(trk_\d+,trk_\d+\),\d+\)", text)
        assert re.search(r"occurs_at\(unhides_from_behind\(trk_\d+,trk_\d+\),\d+\)", text)
        assert tracks.read_text().count("\n") > 25
        out = capsys.readouterr().out
        assert "fps" in out and "mean" in out

    def test_emit_facts_flag(self, det_file, tmp_path):
        facts = tmp_path / "facts"
        rc = main(
            [
                "track",
                "--input",
                str(det_file),
                "--emit-facts",
                str(facts),
                "--frame-geom",
                "400x300",
            ]
        )
        assert rc == 0
        files = sorted(facts.glob("frame_*.lp"))
        assert len(files) == 25
        body = files[3].read_text()
        assert body.startswith("#const curr_time=4.")
        assert re.search(r"det\(det_0, object, \d+\)\.", body)
        text = files[12].read_text()
        assert "trk_state(trk_" in text  # tracks exist by frame 13
        assert "iou(trk_" in text

    def test_no_emit_facts_subcommand(self, det_file, tmp_path, capsys):
        # `track --emit-facts` is the one way to dump facts
        with pytest.raises(SystemExit) as exc:
            main(["emit-facts", "--input", str(det_file), "--out", str(tmp_path / "facts")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "emit-facts" in err
        assert not (tmp_path / "facts").exists()

    def test_bad_first_line_makes_no_facts_dir(self, tmp_path, capsys):
        dets = tmp_path / "dets.txt"
        dets.write_text("1,-1,10,10,0,20,0.9\n2,-1,10,10,20,20,0.9\n")
        facts = tmp_path / "facts"
        rc = main(["track", "--input", str(dets), "--emit-facts", str(facts)])
        assert rc == 1
        assert "line 1:" in capsys.readouterr().err
        assert not facts.exists()

    def test_box_wider_than_sqrt_of_max_float(self, tmp_path):
        # area 1e100 and aspect 1e300 are finite, but w * w = s * r overflows
        dets = tmp_path / "dets.txt"
        dets.write_text("".join(f"{f},-1,0,0,1e200,1e-100,0.9\n" for f in (1, 2, 3)))
        tracks = tmp_path / "out.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["track", "--input", str(dets), "--out-tracks", str(tracks)])
        assert rc == 0
        assert tracks.read_text().startswith("1,0,0.0,0.0,1e+200,1e-100,0.9,")

    @pytest.mark.parametrize("w, h", [("1e10", "1e-7"), ("1e-7", "1e10")])
    def test_box_thinner_than_a_micropixel_keeps_its_track(self, tmp_path, w, h):
        # The prediction of a static box this thin is the box itself, so
        # every frame assigns it to the one track.
        dets = tmp_path / "dets.txt"
        dets.write_text("".join(f"{f},-1,10,10,{w},{h},0.9\n" for f in (1, 2, 3, 4)))
        events = tmp_path / "events.txt"
        rc = main(["track", "--input", str(dets), "--out-events", str(events)])
        assert rc == 0
        assert events.read_text() == "occurs_at(enters_fov(trk_0),1)\n"

    @pytest.mark.parametrize("classes, tracked", [("Car", 1), ("car, Pedestrian", 2)])
    def test_kitti_class_filter_any_case(self, tmp_path, classes, tracked):
        # KITTI spells its types "Car", "Pedestrian"; the filter used to be
        # compared as given, so --classes Car kept nothing.
        rows = [
            f"{f} -1 {cls} 0 0 0 {x} 100 {x + 60} 160 1 1 1 0 0 0 0 0.9\n"
            for f in range(3)
            for cls, x in (("Car", 100), ("Pedestrian", 400), ("Cyclist", 700))
        ]
        dets = tmp_path / "dets.txt"
        dets.write_text("".join(rows))
        events = tmp_path / "events.txt"
        rc = main(["track", "--input", str(dets), "--format", "kitti",
                   "--classes", classes, "--out-events", str(events)])
        assert rc == 0
        assert events.read_text() == "".join(
            f"occurs_at(enters_fov(trk_{t}),0)\n" for t in range(tracked)
        )

    def test_missing_input_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["track", "--input", str(tmp_path / "nope.txt")])
        assert exc.value.code == 2
        assert f"error: file not found: {tmp_path / 'nope.txt'}" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, det_file, tmp_path, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("iou_thresh = 0.2\nmax_halted_age = 40  # comment\n")
        rc = main(
            [
                "track",
                "--input",
                str(det_file),
                "--config",
                str(cfg),
                "--iou-thresh",
                "0.5",
                "--frame-geom",
                "400x300",
            ]
        )
        assert rc == 0

    def test_bad_config_key_fails(self, det_file, tmp_path):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("bogus_key = 1\n")
        rc = main(["track", "--input", str(det_file), "--config", str(cfg)])
        assert rc == 1

    def test_bad_config_value_reports_line(self, det_file, tmp_path, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text("fov_margin = 5\nmax_halted_age = soon\n")
        rc = main(["track", "--input", str(det_file), "--config", str(cfg)])
        assert rc == 1
        assert "engine.cfg:2:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [("--size-thresh", "nan"), ("--horizon", "-3"), ("--frame-geom", "nanx375"),
         ("--frame-geom", "0x0"), ("--frame-geom", "100")],
    )
    def test_bad_flag_value_fails(self, det_file, tmp_path, flag, value, capsys):
        out = tmp_path / "events.txt"
        rc = main(["track", "--input", str(det_file), flag, value, "--out-events", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err
        if flag == "--frame-geom":
            assert "WxH" in err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["fov_margin = nan", "frame_geom = infx375"])
    def test_non_finite_config_value_reports_line(self, det_file, tmp_path, line, capsys):
        cfg = tmp_path / "engine.cfg"
        cfg.write_text(f"iou_thresh = 0.2\n{line}\n")
        rc = main(["track", "--input", str(det_file), "--config", str(cfg)])
        assert rc == 1
        assert "engine.cfg:2:" in capsys.readouterr().err


class TestSkippedFrames:
    def test_object_keeps_its_id_across_frames_with_no_row(self, tmp_path, capsys):
        # One 40x40 box moving 15 px/frame with no row on frames 6-9: the
        # engine steps those frames as empty ones, so the box halts at 6
        # and resumes at 10 under its id, the gap back-filled.
        rows = [f"{f},-1,{100 + 15 * f},100,40,40,0.99" for f in [*range(1, 6), *range(10, 21)]]
        (tmp_path / "dets.txt").write_text("\n".join(rows) + "\n")
        tracks, events, facts = tmp_path / "tracks.txt", tmp_path / "events.txt", tmp_path / "facts"
        assert main(["track", "--input", str(tmp_path / "dets.txt"), "--out-tracks", str(tracks),
                     "--out-events", str(events), "--emit-facts", str(facts)]) == 0
        assert [line for line in events.read_text().splitlines() if "noise" not in line] == [
            "occurs_at(enters_fov(trk_0),1)",
            "occurs_at(missing_detections(trk_0),6)",
            "occurs_at(recover(trk_0),10)",
        ]
        written = [line.split(",") for line in tracks.read_text().splitlines()]
        assert [(int(r[0]), r[1]) for r in written] == [(f, "0") for f in range(1, 21)]
        assert [(int(r[0]), float(r[2]), r[6]) for r in written if r[6] == "0.0"] == [
            (f, 100.0 + 15 * f, "0.0") for f in range(6, 10)
        ]
        # the per-frame hook runs on the input's frames only
        assert [p.name for p in sorted(facts.glob("*.lp"))] == [
            f"frame_{f:06d}.lp" for f in [*range(1, 6), *range(10, 21)]
        ]
        # the latency summary counts the engine's steps: 16 frames with a
        # row and the 4 skipped ones
        assert capsys.readouterr().out.startswith("steps: 20  mean: ")


class TestTrackMetricsToggle:
    def test_track_with_gt_prints_report(self, det_file, tmp_path, capsys):
        # ground truth mirrors the detections including the occlusion gap
        gt_lines = []
        for f in range(25):
            gt_lines.append(f"{f+1},1,150,80,120,100,1,-1,-1,-1")
            x = 60 + 8 * f
            gt_lines.append(f"{f+1},2,{x},120,30,24,1,-1,-1,-1")
        gt = tmp_path / "gt.txt"
        gt.write_text("\n".join(gt_lines) + "\n")
        rc = main(
            ["track", "--input", str(det_file), "--gt", str(gt), "--frame-geom", "400x300"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "MOTA" in out

    def test_missing_gt_exits_2_before_the_run(self, det_file, tmp_path, capsys):
        tracks = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main(["track", "--input", str(det_file), "--gt", str(tmp_path / "nope.txt"),
                  "--out-tracks", str(tracks), "--frame-geom", "400x300"])
        assert exc.value.code == 2
        assert f"error: file not found: {tmp_path / 'nope.txt'}" in capsys.readouterr().err
        assert not tracks.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "1.5"])
    def test_match_iou_out_of_range_fails_before_the_run(self, det_file, tmp_path, value, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("1,1,150,80,120,100,1,-1,-1,-1\n")
        tracks = tmp_path / "out.txt"
        rc = main(
            ["track", "--input", str(det_file), "--gt", str(gt), "--match-iou", value,
             "--out-tracks", str(tracks), "--frame-geom", "400x300"]
        )
        assert rc == 1
        out, err = capsys.readouterr()
        assert "error:" in err and "match IoU" in err
        assert out == "" and not tracks.exists()


class TestEval:
    def _write(self, path, rows):
        path.write_text("".join(f"{f},{i},{x},{y},{w},{h},1,-1,-1,-1\n" for f, i, x, y, w, h in rows))

    def test_perfect_match(self, tmp_path, capsys):
        rows = [(f, 1, 10, 10, 20, 20) for f in range(1, 6)]
        gt, hyp = tmp_path / "gt.txt", tmp_path / "hyp.txt"
        self._write(gt, rows)
        self._write(hyp, rows)
        assert main(["eval", "--gt", str(gt), "--hyp", str(hyp)]) == 0
        out = capsys.readouterr().out
        assert "100.00%" in out

    def test_constructed_sixty(self, tmp_path, capsys):
        gt_rows = [(f, 100, 0, 0, 10, 10) for f in range(1, 11)]
        hyp_rows = (
            [(f, 1, 0, 0, 10, 10) for f in range(1, 5)]
            + [(f, 2, 0, 0, 10, 10) for f in range(7, 11)]
            + [(5, 3, 500, 500, 10, 10)]
        )
        gt, hyp = tmp_path / "gt.txt", tmp_path / "hyp.txt"
        self._write(gt, gt_rows)
        self._write(hyp, hyp_rows)
        assert main(["eval", "--gt", str(gt), "--hyp", str(hyp)]) == 0
        assert "60.00%" in capsys.readouterr().out

    def test_mismatched_ranges_error(self, tmp_path, capsys):
        gt, hyp = tmp_path / "gt.txt", tmp_path / "hyp.txt"
        self._write(gt, [(f, 1, 0, 0, 10, 10) for f in range(1, 5)])
        self._write(hyp, [(999, 1, 0, 0, 10, 10)])
        assert main(["eval", "--gt", str(gt), "--hyp", str(hyp)]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_empty_gt_error(self, tmp_path, capsys):
        gt, hyp = tmp_path / "gt.txt", tmp_path / "hyp.txt"
        gt.write_text("")
        self._write(hyp, [(1, 1, 0, 0, 10, 10)])
        assert main(["eval", "--gt", str(gt), "--hyp", str(hyp)]) == 1
        out, err = capsys.readouterr()
        assert "mismatch" in err and out == ""

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "1.5"])
    def test_match_iou_out_of_range_fails(self, tmp_path, value, capsys):
        # at 0 the disjoint pair below would match: MOTA 100%, MOTP 0%
        gt, hyp = tmp_path / "gt.txt", tmp_path / "hyp.txt"
        self._write(gt, [(1, 1, 10, 10, 20, 20)])
        self._write(hyp, [(1, 1, 500, 300, 20, 20)])
        assert main(["eval", "--gt", str(gt), "--hyp", str(hyp), "--match-iou", value]) == 1
        out, err = capsys.readouterr()
        assert "error:" in err and "match IoU" in err
        assert out == ""

    def test_missing_file(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        self._write(gt, [(1, 1, 0, 0, 10, 10)])
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--gt", str(gt), "--hyp", str(tmp_path / "no.txt")])
        assert exc.value.code == 2
        assert f"error: file not found: {tmp_path / 'no.txt'}" in capsys.readouterr().err


class TestBench:
    def test_default_track_counts(self):
        from abdtrack.cli import build_parser

        args = build_parser().parse_args(["bench"])
        assert args.tracks == [5, 10, 20, 50, 100]

    def test_scenario_option_removed(self):
        with pytest.raises(SystemExit):
            main(["bench", "--scenario", "scene.cfg"])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--frames", "0"], "--frames"),
            (["--frames", "-2"], "--frames"),
            (["--tracks", "5,0"], "--tracks"),
            (["--tracks", "-1"], "--tracks"),
        ],
    )
    def test_non_positive_size_rejected_at_parse(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least 1" in capsys.readouterr().err

    def test_table_and_reproducibility(self, tmp_path, capsys):
        args = ["bench", "--tracks", "2,3", "--frames", "8", "--seed", "5",
                "--latency-csv", str(tmp_path / "lat.csv")]
        assert main(args) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if re.match(r"^\s+\d+\s", l)]
        assert len(rows) == 2
        assert out.split()[:5] == ["tracks", "ms/frame", "p50", "ms", "max"]
        for row in rows:
            _, mean, p50, worst, _ = map(float, row.split())
            assert 0 < p50 <= worst and mean <= worst
        csv = (tmp_path / "lat.csv").read_text().splitlines()
        assert csv[0] == "n_tracks,frame,total_ms"
        assert len(csv) == 1 + 2 * 8

    def test_scenes_follow_frame_geom(self, monkeypatch, capsys):
        # the scenes are laid out on the engine's field of view
        generate, geoms = synth.generate, []

        def spy(cfg):
            geoms.append(cfg.frame_geom)
            return generate(cfg)

        monkeypatch.setattr(synth, "generate", spy)
        assert main(["bench", "--tracks", "3", "--frames", "4", "--frame-geom", "640x375"]) == 0
        assert geoms == [(640.0, 375.0)]


class TestAnticipate:
    def test_prints_anticipations(self, det_file, capsys):
        rc = main(
            [
                "anticipate",
                "--input",
                str(det_file),
                "--frame-geom",
                "400x300",
                "--horizon",
                "60",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"anticipate\(unhides_from_behind\(trk_\d+, trk_\d+\), \d+\)", out)
        assert re.search(r"point2d\(interpolated_position\(trk_\d+, \d+\), -?\d+, -?\d+\)", out)
        assert "occurs_at(" in out

    def test_block_printed_as_its_frame_is_stepped(self, det_file, capsys, monkeypatch):
        step = AbductionEngine.step

        def step_failing_on_the_last_frame(self, frame, detections):
            if frame == 25:
                raise ValueError("frame 25 failed")
            return step(self, frame, detections)

        monkeypatch.setattr(AbductionEngine, "step", step_failing_on_the_last_frame)
        rc = main(["anticipate", "--input", str(det_file), "--frame-geom", "400x300"])
        assert rc == 1
        out, err = capsys.readouterr()
        assert re.search(r"^anticipate\(unhides_from_behind\(trk_\d+, trk_\d+\), \d+\)$", out, re.M)
        assert "occurs_at(" not in out
        assert "frame 25 failed" in err

