import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from poselab.facemodel import DuplicateIdError, ParseError
from poselab.harness import (
    CSV_HEADER,
    StudyConfig,
    StudyResult,
    StudyRow,
    emit_csv,
    emit_svg,
    landmark_dataset,
    load_landmarks,
    read_study_csv,
    run_alpha_ablation,
    run_jitter_study,
    run_lowres_study,
    run_stretch_study,
    run_subset_study,
)
from poselab.multiloss import TrainingDivergedError

SMALL_RIGID = StudyConfig(trials=6, nonrigid_sigma=0.0)


class TestStudyConfig:
    def test_defaults(self):
        cfg = StudyConfig()
        assert cfg.trials == 500
        assert cfg.subsets == ("rigid-6", "core-12", "no-mouth-48", "all-68")
        assert cfg.jitter_sweep == tuple(float(m) for m in range(11))
        assert cfg.alpha_sweep == (0.0, 0.01, 0.1, 1.0, 2.0, 4.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"yaw_range": 0.0},
            {"pitch_range": 99.0},
            {"rigid_sigma": -0.1},
            {"jitter_sweep": ()},
            {"jitter_sweep": (-1.0,)},
            {"scenes": 1},
            {"val_fraction": 1.0},
            {"raster_size": 0},
            {"hidden_size": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StudyConfig(**kwargs)


class TestSubsetStudy:
    def test_noiseless_recovery(self):
        result = run_subset_study(SMALL_RIGID)
        assert result.study == "subset"
        assert [r.sweep for r in result.rows] == list(SMALL_RIGID.subsets)
        for row in result.rows:
            assert row.trials == 6
            assert row.excluded == 0
            assert row.mae < 1e-6
            assert row.yaw_mae < 1e-6

    def test_deformation_hurts(self):
        noisy = run_subset_study(StudyConfig(trials=6, nonrigid_sigma=0.3))
        assert all(row.mae > 1e-3 for row in noisy.rows if row.sweep != "rigid-6")

    def test_deterministic(self):
        a = run_subset_study(SMALL_RIGID)
        b = run_subset_study(SMALL_RIGID)
        assert a == b


class TestJitterStudy:
    def test_zero_magnitude_exact_and_noise_hurts(self):
        cfg = StudyConfig(trials=5, jitter_sweep=(0.0, 4.0))
        result = run_jitter_study(cfg, subset_name="all-68")
        assert result.study == "jitter-all-68"
        assert result.rows[0].sweep == "0.0"
        assert result.rows[0].mae < 1e-6
        assert result.rows[1].mae > result.rows[0].mae
        assert all(r.trials == 5 for r in result.rows)

    def test_unknown_subset(self):
        with pytest.raises(ValueError, match="bogus"):
            run_jitter_study(StudyConfig(trials=2), subset_name="bogus")


class TestStretchStudy:
    def test_unit_scale_exact(self):
        cfg = StudyConfig(trials=5, stretch_sweep=(0.8, 1.0, 1.2))
        result = run_stretch_study(cfg, axis="width")
        assert result.study == "stretch-width"
        by_label = {r.sweep: r for r in result.rows}
        assert by_label["1.0"].mae < 1e-6
        assert by_label["0.8"].mae > 0.5
        assert by_label["1.2"].mae > 0.5

    def test_height_axis(self):
        cfg = StudyConfig(trials=3, stretch_sweep=(1.0,))
        result = run_stretch_study(cfg, axis="height")
        assert result.study == "stretch-height"
        assert result.rows[0].mae < 1e-6

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            run_stretch_study(StudyConfig(trials=2), axis="depth")


TINY_TRAIN = dict(scenes=60, epochs=2, hidden_size=16, batch_size=16)


class TestLowresStudy:
    def test_row_layout_and_values(self):
        cfg = StudyConfig(lowres_schemes=("none", "fixed10"), lowres_factors=(1, 5), **TINY_TRAIN)
        result = run_lowres_study(cfg)
        assert result.study == "lowres"
        assert [r.sweep for r in result.rows] == ["none@x1", "none@x5", "fixed10@x1", "fixed10@x5"]
        n_val = round(60 * cfg.val_fraction)
        for row in result.rows:
            assert row.trials == n_val
            assert math.isfinite(row.mae)
            assert 0.0 <= row.mae <= 120.0

    def test_diverged_scheme_marked(self, monkeypatch):
        def boom(*args, **kwargs):
            raise TrainingDivergedError("boom")

        monkeypatch.setattr("poselab.harness.train_toy", boom)
        cfg = StudyConfig(lowres_schemes=("none",), lowres_factors=(1, 5), **TINY_TRAIN)
        result = run_lowres_study(cfg)
        assert len(result.rows) == 2
        for row in result.rows:
            assert math.isnan(row.mae)
            assert row.trials == 0
            assert row.excluded > 0

    # (yaw, pitch, roll, mean) MAE per row, from the per-point splat loop
    # that rasterize() replaced; the separable splat must reproduce them.
    PINNED_ROWS = {
        "none@x1": (38.29723489668101, 24.14491881630317, 31.44535934980811, 31.29583768759743),
        "none@x5": (37.116036759955385, 23.797580885203264, 31.665666452022805, 30.859761365727152),
        "none@x10": (36.341605264622224, 23.88253213804096, 31.904445883906124, 30.70952776218977),
        "none@x15": (36.111755725079526, 23.484344840939244, 31.73799040014684, 30.44469698872187),
        "uniform1to10@x1": (38.54095184653274, 25.47444196875642, 31.482087179945268,
                            31.832493665078143),
        "uniform1to10@x5": (37.39779038769663, 24.830888466117624, 31.97529717564785,
                            31.40132534315404),
        "uniform1to10@x10": (36.26389626361271, 24.456929729560002, 32.26212861455332,
                             30.994318202575343),
        "uniform1to10@x15": (35.47825967875321, 24.10888411404459, 32.22166404110009,
                             30.602935944632634),
    }

    def test_pinned_row_maes(self):
        cfg = StudyConfig(scenes=60, epochs=2, master_seed=0,
                          lowres_schemes=("none", "uniform1to10"))
        result = run_lowres_study(cfg)
        assert [r.sweep for r in result.rows] == list(self.PINNED_ROWS)
        for row in result.rows:
            got = (row.yaw_mae, row.pitch_mae, row.roll_mae, row.mae)
            assert got == pytest.approx(self.PINNED_ROWS[row.sweep], abs=1e-9, rel=0)
            assert (row.trials, row.excluded) == (12, 0)


class TestAlphaAblation:
    def test_rows_and_determinism(self):
        cfg = StudyConfig(alpha_sweep=(0.0, 2.0), **TINY_TRAIN)
        a = run_alpha_ablation(cfg)
        b = run_alpha_ablation(cfg)
        assert a == b
        assert a.study == "alpha"
        assert [r.sweep for r in a.rows] == ["0.0", "2.0"]
        assert all(math.isfinite(r.mae) for r in a.rows)


class TestLandmarkDataset:
    def test_shapes_and_ranges(self):
        cfg = StudyConfig(scenes=12)
        inputs, targets = landmark_dataset(cfg)
        assert inputs.shape == (12, 136)
        assert targets.shape == (12, 3)
        assert np.max(np.abs(targets[:, 0])) <= cfg.yaw_range
        assert np.max(np.abs(targets[:, 1])) <= cfg.pitch_range
        assert np.max(np.abs(targets[:, 2])) <= cfg.roll_range

    def test_features_normalized(self):
        inputs, _ = landmark_dataset(StudyConfig(scenes=5))
        pts = inputs[0].reshape(68, 2)
        assert np.max(np.abs(pts.mean(axis=0))) < 1e-9
        rms = math.sqrt(float(np.mean(np.sum(pts ** 2, axis=1))))
        assert rms == pytest.approx(1.0)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        result = run_subset_study(SMALL_RIGID)
        path = tmp_path / "subset.csv"
        emit_csv(result, path)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        back = read_study_csv(path)
        assert back.study == "subset"
        assert back.rows == result.rows

    def test_rerun_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_subset_study(SMALL_RIGID), p1)
        emit_csv(run_subset_study(SMALL_RIGID), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nan_rows_survive(self, tmp_path):
        result = StudyResult("x", (StudyRow("a", math.nan, math.nan, math.nan, math.nan, 0),))
        path = tmp_path / "x.csv"
        emit_csv(result, path)
        back = read_study_csv(path)
        assert math.isnan(back.rows[0].mae)
        assert back.rows[0].trials == 0

    def test_read_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("sweep,mae\n")
        with pytest.raises(ValueError):
            read_study_csv(path)

    def test_read_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\na,1.0,2.0\n")
        with pytest.raises(ValueError) as exc:
            read_study_csv(path)
        assert ":2:" in str(exc.value)
        path.write_text(CSV_HEADER + "\na,1.0,2.0,3.0,2.0,many\n")
        with pytest.raises(ValueError):
            read_study_csv(path)

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_study_csv(tmp_path / "nope.csv")


class TestSvg:
    def test_well_formed_with_three_series(self, tmp_path):
        result = run_subset_study(SMALL_RIGID)
        path = tmp_path / "subset.svg"
        emit_svg(result, path)
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        polylines = root.findall("s:polyline", ns)
        assert len(polylines) == 3
        labels = [t.text for t in root.findall("s:text", ns)]
        assert "rigid-6" in labels and "all-68" in labels

    def test_nan_points_dropped(self, tmp_path):
        rows = (
            StudyRow("a", 1.0, 2.0, 3.0, 2.0, 5),
            StudyRow("b", math.nan, math.nan, math.nan, math.nan, 0),
            StudyRow("c", 2.0, 3.0, 4.0, 3.0, 5),
        )
        path = tmp_path / "gap.svg"
        emit_svg(StudyResult("gap", rows), path)
        root = ET.fromstring(path.read_text())
        ns = {"s": "http://www.w3.org/2000/svg"}
        for poly in root.findall("s:polyline", ns):
            assert len(poly.attrib["points"].split()) == 2

    def test_escapes_markup(self, tmp_path):
        rows = (StudyRow("a<b&c", 1.0, 1.0, 1.0, 1.0, 1),)
        path = tmp_path / "esc.svg"
        emit_svg(StudyResult("x<y", rows), path)
        ET.fromstring(path.read_text())


class TestLoadLandmarks:
    def test_parses_with_comments(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("# header\n1 10.0 20.0\n2 30.5 40.25  # inline\n\n68 1 2\n")
        ids, pts = load_landmarks(path)
        assert ids.tolist() == [1, 2, 68]
        assert pts.shape == (3, 2)
        assert pts[1].tolist() == [30.5, 40.25]

    def test_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("1 10.0 20.0\n2 30.0\n")
        with pytest.raises(ParseError) as exc:
            load_landmarks(path)
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("line", ["0 1 2", "69 1 2", "x 1 2", "5 a 2", "5 inf 2"])
    def test_bad_lines(self, tmp_path, line):
        path = tmp_path / "lm.txt"
        path.write_text(line + "\n")
        with pytest.raises(ParseError):
            load_landmarks(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("5 1 2\n5 3 4\n")
        with pytest.raises(DuplicateIdError):
            load_landmarks(path)
