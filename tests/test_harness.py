import math
import xml.etree.ElementTree as ET
from functools import partial

import numpy as np
import pytest

from poselab.camera import BehindCameraError
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
from poselab.pnp import DegenerateProblemError

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
            {"lowres_schemes": ("none", "blur")},
            {"lowres_factors": (2.5,)},
            {"lowres_factors": (2.0,)},
            {"lowres_factors": (0,)},
            {"alpha_sweep": (-0.5,)},
            {"alpha_sweep": (math.nan,)},
            {"alpha_sweep": (math.inf,)},
            {"jitter_sweep": (0.0, math.nan)},
            {"jitter_sweep": (0.0, math.inf)},
            {"jitter_sweep": (-math.inf,)},
            {"rigid_sigma": math.nan},
            {"rigid_sigma": math.inf},
            {"nonrigid_sigma": math.nan},
            {"nonrigid_sigma": math.inf},
            {"subsets": ("rigid-6", "all-68", "rigid-6")},
            {"jitter_sweep": (1.0, 1)},
            {"stretch_sweep": (0.8, 0.8)},
            {"lowres_schemes": ("none", "none")},
            {"lowres_factors": (1, 5, 1)},
            {"alpha_sweep": (0.0, 1.0, 1.0)},
            {"trials": 2.5},
            {"master_seed": 0.5},
            {"scenes": 100.5},
            {"epochs": 2.5},
            {"hidden_size": 16.5},
            {"batch_size": 8.5},
            {"raster_size": 32.5},
            {"trials": 3.0},
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


class TestPnPSweep:
    """The trial loop, solve and bookkeeping shared by the subset, jitter
    and stretch studies."""

    CONFIG = StudyConfig(trials=12, master_seed=3)

    # (sweep, yaw, pitch, roll, mean) MAE per row, computed by the three
    # separate per-study loops that _pnp_sweep replaced.
    PINNED = {
        "subset": (
            ("rigid-6", 31.787628995027145, 11.505237246090397,
             7.080496723567766, 16.79112098822844),
            ("core-12", 12.649538017797562, 10.39551881151352,
             6.045988058065948, 9.69701496245901),
            ("no-mouth-48", 14.492895754137967, 10.464614950745998,
             5.924351568038922, 10.293954090974296),
            ("all-68", 31.345758936774853, 20.220202838966987,
             9.336636253296135, 20.300866009679325),
        ),
        "jitter-rigid-6": (
            ("0.0", 4.263256414560601e-14, 3.420527749931068e-14,
             4.263256414560601e-14, 3.9823468596840904e-14),
            ("1.0", 0.7690626870810023, 0.45660269869987885,
             0.48279417594509394, 0.5694865205753251),
            ("2.0", 1.5445327019619484, 0.9028623626336393,
             0.9720359236440773, 1.1398103294132216),
            ("3.0", 2.325348737892984, 1.3367433181804138, 1.468163337735027, 1.710085131269475),
            ("4.0", 3.1111407732831666, 1.7559902275289652, 1.9718600822378025, 2.279663694349978),
            ("5.0", 3.902367910055118, 2.1582712355666724, 2.484038626695751, 2.848225924105847),
            ("6.0", 4.700332241708117, 2.543544552032539, 3.0057908894042042, 3.41655589438162),
            ("7.0", 5.507064493134969, 2.908886439931789, 3.53833453889233, 3.984761823986363),
            ("8.0", 6.325112157348314, 3.251104236780139, 4.082972703874575, 4.553063032667676),
            ("9.0", 7.1572359568441195, 3.5676339309381166, 4.6410534953482445, 5.121974461043494),
            ("10.0", 8.005992421579402, 3.8565197994021845, 5.213882008238271, 5.692131409739953),
        ),
        "jitter-all-68": (
            ("0.0", 2.960594732333751e-14, 6.925247412562878e-14,
             5.0922229396140515e-14, 4.99268836150356e-14),
            ("1.0", 0.19267894162996768, 0.1573346531863241,
             0.11813050687112418, 0.15604803389580532),
            ("2.0", 0.38627007664360136, 0.31504897845021,
             0.23696859322985256, 0.3127625494412213),
            ("3.0", 0.5807797317367154, 0.4731615174057187,
             0.3565172465572921, 0.4701528318999087),
            ("4.0", 0.7762142729403484, 0.6316907131323771,
             0.47677970385561136, 0.6282282299761123),
            ("5.0", 0.9725801289103574, 0.79065492036868, 0.5977594707667429, 0.7869981733485935),
            ("6.0", 1.1698838344961924, 0.950072475733927, 0.7194603721922626, 0.9464722274741272),
            ("7.0", 1.3681320805928945, 1.1099617053980424,
             0.8418865596039081, 1.1066601151982816),
            ("8.0", 1.5673317067627248, 1.2703409244466837, 0.9650425482334354, 1.267571726480948),
            ("9.0", 1.7674898231236742, 1.4312284983011379, 1.0889332872876107, 1.429217202904141),
            ("10.0", 1.9686137408534374, 1.5926428734430205,
             1.2135641505532142, 1.5916069216165571),
        ),
        "stretch-width": (
            ("0.6", 7.76285030699833, 8.512148400895615, 7.664197140515651, 7.9797319494698655),
            ("0.8", 3.842250370448344, 3.967961624296752, 3.542721081736581, 3.784311025493892),
            ("1.0", 3.0790185216271006e-14, 6.866613759074862e-14,
             5.0922229396140515e-14, 5.012618406772005e-14),
            ("1.2", 3.3380839865539293, 3.097035994707877, 2.855245700678807, 3.0967885606468712),
            ("1.4", 6.558780691472662, 5.611459538067929, 5.1068266928035575, 5.759022307448049),
        ),
        "stretch-height": (
            ("0.6", 6.460780774252673, 8.09501840655863, 6.55977864780546, 7.038525942872254),
            ("0.8", 3.118608604735828, 4.082121914321482, 3.3782412578616277, 3.5263239256396464),
            ("1.0", 3.0790185216271006e-14, 6.866613759074862e-14,
             5.0922229396140515e-14, 5.012618406772005e-14),
            ("1.2", 3.0761342389886117, 4.101015445809259, 3.3305963640012064, 3.5025820162663592),
            ("1.4", 5.926243784987133, 7.890975497465086, 6.500558858326184, 6.7725927135928),
        ),
    }

    STUDIES = (
        run_subset_study,
        partial(run_jitter_study, subset_name="rigid-6"),
        partial(run_jitter_study, subset_name="all-68"),
        partial(run_stretch_study, axis="width"),
        partial(run_stretch_study, axis="height"),
    )

    def test_pinned_rows(self):
        results = [run(self.CONFIG) for run in self.STUDIES]
        assert [r.study for r in results] == list(self.PINNED)
        for result in results:
            expected = tuple(StudyRow(*values, 12, 0) for values in self.PINNED[result.study])
            assert result.rows == expected

    @pytest.mark.parametrize("cap, block", [(1, 64), (7 * 68, 64), (3300, 1), (3300, 5)])
    def test_csv_bytes_independent_of_batch_cap_and_trial_block(self, tmp_path, monkeypatch,
                                                                cap, block):
        # cap 1 solves one problem per stack, 7 * 68 points stack seven
        # all-68 problems; block 1 solves each trial on its own and block 5
        # splits the 12 trials 5 + 5 + 2.  The defaults (3300 points, 64
        # trials) are what test_pinned_rows runs.
        from poselab import harness, pnp

        def csv_bytes(name):
            out = []
            for i, run in enumerate(self.STUDIES):
                path = tmp_path / f"{name}-{i}.csv"
                emit_csv(run(self.CONFIG), path)
                out.append(path.read_bytes())
            return out

        assert (pnp.BATCH_POINTS, harness.TRIAL_BLOCK) == (3300, 64)
        default = csv_bytes("default")
        monkeypatch.setattr(pnp, "BATCH_POINTS", cap)
        monkeypatch.setattr(harness, "TRIAL_BLOCK", block)
        assert csv_bytes("capped") == default

    def test_exclusions(self, monkeypatch):
        # project raises on the first trial only; building the problem then
        # raises for the second label of every remaining trial.
        from poselab import harness

        real_project, real_problem = harness.project, harness.PnPProblem
        state = {"projections": 0, "problems": 0}

        def project(*args):
            state["projections"] += 1
            if state["projections"] == 1:
                raise BehindCameraError("trial 0 behind the camera")
            return real_project(*args)

        def problem(*args):
            state["problems"] += 1
            if state["problems"] % 2 == 0:
                raise DegenerateProblemError("second label")
            return real_problem(*args)

        monkeypatch.setattr("poselab.harness.project", project)
        monkeypatch.setattr("poselab.harness.PnPProblem", problem)
        config = StudyConfig(trials=3, subsets=("rigid-6", "all-68"),
                             jitter_sweep=(0.0, 2.0), stretch_sweep=(0.8, 1.0))
        for run in self.STUDIES:
            state.update(projections=0, problems=0)
            result = run(config)
            counts = [(r.trials, r.excluded) for r in result.rows]
            assert counts == [(2, 1), (0, 3)], result.study
            assert math.isfinite(result.rows[0].mae) and math.isnan(result.rows[1].mae)

    def test_behind_camera_start_excludes_that_label_only(self, monkeypatch):
        # The first problem of every solve_pnp_batch call starts behind the
        # camera.  Blocks of two trials make two calls over three trials:
        # trials 0 and 2 lose their first label, trial 1 keeps both.
        from poselab import harness

        real_batch = harness.solve_pnp_batch
        calls = []

        def batch(problems):
            solutions = real_batch(problems)
            calls.append(len(problems))
            solutions[0] = BehindCameraError("start behind the camera")
            return solutions

        monkeypatch.setattr(harness, "solve_pnp_batch", batch)
        monkeypatch.setattr(harness, "TRIAL_BLOCK", 2)
        config = StudyConfig(trials=3, subsets=("rigid-6", "all-68"),
                             jitter_sweep=(0.0, 2.0), stretch_sweep=(0.8, 1.0))
        for run in self.STUDIES:
            calls.clear()
            result = run(config)
            assert calls == [4, 2], result.study
            assert [(r.trials, r.excluded) for r in result.rows] == [(1, 2), (3, 0)], result.study


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

    @pytest.mark.parametrize(
        "run, overrides",
        [
            (run_lowres_study, {"lowres_schemes": ("none",), "lowres_factors": (1, 5)}),
            (run_alpha_ablation, {"alpha_sweep": (0.0, 2.0)}),
        ],
        ids=["lowres", "alpha"],
    )
    def test_diverged_scheme_marked(self, monkeypatch, run, overrides):
        def boom(*args, **kwargs):
            raise TrainingDivergedError("boom")

        monkeypatch.setattr("poselab.harness.train_toy", boom)
        result = run(StudyConfig(**overrides, **TINY_TRAIN))
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
