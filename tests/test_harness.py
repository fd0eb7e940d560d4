import math
import os
import re
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from poselab import harness
from poselab.camera import BehindCameraError, Pose, project
from poselab.facemodel import DuplicateIdError, ParseError, builtin_mean_face
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
from poselab.harness import _degrade_rows, _make_raster_augment
from poselab.multiloss import BinSpec, TrainingDivergedError, predict_angles, train_toy
from poselab.raster import SPLAT_BLOCK, augment_factor, degrade_values, rasterize
from poselab.pnp import DegenerateProblemError
from poselab.rotmath import EulerAngles, GimbalLockWarning

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
            {"epochs": -1},
            {"batch_size": 0},
            {"rigid_sigma": -0.1},
            {"jitter_sweep": ()},
            {"jitter_sweep": (-1.0,)},
            {"scenes": 1},
            {"val_fraction": 1.0},
            {"val_fraction": 0.0},
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
            {"stretch_sweep": ()},
            {"trials": 3.0},
            {"master_seed": -1},
            {"learning_rate": -1e-3},
            {"learning_rate": 0.0},
            {"learning_rate": math.nan},
            {"learning_rate": math.inf},
            {"trials": True},
            {"lowres_factors": (True,)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StudyConfig(**kwargs)

    def test_scene_constants_in_range(self):
        for bound in (harness.YAW_RANGE, harness.PITCH_RANGE, harness.ROLL_RANGE):
            assert 0.0 < bound < BinSpec().max_angle
        assert harness.RASTER_SIZE >= 1


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

    @pytest.mark.filterwarnings("error")
    def test_solve_left_at_zero_rotation_raises_no_warning(self):
        # At 1e300 px of jitter the solve never leaves the identity start,
        # whose zero rotation vector the Euler conversion then meets.
        result = run_jitter_study(StudyConfig(trials=1, jitter_sweep=(1e300,)), "rigid-6")
        assert result.rows[0].trials == 1 and math.isfinite(result.rows[0].mae)


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

    # (sweep, yaw, pitch, roll, mean) MAE per row, computed by _pnp_sweep
    # with the step test alone at STEP_TOLERANCE 1e-8, the rotation's left
    # Jacobian and Rodrigues' [r]x^2 built as r r^T - |r|^2 I.  Dropping
    # the cost and residual tests moved no-mouth-48 by 1.3e-7 degrees and
    # the four noiseless rows by about 1e-13; the values before that, at
    # STEP_TOLERANCE 1e-10, were at most 1.2e-7 degrees away.
    PINNED = {
        "subset": (
            ("rigid-6", 31.787628821321068, 11.505237253402697,
             7.080496733428816, 16.79112093605086),
            ("core-12", 12.649537731835517, 10.395518839586853,
             6.04598803290532, 9.69701486810923),
            ("no-mouth-48", 14.492895793276451, 10.464614928190349,
             5.924351613276009, 10.293954111580936),
            ("all-68", 31.345758882254657, 20.22020289628256,
             9.336636222623198, 20.300866000386804),
        ),
        "jitter-rigid-6": (
            ("0.0", 1.4755604145951413e-12, 1.5409201692406782e-13,
             2.030967986380953e-13, 6.109164100524348e-13),
            ("1.0", 0.7690626924126261, 0.45660268599807036,
             0.48279417231561794, 0.5694865169087715),
            ("2.0", 1.5445327028176525, 0.9028623596868011,
             0.9720359214423494, 1.1398103279822676),
            ("3.0", 2.3253487230056713, 1.3367433441238603,
             1.4681633389984097, 1.7100851353759803),
            ("4.0", 3.111140761859924, 1.755990257938018, 1.971860081128695, 2.279663700308879),
            ("5.0", 3.902367884437871, 2.1582713170677743, 2.484038618316905, 2.84822593994085),
            ("6.0", 4.700332193186163, 2.543544573579098, 3.0057908721088644, 3.4165558796247084),
            ("7.0", 5.507064480048499, 2.908886469559301, 3.5383345081039685, 3.9847618192372565),
            ("8.0", 6.325112181291181, 3.2511042987194307, 4.082972702211451, 4.553063060740687),
            ("9.0", 7.157235842260316, 3.5676339178917718, 4.641053374972722, 5.1219743783749365),
            ("10.0", 8.005992283701675, 3.8565197421068036, 5.213881957833094, 5.692131327880524),
        ),
        "jitter-all-68": (
            ("0.0", 1.1842378929335004e-14, 8.870219373828073e-15,
             1.1842378929335004e-14, 1.085165907749936e-14),
            ("1.0", 0.19267894517747428, 0.15733465454126078,
             0.1181305064448459, 0.1560480353878603),
            ("2.0", 0.38627007663687013, 0.3150489777126975,
             0.2369685918444008, 0.3127625487313228),
            ("3.0", 0.5807797337500157, 0.4731615149516369,
             0.356517244971472, 0.47015283122437485),
            ("4.0", 0.7762142771833199, 0.6316907045275142,
             0.47677969576297957, 0.6282282258246046),
            ("5.0", 0.9725801194089634, 0.7906549173984644,
             0.5977594689952319, 0.7869981686008866),
            ("6.0", 1.1698838277621075, 0.9500724634244935,
             0.7194603741152162, 0.9464722217672725),
            ("7.0", 1.3681320865888438, 1.1099616884314878,
             0.8418865463809494, 1.1066601071337605),
            ("8.0", 1.5673317304587069, 1.2703408923362465,
             0.9650425377314077, 1.2675717201754537),
            ("9.0", 1.7674897674925976, 1.4312284862972116, 1.0889332547252633, 1.429217169505024),
            ("10.0", 1.9686137363871232, 1.5926428588817794,
             1.2135641463471114, 1.5916069138720046),
        ),
        "stretch-width": (
            ("0.6", 7.762850419680375, 8.512148304934646, 7.664197121758623, 7.979731948791215),
            ("0.8", 3.8422503778493797, 3.9679616090967045, 3.542721089338981, 3.784311025428355),
            ("1.0", 5.921189464667502e-15, 7.976258542541359e-15,
             7.697546304067751e-15, 7.198331437092204e-15),
            ("1.2", 3.3380839784931537, 3.0970360501268996,
             2.8552457144972148, 3.0967885810390894),
            ("1.4", 6.558780718818934, 5.611459568371128, 5.106826708581192, 5.7590223319237515),
        ),
        "stretch-height": (
            ("0.6", 6.460780769216611, 8.09501842602415, 6.55977867776162, 7.038525957667461),
            ("0.8", 3.1186085957279475, 4.082121868492758, 3.3782412463248837, 3.526323903515196),
            ("1.0", 5.921189464667502e-15, 7.976258542541359e-15,
             7.697546304067751e-15, 7.198331437092204e-15),
            ("1.2", 3.0761342660156656, 4.10101542124496, 3.33059636158692, 3.502582016282515),
            ("1.4", 5.926243780399861, 7.890975454791639, 6.500558829685285, 6.772592688292261),
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

    def test_row_mean_adds_errors_in_trial_order(self):
        # A row's axis-0 sum of its (trials, 3) errors is bitwise the running
        # sum in trial order that the pinned rows were computed with.
        rng = np.random.default_rng(0)
        for trials in (1, 2, 3, 17, 64, 500, 4097):
            errors = rng.uniform(0.0, 30.0, (trials, 3)) * rng.uniform(0.0, 1.0, (trials, 1)) ** 4
            running = np.zeros(3)
            for error in errors:
                running += error
            row = harness._finish_row(1.0, errors, 2)
            assert (row.yaw_mae, row.pitch_mae, row.roll_mae) == tuple(running / trials)
            assert (row.sweep, row.trials, row.excluded) == ("1.0", trials, 2)

    @pytest.mark.parametrize("cap, block", [(1, 64), (7 * 68, 64), (3300, 1), (3300, 5)])
    def test_csv_bytes_independent_of_batch_cap_and_trial_block(self, tmp_path, monkeypatch,
                                                                cap, block):
        # cap 1 solves one problem per stack, 7 * 68 points stack seven
        # all-68 problems; block 1 solves each trial on its own and block 5
        # splits the 12 trials 5 + 5 + 2.  The defaults (6600 points, 64
        # trials) are what test_pinned_rows runs.
        from poselab import pnp

        def csv_bytes(name):
            out = []
            for i, run in enumerate(self.STUDIES):
                path = tmp_path / f"{name}-{i}.csv"
                emit_csv(run(self.CONFIG), path)
                out.append(path.read_bytes())
            return out

        assert (pnp.BATCH_POINTS, harness.TRIAL_BLOCK) == (6600, 64)
        default = csv_bytes("default")
        monkeypatch.setattr(pnp, "BATCH_POINTS", cap)
        monkeypatch.setattr(harness, "TRIAL_BLOCK", block)
        assert csv_bytes("capped") == default

    @pytest.mark.parametrize("block", [1, 2, 64])
    def test_exclusions(self, monkeypatch, block):
        # project raises on the first trial only; building the problem then
        # raises for the second label of every remaining trial, in blocks of
        # one, two or all three trials.
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
        monkeypatch.setattr(harness, "TRIAL_BLOCK", block)
        config = StudyConfig(trials=3, subsets=("rigid-6", "all-68"),
                             jitter_sweep=(0.0, 2.0), stretch_sweep=(0.8, 1.0))
        for run in self.STUDIES:
            state.update(projections=0, problems=0)
            result = run(config)
            counts = [(r.trials, r.excluded) for r in result.rows]
            assert counts == [(2, 1), (0, 3)], result.study
            assert math.isfinite(result.rows[0].mae) and math.isnan(result.rows[1].mae)

    def test_behind_camera_start_excludes_that_label_only(self, monkeypatch):
        # The first problem of every _solve_arrays call starts behind the
        # camera.  Blocks of two trials make two calls over three trials:
        # trials 0 and 2 lose their first label, trial 1 keeps both.
        from poselab import harness

        real_solve = harness._solve_arrays
        calls = []

        def solve(groups):
            x, rot, rmse, iterations, codes, behind = real_solve(groups)
            calls.append(len(x))
            behind[0] = True
            return x, rot, rmse, iterations, codes, behind

        monkeypatch.setattr(harness, "_solve_arrays", solve)
        monkeypatch.setattr(harness, "TRIAL_BLOCK", 2)
        config = StudyConfig(trials=3, subsets=("rigid-6", "all-68"),
                             jitter_sweep=(0.0, 2.0), stretch_sweep=(0.8, 1.0))
        for run in self.STUDIES:
            calls.clear()
            result = run(config)
            assert calls == [4, 2], result.study
            assert [(r.trials, r.excluded) for r in result.rows] == [(1, 2), (3, 0)], result.study

    def test_gimbal_lock_warns_through_study_path(self):
        # Every trial's landmarks come from a pose at pitch +90 degrees, so
        # each solution sits at the lock and its Euler conversion warns.
        face = builtin_mean_face()

        def trial(rng, pose):
            locked = Pose(EulerAngles(20.0, 90.0, 0.0), pose.translation)
            return {"all-68": project(face.points, locked, harness.CAMERA)}

        with pytest.warns(GimbalLockWarning):
            result = harness._pnp_sweep(StudyConfig(trials=2), "lock", face,
                                        {"all-68": face.points}, trial)
        assert (result.rows[0].trials, result.rows[0].excluded) == (2, 0)


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

    @pytest.mark.parametrize("scheme", ["fixed10", "uniform1to10", "set5"])
    def test_stacked_augment_matches_per_sample_loop(self, scheme):
        size = 16
        batch = np.random.default_rng(5).uniform(size=(40, size * size))
        want = np.empty_like(batch)
        want_rng = np.random.default_rng(11)
        for j, flat in enumerate(batch):
            factor = augment_factor(scheme, want_rng)
            want[j] = degrade_values(flat.reshape(size, size), factor).ravel()
        rng = np.random.default_rng(11)
        got = _make_raster_augment(scheme, size)(batch, rng)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("factor", [1, 5, 10, 15])
    def test_stacked_view_matches_per_row(self, factor):
        size = 16
        held_out = np.random.default_rng(6).uniform(size=(9, size * size))
        want = np.stack([degrade_values(flat.reshape(size, size), factor).ravel()
                         for flat in held_out])
        assert np.array_equal(_degrade_rows(held_out, size, [factor] * len(held_out)), want)

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


def test_trained_csv_bytes_independent_of_blas_threads(tmp_path):
    # The same trained rows with one and with two BLAS threads; only these
    # two counts are run, on purpose.
    script = (
        "import sys\n"
        "from poselab.harness import StudyConfig, emit_csv, run_alpha_ablation, run_lowres_study\n"
        "config = StudyConfig(scenes=300, epochs=3, master_seed=0,\n"
        "                     lowres_schemes=('none', 'uniform1to10'), lowres_factors=(1, 10, 15),\n"
        "                     alpha_sweep=(0.0, 2.0))\n"
        "emit_csv(run_lowres_study(config), sys.argv[1] + '/lowres.csv')\n"
        "emit_csv(run_alpha_ablation(config), sys.argv[1] + '/alpha.csv')\n"
    )
    src = Path(harness.__file__).resolve().parents[1]
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True, timeout=300)
        csvs.append([(out / name).read_bytes() for name in ("lowres.csv", "alpha.csv")])
    assert csvs[0] == csvs[1]


class TestAlphaAblation:
    def test_rows_and_determinism(self):
        cfg = StudyConfig(alpha_sweep=(0.0, 2.0), **TINY_TRAIN)
        a = run_alpha_ablation(cfg)
        b = run_alpha_ablation(cfg)
        assert a == b
        assert a.study == "alpha"
        assert [r.sweep for r in a.rows] == ["0.0", "2.0"]
        assert all(math.isfinite(r.mae) for r in a.rows)

    def test_runs_share_training_rows_and_release_each_net(self, monkeypatch):
        # Every run trains on the same rows, not on a copy of its own, and
        # no net outlives its scoring into the next run's training.
        trained_on, nets, alive_at_start = [], [], []

        def spy(inputs, *args, **kwargs):
            alive_at_start.append([ref() is not None for ref in nets])
            trained_on.append(inputs)
            net, history = train_toy(inputs, *args, **kwargs)
            nets.append(weakref.ref(net))
            return net, history

        monkeypatch.setattr(harness, "train_toy", spy)
        run_alpha_ablation(StudyConfig(alpha_sweep=(0.0, 2.0), **TINY_TRAIN))
        assert len(trained_on) == 2
        assert np.shares_memory(trained_on[0], trained_on[1])
        assert alive_at_start[1] == [False]


class TestLandmarkDataset:
    def test_shapes_and_ranges(self):
        cfg = StudyConfig(scenes=12)
        inputs, targets = landmark_dataset(cfg)
        assert inputs.shape == (12, 136)
        assert targets.shape == (12, 3)
        assert np.max(np.abs(targets[:, 0])) <= harness.YAW_RANGE
        assert np.max(np.abs(targets[:, 1])) <= harness.PITCH_RANGE
        assert np.max(np.abs(targets[:, 2])) <= harness.ROLL_RANGE

    def test_features_normalized(self):
        inputs, _ = landmark_dataset(StudyConfig(scenes=5))
        pts = inputs[0].reshape(68, 2)
        assert np.max(np.abs(pts.mean(axis=0))) < 1e-9
        rms = math.sqrt(float(np.mean(np.sum(pts ** 2, axis=1))))
        assert rms == pytest.approx(1.0)


def per_scene_dataset(config, features):
    """(inputs, targets) built one scene at a time: project, then features."""
    model = builtin_mean_face()
    inputs, targets = [], []
    for _, pose in harness._scenes(config, model, config.scenes):
        inputs.append(features(project(model.points, pose, harness.CAMERA)))
        targets.append(pose.rotation.as_array())
    return np.array(inputs), np.array(targets)


def normalized_landmarks(points):
    centered = points - points.mean(axis=0)
    return (centered / math.sqrt(float(np.mean(np.sum(centered ** 2, axis=1))))).ravel()


class TestStackedSceneDataset:
    # More scenes than one splat block, so the stack is split.
    CONFIG = StudyConfig(scenes=2 * SPLAT_BLOCK + 3, master_seed=4)

    def test_landmark_dataset_matches_per_scene(self):
        got = landmark_dataset(self.CONFIG)
        want = per_scene_dataset(self.CONFIG, normalized_landmarks)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_lowres_inputs_match_per_scene_rasters(self, monkeypatch):
        # What the net trains on and which held-out rows it is scored on,
        # against per-scene rasters put in split order, training scenes first.
        config = replace(self.CONFIG, epochs=0, lowres_schemes=("none",), lowres_factors=(1, 5))
        trained, scored = [], []

        def train_spy(inputs, targets, **kwargs):
            trained.append((inputs, targets))
            return train_toy(inputs, targets, **kwargs)

        def predict_spy(net, inputs):
            scored.append(inputs)
            return predict_angles(net, inputs)

        monkeypatch.setattr(harness, "train_toy", train_spy)
        monkeypatch.setattr(harness, "predict_angles", predict_spy)
        run_lowres_study(config)
        size = harness.RASTER_SIZE
        scale = np.array([size / harness.IMAGE_WIDTH, size / harness.IMAGE_HEIGHT])
        inputs, targets = per_scene_dataset(
            config, lambda points: rasterize(points * scale, size, size).values.ravel())
        train_idx, val_idx = harness._train_val_split(config, config.scenes)
        [(train_inputs, train_targets)] = trained
        assert np.array_equal(train_inputs, inputs[train_idx])
        assert np.array_equal(train_targets, targets[train_idx])
        held_out = inputs[val_idx]
        assert len(scored) == 2
        assert np.array_equal(scored[0], held_out)
        assert np.array_equal(scored[1], _degrade_rows(held_out, size, [5] * len(held_out)))


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

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text(CSV_HEADER + "\na,1.0,2.0,3.0,2.0,5\n\n  \nb,2.0,3.0,4.0,3.0,6\n\n")
        rows = read_study_csv(path).rows
        assert rows == (StudyRow("a", 1.0, 2.0, 3.0, 2.0, 5), StudyRow("b", 2.0, 3.0, 4.0, 3.0, 6))

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_study_csv(tmp_path / "nope.csv")


@pytest.mark.parametrize("emit, kind", [(emit_csv, "CSV"), (emit_svg, "SVG")])
def test_unwritable_path_is_named(tmp_path, emit, kind):
    path = tmp_path / "missing" / "out.txt"
    result = StudyResult("x", (StudyRow("a", 1.0, 1.0, 1.0, 1.0, 1),))
    with pytest.raises(OSError, match=f"^cannot write {kind} to {re.escape(str(path))}: "):
        emit(result, path)
    assert not path.parent.exists()


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

    def test_all_zero_maes_keep_a_unit_axis(self, tmp_path):
        # A noiseless row can be exactly 0 at every angle; the axis then
        # tops out at 1 rather than dividing by zero.
        rows = (StudyRow("a", 0.0, 0.0, 0.0, 0.0, 5), StudyRow("b", 0.0, 0.0, 0.0, 0.0, 5))
        path = tmp_path / "zero.svg"
        emit_svg(StudyResult("zero", rows), path)
        root = ET.fromstring(path.read_text())
        ns = {"s": "http://www.w3.org/2000/svg"}
        assert "1" in [t.text for t in root.findall("s:text", ns)]
        for poly in root.findall("s:polyline", ns):
            assert poly.attrib["points"] == "60.00,350.00 510.00,350.00"

    def test_escapes_markup(self, tmp_path):
        rows = (StudyRow("a<b&c>d", 1.0, 1.0, 1.0, 1.0, 1),)
        path = tmp_path / "esc.svg"
        emit_svg(StudyResult("x<y&z", rows), path)
        text = path.read_text()
        assert "x&lt;y&amp;z MAE" in text and ">a&lt;b&amp;c&gt;d<" in text
        root = ET.fromstring(text)
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert "x<y&z MAE (deg)" in labels and "a<b&c>d" in labels


class TestLoadLandmarks:
    def test_parses_with_comments(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_text("# header\n1 10.0 20.0\n2 30.5 40.25  # inline\n\n68 1 2\n")
        ids, pts = load_landmarks(path)
        assert ids.tolist() == [1, 2, 68]
        assert pts.shape == (3, 2)
        assert pts[1].tolist() == [30.5, 40.25]

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "lm.txt"
        path.write_bytes(b"\xef\xbb\xbf1 100 200\n2 30.5 40.25  # caf\xc3\xa9\n")
        ids, pts = load_landmarks(path)
        assert ids.tolist() == [1, 2]
        assert pts.tolist() == [[100.0, 200.0], [30.5, 40.25]]

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
