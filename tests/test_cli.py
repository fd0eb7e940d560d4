import argparse

import numpy as np
import pytest

from poselab import cli, pnp
from poselab.camera import Pose, default_intrinsics, project
from poselab.cli import main
from poselab.facemodel import builtin_mean_face, save_face_model
from poselab.harness import CSV_HEADER, read_study_csv
from poselab.multiloss import load_toynet
from poselab.rotmath import EulerAngles, angle_error


def write_landmark_file(path, angles=(20.0, -10.0, 5.0), translation=(0.0, 0.0, 5.0)):
    model = builtin_mean_face()
    pose = Pose(EulerAngles(*angles), np.array(translation))
    uv = project(model.points, pose, default_intrinsics(450, 450))
    lines = [f"{i + 1} {float(u)!r} {float(v)!r}" for i, (u, v) in enumerate(uv)]
    path.write_text("\n".join(lines) + "\n")
    return pose


class TestStudySubset:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        out = tmp_path / "subset.csv"
        svg = tmp_path / "subset.svg"
        code = main([
            "study-subset", "--trials", "3", "--seed", "1",
            "--nonrigid-sigma", "0.0", "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER
        assert svg.read_text().startswith("<svg")
        printed = capsys.readouterr().out
        assert "rigid-6" in printed and str(out) in printed

    def test_subset_selection(self, tmp_path):
        out = tmp_path / "subset.csv"
        code = main([
            "study-subset", "--trials", "2", "--subsets", "rigid-6,all-68",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_study_csv(out).rows
        assert [r.sweep for r in rows] == ["rigid-6", "all-68"]

    def test_bad_subset_exits_nonzero(self, tmp_path, capsys):
        code = main([
            "study-subset", "--trials", "2", "--subsets", "nope",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, field", [("--rigid-sigma", "nan", "rigid_sigma"),
                                                      ("--nonrigid-sigma", "inf", "nonrigid_sigma")])
    def test_non_finite_sigma_names_field(self, tmp_path, capsys, option, value, field):
        out = tmp_path / "x.csv"
        code = main(["study-subset", "--trials", "1", option, value, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and field in err
        assert not out.exists()


    def test_negative_seed_names_field(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["study-subset", "--trials", "1", "--seed", "-1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "master_seed" in err
        assert not out.exists()


class TestStudyJitter:
    def test_single_subset_single_file(self, tmp_path):
        out = tmp_path / "jitter.csv"
        code = main([
            "study-jitter", "--trials", "2", "--sweep", "0,2",
            "--out", str(out),
        ])
        assert code == 0
        rows = read_study_csv(out).rows
        assert [r.sweep for r in rows] == ["0.0", "2.0"]

    def test_multiple_subsets_suffixed_files(self, tmp_path):
        out = tmp_path / "jitter.csv"
        code = main([
            "study-jitter", "--trials", "2", "--sweep", "0,1",
            "--subset", "all-68", "--subset", "rigid-6", "--out", str(out),
        ])
        assert code == 0
        assert not out.exists()
        assert (tmp_path / "jitter.all-68.csv").exists()
        assert (tmp_path / "jitter.rigid-6.csv").exists()

    @pytest.mark.parametrize("sweep", ["0,nan", "0,inf"])
    def test_non_finite_magnitude_fails_cleanly(self, tmp_path, capsys, sweep):
        out = tmp_path / "x.csv"
        code = main(["study-jitter", "--trials", "1", "--sweep", sweep, "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subsets", [["rigid-6", "bogus"], ["rigid-6", "rigid-6"]])
    def test_bad_or_repeated_subset_writes_nothing(self, tmp_path, capsys, subsets):
        argv = ["study-jitter", "--trials", "1", "--sweep", "0"]
        for name in subsets:
            argv += ["--subset", name]
        code = main([*argv, "--out", str(tmp_path / "j.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_subset_does_not_carry_over(self, tmp_path, monkeypatch):
        run = cli.run_jitter_study
        seen = []

        def recording(config, subset):
            seen.append(subset)
            return run(config, subset)

        monkeypatch.setattr(cli, "run_jitter_study", recording)
        argv = ["study-jitter", "--trials", "1", "--sweep", "0", "--out", str(tmp_path / "j.csv")]
        assert main([*argv, "--subset", "rigid-6", "--subset", "core-12"]) == 0
        assert main(argv) == 0
        assert seen == ["rigid-6", "core-12", "all-68"]
        assert (tmp_path / "j.csv").exists()


class TestStudyStretch:
    def test_both_axes_default(self, tmp_path):
        out = tmp_path / "stretch.csv"
        code = main([
            "study-stretch", "--trials", "2", "--sweep", "0.8,1.0,1.2",
            "--out", str(out),
        ])
        assert code == 0
        for axis in ("width", "height"):
            rows = read_study_csv(tmp_path / f"stretch.{axis}.csv").rows
            assert [r.sweep for r in rows] == ["0.8", "1.0", "1.2"]

    def test_single_axis_plain_name(self, tmp_path):
        out = tmp_path / "stretch.csv"
        code = main([
            "study-stretch", "--trials", "2", "--sweep", "1.0",
            "--axis", "width", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()

    def test_out_of_range_scale_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "study-stretch", "--trials", "2", "--sweep", "0.4",
            "--axis", "width", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestStudyLowres:
    def test_tiny_run(self, tmp_path):
        out = tmp_path / "lowres.csv"
        code = main([
            "study-lowres", "--scenes", "50", "--epochs", "1", "--hidden", "8",
            "--schemes", "none", "--factors", "1,5", "--out", str(out),
        ])
        assert code == 0
        rows = read_study_csv(out).rows
        assert [r.sweep for r in rows] == ["none@x1", "none@x5"]

    def test_unknown_scheme_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "study-lowres", "--scenes", "50", "--epochs", "1", "--hidden", "8",
            "--schemes", "blur", "--factors", "1", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAblateAlpha:
    def test_tiny_run(self, tmp_path):
        out = tmp_path / "alpha.csv"
        code = main([
            "ablate-alpha", "--scenes", "50", "--epochs", "1", "--hidden", "8",
            "--sweep", "0,2", "--out", str(out),
        ])
        assert code == 0
        rows = read_study_csv(out).rows
        assert [r.sweep for r in rows] == ["0.0", "2.0"]


@pytest.mark.parametrize("argv", [
    ["study-subset", "--subsets", "rigid-6,all-68,rigid-6"],
    ["study-jitter", "--sweep", "1,1.0"],
])
def test_repeated_sweep_values_rejected(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    code = main([*argv, "--trials", "2", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


class _Stop(Exception):
    """Raised by a stand-in once it has seen the command's StudyConfig."""


# Each command's options, every one with a distinct value, and the
# StudyConfig fields they must set.  train-toy hands its config to
# landmark_dataset; the studies hand theirs to run_*.
OPTION_CASES = [
    ("run_subset_study",
     ["study-subset", "--trials", "11", "--seed", "12", "--subsets", "core-12,rigid-6",
      "--rigid-sigma", "0.18", "--nonrigid-sigma", "0.19"],
     {"trials": 11, "master_seed": 12, "subsets": ("core-12", "rigid-6"),
      "rigid_sigma": 0.18, "nonrigid_sigma": 0.19}),
    ("run_jitter_study",
     ["study-jitter", "--trials", "11", "--seed", "12", "--sweep", "0.5,2.5",
      "--subset", "rigid-6"],
     {"trials": 11, "master_seed": 12, "jitter_sweep": (0.5, 2.5)}),
    ("run_stretch_study",
     ["study-stretch", "--trials", "11", "--seed", "12", "--sweep", "0.7,0.9",
      "--axis", "height"],
     {"trials": 11, "master_seed": 12, "stretch_sweep": (0.7, 0.9)}),
    ("run_lowres_study",
     ["study-lowres", "--seed", "12", "--scenes", "13", "--epochs", "14", "--hidden", "15",
      "--schemes", "fixed10,set5", "--factors", "2,3"],
     {"master_seed": 12, "scenes": 13, "epochs": 14, "hidden_size": 15,
      "lowres_schemes": ("fixed10", "set5"), "lowres_factors": (2, 3)}),
    ("run_alpha_ablation",
     ["ablate-alpha", "--seed", "12", "--sweep", "0.25,3", "--scenes", "13", "--epochs", "14",
      "--hidden", "15"],
     {"master_seed": 12, "alpha_sweep": (0.25, 3.0), "scenes": 13, "epochs": 14,
      "hidden_size": 15}),
    ("landmark_dataset",
     ["train-toy", "--scenes", "13", "--epochs", "14", "--hidden", "15", "--batch-size", "16",
      "--lr", "0.017", "--alpha", "1.5", "--seed", "12"],
     {"scenes": 13, "epochs": 14, "hidden_size": 15, "batch_size": 16,
      "learning_rate": 0.017, "master_seed": 12}),
]


@pytest.mark.parametrize("stand_in_for, argv, expected", OPTION_CASES,
                         ids=[argv[0] for _, argv, _ in OPTION_CASES])
def test_options_set_study_config_fields(tmp_path, monkeypatch, stand_in_for, argv, expected):
    seen = []

    def stand_in(config, *_):
        seen.append(config)
        raise _Stop

    monkeypatch.setattr(cli, stand_in_for, stand_in)
    out = tmp_path / "x.csv"
    with pytest.raises(_Stop):
        main([*argv, "--out", str(out)])
    (config,) = seen
    assert {name: getattr(config, name) for name in expected} == expected
    assert not out.exists()


@pytest.mark.parametrize("command", ["study-lowres", "ablate-alpha"])
def test_trained_net_studies_reject_trials(tmp_path, capsys, command):
    # Trained-net studies size their data with --scenes; --trials would be ignored.
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main([command, "--trials", "7", "--out", str(out)])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


class TestSolvePnP:
    def test_recovers_pose_from_file(self, tmp_path, capsys):
        lm = tmp_path / "landmarks.txt"
        truth = write_landmark_file(lm, angles=(20.0, -10.0, 5.0))
        code = main(["solve-pnp", "--landmarks", str(lm)])
        assert code == 0
        out = capsys.readouterr().out
        lines = {l.split()[0]: l for l in out.splitlines()}
        yaw = float(lines["yaw"].split()[1])
        assert angle_error(yaw, truth.rotation.yaw) < 1e-5
        assert "converged True" in lines["rmse"]
        reason = lines["rmse"].rsplit("(", 1)[1].rstrip(")")
        assert reason in pnp.CONVERGED

    def test_explicit_model_file(self, tmp_path, capsys):
        model_path = tmp_path / "face.txt"
        save_face_model(builtin_mean_face(), model_path)
        lm = tmp_path / "landmarks.txt"
        write_landmark_file(lm)
        code = main(["solve-pnp", "--landmarks", str(lm), "--model", str(model_path)])
        assert code == 0
        assert "yaw" in capsys.readouterr().out

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["solve-pnp", "--landmarks", str(tmp_path / "nope.txt")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value", [("--image-height", "nan"),
                                               ("--image-height", "inf"),
                                               ("--image-width", "inf")])
    def test_non_finite_image_size_fails_cleanly(self, tmp_path, capsys, option, value):
        lm = tmp_path / "landmarks.txt"
        write_landmark_file(lm)
        code = main(["solve-pnp", "--landmarks", str(lm), option, value])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_repeated_call_prints_same_bytes(self, tmp_path, capsys):
        lm = tmp_path / "landmarks.txt"
        write_landmark_file(lm)
        printed = []
        for _ in range(2):
            assert main(["solve-pnp", "--landmarks", str(lm)]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_later_calls_build_no_parser(self, tmp_path, monkeypatch):
        lm = tmp_path / "landmarks.txt"
        write_landmark_file(lm)
        argv = ["solve-pnp", "--landmarks", str(lm)]
        assert main(argv) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(argv) == 0
        assert main(["study-jitter", "--trials", "1", "--sweep", "0",
                     "--out", str(tmp_path / "j.csv")]) == 0
        assert built == []

    def test_too_few_landmarks(self, tmp_path, capsys):
        lm = tmp_path / "landmarks.txt"
        lm.write_text("1 10 10\n2 20 20\n3 30 30\n")
        code = main(["solve-pnp", "--landmarks", str(lm)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestTrainToy:
    def test_writes_loadable_model(self, tmp_path, capsys):
        out = tmp_path / "net.txt"
        code = main([
            "train-toy", "--scenes", "60", "--epochs", "1", "--hidden", "8",
            "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        net = load_toynet(out)
        assert net.input_dim == 136
        printed = capsys.readouterr().out
        assert "final val MAE" in printed and str(out) in printed
