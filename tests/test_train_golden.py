"""Trained outputs pinned bitwise to recorded values.

test_harness.py pins trained study rows only to 1e-9.  These compare a
train-toy CLI run (its printed lines and the sha256 of the model file it
writes) and the CSV bytes of a small low-resolution study, augmented
schemes included, with golden values in train_golden.json.
"""

import hashlib
import json
from pathlib import Path

from poselab.cli import main
from poselab.harness import StudyConfig, emit_csv, run_lowres_study

GOLDEN = json.loads((Path(__file__).with_name("train_golden.json")).read_text())


def train_toy_record(tmp_path, capsys) -> dict:
    model = tmp_path / "model.txt"
    assert main(["train-toy", "--out", str(model), "--scenes", "120", "--epochs", "3",
                 "--hidden", "16"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"wrote {model}"
    return {"stdout": lines[:-1], "model_sha256": hashlib.sha256(model.read_bytes()).hexdigest()}


def lowres_csv(tmp_path) -> str:
    config = StudyConfig(scenes=60, epochs=2, hidden_size=8,
                         lowres_schemes=("none", "uniform1to10"), lowres_factors=(1, 5))
    path = tmp_path / "lowres.csv"
    emit_csv(run_lowres_study(config), path)
    return path.read_bytes().decode()


def test_train_toy_cli_matches_golden(tmp_path, capsys):
    assert train_toy_record(tmp_path, capsys) == GOLDEN["train_toy"]


def test_lowres_csv_matches_golden(tmp_path):
    assert lowres_csv(tmp_path) == GOLDEN["lowres_csv"]
