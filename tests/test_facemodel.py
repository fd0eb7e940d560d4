import math

import numpy as np
import pytest

from poselab import facemodel
from poselab.facemodel import (
    MOUTH_JAW_IDS,
    DuplicateIdError,
    FaceModel,
    KeypointSubset,
    ParseError,
    ScaleOutOfRangeError,
    WrongCountError,
    builtin_mean_face,
    deform_subject,
    jitter_landmarks,
    load_face_model,
    named_subsets,
    save_face_model,
    stretch_model,
    subset_by_name,
)
from poselab.harness import load_landmarks

# 0-based row pairs that mirror across the x = 0 plane
MIRROR_PAIRS = (
    [(j, 16 - j) for j in range(8)]
    + [(17 + j, 26 - j) for j in range(5)]
    + [(31, 35), (32, 34)]
    + [(36, 45), (37, 44), (38, 43), (39, 42), (40, 47), (41, 46)]
    + [(48 + j, 48 + (6 - j) % 12) for j in range(12)]
    + [(60 + j, 60 + (4 - j) % 8) for j in range(8)]
)
MIDLINE_ROWS = (8, 27, 28, 29, 30, 33, 51, 57, 62, 66)


class TestFaceModel:
    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            FaceModel(np.zeros((67, 3)))
        bad = builtin_mean_face().points
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            FaceModel(bad)

    def test_points_copied(self):
        src = builtin_mean_face().points
        model = FaceModel(src)
        src[0, 0] = 123.0
        assert model.points[0, 0] != 123.0


class TestBuiltinMeanFace:
    def test_centered(self):
        assert np.max(np.abs(builtin_mean_face().centroid())) < 1e-12

    def test_bounding_radius(self):
        r = builtin_mean_face().bounding_radius()
        assert 0.5 < r < 2.0

    def test_points_distinct(self):
        pts = builtin_mean_face().points
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        d[np.diag_indices(68)] = np.inf
        assert d.min() > 1e-3

    def test_full_rank(self):
        pts = builtin_mean_face().points
        assert np.linalg.matrix_rank(pts, tol=1e-6) == 3

    def test_left_right_symmetry(self):
        pts = builtin_mean_face().points
        for a, b in MIRROR_PAIRS:
            assert np.allclose(pts[a], pts[b] * np.array([-1.0, 1.0, 1.0]), atol=1e-12)
        for row in MIDLINE_ROWS:
            assert abs(pts[row, 0]) < 1e-12

    def test_each_call_gets_a_fresh_copy(self):
        builtin_mean_face().points[:] = 7.0
        pts = builtin_mean_face().points
        assert pts.flags.writeable
        assert pts.tobytes() == facemodel._procedural_mean_face().tobytes()

    def test_chin_below_brows(self):
        # +y is down in image space, so the chin has larger y than the brows
        pts = builtin_mean_face().points
        assert pts[8, 1] > pts[17:27, 1].max() + 0.5


class TestSaveLoad:
    def test_round_trip_near_exact(self, tmp_path):
        # %.17g reproduces every float; the reload only re-recenters
        path = tmp_path / "face.txt"
        model = builtin_mean_face()
        save_face_model(model, path)
        back = load_face_model(path)
        assert np.max(np.abs(back.points - model.points)) < 1e-12

    def test_load_recenters(self, tmp_path):
        path = tmp_path / "face.txt"
        pts = builtin_mean_face().points + np.array([1.0, -2.0, 3.0])
        lines = [f"{i + 1} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for i, p in enumerate(pts)]
        path.write_text("\n".join(lines) + "\n")
        assert np.max(np.abs(load_face_model(path).centroid())) < 1e-9

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "face.txt"
        save_face_model(builtin_mean_face(), path)
        text = "# leading comment\n\n" + path.read_text()
        path.write_text(text)
        load_face_model(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        plain, marked = tmp_path / "face.txt", tmp_path / "marked.txt"
        save_face_model(builtin_mean_face(), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert np.array_equal(load_face_model(marked).points, load_face_model(plain).points)

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "face.txt"
        path.write_bytes(b"\xef\xbb\xbf1 0.0 0.0 0.0\n2 a b c\n")
        with pytest.raises(ParseError) as exc:
            load_face_model(path)
        assert exc.value.line_number == 2
        assert str(exc.value) == f"{path}:2: coordinates must be decimal numbers"

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_face_model(tmp_path / "nope.txt")

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "face.txt"
        pts = builtin_mean_face().points
        lines = [f"{i + 1} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for i, p in enumerate(pts[:67])]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WrongCountError):
            load_face_model(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "face.txt"
        pts = builtin_mean_face().points
        lines = [f"{i + 1} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for i, p in enumerate(pts)]
        lines[5] = lines[4]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DuplicateIdError):
            load_face_model(path)

    @pytest.mark.parametrize(
        "bad_line",
        ["1 0.0 0.0", "1 a b c", "0 0.0 0.0 0.0", "69 0.0 0.0 0.0", "1 nan 0.0 0.0"],
    )
    def test_parse_errors_carry_line_number(self, tmp_path, bad_line):
        path = tmp_path / "face.txt"
        pts = builtin_mean_face().points
        lines = ["# header"] + [f"{i + 1} {float(p[0])!r} {float(p[1])!r} {float(p[2])!r}" for i, p in enumerate(pts)]
        lines[3] = bad_line
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_face_model(path)
        assert exc.value.line_number == 4
        assert "4" in str(exc.value)


class TestFirstFaultWins:
    """A file with several faults reports its earliest faulty line, with that
    line's first failing check in the order field count, integer id, id
    range, numbers, finite, duplicate."""

    @pytest.mark.parametrize("text, error, message", [
        ("1 1 2\n2 3 4\n3 a 5\n4 1 2\n5 6\n", ParseError,
         ":3: coordinates must be decimal numbers"),
        ("1 1 2\n1 3 4\n3 1 2\n4 nan 2\n", DuplicateIdError,
         ":2: duplicate landmark id 1"),
        ("1 1 2\n2 3 4\n# note\n69 inf 7\n5 1 2\n0 1 2\n", ParseError,
         ":4: landmark id 69 outside 1..68"),
        ("1 1 2\n5.0 3\n3 1 2\nx 1 2\n", ParseError,
         ":2: expected 3 fields 'id u v', got 2"),
    ])
    def test_earliest_line_reported(self, tmp_path, text, error, message):
        path = tmp_path / "lm.txt"
        path.write_text(text)
        with pytest.raises(error) as exc:
            load_landmarks(path)
        assert str(exc.value) == f"{path}{message}"


# Characters str.splitlines breaks a line at besides the newline; in a
# landmark file they are whitespace inside a record or a comment.
NON_NEWLINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestRecordsEndAtNewline:
    @pytest.mark.parametrize("sep", NON_NEWLINE_BREAKS)
    def test_landmarks(self, tmp_path, sep):
        path = tmp_path / "lm.txt"
        path.write_bytes(f"1 10 20\n2 30{sep}40  # note{sep}more\n3 1 2\n4 1 2\n".encode())
        ids, pts = load_landmarks(path)
        assert ids.tolist() == [1, 2, 3, 4]
        assert pts.tolist() == [[10.0, 20.0], [30.0, 40.0], [1.0, 2.0], [1.0, 2.0]]
        path.write_bytes(f"1 10 20\n# note{sep}more\n3 1\n".encode())
        with pytest.raises(ParseError, match=r":3: expected 3 fields"):
            load_landmarks(path)

    @pytest.mark.parametrize("sep", NON_NEWLINE_BREAKS)
    def test_face_model(self, tmp_path, sep):
        plain, marked = tmp_path / "face.txt", tmp_path / "marked.txt"
        save_face_model(builtin_mean_face(), plain)
        lines = plain.read_text().split("\n")
        lines[0] += f" {sep} more"
        lines[5] = lines[5].replace(" ", sep, 1)
        marked.write_bytes("\n".join(lines).encode())
        assert np.array_equal(load_face_model(marked).points, load_face_model(plain).points)


def reference_parse(text: str, fields: str) -> tuple:
    """The per-line rule _parse_id_lines first stated, one dict entry per
    record, kept as the reference for the array parser."""
    width = len(fields.split())
    records = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != width:
            raise ParseError("f", lineno, f"expected {width} fields '{fields}', got {len(parts)}")
        try:
            landmark_id = int(parts[0])
        except ValueError:
            raise ParseError("f", lineno, f"landmark id {parts[0]!r} is not an integer") from None
        if not 1 <= landmark_id <= 68:
            raise ParseError("f", lineno, f"landmark id {landmark_id} outside 1..68")
        try:
            coords = list(map(float, parts[1:]))
        except ValueError:
            raise ParseError("f", lineno, "coordinates must be decimal numbers") from None
        if not all(map(math.isfinite, coords)):
            raise ParseError("f", lineno, "coordinates must be finite")
        if landmark_id in records:
            raise DuplicateIdError(f"f:{lineno}: duplicate landmark id {landmark_id}")
        records[landmark_id] = coords
    coords = np.array(list(records.values()), dtype=float).reshape(-1, width - 1)
    return np.array(list(records), dtype=int), coords


def random_id_file(rng, width: int) -> str:
    """A valid file of 'id' plus width - 1 coordinates: shuffled ids, comments,
    blank lines, tabs, signs and exponents."""
    ids = rng.permutation(np.arange(1, 69))[:rng.integers(0, 69)]
    forms = ("{!r}", "{:+.3f}", "{:.6e}", "{:+g}", "{:.0f}", "{:E}")
    lines = []
    for landmark_id in ids.tolist():
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "   ", "# comment", "\t# indented comment"]))
        values = rng.normal(0.0, 10.0 ** rng.integers(-3, 4), width - 1) * (rng.random() < 0.95)
        fields = [f"{'+' if rng.random() < 0.1 else ''}{landmark_id}"]
        fields += [rng.choice(forms).format(float(v)) for v in values]
        line = "".join(f + rng.choice([" ", "  ", "\t", " \t"]) for f in fields)
        if rng.random() < 0.2:
            line = rng.choice([" ", "\t"]) + line + "# note 1 2 3"
        lines.append(line.rstrip() if rng.random() < 0.5 else line)
    return "\n".join(lines) + rng.choice(["", "\n"])


class TestParseIdLinesParity:
    @pytest.mark.parametrize("fields", ["id u v", "id x y z"])
    def test_valid_files_match_reference(self, tmp_path, fields):
        rng = np.random.default_rng(7)
        path = tmp_path / "ids.txt"
        for _ in range(100):
            text = random_id_file(rng, len(fields.split()))
            data = text.replace("\n", "\r\n" if rng.random() < 0.3 else "\n").encode()
            path.write_bytes(b"\xef\xbb\xbf" + data if rng.random() < 0.3 else data)
            want = reference_parse(text, fields)
            got = facemodel._parse_id_lines(path, fields)
            for g, w in zip(got, want, strict=True):
                assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())

    def test_faulty_files_raise_as_reference(self, tmp_path):
        # One or two faulty records dropped into a valid file: the array
        # parser reports the reference's first fault, type and message.
        faults = ("5 1", "5 1 2 3", "x 1 2", "1.0 1 2", "0 1 2", "69 1 2", "-3 1 2",
                  "99999999999999999999 1 2", "5 a 2", "5 1 0x10", "5 nan 2", "5 1 -inf",
                  "5 1e999 2")
        rng = np.random.default_rng(11)
        path = tmp_path / "lm.txt"
        for _ in range(100):
            lines = random_id_file(rng, 3).split("\n")
            records = [line for line in lines if line.split("#", 1)[0].split()]
            for _ in range(rng.integers(1, 3)):
                # A copy of a record is a duplicate id.
                bad = rng.choice(records) if records and rng.random() < 0.3 else rng.choice(faults)
                lines.insert(rng.integers(0, len(lines) + 1), bad)
            text = "\n".join(lines)
            path.write_text(text)
            with pytest.raises(ValueError) as want:
                reference_parse(text, "id u v")
            with pytest.raises(type(want.value)) as got:
                load_landmarks(path)
            assert str(got.value) == str(want.value).replace("f:", f"{path}:", 1)


class TestStretch:
    def test_identity(self):
        model = builtin_mean_face()
        out = stretch_model(model, 1.0, 1.0)
        assert np.allclose(out.points, model.points, atol=1e-12)

    def test_scales_x_y_leaves_z(self):
        model = builtin_mean_face()
        out = stretch_model(model, 1.4, 0.8)
        assert np.allclose(out.points[:, 0], model.points[:, 0] * 1.4, atol=1e-12)
        assert np.allclose(out.points[:, 1], model.points[:, 1] * 0.8, atol=1e-12)
        assert np.allclose(out.points[:, 2], model.points[:, 2], atol=1e-12)

    def test_result_centered(self):
        out = stretch_model(builtin_mean_face(), 2.0, 0.5)
        assert np.max(np.abs(out.centroid())) < 1e-12

    @pytest.mark.parametrize("sx,sy", [(0.49, 1.0), (2.01, 1.0), (1.0, 0.0), (1.0, 3.0)])
    def test_out_of_range(self, sx, sy):
        with pytest.raises(ScaleOutOfRangeError):
            stretch_model(builtin_mean_face(), sx, sy)

    def test_bounds_inclusive(self):
        stretch_model(builtin_mean_face(), 0.5, 2.0)


class TestJitter:
    def test_zero_magnitude_is_exact(self):
        uv = np.arange(12.0).reshape(6, 2)
        assert np.array_equal(jitter_landmarks(uv, 0.0, 1), uv)

    def test_bounded_and_nontrivial(self):
        uv = np.zeros((68, 2))
        out = jitter_landmarks(uv, 2.5, 3)
        assert np.max(np.abs(out - uv)) <= 2.5
        assert np.max(np.abs(out - uv)) > 0.0

    def test_deterministic_per_seed(self):
        uv = np.zeros((10, 2))
        a = jitter_landmarks(uv, 1.0, 7)
        b = jitter_landmarks(uv, 1.0, 7)
        c = jitter_landmarks(uv, 1.0, 8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            jitter_landmarks(np.zeros((4, 2)), -1.0, 0)

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf])
    def test_non_finite_magnitude_rejected(self, magnitude):
        with pytest.raises(ValueError, match="finite"):
            jitter_landmarks(np.zeros((4, 2)), magnitude, 0)

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2 ** 63 - 1])
    def test_one_unit_draw_scaled_to_every_magnitude(self, seed):
        # The jitter study draws unit noise once per trial and scales it to
        # each magnitude: the bits of jitter_landmarks, and of uniform(-m, m).
        uv = np.random.default_rng(99).uniform(0.0, 450.0, (68, 2))
        unit = np.random.default_rng(seed).random(uv.shape)
        for m in (0.0, 1e-3, 0.5, 1.0, 3.0, 7.5, 10.0, 1e6):
            noise = facemodel._scaled_uniform(unit, m)
            assert np.array_equal(noise, np.random.default_rng(seed).uniform(-m, m, uv.shape))
            assert np.array_equal(uv + noise, jitter_landmarks(uv, m, seed))


class TestDeform:
    def test_zero_sigmas_identity(self):
        model = builtin_mean_face()
        out = deform_subject(model, 0.0, 0.0, rng_seed=5)
        assert np.array_equal(out.points, model.points)

    def test_nonrigid_only_moves_mouth_and_jaw(self):
        model = builtin_mean_face()
        out = deform_subject(model, 0.0, 0.5, rng_seed=5)
        moved = np.any(out.points != model.points, axis=1)
        expect = np.zeros(68, dtype=bool)
        expect[[i - 1 for i in MOUTH_JAW_IDS]] = True
        assert np.array_equal(moved, expect)

    def test_rigid_moves_everything(self):
        model = builtin_mean_face()
        out = deform_subject(model, 0.5, 0.0, rng_seed=5)
        assert np.all(np.any(out.points != model.points, axis=1))

    def test_deterministic_per_seed(self):
        model = builtin_mean_face()
        a = deform_subject(model, 0.1, 0.3, rng_seed=9)
        b = deform_subject(model, 0.1, 0.3, rng_seed=9)
        c = deform_subject(model, 0.1, 0.3, rng_seed=10)
        assert np.array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            deform_subject(builtin_mean_face(), -0.1, 0.0, rng_seed=0)

    @pytest.mark.parametrize("sigmas", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan),
                                        (0.0, -math.inf)])
    def test_non_finite_sigma_rejected(self, sigmas):
        with pytest.raises(ValueError, match="sigmas must be finite"):
            deform_subject(builtin_mean_face(), *sigmas, rng_seed=0)


class TestSubsets:
    def test_named_subsets_catalog(self):
        subs = named_subsets()
        sizes = {s.name: len(s.ids) for s in subs}
        assert sizes == {"rigid-6": 6, "core-12": 12, "no-mouth-48": 48, "all-68": 68}

    def test_rigid_six_membership(self):
        assert subset_by_name("rigid-6").ids == (9, 34, 37, 40, 43, 46)

    def test_no_mouth_excludes_mouth(self):
        ids = subset_by_name("no-mouth-48").ids
        assert ids == tuple(range(1, 49))
        assert not set(ids) & set(range(49, 69))

    def test_rows_zero_based(self):
        assert subset_by_name("rigid-6").rows()[0] == 8

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="all-69"):
            subset_by_name("all-69")

    @pytest.mark.parametrize("ids", [(1, 2, 3, 4.9), (1, 2, 3, 4.0), (1, 2, 3, True),
                                     (1, 2, 3, "5")])
    def test_subset_ids_must_be_integers(self, ids):
        # Once truncated or converted without a word: (1, 2, 3, 4.9) gave
        # ids (1, 2, 3, 4).
        with pytest.raises(ValueError, match="subset 'x' has non-integer ids"):
            KeypointSubset("x", ids)

    def test_subset_takes_numpy_integer_ids(self):
        assert KeypointSubset("x", np.arange(6, 2, -1)).ids == (3, 4, 5, 6)

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            KeypointSubset("tiny", (1, 2, 3))
        with pytest.raises(ValueError):
            KeypointSubset("dup", (1, 2, 3, 3))
        with pytest.raises(ValueError):
            KeypointSubset("range", (0, 1, 2, 3))
        s = KeypointSubset("ok", (4, 2, 8, 6))
        assert s.ids == (2, 4, 6, 8)
