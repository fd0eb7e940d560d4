import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from poselab.multiloss import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    AdamState,
    AngleHeadOutput,
    AngleOutOfRangeError,
    BinSpec,
    MultiLossConfig,
    ShapeMismatchError,
    ToyNet,
    TrainingDivergedError,
    _bin_indices,
    adam_step,
    bin_angle,
    cross_entropy,
    expected_angle,
    load_toynet,
    multi_loss,
    multi_loss_gradient,
    predict_angles,
    save_toynet,
    softmax,
    toynet_backward,
    toynet_forward,
    toynet_init,
    train_toy,
)
from poselab.rotmath import EulerAngles

DEFAULT = BinSpec()
TWO_BIN = BinSpec(-3.0, 3.0, 3.0)
SMALL = BinSpec(-9.0, 9.0, 3.0)  # 6 bins, convenient for gradient checks


def fd_gradient(fn, x, h=1e-5):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    flat = out.ravel()
    xf = x.ravel()
    for k in range(xf.size):
        orig = xf[k]
        xf[k] = orig + h
        hi = fn(x)
        xf[k] = orig - h
        lo = fn(x)
        xf[k] = orig
        flat[k] = (hi - lo) / (2.0 * h)
    return out


def assert_close_rel(got, want, rtol, floor=1e-3):
    got, want = np.asarray(got), np.asarray(want)
    scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
    worst = np.max(np.abs(got - want) / scale)
    assert worst < rtol, f"relative mismatch {worst:.3e} exceeds {rtol:.1e}"


class TestBinSpec:
    def test_defaults(self):
        assert DEFAULT.min_angle == -99.0
        assert DEFAULT.max_angle == 99.0
        assert DEFAULT.bin_width == 3.0
        assert DEFAULT.num_bins == 66

    def test_centers(self):
        assert DEFAULT.centers.shape == (66,)
        assert DEFAULT.centers[0] == pytest.approx(-97.5)
        assert DEFAULT.centers[-1] == pytest.approx(97.5)
        assert np.allclose(np.diff(DEFAULT.centers), 3.0)

    def test_centers_read_only(self):
        with pytest.raises(ValueError):
            DEFAULT.centers[0] = 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BinSpec(10.0, -10.0, 3.0)  # empty range
        with pytest.raises(ValueError):
            BinSpec(-99.0, 99.0, 0.0)  # zero width
        with pytest.raises(ValueError):
            BinSpec(-99.0, 99.0, 4.0)  # range not a whole number of bins
        with pytest.raises(ValueError):
            BinSpec(-3.0, 3.0, 6.0)  # single bin
        for values in ((-99.0, math.inf, 3.0), (math.nan, 99.0, 3.0), (-99.0, 99.0, math.inf)):
            with pytest.raises(ValueError, match="^bin spec must be finite, got "):
                BinSpec(*values)


class TestBinAngle:
    def test_examples(self):
        assert bin_angle(-99.0, DEFAULT) == 0
        assert bin_angle(0.0, DEFAULT) == 33
        assert bin_angle(98.999, DEFAULT) == 65
        assert bin_angle(-96.0, DEFAULT) == 1

    def test_range_half_open(self):
        with pytest.raises(AngleOutOfRangeError):
            bin_angle(99.0, DEFAULT)
        with pytest.raises(AngleOutOfRangeError):
            bin_angle(-99.0001, DEFAULT)

    @given(st.floats(min_value=-99.0, max_value=98.999))
    def test_index_in_range(self, angle):
        idx = bin_angle(angle, DEFAULT)
        assert 0 <= idx < 66

    def test_center_maps_to_own_bin(self):
        for i, c in enumerate(DEFAULT.centers):
            assert bin_angle(float(c), DEFAULT) == i


def reference_bin(angle: float, spec: BinSpec) -> int:
    """The scalar binning rule as bin_angle first stated it, kept as the
    reference for the array rule."""
    if not spec.min_angle <= angle < spec.max_angle:
        raise AngleOutOfRangeError(
            f"angle {angle} outside [{spec.min_angle}, {spec.max_angle})"
        )
    idx = int(math.floor((angle - spec.min_angle) / spec.bin_width))
    return min(idx, spec.num_bins - 1)


class TestBinIndices:
    # 0.1 is not a binary fraction, so these edges are where rounding bites.
    SPECS = [DEFAULT, TWO_BIN, SMALL, BinSpec(-1.0, 0.5, 0.1)]

    @pytest.mark.parametrize("spec", SPECS, ids=["default", "two-bin", "small", "tenths"])
    def test_matches_scalar_rule(self, spec):
        edges = spec.min_angle + np.arange(spec.num_bins) * spec.bin_width
        below_max = np.nextafter(spec.max_angle, -np.inf)
        near_edges = np.concatenate([np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        angles = np.concatenate([
            edges, [spec.min_angle, below_max],
            near_edges[(near_edges >= spec.min_angle) & (near_edges < spec.max_angle)],
            np.random.default_rng(0).uniform(spec.min_angle, spec.max_angle, size=500),
        ])
        want = [reference_bin(float(a), spec) for a in angles]
        got = _bin_indices(angles, spec)
        assert got.shape == angles.shape and got.dtype.kind == "i"
        assert got.tolist() == want
        assert [bin_angle(float(a), spec) for a in angles] == want
        assert bin_angle(float(below_max), spec) == spec.num_bins - 1

    def test_keeps_shape(self):
        angles = np.random.default_rng(1).uniform(-99.0, 99.0, size=(4, 3))
        got = _bin_indices(angles, DEFAULT)
        assert got.shape == (4, 3)
        assert got.tolist() == [[reference_bin(a, DEFAULT) for a in row] for row in angles.tolist()]

    @pytest.mark.parametrize("bad", [99.0, np.nextafter(-99.0, -np.inf), math.nan, math.inf, -math.inf])
    def test_out_of_range_message_names_first_bad_angle(self, bad):
        with pytest.raises(AngleOutOfRangeError) as want:
            reference_bin(bad, DEFAULT)
        with pytest.raises(AngleOutOfRangeError) as scalar:
            bin_angle(bad, DEFAULT)
        angles = np.array([[0.0, 10.0, -5.0], [1.0, bad, 150.0]])
        with pytest.raises(AngleOutOfRangeError) as array:
            _bin_indices(angles, DEFAULT)
        assert str(scalar.value) == str(array.value) == str(want.value)


class TestSoftmaxAndCrossEntropy:
    def test_uniform_for_equal_logits(self):
        p = softmax(np.zeros(66))
        assert np.allclose(p, 1.0 / 66.0)
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_shift_invariance(self):
        z = np.array([0.3, -1.2, 4.0, 2.2])
        assert np.max(np.abs(softmax(z) - softmax(z + 1000.0))) <= 1e-9

    def test_extreme_logits_stable(self):
        p = softmax(np.array([700.0, 0.0, -700.0]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.inf, 0.0]))

    def test_uniform_cross_entropy_is_log_bins(self):
        p = softmax(np.zeros(66))
        assert abs(cross_entropy(p, 17) - math.log(66.0)) < 1e-12

    def test_two_bin_hand_value(self):
        assert cross_entropy(softmax(np.zeros(2)), 0) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_zero_probability_is_inf(self):
        assert cross_entropy(np.array([1.0, 0.0]), 1) == math.inf

    def test_target_bounds(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.5]), 2)

    def test_probabilities_must_be_one_vector(self):
        with pytest.raises(ValueError, match=r"^expected a 1-D probability vector, got shape "):
            cross_entropy(np.full((2, 2), 0.5), 0)

    @pytest.mark.parametrize("target_bin", [2.5, 1.0, True, np.float64(1.0), np.bool_(True)])
    def test_target_bin_must_be_an_integer(self, target_bin):
        with pytest.raises(ValueError, match="^target_bin must be an integer, got "):
            cross_entropy(np.array([0.25, 0.25, 0.5]), target_bin)

    def test_numpy_integer_target_bin(self):
        p = np.array([0.25, 0.25, 0.5])
        assert cross_entropy(p, np.int64(2)) == cross_entropy(p, 2) == -math.log(0.5)


class TestExpectedAngle:
    def test_one_hot_decodes_to_center(self):
        for i in (0, 33, 65):
            p = np.zeros(66)
            p[i] = 1.0
            assert expected_angle(p, DEFAULT) == DEFAULT.centers[i]

    def test_uniform_decodes_to_zero(self):
        assert abs(expected_angle(np.full(66, 1.0 / 66.0), DEFAULT)) < 1e-12

    def test_batch_shape(self):
        p = np.tile(np.full(66, 1.0 / 66.0), (4, 3, 1))
        out = expected_angle(p, DEFAULT)
        assert out.shape == (4, 3)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            expected_angle(np.full(66, 0.5), DEFAULT)

    @pytest.mark.parametrize("p, message", [
        # NaN compares false both ways, so only "within 1e-9" rejects it.
        (np.full(66, np.nan), "probabilities must sum to 1 within 1e-9"),
        (np.full((2, 66), 1.0 / 66.0) * np.array([[1.0], [np.nan]]),
         "probabilities must sum to 1 within 1e-9"),
        (np.full(65, 1.0 / 65.0), "expected 66 bins, got 65"),
    ], ids=["nan", "nan-row", "bins"])
    def test_rejects_nan_sums_and_other_bin_counts(self, p, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            expected_angle(p, DEFAULT)

    def test_round_trip_with_bin_angle(self):
        for i in range(DEFAULT.num_bins):
            p = np.zeros(66)
            p[i] = 1.0
            assert bin_angle(expected_angle(p, DEFAULT), DEFAULT) == i


class TestMultiLoss:
    def test_two_bin_hand_computation(self):
        # flat logits: p = (1/2, 1/2); decoded angle 0; target -1.5 is bin 0
        # per angle: CE = ln 2, squared error = 2.25
        logits = np.zeros((3, 2))
        target = EulerAngles(-1.5, -1.5, -1.5)
        total, terms = multi_loss(logits, target, TWO_BIN, MultiLossConfig(alpha=1.0))
        for t in terms:
            assert t.cross_entropy == pytest.approx(math.log(2.0), abs=1e-15)
            assert t.squared_error == pytest.approx(2.25, abs=1e-12)
            assert t.total == pytest.approx(math.log(2.0) + 2.25, abs=1e-12)
        assert total == pytest.approx(3.0 * (math.log(2.0) + 2.25), abs=1e-12)

    def test_alpha_zero_is_bitwise_cross_entropy(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logits = rng.normal(scale=2.0, size=(3, 66))
            target = EulerAngles(*rng.uniform(-98.9, 98.9, size=3))
            total, terms = multi_loss(logits, target, DEFAULT, MultiLossConfig(alpha=0.0))
            ce = [
                cross_entropy(softmax(row), bin_angle(t, DEFAULT))
                for row, t in zip(logits, (target.yaw, target.pitch, target.roll))
            ]
            assert total == ce[0] + ce[1] + ce[2]
            assert all(term.total == c for term, c in zip(terms, ce))

    def test_confident_correct_prediction_near_zero(self):
        # targets sit exactly on bin centers, so a confident correct bin
        # also decodes to the right angle
        logits = np.zeros((3, 66))
        targets = (-97.5, 1.5, 97.5)
        for row, t in enumerate(targets):
            logits[row, bin_angle(t, DEFAULT)] = 500.0
        total, _ = multi_loss(logits, EulerAngles(*targets), DEFAULT, MultiLossConfig(alpha=2.0))
        assert 0.0 <= total <= 1e-9

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            logits = rng.normal(scale=3.0, size=(3, 66))
            target = EulerAngles(*rng.uniform(-99.0, 98.9, size=3))
            total, terms = multi_loss(logits, target, DEFAULT, MultiLossConfig(alpha=2.0))
            assert total >= 0.0
            assert all(t.cross_entropy >= 0.0 and t.squared_error >= 0.0 for t in terms)

    def test_alpha_scales_penalty(self):
        logits = np.zeros((3, 66))
        target = EulerAngles(30.0, -20.0, 10.0)
        lo, _ = multi_loss(logits, target, DEFAULT, MultiLossConfig(alpha=1.0))
        hi, _ = multi_loss(logits, target, DEFAULT, MultiLossConfig(alpha=2.0))
        assert hi > lo

    def test_out_of_range_target(self):
        with pytest.raises(AngleOutOfRangeError):
            multi_loss(np.zeros((3, 66)), EulerAngles(99.0, 0.0, 0.0), DEFAULT, MultiLossConfig())

    def test_wrong_logit_shape(self):
        with pytest.raises(ValueError):
            multi_loss(np.zeros((3, 65)), EulerAngles(0, 0, 0), DEFAULT, MultiLossConfig())
        with pytest.raises(ValueError):
            AngleHeadOutput(np.zeros((2, 66)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_logits(self, bad):
        logits = np.zeros((3, 66))
        logits[1, 7] = bad
        with pytest.raises(ValueError, match="^logits must be finite$"):
            AngleHeadOutput(logits)

    @pytest.mark.parametrize("alpha", [-0.5, math.nan, math.inf])
    def test_alpha_must_be_finite_and_non_negative(self, alpha):
        with pytest.raises(ValueError, match="^alpha must be a finite value >= 0, got "):
            MultiLossConfig(alpha=alpha)


class TestMultiLossGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for alpha in (0.0, 0.5, 2.0):
            cfg = MultiLossConfig(alpha=alpha)
            for _ in range(10):
                logits = rng.normal(scale=2.0, size=(3, 6))
                target = EulerAngles(*rng.uniform(-8.9, 8.9, size=3))
                grad = multi_loss_gradient(logits, target, SMALL, cfg)
                num = fd_gradient(lambda z: multi_loss(z, target, SMALL, cfg)[0], logits)
                assert_close_rel(grad, num, 1e-6)

    def test_alpha_zero_equals_softmax_minus_onehot(self):
        logits = np.random.default_rng(3).normal(size=(3, 66))
        target = EulerAngles(12.0, -45.0, 80.0)
        grad = multi_loss_gradient(logits, target, DEFAULT, MultiLossConfig(alpha=0.0))
        for row, t in zip(range(3), (12.0, -45.0, 80.0)):
            expect = softmax(logits[row]).copy()
            expect[bin_angle(t, DEFAULT)] -= 1.0
            assert np.array_equal(grad[row], expect)

    def test_saturated_logits_finite(self):
        logits = np.zeros((3, 66))
        logits[:, 0] = 600.0
        grad = multi_loss_gradient(logits, EulerAngles(0, 0, 0), DEFAULT, MultiLossConfig(alpha=2.0))
        assert np.all(np.isfinite(grad))

    def test_batch_rows_match_single_samples(self):
        # One loss core serves multi_loss, its gradient and the training
        # batch.  B is a power of two, so dividing by it is exact.
        from poselab.multiloss import _batch_loss_and_grad

        rng = np.random.default_rng(5)
        cfg = MultiLossConfig(alpha=2.0)
        b = 8
        logits = rng.normal(scale=3.0, size=(b, 3, DEFAULT.num_bins))
        angles = rng.uniform(-98.9, 98.9, size=(b, 3))
        bins = np.array([[bin_angle(a, DEFAULT) for a in row] for row in angles])
        loss, grad = _batch_loss_and_grad(logits, bins, angles, DEFAULT, cfg.alpha)
        totals = []
        for i in range(b):
            target = EulerAngles(*angles[i])
            assert np.array_equal(grad[i] * b, multi_loss_gradient(logits[i], target, DEFAULT, cfg))
            totals.append(multi_loss(logits[i], target, DEFAULT, cfg)[0])
        assert loss == pytest.approx(np.mean(totals), rel=1e-12, abs=0.0)

    def test_zero_at_perfect_prediction(self):
        logits = np.zeros((3, 2))
        logits[:, 0] = 600.0
        grad = multi_loss_gradient(logits, EulerAngles(-1.5, -1.5, -1.5), TWO_BIN, MultiLossConfig(alpha=1.0))
        assert np.max(np.abs(grad)) < 1e-9


class TestToyNet:
    @pytest.mark.parametrize("argument, value", [
        ("input_dim", 2.5), ("input_dim", True), ("input_dim", 0),
        ("hidden_size", 2.5), ("hidden_size", True), ("hidden_size", 0)])
    def test_init_sizes_must_be_integers(self, argument, value):
        sizes = {"input_dim": 4, "hidden_size": 3, argument: value}
        with pytest.raises(ValueError, match=f"^{argument} must be an integer >= 1, got "):
            toynet_init(spec=SMALL, **sizes)

    def test_init_shapes_and_zero_heads(self):
        net = toynet_init(10, 8, SMALL, seed=0)
        assert net.w_hidden.shape == (8, 10)
        assert net.b_hidden.shape == (8,)
        assert net.w_heads.shape == (3, 6, 8)
        assert net.b_heads.shape == (3, 6)
        assert not net.w_heads.any() and not net.b_heads.any() and not net.b_hidden.any()
        bound = math.sqrt(6.0 / (10 + 8))
        assert np.max(np.abs(net.w_hidden)) <= bound
        assert np.max(np.abs(net.w_hidden)) > 0.1 * bound

    def test_init_deterministic(self):
        a = toynet_init(5, 4, SMALL, seed=1)
        b = toynet_init(5, 4, SMALL, seed=1)
        c = toynet_init(5, 4, SMALL, seed=2)
        assert np.array_equal(a.w_hidden, b.w_hidden)
        assert not np.array_equal(a.w_hidden, c.w_hidden)

    def test_bad_activation(self, tmp_path):
        # The net is tanh only; a file naming another activation is refused.
        path = tmp_path / "net.txt"
        save_toynet(toynet_init(4, 3, SMALL, seed=0), path)
        lines = path.read_text().splitlines()
        assert lines[1] == "activation tanh"
        for activation in ("relu", "sigmoid"):
            path.write_text("\n".join([lines[0], f"activation {activation}", *lines[2:]]) + "\n")
            with pytest.raises(ValueError, match=f":2: activation '{activation}' is not supported"):
                load_toynet(path)

    def test_forward_single_vs_batch(self):
        net = toynet_init(5, 4, SMALL, seed=0)
        net.w_heads += np.random.default_rng(0).normal(size=net.w_heads.shape)
        x = np.random.default_rng(1).normal(size=(7, 5))
        batch = toynet_forward(net, x)
        assert batch.shape == (7, 3, 6)
        single = toynet_forward(net, x[2])
        assert isinstance(single, AngleHeadOutput)
        assert np.allclose(single.logits, batch[2], atol=0.0)

    def test_forward_shape_mismatch(self):
        net = toynet_init(5, 4, SMALL, seed=0)
        with pytest.raises(ShapeMismatchError):
            toynet_forward(net, np.zeros(6))

    def test_untrained_decodes_to_zero(self):
        net = toynet_init(5, 4, DEFAULT, seed=0)
        angles = predict_angles(net, np.random.default_rng(2).normal(size=5))
        assert np.max(np.abs(angles)) < 1e-12

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = toynet_init(5, 4, SMALL, seed=3)
        # non-trivial heads and biases so every gradient path is exercised
        net.w_heads += rng.normal(scale=0.5, size=net.w_heads.shape)
        net.b_heads += rng.normal(scale=0.5, size=net.b_heads.shape)
        net.b_hidden += rng.normal(scale=0.3, size=net.b_hidden.shape)
        x = rng.normal(size=(3, 5))
        target_bins = rng.integers(0, 6, size=(3, 3))
        target_angles = SMALL.centers[target_bins]
        cfg_alpha = 1.5

        from poselab.multiloss import _batch_loss_and_grad

        logits = toynet_forward(net, x)
        loss, dlogits = _batch_loss_and_grad(logits, target_bins, target_angles, SMALL, cfg_alpha)
        grads = toynet_backward(net, x, dlogits)
        params = net.parameters()
        assert set(grads) == set(params)

        def loss_fn():
            z = toynet_forward(net, x)
            return _batch_loss_and_grad(z, target_bins, target_angles, SMALL, cfg_alpha)[0]

        for name, p in params.items():
            flat = p.ravel()
            num = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + 1e-5
                hi = loss_fn()
                flat[k] = orig - 1e-5
                lo = loss_fn()
                flat[k] = orig
                num[k] = (hi - lo) / 2e-5
            assert_close_rel(grads[name].ravel(), num, 1e-5)

    def test_backward_single_sample(self):
        net = toynet_init(4, 3, SMALL, seed=5)
        x = np.random.default_rng(6).normal(size=4)
        out = toynet_forward(net, x)
        grads = toynet_backward(net, x, np.ones_like(out.logits))
        assert grads["w_hidden"].shape == net.w_hidden.shape

    @pytest.mark.parametrize("inputs, dlogits", [
        (np.zeros(4), np.zeros((3, 5))),
        (np.zeros((2, 4)), np.zeros((3, 3, 6))),
        (np.zeros((2, 4)), np.zeros((2, 2, 6))),
    ], ids=["single-bins", "batch-size", "batch-heads"])
    def test_backward_dlogits_shape_checked(self, inputs, dlogits):
        net = toynet_init(4, 3, SMALL, seed=5)
        with pytest.raises(ShapeMismatchError, match=r"^dlogits shape \("):
            toynet_backward(net, inputs, dlogits)

    @pytest.mark.parametrize("name, shape, message", [
        ("w_hidden", (3,), r"^w_hidden must be \(hidden, input_dim\), got \(3,\)$"),
        ("b_hidden", (5,), r"^b_hidden \(5,\) vs hidden size 4$"),
        ("w_heads", (3, 6, 5), r"^w_heads must be \(3, num_bins, 4\), got \(3, 6, 5\)$"),
        ("w_heads", (2, 6, 4), r"^w_heads must be \(3, num_bins, 4\), got \(2, 6, 4\)$"),
        ("b_heads", (3, 5), r"^b_heads \(3, 5\) vs w_heads \(3, 6, 4\)$"),
    ], ids=["w_hidden", "b_hidden", "w_heads-hidden", "w_heads-angles", "b_heads"])
    def test_built_from_mismatched_arrays(self, name, shape, message):
        arrays = {"w_hidden": np.zeros((4, 5)), "b_hidden": np.zeros(4),
                  "w_heads": np.zeros((3, 6, 4)), "b_heads": np.zeros((3, 6))}
        arrays[name] = np.zeros(shape)
        with pytest.raises(ShapeMismatchError, match=message):
            ToyNet(**arrays, spec=SMALL)

    def test_heads_must_emit_spec_bins(self):
        with pytest.raises(ShapeMismatchError, match="^heads emit 6 logits, bin spec has 66$"):
            ToyNet(np.zeros((4, 5)), np.zeros(4), np.zeros((3, 6, 4)), np.zeros((3, 6)), DEFAULT)


    def test_parameters_are_views_of_flat(self):
        net = toynet_init(5, 4, SMALL, seed=0)
        assert net.flat.shape == (4 * 5 + 4 + 3 * 6 * 4 + 3 * 6,)
        for p in net.parameters().values():
            assert p.base is net.flat
        net.flat[:] = np.arange(net.flat.size)
        assert net.w_hidden[0, 1] == 1.0
        assert net.b_heads[-1, -1] == net.flat.size - 1

    def test_built_from_caller_arrays_without_aliasing(self):
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=(4, 5)), rng.normal(size=4),
                  rng.normal(size=(3, 6, 4)), rng.normal(size=(3, 6))]
        before = [a.copy() for a in arrays]
        net = ToyNet(*arrays, SMALL)
        for a, b, p in zip(arrays, before, net.parameters().values()):
            assert not np.shares_memory(a, p)
            assert np.array_equal(p, b)
        net.flat += 1.0
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)

    def test_matmul_heads_match_einsum_reference(self):
        rng = np.random.default_rng(8)
        net = toynet_init(7, 5, SMALL, seed=2)
        net.flat += rng.normal(scale=0.5, size=net.flat.shape)
        x = rng.normal(size=(6, 7))
        g = rng.normal(size=(6, 3, 6))

        h = np.tanh(x @ net.w_hidden.T + net.b_hidden)
        logits = np.einsum("anh,bh->ban", net.w_heads, h) + net.b_heads
        dh = np.einsum("ban,anh->bh", g, net.w_heads)
        dpre = dh * (1.0 - h * h)
        want = {"w_hidden": dpre.T @ x, "b_hidden": dpre.sum(axis=0),
                "w_heads": np.einsum("ban,bh->anh", g, h), "b_heads": g.sum(axis=0)}

        assert np.max(np.abs(toynet_forward(net, x) - logits)) < 1e-12
        grads = toynet_backward(net, x, g)
        for name, value in want.items():
            assert grads[name].shape == value.shape
            assert np.max(np.abs(grads[name] - value)) < 1e-12


class TestAdam:
    def test_zero_gradient_no_change(self):
        net = toynet_init(4, 3, SMALL, seed=0)
        params = net.parameters()
        before = {k: v.copy() for k, v in params.items()}
        adam_step(params, {k: np.zeros_like(v) for k, v in params.items()}, AdamState())
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_first_step_is_signed_lr(self):
        # with bias correction the first update is lr * g / (|g| + eps)
        params = {"w": np.array([1.0, -2.0])}
        adam_step(params, {"w": np.array([0.5, -3.0])}, AdamState(lr=0.01))
        assert params["w"] == pytest.approx([1.0 - 0.01, -2.0 + 0.01], rel=1e-6)

    def test_key_and_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        with pytest.raises(ShapeMismatchError):
            adam_step(params, {"v": np.zeros(3)}, AdamState())
        with pytest.raises(ShapeMismatchError):
            adam_step(params, {"w": np.zeros(4)}, AdamState())

    def test_accumulates_across_steps(self):
        params = {"w": np.array([0.0])}
        state = AdamState(lr=0.1)
        for _ in range(5):
            adam_step(params, {"w": np.array([1.0])}, state)
        assert state.step == 5
        assert params["w"][0] == pytest.approx(-0.5, rel=1e-3)

    def test_never_writes_to_grads(self):
        rng = np.random.default_rng(9)
        params = {"w": rng.normal(size=(5, 4)), "b": rng.normal(size=4)}
        state = AdamState(lr=0.01)
        for _ in range(3):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            before = {k: g.copy() for k, g in grads.items()}
            for g in grads.values():
                g.flags.writeable = False
            adam_step(params, grads, state)
            for k, g in grads.items():
                assert np.array_equal(g, before[k])

    def test_matches_textbook_update_in_place(self):
        rng = np.random.default_rng(3)
        params = {"w": rng.normal(size=(5, 4)), "b": rng.normal(size=4)}
        state = AdamState(lr=0.01)
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.lr, ADAM_EPS
        ref_p = {k: v.copy() for k, v in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in params.items()}
        moments = None
        for t in range(1, 26):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            adam_step(params, grads, state)
            for k, g in grads.items():
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g ** 2
                m_hat = ref_m[k] / (1.0 - b1 ** t)
                v_hat = ref_v[k] / (1.0 - b2 ** t)
                ref_p[k] = ref_p[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert np.array_equal(params[k], ref_p[k])
                assert np.array_equal(state.m[k], ref_m[k])
                assert np.array_equal(state.v[k], ref_v[k])
            # the moment arrays are updated in place, never replaced
            current = {k: (state.m[k], state.v[k]) for k in params}
            if moments is not None:
                for k, (m, v) in current.items():
                    assert m is moments[k][0] and v is moments[k][1]
            moments = current

    @pytest.mark.parametrize("make", [
        # three full blocks and a ragged tail
        lambda rng: rng.normal(size=3 * ADAM_BLOCK + 123),
        # one row per block, each row over half a block
        lambda rng: rng.normal(size=(3, ADAM_BLOCK // 2 + 7)),
        # a non-contiguous view: blocks of rows of w.T, written through to w
        lambda rng: rng.normal(size=(ADAM_BLOCK // 3, 5)).T,
        lambda rng: np.array(rng.normal()),
    ], ids=["flat-ragged", "long-rows", "transposed-view", "0-d"])
    def test_blocked_update_matches_textbook(self, make):
        rng = np.random.default_rng(11)
        w = make(rng)
        base = w.base
        state = AdamState(lr=0.01)
        ref_p, ref_m, ref_v = w.copy(), np.zeros(w.shape), np.zeros(w.shape)
        for t in range(1, 4):
            g = rng.normal(size=w.shape)
            adam_step({"w": w}, {"w": g}, state)
            ref_m = ADAM_BETA1 * ref_m + (1.0 - ADAM_BETA1) * g
            ref_v = ADAM_BETA2 * ref_v + (1.0 - ADAM_BETA2) * g ** 2
            m_hat = ref_m / (1.0 - ADAM_BETA1 ** t)
            v_hat = ref_v / (1.0 - ADAM_BETA2 ** t)
            ref_p = ref_p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert np.array_equal(w, ref_p)
            assert np.array_equal(state.m["w"], ref_m) and np.array_equal(state.v["w"], ref_v)
        if base is not None:
            assert np.array_equal(base.T, ref_p)  # updated in place
        assert all(a.size <= ADAM_BLOCK for a in state.scratch["w"])


def linear_dataset(n, seed=0):
    """(xs, targets): n random 6-vectors and their (yaw, pitch, roll) rows
    30 x0, 20 x1, 10 x2."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, 6))
    return xs, xs[:, :3] * np.array([30.0, 20.0, 10.0])


class TestTrainToy:
    def test_learns_linear_targets(self):
        net, history = train_toy(
            *linear_dataset(400), epochs=8, seed=0, hidden_size=32, batch_size=32
        )
        assert len(history) == 9
        assert history[0]["epoch"] == 0
        assert history[-1]["epoch"] == 8
        assert history[-1]["val_mae"] < history[0]["val_mae"] * 0.6
        xs, targets = linear_dataset(400)
        decoded = predict_angles(net, xs[0])
        assert abs(decoded[0] - targets[0, 0]) < 15.0

    def test_untrained_row_reflects_zero_decode(self):
        _, history = train_toy(*linear_dataset(100), epochs=0, seed=0, hidden_size=8)
        # untrained network decodes 0 for every angle, so the MAE is the
        # mean absolute target
        _, targets = linear_dataset(100)
        assert len(history) == 1 and set(history[0]) == {"epoch", "val_mae"}
        assert history[0]["val_mae"] == pytest.approx(np.mean(np.abs(targets)), rel=0.3)

    def test_deterministic(self):
        _, h1 = train_toy(*linear_dataset(120), epochs=2, seed=7, hidden_size=8)
        _, h2 = train_toy(*linear_dataset(120), epochs=2, seed=7, hidden_size=8)
        _, h3 = train_toy(*linear_dataset(120), epochs=2, seed=8, hidden_size=8)
        assert h1 == h2
        assert h1 != h3

    def test_no_validation_split(self):
        _, history = train_toy(*linear_dataset(50), epochs=1, seed=0, hidden_size=8, val_fraction=0.0)
        assert [row["epoch"] for row in history] == [0, 1]
        assert all(math.isnan(row["val_mae"]) for row in history)

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            train_toy(np.empty((0, 4)), np.empty((0, 3)), epochs=1)

    def test_out_of_range_target_rejected_before_training(self):
        with pytest.raises(AngleOutOfRangeError):
            train_toy(np.zeros((1, 4)), np.array([[99.0, 0.0, 0.0]]), epochs=1)

    @pytest.mark.parametrize("bad", [-120.0, math.nan, math.inf, -math.inf])
    def test_bad_target_rejected_before_any_step(self, bad):
        xs, targets = linear_dataset(40)
        targets[7, 1] = bad
        steps = []

        def spy(batch, rng):
            steps.append(len(batch))
            return batch

        with pytest.raises(AngleOutOfRangeError, match=f"angle {bad} outside"):
            train_toy(xs, targets, epochs=1, seed=0, hidden_size=8, augment=spy)
        assert steps == []

    @pytest.mark.parametrize("shape", [(39, 3), (41, 3), (40, 2), (40, 4), (40,)])
    def test_target_shape_checked(self, shape):
        xs, _ = linear_dataset(40)
        with pytest.raises(ShapeMismatchError):
            train_toy(xs, np.zeros(shape), epochs=1, hidden_size=8)

    def test_sample_axes_flattened(self):
        xs, targets = linear_dataset(60)
        net_flat, h_flat = train_toy(xs, targets, epochs=2, seed=3, hidden_size=8)
        net_grid, h_grid = train_toy(xs.reshape(60, 2, 3), targets, epochs=2, seed=3, hidden_size=8)
        assert net_grid.input_dim == 6
        assert h_grid == h_flat
        assert np.array_equal(net_grid.flat, net_flat.flat)

    @pytest.mark.parametrize("batch_size", [-4, 0, 2.5, True])
    def test_batch_size_must_be_positive_integer(self, batch_size):
        steps = []

        def spy(batch, rng):
            steps.append(len(batch))
            return batch

        with pytest.raises(ValueError, match="batch_size must be an integer >= 1"):
            train_toy(*linear_dataset(40), epochs=2, seed=0, hidden_size=8,
                      batch_size=batch_size, augment=spy)
        assert steps == []

    @pytest.mark.parametrize("argument, value", [
        ("epochs", 2.5), ("epochs", True), ("epochs", -1),
        ("hidden_size", 2.5), ("hidden_size", True), ("hidden_size", 0)])
    def test_sizes_must_be_integers(self, argument, value):
        # Once a float failed inside range or rng.uniform with a TypeError,
        # and epochs=True trained one epoch.
        steps = []

        def spy(batch, rng):
            steps.append(len(batch))
            return batch

        sizes = {"epochs": 2, "hidden_size": 8, argument: value}
        with pytest.raises(ValueError, match=f"^{argument} must be an integer >= "):
            train_toy(*linear_dataset(40), seed=0, augment=spy, **sizes)
        assert steps == []

    @pytest.mark.parametrize("lr", [-1e-3, 0.0, math.nan, math.inf])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="lr"):
            train_toy(*linear_dataset(40), epochs=1, seed=0, hidden_size=8, lr=lr)

    @pytest.mark.parametrize("val_fraction", [-0.1, 1.0, math.nan])
    def test_val_fraction_must_be_in_unit_interval(self, val_fraction):
        with pytest.raises(ValueError, match=r"^val_fraction must be in \[0, 1\)$"):
            train_toy(*linear_dataset(40), epochs=1, seed=0, hidden_size=8,
                      val_fraction=val_fraction)

    def test_augment_hook_changes_training(self):
        data = linear_dataset(120)

        def noisy(batch, rng):
            return batch + rng.normal(scale=0.5, size=batch.shape)

        _, plain = train_toy(*data, epochs=2, seed=0, hidden_size=8)
        _, augmented = train_toy(*data, epochs=2, seed=0, hidden_size=8, augment=noisy)
        assert plain != augmented

    def test_augment_shape_checked(self):
        def broken(batch, rng):
            return batch[:, :2]

        with pytest.raises(ShapeMismatchError):
            train_toy(*linear_dataset(40), epochs=1, seed=0, hidden_size=8, augment=broken)

    def test_divergence_detected(self):
        def poison(batch, rng):
            return np.full_like(batch, np.inf)

        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(TrainingDivergedError):
            train_toy(*linear_dataset(40), epochs=1, seed=0, hidden_size=8, augment=poison)

    def test_non_finite_parameters_detected_after_epoch(self):
        # An infinite input column saturates tanh, so the loss stays finite,
        # but 0 * inf makes the w_hidden gradient NaN; with one batch per
        # epoch the check after the epoch is the one that sees it.
        def spike(batch, rng):
            out = batch.copy()
            out[:, 0] = np.inf
            return out

        with np.errstate(invalid="ignore"), pytest.raises(
                TrainingDivergedError, match="^non-finite parameters after epoch 1$"):
            train_toy(*linear_dataset(40), epochs=1, seed=0, hidden_size=8, batch_size=64,
                      augment=spike)


class TestSaveLoadToyNet:
    def test_round_trip_exact(self, tmp_path):
        net, _ = train_toy(*linear_dataset(60), epochs=1, seed=0, hidden_size=8)
        path = tmp_path / "net.txt"
        save_toynet(net, path)
        back = load_toynet(path)
        assert np.array_equal(back.w_hidden, net.w_hidden)
        assert np.array_equal(back.b_hidden, net.b_hidden)
        assert np.array_equal(back.w_heads, net.w_heads)
        assert np.array_equal(back.b_heads, net.b_heads)
        assert back.spec == net.spec
        x = np.random.default_rng(0).normal(size=6)
        assert np.array_equal(predict_angles(back, x), predict_angles(net, x))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("NOTANET\n")
        with pytest.raises(ValueError):
            load_toynet(path)

    def test_truncated(self, tmp_path):
        net = toynet_init(4, 3, SMALL, seed=0)
        path = tmp_path / "net.txt"
        save_toynet(net, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError):
            load_toynet(path)

    @pytest.mark.parametrize("header", [
        ("junk tanh", "x -6 6 3", "y 4 3"),
        ("junk tanh", "bins -6 6 3", "shape 4 3"),
        ("activation tanh", "x -6 6 3", "shape 4 3"),
        ("activation tanh", "bins -6 6 3", "y 4 3"),
    ])
    def test_header_keywords_required(self, tmp_path, header):
        net = toynet_init(4, 3, BinSpec(-6.0, 6.0, 3.0), seed=0)
        path = tmp_path / "net.txt"
        save_toynet(net, path)
        lines = path.read_text().splitlines()
        assert lines[1:4] == ["activation tanh", "bins -6 6 3", "shape 4 3"]
        path.write_text("\n".join([lines[0], *header, *lines[4:]]) + "\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_toynet(path)

    @pytest.mark.parametrize("shape", ["4 0", "4 -1", "0 3"])
    def test_header_sizes_positive(self, tmp_path, shape):
        # Rejected on the header line, not later in a section sized by it.
        path = tmp_path / "net.txt"
        save_toynet(toynet_init(4, 3, SMALL, seed=0), path)
        lines = path.read_text().splitlines()
        assert lines[3] == "shape 4 3"
        lines[3] = f"shape {shape}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f":4: shape {shape}: input_dim and hidden_size "
                                             "must be >= 1$"):
            load_toynet(path)

    @pytest.mark.parametrize("line, name, cut", [(9, "b_hidden", ["b_hiddn"]),
                                                 (9, "b_hidden", []), (30, "b_heads", [])],
                             ids=["misnamed", "missing", "last-missing"])
    def test_section_name_required(self, tmp_path, line, name, cut):
        # A misnamed or absent section is reported at the line where its name
        # belongs.  b_hidden's is line 9, after the 4 header lines and
        # w_hidden's name and 3 rows; b_heads' is line 30, after b_hidden's 2
        # lines and w_heads' 19.
        path = tmp_path / "net.txt"
        save_toynet(toynet_init(4, 3, SMALL, seed=0), path)
        lines = path.read_text().splitlines()
        assert lines[line - 1] == name
        path.write_text("\n".join(lines[:line - 1] + cut) + "\n")
        with pytest.raises(ValueError, match=f":{line}: expected section '{name}'$"):
            load_toynet(path)

    def test_corrupt_number(self, tmp_path):
        net = toynet_init(4, 3, SMALL, seed=0)
        path = tmp_path / "net.txt"
        save_toynet(net, path)
        text = path.read_text().replace("0 ", "x ", 1)
        path.write_text(text)
        with pytest.raises(ValueError):
            load_toynet(path)

    def test_content_after_last_section(self, tmp_path):
        path = tmp_path / "net.txt"
        save_toynet(toynet_init(4, 3, SMALL, seed=0), path)
        n_lines = len(path.read_text().splitlines())
        with path.open("a") as out:
            out.write("\n  \n")
        assert load_toynet(path).input_dim == 4  # trailing blank lines are allowed
        with path.open("a") as out:
            out.write("w_hidden\n1 2 3\ngarbage here\n")
        with pytest.raises(ValueError, match=f":{n_lines + 3}: unexpected content after "
                                             "section 'b_heads'"):
            load_toynet(path)

    def test_non_finite_weight(self, tmp_path):
        path = tmp_path / "net.txt"
        save_toynet(toynet_init(4, 3, SMALL, seed=0), path)
        lines = path.read_text().splitlines()
        # Line 7 is the second row of w_hidden: header, "w_hidden", row 1, row 2.
        assert lines[4] == "w_hidden"
        row = lines[6].split()
        row[2] = "nan"
        lines[6] = " ".join(row)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=":7: non-finite number in section 'w_hidden'"):
            load_toynet(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda row: [row[0], "x", *row[2:]], "bad number in section 'w_hidden'"),
        (lambda row: [*row, "1"], "section 'w_hidden' has a row of 5 numbers, expected 4 "
                                  r"for shape \(3, 4\)"),
        (lambda row: row[:-1], "section 'w_hidden' has a row of 3 numbers, expected 4 "
                               r"for shape \(3, 4\)"),
    ], ids=["bad-number", "extra-column", "missing-column"])
    def test_bad_row_named_at_its_own_line(self, tmp_path, edit, message):
        # Line 8 is the third row of w_hidden, not the section's first (line 6).
        path = tmp_path / "net.txt"
        save_toynet(toynet_init(4, 3, SMALL, seed=0), path)
        lines = path.read_text().splitlines()
        assert lines[4] == "w_hidden"
        lines[7] = " ".join(edit(lines[7].split()))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f":8: {message}$"):
            load_toynet(path)
