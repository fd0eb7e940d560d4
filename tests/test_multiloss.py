import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poselab.multiloss import (
    AdamState,
    AngleHeadOutput,
    AngleOutOfRangeError,
    BinSpec,
    MultiLossConfig,
    ShapeMismatchError,
    ToyNet,
    TrainingDivergedError,
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

    def test_zero_at_perfect_prediction(self):
        logits = np.zeros((3, 2))
        logits[:, 0] = 600.0
        grad = multi_loss_gradient(logits, EulerAngles(-1.5, -1.5, -1.5), TWO_BIN, MultiLossConfig(alpha=1.0))
        assert np.max(np.abs(grad)) < 1e-9


class TestToyNet:
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

    def test_bad_activation(self):
        with pytest.raises(ValueError):
            toynet_init(5, 4, SMALL, activation="sigmoid")

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

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_backward_matches_finite_differences(self, activation):
        rng = np.random.default_rng(4)
        net = toynet_init(5, 4, SMALL, seed=3, activation=activation)
        # non-trivial heads and biases so every gradient path is exercised
        net.w_heads += rng.normal(scale=0.5, size=net.w_heads.shape)
        net.b_heads += rng.normal(scale=0.5, size=net.b_heads.shape)
        net.b_hidden += rng.normal(scale=0.3, size=net.b_hidden.shape)
        x = rng.normal(size=(3, 5)) + 0.05  # keep relu away from its kink
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

    def test_matches_textbook_update_in_place(self):
        rng = np.random.default_rng(3)
        params = {"w": rng.normal(size=(5, 4)), "b": rng.normal(size=4)}
        state = AdamState(lr=0.01)
        b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
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


def linear_dataset(n, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(-1.0, 1.0, size=(n, 6))
    return [
        (x, EulerAngles(30.0 * x[0], 20.0 * x[1], 10.0 * x[2]))
        for x in xs
    ]


class TestTrainToy:
    def test_learns_linear_targets(self):
        net, history = train_toy(
            linear_dataset(400), epochs=8, seed=0, hidden_size=32, batch_size=32
        )
        assert len(history) == 9
        assert history[0]["epoch"] == 0
        assert history[-1]["epoch"] == 8
        assert history[-1]["val_mae"] < history[0]["val_mae"] * 0.6
        x, target = linear_dataset(400)[0]
        decoded = predict_angles(net, x)
        assert abs(decoded[0] - target.yaw) < 15.0

    def test_untrained_row_reflects_zero_decode(self):
        _, history = train_toy(linear_dataset(100), epochs=0, seed=0, hidden_size=8)
        # untrained network decodes 0 for every angle, so the MAE is the
        # mean absolute target
        targets = np.array([[t.yaw, t.pitch, t.roll] for _, t in linear_dataset(100)])
        assert len(history) == 1
        assert history[0]["train_mae"] == pytest.approx(np.mean(np.abs(targets)), rel=0.3)

    def test_deterministic(self):
        _, h1 = train_toy(linear_dataset(120), epochs=2, seed=7, hidden_size=8)
        _, h2 = train_toy(linear_dataset(120), epochs=2, seed=7, hidden_size=8)
        _, h3 = train_toy(linear_dataset(120), epochs=2, seed=8, hidden_size=8)
        assert h1 == h2
        assert h1 != h3

    def test_no_validation_split(self):
        _, history = train_toy(linear_dataset(50), epochs=1, seed=0, hidden_size=8, val_fraction=0.0)
        assert math.isnan(history[0]["val_mae"])
        assert math.isfinite(history[0]["train_mae"])

    def test_empty_dataset(self):
        with pytest.raises(ValueError):
            train_toy([], epochs=1)

    def test_out_of_range_target_rejected_before_training(self):
        data = [(np.zeros(4), EulerAngles(99.0, 0.0, 0.0))]
        with pytest.raises(AngleOutOfRangeError):
            train_toy(data, epochs=1)

    def test_augment_hook_changes_training(self):
        data = linear_dataset(120)

        def noisy(batch, rng):
            return batch + rng.normal(scale=0.5, size=batch.shape)

        _, plain = train_toy(data, epochs=2, seed=0, hidden_size=8)
        _, augmented = train_toy(data, epochs=2, seed=0, hidden_size=8, augment=noisy)
        assert plain != augmented

    def test_augment_shape_checked(self):
        def broken(batch, rng):
            return batch[:, :2]

        with pytest.raises(ShapeMismatchError):
            train_toy(linear_dataset(40), epochs=1, seed=0, hidden_size=8, augment=broken)

    def test_divergence_detected(self):
        def poison(batch, rng):
            return np.full_like(batch, np.inf)

        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(TrainingDivergedError):
            train_toy(linear_dataset(40), epochs=1, seed=0, hidden_size=8, augment=poison)


class TestSaveLoadToyNet:
    def test_round_trip_exact(self, tmp_path):
        net, _ = train_toy(linear_dataset(60), epochs=1, seed=0, hidden_size=8)
        path = tmp_path / "net.txt"
        save_toynet(net, path)
        back = load_toynet(path)
        assert np.array_equal(back.w_hidden, net.w_hidden)
        assert np.array_equal(back.b_hidden, net.b_hidden)
        assert np.array_equal(back.w_heads, net.w_heads)
        assert np.array_equal(back.b_heads, net.b_heads)
        assert back.activation == net.activation
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

    def test_corrupt_number(self, tmp_path):
        net = toynet_init(4, 3, SMALL, seed=0)
        path = tmp_path / "net.txt"
        save_toynet(net, path)
        text = path.read_text().replace("0 ", "x ", 1)
        path.write_text(text)
        with pytest.raises(ValueError):
            load_toynet(path)
