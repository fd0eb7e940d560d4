"""Binned angle heads and the combined classification + regression loss.

Angles are classified into fixed-width bins via softmax; a continuous
estimate is decoded as the probability-weighted mean of the bin centers.
The training loss per angle is cross-entropy on the true bin plus
alpha * (decoded - target)^2, summed over yaw, pitch, roll; one core
computes it and its gradient for single samples and batches.  One rule,
_bin_indices, bins a whole array of angles; bin_angle, the loss API and
train_toy all bin through it.  Also ships a small dense network (one
tanh hidden layer, three angle heads), manual backprop, a bias-corrected
Adam optimizer, and a text serialization format, so the loss can be
exercised end to end without any ML framework.

The network keeps its parameters in one flat float64 vector, and the four
named arrays are views into it.  Private helpers do the maths once:
_hidden_activations (the tanh layer, one array), _head_logits (one
matmul per head) and _backward_into (gradients written into given
arrays, from the inputs and the hidden layer alone).  toynet_forward and
toynet_backward are thin checked wrappers over them.  train_toy takes the
arrays a dataset already is, inputs (B, ...) and targets (B, 3) in
degrees, and calls the helpers directly, so each step computes the hidden
layer once, writes the gradients into one flat vector laid out like the
parameters, and makes one adam_step on the pair {"flat": ...}.

train_toy trains on every sample it is given and holds none out: the
caller splits its dataset (the studies and the CLI by
harness._train_val_split) and may pass the held-out rows as held_out.
Its history holds only their MAE per epoch, by the wrap-aware
rotmath.angle_error the studies score with.  It draws one permutation of
the samples before the net's initial seed, which it uses for nothing but
the order every epoch's shuffle permutes; dropping that draw would move
every trained net.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rotmath import EulerAngles, _check_count, _check_real, _is_integer, _is_real, angle_error

__all__ = [
    "AdamState",
    "AngleHeadOutput",
    "AngleLossTerms",
    "AngleOutOfRangeError",
    "BinSpec",
    "MultiLossConfig",
    "ShapeMismatchError",
    "ToyNet",
    "TrainingDivergedError",
    "adam_step",
    "bin_angle",
    "cross_entropy",
    "expected_angle",
    "load_toynet",
    "multi_loss",
    "multi_loss_gradient",
    "predict_angles",
    "save_toynet",
    "softmax",
    "toynet_backward",
    "toynet_forward",
    "toynet_init",
    "train_toy",
]

TOYNET_MAGIC = "TOYNET1"


class AngleOutOfRangeError(ValueError):
    """Angle falls outside the binnable [min_angle, max_angle) range."""


class ShapeMismatchError(ValueError):
    """Array shape inconsistent with the network or its gradients."""


class TrainingDivergedError(RuntimeError):
    """Loss or parameters became non-finite during training."""


@dataclass(frozen=True)
class BinSpec:
    """Uniform angle bins; bin i covers [min + i*w, min + (i+1)*w).

    num_bins and centers (center_i = min + (i+0.5)*w) are derived; the
    width must tile the range into at least 2 whole bins.
    """

    min_angle: float = -99.0
    max_angle: float = 99.0
    bin_width: float = 3.0

    def __post_init__(self):
        values = (self.min_angle, self.max_angle, self.bin_width)
        if not all(map(_is_real, values)):
            raise ValueError(f"bin spec must be finite, got {values}")
        if self.bin_width <= 0.0:
            raise ValueError(f"bin_width must be positive, got {self.bin_width}")
        ratio = (self.max_angle - self.min_angle) / self.bin_width
        num_bins = int(round(ratio))
        if num_bins < 2 or abs(ratio - num_bins) > 1e-9:
            raise ValueError(
                f"bin_width {self.bin_width} must split [{self.min_angle}, "
                f"{self.max_angle}] into >= 2 whole bins"
            )
        centers = self.min_angle + (np.arange(num_bins) + 0.5) * self.bin_width
        centers.flags.writeable = False
        object.__setattr__(self, "num_bins", num_bins)
        object.__setattr__(self, "centers", centers)


@dataclass(frozen=True)
class MultiLossConfig:
    """alpha weights the squared-error term; cross-entropy has unit weight."""

    alpha: float = 2.0

    def __post_init__(self):
        _check_real("alpha", self.alpha, 0)


@dataclass(frozen=True, eq=False)
class AngleHeadOutput:
    """Raw head logits, shape (3, num_bins); rows are yaw, pitch, roll."""

    logits: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.logits, dtype=float)
        if z.ndim != 2 or z.shape[0] != 3:
            raise ValueError(f"logits must have shape (3, num_bins), got {z.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("logits must be finite")
        object.__setattr__(self, "logits", z.copy())


@dataclass(frozen=True)
class AngleLossTerms:
    """Loss pieces for one angle: total = cross_entropy + alpha * squared_error."""

    cross_entropy: float
    squared_error: float
    total: float


def _bin_indices(angles, spec: BinSpec) -> np.ndarray:
    """Bin index of every angle, as an integer array of the same shape.

    floor((angle - min) / width), capped at num_bins - 1; raises
    AngleOutOfRangeError for the first angle (in C order) outside
    [min, max), NaN included.
    """
    a = np.asarray(angles, dtype=float)
    outside = ~((a >= spec.min_angle) & (a < spec.max_angle))
    if outside.any():
        angle = float(a.flat[np.argmax(outside)])
        raise AngleOutOfRangeError(
            f"angle {angle} outside [{spec.min_angle}, {spec.max_angle})"
        )
    idx = np.floor((a - spec.min_angle) / spec.bin_width).astype(np.intp)
    return np.minimum(idx, spec.num_bins - 1)


def bin_angle(angle: float, spec: BinSpec) -> int:
    """Bin index of an angle; raises AngleOutOfRangeError outside [min, max)."""
    return int(_bin_indices(angle, spec))


def softmax(logits) -> np.ndarray:
    """Probabilities along the last axis, computed with max subtraction."""
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    return _softmax(z)


def _softmax(z: np.ndarray) -> np.ndarray:
    # Unchecked: non-finite logits give NaN rows instead of an error.
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _neg_log(p):
    """-log p elementwise; inf where p is 0."""
    with np.errstate(divide="ignore"):
        return -np.log(p)


def cross_entropy(probabilities, target_bin: int) -> float:
    """-log p[target_bin] for a 1-D probability vector; inf when p is 0."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D probability vector, got shape {p.shape}")
    if not _is_integer(target_bin):
        raise ValueError(f"target_bin must be an integer, got {target_bin!r}")
    if not 0 <= target_bin < p.shape[0]:
        raise ValueError(f"target bin {target_bin} outside [0, {p.shape[0]})")
    # numpy's log, like the loss core: math.log can differ in the last bit
    return float(_neg_log(max(float(p[target_bin]), 0.0)))


def expected_angle(probabilities, spec: BinSpec):
    """Probability-weighted mean of bin centers; last axis must be bins."""
    p = np.asarray(probabilities, dtype=float)
    if p.shape[-1] != spec.num_bins:
        raise ValueError(f"expected {spec.num_bins} bins, got {p.shape[-1]}")
    if not np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-9):  # a NaN sum fails too
        raise ValueError("probabilities must sum to 1 within 1e-9")
    out = p @ spec.centers
    return float(out) if np.ndim(out) == 0 else out


def _loss_terms(logits, target_bins, target_angles, spec: BinSpec, alpha: float):
    """Per-angle cross-entropy and squared error, both (..., 3), and
    d(CE + alpha * SE)/d(logits) for unchecked (..., 3, nb) logits.

    Per angle with probabilities p, decoded angle E and target t:
    dL/dz_j = (p_j - [j = target bin]) + 2*alpha*(E - t) * p_j * (c_j - E).
    """
    p = _softmax(logits)
    picked = np.take_along_axis(p, target_bins[..., None], axis=-1)
    decoded = p @ spec.centers
    gap = decoded - target_angles
    grad = p.copy()
    np.put_along_axis(grad, target_bins[..., None], picked - 1.0, axis=-1)
    grad += (2.0 * alpha) * gap[..., None] * p * (spec.centers - decoded[..., None])
    return _neg_log(picked[..., 0]), gap * gap, grad


def _checked_sample(output, target: EulerAngles, spec: BinSpec):
    logits = output.logits if isinstance(output, AngleHeadOutput) else AngleHeadOutput(output).logits
    if logits.shape[1] != spec.num_bins:
        raise ValueError(f"logits have {logits.shape[1]} bins, spec has {spec.num_bins}")
    angles = target.as_array()
    return logits, _bin_indices(angles, spec), angles


def multi_loss(output, target: EulerAngles, spec: BinSpec, config: MultiLossConfig):
    """Total loss and per-angle breakdown for one prediction.

    Per angle: cross_entropy(softmax(logits), target bin) plus
    config.alpha times the squared gap between the decoded angle and the
    continuous target, in degrees.  Total sums yaw, pitch, roll.
    """
    ce, se, _ = _loss_terms(*_checked_sample(output, target, spec), spec, config.alpha)
    breakdown = tuple(AngleLossTerms(float(c), float(e), float(c + config.alpha * e))
                      for c, e in zip(ce, se))
    total = breakdown[0].total + breakdown[1].total + breakdown[2].total
    return total, breakdown


def multi_loss_gradient(output, target: EulerAngles, spec: BinSpec, config: MultiLossConfig) -> np.ndarray:
    """Exact d(multi_loss)/d(logits), shape (3, num_bins)."""
    return _loss_terms(*_checked_sample(output, target, spec), spec, config.alpha)[2]


def _batch_loss_and_grad(logits, target_bins, target_angles, spec, alpha):
    """Mean-over-batch total loss and its gradient w.r.t. (B, 3, nb) logits."""
    ce, se, grad = _loss_terms(logits, target_bins, target_angles, spec, alpha)
    return float(np.mean((ce + alpha * se).sum(axis=-1))), grad / len(logits)


@dataclass(eq=False)
class ToyNet:
    """One tanh hidden layer feeding three independent linear angle heads.

    The four parameter arrays are views into one float64 vector, the
    attribute flat, laid out as w_hidden, b_hidden, w_heads, b_heads.  The
    net copies the arrays it is built from into that vector, so update the
    parameters in place; assigning a new array to one of them detaches it
    from flat.
    """

    w_hidden: np.ndarray  # (hidden, input_dim)
    b_hidden: np.ndarray  # (hidden,)
    w_heads: np.ndarray   # (3, num_bins, hidden)
    b_heads: np.ndarray   # (3, num_bins)
    spec: BinSpec

    def __post_init__(self):
        self.w_hidden = np.asarray(self.w_hidden, dtype=float)
        self.b_hidden = np.asarray(self.b_hidden, dtype=float)
        self.w_heads = np.asarray(self.w_heads, dtype=float)
        self.b_heads = np.asarray(self.b_heads, dtype=float)
        if self.w_hidden.ndim != 2:
            raise ShapeMismatchError(f"w_hidden must be (hidden, input_dim), got {self.w_hidden.shape}")
        hidden = len(self.w_hidden)
        if self.b_hidden.shape != (hidden,):
            raise ShapeMismatchError(f"b_hidden {self.b_hidden.shape} vs hidden size {hidden}")
        if self.w_heads.ndim != 3 or self.w_heads.shape[0] != 3 or self.w_heads.shape[2] != hidden:
            raise ShapeMismatchError(f"w_heads must be (3, num_bins, {hidden}), got {self.w_heads.shape}")
        if self.b_heads.shape != self.w_heads.shape[:2]:
            raise ShapeMismatchError(f"b_heads {self.b_heads.shape} vs w_heads {self.w_heads.shape}")
        if self.w_heads.shape[1] != self.spec.num_bins:
            raise ShapeMismatchError(
                f"heads emit {self.w_heads.shape[1]} logits, bin spec has {self.spec.num_bins}"
            )
        self.flat = np.concatenate([p.ravel() for p in self.parameters().values()])
        for name, view in self._views(self.flat).items():
            setattr(self, name, view)

    @property
    def input_dim(self) -> int:
        return self.w_hidden.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def num_bins(self) -> int:
        return self.w_heads.shape[1]

    def parameters(self) -> dict:
        """Live references to the four parameter arrays, keyed by name."""
        return {
            "w_hidden": self.w_hidden,
            "b_hidden": self.b_hidden,
            "w_heads": self.w_heads,
            "b_heads": self.b_heads,
        }

    def _views(self, flat: np.ndarray) -> dict:
        """Parameter-shaped views into a vector laid out like self.flat."""
        views, start = {}, 0
        for name, p in self.parameters().items():
            views[name] = flat[start:start + p.size].reshape(p.shape)
            start += p.size
        return views


def toynet_init(input_dim: int, hidden_size: int, spec: BinSpec, seed=0) -> ToyNet:
    """Uniform Xavier hidden weights, zero biases and zero head weights.

    Zero heads mean the untrained network emits equal logits, so it
    decodes to the center of mass of the bins (0 degrees for a
    symmetric spec).
    """
    _check_count("input_dim", input_dim, 1)
    _check_count("hidden_size", hidden_size, 1)
    rng = np.random.default_rng(seed)
    bound = math.sqrt(6.0 / (input_dim + hidden_size))
    w_hidden = rng.uniform(-bound, bound, size=(hidden_size, input_dim))
    return ToyNet(
        w_hidden,
        np.zeros(hidden_size),
        np.zeros((3, spec.num_bins, hidden_size)),
        np.zeros((3, spec.num_bins)),
        spec,
    )


def _batch_input(net: ToyNet, inputs):
    """The inputs as a float array and as a (B, input_dim) batch."""
    x = np.asarray(inputs, dtype=float)
    x2 = x[None, :] if x.ndim == 1 else x
    if x2.ndim != 2 or x2.shape[1] != net.input_dim:
        raise ShapeMismatchError(f"input shape {x.shape} vs network input_dim {net.input_dim}")
    return x, x2


def _hidden_activations(net: ToyNet, x2d: np.ndarray) -> np.ndarray:
    """tanh(x2d @ w_hidden.T + b_hidden), the (B, hidden) hidden layer."""
    h = x2d @ net.w_hidden.T + net.b_hidden
    return np.tanh(h, out=h)


def _head_logits(net: ToyNet, h: np.ndarray) -> np.ndarray:
    """(B, 3, num_bins) logits of the three heads, one matmul per head.

    One (B, hidden) @ (hidden, 3 * num_bins) product would do the same
    work, but OpenBLAS splits that shape differently with 1 and 2 threads
    and its last bits change with the thread count; the per-head shape
    does not, so trained rows stay byte-identical across thread counts.
    """
    logits = np.empty((len(h), 3, net.num_bins))
    for k in range(3):
        np.matmul(h, net.w_heads[k].T, out=logits[:, k])
    logits += net.b_heads
    return logits


def _backward_into(net: ToyNet, x2d, h, dlogits, grads: dict) -> None:
    """Write the batch-summed parameter gradients into the arrays of grads.

    h is _hidden_activations(net, x2d); dlogits is (B, 3, nb).  The tanh
    derivative is 1 - h^2, so the pre-activations are not needed.  The
    grads arrays must be C-contiguous so the reshapes below are views.
    """
    g = dlogits.reshape(len(x2d), -1)
    np.matmul(g.T, h, out=grads["w_heads"].reshape(g.shape[1], -1))
    np.sum(g, axis=0, out=grads["b_heads"].reshape(-1))
    dpre = g @ net.w_heads.reshape(g.shape[1], -1)
    dpre *= 1.0 - h * h
    np.matmul(dpre.T, x2d, out=grads["w_hidden"])
    np.sum(dpre, axis=0, out=grads["b_hidden"])


def toynet_forward(net: ToyNet, inputs):
    """Logits for one input (returns AngleHeadOutput) or a batch.

    A (D,) input yields an AngleHeadOutput; a (B, D) batch yields the
    raw (B, 3, num_bins) logit array.
    """
    x, x2 = _batch_input(net, inputs)
    logits = _head_logits(net, _hidden_activations(net, x2))
    if x.ndim == 1:
        return AngleHeadOutput(logits[0])
    return logits


def toynet_backward(net: ToyNet, inputs, dlogits) -> dict:
    """Parameter gradients given d(loss)/d(logits), summed over the batch.

    Accepts a single sample ((D,) input with (3, num_bins) dlogits) or a
    batch ((B, D) with (B, 3, num_bins)).
    """
    x, x2 = _batch_input(net, inputs)
    g = dlogits.logits if isinstance(dlogits, AngleHeadOutput) else np.asarray(dlogits, dtype=float)
    g3 = g[None] if x.ndim == 1 else g
    if g3.shape != (len(x2), 3, net.num_bins):
        raise ShapeMismatchError(f"dlogits shape {g.shape} vs ({len(x2)}, 3, {net.num_bins})")
    grads = net._views(np.empty_like(net.flat))
    _backward_into(net, x2, _hidden_activations(net, x2), g3, grads)
    return grads


def predict_angles(net: ToyNet, inputs):
    """Decoded (yaw, pitch, roll) degrees for one input or a batch."""
    out = toynet_forward(net, inputs)
    z = out.logits if isinstance(out, AngleHeadOutput) else out
    return softmax(z) @ net.spec.centers


# Adam's moment decay rates and the denominator's guard, as Kingma & Ba set them.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# adam_step updates a parameter in slices of at most this many elements
# (whole rows along its first axis, at least one), so the arrays each of
# its passes reads and writes stay in cache rather than streaming the
# whole parameter thirteen times.
ADAM_BLOCK = 32768


@dataclass(eq=False)
class AdamState:
    """Bias-corrected Adam accumulators, keyed like the parameter dict.

    scratch holds two block-sized work arrays per name (see ADAM_BLOCK),
    reused by every step and every block instead of allocating the
    temporaries afresh.
    """

    lr: float = 1e-3
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    scratch: dict = field(default_factory=dict, repr=False)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One in-place Adam update of every parameter array; grads are only read.

    Each parameter is updated one block of rows at a time (at most
    ADAM_BLOCK elements, or one row if a row is longer); every element
    sees the textbook operations in the textbook order, so the result is
    the unblocked update's, bit for bit.
    """
    if set(params) != set(grads):
        raise ShapeMismatchError("params and grads must have identical keys")
    state.step += 1
    correction1 = 1.0 - ADAM_BETA1 ** state.step
    correction2 = 1.0 - ADAM_BETA2 ** state.step
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=float)
        if g.shape != p.shape:
            raise ShapeMismatchError(f"{name}: gradient shape {g.shape} vs parameter {p.shape}")
        # Moments and work arrays are allocated once per name; setdefault
        # would build (and discard) new arrays on every step.
        for moments in (state.m, state.v):
            if name not in moments:
                moments[name] = np.zeros_like(p)
        # A slice along the first axis is a view whatever the layout, so
        # every block is updated in place; a 0-d parameter is one block.
        p, g, m, v = (np.atleast_1d(a) for a in (p, g, state.m[name], state.v[name]))
        rows = max(1, min(len(p), ADAM_BLOCK // max(math.prod(p.shape[1:]), 1)))
        if name not in state.scratch:
            state.scratch[name] = (np.empty((rows, *p.shape[1:])), np.empty((rows, *p.shape[1:])))
        work_a, work_b = state.scratch[name]
        for start in range(0, len(p), rows):
            block = slice(start, start + rows)
            pb, gb, mb, vb = p[block], g[block], m[block], v[block]
            a, b = work_a[:len(pb)], work_b[:len(pb)]
            # The textbook update, operation for operation, with out= into a, b:
            # m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
            # p -= lr * (m/c1) / (sqrt(v/c2) + eps).
            mb *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, gb, out=a)
            mb += a
            vb *= ADAM_BETA2
            np.multiply(gb, gb, out=a)
            np.multiply(1.0 - ADAM_BETA2, a, out=a)
            vb += a
            np.divide(vb, correction2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            np.divide(mb, correction1, out=a)
            np.multiply(state.lr, a, out=a)
            np.divide(a, b, out=a)
            pb -= a


def _sample_rows(inputs, targets, which: str = ""):
    """inputs as float (B, D) rows, each sample flattened, and targets as
    float (B, 3); raises unless there is a sample and a target row per
    sample.  which prefixes the argument names in the messages."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if inputs.ndim == 0 or len(inputs) == 0:
        raise ValueError(f"{which}inputs must be a nonempty (B, ...) array, got shape {inputs.shape}")
    if targets.shape != (len(inputs), 3):
        raise ShapeMismatchError(f"{which}targets shape {targets.shape} vs ({len(inputs)}, 3)")
    return inputs.reshape(len(inputs), -1), targets


def train_toy(inputs, targets, config: MultiLossConfig | None = None, epochs: int = 30,
              seed=0, hidden_size: int = 128, batch_size: int = 32, lr: float = 1e-3,
              held_out=None, augment=None):
    """Train a tanh ToyNet on the default BinSpec on every given sample.

    inputs is (B, ...), one sample per row, each flattened to a vector
    (a C-contiguous float64 array is used as it is, not copied); targets
    is (B, 3): yaw, pitch and roll in degrees.  Every target is binned
    before the first training step.  held_out, when given, is a pair
    (inputs, targets) of samples the net does not train on, shaped like
    the training ones.  Returns (net, history); history rows are dicts
    with keys epoch and val_mae, starting with an epoch-0 row for the
    untrained network.  val_mae is the mean wrap-aware angle_error, in
    degrees, of the decoded held-out angles over samples and angles, the
    error the studies score a net by; it is NaN without held_out.
    augment, when given, is called as augment(batch, rng) on every
    training mini-batch and must return an equally-shaped array.  Fully
    deterministic for a fixed seed.
    """
    if config is None:
        config = MultiLossConfig()
    spec = BinSpec()
    inputs, targets = _sample_rows(inputs, targets)
    if held_out is not None:
        # A feature width unlike the training samples' fails the epoch-0 score.
        val_inputs, val_targets = _sample_rows(*held_out, "held-out ")
        if not np.all(np.isfinite(val_targets)):
            raise ValueError("held-out targets must be finite")
    _check_count("epochs", epochs, 0)
    _check_count("batch_size", batch_size, 1)
    _check_real("lr", lr, 0, strict=True)
    target_bins = _bin_indices(targets, spec)

    rng = np.random.default_rng(seed)
    # The net's initial seed is drawn after this permutation and every
    # epoch shuffles it; dropping the draw would move every trained net.
    order = rng.permutation(len(inputs))
    net = toynet_init(inputs.shape[1], hidden_size, spec, seed=int(rng.integers(2 ** 63)))
    # One gradient vector laid out like net.flat, so one Adam step covers
    # every parameter.
    grad_flat = np.empty_like(net.flat)
    grads = net._views(grad_flat)
    state = AdamState(lr=lr)

    def val_mae() -> float:
        if held_out is None:
            return math.nan
        return float(np.mean(angle_error(predict_angles(net, val_inputs), val_targets)))

    history = [{"epoch": 0, "val_mae": val_mae()}]
    for epoch in range(1, epochs + 1):
        shuffled = rng.permutation(order)
        for start in range(0, len(shuffled), batch_size):
            batch = shuffled[start:start + batch_size]
            xb = inputs[batch]
            if augment is not None:
                xb = np.asarray(augment(xb, rng), dtype=float)
                if xb.shape != (len(batch), inputs.shape[1]):
                    raise ShapeMismatchError(f"augment returned shape {xb.shape}")
            h = _hidden_activations(net, xb)
            loss, dlogits = _batch_loss_and_grad(_head_logits(net, h), target_bins[batch],
                                                 targets[batch], spec, config.alpha)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            _backward_into(net, xb, h, dlogits, grads)
            adam_step({"flat": net.flat}, {"flat": grad_flat}, state)
        if not np.all(np.isfinite(net.flat)):
            raise TrainingDivergedError(f"non-finite parameters after epoch {epoch}")
        history.append({"epoch": epoch, "val_mae": val_mae()})
    return net, history


def save_toynet(net: ToyNet, path) -> None:
    """Versioned plain-text dump; exact float round-trip via %.17g."""
    spec = net.spec
    lines = [
        TOYNET_MAGIC,
        "activation tanh",
        f"bins {spec.min_angle:.17g} {spec.max_angle:.17g} {spec.bin_width:.17g}",
        f"shape {net.input_dim} {net.hidden_size}",
    ]
    for name in ("w_hidden", "b_hidden", "w_heads", "b_heads"):
        arr = getattr(net, name)
        lines.append(name)
        for row in arr.reshape(-1, arr.shape[-1]):
            lines.append(" ".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def load_toynet(path) -> ToyNet:
    """Read a save_toynet file; raises ValueError naming the line at fault.

    The header must say "activation tanh" and give sizes >= 1, every number
    must be finite, and nothing but blank lines may follow the b_heads
    section.
    """
    lines = Path(path).read_text().splitlines()

    def fail(lineno, message):
        raise ValueError(f"{path}:{lineno}: {message}")

    if not lines or lines[0].strip() != TOYNET_MAGIC:
        fail(1, f"missing {TOYNET_MAGIC} header")
    try:
        key_a, activation = lines[1].split()
        key_b, bmin, bmax, bwidth = lines[2].split()
        key_s, input_dim, hidden_size = lines[3].split()
        if (key_a, key_b, key_s) != ("activation", "bins", "shape"):
            raise ValueError
        spec = BinSpec(float(bmin), float(bmax), float(bwidth))
        input_dim, hidden_size = int(input_dim), int(hidden_size)
    except (IndexError, ValueError):
        raise ValueError(f"{path}: malformed header") from None
    if activation != "tanh":
        fail(2, f"activation {activation!r} is not supported, ToyNet is tanh only")
    if input_dim < 1 or hidden_size < 1:
        fail(4, f"shape {input_dim} {hidden_size}: input_dim and hidden_size must be >= 1")

    sections = (
        ("w_hidden", (hidden_size, input_dim)),
        ("b_hidden", (1, hidden_size)),
        ("w_heads", (3 * spec.num_bins, hidden_size)),
        ("b_heads", (3, spec.num_bins)),
    )
    arrays = {}
    pos = 4
    for name, (n_rows, n_cols) in sections:
        if pos >= len(lines) or lines[pos].strip() != name:
            fail(pos + 1, f"expected section {name!r}")
        pos += 1
        block = lines[pos:pos + n_rows]
        if len(block) < n_rows:
            fail(len(lines), f"section {name!r} truncated")
        rows = []
        for lineno, line in enumerate(block, start=pos + 1):
            try:
                row = [float(v) for v in line.split()]
            except ValueError:
                fail(lineno, f"bad number in section {name!r}")
            if len(row) != n_cols:
                fail(lineno, f"section {name!r} has a row of {len(row)} numbers, "
                             f"expected {n_cols} for shape {(n_rows, n_cols)}")
            if not all(map(math.isfinite, row)):
                fail(lineno, f"non-finite number in section {name!r}")
            rows.append(row)
        arrays[name] = np.array(rows)
        pos += n_rows
    for lineno in range(pos, len(lines)):
        if lines[lineno].strip():
            fail(lineno + 1, f"unexpected content after section {sections[-1][0]!r}")
    return ToyNet(
        arrays["w_hidden"],
        arrays["b_hidden"].ravel(),
        arrays["w_heads"].reshape(3, spec.num_bins, hidden_size),
        arrays["b_heads"],
        spec,
    )
