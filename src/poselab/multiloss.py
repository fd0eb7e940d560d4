"""Binned angle heads and the combined classification + regression loss.

Angles are classified into fixed-width bins via softmax; a continuous
estimate is decoded as the probability-weighted mean of the bin centers.
The training loss per angle is cross-entropy on the true bin plus
alpha * (decoded - target)^2, summed over yaw, pitch, roll.  Also ships
a small dense network with three angle heads, manual backprop, a
bias-corrected Adam optimizer, and a text serialization format, so the
loss can be exercised end to end without any ML framework.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rotmath import EulerAngles

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
        if not all(math.isfinite(v) for v in values):
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
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise ValueError(f"alpha must be a finite value >= 0, got {self.alpha}")


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


def bin_angle(angle: float, spec: BinSpec) -> int:
    """Bin index of an angle; raises AngleOutOfRangeError outside [min, max)."""
    if not spec.min_angle <= angle < spec.max_angle:
        raise AngleOutOfRangeError(
            f"angle {angle} outside [{spec.min_angle}, {spec.max_angle})"
        )
    idx = int(math.floor((angle - spec.min_angle) / spec.bin_width))
    return min(idx, spec.num_bins - 1)


def softmax(logits) -> np.ndarray:
    """Probabilities along the last axis, computed with max subtraction."""
    z = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(probabilities, target_bin: int) -> float:
    """-log p[target_bin] for a 1-D probability vector; inf when p is 0."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"expected a 1-D probability vector, got shape {p.shape}")
    if not 0 <= target_bin < p.shape[0]:
        raise ValueError(f"target bin {target_bin} outside [0, {p.shape[0]})")
    pt = float(p[target_bin])
    if pt <= 0.0:
        return math.inf
    return -math.log(pt)


def expected_angle(probabilities, spec: BinSpec):
    """Probability-weighted mean of bin centers; last axis must be bins."""
    p = np.asarray(probabilities, dtype=float)
    if p.shape[-1] != spec.num_bins:
        raise ValueError(f"expected {spec.num_bins} bins, got {p.shape[-1]}")
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > 1e-9):
        raise ValueError("probabilities must sum to 1 within 1e-9")
    out = p @ spec.centers
    return float(out) if np.ndim(out) == 0 else out


def _logits_array(output) -> np.ndarray:
    if isinstance(output, AngleHeadOutput):
        return output.logits
    return AngleHeadOutput(output).logits


def multi_loss(output, target: EulerAngles, spec: BinSpec, config: MultiLossConfig):
    """Total loss and per-angle breakdown for one prediction.

    Per angle: cross_entropy(softmax(logits), target bin) plus
    config.alpha times the squared gap between the decoded angle and the
    continuous target, in degrees.  Total sums yaw, pitch, roll.
    """
    logits = _logits_array(output)
    if logits.shape[1] != spec.num_bins:
        raise ValueError(f"logits have {logits.shape[1]} bins, spec has {spec.num_bins}")
    breakdown = []
    for row, target_value in zip(logits, (target.yaw, target.pitch, target.roll)):
        target_bin = bin_angle(target_value, spec)
        p = softmax(row)
        ce = cross_entropy(p, target_bin)
        gap = expected_angle(p, spec) - target_value
        se = gap * gap
        breakdown.append(AngleLossTerms(ce, se, ce + config.alpha * se))
    total = breakdown[0].total + breakdown[1].total + breakdown[2].total
    return total, tuple(breakdown)


def multi_loss_gradient(output, target: EulerAngles, spec: BinSpec, config: MultiLossConfig) -> np.ndarray:
    """Exact d(multi_loss)/d(logits), shape (3, num_bins).

    Per angle with probabilities p, decoded angle E and target t:
    dL/dz_j = (p_j - [j = target bin]) + 2*alpha*(E - t) * p_j * (c_j - E).
    """
    logits = _logits_array(output)
    if logits.shape[1] != spec.num_bins:
        raise ValueError(f"logits have {logits.shape[1]} bins, spec has {spec.num_bins}")
    grad = np.empty_like(logits)
    for i, (row, target_value) in enumerate(zip(logits, (target.yaw, target.pitch, target.roll))):
        target_bin = bin_angle(target_value, spec)
        p = softmax(row)
        decoded = float(p @ spec.centers)
        g = p.copy()
        g[target_bin] -= 1.0
        g += 2.0 * config.alpha * (decoded - target_value) * p * (spec.centers - decoded)
        grad[i] = g
    return grad


def _batch_loss_and_grad(logits, target_bins, target_angles, spec, alpha):
    """Mean-over-batch total loss and its gradient w.r.t. (B, 3, nb) logits."""
    n = logits.shape[0]
    z = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    log_p = z - log_norm
    p = np.exp(log_p)
    picked = np.take_along_axis(log_p, target_bins[..., None], axis=-1)[..., 0]
    decoded = p @ spec.centers
    gap = decoded - target_angles
    loss = float(np.mean((-picked + alpha * gap * gap).sum(axis=1)))
    grad = p.copy()
    grad[np.arange(n)[:, None], np.arange(3)[None, :], target_bins] -= 1.0
    grad += (2.0 * alpha) * gap[..., None] * p * (spec.centers[None, None, :] - decoded[..., None])
    return loss, grad / n


@dataclass(eq=False)
class ToyNet:
    """One dense hidden layer feeding three independent linear angle heads."""

    w_hidden: np.ndarray  # (hidden, input_dim)
    b_hidden: np.ndarray  # (hidden,)
    w_heads: np.ndarray   # (3, num_bins, hidden)
    b_heads: np.ndarray   # (3, num_bins)
    spec: BinSpec
    activation: str = "tanh"

    def __post_init__(self):
        self.w_hidden = np.array(self.w_hidden, dtype=float)
        self.b_hidden = np.array(self.b_hidden, dtype=float)
        self.w_heads = np.array(self.w_heads, dtype=float)
        self.b_heads = np.array(self.b_heads, dtype=float)
        hidden, _ = self.w_hidden.shape
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
        if self.activation not in ("tanh", "relu"):
            raise ValueError(f"activation must be 'tanh' or 'relu', got {self.activation!r}")

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


def toynet_init(input_dim: int, hidden_size: int, spec: BinSpec, seed=0, activation: str = "tanh") -> ToyNet:
    """Uniform Xavier hidden weights, zero biases and zero head weights.

    Zero heads mean the untrained network emits equal logits, so it
    decodes to the center of mass of the bins (0 degrees for a
    symmetric spec).
    """
    if input_dim < 1 or hidden_size < 1:
        raise ValueError("input_dim and hidden_size must be >= 1")
    rng = np.random.default_rng(seed)
    bound = math.sqrt(6.0 / (input_dim + hidden_size))
    w_hidden = rng.uniform(-bound, bound, size=(hidden_size, input_dim))
    return ToyNet(
        w_hidden,
        np.zeros(hidden_size),
        np.zeros((3, spec.num_bins, hidden_size)),
        np.zeros((3, spec.num_bins)),
        spec,
        activation,
    )


def _hidden_activations(net: ToyNet, x2d: np.ndarray):
    pre = x2d @ net.w_hidden.T + net.b_hidden
    if net.activation == "tanh":
        return pre, np.tanh(pre)
    return pre, np.maximum(pre, 0.0)


def toynet_forward(net: ToyNet, inputs):
    """Logits for one input (returns AngleHeadOutput) or a batch.

    A (D,) input yields an AngleHeadOutput; a (B, D) batch yields the
    raw (B, 3, num_bins) logit array.
    """
    x = np.asarray(inputs, dtype=float)
    single = x.ndim == 1
    x2 = x[None, :] if single else x
    if x2.ndim != 2 or x2.shape[1] != net.input_dim:
        raise ShapeMismatchError(f"input shape {x.shape} vs network input_dim {net.input_dim}")
    _, h = _hidden_activations(net, x2)
    logits = np.einsum("anh,bh->ban", net.w_heads, h) + net.b_heads
    if single:
        return AngleHeadOutput(logits[0])
    return logits


def toynet_backward(net: ToyNet, inputs, dlogits) -> dict:
    """Parameter gradients given d(loss)/d(logits), summed over the batch.

    Accepts a single sample ((D,) input with (3, num_bins) dlogits) or a
    batch ((B, D) with (B, 3, num_bins)).
    """
    x = np.asarray(inputs, dtype=float)
    g = dlogits.logits if isinstance(dlogits, AngleHeadOutput) else np.asarray(dlogits, dtype=float)
    single = x.ndim == 1
    x2 = x[None, :] if single else x
    g3 = g[None] if single else g
    if x2.ndim != 2 or x2.shape[1] != net.input_dim:
        raise ShapeMismatchError(f"input shape {x.shape} vs network input_dim {net.input_dim}")
    if g3.shape != (len(x2), 3, net.num_bins):
        raise ShapeMismatchError(f"dlogits shape {g.shape} vs ({len(x2)}, 3, {net.num_bins})")
    pre, h = _hidden_activations(net, x2)
    d_w_heads = np.einsum("ban,bh->anh", g3, h)
    d_b_heads = g3.sum(axis=0)
    dh = np.einsum("ban,anh->bh", g3, net.w_heads)
    if net.activation == "tanh":
        dpre = dh * (1.0 - h * h)
    else:
        dpre = dh * (pre > 0.0)
    return {
        "w_hidden": dpre.T @ x2,
        "b_hidden": dpre.sum(axis=0),
        "w_heads": d_w_heads,
        "b_heads": d_b_heads,
    }


def predict_angles(net: ToyNet, inputs):
    """Decoded (yaw, pitch, roll) degrees for one input or a batch."""
    out = toynet_forward(net, inputs)
    z = out.logits if isinstance(out, AngleHeadOutput) else out
    return softmax(z) @ net.spec.centers


@dataclass(eq=False)
class AdamState:
    """Bias-corrected Adam accumulators, keyed like the parameter dict."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One in-place Adam update of every parameter array."""
    if set(params) != set(grads):
        raise ShapeMismatchError("params and grads must have identical keys")
    state.step += 1
    correction1 = 1.0 - state.beta1 ** state.step
    correction2 = 1.0 - state.beta2 ** state.step
    for name, p in params.items():
        g = np.asarray(grads[name], dtype=float)
        if g.shape != p.shape:
            raise ShapeMismatchError(f"{name}: gradient shape {g.shape} vs parameter {p.shape}")
        # Moments are allocated once per name; setdefault would build (and
        # discard) a zero array on every step.
        for moments in (state.m, state.v):
            if name not in moments:
                moments[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        # Square root in place: one parameter-sized temporary fewer at peak.
        denom = v / correction2
        np.sqrt(denom, out=denom)
        denom += state.eps
        p -= state.lr * (m / correction1) / denom


def train_toy(dataset, config: MultiLossConfig | None = None, spec: BinSpec | None = None,
              epochs: int = 30, seed=0, hidden_size: int = 128, batch_size: int = 32,
              lr: float = 1e-3, val_fraction: float = 0.2, activation: str = "tanh",
              augment=None):
    """Train a ToyNet on (input vector, EulerAngles) pairs.

    Returns (net, history); history rows are dicts with keys epoch,
    train_mae, val_mae, starting with an epoch-0 row for the untrained
    network.  MAE is decoded-vs-target degrees averaged over samples and
    angles.  augment, when given, is called as augment(batch, rng) on
    every training mini-batch and must return an equally-shaped array.
    Fully deterministic for a fixed seed.
    """
    if config is None:
        config = MultiLossConfig()
    if spec is None:
        spec = BinSpec()
    pairs = list(dataset)
    if not pairs:
        raise ValueError("dataset is empty")
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    if not 0.0 <= val_fraction < 1.0:
        raise ValueError("val_fraction must be in [0, 1)")
    inputs = np.array([np.asarray(x, dtype=float).ravel() for x, _ in pairs])
    targets = np.array([[t.yaw, t.pitch, t.roll] for _, t in pairs])
    target_bins = np.array([[bin_angle(v, spec) for v in row] for row in targets])

    n = len(pairs)
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_val = min(int(round(n * val_fraction)), n - 1)
    val_idx, train_idx = order[:n_val], order[n_val:]
    net = toynet_init(inputs.shape[1], hidden_size, spec, seed=int(rng.integers(2 ** 63)),
                      activation=activation)
    params = net.parameters()
    state = AdamState(lr=lr)

    def mae_over(idx) -> float:
        if len(idx) == 0:
            return math.nan
        decoded = predict_angles(net, inputs[idx])
        return float(np.mean(np.abs(decoded - targets[idx])))

    history = [{"epoch": 0, "train_mae": mae_over(train_idx), "val_mae": mae_over(val_idx)}]
    for epoch in range(1, epochs + 1):
        shuffled = rng.permutation(train_idx)
        for start in range(0, len(shuffled), batch_size):
            batch = shuffled[start:start + batch_size]
            xb = inputs[batch]
            if augment is not None:
                xb = np.asarray(augment(xb, rng), dtype=float)
                if xb.shape != (len(batch), inputs.shape[1]):
                    raise ShapeMismatchError(f"augment returned shape {xb.shape}")
            logits = toynet_forward(net, xb)
            loss, dlogits = _batch_loss_and_grad(logits, target_bins[batch], targets[batch],
                                                 spec, config.alpha)
            if not math.isfinite(loss):
                raise TrainingDivergedError(f"non-finite loss at epoch {epoch}")
            adam_step(params, toynet_backward(net, xb, dlogits), state)
        if not all(np.all(np.isfinite(p)) for p in params.values()):
            raise TrainingDivergedError(f"non-finite parameters after epoch {epoch}")
        history.append({"epoch": epoch, "train_mae": mae_over(train_idx), "val_mae": mae_over(val_idx)})
    return net, history


def save_toynet(net: ToyNet, path) -> None:
    """Versioned plain-text dump; exact float round-trip via %.17g."""
    spec = net.spec
    lines = [
        TOYNET_MAGIC,
        f"activation {net.activation}",
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
    lines = Path(path).read_text().splitlines()

    def fail(lineno, message):
        raise ValueError(f"{path}:{lineno}: {message}")

    if not lines or lines[0].strip() != TOYNET_MAGIC:
        fail(1, f"missing {TOYNET_MAGIC} header")
    try:
        _, activation = lines[1].split()
        _, bmin, bmax, bwidth = lines[2].split()
        _, input_dim, hidden_size = lines[3].split()
        spec = BinSpec(float(bmin), float(bmax), float(bwidth))
        input_dim, hidden_size = int(input_dim), int(hidden_size)
    except (IndexError, ValueError):
        raise ValueError(f"{path}: malformed header") from None

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
        try:
            data = np.array([[float(v) for v in row.split()] for row in block])
        except ValueError:
            fail(pos + 1, f"bad number in section {name!r}")
        if data.shape != (n_rows, n_cols):
            fail(pos + 1, f"section {name!r} has shape {data.shape}, expected {(n_rows, n_cols)}")
        arrays[name] = data
        pos += n_rows
    return ToyNet(
        arrays["w_hidden"],
        arrays["b_hidden"].ravel(),
        arrays["w_heads"].reshape(3, spec.num_bins, hidden_size),
        arrays["b_heads"],
        spec,
        activation,
    )
