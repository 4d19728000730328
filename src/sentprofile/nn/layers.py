"""Dense, dropout and LSTM layers with exact analytic gradients.

All math runs in float64. A layer caches whatever its backward pass needs
during forward (the LSTM can skip that at inference); `backward` writes
parameter gradients into `self.grads` (overwriting, one forward/backward
pair per step) and returns the gradient with respect to the layer input.
"""

import math

import numpy as np

from ..errors import ConfigError, ShapeError

ACTIVATIONS = ("sigmoid", "tanh", "relu", "softmax", "identity")


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows; min(x, -x) forms -|x| and passes a nan
    # through as it came, so the result matches the branch-per-sign form
    # bit for bit
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by the row max for stability."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return sigmoid(z)
    if name == "tanh":
        return np.tanh(z)
    if name == "softmax":
        return softmax(z)
    raise ConfigError(f"unknown activation {name!r}")


def _activation_input_grad(name: str, d_out: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gradient with respect to the pre-activation z given d(loss)/d(a)."""
    if name == "identity":
        return d_out
    if name == "relu":
        return d_out * (z > 0.0)
    if name == "sigmoid":
        return d_out * a * (1.0 - a)
    if name == "tanh":
        return d_out * (1.0 - a * a)
    if name == "softmax":
        # Jacobian-vector product: dz_i = a_i * (d_i - sum_j d_j a_j)
        return a * (d_out - (d_out * a).sum(axis=-1, keepdims=True))
    raise ConfigError(f"unknown activation {name!r}")


class DenseLayer:
    """Fully connected layer: a = activation(x @ weights + bias).

    weights has shape (in_dim, out_dim), bias shape (out_dim,). Parameters
    are Glorot-uniform initialized, biases zero.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str = "identity",
                 rng: np.random.Generator | None = None):
        if activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}")
        if in_dim < 1 or out_dim < 1:
            raise ConfigError("dense layer dimensions must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.weights = _glorot(rng, in_dim, out_dim, (in_dim, out_dim))
        self.bias = np.zeros(out_dim)
        self.grads = {"weights": np.zeros_like(self.weights),
                      "bias": np.zeros_like(self.bias)}
        self._cache = None

    def __repr__(self):
        return f"dense({self.in_dim}->{self.out_dim}, {self.activation})"

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"{self!r} expected input of width {self.in_dim}, "
                             f"got array of shape {x.shape}")
        z = x @ self.weights + self.bias
        a = _apply_activation(self.activation, z)
        self._cache = (x, z, a)
        return a

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError(f"{self!r}: backward before forward")
        x, z, a = self._cache
        dz = _activation_input_grad(self.activation, d_out, z, a)
        self.grads["weights"][...] = x.T @ dz
        self.grads["bias"][...] = dz.sum(axis=0)
        return dz @ self.weights.T


class DropoutLayer:
    """Inverted dropout: zeroes units with probability `rate` at training
    time and scales survivors by 1/(1-rate), so inference is the identity.
    """

    def __init__(self, rate: float, rng: np.random.Generator | None = None):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None

    def __repr__(self):
        return f"dropout({self.rate})"

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = self.rng.random(x.shape) >= self.rate
        self._mask = keep / (1.0 - self.rate)
        return x * self._mask

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return d_out
        return d_out * self._mask


class LSTMLayer:
    """Single LSTM layer consuming zero-padded sequences.

    Gate order in the stacked parameter matrices is [input, forget,
    output, candidate]:

        z_t = x_t @ w_x + h_{t-1} @ w_h + bias          (B, 4H)
        i_t = sigmoid(z[:, 0H:1H])
        f_t = sigmoid(z[:, 1H:2H])
        o_t = sigmoid(z[:, 2H:3H])
        g_t = tanh(z[:, 3H:4H])
        c_t = f_t * c_{t-1} + i_t * g_t
        h_t = o_t * tanh(c_t)

    Steps at or beyond a sample's effective length carry h and c through
    unchanged, so zero padding never moves the state and padded steps
    contribute exactly zero parameter gradient. The forget-gate bias is
    initialized to 1, the other biases to 0.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        if input_dim < 1 or hidden_dim < 1:
            raise ConfigError("lstm dimensions must be >= 1")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        h = hidden_dim
        self.w_x = _glorot(rng, input_dim, h, (input_dim, 4 * h))
        self.w_h = _glorot(rng, h, h, (h, 4 * h))
        self.bias = np.zeros(4 * h)
        self.bias[h:2 * h] = 1.0
        self.grads = {"w_x": np.zeros_like(self.w_x),
                      "w_h": np.zeros_like(self.w_h),
                      "bias": np.zeros_like(self.bias)}
        self._cache = None

    def __repr__(self):
        return f"lstm({self.input_dim}->{self.hidden_dim})"

    def params(self) -> dict[str, np.ndarray]:
        return {"w_x": self.w_x, "w_h": self.w_h, "bias": self.bias}

    def forward(self, x: np.ndarray, lengths: np.ndarray,
                cache: bool = True) -> np.ndarray:
        """Run the recurrence over a batch.

        x: (B, T, input_dim) with zero padding past each sample's length.
        lengths: (B,) ints, 1 <= length <= T.
        Returns the final hidden state (B, hidden_dim). With `cache` the
        per-step gates and states are kept for `backward`; without it the
        call writes nothing to the layer, which is all inference needs.
        """
        x = np.asarray(x, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ShapeError(f"{self!r} expected input (B, T, {self.input_dim}), "
                             f"got shape {x.shape}")
        n, t_max, _ = x.shape
        if lengths.shape != (n,):
            raise ShapeError(f"lengths must have shape ({n},), got {lengths.shape}")
        if (lengths < 1).any() or (lengths > t_max).any():
            raise ShapeError("effective lengths must be in [1, T]")

        hd = self.hidden_dim
        h = np.zeros((n, hd))
        c = np.zeros((n, hd))
        planes = None
        if cache:
            planes = {name: np.empty((t_max, n, hd)) for name in
                      ("i", "f", "o", "g", "tanh_c", "c_prev", "h_prev")}
            planes["mask"] = np.empty((t_max, n, 1))
        for t in range(t_max):
            z = x[:, t, :] @ self.w_x + h @ self.w_h + self.bias
            gates = sigmoid(z[:, :3 * hd])
            i = gates[:, :hd]
            f = gates[:, hd:2 * hd]
            o = gates[:, 2 * hd:3 * hd]
            g = np.tanh(z[:, 3 * hd:])
            c_raw = f * c + i * g
            tanh_c = np.tanh(c_raw)
            h_raw = o * tanh_c
            m = (t < lengths).astype(np.float64)[:, None]
            if planes is not None:
                planes["i"][t] = i
                planes["f"][t] = f
                planes["o"][t] = o
                planes["g"][t] = g
                planes["tanh_c"][t] = tanh_c
                planes["c_prev"][t] = c
                planes["h_prev"][t] = h
                planes["mask"][t] = m
            c = m * c_raw + (1.0 - m) * c
            h = m * h_raw + (1.0 - m) * h
        if planes is not None:
            planes["x"] = x
            self._cache = planes
        return h

    def backward(self, d_final: np.ndarray) -> np.ndarray:
        """Backpropagation through time from the final hidden state.

        Returns the gradient with respect to the input sequence (B, T, d).
        """
        if self._cache is None:
            raise ShapeError(f"{self!r}: backward before forward")
        cache = self._cache
        x = cache["x"]
        n, t_max, _ = x.shape
        hd = self.hidden_dim
        d_final = np.asarray(d_final, dtype=np.float64)
        if d_final.shape != (n, hd):
            raise ShapeError(f"{self!r} expected output gradient ({n}, {hd}), "
                             f"got {d_final.shape}")

        dwx = np.zeros_like(self.w_x)
        dwh = np.zeros_like(self.w_h)
        db = np.zeros_like(self.bias)
        dx = np.zeros_like(x)
        dh = d_final.copy()
        dc = np.zeros((n, hd))
        for t in range(t_max - 1, -1, -1):
            m = cache["mask"][t]
            i, f, o, g = cache["i"][t], cache["f"][t], cache["o"][t], cache["g"][t]
            tanh_c = cache["tanh_c"][t]
            dh_step = dh * m
            dh_carry = dh * (1.0 - m)
            dc_step = dc * m
            dc_carry = dc * (1.0 - m)
            do = dh_step * tanh_c
            dc_raw = dc_step + dh_step * o * (1.0 - tanh_c * tanh_c)
            df = dc_raw * cache["c_prev"][t]
            di = dc_raw * g
            dg = dc_raw * i
            dz = np.empty((n, 4 * hd))
            dz[:, :hd] = di * i * (1.0 - i)
            dz[:, hd:2 * hd] = df * f * (1.0 - f)
            dz[:, 2 * hd:3 * hd] = do * o * (1.0 - o)
            dz[:, 3 * hd:] = dg * (1.0 - g * g)
            dwx += x[:, t, :].T @ dz
            dwh += cache["h_prev"][t].T @ dz
            db += dz.sum(axis=0)
            dx[:, t, :] = dz @ self.w_x.T
            dh = dz @ self.w_h.T + dh_carry
            dc = dc_raw * f + dc_carry
        self.grads["w_x"][...] = dwx
        self.grads["w_h"][...] = dwh
        self.grads["bias"][...] = db
        return dx
