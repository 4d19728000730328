"""Dense, dropout and LSTM layers with exact analytic gradients.

All math runs in float64. A layer caches whatever its backward pass needs
during forward (the LSTM can skip that at inference); `backward` writes
parameter gradients into `self.grads` (overwriting, one forward/backward
pair per step). The dense and dropout layers return the gradient with
respect to their input; the LSTM, always a model's first layer, returns
None.

The dense and dropout layers also take a leading member axis, which is how
`nn.fit` trains k same-shaped models in lockstep (see `nn.stack`): a
stacked dense layer holds (k, in, out) weights and a (k, out) bias and maps
(k, B, in) inputs to (k, B, out); a stacked dropout layer holds one
generator per member and draws member j's mask from the j-th. Every
operation keeps member j's bits as its own 2-D layer computes them:
`np.matmul` runs one BLAS call per member on the same operand layouts, the
backward products transpose with `swapaxes(-1, -2)` as the 2-D ones do
with `.T`, and the bias gradient `sum(axis=-2)` is the same sequential sum
over the batch rows.

The LSTM gives the same bytes as the plain per-step recurrence its
docstring writes down (kept as a reference in the tests), by these rules:
- Elementwise ufuncs give the same bits in any memory layout, so the gate
  math runs on a transposed (4H, B) copy of the pre-activations, whose
  gate blocks are contiguous (H, B) rows.
- A GEMM's bits can depend on its operands' layout, so every product keeps
  the reference's: `h @ w_h` in the forward, and `x_t.T @ dz`,
  `h_prev.T @ dz` and `dz @ w_h.T` with a C-contiguous (B, 4H) `dz` in the
  backward. The bias gradient is `dz.sum(axis=0)`, a sequential sum over
  the strided axis; a sum along the contiguous axis would be pairwise.
- The input projection `x @ w_x` runs as one GEMM per block of steps and
  is added as (x_t @ w_x + h @ w_h) + bias. A row of a GEMM keeps its bits
  whatever the row count, except that OpenBLAS computes products with
  M*N*K <= 100**3 in a small-matrix kernel (bits differ at N = 156), so a
  block of several steps stays under that line. A one-row batch keeps the
  per-step product: numpy computes it as a GEMV, whose bits differ from a
  GEMM's.
- The padding carry `m * new + (1 - m) * old` runs at every step, on c
  and h stacked as one (2H, B) plane. Even where every m is 1 it can turn
  a -0.0 state into +0.0, as the reference does, so it is never skipped.
These rules were verified with numpy 2.4.6 on its bundled OpenBLAS
0.3.31.188.0 (scipy-openblas, DYNAMIC_ARCH, SkylakeX kernels) on an
AVX-512 Xeon, with BLAS on one thread. The small-matrix line is that
build's x86 rule; another BLAS, architecture or thread count may move
bits. `test_bytes_match_per_step_reference` in tests/test_nn_layers.py is
the guard: it must pass wherever report hashes are compared.
"""

import math

import numpy as np

from ..errors import ConfigError, ShapeError

ACTIVATIONS = ("sigmoid", "tanh", "relu", "softmax", "identity")

# OpenBLAS's small-matrix line (see above): a hoisted input-projection
# GEMM in the LSTM stays under it
_SMALL_GEMM = 100 ** 3


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, optionally written to `out`."""
    x = np.asarray(x, dtype=np.float64)
    # exp(-|x|) never overflows; min(x, -x) forms -|x| and passes a nan
    # through as it came. The numerator max(e, sign(x)) is 1 for x >= 0 and
    # e below, so the result matches the branch-per-sign form bit for bit
    # (temporaries are allocated as arrays, so a 0-d x works too)
    e = np.negative(x, out=np.empty_like(x))
    np.minimum(x, e, out=e)
    np.exp(e, out=e)
    numerator = np.sign(x, out=np.empty_like(x))
    np.maximum(e, numerator, out=numerator)
    np.add(e, 1.0, out=e)
    return np.divide(numerator, e, out=out)


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

    weights has shape (in_dim, out_dim), bias shape (out_dim,), or (k, ...)
    of each when stacked over k members. Parameters are Glorot-uniform
    initialized, biases zero.
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
        members = self.weights.shape[:-2]
        if (x.ndim != self.weights.ndim or x.shape[:-2] != members
                or x.shape[-1] != self.in_dim):
            raise ShapeError(f"{self!r} expected input of shape "
                             f"({', '.join(map(str, members + ('B',)))}, "
                             f"{self.in_dim}), got array of shape {x.shape}")
        z = x @ self.weights + self.bias[..., None, :]
        a = _apply_activation(self.activation, z)
        self._cache = (x, z, a)
        return a

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise ShapeError(f"{self!r}: backward before forward")
        x, z, a = self._cache
        dz = _activation_input_grad(self.activation, d_out, z, a)
        self.grads["weights"][...] = x.swapaxes(-1, -2) @ dz
        self.grads["bias"][...] = dz.sum(axis=-2)
        return dz @ self.weights.swapaxes(-1, -2)


class DropoutLayer:
    """Inverted dropout: zeroes units with probability `rate` at training
    time and scales survivors by 1/(1-rate), so inference is the identity.

    `rng` draws the masks; a layer stacked over k members holds a sequence
    of k generators instead, and member j's mask comes from the j-th.
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
        if x.ndim == 2:
            draws = self.rng.random(x.shape)
        else:
            draws = np.stack([rng.random(x.shape[1:]) for rng in self.rng])
        keep = draws >= self.rate
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
        n, t_max, d = x.shape
        if lengths.shape != (n,):
            raise ShapeError(f"lengths must have shape ({n},), got {lengths.shape}")
        if (lengths < 1).any() or (lengths > t_max).any():
            raise ShapeError("effective lengths must be in [1, T]")

        hd = self.hidden_dim
        mask = (np.arange(t_max)[:, None] < lengths).astype(np.float64)
        keep = 1.0 - mask
        # `state` stacks c over h as (2H, B), so one carry covers both:
        # every step's when cached, else a ring of two. h is copied into a
        # (B, H) ring for the recurrent GEMM
        slots = t_max + 1 if cache else 2
        state = np.zeros((slots, 2 * hd, n))
        h = np.zeros((2, n, hd))
        acts = np.empty((t_max if cache else 1, 5 * hd, n))
        i, f, o, g, tanh_c = _gate_planes(acts, hd)
        z = np.empty((n, 4 * hd))
        z_t = np.empty((4 * hd, n))
        bias_t = np.tile(self.bias[:, None], (1, n))
        scratch = np.empty((hd, n))
        old = np.empty((2 * hd, n))
        block = max(1, _SMALL_GEMM // (d * 4 * hd) // n)
        for t in range(t_max):
            if n == 1:
                xw = x[:, t, :] @ self.w_x
            else:
                if t % block == 0:
                    rows = x[:, t:t + block].transpose(1, 0, 2).reshape(-1, d)
                    xw_block = (rows @ self.w_x).reshape(-1, n, 4 * hd)
                xw = xw_block[t % block]
            s = t if cache else 0
            prev, cur = (t, t + 1) if cache else (t % 2, 1 - t % 2)
            c_prev, c_cur = state[prev, :hd], state[cur, :hd]
            np.matmul(h[t % 2], self.w_h, out=z)
            np.add(xw, z, out=z)
            np.add(z.T, bias_t, out=z_t)
            sigmoid(z_t[:3 * hd], out=acts[s, :3 * hd])
            np.tanh(z_t[3 * hd:], out=g[s])
            np.multiply(f[s], c_prev, out=c_cur)
            np.multiply(i[s], g[s], out=scratch)
            np.add(c_cur, scratch, out=c_cur)
            np.tanh(c_cur, out=tanh_c[s])
            np.multiply(o[s], tanh_c[s], out=state[cur, hd:])
            # padding carry: new = m * new + (1 - m) * old
            np.multiply(state[cur], mask[t], out=state[cur])
            np.multiply(state[prev], keep[t], out=old)
            np.add(state[cur], old, out=state[cur])
            np.copyto(h[1 - t % 2], state[cur, hd:].T)
        if cache:
            self._cache = {"x": x, "acts": acts, "state": state,
                           "mask": mask, "keep": keep}
        return h[t_max % 2].copy()

    def backward(self, d_final: np.ndarray) -> None:
        """Backpropagation through time from the final hidden state.

        Writes the parameter gradients only: the LSTM is always a model's
        first layer, so no caller reads a gradient for its input.
        """
        if self._cache is None:
            raise ShapeError(f"{self!r}: backward before forward")
        cache = self._cache
        x, acts, state = cache["x"], cache["acts"], cache["state"]
        mask, keep = cache["mask"], cache["keep"]
        n, t_max, _ = x.shape
        hd = self.hidden_dim
        d_final = np.asarray(d_final, dtype=np.float64)
        if d_final.shape != (n, hd):
            raise ShapeError(f"{self!r} expected output gradient ({n}, {hd}), "
                             f"got {d_final.shape}")

        dwx = np.zeros_like(self.w_x)
        dwh = np.zeros_like(self.w_h)
        db = np.zeros_like(self.bias)
        # d(loss)/d(c) over d(loss)/d(h), stacked as the forward's state
        d_state = np.zeros((2 * hd, n))
        dc, dh = d_state[:hd], d_state[hd:]
        np.copyto(dh, d_final.T)
        d_carry = np.empty((2 * hd, n))
        h_prev = np.empty((n, hd))
        dc_raw = np.empty((hd, n))
        one_minus = np.empty((3 * hd, n))
        dz_t = np.empty((4 * hd, n))
        dz = np.empty((n, 4 * hd))
        i, f, o, g, tanh_c = _gate_planes(acts, hd)
        for t in range(t_max - 1, -1, -1):
            np.multiply(d_state, keep[t], out=d_carry)
            np.multiply(d_state, mask[t], out=d_state)
            # rows: 1 - g*g, then 1 - tanh_c*tanh_c
            slope = np.multiply(acts[t, 3 * hd:], acts[t, 3 * hd:])
            np.subtract(1.0, slope, out=slope)
            np.multiply(dh, tanh_c[t], out=dz_t[2 * hd:3 * hd])
            np.multiply(dh, o[t], out=dc_raw)
            np.multiply(dc_raw, slope[hd:], out=dc_raw)
            np.add(dc, dc_raw, out=dc_raw)
            np.multiply(dc_raw, g[t], out=dz_t[:hd])
            np.multiply(dc_raw, state[t, :hd], out=dz_t[hd:2 * hd])
            np.multiply(dc_raw, i[t], out=dz_t[3 * hd:])
            np.multiply(dz_t[:3 * hd], acts[t, :3 * hd], out=dz_t[:3 * hd])
            np.subtract(1.0, acts[t, :3 * hd], out=one_minus)
            np.multiply(dz_t[:3 * hd], one_minus, out=dz_t[:3 * hd])
            np.multiply(dz_t[3 * hd:], slope[:hd], out=dz_t[3 * hd:])
            np.copyto(dz, dz_t.T)
            dwx += x[:, t, :].T @ dz
            # h_{t-1} as a C-contiguous (B, H), the layout the GEMM's bits
            # were checked in
            np.copyto(h_prev, state[t, hd:].T)
            dwh += h_prev.T @ dz
            db += dz.sum(axis=0)
            dh_gemm = dz @ self.w_h.T
            np.multiply(dc_raw, f[t], out=dc)
            np.copyto(dh, dh_gemm.T)
            np.add(d_state, d_carry, out=d_state)
        self.grads["w_x"][...] = dwx
        self.grads["w_h"][...] = dwh
        self.grads["bias"][...] = db


def _gate_planes(acts: np.ndarray, hd: int) -> tuple[np.ndarray, ...]:
    """(steps, H, B) views of the i, f, o, g and tanh(c) rows of `acts`."""
    return tuple(acts[:, k * hd:(k + 1) * hd] for k in range(5))
