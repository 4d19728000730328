"""Dense, dropout and LSTM layers with exact analytic gradients.

Parameters, their gradients and every dense and dropout layer are
float64. The LSTM computes in the dtype of its input sequences: float32
sequences run the whole kernel (its stacked weight, the gate and state
planes and the backward's working arrays) in float32, and any other input
runs it in float64. Either way it reads the float64 parameters, casting
them once per call, and writes its gradients into the float64 `grads`, so
the optimizer and checkpoints keep float64 master weights (mixed
precision as in Micikevicius et al., arXiv:1710.03740). The pipeline's
word-vector sequences are float32 (see `embed.doc_matrix`).

A layer caches whatever its backward pass needs during a training forward
(the LSTM's `cache=True`). An inference forward caches nothing: a dense
layer drops its cache (a dense backward after it raises ShapeError), a
dropout layer its current mask, and the LSTM writes nothing to the layer,
so a scored model keeps none of its caller's inputs alive. `backward`
writes parameter gradients into `self.grads` (overwriting, one
forward/backward pair per step). The dense and dropout layers return the
gradient with respect to their input, unless `backward(d_out,
input_grad=False)` says nobody reads it: a model's first layer skips that
product (see `Network.backward`). The LSTM, always a model's first layer,
returns None.

A training step allocates little besides the arrays it hands on, with
the bits of the plain step that allocates each one. A dense layer adds
the bias and applies its activation in place on its product, caches
(input, activation) on a training forward, and its backward writes the
gradients straight into the `grads` views. A dropout layer keeps one
mask buffer per input shape (an epoch's short last batch is a second
shape) and refills it at each training forward; an inference forward
leaves the buffers alone. No layer returns one of its buffers, so an
output a caller keeps is never overwritten by a later step.

Output heads are linear (`identity`) dense layers: the model applies
`softmax` or `sigmoid` to their logits (see `nn.losses`).

The dense and dropout layers also take a leading member axis, which is how
`nn.fit` trains k same-shaped models in lockstep (see `nn.stack`): a
stacked dense layer holds (k, in, out) weights and a (k, out) bias and maps
(k, B, in) inputs to (k, B, out); a stacked dropout layer holds one
generator per member and draws member j's mask from the j-th. Every
operation keeps member j's bits as its own 2-D layer computes them:
`np.matmul` runs one BLAS call per member on the same operand layouts, the
backward products transpose with `swapaxes(-1, -2)` as the 2-D ones do
with `.T`, and the bias gradient, an add-reduce over axis -2, is the same
sequential sum over the batch rows.

The LSTM is deterministic on one BLAS build: the same inputs, parameters
and thread count give the same bytes. It does not promise the bits of any
other formulation of the recurrence; the tests hold it within a tolerance
of the plain per-step recurrence its docstring writes down (kept as a
reference in the tests). Its layout, per step t:
- One GEMM gives all four gates' pre-activations: a (4H, H+D+1) weight
  stacking w_h, w_x and the bias, transposed, times a (H+D+1, B) operand
  [h_{t-1}; x_t; 1], written straight into the step's (4H, B) gate plane.
- The sigmoid gates use sigmoid(z) = 1/2 + tanh(z/2)/2. The 1/2 on z is
  folded into the i, f and o rows of the stacked weight (exact: a power of
  two), so one tanh covers all 4H rows.
- c_{t-1} and h_{t-1} sit on top of the operand in one (2H+D+1, B) plane,
  which the step writes c_t and h_t into (the next plane, or the other
  slot of a two-plane ring when nothing is cached).
- Nothing is carried across padding: a sample's final h is copied out at
  its last step, and the backward feeds d_final in there. Its column stays
  exactly zero before that, so the steps past its length add nothing.
- The backward accumulates one stacked weight gradient, dz_t times the
  operand transposed, computes d h_{t-1} = w_h @ dz_t in the (H, B) state
  layout, and splits the stacked gradient into w_h, w_x and bias at the
  end.

The three step loops (the caching forward, the cache-free ring and the
backward) walk per-step views made before the loop starts: they zip over
the (steps, ...) planes, whose per-step views numpy makes in C as it
iterates, and take the ring's planes and the backward's state-gradient
halves from two tuples, one per step parity. Indexing a step's view inside
the loop (`acts[t, :4 * hd]`, `planes[cur, hd:]`, ...) costs 0.3-0.6 us a
view, and a step needs about 15 of them forward and 25 backward: about a
fifth of a step at desk shapes ((B, T, D, H) = (32, 30, 24, 32) in
float32). Each step runs the same ufuncs and GEMMs on the same operands in
the same order as the indexed loops did, so it keeps their bytes.
"""

import math
from itertools import cycle, repeat

import numpy as np

from ..errors import ConfigError, ShapeError

ACTIVATIONS = ("sigmoid", "tanh", "relu", "identity")

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
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _activate(name: str, z: np.ndarray) -> None:
    """Apply the activation `name` to z in place."""
    if name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "sigmoid":
        sigmoid(z, out=z)
    elif name == "tanh":
        np.tanh(z, out=z)


def _activation_input_grad(name: str, d_out: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Gradient with respect to the pre-activation given d(loss)/d(a) and
    the activation a. relu's a > 0 holds where its input z > 0 does, NaN
    included."""
    if name == "identity":
        return d_out
    if name == "relu":
        return d_out * (a > 0.0)
    if name == "sigmoid":
        return d_out * a * (1.0 - a)
    return d_out * (1.0 - a * a)


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
        a = np.matmul(x, self.weights)
        a += self.bias[..., None, :]
        _activate(self.activation, a)
        self._cache = (x, a) if training else None
        return a

    def backward(self, d_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        if self._cache is None:
            raise ShapeError(f"{self!r}: backward before forward")
        x, a = self._cache
        dz = _activation_input_grad(self.activation, d_out, a)
        np.matmul(x.swapaxes(-1, -2), dz, out=self.grads["weights"])
        np.add.reduce(dz, axis=-2, out=self.grads["bias"])
        return dz @ self.weights.swapaxes(-1, -2) if input_grad else None


class DropoutLayer:
    """Inverted dropout: zeroes units with probability `rate` at training
    time and scales survivors by 1/(1-rate), so inference is the identity.

    `rng` draws the masks; a layer stacked over k members holds a sequence
    of k generators instead, and member j's mask comes from the j-th. Each
    training forward fills member j's rows with `rng.random(out=...)`: the
    generator calls and bits of a fresh `rng.random(shape)` draw.
    """

    def __init__(self, rate: float, rng: np.random.Generator | None = None):
        if not 0.0 <= rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.grads: dict[str, np.ndarray] = {}
        self._mask = None
        self._masks: dict[tuple, np.ndarray] = {}

    def __repr__(self):
        return f"dropout({self.rate})"

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        mask = self._masks.get(x.shape)
        if mask is None:
            mask = self._masks[x.shape] = np.empty(x.shape)
        rngs = self.rng if x.ndim > 2 else (self.rng,)
        for rng, draws in zip(rngs, mask.reshape(-1, *x.shape[-2:])):
            rng.random(out=draws)
        # keep / (1 - rate), keep being 1.0 or 0.0, written over the draws
        np.greater_equal(mask, self.rate, out=mask)
        mask /= 1.0 - self.rate
        self._mask = mask
        return x * mask

    def backward(self, d_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        if not input_grad:
            return None
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

    A sample's final hidden state is the one after its last step (its
    effective length). The steps past it, up to the batch's longest length,
    are computed, but they never reach the result, so padding never moves
    it, and the backward starts the sample's gradient at its last step, so
    padded steps contribute exactly zero parameter gradient. Steps past
    the longest length are not run at all. The forget-gate bias is
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

        x: (B, T, input_dim) with zero padding past each sample's length;
        float32 runs the kernel in float32, anything else in float64.
        lengths: (B,) ints, 1 <= length <= T.
        Returns the final hidden state (B, hidden_dim) in the kernel's
        dtype. With `cache` the per-step gates and states are kept for
        `backward`; without it the call writes nothing to the layer, which
        is all inference needs.
        """
        x = np.asarray(x)
        dtype = np.float32 if x.dtype == np.float32 else np.float64
        x = x.astype(dtype, copy=False)
        lengths = np.asarray(lengths, dtype=np.int64)
        if x.ndim != 3 or x.shape[2] != self.input_dim:
            raise ShapeError(f"{self!r} expected input (B, T, {self.input_dim}), "
                             f"got shape {x.shape}")
        n, steps, d = x.shape
        if lengths.shape != (n,):
            raise ShapeError(f"lengths must have shape ({n},), got {lengths.shape}")
        if (lengths < 1).any() or (lengths > steps).any():
            raise ShapeError("effective lengths must be in [1, T]")
        t_max = int(lengths.max()) if n else 0
        if cache:
            # release the previous cache before allocating the next
            self._cache = None

        hd = self.hidden_dim
        weight = self._stacked_weight(dtype)
        # plane t holds [c_{t-1}; h_{t-1}; x_t; 1]: its top 2H rows are the
        # state, its bottom H+D+1 rows the step's GEMM operand. Cached:
        # every step's plane; else a ring of two
        planes = np.zeros((t_max + 1 if cache else 2, 2 * hd + d + 1, n), dtype)
        planes[:, 2 * hd + d] = 1.0
        # step t's x_t, a (D, B) slab
        x_steps = x[:, :t_max].transpose(1, 2, 0)
        acts = np.empty((t_max if cache else 1, 5 * hd, n), dtype)
        gates = _gate_planes(acts, hd)
        scratch = np.empty((hd, n), dtype)
        # each step's views: the gate rows, their sigmoid rows, the GEMM
        # operand, c_{t-1}, c_t, h_t and the five gate planes; and the
        # (plane rows, x_t) copy it makes first, if any
        if cache:
            planes[:t_max, 2 * hd:2 * hd + d] = x_steps
            steps = zip(acts[:, :4 * hd], acts[:, :3 * hd], planes[:-1, hd:],
                        planes[:-1, :hd], planes[1:, :hd],
                        planes[1:, hd:2 * hd], *gates)
            copies = repeat(None)
            ends = {}
        else:
            # step t copies x_t into ring plane t % 2, reads that plane and
            # writes the other
            steps = cycle([(acts[0, :4 * hd], acts[0, :3 * hd], planes[p, hd:],
                            planes[p, :hd], planes[1 - p, :hd],
                            planes[1 - p, hd:2 * hd],
                            *(gate[0] for gate in gates)) for p in (0, 1)])
            copies = zip(cycle([planes[p, 2 * hd:2 * hd + d] for p in (0, 1)]),
                         x_steps)
            final = np.empty((n, hd), dtype)
            ends = _last_steps(lengths)
        matmul, tanh, multiply, add = np.matmul, np.tanh, np.multiply, np.add
        for t, copy, (z, sig, operand, c_prev, c_new, h_new,
                      i, f, o, g, tanh_c) in zip(range(t_max), copies, steps):
            if copy is not None:
                np.copyto(*copy)
            # rows: tanh(z/2) for i, f and o, then tanh(z) = g
            matmul(weight, operand, out=z)
            tanh(z, out=z)
            multiply(sig, 0.5, out=sig)
            add(sig, 0.5, out=sig)
            multiply(f, c_prev, out=c_new)
            multiply(i, g, out=scratch)
            add(c_new, scratch, out=c_new)
            tanh(c_new, out=tanh_c)
            multiply(o, tanh_c, out=h_new)
            if t in ends:
                final[ends[t]] = h_new[:, ends[t]].T
        if not cache:
            return final
        self._cache = {"planes": planes, "acts": acts, "lengths": lengths}
        # each sample's h after its last step, from plane `length`
        return planes[lengths, hd:2 * hd, np.arange(n)]

    def backward(self, d_final: np.ndarray) -> None:
        """Backpropagation through time from the final hidden state.

        Writes the parameter gradients only: the LSTM is always a model's
        first layer, so no caller reads a gradient for its input.
        """
        if self._cache is None:
            raise ShapeError(f"{self!r}: backward before forward")
        planes, acts = self._cache["planes"], self._cache["acts"]
        lengths = self._cache["lengths"]
        t_max, _, n = acts.shape
        hd, d = self.hidden_dim, self.input_dim
        dtype = planes.dtype
        d_final = np.asarray(d_final, dtype=dtype)
        if d_final.shape != (n, hd):
            raise ShapeError(f"{self!r} expected output gradient ({n}, {hd}), "
                             f"got {d_final.shape}")

        ends = _last_steps(lengths)
        # gradient of [w_h; w_x; bias]^T, laid out as the stacked weight
        d_weight = np.zeros((4 * hd, hd + d + 1), dtype)
        step_grad = np.empty_like(d_weight)
        # d(loss)/d(c) over d(loss)/d(h), stacked as the forward's state
        # (a ring of two: step t reads its gradient from half t % 2 and
        # writes step t-1's into the other). A sample's column stays zero
        # until its last step, where d_final enters
        d_state = np.zeros((2, 2 * hd, n), dtype)
        halves = [(d_state[p, :hd], d_state[p, hd:], d_state[1 - p, :hd],
                   d_state[1 - p, hd:]) for p in (0, 1)]
        dc_raw = np.empty((hd, n), dtype)
        # rows: 1 - g*g, then 1 - tanh_c*tanh_c
        slope = np.empty((2 * hd, n), dtype)
        slope_g, slope_c = slope[:hd], slope[hd:]
        one_minus = np.empty((3 * hd, n), dtype)
        dz = np.empty((4 * hd, n), dtype)
        dz_sig = dz[:3 * hd]
        dz_i, dz_f, dz_o, dz_g = (dz[k * hd:(k + 1) * hd] for k in range(4))
        w_h = self.w_h.astype(dtype, copy=False)
        # each step's views, last step first (planes[-2::-1] are planes
        # t_max - 1 down to 0): the g and tanh(c) rows, the sigmoid rows,
        # c_{t-1}, the GEMM operand transposed and the five gate planes
        steps = zip(range(t_max - 1, -1, -1), acts[::-1, 3 * hd:],
                    acts[::-1, :3 * hd], planes[-2::-1, :hd],
                    planes[-2::-1, hd:].transpose(0, 2, 1),
                    *(gate[::-1] for gate in _gate_planes(acts, hd)))
        matmul, multiply, add, subtract = (np.matmul, np.multiply, np.add,
                                           np.subtract)
        for t, g_and_c, sig, c_prev, operand_t, i, f, o, g, tanh_c in steps:
            dc, dh, dc_prev, dh_prev = halves[t % 2]
            if t in ends:
                dh[:, ends[t]] = d_final[ends[t]].T
            multiply(g_and_c, g_and_c, out=slope)
            subtract(1.0, slope, out=slope)
            multiply(dh, tanh_c, out=dz_o)
            multiply(dh, o, out=dc_raw)
            multiply(dc_raw, slope_c, out=dc_raw)
            add(dc, dc_raw, out=dc_raw)
            multiply(dc_raw, g, out=dz_i)
            multiply(dc_raw, c_prev, out=dz_f)
            multiply(dc_raw, i, out=dz_g)
            # s * (1 - s) on the sigmoid rows, 1 - g*g on g
            multiply(dz_sig, sig, out=dz_sig)
            subtract(1.0, sig, out=one_minus)
            multiply(dz_sig, one_minus, out=dz_sig)
            multiply(dz_g, slope_g, out=dz_g)
            matmul(dz, operand_t, out=step_grad)
            add(d_weight, step_grad, out=d_weight)
            multiply(dc_raw, f, out=dc_prev)
            matmul(w_h, dz, out=dh_prev)
        self.grads["w_h"][...] = d_weight[:, :hd].T
        self.grads["w_x"][...] = d_weight[:, hd:hd + d].T
        self.grads["bias"][...] = d_weight[:, hd + d]

    def _stacked_weight(self, dtype) -> np.ndarray:
        """[w_h; w_x; bias]^T as one (4H, H+D+1) weight of `dtype`, with
        the i, f and o rows halved for the tanh form of their sigmoid."""
        hd, d = self.hidden_dim, self.input_dim
        weight = np.empty((4 * hd, hd + d + 1), dtype)
        weight[:, :hd] = self.w_h.T
        weight[:, hd:hd + d] = self.w_x.T
        weight[:, hd + d] = self.bias
        weight[:3 * hd] *= 0.5
        return weight


def _last_steps(lengths: np.ndarray) -> dict[int, list[int]]:
    """{t: the samples whose last step is t}."""
    ends: dict[int, list[int]] = {}
    for b, length in enumerate(lengths.tolist()):
        ends.setdefault(length - 1, []).append(b)
    return ends


def _gate_planes(acts: np.ndarray, hd: int) -> tuple[np.ndarray, ...]:
    """(steps, H, B) views of the i, f, o, g and tanh(c) rows of `acts`."""
    return tuple(acts[:, k * hd:(k + 1) * hd] for k in range(5))
