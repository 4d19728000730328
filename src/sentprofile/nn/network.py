"""Models assembled from named layers, and the mini-batch loop that trains
every one of them.

A model that `fit` trains keeps all its parameters in one contiguous
buffer and all its gradients in a second one, of its parameters' dtype;
its layers' parameter attributes and `grads` entries are views into them.
The optimizer then updates the whole model in one elementwise pass per
step, in that dtype. Models of one architecture can train in lockstep as
one stacked model (`stack`), whose buffers hold one member per row.

A model computes in its parameters' dtype (see `nn.layers`): the
sentiment model's are float64, the gender classifiers' float32.
Checkpoints and `Model.checksum` read every parameter as float64, which
float32 values widen to exactly."""

import copy
import hashlib

import numpy as np

from ..errors import ShapeError, TrainingError
from .layers import DenseLayer, DropoutLayer, LSTMLayer
from .optim import TrainConfig, make_optimizer, non_finite


class Model:
    """Base of every model: a subclass lists its layers in `parts()` as
    ordered (prefix, layer) pairs and implements its forward pass
    (`forward_batch`, which `fit` calls; the plain `Network` stack has
    `forward`) and `backward`.

    Parameters are exposed as an ordered mapping "<prefix>.<name>", in
    the order of `parts()`, so checkpoints and gradient checks see one
    named view. `buffers()` lays the same parameters, in the same order,
    into one flat array (and the gradients into another) for the optimizer.
    """

    _buffers: tuple[np.ndarray, np.ndarray] | None = None

    def parts(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for prefix, layer in self.parts():
            for name, value in layer.params().items():
                out[f"{prefix}.{name}"] = value
        return out

    def gradients(self) -> dict[str, np.ndarray]:
        out = {}
        for prefix, layer in self.parts():
            for name in layer.params():
                out[f"{prefix}.{name}"] = layer.grads[name]
        return out

    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """(parameters, gradients): the model's two flat buffers, in the
        order of `parameters()`, of its parameters' dtype (the widest, if
        they mix).

        Built on the first call: each layer's parameter arrays and `grads`
        entries are copied in and rebound to views of the buffers, so the
        layers compute on them, and the old arrays are released. A layer
        belongs to one model's buffers; a model that reuses another's
        trained layer trains a copy of it (see `build_finetune_model`).
        A model trained in a stack owns one row of the stack's buffers.
        """
        if self._buffers is None:
            _lay_out([self])
        return self._buffers

    def release_gradients(self) -> None:
        """Free the gradient arrays, and the buffers, of a trained model
        that is only read from now on. If it trains again, `buffers()`
        lays out zeroed gradients, which every backward pass overwrites
        before a step reads them."""
        for _, layer in self.parts():
            layer.grads = {}
        self._buffers = None

    def dropout_layers(self) -> list[DropoutLayer]:
        return [layer for _, layer in self.parts()
                if isinstance(layer, DropoutLayer)]

    def checksum(self) -> str:
        """SHA-256 over the parameter names and values, in order, each
        value as float64."""
        digest = hashlib.sha256()
        for name, value in self.parameters().items():
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        return digest.hexdigest()


class Network(Model):
    """Ordered stack of layers sharing the forward/backward protocol; the
    layer at index i is named "layer<i>"."""

    def __init__(self, layers):
        self.layers = list(layers)

    def parts(self):
        return [(f"layer{idx}", layer) for idx, layer in enumerate(self.layers)]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, d_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Gradients of every layer from d(loss)/d(output); returns the
        gradient with respect to the input, or None with `input_grad`
        False, where the first layer skips that product."""
        grad = d_out
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        return self.layers[0].backward(grad, input_grad)


def _lay_out(models: list[Model]) -> tuple[np.ndarray, np.ndarray]:
    """Copy the parameters and gradients of `models`, which share one
    architecture, into the rows of a (k, P) parameter buffer and a (k, P)
    gradient buffer of the parameters' dtype, and rebind each model's
    arrays to views of its row (see `Model.buffers`); returns the two
    buffers."""
    entries = [[(layer, name, value) for _, layer in model.parts()
                for name, value in layer.params().items()] for model in models]
    values = [value for _, _, value in entries[0]]
    size = sum(value.size for value in values)
    dtype = np.result_type(*values) if values else np.float64
    params = np.empty((len(models), size), dtype)
    grads = np.empty((len(models), size), dtype)
    for row, (model, model_entries) in enumerate(zip(models, entries)):
        offset = 0
        for layer, name, value in model_entries:
            end = offset + value.size
            view = params[row, offset:end].reshape(value.shape)
            view[...] = value
            setattr(layer, name, view)
            grad = grads[row, offset:end].reshape(value.shape)
            grad[...] = layer.grads.get(name, 0.0)
            layer.grads[name] = grad
            offset = end
        model._buffers = (params[row], grads[row])
    return params, grads


def stack(models: list[Model]) -> Model:
    """One model that trains `models` (k of one architecture, built from
    dense and dropout layers) in lockstep.

    It is a copy of the first member whose every parameter and gradient
    carries a leading member axis: (k, ...) views of one (k, P) buffer pair
    whose row j each member's own arrays view, so a step of the stack
    updates every member. Each stacked dropout layer draws member j's mask
    from member j's generator. Its inputs carry the member axis too."""
    params, grads = _lay_out(models)
    stacked = copy.deepcopy(models[0])
    offset = 0
    for (_, layer), *members in zip(stacked.parts(),
                                    *(model.parts() for model in models)):
        for name, value in layer.params().items():
            end = offset + value.size
            shape = (len(models), *value.shape)
            setattr(layer, name, params[:, offset:end].reshape(shape))
            layer.grads[name] = grads[:, offset:end].reshape(shape)
            offset = end
        if isinstance(layer, DropoutLayer):
            layer.rng = [member.rng for _, member in members]
    stacked._buffers = (params, grads)
    return stacked


def fit(models: list[Model], inputs: list[tuple], targets: list[np.ndarray],
        loss, config: TrainConfig, rngs: list[np.random.Generator],
        after_epoch=None) -> list[list[dict]]:
    """Mini-batch training of `loss(probs, targets)` (see `nn.losses`) for
    k models in lockstep; a single model is a stack of one.

    Member j trains on the arrays of `inputs[j]`, which share axis 0 with
    `targets[j]`; every member's arrays have the same shapes, so their
    batches line up. Each epoch visits member j's rows in the order
    `rngs[j].permutation` draws, in batches of `config.batch_size`, with
    one training forward, backward and optimizer step per batch for the
    whole stack. One model trains as itself; k > 1 train as `stack(models)`
    on inputs with a leading member axis, and member j ends with the bytes
    it would have trained to alone.

    A step's dense and dropout layers compute in place and reuse their
    buffers, and the gender MLP skips its first layer's input gradient,
    which nothing reads (see `nn.layers`); every parameter and loss keeps
    the bytes of the plain step that allocates each array, which the tests
    keep as a reference.

    The step updates the flat buffers (see `Model.buffers`) as a one-entry
    mapping, so the optimizer makes one pass and one finiteness check; a
    non-finite gradient raises TrainingError naming the parameter it
    reached and, as `member`, the first member it reached. The dense and
    LSTM layers' backward caches and the dropout layers' buffers are
    dropped when training ends. `after_epoch[j](model, epoch)` runs for
    member j after each epoch. Returns, per member, one {epoch,
    train_loss} record per epoch.
    """
    n = targets[0].shape[0]
    shapes = [a.shape for a in inputs[0]]
    if any(shape[0] != n for shape in shapes):
        raise ShapeError("all input arrays must align with the targets")
    for member_inputs, member_targets in zip(inputs[1:], targets[1:]):
        if (member_targets.shape != targets[0].shape
                or [a.shape for a in member_inputs] != shapes):
            raise ShapeError("models trained in lockstep need inputs of one shape")
    optimizer = make_optimizer(config)
    if len(models) == 1:
        model, data, labels = models[0], inputs[0], targets[0]
    else:
        # member j's row i is row j * n + i, so one take gathers a batch
        model = stack(models)
        data = tuple(np.concatenate(arrays) for arrays in zip(*inputs))
        labels = np.concatenate(targets)
    flat_params, flat_grads = model.buffers()
    params, grads = {"model": flat_params}, {"model": flat_grads}
    offsets = np.arange(len(models))[:, None] * n
    histories = [[] for _ in models]
    for epoch in range(config.epochs):
        perm = np.stack([rng.permutation(n) for rng in rngs]) + offsets
        losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[:, start:start + config.batch_size]
            rows = idx[0] if len(models) == 1 else idx
            probs = model.forward_batch(
                tuple(a.take(rows, axis=0) for a in data), training=True)
            value, d_logits = loss(probs, labels.take(rows, axis=0))
            model.backward(d_logits)
            try:
                optimizer.step(params, grads)
            except TrainingError:
                # the flat buffer failed the check; name the member and the
                # parameter (the members' gradients view its rows)
                raise next(non_finite(name, member)
                           for member, trained in enumerate(models)
                           for name, grad in trained.gradients().items()
                           if not np.isfinite(grad).all()) from None
            losses.append(value)
        batch_losses = np.array(losses).reshape(len(losses), -1)
        for j, history in enumerate(histories):
            history.append({"epoch": epoch + 1,
                            "train_loss": float(np.mean(batch_losses[:, j]))})
            if after_epoch is not None:
                after_epoch[j](models[j], epoch + 1)
    for _, layer in model.parts():
        if isinstance(layer, (DenseLayer, LSTMLayer)):
            layer._cache = None
        elif isinstance(layer, DropoutLayer):
            layer._mask, layer._masks = None, {}
    return histories
