"""Models assembled from named layers, and the mini-batch loop that trains
every one of them.

A model that `fit` trains keeps all its parameters in one contiguous
float64 buffer and all its gradients in a second one; its layers' parameter
attributes and `grads` entries are views into them. The optimizer then
updates the whole model in one elementwise pass per step."""

import hashlib

import numpy as np

from ..errors import ShapeError, TrainingError
from .layers import DropoutLayer
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
        """(parameters, gradients): the model's two flat float64 buffers,
        in the order of `parameters()`.

        Built on the first call: each layer's parameter arrays and `grads`
        entries are copied in and rebound to views of the buffers, so the
        layers compute on them, and the old arrays are released. A layer
        belongs to one model's buffers; a model that reuses another's
        trained layer trains a copy of it (see `build_finetune_model`).
        """
        if self._buffers is None:
            entries = [(layer, name, value) for _, layer in self.parts()
                       for name, value in layer.params().items()]
            size = sum(value.size for _, _, value in entries)
            params, grads = np.empty(size), np.empty(size)
            offset = 0
            for layer, name, value in entries:
                end = offset + value.size
                view = params[offset:end].reshape(value.shape)
                view[...] = value
                setattr(layer, name, view)
                grad = grads[offset:end].reshape(value.shape)
                grad[...] = layer.grads[name]
                layer.grads[name] = grad
                offset = end
            self._buffers = (params, grads)
        return self._buffers

    def dropout_layers(self) -> list[DropoutLayer]:
        return [layer for _, layer in self.parts()
                if isinstance(layer, DropoutLayer)]

    def checksum(self) -> str:
        """SHA-256 over the parameter names and values, in order."""
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

    def backward(self, d_out: np.ndarray) -> np.ndarray:
        grad = d_out
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


def fit(model: Model, inputs: tuple, targets: np.ndarray, loss,
        config: TrainConfig, rng: np.random.Generator,
        after_epoch=None) -> list[dict]:
    """Mini-batch training of `model` on `loss(probs, targets)`.

    inputs: tuple of arrays sharing axis 0 with targets. Each epoch visits
    the rows in the order `rng.permutation` draws, in batches of
    `config.batch_size`, with one training forward, backward and optimizer
    step per batch. The step updates the model's flat buffers (see
    `Model.buffers`) as a one-entry mapping, so the optimizer makes one
    pass and one finiteness check; a non-finite gradient raises
    TrainingError naming the parameter it reached. `after_epoch(model,
    epoch)` runs after each epoch. Returns one {epoch, train_loss} record
    per epoch.
    """
    n = targets.shape[0]
    for arr in inputs:
        if arr.shape[0] != n:
            raise ShapeError("all input arrays must align with the targets")
    optimizer = make_optimizer(config)
    flat_params, flat_grads = model.buffers()
    params, grads = {"model": flat_params}, {"model": flat_grads}
    history = []
    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        losses = []
        for start in range(0, n, config.batch_size):
            idx = perm[start:start + config.batch_size]
            probs = model.forward_batch(tuple(a[idx] for a in inputs),
                                        training=True)
            value, d_probs = loss(probs, targets[idx])
            model.backward(d_probs)
            try:
                optimizer.step(params, grads)
            except TrainingError:
                # the flat buffer failed the check; name the parameter
                raise non_finite(next(
                    name for name, grad in model.gradients().items()
                    if not np.isfinite(grad).all())) from None
            losses.append(value)
        history.append({"epoch": epoch + 1,
                        "train_loss": float(np.mean(losses))})
        if after_epoch is not None:
            after_epoch(model, epoch + 1)
    return history
