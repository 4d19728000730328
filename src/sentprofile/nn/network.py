"""Models assembled from named layers, and the mini-batch loop that trains
every one of them."""

import hashlib

import numpy as np

from ..errors import ShapeError
from .layers import DropoutLayer
from .optim import TrainConfig, make_optimizer


class Model:
    """Base of every model: a subclass lists its layers in `parts()` as
    ordered (prefix, layer) pairs and implements its forward pass
    (`forward_batch`, which `fit` calls; the plain `Network` stack has
    `forward`) and `backward`.

    Parameters are exposed as an ordered mapping "<prefix>.<name>", in
    the order of `parts()`, so optimizers, checkpoints and gradient
    checks all see one flat view.
    """

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
    step per batch. `after_epoch(model, epoch)` runs after each epoch.
    Returns one {epoch, train_loss} record per epoch.
    """
    n = targets.shape[0]
    for arr in inputs:
        if arr.shape[0] != n:
            raise ShapeError("all input arrays must align with the targets")
    optimizer = make_optimizer(config)
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
            optimizer.step(model.parameters(), model.gradients())
            losses.append(value)
        history.append({"epoch": epoch + 1,
                        "train_loss": float(np.mean(losses))})
        if after_epoch is not None:
            after_epoch(model, epoch + 1)
    return history
