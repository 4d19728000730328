"""A plain feed-forward layer stack."""

from collections import OrderedDict

import numpy as np

from .layers import DropoutLayer


class Network:
    """Ordered stack of layers sharing the forward/backward protocol.

    Parameters are exposed as an ordered mapping "layer<i>.<name>" so
    optimizers, checkpoints and gradient checks all see one flat view.
    """

    def __init__(self, layers):
        self.layers = list(layers)

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

    def parameters(self) -> "OrderedDict[str, np.ndarray]":
        out = OrderedDict()
        for idx, layer in enumerate(self.layers):
            for name, value in layer.params().items():
                out[f"layer{idx}.{name}"] = value
        return out

    def gradients(self) -> "OrderedDict[str, np.ndarray]":
        out = OrderedDict()
        for idx, layer in enumerate(self.layers):
            for name in layer.params():
                out[f"layer{idx}.{name}"] = layer.grads[name]
        return out

    def dropout_layers(self) -> list[DropoutLayer]:
        return [l for l in self.layers if isinstance(l, DropoutLayer)]
