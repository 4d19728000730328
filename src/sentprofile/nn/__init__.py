"""Minimal neural toolkit: layers, losses, optimizers, the training loop
and checkpoint serialization. A model computes in its parameters' dtype:
its gradients and optimizer state have it, and its dense layers cast
their inputs to it. The sentiment model's parameters are float64 and the
gender classifiers' float32. The LSTM computes in the dtype of its input
sequences, float32 for every sequence the pipeline makes, whatever its
parameters' dtype. Checkpoints are float64 on disk, which float32
parameters widen to and load back from exactly."""

from .checkpoint import (
    header_field,
    load_model,
    load_parameters,
    read_checkpoint,
    register_model,
    save_model,
    write_checkpoint,
)
from .layers import DenseLayer, DropoutLayer, LSTMLayer, sigmoid, softmax
from .losses import binary_cross_entropy, categorical_cross_entropy
from .network import Model, Network, fit, stack
from .optim import Adam, SGD, TrainConfig, make_optimizer

__all__ = [
    "Adam",
    "DenseLayer",
    "DropoutLayer",
    "LSTMLayer",
    "Model",
    "Network",
    "SGD",
    "TrainConfig",
    "binary_cross_entropy",
    "categorical_cross_entropy",
    "fit",
    "header_field",
    "load_model",
    "load_parameters",
    "make_optimizer",
    "read_checkpoint",
    "register_model",
    "save_model",
    "sigmoid",
    "softmax",
    "stack",
    "write_checkpoint",
]
