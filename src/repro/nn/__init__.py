"""Pure-NumPy neural-network substrate.

The paper's prototype is built on PyTorch; no deep-learning framework is
available offline here, so this subpackage provides the minimal but
complete substrate FedMP needs: convolution / linear / batch-norm /
pooling / dropout layers with exact manual backpropagation, LSTM
recurrent layers, losses, initialisers and SGD-family optimisers.

Every layer follows the same contract:

- ``forward(x)`` stores whatever the backward pass needs,
- ``backward(grad_out)`` accumulates parameter gradients into
  ``layer.grads`` and returns the gradient w.r.t. the input,
- parameters live in ``layer.params`` as plain ``numpy`` arrays.
"""

from repro.nn.module import Module, Sequential
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.recurrent import LSTM, Embedding
from repro.nn.loss import CrossEntropyLoss, softmax_with_log
from repro.nn.optim import SGD, ProximalSGD
from repro.nn import init
from repro.nn import functional

__all__ = [
    "Module",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "Flatten",
    "Dropout",
    "LSTM",
    "Embedding",
    "CrossEntropyLoss",
    "softmax_with_log",
    "SGD",
    "ProximalSGD",
    "init",
    "functional",
]
