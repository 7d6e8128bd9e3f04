"""Model zoo: the four CNN tasks of the paper plus the RNN extension.

Every builder returns a :class:`repro.nn.Sequential` (or a Sequential of
blocks) whose layers carry stable names, and stamps ``input_shape`` /
``num_classes`` attributes that the pruning engine and the FLOP counter
rely on.  AlexNet / VGG-19 / ResNet-50 accept a ``width_mult`` so the
CPU-only benchmarks can run scaled-down instances while keeping the
exact architecture family (see DESIGN.md, substitution table).
"""

from repro.models.cnn import build_cnn
from repro.models.alexnet import build_alexnet
from repro.models.vgg import build_vgg19
from repro.models.resnet import build_resnet50
from repro.models.lstm_lm import build_lstm_lm
from repro.models.blocks import Bottleneck
from repro.models.flops import count_model_flops
from repro.models.registry import MODEL_BUILDERS, build_model

__all__ = [
    "build_cnn",
    "build_alexnet",
    "build_vgg19",
    "build_resnet50",
    "build_lstm_lm",
    "Bottleneck",
    "count_model_flops",
    "MODEL_BUILDERS",
    "build_model",
]
