"""The paper's algorithmic contribution: filter-based adaptive-threshold
LIF neurons, surrogate-gradient BPTT, and the two task losses."""

from .backprop import GradientResult, backward
from .engine import (
    PRECISIONS,
    StreamState,
    fused_backward,
    fused_run,
    resolve_precision,
    run_streaming,
)
from .filters import DoubleExponentialKernel, decay_from_tau, exp_scan, exp_scan_adjoint
from .layers import SpikingLinear
from .loss import CrossEntropyRateLoss, VanRossumLoss, softmax
from .model_zoo import association_net, nmnist_mlp, shd_mlp
from .network import RunRecord, SpikingNetwork
from .neurons import AdaptiveLIFNeuron, HardResetLIFNeuron, NeuronParameters, make_neuron
from .optim import SGD, Adam, AdamW, clip_grad_norm, make_optimizer
from .schedules import (
    ConstantSchedule,
    CosineSchedule,
    ScheduledTrainer,
    StepSchedule,
    WarmupSchedule,
)
from .surrogate import (
    PAPER_SIGMA,
    ErfcSurrogate,
    RectangularSurrogate,
    SigmoidSurrogate,
    SurrogateGradient,
    TriangleSurrogate,
    get_surrogate,
)
from .trainer import EpochStats, Trainer, TrainerConfig, run_in_batches

__all__ = [
    "GradientResult",
    "backward",
    "PRECISIONS",
    "StreamState",
    "run_streaming",
    "fused_backward",
    "fused_run",
    "resolve_precision",
    "DoubleExponentialKernel",
    "decay_from_tau",
    "exp_scan",
    "exp_scan_adjoint",
    "SpikingLinear",
    "CrossEntropyRateLoss",
    "VanRossumLoss",
    "softmax",
    "association_net",
    "nmnist_mlp",
    "shd_mlp",
    "RunRecord",
    "SpikingNetwork",
    "AdaptiveLIFNeuron",
    "HardResetLIFNeuron",
    "NeuronParameters",
    "make_neuron",
    "SGD",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "make_optimizer",
    "ConstantSchedule",
    "CosineSchedule",
    "ScheduledTrainer",
    "StepSchedule",
    "WarmupSchedule",
    "PAPER_SIGMA",
    "ErfcSurrogate",
    "RectangularSurrogate",
    "SigmoidSurrogate",
    "SurrogateGradient",
    "TriangleSurrogate",
    "get_surrogate",
    "EpochStats",
    "Trainer",
    "TrainerConfig",
    "run_in_batches",
]
