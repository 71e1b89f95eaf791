"""The codesigned hardware model: RRAM devices, quantization, crossbars,
the behavioral analog circuit simulator, the paper's Fig. 6 neuron
circuit, and power/energy/area estimation."""

from .crossbar import DifferentialCrossbar
from .devices import (
    RRAMCellArray,
    RRAMDeviceConfig,
    program_conductances,
    quantize_conductances,
)
from .mapped_network import (
    HardwareMappedNetwork,
    HardwareProfile,
    HardwareStreamState,
    accuracy_under_variation,
    seed_accuracy,
)
from .neuron_circuit import (
    NeuronCircuitConfig,
    NeuronCircuitResult,
    build_neuron_circuit,
    simulate_neuron,
)
from .power import (
    PAPER_POWER_REPORT,
    AreaModelConfig,
    PowerModelConfig,
    PowerReport,
    estimate_area,
    estimate_power,
)
from .quantization import resolve_weight_scale, weights_to_conductances
from .tiling import TiledCrossbar

__all__ = [
    "DifferentialCrossbar",
    "RRAMCellArray",
    "RRAMDeviceConfig",
    "program_conductances",
    "quantize_conductances",
    "HardwareMappedNetwork",
    "HardwareProfile",
    "HardwareStreamState",
    "accuracy_under_variation",
    "seed_accuracy",
    "NeuronCircuitConfig",
    "NeuronCircuitResult",
    "build_neuron_circuit",
    "simulate_neuron",
    "PAPER_POWER_REPORT",
    "AreaModelConfig",
    "PowerModelConfig",
    "PowerReport",
    "estimate_area",
    "estimate_power",
    "resolve_weight_scale",
    "weights_to_conductances",
]
