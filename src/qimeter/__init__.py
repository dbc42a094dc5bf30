"""qimeter: how much interference a quantum algorithm generates, and what
errors do to it.

The library simulates Grover search and Shor order-finding as dense
circuits, measures the interference of the resulting channels (in unitary,
Kraus, and superoperator form), and sweeps three error families over them:
systematic Hadamard-angle errors, random unitary errors, and bit/phase-flip
decoherence during the initial Hadamard layer.
"""

from .algorithms import (
    AlgorithmUnitaries,
    DecoherencePoint,
    GroverSpec,
    NoiseSetup,
    ShorSpec,
    build_grover,
    build_shor,
    decoherence_point,
    final_probabilities,
    grover_iteration_count,
    grover_oracle,
    grover_unitaries,
    grover_zero_reflection,
    modexp_permutation,
    noise_setup,
    register1_marginal,
    shor_success,
    shor_unitaries,
)
from .channels import (
    BITFLIP,
    PHASEFLIP,
    ErrorModel,
    KrausChannel,
)
from .errors import SizeLimitError, ValidationError
from .gates import (
    Circuit,
    DiagonalPhaseGate,
    PermutationGate,
    PerturbedHadamard,
    circuit_apply,
    circuit_unitary,
    perturbed_hadamard,
    qft_circuit,
    walsh_layer,
)
from .harness import (
    DecoherenceErrors,
    ExperimentSpec,
    RandomAngleSampler,
    RandomErrors,
    ResultRow,
    SystematicErrors,
    cue_baseline,
    haar_unitary,
    read_results,
    run_decoherence_sweep,
    run_random_sweep,
    run_systematic_sweep,
    write_results,
)
from .interference import (
    PauliNoiseKernel,
    ibits,
    interference_kraus,
    interference_kraus_naive,
    interference_noise_then_unitary,
    interference_superoperator,
    interference_unitary,
    pauli_noise_kernel,
    superoperator_from_kraus,
)
from .linalg import (
    MAX_DIM,
    MAX_QUBITS,
    basis_state,
    check_unitary,
)

__version__ = "0.1.0"
