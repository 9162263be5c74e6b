"""Bosonic quantum simulation in the holomorphic (stellar) representation.

States are finite-rank holomorphic functions P(z) exp(-z^T A z/2 + B^T z + C);
Gaussian gates act by closed-form exponent updates and integrable zero
dynamics, measurements follow the heterodyne/Fock rules, and a truncated-Fock
oracle independently verifies every closed form at desk scale.
"""

from .calogero import (
    CMSystem,
    LaxPair,
    ScatteringResult,
    cm_ode,
    cm_ode_path,
    cm_solve,
    cm_solve_path,
    conserved_spectrum,
    lax_matrices,
    scattering_permutation,
)
from .circuits import (
    CircuitSpec,
    GateDecl,
    MeasureDecl,
    RunResult,
    parse_circuit,
    prepare_input,
    run_circuit,
    table3_demo,
)
from .dynamics import (
    GaussianHamiltonian1M,
    ZeroTrajectory,
    closed_form_trajectory,
    evolve,
    initial_velocities,
    ode_evolve,
)
from .fockspace import FockBasis, fock_oracle_apply, reduced_purity
from .gates import (
    Create,
    Displace,
    Passive,
    Phase,
    Shear,
    Squeeze,
    beamsplitter_matrix,
)
from .multimode import (
    GaussianUnitarySpec,
    SchmidtForm,
    apply_displace,
    apply_gaussian,
    apply_gate,
    apply_passive,
    bloch_messiah,
    core_state_of,
    decompose_normal,
    is_separable,
    schmidt_form,
    takagi,
)
from .sampling import (
    ContinuousOutcome,
    DiscreteOutcome,
    SamplerConfig,
    boson_sampling_prob,
    fock_amplitude,
    fock_probabilities,
    permanent,
    project_coherent,
    project_fock,
    sample_continuous,
    sample_discrete,
)
from .states import (
    FockArray,
    GaussPart,
    PolyPart,
    StellarState,
    evaluate,
    from_fock_superposition,
    from_zeros,
    husimi_density,
    husimi_integral,
    inner_product,
    norm_squared,
    normalized,
    stellar_rank,
    tensor,
    to_fock_array,
    zeros_of,
)

__version__ = "0.1.0"
