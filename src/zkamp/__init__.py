"""Exact certification of a Grover-amplified simulator for the GMW protocol.

The package is organized bottom up: ``registers`` holds the dense
tensor-product state algebra, ``symm`` the permutation and graph machinery,
``protocol`` the real verifier view, ``simulator`` the coherent attempt
circuit with its amplification identities, ``amplify`` the theory for
arbitrary input-independent success probabilities, and ``cli`` the report
runner.
"""

__version__ = "0.1.0"

from .amplify import (
    BlockDecomposition,
    NotLambdaUniformError,
    PhasePair,
    TwoDimState,
    block_decompose,
    final_fail_amplitude,
    iterative_schedule,
    iterative_schedule_full,
    smallest_feasible_k,
    solve_phases,
    subspace_matrix,
    succ_fail_states,
    toy_circuit,
    verify_block_identities,
    verify_subspace_closure,
)
from .protocol import (
    Instance,
    NotIsomorphicError,
    RecordedView,
    VerifierModel,
    accept,
    adversarial_verifier,
    honest_verifier,
    random_aux,
    real_view,
    real_view_recorded,
)
from .registers import (
    DensityOperator,
    DiagonalOp,
    HouseholderOp,
    LayoutMismatchError,
    LinearOp,
    OpChain,
    PermutationOp,
    RegisterLayout,
    StateVector,
    apply,
    basis_state,
    dephase,
    haar_random_op,
    haar_random_unitary,
    measure,
    measurement_probabilities,
    partial_trace,
    project,
    trace_distance,
)
from .simulator import (
    AmplificationCheck,
    SampledRound,
    SimulatorCircuit,
    amplification_chain_residuals,
    amplification_check,
    build_circuit,
    grover_step,
    phase_on_start,
    phase_on_success,
    sample_round,
    simulate_round,
    simulate_round_recorded,
    success_block_residual,
    success_norm_chain,
    success_probability,
    success_projector,
    watrous_round,
)
from .symm import (
    Graph,
    Permutation,
    act,
    compose,
    decode,
    encode,
    enumerate_sn,
    find_isomorphism,
    invert,
    parse_graph_literal,
)
