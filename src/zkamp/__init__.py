"""Exact certification of a Grover-amplified simulator for the GMW protocol.

The package is organized bottom up: ``registers`` holds the tensor-product
state and operator algebra, ``symm`` the permutation and graph machinery,
``protocol`` the real verifier view in factored form, ``simulator`` the
coherent attempt circuit with its amplification identities, ``amplify`` the
theory for arbitrary input-independent success probabilities, and ``cli``
the report runner.  The dense oracles the factored forms are checked against
live with the tests, not here.
"""

__version__ = "0.1.0"

from .amplify import (
    BlockDecomposition,
    NotLambdaUniformError,
    PhasePair,
    block_decompose,
    final_fail_amplitude,
    iterative_schedule,
    iterative_schedule_full,
    smallest_feasible_k,
    solve_phases,
    subspace_matrix,
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
    real_view_recorded,
)
from .registers import (
    DiagonalOp,
    HouseholderOp,
    LayoutMismatchError,
    LinearOp,
    OpChain,
    PermutationOp,
    RegisterLayout,
    StateVector,
    haar_random_op,
    measure,
    measurement_probabilities,
)
from .simulator import (
    AmplificationCheck,
    SampledRound,
    SimulatorCircuit,
    amplification_chain_residuals,
    amplification_check,
    amplified_state,
    build_circuit,
    grover_step,
    phase_on_start,
    phase_on_success,
    recorded_view,
    sample_round,
    simulate_round_recorded,
    success_block_residual,
    success_norm_chain,
    success_projector,
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
