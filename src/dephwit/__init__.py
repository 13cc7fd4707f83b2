"""Local-dephasing witness simulations for nonclassical correlations in
bipartite quantum states.

The package provides dense complex linear algebra, bipartite state
construction, the local dephasing map and its Hilbert-Schmidt discord
measure, random-matrix sampling (Haar unitaries, Poisson/GUE spectra),
Monte Carlo estimators for Haar-averaged witness distances and the
twirling channel, and a reproducible seeded CLI.
"""

__version__ = "0.5.0"

from .linalg import (
    HermitianEigensystem,
    dagger,
    eig_hermitian,
    hs_inner,
    hs_norm,
    partial_trace_env,
    partial_trace_sys,
)
from .states import (
    BipartiteState,
    SchmidtDecomposition,
    classical_state,
    concurrence_pure,
    from_pure,
    purity,
    random_mixed,
    random_pure,
    schmidt,
)
from .dephasing import (
    DephasingBasis,
    dephase_local,
    dephase_total,
    discord_delta,
    eigenbasis_of_marginal,
    is_classical,
)
from .randmat import (
    RngHandle,
    SpectrumEnsemble,
    StructuredEvolution,
    ginibre,
    haar_unitary,
    level_transform_f,
    sample_spectrum,
    structured_evolution,
)
from .witness import (
    ChoiCheckResult,
    McEstimate,
    TwirlConstants,
    WitnessResult,
    choi_isotropic_check,
    haar_average_distance_sq,
    haar_witness_prefactor_sq,
    pure_state_rms_prefactor,
    structured_average_distance,
    structured_average_grid,
    theorem_mc_check,
    theorem_rhs,
    trace_distance,
    twirl_constants,
    twirl_mc,
    witness_distance,
    witness_trajectory,
)
