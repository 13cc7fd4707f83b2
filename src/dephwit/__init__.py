"""Local-dephasing witness simulations for nonclassical correlations in
bipartite quantum states.

The package provides bipartite state construction, the local dephasing
map and its Hilbert-Schmidt discord measure, random-matrix sampling (Haar
unitaries, Poisson/GUE spectra), the witness with its exact Haar and
structured-evolution averages and their Monte Carlo estimators, the
twirling channel, and a reproducible seeded CLI.
"""

__version__ = "0.15.0"

from .linalg import (
    dagger,
    eig_hermitian,
    hs_norm,
    partial_trace_env,
)
from .states import (
    BipartiteState,
    classical_state,
    from_pure,
    purity,
    random_mixed,
)
from .dephasing import (
    dephase_total,
    discord_delta,
    eigenbasis_of_marginal,
)
from .randmat import (
    RngHandle,
    SpectrumEnsemble,
    ginibre,
    haar_unitary,
    sample_spectrum,
)
from .witness import (
    ChoiCheckResult,
    McEstimate,
    TwirlConstants,
    choi_isotropic_check,
    haar_average_distance_sq,
    haar_witness_prefactor_sq,
    structured_average_distance,
    structured_average_grid,
    theorem_mc_check,
    theorem_rhs,
    twirl_constants,
    twirl_mc,
    witness_distance,
    witness_trajectory,
)
