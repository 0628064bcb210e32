"""Interferometric photon-number correlations for multimode bosonic states.

Truncated-Fock simulation of two-station interference measurements:
correlation amplitudes, CHSH/Bell maxima, stochastic-field bounds,
local-oscillator coherence analysis, example states, and classical
Monte Carlo counterparts.
"""

from .correlation import (
    CorrelationAmplitudes,
    EprReport,
    OutputCorrelators,
    amplitudes,
    correlation_E,
    epr_check,
    output_correlators,
    predict_E,
    sinusoid_residual,
)
from .errors import (
    CatDegenerate,
    CutoffError,
    DegenerateLO,
    EprSimError,
    NormalizationError,
    OptimizerShortfall,
    StateError,
    StateFileError,
    UnknownModeError,
    ZeroCoincidence,
    ZeroDenominator,
    ZeroIntensity,
)
from .fock import (
    MixedState,
    ModeLayout,
    MultiModeState,
    coherent_cutoff,
    fidelity,
    inner_product,
    load_state,
    make_coherent,
    make_pure,
    mixture_from_density,
    normal_moment,
    relabel,
    reorder,
    save_state,
    tensor,
    vacuum,
)
from .homodyne import (
    CoherenceFunctions,
    LOConfig,
    amplitudes_from_g,
    coherence_functions,
    homodyne_network_state,
    optimal_lo,
    signal_amplitudes,
)
from .inequalities import (
    BellMaxResult,
    BellSettings,
    InequalityReport,
    bell_B,
    bell_max,
    classify,
    figure3_boundaries,
)
from .network import (
    PhaseSetting,
    beamsplitter,
    epr_split_network,
    phase_shift,
    two_photon_network,
)
from .classical import (
    AmplitudeEstimate,
    BoundReport,
    ClassicalEnsemble,
    bound_report,
    estimate_amplitudes,
    make_ensemble,
    pointwise_margin,
)
from .zoo import (
    CatParams,
    CatPredictions,
    ZOO_NAMES,
    cat_predictions,
    coherent_pair,
    entangled,
    single_mode_cat,
    split_cat,
    split_single_photon,
    two_photon,
)

__version__ = "0.1.0"
