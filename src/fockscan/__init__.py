"""fockscan: entangled Fock-state cavity-array dark-matter search simulator."""

import os

# One BLAS/OpenMP thread per process unless the caller chose a count: the
# integration window multiplies cutoff^2 x cutoff^2 matrices, where extra
# BLAS threads cost more in hand-off than they save, and --jobs worker
# processes already occupy every core.  numpy reads these when first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .drive import (
    CavityGeometry,
    DMParams,
    cavity_volume_tm010,
    coupling_g,
    form_factor_tm010,
    mc_population,
    mean_displacement,
    mean_population_detuned,
)
from .fock import HilbertSpace, number_state
from .gates import BeamsplitterSpec, EDPlan, make_plan, verify_ed
from .lindblad import (
    NoiseModel,
    TransformedRates,
    calibrate_bs_multiplier,
    effective_propagate_cycle,
    lossy_ed_apply,
    propagate_cycle,
    transformed_rates,
)
from .protocol import (
    ProtocolConfig,
    optimal_tau_int,
    scan_rate_grid,
    semiclassical_rates,
    snr_from_counts,
    snr_sweep,
    spam_background,
    spectator_calibration,
)
from .sensitivity import (
    SensitivityParams,
    exclusion_epsilon,
    reach_band,
    scan_rate,
    thermal_occupation,
)

__version__ = "0.1.0"

__all__ = [
    "BeamsplitterSpec", "CavityGeometry", "DMParams", "EDPlan",
    "HilbertSpace", "NoiseModel", "ProtocolConfig",
    "SensitivityParams", "TransformedRates", "calibrate_bs_multiplier",
    "cavity_volume_tm010", "coupling_g", "effective_propagate_cycle",
    "exclusion_epsilon", "form_factor_tm010", "lossy_ed_apply", "make_plan",
    "mc_population", "mean_displacement", "mean_population_detuned", "number_state",
    "optimal_tau_int",
    "propagate_cycle", "reach_band", "scan_rate", "scan_rate_grid",
    "semiclassical_rates", "snr_from_counts", "snr_sweep", "spam_background",
    "spectator_calibration", "thermal_occupation", "transformed_rates", "verify_ed",
]
