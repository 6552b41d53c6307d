"""fockscan: entangled Fock-state cavity-array dark-matter search simulator."""

from .drive import (
    CavityGeometry,
    DMParams,
    PhysicalConstants,
    cavity_volume_tm010,
    coupling_g,
    form_factor_tm010,
    incremental_displacement,
    mc_population,
    mean_displacement,
    mean_population_detuned,
)
from .fock import (
    DenseOperator,
    DensityMatrix,
    HilbertSpace,
    StateVector,
    displacement,
    ladder,
    leakage,
    number_state,
)
from .gates import BeamsplitterSpec, EDPlan, beamsplitter_unitary, build_ed, make_plan, verify_ed
from .lindblad import (
    NoiseModel,
    TransformedRates,
    calibrate_bs_multiplier,
    dlme_step,
    effective_propagate_cycle,
    lossy_ed_apply,
    propagate_cycle,
    transformed_rates,
)
from .protocol import (
    CycleResult,
    ProtocolConfig,
    optimal_tau_int,
    run_cycle,
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
    "BeamsplitterSpec", "CavityGeometry", "CycleResult", "DMParams",
    "DenseOperator", "DensityMatrix", "EDPlan", "HilbertSpace", "NoiseModel",
    "PhysicalConstants", "ProtocolConfig", "SensitivityParams", "StateVector",
    "TransformedRates", "beamsplitter_unitary", "build_ed",
    "calibrate_bs_multiplier", "cavity_volume_tm010", "coupling_g",
    "displacement", "dlme_step", "effective_propagate_cycle",
    "exclusion_epsilon", "form_factor_tm010", "incremental_displacement",
    "ladder", "leakage", "lossy_ed_apply", "make_plan",
    "mc_population", "mean_displacement", "mean_population_detuned",
    "number_state", "optimal_tau_int", "propagate_cycle", "reach_band",
    "run_cycle", "scan_rate", "scan_rate_grid", "semiclassical_rates",
    "snr_from_counts", "snr_sweep", "spam_background", "spectator_calibration",
    "thermal_occupation", "transformed_rates", "verify_ed",
]
