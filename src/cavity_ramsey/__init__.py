"""Ramsey interferometry with a quantized pulse zone: which-path trade-offs,
dissipative erasure, and visibility predictions for a damped cavity mode."""

from .config import (
    PhysicalConfig,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)
from .errors import (
    CavityRamseyError,
    ConvergenceFailure,
    DegeneratePattern,
    InconclusiveSelection,
    NoRootFound,
    TailTooLarge,
    TruncationLeak,
)
from .experiments import (
    OBSERVED_REFERENCE_VISIBILITY,
    ScanReport,
    run_fig4,
    run_selftest,
    run_setup1,
    run_setup2,
    run_velocity_scan,
)
from .fock import (
    TruncationConfig,
    coherent_state,
    default_truncation,
)
from .interferometry import (
    FringePattern,
    apply_detection,
    branch_overlap,
    fringe_scan_setup1,
    plus_minus_decomposition,
    sinusoid_fringe,
    visibility_from_pattern,
)
from .jc import (
    branch_states,
    jc_evolve,
    solve_pi_half_time,
    stark_phase,
)
from .open_system import (
    evolve_master,
    master_fringe,
    master_visibility,
    setup2_fringe,
    setup2_pg,
    split_vacuum_state,
    zero_temp_visibility_closed_form,
    zero_temp_visibility_derived,
    zero_temp_wait,
)
from .thermal import (
    SeriesConfig,
    VariantSelection,
    pg_constant,
    pg_oscillatory,
    select_variant,
    thermal_visibility,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
