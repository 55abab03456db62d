"""Second-order-in-time Fourier pseudospectral solver for the good
Boussinesq equation, with exact solitary-wave references and the
convergence/stability experiment harness."""

from .spectral import (
    Grid,
    derivative,
    evaluate_interpolant,
    inner_product,
    norm2,
    sobolev_norm,
)
from .waves import (
    GBProblem,
    SolitaryWaveParams,
    params_from_amplitude,
    solitary_fields,
    solitary_problem,
    solitary_wave,
    solitary_wave_dtt,
)
from .stepping import (
    ProposedStepper,
    FrutosStepper,
    RunResult,
    SchemeState,
    bootstrap,
    bootstrap_frutos,
    build_implicit_diagonal,
    run,
    run_batch,
)
from .diagnostics import ErrorRecord, crest_position, error_norms, mass, modified_energy
from .sweeps import (
    SweepResult,
    SweepRow,
    SweepSpec,
    fit_order,
    run_spec,
    run_sweep,
    spatial_spec,
    stability_spec,
    temporal_spec,
)
from .reporting import emit_plot_script, read_csv, write_csv
from .verification import run_checks

__version__ = "0.1.0"
