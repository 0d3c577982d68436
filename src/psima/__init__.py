"""Moving averages with internal degrees of freedom.

A classical exponential moving average weights the past by omega(t) alone
and therefore reacts to regime changes with a lag proportional to its time
scale tau. This package gives the average n-1 internal degrees of freedom:
the weight becomes psi(x(t))^2 * omega(t) where psi is the top eigenstate
of the execution-flow operator built from the trade tape's
exponentially-weighted polynomial moments. When the dominant flow moves,
the eigenstate relocates within one tick while every classical average on
the same window still crawls through its tau-long transient.

Public surface: the moment engine (measure), operator assembly
(basis/operators), the flow pencil solve (gev), observable extraction
(indicators), tape IO (ingest), deterministic synthetic tapes (synth), and
a CLI (cli). See README.md for the method recap and CLI walkthrough.
"""

from .basis import (BasisId, LinearizationTable, evaluate_all, linearization,
                    linearization_table, matrix_from_moments, max_model_order)
from .errors import (CapabilityError, DegenerateStateError, EmptyWindowError,
                     InputError, NoVolumeError, PsimaError)
from .gev import SpectralDecomposition, WaveFunction, rayleigh, solve_pencil
from .indicators import (IndicatorSample, age_tau, ema_price, evaluate_at,
                         f_psi, run_blocks, run_over)
from .ingest import parse_csv, serialize_csv
from .measure import (MeasureKind, MomentEngine, MomentVector, Tick, omega,
                      resample_full, tick_arrays, x_of_t)
from .operators import OperatorMatrix, flow, gram, weighted
from .synth import spike, steady, uniform01

__version__ = "0.1.0"

__all__ = [
    "BasisId", "LinearizationTable", "evaluate_all", "linearization",
    "linearization_table", "matrix_from_moments", "max_model_order",
    "PsimaError", "InputError", "CapabilityError", "EmptyWindowError",
    "NoVolumeError", "DegenerateStateError",
    "Tick", "MeasureKind", "MomentVector", "MomentEngine", "x_of_t", "omega",
    "resample_full", "tick_arrays",
    "OperatorMatrix", "gram", "flow", "weighted",
    "WaveFunction", "SpectralDecomposition", "solve_pencil", "rayleigh",
    "IndicatorSample", "ema_price", "age_tau", "f_psi", "evaluate_at",
    "run_over", "run_blocks",
    "parse_csv", "serialize_csv",
    "steady", "spike", "uniform01",
    "__version__",
]
