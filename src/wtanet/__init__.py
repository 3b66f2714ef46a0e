"""Winner-take-all competitive network toolkit.

A single-layer model whose units pair excitatory and inhibitory weight
vectors over a trigonometric functional-link expansion of the input;
hard winner-take-all competition selects the responding unit.  The
package bundles the genetic-algorithm trainer, standalone k-selection
and WTA-reducible linear-program solvers, dataset plumbing and the
experiment pipeline.
"""

import types

from .bench import (
    DensityReport,
    EvalReport,
    ExperimentResult,
    OracleFit,
    PhaseError,
    density_check,
    least_squares_oracle,
    run_experiment,
)
from .config import Density, Expansion, Model, RunConfig, config_digest
from .data import (
    CLASSIFICATION,
    REGRESSION,
    Dataset,
    SplitSpec,
    dataset_to_csv,
    gen_function,
    gen_mackey_glass,
    load_csv,
    load_features,
    load_series_csv,
    normalize,
    series_to_csv,
    split_dataset,
    window_series,
)
from .expansion import ExpansionSpec, expand_batch, expansion_dim
from .ga import (
    FitnessEvaluator,
    GaConfig,
    TrainTrace,
    decode,
    encode,
    trace_to_csv,
    train,
)
from .metrics import accuracy, confusion_matrix, mae, nrmse, rmse
from .model import (
    ModelShape,
    WtaModel,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    save_model,
)
from .select import (
    KwtaResult,
    LpSolution,
    kwta,
    solve_box_lp,
    solve_ksum_lp,
    solve_simplex_lp,
    wta,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
