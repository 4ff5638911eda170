"""Window decomposition for local next-step prediction on grid PDE data.

Prediction (:mod:`windec.windowing`) predicts each cell from exactly its
local neighborhood, the grid zero-extended by the window radius: tile by
tile, the tile's cells plus that halo are filled into a slab buffer, and
every window-to-center predictor reads its windows in place from one
strided view of the slab.  :mod:`windec.decomposition` defines the window
decomposition this computes (``expand_domain``, ``chunk_domain``,
``window_patch``, ``window_offsets``); the acceptance gate checks it, and
prediction does not call it.  Companion modules supply PDE data generators,
window-size selection rules, stencil predictors, and evaluation metrics.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateSignal,
    DegenerateTruth,
    DivisibilityError,
    DomainError,
    FormatError,
    PredictorContractError,
    ProbeDomainTooSmall,
    RankError,
    ShapeMismatchError,
    SingularSystem,
    StabilityError,
    UnsupportedBoundary,
    WindecError,
    WindowTooLarge,
    WindowTooSmall,
)
from .tensor import BatchTensor, Shape
from .windowing import BOUNDARIES, WindowSpec, integrate_predictions
from .decomposition import (
    ExpansionRecord,
    chunk_domain,
    expand_domain,
    receptive_field_probe,
    window_offsets,
    window_patch,
)
from .generators import (
    Dataset,
    GridPde,
    InitialCondition,
    advect_exact,
    burgers_step,
    gaussian_bump_field,
    generate_dataset,
    harmonic_field,
    heat_step,
    read_dataset,
    sample_bumps,
    sin_field,
    write_dataset,
    write_generated,
)
from .sizing import (
    SizingReport,
    bandwidth_estimate,
    char_length,
    courant,
    min_window_for_bandwidth,
    recommend_window,
)
from .models import (
    DiffusionStencil,
    GlobalLinearModel,
    IdentityPredictor,
    LearnedStencil,
    MetricsRecord,
    MetricSums,
    Predictor,
    UpwindStencil,
    fit_global_linear,
    fit_stencil,
    metrics_record,
    paper_l2,
    r2,
    read_stencil,
    rel_l2,
    sample_training_pairs,
    write_stencil,
)
from .config import DatasetConfig, ExperimentConfig, PredictorConfig, load_config
