"""emgdecode: block-field spatial features and multi-output regression for
decoding continuous finger joint angles from high-density surface EMG."""

__version__ = "0.1.0"

from .baselines import (
    ComponentSelection,
    DecompositionModel,
    extract_mav_wl,
    extract_rms,
    fit_nmf,
    fit_pca,
    plateau_point,
    r2_var,
    reconstruct,
    select_components,
    transform,
)
from .blocks import (
    BlockPlan,
    WindowPlan,
    plan_blocks,
    plan_windows,
    plan_windows_seconds,
    slice_segment,
)
from .config import RunConfig, SWEEP_RANGES
from .descriptors import (
    FeatureTensor,
    MLDTriple,
    block_covariance,
    extract_mld_bfm,
    mld_triple,
    omega,
    phi,
    sigma,
    spectral_complexity,
)
from .errors import (
    AlignmentError,
    ConfigError,
    EmgDecodeError,
    InvalidInputError,
    InvalidRangeError,
    InvalidSpecError,
    OutOfRangeError,
    PipelineError,
    TrainingDivergedError,
)
from .evaluation import (
    ContributionMaps,
    PipelineResult,
    SFBSResult,
    contribution_map,
    decode_features,
    group_columns_by_block,
    run_pipeline,
    run_sfbs,
    sfbs_select,
    sweep,
)
from .metrics import MetricsReport, compute_metrics, mae, pearson, r2_pred, r2_vw, rmse
from .regression import (
    DEFAULT_GRIDS,
    FittedRegressor,
    KNNModel,
    LinearModel,
    MLPModel,
    RegressorSpec,
    ScalerPair,
    build_sequences,
    fit_knn,
    fit_lasso,
    fit_mlp,
    fit_ridge,
    grid_search_cv,
    postprocess,
    reconstruct_series,
)
from .signal_core import (
    FINGER_LABELS,
    FilterSpec,
    GridLayout,
    IIRCoefficients,
    SignalMatrix,
    SplitResult,
    Trajectory,
    apply_filtfilt,
    crop,
    default_grids,
    design_butterworth,
    filtfilt,
    frequency_response,
    resample_targets,
)
from .synth import SynthConfig, generate_task, generate_tasks, iter_tasks
