"""Train strongly convex models while caching the optimization path, then
rapidly update the trained parameters after deletion or addition of samples
using a quasi-Newton correction of the cached trajectory."""

from .dataio import (
    SyntheticSpec,
    generate_synthetic,
    load_cache,
    load_model,
    parse_csv,
    parse_libsvm,
    save_cache,
    save_model,
)
from .engine import (
    ChangeSet,
    DeltaGradConfig,
    UpdateOutcome,
    baseline_retrain,
    expected_full_gradient_evals,
    relearn_batch_gd,
    unlearn_batch_gd,
    unlearn_batch_sgd,
    unlearn_general,
    unlearn_online,
)
from .errors import (
    CacheFormatError,
    ChangeSetError,
    DeltaGradError,
    DimensionMismatchError,
    DivergenceError,
    FactorizationError,
    FingerprintMismatchError,
    ParseError,
    PrivacyBoundError,
)
from .lbfgs import CurvaturePairBuffer
from .lbfgs import quasi_hvp  # noqa: F401 (importable, no longer exported)
from .models import (
    Dataset,
    LossConfig,
    Objective,
    full_gradient,
    hessian_vector_product,
    loss,
    smoothness_bound,
)
from .privacy import (
    ConstantEstimates,
    delta_bound,
    estimate_constants,
    laplace_noise,
    sample_laplace,
)
from .trainer import TrainConfig, TrainingHistory, derive_schedule, train_gd, train_sgd

__version__ = "0.1.0"

__all__ = [
    "CacheFormatError",
    "ChangeSet",
    "ChangeSetError",
    "ConstantEstimates",
    "CurvaturePairBuffer",
    "Dataset",
    "DeltaGradConfig",
    "DeltaGradError",
    "DimensionMismatchError",
    "DivergenceError",
    "FactorizationError",
    "FingerprintMismatchError",
    "LossConfig",
    "Objective",
    "ParseError",
    "PrivacyBoundError",
    "SyntheticSpec",
    "TrainConfig",
    "TrainingHistory",
    "UpdateOutcome",
    "baseline_retrain",
    "delta_bound",
    "derive_schedule",
    "estimate_constants",
    "expected_full_gradient_evals",
    "full_gradient",
    "generate_synthetic",
    "hessian_vector_product",
    "laplace_noise",
    "load_cache",
    "load_model",
    "loss",
    "parse_csv",
    "parse_libsvm",
    "relearn_batch_gd",
    "sample_laplace",
    "save_cache",
    "save_model",
    "smoothness_bound",
    "train_gd",
    "train_sgd",
    "unlearn_batch_gd",
    "unlearn_batch_sgd",
    "unlearn_general",
    "unlearn_online",
]
