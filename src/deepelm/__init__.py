"""Deep extreme learning machine auto-encoders for image-set classification.

Train a stack of closed-form ELM auto-encoder layers per class and label
probe image sets by minimum reconstruction error with majority voting.
"""

from .autoencoder import (
    DELMModel,
    LayerSpec,
    reconstruct,
    reconstruction_error,
    train_ae_layer,
    train_delm,
)
from .classifier import (
    ClassModels,
    SetPrediction,
    TrainConfig,
    classify_set,
    train_all,
    train_class_specific,
    train_global,
)
from .datasets import (
    Gallery,
    ImageSet,
    SynthParams,
    load_gallery,
    load_image_sets,
    normalize_gallery,
    save_gallery,
    synth_generate,
)
from .elm import (
    HiddenLayerParams,
    ProcrustesResult,
    activate,
    hidden_response,
    random_orthonormal_mapping,
    solve_orthogonal_procrustes,
    solve_ridge,
    solve_ridge_overdetermined,
    solve_ridge_underdetermined,
)
from .errors import ConfigError, DataError, DelmError, NumericError
from .harness import (
    ProtocolSpec,
    RunReport,
    inject_noise,
    measure_run,
    report_key_values,
    report_text,
    run_kfold,
    split_folds,
    subsample_sets,
)
from .normalize import NormalizationStats, apply_stats, compute_stats, normalize_features
from .persistence import load_model, load_models, save_model, save_models

__version__ = "0.1.0"

__all__ = [
    "ClassModels",
    "ConfigError",
    "DELMModel",
    "DataError",
    "DelmError",
    "Gallery",
    "HiddenLayerParams",
    "ImageSet",
    "LayerSpec",
    "NormalizationStats",
    "NumericError",
    "ProcrustesResult",
    "ProtocolSpec",
    "RunReport",
    "SetPrediction",
    "SynthParams",
    "TrainConfig",
    "activate",
    "apply_stats",
    "classify_set",
    "compute_stats",
    "hidden_response",
    "inject_noise",
    "load_gallery",
    "load_image_sets",
    "load_model",
    "load_models",
    "measure_run",
    "normalize_features",
    "normalize_gallery",
    "random_orthonormal_mapping",
    "reconstruct",
    "reconstruction_error",
    "report_key_values",
    "report_text",
    "run_kfold",
    "save_gallery",
    "save_model",
    "save_models",
    "solve_orthogonal_procrustes",
    "solve_ridge",
    "solve_ridge_overdetermined",
    "solve_ridge_underdetermined",
    "split_folds",
    "subsample_sets",
    "synth_generate",
    "train_all",
    "train_ae_layer",
    "train_class_specific",
    "train_delm",
    "train_global",
]
