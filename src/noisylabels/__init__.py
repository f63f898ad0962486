"""Tools for studying and mitigating label noise in text classification:
noise injection (uniform, rule-based, annotation-derived), noise-robust
training (vanilla with early stopping, co-teaching, consensus training),
probability-averaging ensembles, and loss-threshold noise cleaning.
"""

from .cleaning import (
    CleanConfig,
    CleaningReport,
    ThresholdDiagnostic,
    clean_dataset,
    fold_partition,
    heldout_losses,
    retrain_on_cleaned,
    tune_threshold,
)
from .data import (
    Dataset,
    Instance,
    LabelSet,
    SplitSpec,
    generate_synthetic_corpus,
    load_dataset,
    save_dataset,
    split_dataset,
    synthetic_class_vocabularies,
)
from .ensembles import (
    COMPACT_GRID,
    EnsemblePredictions,
    EnsembleSpec,
    GridLists,
    load_ensemble,
    predict_ensemble,
    sample_grid_configs,
    save_ensemble,
    train_boosting,
    train_heterogeneous,
    train_homogeneous,
)
from .errors import (
    ConsensusCollapseError,
    DataFormatError,
    DivergenceError,
    EmptyCleanedSetError,
    MethodError,
    NoisyLabelsError,
    UnreachableNoiseLevelError,
    ValidationError,
)
from .model import (
    Featurizer,
    ModelParams,
    TrainConfig,
    evaluate,
    featurize_dataset,
    featurize_texts,
    init_params,
    instance_losses,
    load_model,
    save_model,
)
from .noise import (
    LabelRule,
    NoiseMatrix,
    RuleLabeler,
    apply_noise,
    inject_annotation_noise,
    inject_rule_noise,
    inject_uniform_noise,
    noise_level,
    noise_matrix,
)
from .harness import (
    ComparisonTable,
    EnsembleSettings,
    ExperimentConfig,
    ExperimentReport,
    compare_methods,
    noise_matrices_csv,
    run_experiment,
    threshold_sweep_csv,
)
from .presets import (
    PRESET_NAMES,
    Preset,
    core_vocabulary_rules,
    get_preset,
    hausa_like_preset,
    separable_preset,
    yoruba_like_preset,
)
from .training import (
    CetaConfig,
    CoteachSchedule,
    coteach_net2_init_seed,
    history_to_csv,
    total_variation,
    train_ceta,
    train_coteaching,
    train_vanilla,
)

__version__ = "0.1.0"
