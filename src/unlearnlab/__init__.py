"""Desk-scale machine unlearning laboratory.

Small differentiable classifiers with exact gradients, a
reference-guided unlearning method plus four standard baselines, and a
forgetting/utility evaluation suite (accuracies, membership-inference
AUCs, predictive-distribution divergences, gap-to-oracle summaries),
all deterministic given their seeds.
"""

from .data import (
    DataError,
    Dataset,
    DataSplits,
    GenSpec,
    SplitError,
    class_centroids,
    class_histogram,
    generate_gaussian_mixture,
    load_csv,
    make_splits,
    round_half_up,
    sample_minibatch,
    write_csv,
)
from .config import (
    ExperimentConfig,
    MethodGrid,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
)
from .harness import (
    GridResult,
    RunResult,
    SeedContext,
    derive_seed,
    evaluate_model,
    prepare_seed,
    run_experiment,
    select_hyperparams,
    sweep_tradeoff,
    write_report,
)
from .metrics import (
    AttackScores,
    MetricsReport,
    accuracy,
    aggregate_seeds,
    attack_auc,
    gap_report,
    js_divergence,
    js_divergence_avg,
    rmia_lite_scores,
    smia_scores,
    with_gaps,
)
from .models import (
    ArchitectureSpec,
    LossSpec,
    Model,
    OptState,
    TrainConfig,
    forward_log_probs,
    forward_logits,
    forward_probs,
    init_model,
    init_opt_state,
    kl_divergence,
    load_checkpoint,
    loss_and_grad,
    save_checkpoint,
    sgd_step,
    train,
    unpack_params,
)
from .reference import CoverageError, RefDistConfig, build_refdist, match_histogram
from .report import AggregateRow, SweepPoint, read_metrics_csv
from .unlearn import (
    METHODS,
    UnlearnConfig,
    finetune,
    l1_sparse,
    neggrad,
    neggrad_plus,
    regun,
    unlearn,
)

__version__ = "0.1.0"
