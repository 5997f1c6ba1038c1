"""Weight-noise injection for neural-network uncertainty estimation.

Train small dense networks whose weights are perturbed by Gaussian noise
scaled to each layer's own weight spread, keep the noise live at prediction
time, and summarize T stochastic forward passes into predictive means,
variances, and intervals. Ships the MC-dropout baseline, the full metric
suite (PICP, MPIW, RMSE, NLL, MSLL, ECE, Brier, risk-coverage), and an
empirical check of the infinite-width Gaussian-process correspondence.
"""

from .nn import (DETERMINISTIC, EVAL, TRAIN, ContractError, DenseLayer,
                 ForwardTrace, Network, ShapeError, l2_penalty,
                 loss_cross_entropy, loss_mse, softmax, stack_networks)
from .noise import (DropoutLayer, NoiseSpec, NoisyDenseLayer, layer_weight_std,
                    sample_noise)
from .models import FAMILIES, build_mlp
from .optim import (Adam, FitResult, GridResult, SGDMomentum, TrainConfig,
                    fit, grid_search, task_loss, training_loss_and_grads)
from .mc import (ClassificationSummary, PredictiveSamples, PredictiveSummary,
                 mc_predict, summarize_classification, summarize_regression)
from .metrics import (GaussianNll, RiskCoverageCurve, brier, ece, mpiw, msll,
                      nll_gaussian, picp, risk_coverage, rmse)
from .data import (DataError, Dataset, Standardizer, gaussian_corrupt,
                   gen_toy, load_csv, save_csv, split, standardize_fit_apply,
                   toy_mean)
from .gpcheck import (CorrespondenceReport, KernelMCConfig, WideNetProbe,
                      analytic_kernel_identity, correspondence_report,
                      kernel_mc_matrix, wide_net_covariance)

__version__ = "0.1.0"

__all__ = [
    "TRAIN", "EVAL", "DETERMINISTIC",
    "ShapeError", "ContractError", "DataError",
    "DenseLayer", "NoisyDenseLayer", "DropoutLayer", "NoiseSpec", "Network",
    "ForwardTrace", "stack_networks", "softmax", "loss_mse",
    "loss_cross_entropy", "l2_penalty", "layer_weight_std", "sample_noise",
    "FAMILIES", "build_mlp",
    "TrainConfig", "Adam", "SGDMomentum", "fit", "FitResult", "grid_search",
    "GridResult", "task_loss", "training_loss_and_grads",
    "PredictiveSamples", "PredictiveSummary", "ClassificationSummary",
    "mc_predict", "summarize_regression", "summarize_classification",
    "GaussianNll", "RiskCoverageCurve", "picp", "mpiw", "rmse", "nll_gaussian",
    "msll", "ece", "brier", "risk_coverage",
    "Dataset", "Standardizer", "gen_toy", "toy_mean", "load_csv", "save_csv",
    "split", "standardize_fit_apply", "gaussian_corrupt",
    "KernelMCConfig", "WideNetProbe", "CorrespondenceReport", "kernel_mc_matrix",
    "wide_net_covariance", "analytic_kernel_identity",
    "correspondence_report",
    "__version__",
]
