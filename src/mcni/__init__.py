"""Weight-noise injection for neural-network uncertainty estimation.

Train small dense networks whose weights are perturbed by Gaussian noise
scaled to each layer's own weight spread, keep the noise live at prediction
time, and summarize T stochastic forward passes into predictive means,
variances, and intervals. Ships the MC-dropout baseline, the full metric
suite (PICP, MPIW, RMSE, NLL, MSLL, ECE, Brier, risk-coverage), and an
empirical check of the infinite-width Gaussian-process correspondence.

Import from the submodules (``mcni.models``, ``mcni.optim``, ``mcni.mc``,
``mcni.metrics``, ...); the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
