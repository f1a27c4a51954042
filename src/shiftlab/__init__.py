"""shiftlab: a desk-scale laboratory for subpopulation-shift model sweeps.

Generates synthetic two-feature-block Gaussian datasets with a controllable
level of spurious correlation, trains grids of logistic-regression models by
gradient descent, decomposes their accuracy by subpopulation, quantifies the
nonlinearity of the (majority, minority) accuracy cloud, and verifies the
closed-form subpopulation accuracy gap against Monte Carlo simulation.
"""

from .analysis import CurveReport, SmoothingSpline, fit_curves, probit
from .config import AnalysisOptions, ExperimentConfig, GridSpec, load_config
from .datagen import Dataset, ShiftSpec, generate, mixture_table
from .evaluator import AgreementRecord, EvalRecord, evaluate, model_mixture
from .harness import (run_agreement_pipeline, run_gen_data, run_spurious_series,
                      run_sweep_pipeline)
from .theory import (PopulationSpec, RocPoint, ScoreModel, accuracy_gap,
                     monte_carlo_gap, roc_traverse, subpop_accuracy)
from .trainer import (HyperParams, ModelRecord, SweepResult, oracle_classifier,
                      sweep, train)

__version__ = "0.1.0"

__all__ = [
    "AgreementRecord", "AnalysisOptions", "CurveReport", "Dataset", "EvalRecord",
    "ExperimentConfig", "GridSpec", "HyperParams", "ModelRecord",
    "PopulationSpec", "RocPoint", "ScoreModel", "ShiftSpec", "SmoothingSpline",
    "SweepResult", "accuracy_gap", "evaluate", "fit_curves", "generate", "load_config",
    "mixture_table", "model_mixture", "monte_carlo_gap", "oracle_classifier", "probit",
    "roc_traverse", "run_agreement_pipeline", "run_gen_data", "run_spurious_series",
    "run_sweep_pipeline", "subpop_accuracy", "sweep", "train",
]
