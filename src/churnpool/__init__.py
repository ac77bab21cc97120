"""churnpool: hierarchical Bayesian churn modeling for small multi-entity
datasets, with boosted-tree prior transfer and conformal prediction sets."""

from .conformal import (CalibrationResult, calibrate_pooled, conservative_adjust,
                        coverage_audit, predict_sets, recommend_conservative)
from .data import (Dataset, HierGroundTruth, SMECollection,
                   StandardizationStats, apply_standardization,
                   generate_hierarchical_population, load_collection, load_csv,
                   make_synthetic_smes, save_collection, standardize,
                   stratified_kfold, stratified_split)
from .errors import (ChurnpoolError, ConvergenceError, DataError,
                     DiagnosticError, NotFittedError, ValidationError)
from .evaluate import (ExperimentConfig, ExperimentReport, auc,
                       classification_metrics, cohens_d_paired, fit_logreg_l2,
                       logreg_predict, paired_t_test, run_experiment,
                       student_t_sf)
from .gbdt import (GradientBoostedTrees, TreeEnsemble, TreeNode,
                   feature_importance)
from .hier_model import (HierData, HierHyper, HierTarget,
                         HierarchicalLogistic, posterior_predict_matrix,
                         shrinkage_report, shrinkage_weight)
from .nuts import (Diagnostics, FunctionTarget, PosteriorTrace, SamplerConfig,
                   ess, rhat, sample)
from .shap_prior import (PriorSpec, TreeShapExplainer, extract_priors,
                         prior_only_auc)

__version__ = "0.1.0"
