"""Graph-based semi-supervised learning and conditional anomaly detection."""

from .cad import (CadModel, fit_cad_model, rwcad_scores, rwcad_scores_loo, scale_scores,
                  softhad_score, weighted_knn_scores, weighted_knn_scores_loo)
from .cuts import (CutClassifier, KernelSpec, induce_labels, kernel_matrix,
                   train_maxmargin, train_on_induced)
from .datasets import (ClassMixture, CoreSpec, CoreTruth, MixtureSpec,
                       core_true_scores, default_core, default_mixtures,
                       flip_labels, gen_core_dataset, gen_gauss_mixture,
                       load_dataset_spec, true_anomaly_scores)
from .errors import DegenerateGraphError, InputError, SolverError
from .graph import (GraphConfig, PointSet, SimilarityGraph, build_graph,
                    connected_components, laplacian, resolve_sigma, sigma_from_points,
                    stationary_distribution)
from .harmonic import (SoftConfig, SoftLabels, hard_harmonic, soft_harmonic,
                       solve_harmonic, solve_spd)
from .joint import (BackboneState, JointConfig, elastic_joint, infer_unlabeled,
                    joint_objective, propagate_on_backbone, quantization_step,
                    quantization_surrogate)
from .metrics import auroc
from .online import (CompactGraph, OnlineStep, QuantizerState, compact_harmonic,
                     max_distortion, predict_online)
from .plan import ExperimentPlan, cad_scores, grid_points, plan_from_config, run_plan
from .rng import PortableRng

__version__ = "0.1.0"
