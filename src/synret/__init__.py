"""Syntax-hierarchy-guided text-video retrieval over precomputed embeddings."""

from .conllu import ParsedToken, parse_conllu
from .dataset import FeatureBundle, load_bundle, load_bundles
from .errors import DataError, NumericalError, SynretError, UsageError
from .hierarchy import (
    SyntaxHierarchy,
    build_hierarchy,
    hierarchy_from_json,
    hierarchy_to_json,
    validate_hierarchy,
)
from .metrics import RetrievalMetrics, compute_metrics, evaluate_matrix
from .params import ModelParams, init_params, load_checkpoint, save_checkpoint
from .scoring import dsl_postprocess, score_matrix
from .tensor_store import PairRecord, gen_fixture, read_manifest, read_tensor, write_tensor
from .train import symmetric_ce_loss

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "FeatureBundle",
    "ModelParams",
    "NumericalError",
    "PairRecord",
    "ParsedToken",
    "RetrievalMetrics",
    "SynretError",
    "SyntaxHierarchy",
    "UsageError",
    "__version__",
    "build_hierarchy",
    "compute_metrics",
    "dsl_postprocess",
    "evaluate_matrix",
    "gen_fixture",
    "hierarchy_from_json",
    "hierarchy_to_json",
    "init_params",
    "load_bundle",
    "load_bundles",
    "load_checkpoint",
    "parse_conllu",
    "read_manifest",
    "read_tensor",
    "save_checkpoint",
    "score_matrix",
    "symmetric_ce_loss",
    "validate_hierarchy",
    "write_tensor",
]
