"""Zero-shot evaluation toolkit for spoken language models.

Four metrics over externally produced features, unit sequences or score
tables: phonetic ABX discriminability, spot-the-word accuracy,
acceptability accuracy, and semantic similarity; plus the supporting
machinery (k-means unit discovery, n-gram controls, pseudo-probability
scoring and the pair-balancing sampler).
"""

__version__ = "0.1.0"

from .abx import AbxResult, abx_evaluate, one_hot_encode
from .distance import dtw_distance
from .errors import FormatError, ValidationError
from .metrics import layer_sweep, paired_accuracy, pool, spearman
from .quantizer import Codebook, kmeans_fit, quantize, read_codebook, write_codebook
from .sampler import Assignment, CandidateSet, sample_sentence_pairs, sample_word_pairs, stratum_objectives
from .scoring import NgramModel, SpanConfig, chain_rule_logprob, ngram_train, span_pseudo_logprob
from .types import FeatureSequence, MetricReport, ScoredPair, SimilarityRecord, TriphoneToken, UnitSequence

__all__ = [name for name in dir() if not name.startswith("_")]
