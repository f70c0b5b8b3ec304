"""Depth-adaptive Transformer text classification with precomputed depths."""

from .corpus import Corpus, CorpusStats, TokenizerConfig, Vocab, collect_stats, load_tsv, tokenize
from .encoder import AdaptiveEncoder, EncoderConfig, LayerCounts
from .mi import MiTable, build_mi_table
from .recon import select_depth, train_mlm
from .train import FitSettings

__version__ = "0.1.0"

__all__ = [
    "AdaptiveEncoder",
    "Corpus",
    "CorpusStats",
    "EncoderConfig",
    "FitSettings",
    "LayerCounts",
    "MiTable",
    "TokenizerConfig",
    "Vocab",
    "build_mi_table",
    "collect_stats",
    "load_tsv",
    "select_depth",
    "tokenize",
    "train_mlm",
]
