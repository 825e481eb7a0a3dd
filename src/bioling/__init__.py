"""bioling: fast rule-based biomedical text processing.

Lossless tokenization, citation-aware sentence segmentation,
abbreviation detection, and TF-IDF character-3-gram candidate generation
for entity linking against a concept knowledge base.
"""

__version__ = "0.1.0"

from .abbrev import expansion_map, find_abbreviations
from .doc import (
    AbbreviationPair, Document, MentionSpan, SentenceSpan, Token, detokenize,
)
from .index import AliasIndex, build_index, load_index, save_index
from .kb import Concept, KnowledgeBase, kb_stats, load_kb, normalize_alias, save_kb
from .linker import Candidate, CandidateSet, generate_candidates
from .segmenter import (
    SegmenterConfig, citation_split_rate, default_segmenter_config, segment,
)
from .tokenizer import (
    TokenizerRules, default_biomedical_rules, parse_rules, tokenize,
)
from .vectorizer import NgramVectorizer, SparseVector, extract_3grams

__all__ = [
    "AbbreviationPair", "AliasIndex", "Candidate", "CandidateSet", "Concept",
    "Document", "KnowledgeBase", "MentionSpan", "NgramVectorizer",
    "SegmenterConfig", "SentenceSpan", "SparseVector", "Token",
    "TokenizerRules", "build_index", "citation_split_rate",
    "default_biomedical_rules", "default_segmenter_config", "detokenize",
    "expansion_map", "extract_3grams", "find_abbreviations",
    "generate_candidates", "kb_stats", "load_index", "load_kb",
    "normalize_alias", "parse_rules", "save_index", "save_kb", "segment",
    "tokenize",
]
