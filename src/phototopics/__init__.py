"""Hierarchical organization of tag-annotated photo collections.

Discovers latent topics in image tags with pLSA, names topics via
lexical-taxonomy similarity, scores them with coherence metrics, and
emits a topic -> category -> image manifest.
"""

from .corpus import (
    CooccurrenceMatrix,
    TagTable,
    Vocabulary,
    build_cooccurrence,
    build_vocabulary,
    parse_tag_records,
)
from .exceptions import (
    InputOutputError,
    NumericError,
    PhototopicsError,
    TransportError,
    ValidationError,
)
from .plsa import (
    PlsaModel,
    TrainConfig,
    assign_topic,
    em_step,
    fold_in,
    init_model,
    log_likelihood,
    top_words,
    train,
)
from .taxonomy import (
    TaxonomyGraph,
    compute_ic,
    lcs,
    lin_similarity,
    load_taxonomy,
    word_similarity,
)
from .naming import (
    DEFAULT_TOPIC_NAMES,
    TopicNameDef,
    TopicNaming,
    default_name_defs,
    name_topics,
    parse_name_defs,
    score_topic_names,
)
from .coherence import (
    CoherenceConfig,
    CorpusStats,
    avg_npmi,
    build_corpus_stats,
    uci_score,
    umass_score,
)
from .pipeline import (
    CategoryScores,
    OrganizedCollection,
    emit_manifest,
    fetch_tags,
    load_category_registry,
    load_category_scores,
    organize_collection,
)

__version__ = "0.1.0"
