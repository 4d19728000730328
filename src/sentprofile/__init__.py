"""Sentiment representation transfer for micro-blog gender classification.

The pipeline: clean posts into per-user virtual documents, train word
embeddings over both corpora, select source-domain reviews by average
similarity to the target users, train an LSTM polarity classifier on them,
transfer its middle-layer activations into the features of an MLP
gender classifier, and evaluate under stratified cross validation with
optional minority oversampling.
"""

__version__ = "0.1.0"

from . import corpus, domainsel, embed, experiment, folds, gender, nn, resample, sentiment, synth
from .corpus import (
    SourceReview,
    TokenDocument,
    UserRecord,
    VirtualDocument,
    build_virtual_document,
    build_virtual_documents,
    clean_tokens,
    load_source_reviews,
    load_stopwords,
    load_user_records,
)
from .domainsel import select_source
from .embed import (
    EmbedConfig,
    EmbeddingTable,
    doc_matrix,
    doc_vector,
    gender_keywords,
    load_embeddings,
    save_embeddings,
    tfidf_representation,
    train_skipgram,
)
from .errors import (
    AllOovError,
    CheckpointError,
    ConfigError,
    DataError,
    DuplicateKeyError,
    EmptyDocumentError,
    EmptySelectionError,
    FormatError,
    ParseError,
    PipelineError,
    SchemaError,
    ShapeError,
    TrainingError,
)
from .experiment import (
    DataPaths,
    EvalReport,
    ExperimentConfig,
    emit_report,
    run_experiment,
    run_grid,
)
from .folds import FoldPlan, stratified_kfold
from .gender import GenderModel, train_gender
from .nn import TrainConfig, load_model, save_model
from .resample import ResampleConfig, smote
from .sentiment import (
    SentimentModel,
    build_finetune_model,
    extract_representations,
    polarity_features,
    polarity_sequences,
    train_sentiment,
)
from .synth import SynthConfig, generate_dataset, write_dataset
