"""Command-line entry point.

Subcommands mirror the pipeline stages (embed, select-source,
sentiment-train, extract, smote, gender-train) plus the orchestrated
`evaluate` and `grid` runs and the bundled `synth-data` generator. Every
subcommand that reads experiment settings merges a flat key=value config
file (--config) with explicit flags, which win, and runs the same stage
functions as `evaluate`: `extract` writes the feature matrix `evaluate`
trains its gender MLPs on, and `smote` and `gender-train` read one such
matrix from a feature file. Exit codes: 0 success, 1 any other pipeline
error (a training or shape error, or a fold process that exited without a
result), 2 configuration error, 3 data error.
"""

import argparse
import json
import logging
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .embed import save_embeddings
from .errors import ConfigError, DataError, PipelineError
from .experiment import (
    REPRESENTATIONS,
    SENTIMENT_MODES,
    SOURCE_MODES,
    DataPaths,
    ExperimentConfig,
    embedding_table,
    emit_report,
    fit_embeddings,
    load_config_file,
    load_corpora,
    run_experiment,
    run_grid,
    sentiment_features,
    sentiment_sources,
    train_fold_sentiment,
    user_features,
)
from .gender import CLASSES, read_features, train_gender, write_features
from .nn import load_model, save_model
from .nn.optim import OPTIMIZERS
from .resample import smote
from .sentiment import SentimentModel
from .synth import SynthConfig, generate_dataset, marker_frequency_correlation, write_dataset

logger = logging.getLogger(__name__)


def _add_common(parser: argparse.ArgumentParser, config: bool = True) -> None:
    """--verbose, plus --seed and --config for subcommands that read
    experiment settings."""
    parser.add_argument("--verbose", action="store_true")
    if config:
        parser.add_argument("--seed", type=int, default=None,
                            help="global RNG seed")
        parser.add_argument("--config", default=None,
                            help="key=value config file; explicit flags "
                                 "override it")


def _experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--users", required=True)
    parser.add_argument("--reviews", default=None)
    parser.add_argument("--stopwords", default=None)
    parser.add_argument("--manual-labels", dest="manual", default=None)
    parser.add_argument("--embeddings", default=None,
                        help="reuse a saved embedding table instead of "
                             "training; its dimension must match --dimension")
    parser.add_argument("--representation", choices=REPRESENTATIONS, default=None)
    parser.add_argument("--sentiment-mode", choices=SENTIMENT_MODES, default=None)
    parser.add_argument("--source-mode", choices=SOURCE_MODES, default=None)
    parser.add_argument("--similarity-threshold", dest="z", type=float, default=None)
    parser.add_argument("--smote", action="store_true", default=None)
    parser.add_argument("--smote-k", type=int, default=None)
    parser.add_argument("--epochs", default=None,
                        help="comma-separated epoch grid, e.g. 60,80,100")
    parser.add_argument("--folds", type=int, default=None)
    parser.add_argument("--dimension", type=int, default=None)
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--negatives", type=int, default=None)
    parser.add_argument("--embed-epochs", type=int, default=None)
    parser.add_argument("--min-count", type=int, default=None)
    parser.add_argument("--r", type=int, default=None,
                        help="document matrix column count")
    parser.add_argument("--keyword-top-n", type=int, default=None)
    parser.add_argument("--hidden-size", type=int, default=None)
    parser.add_argument("--sentiment-dropout", type=float, default=None)
    parser.add_argument("--sentiment-epochs", type=int, default=None)
    _training_flags(parser)


def _training_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--learning-rate", type=float, default=None)
    parser.add_argument("--optimizer", choices=OPTIMIZERS, default=None)
    parser.add_argument("--mlp-dropout", type=float, default=None)


def _experiment_config(args, **fixed) -> ExperimentConfig:
    """The validated config of the config file and flags of `args`, with
    the fields `fixed` set whatever those say."""
    raw = {}
    if args.config:
        raw.update(load_config_file(args.config))
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            raw[f.name] = value
    raw.update(fixed)
    # from_dict parses the --epochs string
    config = ExperimentConfig.from_dict(raw)
    config.validate()
    return config


def _data_paths(args) -> DataPaths:
    return DataPaths(users=args.users, reviews=args.reviews,
                     stopwords=args.stopwords, manual=args.manual,
                     embeddings=args.embeddings)


def _cmd_embed(args) -> int:
    config = _experiment_config(args)
    _, docs, reviews, _ = load_corpora(_data_paths(args))
    table = fit_embeddings(config, docs, reviews)
    save_embeddings(table, args.out)
    print(f"trained {len(table)} vectors of dimension {table.dimension}; "
          f"saved to {args.out}")
    return 0


def _sentiment_source(config: ExperimentConfig, paths: DataPaths):
    """(source, loaded reviews): the source `evaluate` trains the sentiment
    model of `config.source_mode` on, whose selection reads the averaged
    word vectors of the users `evaluate` keeps."""
    _, docs, reviews, stopwords = load_corpora(paths)
    table = embedding_table(config, paths, docs, reviews)
    targets = None
    if "high_similarity" in config.source_mode:
        targets = user_features(replace(config, representation="avg_vector"),
                                set(), [], docs, table)[1]
    return sentiment_sources(config, [config.source_mode], reviews, targets,
                             table, stopwords,
                             paths.manual)[config.source_mode], reviews


def _cmd_select_source(args) -> int:
    config = _experiment_config(args, source_mode="high_similarity")
    source, reviews = _sentiment_source(config, _data_paths(args))
    kept_ids = {source.ids[row] for row in source.selected}
    with open(args.out, "w", encoding="utf-8") as fh:
        for review in reviews:
            if review.review_id in kept_ids:
                fh.write(json.dumps({"review_id": review.review_id,
                                     "polarity": review.polarity,
                                     "tokens": list(review.tokens)}) + "\n")
    print(f"kept {len(source.selected)} of {len(source.seqs)} reviews at "
          f"z={config.z}; wrote {args.out}")
    return 0


def _cmd_sentiment_train(args) -> int:
    config = _experiment_config(args)
    source, _ = _sentiment_source(config, _data_paths(args))
    seqs, polarity = source.training_set()
    model, curve = train_fold_sentiment(config, seqs, polarity)
    save_model(model, args.out)
    last = curve[-1]
    print(f"trained on {len(seqs)} items; held-out accuracy "
          f"{last.heldout_accuracy:.4f} after {last.epoch} epochs; "
          f"saved to {args.out}")
    return 0


# the sentiment modes whose features a feature file can hold
EXTRACT_MODES = ("frozen_lstm", "frozen_dense", "polarity_features")


def _cmd_extract(args) -> int:
    config = _experiment_config(args)
    mode = config.sentiment_mode
    if mode not in EXTRACT_MODES:
        raise ConfigError(f"extract writes the features of a sentiment mode "
                          f"in {EXTRACT_MODES}, not {mode!r}")
    if not args.embeddings:
        raise ConfigError("extract needs --embeddings: the table the "
                          "sentiment model was trained on")
    # extract reads no review
    paths = replace(_data_paths(args), reviews=None)
    users, docs, _, stopwords = load_corpora(paths)
    table = embedding_table(config, paths, docs, [])
    model = load_model(args.model)
    if not isinstance(model, SentimentModel):
        raise DataError(f"checkpoint {args.model} holds a "
                        f"{model.checkpoint_kind} model, not a sentiment model")
    if model.input_dim != table.dimension:
        raise DataError(f"checkpoint {args.model} reads "
                        f"{model.input_dim}-dimensional word vectors, but "
                        f"{args.embeddings} holds {table.dimension}-dimensional "
                        f"ones")
    docs, base, mats, lengths, polarity = user_features(
        config, {mode}, users, docs, table, stopwords)
    features = sentiment_features(model, {mode}, mats, lengths, polarity)
    write_features(args.out, [d.user_id for d in docs],
                   [d.gender for d in docs],
                   np.concatenate([base, features[mode]], axis=1),
                   ("doc_vector", "sentiment"))
    print(f"wrote {len(docs)} feature rows ({mode}) to {args.out}")
    return 0


def _cmd_smote(args) -> int:
    config = _experiment_config(args)
    ids, labels, matrix, layout = read_features(args.infile)
    out_x, out_y = smote(matrix, np.array(labels), config.resample_config())
    added = len(out_y) - len(ids)
    write_features(args.out, ids + [f"smote-{j}" for j in range(added)],
                   [str(label) for label in out_y], out_x, layout)
    print(f"{len(ids)} rows in, {len(out_y)} rows out ({added} synthetic); "
          f"wrote {args.out}")
    return 0


def _cmd_gender_train(args) -> int:
    config = _experiment_config(args)
    _, labels, matrix, _ = read_features(args.infile)
    model = train_gender(matrix, labels, config.train_config(args.train_epochs),
                         dropout_rate=config.mlp_dropout)
    save_model(model, args.out)
    truth = np.array([CLASSES.index(label) for label in labels])
    accuracy = float((model.predict_proba(matrix).argmax(axis=1) == truth).mean())
    print(f"trained on {len(labels)} rows; final train accuracy "
          f"{accuracy:.4f}; saved to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    config = _experiment_config(args)
    report = run_experiment(config, _data_paths(args))
    text = emit_report(report, fmt=args.format, out=args.out)
    if args.out:
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_grid(args) -> int:
    config = _experiment_config(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_grid(config, _data_paths(args))
    summary = []
    for (source_mode, layer), report in results:
        name = f"{source_mode}__{layer}.json"
        emit_report(report, fmt="json", out=out_dir / name)
        summary.append((source_mode, layer, report.best_mean()))
    width = max(len(s) for s, _, _ in summary)
    print(f"{'source mode'.ljust(width)}  layer           best mean acc")
    for source_mode, layer, best in summary:
        print(f"{source_mode.ljust(width)}  {layer.ljust(15)} {best * 100:8.2f}%")
    print(f"reports in {out_dir}")
    return 0


def _cmd_synth_data(args) -> int:
    config = SynthConfig(n_users=args.users, n_reviews=args.reviews,
                         seed=args.seed,
                         marker_correlation=args.marker_correlation)
    dataset = generate_dataset(config)
    paths = write_dataset(dataset, args.out_dir)
    corr = marker_frequency_correlation(dataset)
    print(f"wrote {len(dataset.users)} users, {len(dataset.reviews)} reviews, "
          f"{len(dataset.manual)} manual labels to {args.out_dir}")
    print(f"gender/marker-frequency correlation: {corr:.3f}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentprofile",
        description="Sentiment representation transfer for micro-blog "
                    "gender classification")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("embed", help="train word embeddings on both corpora")
    _add_common(p)
    _experiment_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("select-source",
                       help="keep source reviews similar to the target domain")
    _add_common(p)
    _experiment_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_select_source)

    p = sub.add_parser(
        "sentiment-train", help="train the polarity classifier",
        description="Train the polarity classifier `evaluate` trains: under "
                    "entire and high_similarity the one model every fold "
                    "reads, with the same seed. Under the *_plus_manual "
                    "modes, where evaluate trains one model per fold "
                    "without that fold's test users, it trains one model "
                    "on all manual labels, with the seed of fold 1.")
    _add_common(p)
    _experiment_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sentiment_train)

    p = sub.add_parser(
        "extract", help="write the features evaluate trains on",
        description="Write each user's row of the feature matrix `evaluate` "
                    "trains its gender MLPs on: the base representation "
                    "joined with the features --sentiment-mode "
                    f"({', '.join(EXTRACT_MODES)}) reads from the saved "
                    "sentiment model. --embeddings must name the table the "
                    "model was trained on.")
    _add_common(p)
    _experiment_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("smote", help="oversample a feature file")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--smote-k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_smote)

    p = sub.add_parser("gender-train", help="train the gender classifier")
    _add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    # one training length, not the epoch grid of the config file
    p.add_argument("--epochs", dest="train_epochs", metavar="EPOCHS", type=int,
                   default=100)
    _training_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gender_train)

    p = sub.add_parser("evaluate", help="run one cross-validated experiment")
    _add_common(p)
    _experiment_flags(p)
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("grid",
                       help="sweep source modes against extraction layers")
    _add_common(p)
    _experiment_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("synth-data", help="generate a synthetic dataset")
    _add_common(p, config=False)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, default=1000)
    p.add_argument("--reviews", type=int, default=2000)
    p.add_argument("--marker-correlation", type=float, default=0.6)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
