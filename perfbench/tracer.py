"""Spans and counts recorded from outside the program.

`Tracer.install` replaces module-level entry points and methods of the
sentprofile modules with timing wrappers. This works without touching the
program because experiment.py (and the modules it calls) look these names
up at call time. Spans live in memory as (name, start, end, parent) and
are written once, after the run.
"""

import functools
import json
import logging
import time
import tracemalloc
from collections import Counter

import numpy as np

# span name of each wrapped module-level function: (module, attribute)
FUNCTION_SPANS = {
    ("experiment", "run_grid"): "experiment.grid",
    ("experiment", "run_experiment"): "experiment.run",
    ("experiment", "load_corpora"): "corpus.load",
    ("experiment", "train_skipgram"): "embed.skipgram",
    ("experiment", "doc_vector"): "embed.doc_repr",
    ("experiment", "doc_matrix"): "embed.doc_repr",
    ("sentiment", "doc_matrix"): "embed.doc_repr",
    ("experiment", "select_source"): "domainsel.select",
    ("experiment", "train_sentiment"): "sentiment.train",
    ("experiment", "extract_representations"): "sentiment.extract",
    ("experiment", "polarity_features"): "sentiment.polarity",
    ("experiment", "train_finetune"): "sentiment.finetune",
    ("experiment", "train_gender"): "gender.train",
    ("experiment", "_smote_core"): "resample.smote",
    ("resample", "_smote_core"): "resample.smote",
}

EXPERIMENT_SPANS = ("experiment.grid", "experiment.run")


class _DropCounter(logging.Handler):
    """Counts the pipeline's 'dropping <what> ...' warnings by kind."""

    def __init__(self, counts: Counter):
        super().__init__(logging.WARNING)
        self.counts = counts

    def emit(self, record):
        msg = str(record.msg)
        for kind, key in (("dropping user", "corpus.users_dropped"),
                          ("dropping review", "corpus.reviews_dropped"),
                          ("dropping manual", "corpus.manual_dropped")):
            if msg.startswith(kind):
                self.counts[key] += 1


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return traced

    def _count(self, fn, counter):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counter(*args, **kwargs)
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap the pipeline's entry points; call once per process."""
        import sentprofile
        from sentprofile import gender, resample, sentiment
        from sentprofile.nn import layers, optim

        counts = self.counts

        def selected(result, source, *args, **kwargs):
            counts["domainsel.kept"] += len(result)
            counts["domainsel.total"] += len(source)

        def synthesized(result, *args, **kwargs):
            counts["resample.synthetic_rows"] += len(result)

        after = {"domainsel.select": selected, "resample.smote": synthesized}
        for (module, attr), name in FUNCTION_SPANS.items():
            owner = getattr(sentprofile, module)
            setattr(owner, attr, self._span(name, getattr(owner, attr),
                                            after.get(name)))

        neighbor_table = resample._neighbor_table

        def measured_neighbor_table(*args, **kwargs):
            tracemalloc.start()
            try:
                return neighbor_table(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                counts["resample.neighbor_table_peak_bytes"] = max(
                    counts["resample.neighbor_table_peak_bytes"], peak)
        # this span includes tracemalloc's cost; the fixed-shape kernel run
        # reports the neighbor table's own time
        resample._neighbor_table = self._span("resample.neighbor_table",
                                              measured_neighbor_table)

        def lstm_shape(layer, x, lengths, *args, **kwargs):
            counts["nn.lstm_padded_steps"] += int(x.shape[0]) * int(x.shape[1])
            counts["nn.lstm_useful_steps"] += int(np.sum(lengths))
        layers.LSTMLayer.forward = self._span(
            "nn.lstm_forward", self._count(layers.LSTMLayer.forward, lstm_shape))
        layers.LSTMLayer.backward = self._span("nn.lstm_backward",
                                               layers.LSTMLayer.backward)

        def step(*args, **kwargs):
            counts["nn.optimizer_steps"] += 1
        optim.Adam.step = self._count(optim.Adam.step, step)
        optim.SGD.step = self._count(optim.SGD.step, step)

        def epochs(model, inputs, labels, config, *args, **kwargs):
            counts["gender.epochs_trained"] += config.epochs
        gender.fit_softmax_classifier = self._count(
            gender.fit_softmax_classifier, epochs)
        sentiment.fit_softmax_classifier = self._count(
            sentiment.fit_softmax_classifier, epochs)

        def forward_batch(model, inputs, training=False):
            if not training:
                counts["gender.eval_forwards"] += 1
        for cls in (gender.GenderModel, sentiment.FinetuneModel):
            cls.forward_batch = self._count(cls.forward_batch, forward_batch)

        logging.getLogger("sentprofile").addHandler(_DropCounter(counts))

    # ------------------------------------------------------------------
    def _outermost(self, names) -> list[int]:
        """Spans with a name in `names` not nested in a span of the same name."""
        out = []
        for index, (name, _, _, parent) in enumerate(self.spans):
            if name not in names:
                continue
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out.append(index)
        return out

    def total(self, *names) -> float:
        return sum((self.spans[i][2] - self.spans[i][1]
                    for i in self._outermost(set(names))), 0.0)

    def calls(self, name) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def self_time(self, names) -> float:
        """Duration of the named spans minus what their direct children cover."""
        names = set(names)
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] in names}
        for name, start, end, parent in self.spans:
            if parent in own:
                own[parent] -= end - start
        return sum(own.values())

    def under(self, name, ancestor) -> int:
        """Number of `name` spans with an `ancestor` span above them."""
        found = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            found += parent >= 0
        return found

    def layer_metrics(self) -> dict:
        """Per-layer values of one traced run, keyed by metric name, plus
        the bases of its two ratios."""
        c = self.counts
        padded = c["nn.lstm_padded_steps"]
        return {
            "corpus.load_s": self.total("corpus.load"),
            "corpus.users_dropped": c["corpus.users_dropped"],
            "corpus.reviews_dropped": c["corpus.reviews_dropped"],
            "corpus.manual_dropped": c["corpus.manual_dropped"],
            "embed.skipgram_s": self.total("embed.skipgram"),
            "embed.skipgram_calls": self.calls("embed.skipgram"),
            "embed.doc_repr_s": self.total("embed.doc_repr"),
            "domainsel.select_s": self.total("domainsel.select"),
            "domainsel.kept": c["domainsel.kept"],
            "domainsel.total": c["domainsel.total"],
            "domainsel.kept_ratio": (c["domainsel.kept"] / c["domainsel.total"]
                                     if c["domainsel.total"] else 0.0),
            "sentiment.train_s": self.total("sentiment.train"),
            "sentiment.train_calls": self.calls("sentiment.train"),
            "sentiment.extract_s": self.total("sentiment.extract"),
            "sentiment.polarity_s": self.total("sentiment.polarity"),
            "sentiment.polarity_lstm_forwards": self.under("nn.lstm_forward",
                                                           "sentiment.polarity"),
            "sentiment.finetune_s": self.total("sentiment.finetune"),
            "sentiment.finetune_calls": self.calls("sentiment.finetune"),
            "gender.train_s": self.total("gender.train"),
            "gender.train_calls": self.calls("gender.train"),
            "gender.epochs_trained": c["gender.epochs_trained"],
            "gender.eval_forwards": c["gender.eval_forwards"],
            "resample.smote_s": self.total("resample.smote"),
            "resample.synthetic_rows": c["resample.synthetic_rows"],
            "resample.neighbor_table_peak_mb":
                c["resample.neighbor_table_peak_bytes"] / 2**20,
            "nn.lstm_forward_calls": self.calls("nn.lstm_forward"),
            "nn.lstm_forward_s": self.total("nn.lstm_forward"),
            "nn.lstm_backward_s": self.total("nn.lstm_backward"),
            "nn.optimizer_steps": c["nn.optimizer_steps"],
            "nn.lstm_padded_steps": padded,
            "nn.lstm_useful_steps": c["nn.lstm_useful_steps"],
            "nn.lstm_useful_step_ratio": (c["nn.lstm_useful_steps"] / padded
                                          if padded else 0.0),
            "experiment.self_s": self.self_time(EXPERIMENT_SPANS),
            "experiment.cells": self.calls("experiment.run"),
        }

    def write_spans(self, path, origin: float) -> None:
        """One JSON object per span, times in seconds from `origin`."""
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name,
                                     "start": start - origin,
                                     "end": end - origin,
                                     "parent": parent}) + "\n")
