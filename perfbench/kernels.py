"""Kernel runs at fixed shapes, outside every workload.

Usage: python3 perfbench/kernels.py --seed N
Prints one JSON line: {"metrics": {...}, "computed": {...}}. Inputs are
drawn from the seed; shapes never change. Operation counts and bytes moved
are computed from the shapes, not measured.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402
from sentprofile.embed import EmbedConfig, train_skipgram  # noqa: E402
from sentprofile.nn import Adam, LSTMLayer, sigmoid  # noqa: E402
from sentprofile.resample import _neighbor_table  # noqa: E402
from sentprofile.sentiment import FinetuneModel  # noqa: E402
from sentprofile.synth import SynthConfig, generate_dataset  # noqa: E402

from workloads import DESK_FLAGS, SYNTH_SHAPE  # noqa: E402

D = DESK_FLAGS["dimension"]
H = DESK_FLAGS["hidden_size"]
R = DESK_FLAGS["r"]
F8 = 8  # bytes per float64


def median_seconds(fn, min_reps=5, min_seconds=0.25, max_reps=20000) -> float:
    times = []
    begin = time.perf_counter()
    while len(times) < max_reps and (len(times) < min_reps
                                     or time.perf_counter() - begin < min_seconds):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def lstm_counts(b, t):
    """Forward GEMM flops and bytes of one LSTM call at (B, T, D, H)."""
    flops = 2 * b * t * (D + H) * 4 * H
    # input, weights, and the seven per-step (B, H) cache planes written
    data = F8 * (b * t * D + (D + H) * 4 * H + 4 * H + 7 * t * b * H)
    return flops, data


def lstm_kernels(rng, metrics, computed):
    layer = LSTMLayer(D, H, rng=rng)
    # doc_matrix pads every document to r columns, so the per-post forwards
    # of polarity_features run at T = r like the batched ones
    for b, t, key in ((32, R, "b32"), (1, R, "b1")):
        x = rng.normal(size=(b, t, D))
        lengths = np.full(b, t)
        fwd = median_seconds(lambda: layer.forward(x, lengths))
        metrics[f"nn.kernel.lstm_fwd_{key}_ms"] = fwd * 1e3
        flops, data = lstm_counts(b, t)
        computed[f"nn.kernel.lstm_fwd_{key}"] = {
            "shape": {"B": b, "T": t, "D": D, "H": H},
            "flops": flops, "bytes": data}
        if key == "b32":
            metrics["nn.kernel.lstm_fwd_gflops"] = flops / fwd / 1e9
            layer.forward(x, lengths)
            d_final = rng.normal(size=(b, H))
            bwd = median_seconds(lambda: layer.backward(d_final))
            metrics["nn.kernel.lstm_bwd_b32_ms"] = bwd * 1e3
            computed["nn.kernel.lstm_bwd_b32"] = {
                "shape": {"B": b, "T": t, "D": D, "H": H},
                "flops": 2 * flops,
                "bytes": data + F8 * b * t * D}


def sigmoid_kernel(rng, metrics, computed):
    x = rng.normal(size=(32, 3 * H))  # the three sigmoid gates of a batch
    metrics["nn.kernel.sigmoid_us"] = median_seconds(lambda: sigmoid(x)) * 1e6
    computed["nn.kernel.sigmoid"] = {"shape": list(x.shape),
                                     "flops": 4 * x.size,
                                     "bytes": 2 * F8 * x.size}


def adam_kernel(rng, metrics, computed):
    model = FinetuneModel(LSTMLayer(D, H, rng=rng), vec_dim=D)
    params = model.parameters()
    grads = {name: rng.normal(scale=1e-3, size=value.shape)
             for name, value in params.items()}
    optimizer = Adam(DESK_FLAGS["learning_rate"])
    metrics["nn.kernel.adam_step_us"] = median_seconds(
        lambda: optimizer.step(params, grads)) * 1e6
    size = sum(v.size for v in params.values())
    # read grad, read/write param, m and v
    computed["nn.kernel.adam_step"] = {"parameters": size, "flops": 12 * size,
                                       "bytes": 7 * F8 * size}


def neighbor_table_kernel(rng, metrics, computed):
    """The finetune joint space: doc vector plus a flattened (T, D) matrix."""
    n, d, k = 100, 1944, 5
    minority = rng.normal(size=(n, d))
    metrics["resample.neighbor_table_s"] = median_seconds(
        lambda: _neighbor_table(minority, k), min_reps=3, min_seconds=0.0)
    tracemalloc.start()
    _neighbor_table(minority, k)
    metrics["resample.kernel.neighbor_table_peak_mb"] = (
        tracemalloc.get_traced_memory()[1] / 2**20)
    tracemalloc.stop()
    computed["resample.neighbor_table"] = {
        "shape": {"n": n, "d": d, "k": k}, "flops": 3 * n * n * d,
        "bytes": 2 * F8 * n * n * d,
        # the (n, n, d) pairwise difference tensor a dense implementation holds
        "diff_tensor_mb": F8 * n * n * d / 2**20}


def skipgram_kernel(seed, metrics, computed):
    dataset = generate_dataset(SynthConfig(n_users=100, n_reviews=100, seed=seed,
                                           **SYNTH_SHAPE))
    docs = [[t for post in u.posts for t in post] for u in dataset.users]
    docs += [list(r.tokens) for r in dataset.reviews]
    config = EmbedConfig(dimension=D, window=DESK_FLAGS["window"],
                         negatives=DESK_FLAGS["negatives"],
                         epochs=DESK_FLAGS["embed_epochs"], seed=seed)
    counts = {}
    for doc in docs:
        for token in doc:
            counts[token] = counts.get(token, 0) + 1
    centres = sum(1 for doc in docs for t in doc
                  if counts[t] >= config.min_count) * config.epochs
    seconds = median_seconds(lambda: train_skipgram(docs, config),
                             min_reps=3, min_seconds=0.0)
    metrics["embed.skipgram_tokens_per_s"] = centres / seconds
    # expected targets per centre: (window + 1) context words, each with
    # `negatives` noise words; a dot product and an update of D each
    targets = (config.window + 1) * (1 + config.negatives)
    computed["embed.skipgram"] = {"centre_tokens": centres,
                                  "flops": 4 * D * targets * centres,
                                  "bytes": 2 * F8 * D * (targets + 1) * centres}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    metrics, computed = {}, {}
    lstm_kernels(rng, metrics, computed)
    sigmoid_kernel(rng, metrics, computed)
    adam_kernel(rng, metrics, computed)
    neighbor_table_kernel(rng, metrics, computed)
    skipgram_kernel(args.seed, metrics, computed)
    print(json.dumps({"metrics": metrics, "computed": computed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
