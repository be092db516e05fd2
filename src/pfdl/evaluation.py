"""Ensemble inference and the incremental accuracy bookkeeping.

A client predicts with its whole pool: per sample, each model's auxiliary
score is normalized into an ensemble weight (uniform fallback when all
scores vanish) and the models' softmax outputs are mixed accordingly.
Accuracies land in a lower-triangular matrix A where A[n][m] is the
accuracy on task m measured after training task n.

Without a memo, a pool is mixed straight from one stacked pass (the global
objective scores each client's pool this way); the eval cells read model
outputs through the run's `OutputMemo`, keyed by a digest that
`pool_digests` computes once per distinct parameter vector per evaluation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import InvariantError

ZERO_DENOM = 1e-12
PROB_FLOOR = 1e-12


def model_digest(model: nn.PersonalModel) -> bytes:
    """sha256 of the model's parameter bytes: equal for bit-identical
    models, new whenever a parameter changes in place."""
    return hashlib.sha256(model.params).digest()


def pool_digests(pools) -> list[list[bytes]]:
    """model_digest of every model of every pool, hashing each distinct
    parameter vector once: the clients of a task hold bit-identical copies
    of its global model. The parameters' sum groups the candidates and a
    bitwise comparison decides reuse, so +0.0 and -0.0 stay apart."""
    seen = {}  # sum -> [(uint64 view, digest)], for this call only
    out = []
    for pool in pools:
        row = []
        for model in pool:
            bits = model.params.view(np.uint64)
            group = seen.setdefault(float(model.params.sum()), [])
            digest = next((g for b, g in group if (b == bits).all()), None)
            if digest is None:
                digest = model_digest(model)
                group.append((bits, digest))
            row.append(digest)
        out.append(row)
    return out


class OutputMemo(dict):
    """Model outputs on the run's test sets, computed once per run.

    Maps (model digest, dataset index) to the model's aux scores, shape
    (n,), and softmax probabilities, shape (n, C), on that dataset's test
    rows. The key is the parameters' content, never the model object:
    models are overwritten in place during a run, and every active client
    ends a task holding a bit-identical copy of the task's global model,
    so identical copies share one entry.
    """

    def fill(self, pool, X, keys) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each pool model's (scores, probabilities) on X, read through
        the memo; keys[i] is (model_digest(pool[i]), index of the dataset
        X comes from). All missing entries come from one stacked pass."""
        missing = {key: m for m, key in zip(pool, keys, strict=True) if key not in self}
        if missing:
            logits, scores = nn.stacked_heads(list(missing.values()), X)
            for key, s, p in zip(missing, scores, nn.softmax(logits)):
                self[key] = s, p
        return [self[key] for key in keys]

    def retain(self, digests) -> None:
        """Drop every entry whose model digest is not in digests."""
        for key in [key for key in self if key[0] not in digests]:
            del self[key]


def ensemble_weights(scores: np.ndarray):
    """Per-sample normalized aux scores from an (n, M) score matrix, one
    column per pool model; also the number of rows that fell back to
    uniform weighting (a score sum below ZERO_DENOM)."""
    denom = scores.sum(axis=1, keepdims=True)
    fallback = denom < ZERO_DENOM
    weights = np.divide(scores, denom, out=np.empty_like(scores), where=~fallback)
    np.copyto(weights, 1.0 / scores.shape[1], where=fallback)
    return weights, int(fallback.sum())


def ensemble_probs_matrix(pool, X, memo: OutputMemo | None = None, keys=()):
    """Mixture predictive distribution for every row of X, shape (n, C),
    and the number of rows that fell back to uniform weighting.

    With a memo, keys[i] is pool[i]'s memo key on X and the models'
    outputs are read through the memo; without one, the pool is mixed
    straight from one stacked pass.
    """
    if not pool:
        raise ValueError("empty pool")
    if memo is None:
        logits, scores = nn.stacked_heads(pool, X)
        # contiguous (n, M) and (n, M, C) copies: the same layout, and so
        # the same bits, as the memo path's np.stack(axis=1)
        scores = np.ascontiguousarray(scores.T)
        probs = np.ascontiguousarray(nn.softmax(logits).transpose(1, 0, 2))
    else:
        outputs = memo.fill(pool, X, keys)
        scores = np.stack([s for s, _ in outputs], axis=1)
        probs = np.stack([p for _, p in outputs], axis=1)
    weights, fallbacks = ensemble_weights(scores)
    return np.einsum("nd,ndc->nc", weights, probs), fallbacks


def accuracy(probs: np.ndarray, y: np.ndarray) -> float:
    """Share of rows whose most probable class is the label."""
    return float(np.mean(np.argmax(probs, axis=1) == y))


def mean_ce(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of the labels, each probability floored at
    PROB_FLOOR."""
    return float(np.mean(-np.log(np.clip(probs[np.arange(len(y)), y], PROB_FLOOR, None))))


@dataclass
class MetricsMatrix:
    """Lower-triangular accuracy grid plus the derived summaries."""

    acc: np.ndarray  # (N, N), entries for m <= n, NaN above the diagonal
    avg_final: float
    diag: np.ndarray
    final_row: np.ndarray
    forgetting: np.ndarray  # per task m: max_n A[n][m] - A[N][m]
    global_objective: float | None = None

    @property
    def num_tasks(self) -> int:
        return self.acc.shape[0]

    def mean_forgetting(self) -> float:
        return float(np.mean(self.forgetting))


def build_metrics(per_client_acc: np.ndarray, weights: np.ndarray,
                  global_objective: float | None = None) -> MetricsMatrix:
    """Aggregate per-client accuracies into the incremental matrix.

    Args:
        per_client_acc: (K, N, N) array, NaN where a client has no entry.
        weights: (K, N, N) non-negative weights (test-set sizes); a cell's
            total weight must be positive for every m <= n.
        global_objective: optional empirical objective to carry along.
    """
    K, N, _ = per_client_acc.shape
    acc = np.full((N, N), np.nan)
    for n in range(N):
        for m in range(n + 1):
            w = weights[:, n, m]
            vals = per_client_acc[:, n, m]
            usable = w > 0
            if not np.any(usable):
                raise InvariantError(f"no client evaluated cell (n={n}, m={m})")
            acc[n, m] = float(np.sum(w[usable] * vals[usable]) / np.sum(w[usable]))
    final_row = acc[N - 1, :].copy()
    diag = np.array([acc[m, m] for m in range(N)])
    forgetting = np.array([np.nanmax(acc[m:, m]) - final_row[m] for m in range(N)])
    return MetricsMatrix(acc=acc, avg_final=float(final_row.mean()), diag=diag,
                         final_row=final_row, forgetting=forgetting,
                         global_objective=global_objective)
