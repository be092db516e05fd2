"""Ensemble inference and the incremental accuracy bookkeeping.

A client predicts with its whole pool: per sample, each model's auxiliary
score is normalized into an ensemble weight (uniform fallback when all
scores vanish) and the models' softmax outputs are mixed accordingly.
Accuracies land in a lower-triangular matrix A where A[n][m] is the
accuracy on task m measured after training task n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import InvariantError

ZERO_DENOM = 1e-12
PROB_FLOOR = 1e-12


def ensemble_weight_matrix(pool, X):
    """Per-sample normalized aux scores, shape (n, d); also the number of
    rows that fell back to uniform weighting."""
    if not pool:
        raise ValueError("empty pool")
    X = np.asarray(X, dtype=np.float64)
    scores = np.stack([nn.aux_scores(m, X) for m in pool], axis=1)
    denom = scores.sum(axis=1)
    fallback = denom < ZERO_DENOM
    weights = np.empty_like(scores)
    ok = ~fallback
    weights[ok] = scores[ok] / denom[ok, None]
    weights[fallback] = 1.0 / len(pool)
    return weights, int(fallback.sum())


def ensemble_probs_matrix(pool, X):
    """Mixture predictive distribution for every row of X, shape (n, C)."""
    weights, fallbacks = ensemble_weight_matrix(pool, X)
    probs = np.stack([nn.softmax(nn.class_logits(m, X)) for m in pool], axis=1)
    return np.einsum("nd,ndc->nc", weights, probs), fallbacks


def accuracy_and_ce(probs: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    pred = np.argmax(probs, axis=1)
    acc = float(np.mean(pred == y))
    ce = float(np.mean(-np.log(np.clip(probs[np.arange(len(y)), y], PROB_FLOOR, None))))
    return acc, ce


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
