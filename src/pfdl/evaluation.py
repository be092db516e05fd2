"""Ensemble inference and the incremental accuracy bookkeeping.

A client predicts with its whole pool: per sample, each model's auxiliary
score is normalized into an ensemble weight (uniform fallback when all
scores vanish) and the models' softmax outputs are mixed accordingly.
Accuracies land in a lower-triangular matrix A where A[n][m] is the
accuracy on task m measured after training task n.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import InvariantError

ZERO_DENOM = 1e-12
PROB_FLOOR = 1e-12


def model_outputs(model: nn.PersonalModel, X) -> tuple[np.ndarray, np.ndarray]:
    """A model's aux scores, shape (n,), and softmax probabilities, shape
    (n, C), on the rows of X."""
    logits, scores = nn.heads(model, X)
    return scores, nn.softmax(logits)


def model_digest(model: nn.PersonalModel) -> bytes:
    """sha256 of the model's parameter bytes: equal for bit-identical
    models, new whenever a parameter changes in place."""
    return hashlib.sha256(model.params).digest()


class OutputMemo(dict):
    """Model outputs on the run's test sets, computed once per run.

    Maps (model digest, dataset index) to the model's `model_outputs` on
    that dataset's test rows. The key is the parameters' content, never
    the model object: models are overwritten in place during a run, and
    every active client ends a task holding a bit-identical copy of the
    task's global model, so identical copies share one entry.
    """

    def outputs(self, model: nn.PersonalModel, X, key) -> tuple[np.ndarray, np.ndarray]:
        """model_outputs(model, X), read through the memo; key is
        (model_digest(model), index of the dataset X comes from)."""
        out = self.get(key)
        if out is None:
            out = self[key] = model_outputs(model, X)
        return out

    def retain(self, digests) -> None:
        """Drop every entry whose model digest is not in digests."""
        for key in [key for key in self if key[0] not in digests]:
            del self[key]


def ensemble_weights(scores: np.ndarray):
    """Per-sample normalized aux scores from an (n, d) score matrix, one
    column per pool model; also the number of rows that fell back to
    uniform weighting."""
    denom = scores.sum(axis=1)
    fallback = denom < ZERO_DENOM
    weights = np.empty_like(scores)
    ok = ~fallback
    weights[ok] = scores[ok] / denom[ok, None]
    weights[fallback] = 1.0 / scores.shape[1]
    return weights, int(fallback.sum())


def ensemble_probs_matrix(pool, X, memo: OutputMemo | None = None, keys=()):
    """Mixture predictive distribution for every row of X, shape (n, C),
    and the number of rows that fell back to uniform weighting.

    With a memo, keys[i] is pool[i]'s memo key on X and the models'
    outputs are read through the memo.
    """
    if not pool:
        raise ValueError("empty pool")
    if memo is None:
        outputs = [model_outputs(m, X) for m in pool]
    else:
        outputs = [memo.outputs(m, X, key) for m, key in zip(pool, keys, strict=True)]
    weights, fallbacks = ensemble_weights(np.stack([s for s, _ in outputs], axis=1))
    probs = np.stack([p for _, p in outputs], axis=1)
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
