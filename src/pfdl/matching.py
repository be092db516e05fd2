"""Knowledge matching: how strongly does a new task resemble what each
pooled model already knows, and should the client reuse or start fresh.

The matching intensity of a pooled model is the mean of its auxiliary
classifier's sigmoid outputs over the new task's local samples. Auxiliary
classifiers are trained one-vs-rest: the task's own samples are positives
and synthetic off-manifold samples are negatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn

DECISION_NEW = "new_model"
DECISION_REUSE = "reuse"


@dataclass(frozen=True)
class NegativeSynthesisSpec:
    """How to fabricate negatives from a batch of task samples.

    A `permute_fraction` share of the batch gets an independent coordinate
    permutation per sample; the rest get additive Gaussian noise scaled to
    noise_sigma_scale times the per-feature standard deviation of the shard.
    """

    noise_sigma_scale: float = 1.5
    permute_fraction: float = 0.5

    def __post_init__(self):
        if self.noise_sigma_scale <= 0:
            raise ValueError("noise_sigma_scale must be positive")
        if not 0.0 <= self.permute_fraction <= 1.0:
            raise ValueError("permute_fraction must lie in [0, 1]")


@dataclass
class MatchingReport:
    rho: np.ndarray
    lam: float
    decision: str
    model_index: int | None
    budget_forced: bool = False

    def to_record(self) -> dict:
        return {
            "rho": [float(r) for r in self.rho],
            "lambda": float(self.lam),
            "decision": self.decision,
            "model_index": self.model_index,
            "budget_forced": self.budget_forced,
        }


def synthesize_negatives(X_pos: np.ndarray, feat_std: np.ndarray,
                         spec: NegativeSynthesisSpec, rng: np.random.Generator,
                         batch_size: int) -> np.ndarray:
    """One negative per positive; deterministic given the rng state.

    The rows form consecutive batches of `batch_size`. In each batch the
    leading round(permute_fraction * length) rows are permuted and the rest
    are noised, so slicing the result batch by batch gives every batch the
    spec's mix. All permutations are drawn first, then all noise.
    """
    X_pos = np.asarray(X_pos, dtype=np.float64)
    n, d = X_pos.shape
    bs = batch_size
    full, tail = divmod(n, bs)
    # the full batches as (full, bs, d), and the short last batch
    X3, X_tail = X_pos[:full * bs].reshape(full, bs, d), X_pos[full * bs:]
    out = np.empty((n, d))
    out3, out_tail = out[:full * bs].reshape(full, bs, d), out[full * bs:]
    p = int(round(spec.permute_fraction * bs))  # permuted rows per full batch
    p_tail = int(round(spec.permute_fraction * tail))
    permuted = full * p + p_tail
    if permuted:
        # an independent coordinate permutation per sample, gathered
        # through flat indices: row r's entries start at r * d
        perms = np.argsort(rng.random((permuted, d)), axis=1)
        i = np.arange(permuted)
        rows = i + (np.minimum(i // p, full) if p else full) * (bs - p)
        perms += rows[:, None] * d
        gathered = np.ravel(X_pos).take(perms)
        out3[:, :p] = gathered[:full * p].reshape(full, p, d)
        out_tail[:p_tail] = gathered[full * p:]
    if n > permuted:
        noise = rng.standard_normal((n - permuted, d))
        noise *= spec.noise_sigma_scale * feat_std
        cut = full * (bs - p)
        np.add(X3[:, p:], noise[:cut].reshape(full, bs - p, d), out=out3[:, p:])
        np.add(X_tail[p_tail:], noise[cut:], out=out_tail[p_tail:])
    return out


def matching_intensity(pool, X) -> np.ndarray:
    """Mean auxiliary score over the shard, one entry per pooled model."""
    if len(pool) == 0:
        return np.zeros(0)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ValueError("matching needs a non-empty 2-d sample array")
    return nn.stacked_heads(pool, X, cls=False)[1].mean(axis=1)


def select_strategy(rho: np.ndarray, lam: float, pool_size: int,
                    max_pool_size: int) -> MatchingReport:
    """Reuse the best-matching model or add a fresh one.

    Empty pool: always a new model. Otherwise reuse argmax(rho) when the
    best intensity reaches lam; else a new model while the pool budget
    allows, and a budget-forced reuse of the argmax once it does not.
    Argmax ties resolve to the lowest index.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must lie in [0, 1]")
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (pool_size,):
        raise ValueError(f"rho has {rho.shape} entries for pool of {pool_size}")
    if max_pool_size < 1:
        raise ValueError("max_pool_size must be at least 1")
    if pool_size == 0:
        return MatchingReport(rho=rho, lam=lam, decision=DECISION_NEW, model_index=None)
    best = int(np.argmax(rho))
    if rho[best] >= lam:
        return MatchingReport(rho=rho, lam=lam, decision=DECISION_REUSE, model_index=best)
    if pool_size < max_pool_size:
        return MatchingReport(rho=rho, lam=lam, decision=DECISION_NEW, model_index=None)
    return MatchingReport(rho=rho, lam=lam, decision=DECISION_REUSE, model_index=best,
                          budget_forced=True)

