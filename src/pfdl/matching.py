"""Knowledge matching: how strongly does a new task resemble what each
pooled model already knows, and should the client reuse or start fresh.

The matching intensity of a pooled model is the mean of its auxiliary
classifier's sigmoid outputs over the new task's local samples. Auxiliary
classifiers are trained one-vs-rest: the task's own samples are positives
and synthetic off-manifold samples are negatives.

A local round's negatives come in two parts. `NegativePlan` is built
once per client and round: the row counts, the gather offsets, the noise
scale and the views of the client's slot rows. `synthesize_negatives`
runs once per epoch: it makes the epoch's draws and writes each negative
straight into its slot row, computed in float64 and rounded once to the
slot rows' dtype.
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


class NegativePlan:
    """One lane's negatives for a round, laid out once.

    The plan owns `ordered`, a float64 (n, d) buffer that holds each
    epoch's positives in their drawn order. `slots` are the lane's slot
    rows: batch b of m positives takes rows [0, m) of slots[b], and its m
    negatives rows [m, 2m). In each batch the leading
    round(permute_fraction * m) negatives are permuted and the rest
    noised, so every batch gets the spec's mix. The plan keeps the
    permuted and noised row counts, the flat offset (row * d) in
    `ordered` of each permuted row, the noise scale and buffer, and the
    views that an epoch reads and writes: one group for the full batches
    and one for the short last batch, if any.
    """

    def __init__(self, spec: NegativeSynthesisSpec, feat_std: np.ndarray, n: int,
                 slots: np.ndarray, batch_size: int):
        d = feat_std.size
        full, tail = divmod(n, batch_size)
        # (first batch, batches, rows per batch, permuted rows per batch)
        groups = [(b, count, m, int(round(spec.permute_fraction * m)))
                  for b, count, m in ((0, full, batch_size), (full, 1, tail)) if count * m]
        self.d, self.ordered = d, np.empty((n, d))
        self.flat, self.scale = self.ordered.reshape(-1), spec.noise_sigma_scale * feat_std
        self.permuted = sum(count * p for _, count, _, p in groups)
        self.noised = n - self.permuted
        self.noise = np.empty((self.noised, d))
        self.positives, self.gathers, self.sums, rows = [], [], [], []
        permuted = noised = 0  # the earlier groups' rows of the uniforms and the noise
        for b, count, m, p in groups:
            first = b * batch_size
            src = self.ordered[first:first + count * m].reshape(count, m, d)
            slot = slots[b:b + count, :, :d]
            self.positives.append((src, slot[:, :m]))
            rows.append(first + (np.arange(count)[:, None] * m + np.arange(p)).ravel())
            self.gathers.append((slice(permuted, permuted + count * p), (count, p, d),
                                 slot[:, m:m + p]))
            noise = self.noise[noised:noised + count * (m - p)]
            self.sums.append((src[:, p:], noise.reshape(count, m - p, d), slot[:, m + p:2 * m]))
            permuted, noised = permuted + count * p, noised + count * (m - p)
        rows = np.concatenate(rows or [np.zeros(0, np.int64)])
        self.offsets = np.repeat(rows[:, None] * d, d, axis=1)


def synthesize_negatives(plan: NegativePlan, rng: np.random.Generator) -> None:
    """Draw one epoch's negatives from the positives in `plan.ordered` and
    write them straight into the plan's slot rows.

    First every permuted row's coordinate permutation (an argsort of
    uniforms), gathered through the plan's flat offsets; then every noised
    row's Gaussian noise, scaled and added to its positive. Both are taken
    in float64 and rounded once into the slot rows' dtype.
    """
    if plan.permuted:
        perms = np.argsort(rng.random((plan.permuted, plan.d)), axis=1)
        perms += plan.offsets
        for rows, shape, slot in plan.gathers:
            slot[...] = plan.flat[perms[rows].reshape(shape)]
    if plan.noised:
        rng.standard_normal(out=plan.noise)
        plan.noise *= plan.scale
        for src, noise, slot in plan.sums:
            np.add(src, noise, out=slot)


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

