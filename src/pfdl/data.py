"""Synthetic domain-shifted classification tasks.

A base dataset is a set of isotropic unit-variance Gaussian clusters whose
means sit on a sphere of radius `class_separation`. A domain is one frozen
`Domain(degrees, noise_sigma)` record: it rotates the features by
`degrees`, then, when noise_sigma is positive, adds Gaussian noise; labels
never change. The rotation acts as a Givens rotation on each consecutive
coordinate pair, so 180 degrees maps x to -x exactly. Datasets carry the
record's JSON form (`Domain.to_dict`), which their files store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .seeding import TAG_BASE, TAG_DOMAIN, TAG_PARTITION, TAG_STREAM, rng_for

STREAM_SYNCHRONIZED = "synchronized"
STREAM_SHUFFLED = "shuffled"
STREAM_MODES = (STREAM_SYNCHRONIZED, STREAM_SHUFFLED)


@dataclass(frozen=True)
class DataConfig:
    """Everything needed to regenerate a benchmark's datasets from scratch.

    `seed` of None means "reuse the experiment seed"; a fixed value lets
    several experiment seeds share one dataset draw.
    """

    num_classes: int = 5
    input_dim: int = 16
    samples_per_class: int = 250
    class_separation: float = 8.0
    rotation_degrees: tuple = (0.0, 60.0, 120.0, 180.0)
    domain_noise_sigma: float = 0.3
    stream_mode: str = STREAM_SYNCHRONIZED
    seed: int | None = None

    def domains(self) -> list[Domain]:
        """One Domain per task, in rotation_degrees order."""
        return [Domain(d, self.domain_noise_sigma) for d in self.rotation_degrees]


# ---------------------------------------------------------------- domains


@dataclass(frozen=True)
class Domain:
    """A rotation by `degrees`, then N(0, noise_sigma^2) noise when
    noise_sigma > 0."""

    degrees: float = 0.0
    noise_sigma: float = 0.0

    def to_dict(self) -> dict:
        """The JSON block stored in dataset files and the data manifest."""
        name = f"rot{self.degrees:g}"
        steps = [{"kind": "rotation", "angle": float(np.deg2rad(self.degrees))}]
        if self.noise_sigma > 0:
            name += f"+noise{self.noise_sigma:g}"
            steps.append({"kind": "noise", "sigma": float(self.noise_sigma)})
        return {"name": name, "steps": steps}


def rotation_matrix(dim: int, angle: float) -> np.ndarray:
    """Block-diagonal Givens rotation of consecutive coordinate pairs."""
    R = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    for i in range(0, dim - 1, 2):
        R[i, i] = c
        R[i, i + 1] = -s
        R[i + 1, i] = s
        R[i + 1, i + 1] = c
    return R


# ---------------------------------------------------------------- datasets


@dataclass
class TaskDataset:
    task_id: int
    domain: dict  # a Domain's JSON block
    num_classes: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    seed: int

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]


def split_sizes(samples_per_class: int) -> tuple[int, int]:
    """Per-class (train, test) row counts of the 80/20 split."""
    n_test = max(1, samples_per_class // 5)
    return samples_per_class - n_test, n_test


def make_base_dataset(num_classes: int, input_dim: int, samples_per_class: int,
                      class_separation: float, seed: int) -> TaskDataset:
    """Isotropic Gaussian clusters with means on a sphere.

    Mean directions are orthonormalized (QR) when num_classes <= input_dim,
    which pins the pairwise mean distance at sqrt(2)*class_separation; the
    construction is fully determined by the seed. Each class contributes
    samples_per_class points, split 80/20 into train/test.

    Args:
        num_classes: number of clusters (>= 2).
        input_dim: feature dimensionality.
        samples_per_class: total points per class before the split.
        class_separation: radius of the sphere the means live on.
        seed: non-negative integer seed.

    Returns:
        A TaskDataset for the unshifted Domain() with task_id 0.
    """
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    if samples_per_class < 5:
        raise ValueError("samples_per_class must be at least 5 for an 80/20 split")
    rng = rng_for(seed, TAG_BASE)
    raw = rng.standard_normal((input_dim, num_classes))
    if num_classes <= input_dim:
        q, _ = np.linalg.qr(raw)
        dirs = q[:, :num_classes].T
    else:
        dirs = raw.T / np.linalg.norm(raw.T, axis=1, keepdims=True)
    means = class_separation * dirs

    n_train, n_test = split_sizes(samples_per_class)
    train_parts, test_parts = [], []
    for c in range(num_classes):
        pts = means[c] + rng.standard_normal((samples_per_class, input_dim))
        train_parts.append(pts[:n_train])
        test_parts.append(pts[n_train:])
    train_x = np.concatenate(train_parts)
    test_x = np.concatenate(test_parts)
    train_y = np.repeat(np.arange(num_classes), n_train)
    test_y = np.repeat(np.arange(num_classes), n_test)
    return TaskDataset(task_id=0, domain=Domain().to_dict(), num_classes=num_classes,
                       train_x=train_x, train_y=train_y,
                       test_x=test_x, test_y=test_y, seed=int(seed))


def apply_domain(base: TaskDataset, domain: Domain, task_id: int) -> TaskDataset:
    """Transform a base dataset into one task's domain.

    Labels are untouched. The noise, train rows first, comes from a
    task-scoped RNG, so each task sees fresh but reproducible noise.
    """
    rng = rng_for(base.seed, TAG_DOMAIN, task_id)
    R = rotation_matrix(base.train_x.shape[1], float(np.deg2rad(domain.degrees)))

    def shift(X: np.ndarray) -> np.ndarray:
        out = X @ R.T
        if domain.noise_sigma > 0:
            out = out + rng.standard_normal(out.shape) * domain.noise_sigma
        return out

    train_x = shift(base.train_x)
    test_x = shift(base.test_x)
    return TaskDataset(task_id=int(task_id), domain=domain.to_dict(),
                       num_classes=base.num_classes,
                       train_x=train_x, train_y=base.train_y.copy(),
                       test_x=test_x, test_y=base.test_y.copy(), seed=base.seed)


# ---------------------------------------------------------------- partition


@dataclass
class ClientShard:
    # a plain array would do, but perfbench's predicted_steps reads .indices
    indices: np.ndarray  # into the task's train arrays


def _largest_remainder(p: np.ndarray, n: int) -> np.ndarray:
    """Integer counts summing to n, proportional to p, ties to low index."""
    exact = p * n
    counts = np.floor(exact).astype(int)
    short = n - counts.sum()
    if short > 0:
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def dirichlet_partition(task: TaskDataset, alpha: float, num_clients: int,
                        seed) -> list[ClientShard]:
    """Split one task's train set across clients, Dirichlet(alpha) per class.

    For each class a proportion vector p ~ Dir(alpha * 1_K) is drawn and the
    class's sample indices are handed out contiguously with largest-remainder
    rounding, so the shards are exactly complete and pairwise disjoint.

    Args:
        task: the dataset to split.
        alpha: concentration, > 0 (the config bounds it).
        num_clients: shard count, >= 1 (the config bounds it).
        seed: partition seed, an int or a tuple of ints.

    Returns:
        One ClientShard per client (possibly with zero indices).
    """
    seed = seed if isinstance(seed, (tuple, list)) else (seed,)
    rng = rng_for(*seed, TAG_PARTITION)
    per_client: list[list[np.ndarray]] = [[] for _ in range(num_clients)]
    for c in range(task.num_classes):
        idx = np.flatnonzero(task.train_y == c)
        p = rng.dirichlet(np.full(num_clients, alpha))
        counts = _largest_remainder(p, idx.size)
        start = 0
        for k in range(num_clients):
            per_client[k].append(idx[start:start + counts[k]])
            start += counts[k]
    return [ClientShard(np.sort(np.concatenate(parts)) if parts else np.zeros(0, dtype=int))
            for parts in per_client]


# ---------------------------------------------------------------- streams


def build_task_stream(domains, num_clients: int, mode: str, seed) -> list[list[int]]:
    """Per-client ordered lists of domain indices.

    `synchronized` gives every client the same order; `shuffled` draws an
    independent permutation per client. Each domain appears exactly once.
    """
    if mode not in STREAM_MODES:
        raise ValueError(f"unknown stream mode {mode!r}")
    n = len(domains)
    if mode == STREAM_SYNCHRONIZED:
        return [list(range(n)) for _ in range(num_clients)]
    seed = seed if isinstance(seed, (tuple, list)) else (seed,)
    rng = rng_for(*seed, TAG_STREAM)
    return [[int(i) for i in rng.permutation(n)] for _ in range(num_clients)]
