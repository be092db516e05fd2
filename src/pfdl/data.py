"""Synthetic domain-shifted classification tasks.

A base dataset is a set of isotropic unit-variance Gaussian clusters whose
means sit on a sphere of radius `class_separation`. A domain is a feature
transformation (labels never change): a rotation followed, when the noise
level is positive, by additive Gaussian noise. Rotation by an angle acts
as a Givens rotation on each consecutive coordinate pair, so 180 degrees
maps x to -x exactly.
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

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "input_dim": self.input_dim,
            "samples_per_class": self.samples_per_class,
            "class_separation": self.class_separation,
            "rotation_degrees": list(self.rotation_degrees),
            "domain_noise_sigma": self.domain_noise_sigma,
            "stream_mode": self.stream_mode,
            "seed": self.seed,
        }


# ---------------------------------------------------------------- domains


@dataclass(frozen=True)
class Rotation:
    angle: float  # radians


@dataclass(frozen=True)
class Noise:
    sigma: float


@dataclass(frozen=True)
class DomainSpec:
    """Ordered composition of Rotation and Noise steps."""

    steps: tuple = ()
    name: str = "identity"


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


def _apply_steps(X: np.ndarray, steps, rng: np.random.Generator) -> np.ndarray:
    out = np.array(X, dtype=np.float64, copy=True)
    for step in steps:
        if isinstance(step, Rotation):
            out = out @ rotation_matrix(out.shape[1], step.angle).T
        elif isinstance(step, Noise):
            if step.sigma < 0:
                raise ValueError("noise sigma must be non-negative")
            out = out + rng.standard_normal(out.shape) * step.sigma
        else:
            raise ValueError(f"unknown domain step {step!r}")
    return out


def domain_to_dict(domain: DomainSpec) -> dict:
    steps = [{"kind": "rotation", "angle": s.angle} if isinstance(s, Rotation)
             else {"kind": "noise", "sigma": s.sigma} for s in domain.steps]
    return {"name": domain.name, "steps": steps}


def domain_from_dict(obj: dict) -> DomainSpec:
    steps = []
    for s in obj["steps"]:
        kind = s["kind"]
        if kind == "rotation":
            steps.append(Rotation(angle=float(s["angle"])))
        elif kind == "noise":
            steps.append(Noise(sigma=float(s["sigma"])))
        else:
            raise ValueError(f"unknown domain step kind {kind!r}")
    return DomainSpec(steps=tuple(steps), name=str(obj["name"]))


def make_rotation_domains(degrees, noise_sigma: float) -> list[DomainSpec]:
    """The default benchmark's domain family: rotations plus noise."""
    domains = []
    for deg in degrees:
        steps: list = [Rotation(angle=float(np.deg2rad(deg)))]
        name = f"rot{deg:g}"
        if noise_sigma > 0:
            steps.append(Noise(sigma=float(noise_sigma)))
            name += f"+noise{noise_sigma:g}"
        domains.append(DomainSpec(steps=tuple(steps), name=name))
    return domains


# ---------------------------------------------------------------- datasets


@dataclass
class TaskDataset:
    task_id: int
    domain: DomainSpec
    num_classes: int
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    seed: int

    @property
    def n_train(self) -> int:
        return self.train_x.shape[0]


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
        A TaskDataset for the identity domain with task_id 0.
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

    n_test = max(1, samples_per_class // 5)
    n_train = samples_per_class - n_test
    train_parts, test_parts = [], []
    for c in range(num_classes):
        pts = means[c] + rng.standard_normal((samples_per_class, input_dim))
        train_parts.append(pts[:n_train])
        test_parts.append(pts[n_train:])
    train_x = np.concatenate(train_parts)
    test_x = np.concatenate(test_parts)
    train_y = np.repeat(np.arange(num_classes), n_train)
    test_y = np.repeat(np.arange(num_classes), n_test)
    return TaskDataset(task_id=0, domain=DomainSpec(), num_classes=num_classes,
                       train_x=train_x, train_y=train_y,
                       test_x=test_x, test_y=test_y, seed=int(seed))


def apply_domain(base: TaskDataset, domain: DomainSpec, task_id: int) -> TaskDataset:
    """Transform a base dataset into one task's domain.

    Labels are untouched. Per-sample noise, if any step draws it, comes
    from a task-scoped RNG so each task sees fresh but reproducible noise.
    """
    rng = rng_for(base.seed, TAG_DOMAIN, task_id)
    train_x = _apply_steps(base.train_x, domain.steps, rng)
    test_x = _apply_steps(base.test_x, domain.steps, rng)
    return TaskDataset(task_id=int(task_id), domain=domain, num_classes=base.num_classes,
                       train_x=train_x, train_y=base.train_y.copy(),
                       test_x=test_x, test_y=base.test_y.copy(), seed=base.seed)


# ---------------------------------------------------------------- partition


@dataclass
class HeterogeneityConfig:
    alpha: float
    num_clients: int
    seed: object  # int or tuple of ints

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.num_clients < 1:
            raise ValueError("num_clients must be at least 1")


@dataclass
class ClientShard:
    client_id: int
    task_id: int
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


def dirichlet_partition(task: TaskDataset, cfg: HeterogeneityConfig) -> list[ClientShard]:
    """Split one task's train set across clients, Dirichlet(alpha) per class.

    For each class a proportion vector p ~ Dir(alpha * 1_K) is drawn and the
    class's sample indices are handed out contiguously with largest-remainder
    rounding, so the shards are exactly complete and pairwise disjoint.

    Args:
        task: the dataset to split.
        cfg: alpha, client count and partition seed.

    Returns:
        One ClientShard per client (possibly with zero indices).
    """
    seed = cfg.seed if isinstance(cfg.seed, (tuple, list)) else (cfg.seed,)
    rng = rng_for(*seed, TAG_PARTITION)
    per_client: list[list[np.ndarray]] = [[] for _ in range(cfg.num_clients)]
    for c in range(task.num_classes):
        idx = np.flatnonzero(task.train_y == c)
        p = rng.dirichlet(np.full(cfg.num_clients, cfg.alpha))
        counts = _largest_remainder(p, idx.size)
        start = 0
        for k in range(cfg.num_clients):
            per_client[k].append(idx[start:start + counts[k]])
            start += counts[k]
    shards = []
    for k in range(cfg.num_clients):
        indices = np.sort(np.concatenate(per_client[k])) if per_client[k] else np.zeros(0, dtype=int)
        shards.append(ClientShard(client_id=k, task_id=task.task_id, indices=indices))
    return shards


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
