"""A fixed reference kernel that measures how fast the host runs right now.

It is a frozen copy of the shape of the lab's hot loop: forward and
backward passes of a 16->64->32 ReLU trunk with a 5-way head on batches of
32, in float64 NumPy, with the same mix of small matrix products and
Python overhead. It never imports the program, so no change to the program
can change its speed; only the host can.

On a host shared with other tenants, the share of a core a process gets
drifts over seconds and minutes, and every wall time drifts with it. A
timing multiplied by REF_BASE_S / (the kernel's time measured around it)
is the time the same work would take on a host where the kernel takes
REF_BASE_S, which cancels most of that drift.
"""

from __future__ import annotations

import time

ITERATIONS = 1500
# Timings are rescaled to a host on which kernel_seconds() takes this long,
# about what it takes on an idle core of the 2-vCPU machine it was tuned on.
REF_BASE_S = 0.1


def kernel_seconds(iterations: int = ITERATIONS) -> float:
    """Wall time of a fixed amount of step-shaped work."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((32, 16))
    W1 = rng.standard_normal((64, 16)) * 0.1
    W2 = rng.standard_normal((32, 64)) * 0.1
    W3 = rng.standard_normal((5, 32)) * 0.1
    y = np.arange(32) % 5
    t0 = time.perf_counter()
    for _ in range(iterations):
        h1 = np.maximum(X @ W1.T, 0.0)
        h2 = np.maximum(h1 @ W2.T, 0.0)
        z = h2 @ W3.T
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(32), y] -= 1.0
        d2 = (p @ W3) * (h2 > 0)
        d1 = (d2 @ W2) * (h1 > 0)
        for g in (p.T @ h2, d2.T @ h1, d1.T @ X):
            g.sum()
    return time.perf_counter() - t0
