"""Test-side oracles shared by several test files."""

import numpy as np


def loop_negatives(X_pos, feat_std, spec, rng, batch_size):
    """An epoch's negatives, one per row of X_pos, as a per-batch mask loop
    with fancy-index scatters: the draws of `matching.synthesize_negatives`
    in the same order (every permuted row's uniforms, argsorted, then every
    noised row's Gaussian noise), written the plain way, in float64.

    In each batch of `batch_size` rows (the last may be short) the leading
    round(permute_fraction * length) rows are permuted and the rest noised.
    """
    n, d = X_pos.shape
    permuted = np.zeros(n, dtype=bool)
    for start in range(0, n, batch_size):
        length = min(batch_size, n - start)
        permuted[start:start + int(round(spec.permute_fraction * length))] = True
    out = np.empty_like(X_pos)
    rows = np.flatnonzero(permuted)
    if rows.size:
        perms = np.argsort(rng.random((rows.size, d)), axis=1)
        out[rows] = X_pos[rows[:, None], perms]
    rows = np.flatnonzero(~permuted)
    if rows.size:
        noise = rng.standard_normal((rows.size, d)) * (spec.noise_sigma_scale * feat_std)
        out[rows] = X_pos[rows] + noise
    return out
