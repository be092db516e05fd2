"""Cross-mode equivalences, on configs drawn at random from one fixed seed.

Each relation holds bit for bit whatever the arithmetic, because both of
its sides run the same code path, so no declared drift can break it:

- `pfeddil` with `max_pool_size` 1 and `km_include_self` false is
  `fedavg`, at any λ;
- `pfeddil` with λ = 0 and `km_include_self` false is `fedavg`, at any
  `max_pool_size`. (With `km_include_self` the bound model is pulled
  toward its own task-start copy, which `fedavg` never is: 14 of the 20
  draws below then differ.)
- on a one-task stream, all five modes agree.

Two runs agree when their accuracy grids have the same bytes, and their
global objectives, pool sizes and parameter counts are equal; two runs
that stop agree when they raise the same error with the same message.

The draw ranges below are part of the test: never narrow them, or re-seed
the draw, to make a failure go away.
"""

import numpy as np
import pytest

from pfdl.config import parse_config
from pfdl.data import STREAM_MODES
from pfdl.errors import PfdlError
from pfdl.federation import MODES, run_experiment

DRAW_SEED = 20260
DRAWS = 20
LAMBDAS = (0.0, 0.3, 0.5, 0.9, 1.0)


def _draw(rng) -> dict:
    """One tiny config: 1-6 tasks over recurring domains, 1-5 clients, a
    trunk of 1-3 layers of width 1-8, input_dim 1-6, batch_size 1-500
    log-uniform, alpha 0.02-100 log-uniform, max_pool_size 1-3, lr from
    1e-3 to 1e3, and both values of every switch."""
    tasks, depth = int(rng.integers(1, 7)), int(rng.integers(1, 4))
    return {
        "seed": int(rng.integers(0, 2**31)),
        "clients": int(rng.integers(1, 6)),
        "active_fraction": float(rng.choice([0.3, 0.5, 1.0])),
        "rounds_per_task": int(rng.integers(1, 4)),
        "local_epochs": int(rng.integers(1, 3)),
        "batch_size": int(np.exp(rng.uniform(0.0, np.log(500.0)))),
        "lr": float(rng.choice([1e-3, 0.01, 0.1, 1.0, 1e3])),
        "weight_decay": float(rng.choice([0.0, 1e-3])),
        "lambda": float(rng.choice(LAMBDAS)),
        "alpha": float(10.0 ** rng.uniform(np.log10(0.02), 2.0)),
        "max_pool_size": int(rng.integers(1, 4)),
        "km_include_self": bool(rng.integers(2)),
        "data": {"num_classes": int(rng.integers(2, 5)),
                 "input_dim": int(rng.integers(1, 7)),
                 "samples_per_class": int(rng.integers(5, 21)),
                 "rotation_degrees": [int(d) for d in rng.choice([0, 90, 180, 270], tasks)],
                 "stream_mode": str(rng.choice(STREAM_MODES))},
        "arch": {"hidden_dims": [int(w) for w in rng.integers(1, 9, depth)]},
        "negatives": {"permute_fraction": float(rng.choice([0.0, 0.5, 1.0]))},
    }


_rng = np.random.default_rng(DRAW_SEED)
CONFIGS = [_draw(_rng) for _ in range(DRAWS)]


def _outcome(doc: dict, **overrides):
    """What the run of doc with top-level overrides gives: its accuracy
    grid's bytes, global objective, pool sizes and parameter count, or
    the error that stopped it."""
    try:
        res = run_experiment(parse_config({**doc, **overrides}))
    except PfdlError as e:
        return type(e).__name__, str(e)
    m = res.metrics
    return m.acc.tobytes(), repr(m.global_objective), res.pool_sizes, res.param_count_total


def test_the_draw_covers_its_ranges():
    # the draw reaches every mode of each switch and both ends of the ranges
    assert {c["data"]["stream_mode"] for c in CONFIGS} == set(STREAM_MODES)
    assert {c["km_include_self"] for c in CONFIGS} == {False, True}
    assert {len(c["data"]["rotation_degrees"]) for c in CONFIGS} >= {1, 6}
    assert {len(c["arch"]["hidden_dims"]) for c in CONFIGS} == {1, 2, 3}
    assert {c["max_pool_size"] for c in CONFIGS} == {1, 2, 3}
    assert {c["lr"] for c in CONFIGS} >= {1e-3, 1e3}


@pytest.mark.parametrize("i", range(DRAWS))
def test_modes_that_run_one_code_path_agree(i):
    doc = CONFIGS[i]
    fedavg = _outcome(doc, mode="fedavg")
    for lam in (0.0, 0.5, 1.0):
        assert _outcome(doc, mode="pfeddil", max_pool_size=1, km_include_self=False,
                        **{"lambda": lam}) == fedavg, lam
    assert _outcome(doc, mode="pfeddil", km_include_self=False, **{"lambda": 0.0}) == fedavg

    one_task = {**doc, "data": {**doc["data"],
                                "rotation_degrees": doc["data"]["rotation_degrees"][:1]}}
    first = _outcome(one_task, mode=MODES[0])
    for mode in MODES[1:]:
        assert _outcome(one_task, mode=mode) == first, mode
