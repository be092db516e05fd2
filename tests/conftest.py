import pytest

from pfdl import federation


@pytest.fixture()
def global_trajectory(monkeypatch):
    """run(cfg) -> (RunResult, trajectory), the trajectory holding one
    (task, round, global params or None) per round.

    Every aggregate is recorded and matched to the round events in order:
    a round with updates has a train loss, and a round without any carries
    the task's previous global forward.
    """
    aggregate = federation.aggregate

    def run(cfg):
        aggregated = []

        def recording(updates):
            out = aggregate(updates)
            aggregated.append(out.params.copy())
            return out

        monkeypatch.setattr(federation, "aggregate", recording)
        res = federation.run_experiment(cfg)

        results = iter(aggregated)
        trajectory, task, current = [], None, None
        for r in res.events.records:
            if r["type"] != "round":
                continue
            if r["task"] != task:
                task, current = r["task"], None
            if r["train_loss_mean"] is not None:
                current = next(results)
            trajectory.append((r["task"], r["round"], current))
        assert next(results, None) is None
        return res, trajectory

    return run
