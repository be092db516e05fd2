"""In-memory span tracing around the program's module boundaries.

Each hook wraps one public call boundary at the name the caller resolves
(for example `pfdl.client.synthesize_negatives`, which `local_train_round`
looks up in its own module), records a span (name, start, end, parent,
note) and calls through. Spans stay in a list until the run ends. A hook
whose target no longer exists is reported as absent, and every metric
that needs it reads as absent instead of crashing the run.

Each module name is a layer. A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager

NAME, START, END, PARENT, NOTE = range(5)


# The one table of traced hooks: (span name, module, attribute, note).
# A note pulls one small value out of the call for the layer metrics.
HOOKS = (
    ("nn.grads_and_loss", "pfdl.nn", "_grads_and_loss",
     lambda args, kwargs, out: kwargs.get("loss_spec") or args[4]),
    ("nn.sgd_step", "pfdl.nn", "sgd_step", None),
    ("client.local_round", "pfdl.client", "local_train_round",
     lambda args, kwargs, out: len(args[0].pool_snapshots) > 0),
    ("client.begin_task", "pfdl.client", "begin_task", None),
    ("client.migration_grad", "pfdl.client", "add_migration_grads", None),
    ("client.migration_loss", "pfdl.client", "migration_loss", None),
    ("matching.negatives", "pfdl.client", "synthesize_negatives", None),
    ("matching.intensity", "pfdl.client", "matching_intensity", None),
    ("matching.select_strategy", "pfdl.client", "select_strategy",
     lambda args, kwargs, out: out.decision),
    ("federation.run_task", "pfdl.federation", "run_task", None),
    ("federation.aggregate", "pfdl.federation", "aggregate",
     lambda args, kwargs, out: len(args[0])),
    ("federation.eval_after_task", "pfdl.federation", "_evaluate_after_task", None),
    ("federation.global_objective", "pfdl.federation", "_global_objective", None),
    ("evaluation.ensemble", "pfdl.federation", "ensemble_probs_matrix",
     lambda args, kwargs, out: (len(args[0]), len(args[1]))),
    ("data.build", "pfdl.federation", "build_datasets", None),
    ("serialize.save_state", "pfdl.federation", "save_client_state", None),
    ("serialize.load_state", "pfdl.cli", "load_client_state", None),
    ("persist.emit", "pfdl.persist", "EventLog.emit", None),
    ("cli.evaluate_run_dir", "pfdl.cli", "evaluate_run_dir", None),
)


class Tracer:
    """Collects spans from wrapped callables; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, None])
        self._stack.append(idx)
        return idx

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        rec = self.spans[idx]
        rec[START] = time.perf_counter()
        try:
            yield rec
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.spans[self._open(name)]
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                try:
                    rec[NOTE] = note(args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    rec[NOTE] = None
            return out
        return traced

    def install(self, hooks=HOOKS) -> None:
        """Patch every hook target that exists; list the rest as absent."""
        for name, module, attr, note in hooks:
            try:
                owner = importlib.import_module(module)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, leaf, self.wrap(name, original, note))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)


def self_times(spans) -> list[float]:
    """Duration minus the union of the direct children's intervals,
    clipped to the span's own interval; one value per span."""
    children: dict[int, list] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered, reach = 0.0, lo
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, hi)
            if e > s:
                covered += e - s
                reach = e
        out.append(max(0.0, (hi - lo) - covered))
    return out


def nested(spans) -> bool:
    """True when every span lies inside its parent's interval."""
    return all(rec[PARENT] < 0 or (spans[rec[PARENT]][START] <= rec[START]
                                   and rec[END] <= spans[rec[PARENT]][END])
               for rec in spans)


TAIL_LADDER_PERMILLE = (500, 900, 990, 999)
TAIL_MIN_BEYOND = 10


def percentile(values, permille: int):
    """Nearest-rank percentile; 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, -(-permille * len(ordered) // 1000) - 1)]


def tail_percentile(values):
    """(p, value) for the highest percentile of TAIL_LADDER_PERMILLE with at
    least ten samples above its nearest-rank value; the median when even
    p50 has fewer."""
    n = len(values)
    best = TAIL_LADDER_PERMILLE[0]
    for pm in TAIL_LADDER_PERMILLE:
        if n - -(-pm * n // 1000) >= TAIL_MIN_BEYOND:
            best = pm
    return best / 10.0, percentile(values, best)


def _median(values):
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# (metric, unit, hooks it needs). Values come from layer_metrics below.
LAYER_METRICS = (
    ("nn.cls_pass_us", "us", ("nn.grads_and_loss",)),
    ("nn.aux_pass_us", "us", ("nn.grads_and_loss",)),
    ("nn.sgd_step_us", "us", ("nn.sgd_step",)),
    ("nn.steps", "count", ("nn.sgd_step",)),
    ("nn.share", "share", ("nn.grads_and_loss", "nn.sgd_step")),
    ("client.migration_grad_us", "us", ("client.migration_grad",)),
    ("client.migration_loss_us", "us", ("client.migration_loss",)),
    ("client.migration_share", "share",
     ("client.migration_grad", "client.migration_loss")),
    ("client.migration_loss_use_ratio", "ratio",
     ("client.local_round", "client.migration_loss")),
    ("client.local_round_ms_p50", "ms", ("client.local_round",)),
    ("client.local_round_ms_tail", "ms", ("client.local_round",)),
    ("client.self_us_per_step", "us", ("client.local_round", "nn.sgd_step")),
    ("client.begin_task_ms", "ms", ("client.begin_task",)),
    ("matching.negatives_us", "us", ("matching.negatives",)),
    ("matching.intensity_ms", "ms", ("matching.intensity",)),
    ("matching.reuse_share", "share", ("matching.select_strategy",)),
    ("federation.aggregate_us", "us", ("federation.aggregate",)),
    ("federation.updates_per_round", "count", ("federation.aggregate",)),
    ("federation.round_self_ms", "ms", ("federation.run_task",)),
    ("federation.eval_after_task_ms", "ms", ("federation.eval_after_task",)),
    ("federation.global_objective_ms", "ms", ("federation.global_objective",)),
    ("evaluation.ensemble_ms", "ms", ("evaluation.ensemble",)),
    ("evaluation.ensemble_rows_per_s", "1/s", ("evaluation.ensemble",)),
    ("evaluation.models_scored", "count", ("evaluation.ensemble",)),
    ("evaluation.ensemble_share", "share", ("evaluation.ensemble",)),
    ("serialize.save_state_ms", "ms", ("serialize.save_state",)),
    ("serialize.load_state_ms", "ms", ("serialize.load_state",)),
    ("serialize.checkpoint_bytes", "bytes", ()),
    ("persist.emit_us", "us", ("persist.emit",)),
    ("persist.event_bytes", "bytes", ()),
    ("data.build_ms", "ms", ("data.build",)),
    ("cli.eval_self_ms", "ms", ("cli.evaluate_run_dir",)),
)


def layer_metrics(spans, absent, run_s: float, eval_s: float, rounds: int,
                  checkpoint_bytes: int, event_bytes: int) -> tuple[dict, float]:
    """Per-layer numbers from one traced run: ({metric: value or None},
    the percentile client.local_round_ms_tail reports).

    None marks a metric whose hook is absent. Per-call times are medians
    over the calls; shares are summed span time over the run's wall time.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, rec in enumerate(spans):
        by_name.setdefault(rec[NAME], []).append(i)

    def durations(name, note=...):
        return [spans[i][END] - spans[i][START] for i in by_name.get(name, ())
                if note is ... or spans[i][NOTE] == note]

    def notes(name):
        return [spans[i][NOTE] for i in by_name.get(name, ())]

    def self_sum(name):
        return sum(selfs[i] for i in by_name.get(name, ()))

    steps = len(by_name.get("nn.sgd_step", ()))
    rounds_local = durations("client.local_round")
    tail_p, tail_v = tail_percentile(rounds_local)
    ensemble = [n for n in notes("evaluation.ensemble") if n is not None]
    decisions = notes("matching.select_strategy")
    ensemble_s = sum(durations("evaluation.ensemble"))
    migration_s = (sum(durations("client.migration_grad"))
                   + sum(durations("client.migration_loss")))
    values = {
        "nn.cls_pass_us": 1e6 * _median(durations("nn.grads_and_loss", "cls")),
        "nn.aux_pass_us": 1e6 * _median(durations("nn.grads_and_loss", "aux")),
        "nn.sgd_step_us": 1e6 * _median(durations("nn.sgd_step")),
        "nn.steps": steps,
        "nn.share": _ratio(sum(durations("nn.grads_and_loss"))
                           + sum(durations("nn.sgd_step")), run_s),
        "client.migration_grad_us": 1e6 * _median(durations("client.migration_grad")),
        "client.migration_loss_us": 1e6 * _median(durations("client.migration_loss")),
        "client.migration_share": _ratio(migration_s, run_s),
        "client.migration_loss_use_ratio": _ratio(
            sum(1 for n in notes("client.local_round") if n),
            len(by_name.get("client.migration_loss", ()))),
        "client.local_round_ms_p50": 1e3 * percentile(rounds_local, 500),
        "client.local_round_ms_tail": 1e3 * tail_v,
        "client.self_us_per_step": 1e6 * _ratio(self_sum("client.local_round"), steps),
        "client.begin_task_ms": 1e3 * _median(durations("client.begin_task")),
        "matching.negatives_us": 1e6 * _median(durations("matching.negatives")),
        "matching.intensity_ms": 1e3 * _median(durations("matching.intensity")),
        "matching.reuse_share": _ratio(sum(1 for d in decisions if d == "reuse"),
                                       len(decisions)),
        "federation.aggregate_us": 1e6 * _median(durations("federation.aggregate")),
        "federation.updates_per_round": _ratio(
            sum(n for n in notes("federation.aggregate") if n is not None),
            len(by_name.get("federation.aggregate", ()))),
        "federation.round_self_ms": 1e3 * _ratio(self_sum("federation.run_task"), rounds),
        "federation.eval_after_task_ms": 1e3 * _median(durations("federation.eval_after_task")),
        "federation.global_objective_ms": 1e3 * _median(durations("federation.global_objective")),
        "evaluation.ensemble_ms": 1e3 * _median(durations("evaluation.ensemble")),
        "evaluation.ensemble_rows_per_s": _ratio(sum(rows for _, rows in ensemble), ensemble_s),
        "evaluation.models_scored": sum(models for models, _ in ensemble),
        "evaluation.ensemble_share": _ratio(ensemble_s, run_s + eval_s),
        "serialize.save_state_ms": 1e3 * _median(durations("serialize.save_state")),
        "serialize.load_state_ms": 1e3 * _median(durations("serialize.load_state")),
        "serialize.checkpoint_bytes": checkpoint_bytes,
        "persist.emit_us": 1e6 * _median(durations("persist.emit")),
        "persist.event_bytes": event_bytes,
        "data.build_ms": 1e3 * _median(durations("data.build")),
        "cli.eval_self_ms": 1e3 * _median([selfs[i] for i in by_name.get("cli.evaluate_run_dir", ())]),
    }
    missing = set(absent)
    return {name: (None if missing.intersection(needs) else values[name])
            for name, _, needs in LAYER_METRICS}, tail_p
