"""The behaviour fingerprint: digests of the deterministic artifacts of a
fixed set of runs, pinned in tests/fingerprint.json.

Each case is one `run_experiment` into a fresh directory. Its
`metrics.csv`, `summary.csv`, `metrics.json` and `events.jsonl` are
normalised (every float literal rounded to 10 significant digits, so a
last-bit drift passes and a changed decision or accuracy does not) and
recorded as the sha256 of the whole text plus a short digest per line,
which lets a mismatch name its first differing line.

    PYTHONPATH=src python tests/fingerprint.py           # check the pin
    PYTHONPATH=src python tests/fingerprint.py --write   # regenerate it

Regenerating the pin is a declared change of behaviour: say so, and why,
wherever the change is recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

from pfdl.config import benchmark_config, parse_config
from pfdl.federation import MODES, run_experiment

PIN = Path(__file__).with_name("fingerprint.json")
FILES = ("metrics.csv", "summary.csv", "metrics.json", "events.jsonl")
SEEDS = (0, 1)
LINE_DIGEST_CHARS = 12

# the CI's tiny config (tests/test_cli.py TINY)
TINY = {
    "clients": 3,
    "rounds_per_task": 3,
    "local_epochs": 1,
    "data": {"num_classes": 3, "input_dim": 6, "samples_per_class": 40,
             "rotation_degrees": [0, 180]},
    "arch": {"hidden_dims": [10, 6]},
}

# tests/test_cli.py EMPTY_SHARDS: clients with empty shards, a recurring
# domain; and a shuffled stream, where clients see the tasks in their own
# orders
EXTRA = {
    "empty_shards": dict(TINY, clients=6, alpha=0.05, seed=1,
                         data=dict(TINY["data"], rotation_degrees=[0, 180, 0])),
    "shuffled": dict(TINY, clients=4, seed=2,
                     data=dict(TINY["data"], stream_mode="shuffled",
                               rotation_degrees=[0, 90, 180])),
}

# the three perfbench workloads at their --smoke sizes (benchmark_config
# keyword overrides; see perfbench/workloads.py), at seed 1
SMOKE = {"rounds_per_task": 1, "local_epochs": 1}
WORKLOADS = {
    "pfeddil_stream": {"mode": "pfeddil", "lambda": 1.0,
                       "data": {"samples_per_class": 25}},
    "fedavg_all_clients": {"mode": "fedavg", "active_fraction": 1.0,
                           "data": {"samples_per_class": 25}},
    "pfeddil_recurring_eval": {"mode": "pfeddil", "lambda": 1.0,
                               "data": {"samples_per_class": 25,
                                        "rotation_degrees": [0, 90, 180, 270] * 3}},
}


def cases() -> dict:
    """Case name -> ExperimentConfig, in a fixed order."""
    out = {}
    for mode in MODES:
        for seed in SEEDS:
            out[f"tiny-{mode}-seed{seed}"] = parse_config(dict(TINY, mode=mode, seed=seed))
    for name, doc in EXTRA.items():
        out[name] = parse_config(doc)
    for name, doc in WORKLOADS.items():
        out[f"smoke-{name}-seed1"] = benchmark_config(**doc, **SMOKE, seed=1)
    # a smoke-sized stream with full batches and several epochs, so the
    # lockstep round's epoch and batch boundaries are pinned too
    out["stream-epochs3-seed1"] = benchmark_config(
        **dict(WORKLOADS["pfeddil_stream"], data={"samples_per_class": 80}),
        rounds_per_task=2, local_epochs=3, seed=1)
    return out


# a decimal literal with a fraction or an exponent, not part of a word
FLOAT = re.compile(r"(?<![\w.])-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)(?![\w.])")


def normalise(text: str) -> list[str]:
    """The text's lines with every float literal rounded to 10
    significant digits."""
    return FLOAT.sub(lambda m: format(float(m.group()), ".10g"), text).splitlines()


def digest(lines: list[str]) -> dict:
    line_digests = [hashlib.sha256(line.encode()).hexdigest()[:LINE_DIGEST_CHARS]
                    for line in lines]
    return {"sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest(),
            "lines": line_digests}


def compute(workdir: Path) -> tuple[dict, dict]:
    """(case -> file -> digest, case -> file -> normalised lines) of every
    case, each run into its own directory under workdir."""
    digests, texts = {}, {}
    for name, cfg in cases().items():
        out = workdir / name
        run_experiment(cfg, out_dir=out)
        texts[name] = {f: normalise((out / f).read_text()) for f in FILES}
        digests[name] = {f: digest(lines) for f, lines in texts[name].items()}
    return digests, texts


def differences(pinned: dict, digests: dict, texts: dict) -> list[str]:
    """One message per case file whose digest differs from the pin,
    naming its first differing line."""
    out = []
    for name in sorted(set(pinned) | set(digests)):
        if name not in pinned or name not in digests:
            out.append(f"{name}: case {'not pinned' if name not in pinned else 'missing'}")
            continue
        for f in FILES:
            want, got = pinned[name][f], digests[name][f]
            if want["sha256"] == got["sha256"]:
                continue
            lines = texts[name][f]
            i = next((i for i, (a, b) in enumerate(zip(want["lines"], got["lines"]))
                      if a != b), min(len(want["lines"]), len(got["lines"])))
            line = lines[i] if i < len(lines) else "<end of file>"
            out.append(f"{name}/{f}: first differing line {i + 1} "
                       f"({len(got['lines'])} lines, pinned {len(want['lines'])}): {line}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="regenerate the pin instead of checking it")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        digests, texts = compute(Path(tmp))
    if args.write:
        PIN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
        print(f"wrote {PIN} ({len(digests)} cases)")
        return 0
    diffs = differences(json.loads(PIN.read_text()), digests, texts)
    print("\n".join(diffs) if diffs else f"{len(digests)} cases match the pin")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
