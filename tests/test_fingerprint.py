"""The committed behaviour fingerprint still matches (see fingerprint.py)."""

import json

import fingerprint


def test_artifacts_match_the_committed_fingerprint(tmp_path):
    digests, texts = fingerprint.compute(tmp_path)
    pinned = json.loads(fingerprint.PIN.read_text())
    diffs = fingerprint.differences(pinned, digests, texts)
    assert not diffs, ("artifacts drifted from tests/fingerprint.json; regenerate it "
                       "with `PYTHONPATH=src python tests/fingerprint.py --write` only "
                       "for a declared change:\n" + "\n".join(diffs))


def test_normalise_rounds_floats_and_leaves_the_rest():
    text = '{"a": 0.12345678901234, "b": 3, "c": 1e-05, "d": "9e4f", "e": -2.50}\nx,1.0'
    assert fingerprint.normalise(text) == [
        '{"a": 0.123456789, "b": 3, "c": 1e-05, "d": "9e4f", "e": -2.5}', "x,1"]


def test_a_difference_names_its_first_differing_line():
    lines = ["one", "two 0.5", "three"]
    pinned = {"case": {f: fingerprint.digest(lines) for f in fingerprint.FILES}}
    changed = ["one", "two 0.25", "three"]
    texts = {"case": {f: changed if f == "events.jsonl" else lines
                      for f in fingerprint.FILES}}
    digests = {"case": {f: fingerprint.digest(t) for f, t in texts["case"].items()}}
    assert fingerprint.differences(pinned, digests, texts) == [
        "case/events.jsonl: first differing line 2 (3 lines, pinned 3): two 0.25"]
