"""Byte identity of the run artifacts: both reference runs, for every
strategy, write files whose SHA-256 matches ``golden_artifacts.json``.

The digests were recorded in one environment (interpreter, numpy, BLAS,
processor). Another environment may round differently, so a mismatch names
both environments and the command that re-records the digests; the test
compares digests and does not refuse other environments outright.
"""

import json

from record_golden import GOLDEN, RECORD_COMMAND, environment, run_all


def test_artifacts_match_recorded_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = run_all(tmp_path)
    want = golden["files"]
    differ = sorted(k for k in want.keys() & got.keys() if want[k] != got[k])
    missing, extra = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not (differ or missing or extra), (
        f"{len(differ)} artifacts differ from their recorded digest (first: {differ[:5]}), "
        f"missing: {missing[:5]}, unexpected: {extra[:5]}.\n"
        f"recorded in: {golden['environment']}\n"
        f"running in:  {environment()}\n"
        f"if the change means to alter the artifacts, re-record with: {RECORD_COMMAND}"
    )
