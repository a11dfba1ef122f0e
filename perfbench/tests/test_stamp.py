"""Environment stamps, and flagging comparisons across differing stamps."""

import json

import compare
import run
from envstamp import ENVIRONMENT_FIELDS, stamp, stamp_differences


def test_stamp_records_the_environment():
    s = stamp(run.ROOT, "mc-protocol", 5, 20.0)
    for field in ENVIRONMENT_FIELDS + ["source_digest", "workload", "seed"]:
        assert field in s
    assert s["seed"] == 5 and s["cpu_count"] >= 1
    assert isinstance(s["blas_threads"], int) and s["blas_threads"] >= 1


def test_differing_stamps_are_flagged(tmp_path, capsys):
    base = stamp(run.ROOT, "mc-protocol", 1, 20.0)
    other = dict(base, blas_threads=base["blas_threads"] + 1, seed=2)
    assert stamp_differences(base, other) == {
        "environment": ["blas_threads"], "identity": ["seed"],
    }
    paths = []
    for i, s in enumerate((base, other)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({"stamp": s, "metrics": {"op_s": 1.0 + i}}))
        paths.append(str(path))
    assert compare.main(paths) == 1
    out = capsys.readouterr().out
    assert "WARNING: environment differs in blas_threads" in out
    assert "+100.0%" in out
