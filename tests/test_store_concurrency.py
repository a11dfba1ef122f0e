"""Two real runner processes drain one store: exactly-once execution.

The lease-based claim is the only coordination between runners — no
process-level locks. This test launches two OS processes that drain the
same sqlite store concurrently and proves that

- every submitted job finishes (``done``),
- no job ran twice (``attempts == 1`` on every row — a reclaimed or
  re-executed job would show 2), and
- each stored result is bitwise-identical to a direct in-process
  ``execute()`` of the same plan.

The worker subprocesses install the same miniature-dataset factory the
submitting process uses, so both sides materialize identical plans and
agree on every fingerprint.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.data import DATASET_FACTORIES, synth_mnist
from repro.evaluation.executor import execute
from repro.store import JobRequest, materialize, ResultStore


def _tiny_factory():
    return synth_mnist(train_per_class=6, test_per_class=3)


@pytest.fixture(autouse=True)
def tiny_datasets(monkeypatch):
    monkeypatch.setitem(DATASET_FACTORIES, "synth_mnist", _tiny_factory)


# Run inside each worker subprocess. Installs the identical tiny-dataset
# factory (a monkeypatch in the parent is invisible here) before
# draining, so fingerprints re-verify against the submitted ones.
_WORKER_SCRIPT = """
import sys

from repro.data import DATASET_FACTORIES, synth_mnist
from repro.store import ResultStore
from repro.store.runner import drain

DATASET_FACTORIES["synth_mnist"] = (
    lambda: synth_mnist(train_per_class=6, test_per_class=3)
)
path, owner = sys.argv[1], sys.argv[2]
with ResultStore(path) as store:
    stats = drain(store, owner=owner, lease_seconds=30.0)
print(f"{owner} done={stats.done} failed={stats.failed}")
"""


def _worker_env():
    import repro

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    return env


def test_two_runner_processes_execute_every_job_exactly_once(tmp_path):
    path = str(tmp_path / "store.sqlite")
    sigmas = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    materialized = []
    with ResultStore(path) as store:
        for sigma in sigmas:
            request = JobRequest(
                model="mlp",
                dataset="synth_mnist",
                variation={"kind": "lognormal", "sigma": sigma},
                n_samples=4,
                seed=11,
                chunk_samples=2,
            )
            m = materialize(request)
            outcome = store.submit(m.fingerprint, m.request.to_dict())
            assert outcome.created
            materialized.append(m)

    env = _worker_env()
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", _WORKER_SCRIPT, path, owner],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for owner in ("runner-a", "runner-b")
    ]
    for proc in workers:
        stdout, stderr = proc.communicate(timeout=110)
        assert proc.returncode == 0, stderr
        assert "failed=0" in stdout, stdout

    with ResultStore(path) as store:
        rows = store.jobs()
        assert len(rows) == len(sigmas)
        assert all(row.state == "done" for row in rows)
        # Exactly-once: a double execution (or a reclaimed lease) would
        # leave attempts == 2 on some row.
        assert [row.attempts for row in rows] == [1] * len(sigmas)
        for m in materialized:
            direct = execute(m.plan, m.model, m.dataset)
            stored = store.result(m.fingerprint)
            assert stored["accuracies"] == \
                [float(a) for a in direct.accuracies]
