import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def stream_bytes(workload):
    """The parse stream as the exact bytes a run feeds the parser, with gold."""
    return "\n".join(f"{s.question}\t{s.logical_form}" for s in workload.stream).encode()


def entity_draw(workload):
    return {
        p.surface
        for s in workload.train.samples + workload.stream
        for p in s.params
        if p.kind == "entity"
    }


def test_benchmark_lists_the_workloads_defined_here():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SPECS)


@pytest.mark.parametrize(
    "name, n_train", [("standard", 4000), ("wide_pool", 1500), ("long_question", 1500)]
)
def test_sizes_and_disjoint_parse_stream(name, n_train):
    w = workloads.build(name)
    assert len(w.train) == n_train
    assert len(w.stream) == 1000
    assert len(set(w.stream_indices)) == len(w.stream)
    assert not set(w.stream_indices) & set(w.train_indices)


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_same_seed_gives_identical_stream(name):
    a = workloads.build(name, seed=5)
    b = workloads.build(name, seed=5)
    assert stream_bytes(a) == stream_bytes(b)
    assert a.stream_indices == b.stream_indices


@pytest.mark.parametrize("name", list(workloads.SPECS))
def test_other_seed_changes_entity_draw(name):
    a = workloads.build(name, seed=11)
    b = workloads.build(name, seed=12)
    assert entity_draw(a) != entity_draw(b)
    assert stream_bytes(a) != stream_bytes(b)


def test_stream_is_identical_across_processes():
    # String hashing is salted per process; the stream must not depend on it.
    code = (
        "import hashlib, test_bench_workloads as t, workloads; "
        "print(hashlib.sha256(t.stream_bytes(workloads.build('standard'))).hexdigest())"
    )
    path = os.pathsep.join([str(Path(__file__).parent)] + sys.path)
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
        )
        digests.add(out.stdout.strip())
    expected = hashlib.sha256(stream_bytes(workloads.build("standard"))).hexdigest()
    assert digests == {expected}
