"""The benchmark in perfbench/ still runs against the package.

One pass of each workload's calls, under perfbench's span tracer and at
its reference seed, must reproduce perfbench/reference.json with no
failed call, and the noisy-gate pass must still trace the open-system
kernel, `lindblad.expm`.  The tracer wraps every public function and
reads some of their arguments and results by name, so a changed
signature that the benchmark depends on fails here rather than in a
benchmark run.  Every recorded BENCH_*.json at the repository root must
parse as JSON.
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_pass_matches_the_reference(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    with tracer:
        ctx = workloads.Context(workloads.setup(workload), workloads.REFERENCE_SEED,
                                tmp_path, workloads.load_reference())
        for call in workload.calls:
            assert workloads.check(call, call.run(ctx), ctx) == [], call.label
    tally = tracer.take()
    assert {m: n for m, n in tally.errors.items() if n} == {}
    if name == "noisy-gate":
        # the open-system kernel is a public lindblad function, so the tracer
        # still wraps it: 27 stacked exponentials per pass, one per block size
        # (2, 6 and 18 on the 12-state dual-rail space) and segment for each
        # of the three gate maps
        assert tally.spans["lindblad.expm"].calls == 27


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_is_valid_json(path):
    assert isinstance(json.loads(path.read_text()), dict)
