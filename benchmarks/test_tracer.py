"""Checks on the benchmark's tracer.

    python3 -m pytest benchmarks/test_tracer.py

The traced call count of every wrapped function must equal cProfile's
``ncalls`` for the same code object on the same op: a name the tracer failed
to patch in some importing module would show up as a shortfall.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

# one op per workload; cli op 18 is glb-classify on a document, which goes
# through cli, documents, bialgebra and every layer below
FIXED_OP = {"compact-classify": 2, "coboundary-solve": 0,
            "contact-sweep": 0, "cli-catalog": 18}


def _trace(wl, inputs) -> Tracer:
    tracer = Tracer()
    tracer.install()
    try:
        for i, inp in enumerate(inputs):
            tracer.begin_op(i)
            try:
                wl.run(inp)
            except ValueError:
                pass    # the known coboundary-solve defect on cli op 20
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    return tracer


def _namespaces():
    mods = [m for name, m in sys.modules.items() if name.startswith("liejacobi")]
    return {id(m): dict(vars(m)) for m in mods}


@pytest.mark.parametrize("name", sorted(FIXED_OP))
def test_traced_counts_match_cprofile(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, tmp_path)
    inp = wl.make_input(FIXED_OP[name])
    before = _namespaces()
    tracer = _trace(wl, [inp])
    assert _namespaces() == before, "uninstall left a patched name behind"

    profile = cProfile.Profile()
    profile.runcall(wl.run, inp)
    ncalls = {key: row[1] for key, row in pstats.Stats(profile).stats.items()}

    traced: dict[str, int] = {}
    for span in tracer.spans:
        traced[span[0]] = traced.get(span[0], 0) + 1
    mismatches = {}
    for fname, fn in tracer.originals.items():
        code = fn.__code__
        expected = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if traced.get(fname, 0) != expected:
            mismatches[fname] = (traced.get(fname, 0), expected)
    assert not mismatches
    assert sum(traced.values()) > 100


def test_counts_repeat_exactly(tmp_path):
    wl = workloads.WORKLOADS["cli-catalog"](3, tmp_path)
    inputs = [wl.make_input(i) for i in range(wl.cycle)]
    first, second = (summarize(_trace(wl, inputs), len(inputs)) for _ in range(2))
    assert first["by_name"] == second["by_name"]
    for key in ("linalg.rref.cells", "documents.bytes_in", "reuse.object_share",
                "reuse.structure_share", "liealg.invariant_useful_ratio"):
        assert first[key] == second[key]
