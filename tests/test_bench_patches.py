"""The benchmark's tracer patches the package at names that still exist."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# Patch targets the package no longer has; their layers report as absent
# until the benchmark drops them.
STALE = {
    ("oddspectrum.cli", "enumerate_labeled_graphs"),
    ("oddspectrum.bounds", "trace_powers"),
    ("oddspectrum.bounds", "threshold_partition"),
    ("oddspectrum.cli", "build_scan_summary"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_patch_target_resolves_but_the_known_stale_ones():
    # Resolved as Tracer.installed() does: an owner that does not import, or
    # an attribute absent from it, leaves the layer unpatched.
    tracer = load_tracer()
    unresolved = set()
    for where, attr, *_ in tracer.PATCHES:
        owner = tracer._resolve(where)
        if owner is None or vars(owner).get(attr) is None:
            unresolved.add((where, attr))
    assert unresolved <= STALE
