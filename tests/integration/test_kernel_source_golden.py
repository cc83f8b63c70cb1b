"""The healthy event-core kernels' generated source, pinned.

:func:`repro.service.engine._kernel` expands one loop per router and
option tuple.  ``golden_records/kernel_sources.json`` holds the SHA-256
of every healthy tuple's generated source; it was written by running
this file as a script against the tree that had no fault-run kernel,
so a change that teaches the generator new skeletons or fragments
provably leaves the healthy kernels' code where it was.  Running the
script writes the goldens of the tree on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import linecache
from pathlib import Path

import pytest

from repro.service.engine import _ROUTERS, _kernel

GOLDEN = Path(__file__).parent / "golden_records" / "kernel_sources.json"

#: (governed, limited, outer_limited, autoscaled, lanes)
OPTIONS = list(itertools.product((False, True), repeat=5))


def _key(router_type: type, options: tuple) -> str:
    return " ".join([router_type.name, *("01"[o] for o in options)])


def digests() -> dict:
    out = {}
    for router_type in _ROUTERS:
        for options in OPTIONS:
            kernel = _kernel(router_type, *options)
            source = "".join(
                linecache.getlines(kernel.__code__.co_filename))
            out[_key(router_type, options)] = hashlib.sha256(
                source.encode()).hexdigest()
    return out


def test_every_healthy_kernel_is_the_parents():
    golden = json.loads(GOLDEN.read_text())
    assert len(golden) == len(_ROUTERS) * len(OPTIONS)
    moved = sorted(key for key, digest in digests().items()
                   if golden.get(key) != digest)
    assert not moved, f"healthy kernel source changed: {moved}"


@pytest.mark.parametrize("router_type", list(_ROUTERS),
                         ids=lambda router_type: router_type.name)
def test_a_healthy_kernels_filename_names_its_options(router_type):
    kernel = _kernel(router_type, True, True, True, True, True)
    assert kernel.__code__.co_filename.startswith(
        f"<repro.service.engine kernel: {router_type.name} ")
    # the derived options a recorded batching run and exempt batch
    # tenants add name themselves and leave the pinned text alone
    kernel = _kernel(router_type, False, True, False, False, True,
                     starts=True, exempt=True)
    assert kernel.__code__.co_filename.endswith(" lanes starts exempt>")
    source = "".join(linecache.getlines(kernel.__code__.co_filename))
    assert "starts[" in source and "and not batch[" in source


if __name__ == "__main__":  # the goldens of the tree on the path
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True)
                      + "\n")
