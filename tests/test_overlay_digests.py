"""The overlay's output bytes, pinned: the SHA-256 of the canonical JSON of
the join and meet of random cone pairs in 2-D and 3-D, and of a pair whose
second function has a non-convex support, recomputed batched and one pair
at a time.  A change that moves a byte updates tests/data/overlay_digests.json:

    PYTHONPATH=src python tests/test_overlay_digests.py > tests/data/overlay_digests.json
"""

import hashlib
import json
import pathlib
import sys

import numpy as np
import pytest

from plval import convex, overlay
from plval import plfunction as pf
from plval import polytope as pt
from plval.errors import OverlayFailure
from plval.serialize import dumps_canonical
from plval.verify import random_cone_function

import oracles

OPS = ("join", "meet")
PATH = pathlib.Path(__file__).parent / "data" / "overlay_digests.json"


def _pairs():
    """{name: (f, g)}: random_cone_function pairs at n = 2 and 3, seeds
    0-25, and the square's cone against a shifted square's cone joined
    with a disjoint one (a non-convex support)."""
    pairs = {}
    for n in (2, 3):
        for seed in range(26):
            rng = np.random.default_rng(seed)
            pairs["n=%d seed=%d" % (n, seed)] = (random_cone_function(rng, n), random_cone_function(rng, n))
    cone = pf.cone_function(pt.cube(2))
    far = pf.compose_affine(cone, np.eye(2), [-2.0, 0.0])
    near = pf.compose_affine(cone, np.eye(2), [0.7, 0.4])
    pairs["not-convex"] = (cone, overlay.overlays([(near, far)], ("join",))["join"][0])
    return pairs


def _digest(h) -> str:
    text = "failure: %s" % h if isinstance(h, OverlayFailure) else dumps_canonical(h.to_json_dict())
    return hashlib.sha256(text.encode()).hexdigest()


def _batched(pairs) -> dict:
    """{name: {op: digest}}, each dimension's pairs in one overlays call."""
    out = {}
    for dim in sorted({f.dim for f, _ in pairs.values()}):
        names = [k for k, (f, _) in pairs.items() if f.dim == dim]
        got = overlay.overlays([pairs[k] for k in names], OPS)
        for i, k in enumerate(names):
            out[k] = {op: _digest(got[op][i]) for op in OPS}
    return out


@pytest.fixture(scope="module")
def pairs():
    return _pairs()


def test_the_overlay_pin_covers_every_pair(pairs):
    golden = json.loads(PATH.read_text())
    assert sorted(golden) == sorted(pairs)
    assert not any(fn.complex.convex_support is None for fn in pairs["n=2 seed=0"])
    assert pairs["not-convex"][1].complex.convex_support is None


def test_batched_overlays_match_the_pinned_digests(pairs):
    assert _batched(pairs) == json.loads(PATH.read_text())


def test_single_overlays_match_the_pinned_digests(pairs):
    golden = json.loads(PATH.read_text())
    for name, pair in pairs.items():
        got = overlay.overlays([pair], OPS)
        assert {op: _digest(got[op][0]) for op in OPS} == golden[name], name


def test_a_rotated_kuhn_pair_matches_its_pinned_digests():
    # prod(1 - x_i^2) on the 2-D Kuhn mesh of 24^2 squares (1,152
    # simplices) and its image under 0.9 times a 0.1 rad rotation: a pair
    # large enough that its near pairs, vertex snap, row dedupe and sample
    # location all run on box_pairs' grid, pinned at the bytes the
    # all-pairs search gave
    f = oracles.kuhn_function(2, 24)
    a = 0.1
    g = pf.compose_affine(f, 0.9 * np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]]))
    assert len(f.complex) * len(g.complex) > convex.BOX_BLOCK
    got = overlay.overlays([(f, g)], OPS)
    assert {op: _digest(got[op][0]) for op in OPS} == {
        "join": "7461508a79cb46e07ae3becf442927ae1fb99ee00c60213995603acee6f60c5d",
        "meet": "417c29f3b33dbe2ade1d32fd81e10135ab0211dddd0213cbeaf1640fac0a05a1",
    }


if __name__ == "__main__":
    sys.stdout.write(json.dumps(_batched(_pairs()), indent=1, sort_keys=True) + "\n")
