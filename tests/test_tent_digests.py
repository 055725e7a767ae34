"""Tent decompositions, pinned to the byte: the SHA-256 of every tent's
vertices, simplices and values for random_fan_function(s), s = 0-25, and
the battery's cone over the square scaled by 1.2, or the type and message
of what its decomposition gives in place of tents.  The digests hold for
one tent_decomposition call over all the functions and for one call per
function.  A change that moves a byte updates tests/data/tent_digests.json:

    PYTHONPATH=src python tests/test_tent_digests.py > tests/data/tent_digests.json
"""

import hashlib
import json
import pathlib
import sys

from plval import overlay
from plval import polytope as pt
from plval.plfunction import cone_function, scale_values
from plval.verify import random_fan_function

PATH = pathlib.Path(__file__).parent / "data" / "tent_digests.json"


def _functions() -> dict:
    """{name: function} for the pinned decompositions."""
    out = {"fan seed=%d" % s: random_fan_function(s) for s in range(26)}
    out["cube(2) x1.2"] = scale_values(cone_function(pt.cube(2)), 1.2)
    return out


def _text(t) -> str:
    """A tent's vertices, simplices and values, exactly: each array's
    dtype, shape and bytes."""
    return "\n".join("%s %s %s" % (a.dtype.str, a.shape, a.tobytes().hex())
                     for a in (t.complex.vertices, t.complex.simplices, t.values))


def _digest(got):
    """[the digest of each tent], or the type and message of the error
    given in their place."""
    if isinstance(got, Exception):
        return "raises %s: %s" % (type(got).__name__, got)
    return [hashlib.sha256(_text(t).encode()).hexdigest() for t in got]


def _digests(batched: bool = True) -> dict:
    """{name: digests} from one tent_decomposition call over every
    function, or from one call per function."""
    functions = _functions()
    if batched:
        got = overlay.tent_decomposition(list(functions.values()))
    else:
        got = [overlay.tent_decomposition([f])[0] for f in functions.values()]
    return {name: _digest(tents) for name, tents in zip(functions, got)}


def test_tents_in_one_call_match_the_pinned_digests():
    assert _digests() == json.loads(PATH.read_text())


def test_tents_one_call_per_function_match_the_pinned_digests():
    assert _digests(batched=False) == json.loads(PATH.read_text())


def test_the_tent_pin_holds_every_tent():
    # one tent per simplex carrying positive values: six per fan, four on
    # the square
    golden = json.loads(PATH.read_text())
    assert [len(golden["fan seed=%d" % s]) for s in range(26)] == [6] * 26
    assert len(golden["cube(2) x1.2"]) == 4


if __name__ == "__main__":
    sys.stdout.write(json.dumps(_digests(), indent=1, sort_keys=True) + "\n")
