"""The classifier sweeps and the base sweep of tools/equivalence.py on
smaller ranges (its SLICES: gl m+n <= 5, osp m+2n <= 8), against the slice
digests that tools/equivalence.json records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"
spec = importlib.util.spec_from_file_location("equivalence", TOOL)
equivalence = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equivalence)


@pytest.mark.parametrize("name", list(equivalence.SLICES))
def test_classifier_slice_matches_its_recorded_digest(name):
    expected = json.loads(equivalence.EXPECTED.read_text())["digests"]
    assert equivalence.digest(equivalence.SLICES[name]()) == expected[name]


def test_slices_are_the_start_of_the_full_sweeps():
    """Each slice hashes the first orbits of its full sweep, in order."""
    assert list(equivalence.gl_orbits(5)) == \
        list(equivalence.gl_orbits(8))[:73]
    assert list(equivalence.osp_orbits(8)) == \
        list(equivalence.osp_orbits(16))[:76]
    assert (len(list(equivalence.gl_orbits(8))),
            len(list(equivalence.osp_orbits(16)))) == (433, 2572)
