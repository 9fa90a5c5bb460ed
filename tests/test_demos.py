"""The demos print what they printed when their digests were recorded.

Each script in ``demos/`` is run in-process and the sha256 of its stdout is
compared with ``DIGESTS``.  A change that is meant to change no output must
leave every digest as it is.  After a change that is meant to change what
a demo prints, read the changed lines, then re-record with

    PYTHONPATH=src:tests python tests/test_demos.py

which prints the ``DIGESTS`` dict to paste over the one below.
"""

import contextlib
import hashlib
import io
import os
import runpy

import pytest

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

DIGESTS = {
    '01_exact_isometries.py': '5fcbe4d846451155b87d833ca6eafe4896f8b8613d0436dad3e9bd7ac54ab607',
    '02_chiral_hexagon_family.py': 'e4cb7dd4653d50386ec867bf2808321ad33dd4c17e750d163d4220fe8cd583ce',
    '03_petrie_duals.py': '878e4df2367b7e7c09a653533eebeda312c1e2a52f67e771e8bb4042be4546b0',
    '04_helix_polyhedra.py': '01f8aa1b9e0950056cd26f999082702de5a37426e3d6c105fe5f61d63ea55f69',
    '05_polygonal_complexes.py': 'c5a093e14cc9a7373a2b4ca50b39b01d7bdab9eab56de5810a959cb6f5b161cc',
    '06_blends.py': 'cb75c0f68a4e9717b7a1dc3b71ef9d63e6efb2cef2a9d1ceac75ac6c6caf34fc',
    '07_crystal_nets.py': '3177c76ca05fd3f38fe8e25f1e4a1e3f21409145ad18fac5185540d329b31e4c',
}


def _names():
    return sorted(f for f in os.listdir(DEMOS) if f.endswith(".py"))


def _digest(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(DEMOS, name), run_name="__main__")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_every_demo_has_a_digest():
    assert sorted(DIGESTS) == _names()


@pytest.mark.parametrize("name", _names())
def test_demo_output_is_recorded(name):
    assert _digest(name) == DIGESTS.get(name), name


if __name__ == "__main__":
    print("DIGESTS = {")
    for name in _names():
        print(f"    {name!r}: {_digest(name)!r},")
    print("}")
