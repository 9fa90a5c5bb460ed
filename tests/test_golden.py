"""Golden outputs: the sha256 of CLI outputs, run in-process through
``cli.main``.

The cases are ``classify`` and ``validate`` of the integer catalog members
at the radii the benchmark's ``catalog`` workload builds them at, and
``classify --input`` of four generator sets moved by a rational
translation, as the ``rational`` workload moves them.  A change that is
meant to be fast but not to change any answer must leave every digest as
it is.

After a change that is meant to change output, check the new output by
hand, then re-record with

    PYTHONPATH=src:tests python tests/test_golden.py

which prints the ``GOLDEN`` dict to paste over the one below.
"""

import hashlib
import os
import tempfile
from fractions import Fraction

import pytest

# (preset, radius) as in the catalog workload
CATALOG = [
    ("tet", "4"), ("cube", "4"), ("oct", "4"), ("sq44", "4"),
    ("P2:1,0", "4"), ("P:1,0", "3"), ("skel2cubic", "3"), ("K5_12", "3"),
]
# (preset, radius) moved by SHIFT, as in the rational workload
MOVED = [("tet", "4"), ("cube", "4"), ("hex63", "3"), ("P2:1,0", "3")]
SHIFT = (Fraction(1, 3), Fraction(-2, 5), Fraction(3, 7))

GOLDEN = {
    'classify tet 4': '0 aa8855b8b65023c0c9951a7c705d3b0a97f800b93720ca4f33ab5d46f2f5f4a7',
    'validate tet 4': '0 e186b4bb91ac5b11ca46cf5acc7ee9e576bb4cf489f3f8f20fefbc70da2a1941',
    'classify cube 4': '0 bac739cd0015cd6ee978c78b906f7a7aab41f66b7272db51b9798e01dd2ade60',
    'validate cube 4': '0 fc6d0b614a76ba233191f2ecdc04825d89ff967a7ba99a2fe4fb96f033645ed8',
    'classify oct 4': '0 313e5fc6c7790b859959d365d8627680719919e3b282039b4c4a733abb7bf880',
    'validate oct 4': '0 8e6aa2209bee0744f8bd966229c612a67098f7faf4df5980d2209752e8cac61d',
    'classify sq44 4': '0 1fc0d8d6298a89f8b5845cad00c598e61d49fa2cf668e2a2123322324705ca48',
    'validate sq44 4': '0 a6b485af6492426fb9b051a190f83bec5bf6c7239db24c0af4d0e30756a92965',
    'classify P2:1,0 4': '0 7b6958d4c12cb424d04425d71d0402f1f2e63f30402c13fce7f06b57c4d23aed',
    'validate P2:1,0 4': '0 c3e8c0d995f18c2897a5cf4e522588bc04418463818edc6c15f69bf01aaa11ed',
    'classify P:1,0 3': '0 e9a95c72420b624a92c7beebe32ee9c5961f05bbcded3084bd5b58655aaa1a67',
    'validate P:1,0 3': '0 2d4150a4b93ed4798fd33afdcfa32b6a8955326a0368f21b61773712daf4dfee',
    'classify skel2cubic 3': '0 0fca9b3f821db7a22055a524adb5548d9bb1c19e6214fb6349ecd95a5adb2a38',
    'validate skel2cubic 3': '0 283d87646f5ae030ead116ad1452a6c014f2244537c2a034ad615342e531ce6e',
    'classify K5_12 3': '0 1ac205838a360874c2294f363787aa85eac155f8df5fb1d4bf2401f70ec79eab',
    'validate K5_12 3': '0 1192a7445ab6ea92efaeba15ed2716450379f1341dea172c75c1a40d58cdb8a4',
    'classify moved tet 4': '0 6df1697e3bed3c302aca9c2826f2e2c5782b9ba287a921509a0a84c7ea8fbf77',
    'classify moved cube 4': '0 45300753f11fbf67edce1f1156fcdb6a0bfd29dbd07318ef44d65e6c5380fc06',
    'classify moved hex63 3': '0 a9e1fef1a393302b182cf3ece0df7330a960d62ffe9949663a284838478aef75',
    'classify moved P2:1,0 3': '0 4eb2c48436bb9eae47a324f58ae85415aff32b59cf53b4dbd9497b0a6e550864',
}


def _cases():
    for name, radius in CATALOG:
        for command in ("classify", "validate"):
            yield f"{command} {name} {radius}", [command, "--preset", name,
                                                 "--radius", radius]
    for name, radius in MOVED:
        yield f"classify moved {name} {radius}", ["classify", "--input",
                                                  _input_name(name),
                                                  "--radius", radius]


def _input_name(name):
    return "moved-" + name.replace(":", "_").replace(",", "_") + ".json"


def _write_inputs(directory):
    from skelforge.presets import instantiate
    from skelforge.serialization import generators_to_json_text
    from test_orbit import moved

    for name, _ in MOVED:
        text = generators_to_json_text(moved(instantiate(name), SHIFT))
        with open(os.path.join(directory, _input_name(name)), "w") as fh:
            fh.write(text)


def _digest(argv, capsys):
    from skelforge.cli import main

    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return f"{code} " + hashlib.sha256(out.encode()).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_inputs(str(directory))
    return directory


@pytest.mark.parametrize("case,argv", list(_cases()), ids=[c for c, _ in _cases()])
def test_output_is_golden(case, argv, inputs, capsys, monkeypatch):
    # the moved inputs are named relative to their directory, because the
    # input path is the structure's printed name
    monkeypatch.chdir(inputs)
    assert _digest(argv, capsys) == GOLDEN[case]


if __name__ == "__main__":
    import contextlib
    import io
    import sys

    class _Capture:
        def __init__(self):
            self.buf = io.StringIO()

        def readouterr(self):
            out, self.buf = self.buf.getvalue(), io.StringIO()
            return type("Captured", (), {"out": out})

    cap = _Capture()
    with tempfile.TemporaryDirectory() as directory:
        _write_inputs(directory)
        os.chdir(directory)
        digests = {}
        for case, argv in _cases():
            with contextlib.redirect_stdout(cap.buf):
                digests[case] = _digest(argv, cap)
    sys.stdout.write("GOLDEN = {\n")
    for case, digest in digests.items():
        sys.stdout.write(f"    {case!r}: {digest!r},\n")
    sys.stdout.write("}\n")
