"""Golden outputs: the sha256 of CLI outputs, run in-process through
``cli.main``.

The cases are ``classify`` and ``validate`` of the integer catalog members
at the radii the benchmark's ``catalog`` workload builds them at,
``classify --input`` of four generator sets moved by a rational
translation, as the ``rational`` workload moves them, and what patch
construction prints: ``build`` and ``petrie`` as JSON and ``export`` as
OBJ of the presets the ``ops`` workload builds, at its radii.  The moved
sets, and ``P2:1/3,2/5``, which is rational without a shift, also pin
what every layer prints of a structure with rational coordinates:
``build`` as JSON and as pgr, ``petrie``, ``export``, ``validate`` and
``net``.  ``classify`` of P:1,1, P:2,1, P:1,-2 and P2:2,1 at radius 4 pins
symmetry answers that are tested with isometries whose linear part does not
map the structure's lattice into itself.  A change that is meant to be fast
but not to change any answer must leave every digest as it is.

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
# (preset, radius) as in the ops workload
OPS = [
    ("tet", "4"), ("cube", "4"), ("oct", "4"), ("sq44", "4"), ("P:1,0", "3"),
    ("P2:1,0", "4"), ("blend(sq44,apeiro:1)", "3"), ("P:1,1", "3"),
    ("P:1,-1", "3"),
]
PATCH_COMMANDS = {
    "build": ["build", "--format", "json"],
    "petrie": ["petrie", "--format", "json"],
    "export": ["export", "--format", "obj"],
}
# what is run of each MOVED set besides classify
MOVED_COMMANDS = dict(PATCH_COMMANDS, pgr=["build", "--format", "pgr"],
                      validate=["validate"], net=["net"])
# (preset, radius) with rational coordinates and no shift
RATIONAL = [("P2:1/3,2/5", "3")]
# (preset, radius) whose symmetry candidates include isometries that do not
# map the structure's lattice into itself
OFF_LATTICE = [("P:1,1", "4"), ("P:2,1", "4"), ("P:1,-2", "4"), ("P2:2,1", "4")]

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
    'build tet 4': '0 745773800185a4023d4035681dc590d4260d4c9227954260a137295164b4ddff',
    'petrie tet 4': '0 632bcd3e9583517e2ecf0e9d66a2686016252afb7780b722098d5a3da71a85cb',
    'export tet 4': '0 e378fc88da0839d0f5b6296039e34242f29f963ba488f80d2e59b8092138faf8',
    'build cube 4': '0 8c9a47291fc797b276293ba07ed756b4e4f430b49ef488c2607088fe1a927acd',
    'petrie cube 4': '0 cbd7b0f94e84dea2888698aeb347f454fddfa3c5e9662415b5dc3c7ca46a9be0',
    'export cube 4': '0 56dfd1a1daeebcc1c2b2b40ab54c0c7c61e7dbd575438dbbe0946aa947a02096',
    'build oct 4': '0 42c653bcb64877767230e22efdb311b818266b701f6103ef31e01657fd6a2636',
    'petrie oct 4': '0 8b3543a0b0bad47b9481c72e827a43d5572efc19dc47a82770b36be4ad3f0ab0',
    'export oct 4': '0 0176a9fab0eca14f218095fbd1b38a7ada91e685cb3b666ced2afcdaec018ea1',
    'build sq44 4': '0 aa7936dc84f23ab18c942a1114d460e16944c61e521e37e158806e13d2259070',
    'petrie sq44 4': '0 f0381b09c2479389a159c62cb6c504fd6dc508c61a7890ec57b030f95d830fa8',
    'export sq44 4': '0 be3b7c7d4b14a25f83e6431d4f2015ad5b967dad8d44fae4226f0e96085f4a4b',
    'build P:1,0 3': '0 dce53c4666c27d368c2d7185a3b57b6f46a7b56f7308549422a6a2c2849a5bfe',
    'petrie P:1,0 3': '0 795b88c14e61560caaf724279a2bfa006e0e71dad49e7f50221eab09c317b2f0',
    'export P:1,0 3': '0 e8a32fef650b261aab51fe63b084b34ef2b946a8253f333ef6aa5a9da5497ed2',
    'build P2:1,0 4': '0 c2f210dbb5cdcef5f23368ef4dec5abd052d4a9f4693a0140ffeda27956a4e87',
    'petrie P2:1,0 4': '0 1d0c126375578874d5145ef3625342d5ff9285b4dd0ddaebfdbfd20f7b1895bf',
    'export P2:1,0 4': '0 e7fa858a37959754cd7f8b25e3fcd8531e6de14e2e44cc9b49b81def92efd668',
    'build blend(sq44,apeiro:1) 3': '0 5d1eb95b1fa71c255dd19ef5e1ef3ebd83c0073171421e7d40f159ae61998af3',
    'petrie blend(sq44,apeiro:1) 3': '0 ece862c46e29619c832ba27b2cc2cc42227b49dafcd4bdbbe605a0f10668ef37',
    'export blend(sq44,apeiro:1) 3': '0 d404bac77abd3de05ca0304191c74b4eedaf120fc5b6713c27fcd8fc97202bd8',
    'build P:1,1 3': '0 3c1526602c79c70421ab4a3416c35e23d8faaf83ac9bd9b131f397f2f58e78f8',
    'petrie P:1,1 3': '0 29281cfd9acb9a002eebbce2ec36e5504d36e6e29add9543f0e4c40ccad285f2',
    'export P:1,1 3': '0 8f2c566dbfe0c3b6043b34c6c79c93ccd35c1912fd21c7e4c6976d3345f94b7f',
    'build P:1,-1 3': '0 f2630a936a1f7ed7875b3623e8b5b0dd5a6444cff9018d9c27a4ebb1658ea182',
    'petrie P:1,-1 3': '0 e9c9f7b61048dd5cec49d2ded5f897b9f66e25a2ad01f145ddb8eeae8191f54b',
    'export P:1,-1 3': '0 287bc48d9d98f8e1ae60d360c87f030e98b77a164cc14b8e7fb6f5b4a40830cd',
    'build moved tet 4': '0 8321302679f7e618b56d05f46be754f3503e38906865e98729ce2523fec1f2e2',
    'petrie moved tet 4': '0 bc5d941a52876aa40e8a2860b6adb408d8f9a5d18d2c88e05ba396646a39dd79',
    'export moved tet 4': '0 45a60536c95956b6fd33d5641f7658d60a2819118f38431be468a8f5a9694300',
    'pgr moved tet 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'validate moved tet 4': '0 509f152e9c32d0b6b5d4b83ebaf03b8bf1f69a42cee12718f81f92a91b54eaa7',
    'net moved tet 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'build moved cube 4': '0 4886a1733ec0dd6ad3de7f23bbaa9a241a09ce461b4759260fca450caeff8778',
    'petrie moved cube 4': '0 2b52b29b77b1f065437cc5d085b89974628adeed14c30ba658994e9b781c1f18',
    'export moved cube 4': '0 27de59dcb3818ba9435593d09efb868be63738ec5fb6f7ed8a423071392f9a2c',
    'pgr moved cube 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'validate moved cube 4': '0 30e8dcb8a06fb41c7ba387c20109153018ca630a29a842aca20e48fd836c97d8',
    'net moved cube 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'build moved hex63 3': '0 6b280893728c33d47385154873c29ecc022eadeeefb7c24878bb62eb1ca3d353',
    'petrie moved hex63 3': '0 4c28d9353eaa6c2e3901e7fc463206a5457692d986084e1826178ec53813a169',
    'export moved hex63 3': '0 d102664b301edf928fcf31a05d7989ece4be9ad94d00307fc329aad40ec28a0f',
    'pgr moved hex63 3': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'validate moved hex63 3': '0 19ec8cf8b825581f727afb9298733c4a2544989168066b805213843d61270f47',
    'net moved hex63 3': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'build moved P2:1,0 3': '0 0c4a7397bef063e3da89d379a83041472b50ad560afd58dbb2df46529fc4a170',
    'petrie moved P2:1,0 3': '0 feec8ccb8e28ecf34cb76e97777b4aa8585ef3e435a416e252b9a082c5a59882',
    'export moved P2:1,0 3': '0 421a607ddab88eb44ef7ebbf681beec45f73b1a4af1c9ac2932c861d36c9b875',
    'pgr moved P2:1,0 3': '0 db4e6fad7350406629b096a748469c1a7eb0d07a9ff86acc3165481056bfa797',
    'validate moved P2:1,0 3': '0 0f7ff28ee2a2dce881e039dfbacb34eacbd7598c74780572348be6a45704f40f',
    'net moved P2:1,0 3': '0 429ebcb75d230d019c5bb1973dbf6cfd243f09fe956a5fe02cad0e5f1527095f',
    'classify P2:1/3,2/5 3': '0 91bf5dc37b1697dc3eb3d9116bb0661e947514f25137fc8251a1f29787bc0580',
    'build P2:1/3,2/5 3': '0 dd9930b808c50940978adfbcff7b6721d30ddfd6d34a2fe6693f956e03efe0e6',
    'classify P:1,1 4': '0 3251c0713a24074908c781f01ff45bffda0e406db3918b29ba47e33b242c92cf',
    'classify P:2,1 4': '0 9e119c0647f01135eca9e2ff512c5f4e2ff70929c0dd206d7fcfa31afdee89e1',
    'classify P:1,-2 4': '0 91fa6c116e8ae3fb5050fe2eb37dccc15484d9a49437c535c5e667d97a1e3ebb',
    'classify P2:2,1 4': '0 c21d0eaabee3d2ccc8799e97d870c3387187dbe387503c7eab40218a8a020c01',
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
    for name, radius in OPS:
        for label, command in PATCH_COMMANDS.items():
            yield f"{label} {name} {radius}", command + ["--preset", name,
                                                         "--radius", radius]
    for name, radius in MOVED:
        for label, command in MOVED_COMMANDS.items():
            yield f"{label} moved {name} {radius}", command + [
                "--input", _input_name(name), "--radius", radius]
    for name, radius in RATIONAL:
        for command in ("classify", "build"):
            yield f"{command} {name} {radius}", [command, "--preset", name,
                                                 "--radius", radius]
    for name, radius in OFF_LATTICE:
        yield f"classify {name} {radius}", ["classify", "--preset", name,
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
