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
    'validate P2:1,0 4': '0 0958867653b76131f1ecefcf74310efabd237f4e60fc78c24ecd6bbf1c2406a2',
    'classify P:1,0 3': '0 e9a95c72420b624a92c7beebe32ee9c5961f05bbcded3084bd5b58655aaa1a67',
    'validate P:1,0 3': '0 034b2c29b402dda6c2fdbd0d15cb911a898ba225e7879d43a2a5cb59548365a9',
    'classify skel2cubic 3': '0 0fca9b3f821db7a22055a524adb5548d9bb1c19e6214fb6349ecd95a5adb2a38',
    'validate skel2cubic 3': '0 283d87646f5ae030ead116ad1452a6c014f2244537c2a034ad615342e531ce6e',
    'classify K5_12 3': '0 1ac205838a360874c2294f363787aa85eac155f8df5fb1d4bf2401f70ec79eab',
    'validate K5_12 3': '0 2112aeb53674f3c481a6626dc650d30e1d43334a8e2d06007dcae967af537458',
    'classify moved tet 4': '0 6df1697e3bed3c302aca9c2826f2e2c5782b9ba287a921509a0a84c7ea8fbf77',
    'classify moved cube 4': '0 45300753f11fbf67edce1f1156fcdb6a0bfd29dbd07318ef44d65e6c5380fc06',
    'classify moved hex63 3': '0 a9e1fef1a393302b182cf3ece0df7330a960d62ffe9949663a284838478aef75',
    'classify moved P2:1,0 3': '0 4eb2c48436bb9eae47a324f58ae85415aff32b59cf53b4dbd9497b0a6e550864',
    'build tet 4': '0 3ba32e0f0833b814321022ea56c55fbd01ca0dcd3c6f8c53e2249d7d193c4932',
    'petrie tet 4': '0 fa2a94f6529b6d2603f0bbd6cfba9a4d5b07e368dc5bc96ac7084dfd498bc377',
    'export tet 4': '0 e378fc88da0839d0f5b6296039e34242f29f963ba488f80d2e59b8092138faf8',
    'build cube 4': '0 d5cb38779bddf3636c0a74da6bfcffd22fe3d80a4b1e878f5f2397c9b870c924',
    'petrie cube 4': '0 1353a5df585d7dc0660307026054170f58bb88e08bfecd8de662c32360f941f2',
    'export cube 4': '0 56dfd1a1daeebcc1c2b2b40ab54c0c7c61e7dbd575438dbbe0946aa947a02096',
    'build oct 4': '0 2ed3fe31d5a759553d768ae9fd7c357193a6a9c96c45df527cc11499b4149fb1',
    'petrie oct 4': '0 6b712d91dc42dddc4035ecf6d02885658519657795a72cbe26768c1fcf9bd042',
    'export oct 4': '0 0176a9fab0eca14f218095fbd1b38a7ada91e685cb3b666ced2afcdaec018ea1',
    'build sq44 4': '0 bbb28abf32b0aa5a112d0f626d4c491ed0d32fd4141d783323ada2228c13b245',
    'petrie sq44 4': '0 bca1e6f62991a924eaecbc756c2e5d6473ff83c8cba0bb251becb87db750eb49',
    'export sq44 4': '0 be3b7c7d4b14a25f83e6431d4f2015ad5b967dad8d44fae4226f0e96085f4a4b',
    'build P:1,0 3': '0 0bd99def4b9bddaab32a93f74559fbc541a2f2f3f3742f694b7af86d4c3b2d40',
    'petrie P:1,0 3': '0 f568168bb5c503936b8385ecc944755235162127f8664740cc76e9a1b77aceb2',
    'export P:1,0 3': '0 e8a32fef650b261aab51fe63b084b34ef2b946a8253f333ef6aa5a9da5497ed2',
    'build P2:1,0 4': '0 b467d7494ddcf216b631013f48bee29cbeddc54a7fc99ade015ba0280988124e',
    'petrie P2:1,0 4': '0 d76f5edb3e18f31c2a421657bc426b2e6ca7437e11206612ba7ee551dcb13d2f',
    'export P2:1,0 4': '0 2bc561d971f191ab7cd3a9c0ad5670ef5ff1980a3be65db2b40c09e77d8ea921',
    'build blend(sq44,apeiro:1) 3': '0 ea7cc4f57829b3163dc35ef47c2f3cd5523cf5de0708ead177dcd016c482c89c',
    'petrie blend(sq44,apeiro:1) 3': '0 2ecff2b5baf2025d1a31932a8d39b8c29027cd78d84a4411eb6c87fad37ff5ab',
    'export blend(sq44,apeiro:1) 3': '0 af426604b1792fe1b128bc29acf486a5f7edced291782c6220a979ae44eeb99e',
    'build P:1,1 3': '0 d37edd9a870270a3cc648254a82ffdea723943035a0b1823b0a335bd44fb17a2',
    'petrie P:1,1 3': '0 728d4c118e34f9964303a1953bd543e38729f49c50220acd08029371d962d945',
    'export P:1,1 3': '0 8f2c566dbfe0c3b6043b34c6c79c93ccd35c1912fd21c7e4c6976d3345f94b7f',
    'build P:1,-1 3': '0 7036dde007836fa92569fddf38016139575f5bccd6dc6beb6248e506e7d388f7',
    'petrie P:1,-1 3': '0 a44bd9eeb549035b1f0ff6a709e8e3e4b7977b46594baa6d70210e45696deb77',
    'export P:1,-1 3': '0 287bc48d9d98f8e1ae60d360c87f030e98b77a164cc14b8e7fb6f5b4a40830cd',
    'build moved tet 4': '0 d807766a08d38b53d25f9f957cb8ff0cd20b2ef6ad829987fceb05d37063b773',
    'petrie moved tet 4': '0 1ae2449283cc6e7171aeeaa861c59b4a94791b3ed3664d5b3f73ef9c6772cb9a',
    'export moved tet 4': '0 45a60536c95956b6fd33d5641f7658d60a2819118f38431be468a8f5a9694300',
    'pgr moved tet 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'validate moved tet 4': '0 509f152e9c32d0b6b5d4b83ebaf03b8bf1f69a42cee12718f81f92a91b54eaa7',
    'net moved tet 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'build moved cube 4': '0 7fe10e516cd178bf90e8ea67e73825a901fba47c22ad82a2373f88fc9201d874',
    'petrie moved cube 4': '0 721d1653c4e3267b7595258d78f0ec7500a6fa590ae7c556a1fb6713b1be207a',
    'export moved cube 4': '0 27de59dcb3818ba9435593d09efb868be63738ec5fb6f7ed8a423071392f9a2c',
    'pgr moved cube 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'validate moved cube 4': '0 30e8dcb8a06fb41c7ba387c20109153018ca630a29a842aca20e48fd836c97d8',
    'net moved cube 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'build moved hex63 3': '0 944da23c1d23d35650645a97f9bf66aefde0cf16025ee7cc3b3efab7c7b5a04f',
    'petrie moved hex63 3': '0 6dd7fa91eb9b7510f747c4ec0941327b1b99315fb0960e868e92fa573ea5c57d',
    'export moved hex63 3': '0 d102664b301edf928fcf31a05d7989ece4be9ad94d00307fc329aad40ec28a0f',
    'pgr moved hex63 3': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'validate moved hex63 3': '0 40fc7f374d56678e6542f56ce3e3e40a148a3f97c9771009af02d4f5e830d8c9',
    'net moved hex63 3': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'build moved P2:1,0 3': '0 5e63226e538663b5d0cc5fea1afc3b288b9672670bff83a57d2be816428cd930',
    'petrie moved P2:1,0 3': '0 3a8a44b8c26682707e0dd04ca420f46fc8fe01339e4ec83a5da0175e5ad50b27',
    'export moved P2:1,0 3': '0 34c33b34c97f4db836b75011f6054aa6255c723e555abca995f6072f3b093c83',
    'pgr moved P2:1,0 3': '0 f652ac4f5975ffccc6ddfc037be8fbe6089e688e8d648ab6c1a3e6dbeaa0f004',
    'validate moved P2:1,0 3': '0 4ae5010f44d15223477f461f8978eaa7162ac5befe372beabf738779ec9fcb1c',
    'net moved P2:1,0 3': '0 429ebcb75d230d019c5bb1973dbf6cfd243f09fe956a5fe02cad0e5f1527095f',
    'classify P2:1/3,2/5 3': '0 91bf5dc37b1697dc3eb3d9116bb0661e947514f25137fc8251a1f29787bc0580',
    'build P2:1/3,2/5 3': '0 bc91b6530d99e47a862f43d136897ed5b7a6da565f5a39b06d3fa4604f4122d8',
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
