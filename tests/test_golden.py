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
    'build tet 4': '0 7d4fd6b8443088003f5c4c2419a8e38f9e01fe777d41ffde7907ca7ca94fd77a',
    'petrie tet 4': '0 b4c9844157faf6743b8548ffd6c125ac9e5701f40146014593319688708a7fd9',
    'export tet 4': '0 e378fc88da0839d0f5b6296039e34242f29f963ba488f80d2e59b8092138faf8',
    'build cube 4': '0 912e9b52638d47f688001a20b5439743938fa8c91a35ba99ee3a1887dea52ee6',
    'petrie cube 4': '0 46c3a458253a1d64046970e49de96361c5abce79402223b5437af9743da7fe70',
    'export cube 4': '0 56dfd1a1daeebcc1c2b2b40ab54c0c7c61e7dbd575438dbbe0946aa947a02096',
    'build oct 4': '0 0a7d45c878265ae0d10fc7a5b51e19f1b95c6299279c7e59e4fac31c606c85dd',
    'petrie oct 4': '0 082d85bcab353d23842d6bf8a01c6f30758c8e02eb0a7b54caf327c34f1c4510',
    'export oct 4': '0 0176a9fab0eca14f218095fbd1b38a7ada91e685cb3b666ced2afcdaec018ea1',
    'build sq44 4': '0 cb4d3c0052ae6bb41751c98f5b6f4dd771f19e8e9fcad63e7b1c6325a927ebaf',
    'petrie sq44 4': '0 e9a8cdcc0274b0cee3e8feb93caccf6b6051a0e17c892d390bd662c771ca5403',
    'export sq44 4': '0 be3b7c7d4b14a25f83e6431d4f2015ad5b967dad8d44fae4226f0e96085f4a4b',
    'build P:1,0 3': '0 988f1e20480b6bf36fbdd12667d27383643b4b2da98c6edceea1325112ef26c8',
    'petrie P:1,0 3': '0 f4a2fc98cf56f860499a665e5b7503776143c10dda7c14e773fd9defeb1bbbb2',
    'export P:1,0 3': '0 e8a32fef650b261aab51fe63b084b34ef2b946a8253f333ef6aa5a9da5497ed2',
    'build P2:1,0 4': '0 382019a6b10b0ef7acc59ccdff5f5136d7f69cb0fd18c011b22c06cad1b346d0',
    'petrie P2:1,0 4': '0 2eef0374c38ba6249ae533d87ef9e61a47fa2a99dfd8bde9d20b9c41189334be',
    'export P2:1,0 4': '0 2242fe22708fd8e158dbf4072d5feabe0e831c820329592203c83ede89c4dfbb',
    'build blend(sq44,apeiro:1) 3': '0 d8c799775b758dd42a72c4a0432d4538a71404d58a8e137454ef99b31d467aa4',
    'petrie blend(sq44,apeiro:1) 3': '0 1a9cfd18b83eab673a2e8e4d840bb24bb4cf2def573bfb3141f8f89b108de2c5',
    'export blend(sq44,apeiro:1) 3': '0 a30d777bf3077f3c55f9e0debf937fe2844b4767f419a977d585c71db0dd82eb',
    'build P:1,1 3': '0 efac4b45c4bad57c3d52992e09571c25e48775ed6b82dc3ff07a4562bb65f8b4',
    'petrie P:1,1 3': '0 cfed59de3f2f3513d2b9895548bd49c8f15603f96d1c97e82669e3f228d5b422',
    'export P:1,1 3': '0 8f2c566dbfe0c3b6043b34c6c79c93ccd35c1912fd21c7e4c6976d3345f94b7f',
    'build P:1,-1 3': '0 dd828cadbb9a5eb438290e1a4d78f1a4a59e71800003c561a62a926b9d316418',
    'petrie P:1,-1 3': '0 f0d7ffc6ae04038ea1fec9fd1433788cc9242a499d0e0aa92c93f5286d9ffa70',
    'export P:1,-1 3': '0 287bc48d9d98f8e1ae60d360c87f030e98b77a164cc14b8e7fb6f5b4a40830cd',
    'build moved tet 4': '0 b53825934d1bd273bf1d15fe157d83433cd53bed0bd5205cb5531a8b60921d03',
    'petrie moved tet 4': '0 7c77914896b9a7e096e27b81b8a3b71cd97725bf4cdf79cf9efd19e0d8bb2c05',
    'export moved tet 4': '0 45a60536c95956b6fd33d5641f7658d60a2819118f38431be468a8f5a9694300',
    'pgr moved tet 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'validate moved tet 4': '0 509f152e9c32d0b6b5d4b83ebaf03b8bf1f69a42cee12718f81f92a91b54eaa7',
    'net moved tet 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'build moved cube 4': '0 883feb6e6e19e75d5a2cbd43391cc290b22015dbca870b0b6ba36b258fb74e61',
    'petrie moved cube 4': '0 dcf589e4a3b72fcbe63f2ae3d03b3dd8b30cfaeff29f47583bd1c84e0c963a3c',
    'export moved cube 4': '0 27de59dcb3818ba9435593d09efb868be63738ec5fb6f7ed8a423071392f9a2c',
    'pgr moved cube 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'validate moved cube 4': '0 30e8dcb8a06fb41c7ba387c20109153018ca630a29a842aca20e48fd836c97d8',
    'net moved cube 4': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'build moved hex63 3': '0 7167ab47bc870370ab1be33c492f2f899094a4db04af9bf9d8dc2fd785ff2520',
    'petrie moved hex63 3': '0 1aafdc516855a447d68336ffab9f299ab0b356c7964780f6e2dbdeabc48624ad',
    'export moved hex63 3': '0 d102664b301edf928fcf31a05d7989ece4be9ad94d00307fc329aad40ec28a0f',
    'pgr moved hex63 3': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'validate moved hex63 3': '0 40fc7f374d56678e6542f56ce3e3e40a148a3f97c9771009af02d4f5e830d8c9',
    'net moved hex63 3': '1 916d7b2f225533fcde07631c04c40f0b9c83ea392d27c29933ab775f503c1b33',
    'build moved P2:1,0 3': '0 89dde688d396f25817222e3321985191fda6d8c7f6df576dd451c2c74933b7a3',
    'petrie moved P2:1,0 3': '0 3db1c861b24a1730dc9931306ca1ec35ad37846fcc3adfc042f3d640d5ffd698',
    'export moved P2:1,0 3': '0 49be65987ef709f3533f993d9abde743e98773964fafbc7c0ecb5709e54a30fa',
    'pgr moved P2:1,0 3': '0 f652ac4f5975ffccc6ddfc037be8fbe6089e688e8d648ab6c1a3e6dbeaa0f004',
    'validate moved P2:1,0 3': '0 4ae5010f44d15223477f461f8978eaa7162ac5befe372beabf738779ec9fcb1c',
    'net moved P2:1,0 3': '0 429ebcb75d230d019c5bb1973dbf6cfd243f09fe956a5fe02cad0e5f1527095f',
    'classify P2:1/3,2/5 3': '0 91bf5dc37b1697dc3eb3d9116bb0661e947514f25137fc8251a1f29787bc0580',
    'build P2:1/3,2/5 3': '0 7202ce9a53d330f276fe8c361714e7f78ce493bfc080775dbdb35c57f493b5cf',
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
