"""The command-line surface: commands, formats, error JSON, round trips."""

import json
import os
import subprocess
import sys

import pytest

from test_presets import CATALOG_SWEEP


def run_cli(*args, expect_code=0):
    proc = subprocess.run(
        [sys.executable, "-m", "skelforge.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == expect_code, proc.stdout + proc.stderr
    return proc.stdout


class TestCommands:
    def test_classify_chiral_preset(self):
        out = json.loads(run_cli("classify", "--preset", "P:1,0"))
        assert out["verdict"] == "chiral"
        assert out["schlafli"]["p"] == 6 and out["schlafli"]["q"] == 6
        assert out["generators"]["family"] == "S"

    def test_classify_helix_preset_at_default_flags(self):
        out = json.loads(run_cli("classify", "--preset", "P2:1,0"))
        assert out["verdict"] == "regular"

    def test_face_class_counts_are_per_patch_face(self):
        from skelforge.classify import classify_polygon
        from skelforge.complexes import Region
        from skelforge.presets import build

        for name in ("K4_12", "P2:1,0"):
            out = json.loads(run_cli("classify", "--preset", name, "--radius", "3"))
            counts = {}
            for f in build(name, Region((0, 0, 0), 3)).faces:
                sym = classify_polygon(f).symbol
                counts[sym] = counts.get(sym, 0) + 1
            assert out["face_classes"] == counts, name

    def test_petrie_cube_four_skew_hexagons(self):
        out = json.loads(run_cli("petrie", "--preset", "cube"))
        assert out["counts"]["faces"] == 4
        assert all(len(f["vertices"]) == 6 for f in out["faces"])

    def test_net_identification(self):
        out = json.loads(run_cli("net", "--preset", "K4_12"))
        assert out["identification"] == "pcu"
        assert out["coordination_sequence"][0] == 6

    def test_validate_complex(self):
        out = json.loads(run_cli("validate", "--preset", "skel2cubic",
                                 "--radius", "3"))
        assert out["passed"] and out["r"] == 4 and out["mode"] == "complex"

    def test_build_obj(self):
        out = run_cli("build", "--preset", "tet", "--format", "obj")
        assert out.count("\nf ") == 4

    def test_build_pgr(self):
        out = run_cli("build", "--preset", "K4_12", "--format", "pgr")
        assert any(line.startswith("e ") for line in out.splitlines())

    def test_rational_radius_flag(self):
        out = json.loads(run_cli("build", "--preset", "sq44",
                                 "--radius", "5/2"))
        assert out["region"]["radius"] == "5/2"


class TestSmallRegions:
    @pytest.mark.parametrize("name", ["cube", "oct"])
    def test_classify_without_interior_edge_answers_as_at_radius_3(self, capsys, name):
        # radius 1/2 holds no vertex of either solid; the answer comes from
        # the classes, and a finite patch is whole, so even the face counts
        # agree
        from skelforge.cli import main

        main(["classify", "--preset", name, "--radius", "1/2"])
        small = capsys.readouterr().out
        main(["classify", "--preset", name, "--radius", "3"])
        assert small == capsys.readouterr().out

    @pytest.mark.parametrize("name", ["P:1,1", "P2:1,0"])
    def test_net_and_pgr_do_not_depend_on_radius(self, capsys, name):
        from skelforge.cli import main

        outputs = set()
        for radius in ("1/2", "1", "3", "6"):
            main(["net", "--preset", name, "--radius", radius])
            main(["build", "--preset", name, "--radius", radius, "--format", "pgr"])
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1, name


    def test_petrie_at_a_radius_without_interior_edge(self, capsys):
        # the Petrie dual is decided on the quotient, so it exists even where
        # the region holds no vertex of the cube; a finite structure's patch
        # is the whole structure at any radius
        from skelforge.cli import main

        def obj(*argv):
            assert main([*argv, "--format", "obj"]) == 0
            return capsys.readouterr().out

        small = obj("petrie", "--preset", "cube", "--radius", "1/2")
        assert small == obj("export", "--preset", "petrie(cube)", "--radius", "1/2")
        full = obj("petrie", "--preset", "cube")
        for out in (small, full):
            assert sum(line.startswith("l ") for line in out.splitlines()) == 4
        assert small.splitlines()[0] == full.splitlines()[0] == "# petrie({4,3})"

    def test_finite_export_is_whole_at_any_radius(self, capsys):
        from skelforge.cli import main

        main(["export", "--preset", "cube", "--radius", "1/2"])
        lines = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("v ") for line in lines) == 8
        assert sum(line.startswith("f ") for line in lines) == 6

    @pytest.mark.parametrize("name", [name for name, _, _ in CATALOG_SWEEP])
    def test_every_command_ends_cleanly_at_half_radius(self, capsys, name):
        # exit 0, 1 (an error as one line of JSON) or 2 (failed validation),
        # never an uncaught exception
        from skelforge.cli import main

        for command in ("build", "classify", "validate", "net", "petrie", "export"):
            try:
                code = main([command, "--preset", name, "--radius", "1/2"])
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            assert code in (0, 1, 2), (command, code)
            if code == 1:
                assert out.count("\n") == 1, (command, out)
                assert set(json.loads(out)) == {"code", "detail"}, (command, out)


class TestRadiusInvariance:
    @pytest.mark.parametrize("name", [name for name, _, _ in CATALOG_SWEEP])
    def test_answers_do_not_depend_on_radius(self, capsys, name):
        # a built preset keeps its classes, and validate, net and classify
        # read only them; classify's face_classes counts the patch's faces
        from skelforge.cli import main

        def run(command, radius):
            try:
                code = main([command, "--preset", name, "--radius", radius])
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr().out
            if command == "classify" and code == 0:
                data = json.loads(out)
                del data["face_classes"]
                out = json.dumps(data, sort_keys=True)
            return code, out

        for command in ("validate", "net", "classify"):
            answers = {r: run(command, r) for r in ("1/2", "1", "3", "4", "6")}
            assert len(set(answers.values())) == 1, (command, answers)
            if command == "validate":
                assert answers["1/2"][0] == 0, answers["1/2"]

class TestQuotientFlag:
    @pytest.mark.parametrize("name", [name for name, _, _ in CATALOG_SWEEP])
    def test_quotient_flag_changes_nothing(self, capsys, name):
        # every answer reads the quotient modulo the structure's own lattice,
        # so --quotient is accepted and ignored
        from skelforge.cli import main

        for command in ("classify", "petrie"):
            outputs = set()
            for flags in ([], ["--quotient", "1"], ["--quotient", "2"]):
                try:
                    code = main([command, "--preset", name, *flags])
                except SystemExit as exc:
                    code = exc.code
                outputs.add((code, capsys.readouterr().out))
            assert len(outputs) == 1, (command, outputs)


class TestFlagsPerCommand:
    # a command takes only the flags it reads; the rest exit 2 with usage
    @pytest.mark.parametrize("args", [
        ("net", "--preset", "K4_12", "--format", "pgr"),
        ("classify", "--preset", "cube", "--depth", "3"),
        ("build", "--preset", "cube", "--input", "cube.json"),
        ("export", "--preset", "cube", "--format", "json"),
        ("build",),
    ], ids=["net-format", "classify-depth", "preset-and-input", "export-json", "no-source"])
    def test_refused_with_usage(self, args):
        proc = subprocess.run([sys.executable, "-m", "skelforge.cli", *args],
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 2, proc.stdout + proc.stderr
        assert proc.stdout == ""
        assert "error:" in proc.stderr


# Runs cli.main in a cold interpreter on the sources beside these tests and
# prints the names of the modules loaded by then.
_LOADED = """
import contextlib, io, sys
from skelforge import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
print(" ".join(sorted(sys.modules)))
"""
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def loaded_modules(*args, cwd=None):
    proc = subprocess.run([sys.executable, "-c", _LOADED, *args], capture_output=True,
                          text=True, timeout=600, cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=_SRC))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestColdImports:
    # a command imports only the modules it calls, and --help and usage
    # errors build the parser without the library
    @pytest.mark.parametrize("args", [("--help",), ("build",), ("net", "--help")],
                             ids=["help", "usage-error", "net-help"])
    def test_parser_loads_no_library_module(self, args):
        loaded = {m for m in loaded_modules(*args) if m.split(".")[0] == "skelforge"}
        assert loaded == {"skelforge", "skelforge.cli", "skelforge.errors"}

    @pytest.mark.parametrize("args", [("validate", "--preset", "cube"),
                                      ("net", "--preset", "K4_12")])
    def test_validate_and_net_load_no_classify_ops_or_serialization(self, args):
        loaded = loaded_modules(*args)
        assert "skelforge.presets" in loaded
        for name in ("classify", "ops", "serialization"):
            assert f"skelforge.{name}" not in loaded, name

    def test_benchmark_commands_load_no_dataclasses(self, tmp_path):
        from skelforge.presets import instantiate
        from skelforge.serialization import generators_to_json_text

        for name in ("hex63", "cube"):
            (tmp_path / f"{name}.json").write_text(
                generators_to_json_text(instantiate(name)))
        for args in (
            ("petrie", "--preset", "cube", "--format", "obj"),
            ("net", "--preset", "K4_12", "--radius", "3"),
            ("validate", "--preset", "skel2cubic", "--radius", "3"),
            ("build", "--preset", "blend(sq44,apeiro:1)", "--out", "blend.json"),
            ("export", "--preset", "P2:1,0", "--format", "obj", "--out", "helix.obj"),
            ("classify", "--preset", "K5_12", "--radius", "3", "--quotient", "2"),
            ("classify", "--input", "hex63.json", "--radius", "3", "--quotient", "2"),
            ("net", "--input", "cube.json", "--radius", "3"),
        ):
            assert "dataclasses" not in loaded_modules(*args, cwd=tmp_path), args


class TestErrorJson:
    @pytest.mark.parametrize(
        "args,code",
        [
            (("build", "--preset", "P:0,0"), "invalid-parameters"),
            (("build", "--preset", "nosuch"), "parse-error"),
            (("net", "--preset", "cube"), "not-3-periodic"),
            # an empty name passes argparse and is an unknown preset
            (("build", "--preset", ""), "parse-error"),
            (("classify", "--preset", "cube", "--radius", "0"), "invalid-parameters"),
            (("classify", "--preset", "cube", "--radius", "-1"), "invalid-parameters"),
            (("net", "--preset", "K4_12", "--radius", "3", "--depth", "-1"),
             "invalid-parameters"),
        ],
    )
    def test_machine_readable_codes(self, args, code):
        out = run_cli(*args, expect_code=1)
        assert len(out.splitlines()) == 1
        assert json.loads(out)["code"] == code

    def test_unreadable_input_names_the_path(self, tmp_path):
        missing = str(tmp_path / "nope.json")
        out = run_cli("classify", "--input", missing, expect_code=1)
        assert len(out.splitlines()) == 1
        error = json.loads(out)
        assert error["code"] == "io-error" and missing in error["detail"]

    def test_undecodable_input_is_a_parse_error(self, tmp_path):
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        out = run_cli("classify", "--input", str(binary), expect_code=1)
        assert len(out.splitlines()) == 1
        error = json.loads(out)
        assert error["code"] == "parse-error" and str(binary) in error["detail"]

    def test_unwritable_output_names_the_path(self, tmp_path):
        target = str(tmp_path / "missing" / "x.json")
        out = run_cli("build", "--preset", "cube", "--out", target, expect_code=1)
        assert len(out.splitlines()) == 1
        error = json.loads(out)
        assert error["code"] == "io-error" and target in error["detail"]


def _set(path, value):
    """A change of the generator JSON: put ``value`` at the key path."""
    def change(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return change


class TestMalformedGenerators:
    @pytest.mark.parametrize(
        "change",
        [
            _set(["generators"], 5),
            _set(["generators"], ["S1"]),
            _set(["face_generator"], 5),
            _set(["generators", 0, "name"], ["S1"]),
            _set(["base_vertex", 1], True),
        ],
        ids=["generators-number", "generators-of-strings", "face-generator-number",
             "list-name", "boolean-coordinate"],
    )
    def test_parse_error_not_traceback(self, tmp_path, change):
        from skelforge.presets import finite_faced_chiral
        from skelforge.serialization import generators_to_json

        data = generators_to_json(finite_faced_chiral(1, 0))
        change(data)
        gen_file = tmp_path / "gens.json"
        gen_file.write_text(json.dumps(data))
        out = run_cli("validate", "--input", str(gen_file), "--radius", "2",
                      expect_code=1)
        assert len(out.splitlines()) == 1
        assert json.loads(out)["code"] == "parse-error"


class TestMovedInput:
    def test_moved_cube_is_not_3_periodic(self, tmp_path):
        from fractions import Fraction

        from skelforge.presets import instantiate
        from skelforge.serialization import generators_to_json_text
        from test_orbit import moved

        shift = (Fraction(1, 3), Fraction(-1, 7), Fraction(1, 2))
        gen_file = tmp_path / "cube.json"
        gen_file.write_text(generators_to_json_text(moved(instantiate("cube"), shift)))
        out = run_cli("net", "--input", str(gen_file), "--radius", "3",
                      expect_code=1)
        assert json.loads(out)["code"] == "not-3-periodic"


class TestRoundTrip:
    def test_build_serialize_ingest_rebuild(self, tmp_path):
        from skelforge.presets import finite_faced_chiral
        from skelforge.serialization import generators_to_json_text

        gen_file = tmp_path / "gens.json"
        gen_file.write_text(generators_to_json_text(finite_faced_chiral(1, 0)))
        a = run_cli("build", "--input", str(gen_file), "--radius", "2")
        b = run_cli("build", "--preset", "P:1,0", "--radius", "2")
        da, db = json.loads(a), json.loads(b)
        assert da["vertices"] == db["vertices"]
        assert da["faces"] == db["faces"]
        # byte-identical modulo the provenance name
        assert a.replace(str(gen_file), "P(1,0)") == b
