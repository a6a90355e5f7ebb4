"""CLI subcommands via subprocess: output, exit codes and structured output."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flagcohom import SpaceDescriptor, build_space, catalog, cli, extension
from flagcohom.catalog import closed_form
from flagcohom.verify import CheckResult


def run_cli(*args, config=None, tmp_path=None):
    """Run the CLI of the imported package in a subprocess."""
    argv = [sys.executable, "-m", "flagcohom.cli", *args]
    if config is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run(argv, capture_output=True, text=True, env=env)


def test_present_complex_grassmannian():
    result = run_cli("present", "complex-grassmannian", "-k", "1", "-n", "3")
    assert result.returncode == 0
    assert "c1(2), cb1(2), cb2(4)" in result.stdout
    assert "c1 + cb1" in result.stdout
    assert "c1*cb1 + cb2" in result.stdout
    assert "c1*cb2" in result.stdout


def test_present_sphere_and_point():
    result = run_cli("present", "sphere", "-n", "2")
    assert result.returncode == 0
    assert "eb(4)" in result.stdout and "eb^2" in result.stdout
    result = run_cli("present", "point")
    assert result.returncode == 0
    assert "(none)" in result.stdout


def test_series_flag_manifold():
    result = run_cli("series", "complete-flag-complex", "-n", "3")
    assert result.returncode == 0
    assert "1, 0, 2, 0, 2, 0, 1" in result.stdout


def test_series_oriented_g2r5():
    result = run_cli("series", "oriented-grassmannian", "-k", "1", "-n", "2",
                     "--variant", "even-odd", "--cutoff", "8")
    assert result.returncode == 0
    assert "1, 0, 1, 0, 1, 0, 1, 0, 0" in result.stdout


def test_series_point():
    result = run_cli("series", "point")
    assert result.returncode == 0
    assert result.stdout.strip().endswith("1")


def test_mul_examples():
    result = run_cli("mul", "projective-space-complex", "c1*c1", "c1", "-n", "3")
    assert result.returncode == 0
    assert "= 0" in result.stdout
    result = run_cli("mul", "complex-grassmannian", "c1 + c2", "1", "-k", "2", "-n", "4")
    assert "= c1 + c2" in result.stdout
    # eb*eb equals -e^2 in the ring: same normal form
    a = run_cli("mul", "oriented-grassmannian", "eb", "eb", "-k", "1", "-n", "2",
                "--variant", "even-even")
    b = run_cli("mul", "oriented-grassmannian", "0 - e^2", "1", "-k", "1", "-n", "2",
                "--variant", "even-even")
    assert a.returncode == b.returncode == 0
    assert a.stdout.split("=")[1] == b.stdout.split("=")[1]


def test_basis_annotates_family():
    result = run_cli("basis", "complex-grassmannian", "-k", "2", "-n", "4", "--degree", "4")
    assert result.returncode == 0
    assert "c1^2" in result.stdout and "c2" in result.stdout
    assert "[family]" in result.stdout


def test_large_output_guard():
    result = run_cli("series", "complex-grassmannian", "-k", "2", "-n", "4", "--cutoff", "100")
    assert result.returncode == 2
    assert "force-large" in result.stderr
    result = run_cli(
        "series", "complex-grassmannian", "-k", "2", "-n", "4", "--cutoff", "100", "--force-large"
    )
    assert result.returncode == 0
    basis = ("basis", "complex-grassmannian", "-k", "2", "-n", "4", "--degree", "65")
    result = run_cli(*basis)
    assert result.returncode == 2
    assert "force-large" in result.stderr
    result = run_cli(*basis, "--cutoff", "65", "--force-large")
    assert result.returncode == 0
    assert "(0 monomials)" in result.stdout


def test_a_cutoff_past_the_limit_is_refused_before_anything_is_built(tmp_path, capsys):
    # a series visits every degree up to its cutoff, so one past MAX_CUTOFF
    # would not finish: it is refused at once, from the flag or from a
    # config, and --force-large lifts only the output cap
    path = tmp_path / "job.json"
    for cutoff in (10**20, cli.MAX_CUTOFF + 1):
        path.write_text(json.dumps({"space": {"family": "point"}, "cutoff": cutoff}))
        for argv in (
            ["series", "point", "--cutoff", str(cutoff), "--force-large"],
            ["series", "--config", str(path), "--force-large"],
        ):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
            captured = capsys.readouterr()
            assert code == 2, argv
            assert captured.err == f"config error: config.cutoff: {cutoff} exceeds the limit {cli.MAX_CUTOFF}\n"
            assert captured.out == ""
            assert elapsed < 1, argv
    assert cli.build_job({"space": {"family": "point"}}, cutoff=cli.MAX_CUTOFF).ring.cutoff == cli.MAX_CUTOFF


def test_basis_refuses_a_negative_degree(capsys):
    code = cli.main(["basis", "complex-grassmannian", "-k", "2", "-n", "4", "--degree", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "config error: --degree: must be a nonnegative integer\n"
    assert captured.out == ""


def test_series_refuses_a_degree_with_too_many_monomials(tmp_path, capsys):
    # 30 generators of degree 2 and no relations: 278256 monomials in degree 10
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"presentation": {"generators": [[f"x{i}", 2] for i in range(30)]}}))
    start = time.perf_counter()
    code = cli.main(["series", "--config", str(path), "--cutoff", "20", "--force-large"])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: degree 10 has 278256 monomials, more than the limit 100000\n"
    assert elapsed < 1


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    assert cli.main(["present", "point"]) == 0
    assert cli.main(["present", "sphere", "-n", "2"]) == 0
    assert len(built) == 1


# sha256 of the --help output of the top level and of each command, in the
# order of HELP_COMMANDS, at 100 columns; recorded before the ring commands
# took their shared arguments from one parent parser. It is the same on
# CPython 3.10 to 3.13 (at 80 columns 3.13 wraps one usage line elsewhere),
# and differs from its output at 102 columns
PINNED_HELP_DIGEST = "990ef962251aab57c213b7d17d8dd6b47547231bceab06e4e6f8a020c15d51b9"
HELP_COMMANDS = ([], ["present"], ["series"], ["basis"], ["mul"], ["tower"], ["pushout"], ["verify"])


def test_help_output_matches_pinned_digest_and_reads_the_terminal_size_once(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "100")
    sizes = []
    real = cli.shutil.get_terminal_size

    def counting(*args):
        sizes.append(1)
        return real(*args)

    monkeypatch.setattr(cli.shutil, "get_terminal_size", counting)
    parser = cli.build_parser()
    for argv in HELP_COMMANDS:
        with pytest.raises(SystemExit):
            parser.parse_args([*argv, "--help"])
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PINNED_HELP_DIGEST
    assert len(sizes) == 1


def test_bad_parameters_exit_2():
    result = run_cli("present", "complex-grassmannian", "-k", "5", "-n", "3")
    assert result.returncode == 2
    assert "config error" in result.stderr
    result = run_cli("present", "no-such-family")
    assert result.returncode == 2



def present_in_process(argv, config, tmp_path, capsys):
    """Exit code, seconds and output of `present` run through cli.main."""
    if config is not None:
        path = tmp_path / "job.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    start = time.perf_counter()
    code = cli.main(["present", *argv])
    return code, time.perf_counter() - start, capsys.readouterr()


FLAG_40 = {"bundle": {"base": {"space": {"family": "point"}}, "kind": "complex", "rank": 40,
                      "total_class": "1", "extension": "flag"}}


@pytest.mark.parametrize(
    "argv, config, error",
    [
        ([], {"space": {"family": "complex-grassmannian", "k": 2, "n": 100000}},
         "config.space: G_2(C^100000) is too large: n = 100000 must be at most 256"),
        (["complete-flag-complex", "-n", "30"], None, "top degree 870 must be at most 256"),
        ([], FLAG_40, "top degree 1560 must be at most 256"),
        ([], {"tower": {"stages": [{"extension": "complete-flag", "rank": 40}]}},
         "top degree 1560 must be at most 256"),
        (["complex-grassmannian", "-k", "2", "-n", "67"], None, "top degree 260 must be at most 256"),
        (["complete-flag-complex", "-n", "17"], None, "top degree 272 must be at most 256"),
    ],
    ids=["space-n", "space-top-degree", "bundle-fibre", "tower-stage", "G_2(C^67)", "Fl(C^17)"],
)
def test_oversized_spaces_fail_fast(argv, config, error, tmp_path, capsys):
    code, seconds, captured = present_in_process(argv, config, tmp_path, capsys)
    assert code == 2
    assert seconds < 1
    assert error in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [["complete-flag-complex", "-n", "12"], ["complex-grassmannian", "-k", "2", "-n", "20"],
     ["complex-grassmannian", "-k", "2", "-n", "66"]],
)
def test_spaces_within_the_size_limit_build(argv, tmp_path, capsys):
    code, _, captured = present_in_process(argv, None, tmp_path, capsys)
    assert code == 0
    assert captured.out.startswith("ring ")


def test_verify_exit_codes():
    result = run_cli("verify")
    assert result.returncode == 0
    passed, total = result.stdout.splitlines()[-1].split()[0].split("/")
    assert passed == total != "0"
    result = run_cli("verify", "odd-identity", "--max-n", "2")
    assert result.returncode == 0
    assert "PASS" in result.stdout
    result = run_cli("verify", "bogus-suite")
    assert result.returncode == 2


def test_config_bundle_job(tmp_path):
    config = {
        "cutoff": 8,
        "bundle": {
            "base": {"presentation": {"label": "CP^2", "generators": [["h", 2]],
                                      "relations": ["h^3"]}, "cutoff": 6},
            "kind": "complex",
            "rank": 2,
            "total_class": "1 + h",
            "extension": "projectivize",
        },
    }
    result = run_cli("present", config=config, tmp_path=tmp_path)
    assert result.returncode == 0
    assert "c1(2)" in result.stdout
    result = run_cli("series", config=config, tmp_path=tmp_path)
    assert result.returncode == 0
    assert "1, 0, 2, 0, 2, 0, 1, 0, 0" in result.stdout


def test_config_tower_job(tmp_path):
    config = {
        "tower": {
            "stages": [
                {"extension": "projectivize", "kind": "complex", "rank": 2, "total_class": "1"},
                {"extension": "projectivize", "kind": "complex", "rank": 2,
                 "total_class": "1 + 2*x1"},
            ]
        }
    }
    result = run_cli("tower", config=config, tmp_path=tmp_path)
    assert result.returncode == 0
    assert "x1(2), x2(2)" in result.stdout
    result = run_cli("series", config=config, tmp_path=tmp_path)
    assert "1, 0, 2, 0, 1" in result.stdout


def test_config_pushout_job(tmp_path):
    config = {
        "pushout": {
            "b0": {"presentation": {"generators": [["h", 2]], "relations": []}, "cutoff": 8},
            "b1": {"space": {"family": "point"}},
            "e0": {
                "bundle": {
                    "base": {"presentation": {"generators": [["h", 2]], "relations": []},
                             "cutoff": 8},
                    "kind": "complex",
                    "rank": 3,
                    "total_class": "1 + h",
                    "extension": "projectivize",
                }
            },
            "map_b1": {"h": "0"},
            "map_e0": {"h": "h"},
        }
    }
    result = run_cli("pushout", config=config, tmp_path=tmp_path)
    assert result.returncode == 0
    result = run_cli("series", "--cutoff", "6", config=config, tmp_path=tmp_path)
    assert "1, 0, 1, 0, 1, 0, 0" in result.stdout


def test_tower_command_requires_tower_config(tmp_path, capsys):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"space": {"family": "point"}}))
    for command in ("tower", "pushout"):
        assert cli.main([command, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: config: the {command} command needs a config with a '{command}' entry\n"
        )


def test_malformed_config_diagnostics(tmp_path):
    result = run_cli("present", config={"bundle": {"base": {"space": {"family": "point"}},
                                                   "kind": "complex"}},
                     tmp_path=tmp_path)
    assert result.returncode == 2
    assert "rank" in result.stderr
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    result = run_cli("present", "--config", str(path))
    assert result.returncode == 2
    assert "line" in result.stderr


def test_structured_output_is_parseable_json():
    result = run_cli("present", "complex-grassmannian", "-k", "1", "-n", "2",
                     "--format", "structured")
    doc = json.loads(result.stdout)
    assert doc["generators"] == [["c1", 2], ["cb1", 2]]
    assert doc["relations"] == [[[[1, 0], 1, 1], [[0, 1], 1, 1]], [[[1, 1], 1, 1]]]
    result = run_cli("series", "sphere", "-n", "2", "--format", "structured")
    doc = json.loads(result.stdout)
    assert doc["coefficients"] == [1, 0, 0, 0, 1, 0, 0, 0, 0]
    assert doc["closed_form"] == [{"coeff": 1, "shift": 0, "num": [8], "den": [4]}]


def test_structured_output_deterministic():
    runs = [
        run_cli("basis", "complex-grassmannian", "-k", "2", "-n", "4", "--degree", "6",
                "--format", "structured").stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    doc = json.loads(runs[0])
    assert [m["text"] for m in doc["basis"]] == ["c1*c2"]


def test_verify_rejects_negative_max_n(capsys):
    assert cli.main(["verify", "--max-n", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --max-n: must be a nonnegative integer\n"


def test_verify_refuses_a_max_n_that_cannot_complete(capsys):
    # --max-n 6 once ran about 25 s, printed no check and exited 2 on a
    # degree with more monomials than the limit
    start = time.perf_counter()
    assert cli.main(["verify", "--max-n", "6"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --max-n: must be at most 5, the largest that completes\n"


def test_verify_maps_failures_to_exit_1(monkeypatch, capsys):
    from flagcohom import verify

    doomed = CheckResult("doomed check", False, "why")
    monkeypatch.setattr(verify, "run_suites", lambda names, max_n: [doomed])
    assert cli.main(["verify", "catalog"]) == 1
    assert capsys.readouterr().out == "FAIL doomed check (why)\n0/1 checks passed\n"
    fine = CheckResult("fine check", True, "not shown")
    monkeypatch.setattr(verify, "run_suites", lambda names, max_n: [fine])
    assert cli.main(["verify", "catalog"]) == 0
    assert capsys.readouterr().out == "PASS fine check\n1/1 checks passed\n"


@pytest.mark.parametrize("kind", ["space", "presentation", "bundle", "tower", "pushout"])
@pytest.mark.parametrize("value", [5, None, ["generators"]], ids=["number", "null", "list"])
def test_config_sub_document_must_be_an_object(kind, value, tmp_path):
    result = run_cli("present", config={kind: value, "cutoff": 3}, tmp_path=tmp_path)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"config.{kind}: expected an object" in result.stderr


POINT = {"space": {"family": "point"}}


@pytest.mark.parametrize(
    "config, field",
    [
        ({"space": {"family": "complex-grassmannian", "k": True, "n": 3}}, "config.space.k"),
        ({"space": {"family": "complex-grassmannian", "k": 1, "n": True}}, "config.space.n"),
        ({"cutoff": True, "space": {"family": "point"}}, "config.cutoff"),
        (
            {"presentation": {"generators": [["x", True]]}, "cutoff": 3},
            "config.presentation.generators[0]",
        ),
        (
            {"tower": {"stages": [{"extension": "projectivize", "rank": True}]}},
            "config.tower.stages[0].rank",
        ),
        (
            {"bundle": {"base": POINT, "kind": "complex", "rank": True, "total_class": "1",
                        "extension": "projectivize"}},
            "config.bundle.rank",
        ),
        (
            {"bundle": {"base": POINT, "kind": "complex", "rank": 2, "total_class": "1",
                        "extension": "grassmannian", "k": True}},
            "config.bundle.k",
        ),
    ],
    ids=["space-k", "space-n", "cutoff", "generator-degree", "stage-rank", "bundle-rank", "bundle-k"],
)
def test_config_booleans_are_not_integers(config, field, tmp_path):
    result = run_cli("present", config=config, tmp_path=tmp_path)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"config error: {field}" in result.stderr


CP2 = {"space": {"family": "projective-space-complex", "n": 3}}
S4 = {"space": {"family": "sphere", "n": 2}}


def bundle_doc(base, kind, rank, total, extension, **extra):
    return {"bundle": {"base": base, "kind": kind, "rank": rank, "total_class": total,
                       "extension": extension, **extra}}


def stage_doc(extension, kind, rank, **extra):
    return {"tower": {"stages": [{"extension": extension, "kind": kind, "rank": rank, **extra}]}}


# config -> (closed form as (coeff, shift, num, den) terms, coefficients) of
# `series --format structured`; the closed form is the base's times the fibre's
FIBRE_SERIES = {
    "grassmannian-complex": (
        bundle_doc(CP2, "complex", 3, "1 + c1", "grassmannian", k=1, suffix="f"),
        [(1, 0, (6, 6), (2, 2))], [1, 0, 2, 0, 3, 0, 2, 0, 1, 0, 0],
    ),
    "grassmannian-real": (
        bundle_doc(S4, "real", 4, "1 + eb", "grassmannian", k=2),
        [(1, 0, (8, 8), (4, 4))], [1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0],
    ),
    "grassmannian-oriented-even-even": (
        bundle_doc(S4, "oriented", 4, "1 + eb", "grassmannian", k=2, euler_class="0", suffix="f"),
        [(1, 0, (8, 8), (4, 4)), (2, 2, (8,), (4,))], [1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0],
    ),
    "grassmannian-oriented-even-odd": (
        bundle_doc(S4, "oriented", 5, "1 + eb", "grassmannian", k=2),
        [(1, 0, (8, 8), (2, 4))], [1, 0, 1, 0, 2, 0, 2, 0, 1, 0, 1, 0, 0, 0, 0],
    ),
    "grassmannian-oriented-odd-odd": (
        bundle_doc(S4, "oriented", 5, "1 + eb", "grassmannian", k=3, suffix="f"),
        [(1, 0, (8, 8), (2, 4))], [1, 0, 1, 0, 2, 0, 2, 0, 1, 0, 1, 0, 0, 0, 0],
    ),
    "projectivize-complex": (
        bundle_doc(S4, "complex", 2, "1 + eb", "projectivize"),
        [(1, 0, (8,), (2,))], [1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0],
    ),
    "projectivize-real": (
        bundle_doc(S4, "real", 4, "1 + eb", "projectivize"),
        [(1, 0, (8, 8), (4, 4))], [1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0],
    ),
    "flag-complex": (
        bundle_doc(CP2, "complex", 3, "1 + c1", "flag"),
        [(1, 0, (4, 6, 6), (2, 2, 2))], [1, 0, 3, 0, 5, 0, 5, 0, 3, 0, 1, 0, 0],
    ),
    "flag-real": (
        bundle_doc(S4, "real", 4, "1 + eb", "flag"),
        [(1, 0, (8, 8), (4, 4))], [1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0],
    ),
    "flag-oriented": (
        bundle_doc(S4, "oriented", 4, "1 + eb", "flag", euler_class="0"),
        [(1, 0, (4, 8), (2, 2))], [1, 0, 2, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0],
    ),
    "sphere": (
        bundle_doc(CP2, "oriented", 3, "1 + c1^2", "sphere"),
        [(1, 0, (4, 6), (2, 2))], [1, 0, 2, 0, 2, 0, 1, 0, 0],
    ),
    "tower-projectivize-complex": (
        stage_doc("projectivize", "complex", 3),
        [(1, 0, (6,), (2,))], [1, 0, 1, 0, 1, 0, 0],
    ),
    "tower-projectivize-real": (
        stage_doc("projectivize", "real", 4),
        [(1, 0, (8,), (4,))], [1, 0, 0, 0, 1, 0, 0, 0, 0],
    ),
    "tower-grassmannianize-complex": (
        stage_doc("grassmannianize", "complex", 4, k=2),
        [(1, 0, (6, 8), (2, 4))], [1, 0, 1, 0, 2, 0, 1, 0, 1],
    ),
    "tower-grassmannianize-real": (
        stage_doc("grassmannianize", "real", 4, k=2),
        [(1, 0, (8,), (4,))], [1, 0, 0, 0, 1, 0, 0, 0, 0],
    ),
    "tower-grassmannianize-oriented": (
        stage_doc("grassmannianize", "oriented", 5, k=2),
        [(1, 0, (8,), (2,))], [1, 0, 1, 0, 1, 0, 1, 0, 0],
    ),
    "tower-complete-flag-complex": (
        stage_doc("complete-flag", "complex", 3),
        [(1, 0, (4, 6), (2, 2))], [1, 0, 2, 0, 2, 0, 1],
    ),
    "tower-complete-flag-oriented": (
        stage_doc("complete-flag", "oriented", 5),
        [(1, 0, (4, 8), (2, 2))], [1, 0, 2, 0, 2, 0, 2, 0, 1],
    ),
}


@pytest.mark.parametrize("name", list(FIBRE_SERIES))
def test_bundle_and_tower_closed_forms(name, tmp_path, capsys):
    config, closed_form, coefficients = FIBRE_SERIES[name]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(config))
    assert cli.main(["series", "--config", str(path), "--format", "structured"]) == 0
    doc = json.loads(capsys.readouterr().out)
    terms = [(t["coeff"], t["shift"], tuple(t["num"]), tuple(t["den"])) for t in doc["closed_form"]]
    assert terms == closed_form
    assert doc["coefficients"] == coefficients


def test_rank_5_complex_flag_bundle_over_cp2(tmp_path, capsys):
    # Fl(C^5) over CP^2, 3 x 120 cells: reducing every relation multiple of
    # each degree, this job ran for minutes
    path = tmp_path / "job.json"
    path.write_text(json.dumps(bundle_doc(CP2, "complex", 5, "1 + 2*c1 + c1^2", "flag")))
    assert cli.main(["series", "--config", str(path), "--format", "structured"]) == 0
    coefficients = json.loads(capsys.readouterr().out)["coefficients"]
    top = len(coefficients) - 1
    base = closed_form(SpaceDescriptor("projective-space-complex", 0, 3)).truncate(top)
    fibre = closed_form(SpaceDescriptor("complete-flag-complex", 0, 5)).truncate(top)
    assert coefficients == list(base.convolve(fibre).coefficients)
    assert sum(coefficients) == 360


@pytest.mark.parametrize(
    "extension, kind, rank, total, generators",
    [("projectivize", "complex", 2, "1 + c1", "c1(2), c1f(2)"),
     ("sphere", "oriented", 3, "1 + c1^2", "c1(2), ebf(2)")],
    ids=["projectivize", "sphere"],
)
def test_suffix_names_the_projectivize_and_sphere_generator(
    extension, kind, rank, total, generators, tmp_path, capsys
):
    config = bundle_doc(CP2, kind, rank, total, extension, suffix="f")
    code, _, captured = present_in_process([], config, tmp_path, capsys)
    assert code == 0
    assert f"generators: {generators}\n" in captured.out


def test_a_job_derives_each_fibre_and_closed_form_once(monkeypatch):
    # catalog.check_size derives the closed form of each catalog space and of
    # each stage's fibre, once, and the presentation carries it to the CLI
    fibres, closed_forms = [], []
    derive, state = extension.fibre, catalog.closed_form
    monkeypatch.setattr(extension, "fibre", lambda *args: fibres.append(args) or derive(*args))
    monkeypatch.setattr(catalog, "closed_form", lambda space: closed_forms.append(space) or state(space))
    inline = {"presentation": {"generators": [["h", 2]], "relations": ["h^3"]}, "cutoff": 6}
    two_stages = {"tower": {"stages": [
        {"extension": "projectivize", "kind": "complex", "rank": 2, "total_class": "1"},
        {"extension": "projectivize", "kind": "complex", "rank": 2, "total_class": "1 + 2*x1"}]}}
    for config, counts in (({"space": {"family": "complex-grassmannian", "k": 2, "n": 4}}, (0, 1)),
                           (bundle_doc(CP2, "complex", 2, "1 + c1", "projectivize", suffix="f"), (1, 2)),
                           (bundle_doc(inline, "complex", 2, "1 + h", "projectivize"), (1, 1)),
                           (two_stages, (2, 3))):
        fibres.clear()
        closed_forms.clear()
        cli.build_job(config)
        assert (len(fibres), len(closed_forms)) == counts


@pytest.mark.parametrize(
    "argv, config, error",
    [
        ([], {"presentation": {"generators": [["x y", 2]]}, "cutoff": 3},
         "config.presentation: bad generator name 'x y'"),
        ([], bundle_doc(POINT, "oriented", 1, "1", "sphere"),
         "config.bundle: the sphere extension needs rank at least 3, got rank 1"),
        (["projective-space-real", "-k", "3", "-n", "2"], None,
         "config.space: projective-space-real: takes no k, got k=3"),
        (["point", "-n", "5"], None, "config.space: point: takes no n, got n=5"),
        ([], {"tower": {"stages": [{"extension": "complete-flag", "rank": 2, "k": 5}]}},
         "config.tower.stages[0].k: the complete-flag extension takes no k"),
        ([], stage_doc("projectivize", "complex", 2, k=1),
         "config.tower.stages[0].k: the projectivize extension takes no k"),
        ([], {"space": {"family": "point"}, "cutof": 3}, "config.cutof: unknown field"),
        ([], {"space": {"family": "complex-grassmannian", "K": 2, "n": 4}}, "config.space.K: unknown field"),
        ([], {"presentation": {"generators": [["x", 2]], "relation": ["x^2"]}, "cutoff": 4},
         "config.presentation.relation: unknown field"),
        ([], bundle_doc(POINT, "complex", 2, "1", "projectivize", rnak=3), "config.bundle.rnak: unknown field"),
        ([], {"tower": {"stages": [], "bsae": POINT}}, "config.tower.bsae: unknown field"),
        ([], stage_doc("projectivize", "complex", 2, total="1"), "config.tower.stages[0].total: unknown field"),
        ([], {"pushout": {"b0": POINT, "b1": POINT, "e0": POINT, "map_b2": {}}},
         "config.pushout.map_b2: unknown field"),
        ([], {"tower": {"stages": [], "base": {"space": {"family": "point", "m": 1}}}},
         "config.tower.base.space.m: unknown field"),
    ],
    ids=["generator-name", "sphere-rank-1", "unread-k", "unread-n", "complete-flag-stage-k", "projectivize-stage-k",
         "unknown-top", "unknown-space", "unknown-presentation", "unknown-bundle", "unknown-tower",
         "unknown-stage", "unknown-pushout", "unknown-nested-space"],
)
def test_config_errors_name_the_sub_document(argv, config, error, tmp_path, capsys):
    code, _, captured = present_in_process(argv, config, tmp_path, capsys)
    assert code == 2
    assert captured.err == f"config error: {error}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "extension, extra, error",
    [("flag", {"k": 7}, "config.bundle.k: the flag extension takes no k"),
     ("projectivize", {"k": 2}, "config.bundle.k: the projectivize extension takes no k"),
     ("grassmannian", {"k": 1, "full": "yes"}, "config.bundle.full: the grassmannian extension takes no full")],
    ids=["flag-k", "projectivize-k", "grassmannian-full"],
)
def test_bundle_rejects_fields_its_extension_does_not_read(extension, extra, error, tmp_path, capsys):
    config = bundle_doc(POINT, "complex", 3, "1", extension, **extra)
    code, _, captured = present_in_process([], config, tmp_path, capsys)
    assert code == 2
    assert captured.err == f"config error: {error}\n"
    assert captured.out == ""


@pytest.mark.parametrize("depth", [500, 50_000])
def test_deeply_nested_config_exits_2(depth, tmp_path):
    # written as text: json.dumps itself recurses once per level
    bundle = '{"bundle": {"kind": "complex", "rank": 1, "total_class": "1", "extension": "projectivize", "base": '
    path = tmp_path / "deep.json"
    path.write_text(bundle * depth + json.dumps(POINT) + "}}" * depth)
    result = run_cli("present", "--config", str(path))
    assert result.returncode == 2
    assert result.stderr == f"config error: {path}: nested too deeply\n"
    assert result.stdout == ""


def test_a_presentation_with_more_generators_than_the_recursion_limit(tmp_path):
    # enumerating monomials once recursed per generator and ended here in a
    # RecursionError traceback and exit 1
    generators = [[f"x{i}", 2] for i in range(1200)]
    result = run_cli("series", "--format", "structured", tmp_path=tmp_path,
                     config={"presentation": {"generators": generators}, "cutoff": 2})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["coefficients"] == [1, 0, 1200]


H_RING = {"presentation": {"generators": [["h", 2]]}, "cutoff": 4}


def six_generators_doc(relation):
    return {"presentation": {"generators": [[g, 2] for g in "abcdef"], "relations": [relation]}, "cutoff": 4}


def pushout_doc(image):
    return {"pushout": {"b0": H_RING, "b1": POINT, "e0": H_RING, "map_b1": {"h": image}, "map_e0": {"h": "h"}}}


@pytest.mark.parametrize(
    "config, error",
    [({"presentation": {"generators": [["x", 2]], "relations": ["x/0"]}, "cutoff": 2},
      "config.presentation.relations[0][0]: division by zero at position 2"),
     ({"presentation": {"generators": [["x", 2]], "relations": ["(" * 1000 + "x" + ")" * 1000]}, "cutoff": 2},
      "config.presentation.relations[0][0]: nesting deeper than 100 at position 100"),
     ({"presentation": {"generators": [["x", 2]], "relations": ["x + " + "9" * 5000 + "*x"]}, "cutoff": 2},
      "config.presentation.relations[0][0]: integer literal longer than 4300 digits at position 4"),
     (pushout_doc([1]), "config.pushout.map_b1.h: expected an expression string or an integer"),
     (pushout_doc(None), "config.pushout.map_b1.h: expected an expression string or an integer"),
     (six_generators_doc("(a+b+c+d+e+f)^256"),
      "config.presentation.relations[0][0]: expansion multiplies more than 200000 pairs of terms at position 13"),
     (six_generators_doc("(a+b+c+d+e+f)^10*(a+b+c+d+e+f)^10"),
      "config.presentation.relations[0][0]: expansion multiplies more than 200000 pairs of terms at position 16")],
    ids=["divide-by-zero", "deep-nesting", "literal-5000-digits", "map-list", "map-null", "power-of-a-sum",
         "product-of-powers"],
)
def test_malformed_input_exits_2_without_a_traceback(config, error, tmp_path, capsys):
    code, _, captured = present_in_process([], config, tmp_path, capsys)
    assert code == 2
    assert captured.err.startswith(f"config error: {error}")
    assert captured.out == ""


SUM_POWER = "(a+b+c+d+e+f)^12"  # 74,256 pairs of terms


def six_generators_doc_with(copies):
    doc = six_generators_doc(SUM_POWER)
    doc["presentation"]["relations"] = [SUM_POWER] * copies
    return doc


@pytest.mark.parametrize(
    "config, error",
    [(six_generators_doc_with(30), "config.presentation.relations[2][0]"),
     ({"bundle": {"base": six_generators_doc_with(2), "kind": "complex", "rank": 1, "total_class": SUM_POWER,
                  "extension": "projectivize"}},
      "config.bundle.total_class[0]")],
    ids=["thirty-relations", "base-and-total-class"],
)
def test_the_expressions_of_one_job_share_one_term_product_count(config, error, tmp_path, capsys):
    # each expression is under MAX_TERM_PRODUCTS; the third of the job
    # crosses it, whichever sub-document it lies in
    code, seconds, captured = present_in_process([], config, tmp_path, capsys)
    assert code == 2
    assert captured.err == f"config error: {error}: expansion multiplies more than 200000 pairs of terms " \
                           f"at position 13: {SUM_POWER!r}\n"
    assert seconds < 1


def test_two_large_expressions_fit_one_job(tmp_path, capsys):
    code, _, captured = present_in_process([], six_generators_doc_with(2), tmp_path, capsys)  # 148,512 pairs
    assert code == 0, captured.err


def test_malformed_input_message_quotes_a_window_of_long_input(tmp_path, capsys):
    relation = "(" * 1000 + "x" + ")" * 1000
    config = {"presentation": {"generators": [["x", 2]], "relations": [relation]}, "cutoff": 2}
    code, _, captured = present_in_process([], config, tmp_path, capsys)
    assert code == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 200
    assert "at position 100: ..." in lines[0]


ORIENTED_FLAG = {"base": POINT, "kind": "oriented", "rank": 4, "total_class": "1",
                 "euler_class": "0", "extension": "flag"}


@pytest.mark.parametrize(
    "full, generators",
    [(True, "e1(2), e2(2), u1(4), u2(4)"), (False, "e1(2), e2(2)"), (None, "e1(2), e2(2)")],
)
def test_flag_full_reads_a_json_boolean(full, generators, tmp_path, capsys):
    extra = {} if full is None else {"full": full}
    code, _, captured = present_in_process([], {"bundle": {**ORIENTED_FLAG, **extra}}, tmp_path, capsys)
    assert code == 0
    assert f"generators: {generators}\n" in captured.out


@pytest.mark.parametrize("full", ["false", 1])
def test_flag_full_must_be_a_json_boolean(full, tmp_path, capsys):
    config = {"bundle": {**ORIENTED_FLAG, "full": full}}
    code, _, captured = present_in_process([], config, tmp_path, capsys)
    assert code == 2
    assert captured.err.startswith("config error: config.bundle.full: expected bool")
    assert captured.out == ""


# a value of the wrong type for any field, a bool where an int belongs, or
# a negative number
JUNK = st.sampled_from([True, False, None, "2", 2.5, [], {}, -1])
SOMETIMES = st.sampled_from([False, False, False, True])
INDICES = st.integers(0, 10**6)
# total classes, relations and images: valid over a point or over a base
# with the generator named, naming a generator the base may lack, or
# malformed; an element may also be a list of component strings
EXPRESSIONS = st.sampled_from(
    ["1", "1", "1", "0", "1 + h", "1 + c1", "1 + 2*x1", "h^2", "1 + h/2", ["1"], ["1", "h"],
     "(1 + h", "x $ 1", "h/0", "h^300", "h/h", "", "(h + c1)^3"]
)


@st.composite
def config_object(draw, required, optional):
    """Every required field, and each optional one a quarter of the time."""
    doc = {key: draw(value) for key, value in required.items()}
    doc.update({key: draw(value) for key, value in optional.items() if draw(SOMETIMES)})
    return doc


def job_docs(depth):
    """A job config of any top-level kind whose fields have the right types;
    bases nest `depth` levels deep. Ranks are at most 5, k may exceed the
    rank, and names may be unknown."""
    ranks, k = st.sampled_from([1, 2, 3, 4, 5, 0]), st.integers(-1, 6)
    kind = st.sampled_from(["complex", "real", "oriented", "quaternionic"])
    bodies = [
        st.tuples(st.just("space"), config_object(
            {"family": st.sampled_from(catalog.FAMILIES + ("lens-space",))},
            {"k": k, "n": ranks, "variant": st.sampled_from(catalog.VARIANTS + ("even", "odd", "sideways"))},
        )),
        st.tuples(st.just("presentation"), config_object(
            {"generators": st.lists(
                st.tuples(st.sampled_from(["h", "c1", "x1", "u1", "x y"]), st.integers(0, 4)), max_size=3
            )},
            {"relations": st.lists(EXPRESSIONS, max_size=2), "label": st.just("X")},
        )),
    ]
    if depth:
        base = job_docs(depth - 1)
        stage = config_object(
            {"extension": st.sampled_from([*extension.TOWER_EXTENSIONS, "flag"]), "rank": ranks},
            {"kind": kind, "total_class": EXPRESSIONS, "euler_class": EXPRESSIONS, "k": k},
        )
        image_maps = st.dictionaries(
            st.sampled_from(["h", "c1", "x1"]), st.one_of(EXPRESSIONS, st.integers(-1, 1)), max_size=2
        )
        bodies += [
            st.tuples(st.just("bundle"), config_object(
                {"base": base, "kind": kind, "rank": ranks, "total_class": EXPRESSIONS,
                 "extension": st.sampled_from(("projectivize", *extension.BUNDLE_EXTENSIONS, "blow-up"))},
                {"euler_class": EXPRESSIONS, "suffix": st.just("f"), "k": k, "full": st.booleans()},
            )),
            st.tuples(st.just("tower"), config_object({"stages": st.lists(stage, max_size=2)}, {"base": base})),
            st.tuples(st.just("pushout"), config_object(
                {"b0": base, "b1": base, "e0": base}, {"map_b1": image_maps, "map_e0": image_maps}
            )),
        ]

    def job(kind_and_body, cutoff):
        kind, body = kind_and_body
        return {kind: body} if cutoff is None else {kind: body, "cutoff": cutoff}

    return st.builds(job, st.one_of(bodies), st.one_of(st.none(), st.integers(0, 12)))


def config_objects(doc):
    """Every JSON object in a config, outermost first."""
    if isinstance(doc, dict):
        yield doc
        doc = list(doc.values())
    if isinstance(doc, list):
        for value in doc:
            yield from config_objects(value)


JOB_DOCS = job_docs(2)
FAULTS = st.sampled_from([None, None, None, None, "junk", "drop", "unknown", "not-an-object"])


@st.composite
def configs(draw):
    """A generated job config, and in half the draws one fault: a value
    replaced by JUNK, a field removed, a key no config object reads, or a
    config that is not an object."""
    doc = json.loads(json.dumps(draw(JOB_DOCS)))
    fault = draw(FAULTS)
    if fault == "not-an-object":
        return draw(JUNK)
    if fault is not None:
        objects = list(config_objects(doc))
        obj = objects[draw(INDICES) % len(objects)]
        keys = sorted(obj)
        if fault == "unknown" or not keys:
            obj["colour"] = 1
        elif fault == "drop":
            del obj[keys[draw(INDICES) % len(keys)]]
        else:
            obj[keys[draw(INDICES) % len(keys)]] = draw(JUNK)
    return doc


def test_generated_configs_exit_cleanly(tmp_path, capsys):
    # `series` asks at most degree 12 of the ring, whatever cutoff the
    # config gives it
    path = tmp_path / "job.json"
    codes = []

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.sampled_from([["present"], ["series", "--cutoff", "12"]]), configs())
    def run(command, doc):
        path.write_text(json.dumps(doc))
        code = cli.main([*command, "--config", str(path)])
        captured = capsys.readouterr()
        assert code in (0, 1, 2)
        if code == 2:
            assert captured.out == ""
            assert captured.err.startswith(("config error: ", "error: "))
        codes.append(code)

    run()
    assert len(codes) >= 500
    assert 0 in codes and 2 in codes


def _bundle_classes(base, kind, rank):
    """A total class (and Euler class) valid for the bundle, nontrivial over CP^2."""
    if base is POINT:
        total = "1"
    elif kind == "complex":
        total = "1 + c1" if rank == 1 else "1 + 2*c1 + c1^2"
    else:
        total = "1" if rank == 1 else "1 + c1^2"
    euler = None
    if kind == "oriented" and rank % 2 == 0:
        euler = "0" if base is POINT else f"c1^{rank // 2}"
    return {"total_class": total} if euler is None else {"total_class": total, "euler_class": euler}


def cli_grid() -> list:
    """Bundle and tower configs over the point and CP^2: complex, real and
    oriented bundles of ranks 1-5, every extension and stage name (rejected
    ones too), every k with one out of range on each side, and `full` unset,
    off and on; then a zero rank and an unknown kind for every name, and
    two-stage towers. Left out: suffixes on projectivize and sphere, and
    the sphere bundle of an oriented line bundle. Complex flags of rank 4
    and 5 get a cutoff of 10, since their series to the default cutoff take
    seconds or, over CP^2 at rank 5, minutes."""
    configs = []
    for base in (POINT, CP2):
        for kind in ("complex", "real", "oriented"):
            for rank in range(1, 6):
                classes = _bundle_classes(base, kind, rank)

                def add(doc, extension):
                    if extension in ("flag", "complete-flag") and kind == "complex" and rank >= 4:
                        doc["cutoff"] = 10
                    configs.append(doc)

                def bundle(extension, **extra):
                    add({"bundle": {"base": base, "kind": kind, "rank": rank, **classes,
                                    "extension": extension, **extra}}, extension)

                for suffix in ({}, {"suffix": "f"}):
                    for k in range(-1, rank + 2):
                        bundle("grassmannian", k=k, **suffix)
                    for k in range(-1, rank // 2 + 1):
                        bundle("odd-grassmannian", k=k, **suffix)
                    for full in ({}, {"full": False}, {"full": True}):
                        bundle("flag", **full, **suffix)
                bundle("projectivize")
                if not (kind == "oriented" and rank == 1):
                    bundle("sphere")
                bundle("grassmannianize", k=1)
                bundle("complete-flag")

                def tower(extension, **extra):
                    stage = {"extension": extension, "kind": kind, "rank": rank, **classes, **extra}
                    doc = {"stages": [stage]}
                    add({"tower": doc if base is POINT else {"base": base, **doc}}, extension)

                for k in range(-1, rank + 2):
                    tower("grassmannianize", k=k)
                for extension in ("grassmannianize", "projectivize", "complete-flag", "flag", "sphere"):
                    tower(extension)
    for kind, rank in (("complex", 0), ("bogus", 2)):
        for extension in ("grassmannian", "projectivize", "sphere", "flag", "odd-grassmannian"):
            configs.append({"bundle": {"base": POINT, "kind": kind, "rank": rank, "total_class": "1",
                                       "extension": extension, "k": 1}})
        for extension in ("grassmannianize", "projectivize", "complete-flag"):
            configs.append({"tower": {"stages": [{"extension": extension, "kind": kind, "rank": rank, "k": 1}]}})
    two = {"extension": "projectivize", "kind": "complex", "rank": 2}
    for second in ("grassmannianize", "complete-flag", "flag"):
        stage = {"extension": second, "kind": "complex", "rank": 3, "total_class": "1 + x1", "k": 1}
        configs.append({"tower": {"stages": [two, stage]}})
    return configs


# sha256 of the `present` and `series` runs of cli_grid() as JSON, recorded
# while the CLI still chose each fibre and constructor itself; re-recorded
# when tower stages began to refuse a k that their extension does not read,
# which changed the runs of the five configs with such a stage; and again
# for the labels of real Grassmannian bundles of odd rank and the sphere
# messages (72 label and 48 message runs changed, nothing else); and again
# when presentations began to carry their closed forms, so an odd-Grassmannian
# bundle with k = 0 or k = n, which is its base ring, prints the base's
# closed form (24 series runs gained that line, nothing else)
PINNED_CLI_DIGEST = "4b172be1f407a202131083df5e0fad65b218c05912a02bb6131d07d64ca2371b"


def test_bundle_and_tower_jobs_match_pinned_digest(tmp_path, capsys):
    path = tmp_path / "job.json"
    runs = []
    for config in cli_grid():
        path.write_text(json.dumps(config))
        for command in ("present", "series"):
            code = cli.main([command, "--config", str(path)])
            captured = capsys.readouterr()
            runs.append([command, config, code, captured.out, captured.err])
    text = json.dumps(runs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CLI_DIGEST


def mul_grid() -> list:
    """`mul` argument lists over every ring of _catalog_descriptors(3): the
    first generator times the last at the default cutoff, then, to cutoff
    40 so that degrees past the top are asked, a sum with fractional
    coefficients times another and a difference of products times a sum
    with a fractional constant; the first in text only, the others in text
    and structured form. Rings with no generator multiply fractions."""
    from flagcohom.verify import _catalog_descriptors

    grid = []
    for desc in dict.fromkeys(_catalog_descriptors(3)):
        names = build_space(desc)[0].generators.names
        options = [] if desc.family == "point" else ["-k", str(desc.k), "-n", str(desc.n)]
        if desc.variant:
            options += ["--variant", desc.variant]
        if names:
            g, h = names[0], names[-1]
            grid.append(["mul", desc.family, g, h, *options])
            products = [
                (f"1/2*{g} - 2/3*{h} + 3", f"{g} + 5/4*{h}^2", "--cutoff", "40"),
                (f"{g}*{h} - 1/3*{g}^2", f"7/2 - {h}", "--cutoff", "40"),
            ]
        else:
            products = [("1/2 + 3", "2/3")]
        for a, b, *extra in products:
            grid.append(["mul", desc.family, a, b, *options, *extra])
            grid.append(["mul", desc.family, a, b, *options, *extra, "--format", "structured"])
    return grid


# sha256 of the `mul` runs of mul_grid() as JSON, recorded while normal
# forms still accumulated in dicts keyed by exponent vectors
PINNED_MUL_DIGEST = "e3a3f7fc3f2c9560998e1d737fb675039d3d1800ca551409bc5d2418a1a327d6"


def test_mul_outputs_match_pinned_digest(capsys):
    runs = []
    for argv in mul_grid():
        code = cli.main(argv)
        captured = capsys.readouterr()
        runs.append([argv, code, captured.out, captured.err])
    assert len(runs) == 5 * 91 + 2 * 2
    text = json.dumps(runs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_MUL_DIGEST
