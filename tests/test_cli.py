import json

import pytest
from click.testing import CliRunner

from cosetlab.cli import main, parse_element, parse_group
from cosetlab.groups import DihedralElement


def run(args, stdin=None):
    return CliRunner().invoke(main, args, input=stdin, catch_exceptions=False)


def payload(result):
    return json.loads(result.output)


def test_group_shorthands():
    assert parse_group("s4").order() == 24
    assert parse_group("z12").order() == 12
    assert parse_group("d12").order() == 24
    assert parse_group("wr:z4:2").order() == 32


def test_element_parsing():
    d12 = parse_group("d12")
    assert parse_element("r5s", d12) == DihedralElement(12, 5, 1)
    assert parse_element("r3", d12) == DihedralElement(12, 3, 0)
    z4 = parse_group("z4")
    assert parse_element("3", z4).value == 3


def test_plant_hsp_reports_labels():
    result = run(["plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"])
    assert result.exit_code == 0
    report = payload(result)
    assert report["outputs"]["distinct_labels"] == 3
    assert report["outputs"]["instance"]["problem"] == "hsp"
    assert report["instance_digest"]


def test_plant_reduce_solve_pipeline():
    planted = payload(run(["plant", "coset", "--group", "z4",
                           "--subgroup", "2", "--shift", "1"]))
    instance = planted["outputs"]["instance"]

    reduced = run(["reduce"], stdin=json.dumps(instance))
    assert reduced.exit_code == 0
    rep = payload(reduced)
    assert rep["outputs"]["provenance"] == "hidden-coset-to-hsp"

    solved = run(["solve"], stdin=json.dumps(rep["outputs"]["instance"]))
    assert solved.exit_code == 0
    gens = payload(solved)["outputs"]["subgroup_generators"]
    assert gens, "reduced instance has a nontrivial hidden subgroup"


def test_search_via_decision_with_querylog():
    planted = payload(run(["plant", "hsp", "--group", "s3",
                           "--subgroup", "(1 2 3)"]))
    result = run(["search-via-decision", "--emit-querylog"],
                 stdin=json.dumps(planted["outputs"]["instance"]))
    assert result.exit_code == 0
    rep = payload(result)
    assert rep["outputs"]["found"]["kind"] == "perm"
    assert rep["counters"]["decision_queries"] == len(rep["outputs"]["querylog"])


def test_search_via_decision_dihedral():
    planted = payload(run(["plant", "hsp", "--group", "d12",
                           "--subgroup", "r5s"]))
    result = run(["search-via-decision", "--smooth-bound", "5"],
                 stdin=json.dumps(planted["outputs"]["instance"]))
    assert result.exit_code == 0
    rep = payload(result)
    assert rep["outputs"]["shift_exponent"] == 5
    assert rep["counters"]["decision_queries"] == 7


def test_search_via_decision_hidden_shift():
    planted = payload(run(["plant", "coset", "--group", "s3",
                           "--subgroup", "", "--shift", "(1 2 3)"]))
    result = run(["search-via-decision"],
                 stdin=json.dumps(planted["outputs"]["instance"]))
    assert result.exit_code == 0
    rep = payload(result)
    assert rep["outputs"]["shift"]["images"] == [2, 3, 1]


def test_check_buggy_program_counts():
    planted = payload(run(["plant", "hsp", "--group", "s3",
                           "--subgroup", "(1 2)"]))
    instance = planted["outputs"]["instance"]
    result = run(["--seed", "1", "check", "--program", "buggy:always-trivial",
                  "--k", "4", "--runs", "6"], stdin=json.dumps(instance))
    assert result.exit_code == 0
    rep = payload(result)
    assert rep["outputs"]["verdict_counts"] == {"CORRECT": 0, "BUGGY": 6}
    assert len(rep["outputs"]["runs"]) == 6


def test_check_search_flavor():
    planted = payload(run(["plant", "hsp", "--group", "s3",
                           "--subgroup", "(1 2)"]))
    result = run(["check", "--flavor", "search", "--k", "3"],
                 stdin=json.dumps(planted["outputs"]["instance"]))
    assert result.exit_code == 0
    assert payload(result)["outputs"]["verdict"] == "CORRECT"


def test_ghsh_plant_and_solve():
    planted = payload(run(["plant", "ghsh", "--group", "z5", "--shift", "2",
                           "--copies", "3"]))
    result = run(["solve"], stdin=json.dumps(planted["outputs"]["instance"]))
    assert result.exit_code == 0
    assert payload(result)["outputs"]["shift"]["value"] == 2


def test_orbit_coset_plant_and_solve():
    planted = payload(run(["plant", "orbit-coset", "--action", "cyclic:4",
                           "--phi1", "0", "--shift", "2"]))
    result = run(["solve"], stdin=json.dumps(planted["outputs"]["instance"]))
    rep = payload(result)
    assert rep["outputs"]["disjoint"] is False
    assert rep["outputs"]["shift"]["value"] == 2

    disjoint = payload(run(["plant", "orbit-coset", "--action", "two-orbit:4:4:2",
                            "--phi1", "0", "--shift", "none"]))
    result2 = run(["solve"], stdin=json.dumps(disjoint["outputs"]["instance"]))
    assert payload(result2)["outputs"]["disjoint"] is True


def test_deterministic_output_given_seed():
    planted = payload(run(["plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"]))
    instance = json.dumps(planted["outputs"]["instance"])
    first = payload(run(["--seed", "9", "check", "--k", "3"], stdin=instance))
    second = payload(run(["--seed", "9", "check", "--k", "3"], stdin=instance))
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert first == second

    # A flipping program draws from one seeded stream in call order, so its
    # transcript repeats too; pinned to the serial output of earlier releases.
    trivial = json.dumps(payload(run(["plant", "hsp", "--group", "s3"]))
                         ["outputs"]["instance"])
    args = ["--seed", "9", "check", "--program", "buggy:flip:0.3", "--k", "3",
            "--runs", "2"]
    first = payload(run(args, stdin=trivial))
    second = payload(run(args, stdin=trivial))
    first.pop("elapsed_s")
    second.pop("elapsed_s")
    assert first == second
    assert [[(t["ok"], t["detail"]) for t in r["per_trial"]]
            for r in first["outputs"]["runs"]] == [
        [(False, "level 5 point 5: 0 accepted images"),
         (False, "level 5 point 5: 2 accepted images"),
         (False, "level 5 point 5: 2 accepted images")],
        [(False, "level 5 point 5: 0 accepted images"),
         (False, "level 4 point 4: 0 accepted images"),
         (False, "level 5 point 6: 0 accepted images")]]


def test_jobs_option_is_rejected():
    planted = payload(run(["plant", "hsp", "--group", "s3"]))
    result = CliRunner().invoke(main, ["--jobs", "2", "check"],
                                input=json.dumps(planted["outputs"]["instance"]))
    assert result.exit_code == 2


def test_search_with_buggy_oracle_fails_loudly():
    planted = payload(run(["plant", "hsp", "--group", "d12", "--subgroup", "r5s"]))
    instance = json.dumps(planted["outputs"]["instance"])
    result = CliRunner().invoke(
        main, ["search-via-decision", "--oracle", "buggy:always-trivial",
               "--smooth-bound", "5"], input=instance)
    assert result.exit_code == 1

    planted2 = payload(run(["plant", "hsp", "--group", "s3", "--subgroup", ""]))
    result2 = CliRunner().invoke(
        main, ["search-via-decision", "--oracle", "buggy:always-nontrivial"],
        input=json.dumps(planted2["outputs"]["instance"]))
    assert result2.exit_code == 1


def test_malformed_json_exits_2():
    result = CliRunner().invoke(main, ["solve"], input="{nope")
    assert result.exit_code == 2
    json_lines = [l for l in result.output.splitlines() if l.startswith("{")]
    assert json_lines and "error" in json.loads(json_lines[0])

    result2 = CliRunner().invoke(main, ["plant", "hsp", "--group", "q9"])
    assert result2.exit_code == 2


def test_promise_violation_exits_2():
    # claims the full group as hidden subgroup but labels injectively
    bogus = {"problem": "hsp",
             "group": {"degree": 3, "generators": [[2, 1, 3]]},
             "side": "left",
             "planted": {"subgroup": [{"kind": "perm", "images": [2, 1, 3]}]}}
    bogus["planted"]["subgroup"] = [{"kind": "perm", "images": [9, 9, 9]}]
    result = CliRunner().invoke(main, ["solve"], input=json.dumps(bogus))
    assert result.exit_code == 2


def test_selftest_runs_clean():
    result = run(["selftest", "--suite", "checkers", "--max-degree", "3"])
    assert result.exit_code == 0
    rep = payload(result)
    assert rep["counters"]["total_failures"] == 0
    names = {p["name"] for s in rep["outputs"]["suites"] for p in s["properties"]}
    assert "decision-checker-completeness" in names


def _error_exit(args, stdin):
    result = CliRunner().invoke(main, args, input=stdin)
    json_lines = [l for l in result.output.splitlines() if l.startswith("{")]
    return result.exit_code, json.loads(json_lines[0]) if json_lines else None


def test_check_rejects_zero_runs():
    planted = payload(run(["plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"]))
    code, error = _error_exit(["check", "--runs", "0"],
                              json.dumps(planted["outputs"]["instance"]))
    assert code == 2
    assert "runs" in error["error"]


def test_check_rejects_zero_k():
    planted = payload(run(["plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"]))
    code, error = _error_exit(["check", "--k", "0"],
                              json.dumps(planted["outputs"]["instance"]))
    assert code == 2
    assert "--k" in error["error"]


@pytest.mark.parametrize("spec", ["buggy:flip:abc", "buggy:wrong-if-order-gt:x",
                                  "buggy:flip:-1", "buggy:wrong-if-order-gt:3:100"])
def test_check_rejects_bad_program_spec(spec):
    planted = payload(run(["plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"]))
    code, error = _error_exit(["check", "--program", spec],
                              json.dumps(planted["outputs"]["instance"]))
    assert code == 2
    assert spec in error["error"]
