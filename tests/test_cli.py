import contextlib
import io
import json
import sys

import pytest
from click.testing import CliRunner

from cosetlab import instances
from cosetlab.cli import main, parse_element, parse_elements, parse_group
from cosetlab.groups import (DEFAULT_CAP, DihedralElement, FiniteGroup,
                             element_from_json, group_op)


def run(args, stdin=None):
    return CliRunner().invoke(main, args, input=stdin, catch_exceptions=False)


def payload(result):
    return json.loads(result.output)


def test_group_shorthands():
    assert parse_group("s4", DEFAULT_CAP).order() == 24
    assert parse_group("z12", DEFAULT_CAP).order() == 12
    assert parse_group("d12", DEFAULT_CAP).order() == 24
    assert parse_group("wr:z4:2", DEFAULT_CAP).order() == 32


def test_element_parsing():
    d12 = parse_group("d12", DEFAULT_CAP)
    assert parse_element("r5s", d12) == DihedralElement(12, 5, 1)
    assert parse_element("r3", d12) == DihedralElement(12, 3, 0)
    z4 = parse_group("z4", DEFAULT_CAP)
    assert parse_element("3", z4).value == 3


def test_plant_hsp_reports_labels():
    result = run(["plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"])
    assert result.exit_code == 0
    report = payload(result)
    assert report["outputs"]["distinct_labels"] == 3
    # Verifying the promise reads each of the 6 labels once; counting the
    # labels reads none.
    assert report["counters"]["oracle_evaluations"] == 6
    assert report["outputs"]["instance"]["problem"] == "hsp"
    assert report["instance_digest"]


def test_commands_after_verification_read_each_label_once():
    # Verification is a command's one labelling pass; the solver and the
    # searches read the kernel and shift set it leaves behind.
    coset = payload(run(["plant", "coset", "--group", "s4", "--subgroup", "(1 2 3)",
                         "--shift", "(1 2)"]))
    assert coset["counters"]["oracle_evaluations"] == 2 * 24  # f1 and f2, |G| each

    planted = payload(run(["plant", "coset", "--group", "z4", "--subgroup", "2",
                           "--shift", "1"]))
    reduced = payload(run(["reduce"], stdin=json.dumps(planted["outputs"]["instance"])))
    solved = payload(run(["solve"], stdin=json.dumps(reduced["outputs"]["instance"])))
    assert solved["counters"]["oracle_evaluations"] == 32  # |Z4 wr Z2|

    dihedral = payload(run(["plant", "hsp", "--group", "d60", "--subgroup", "r37s"]))
    found = payload(run(["search-via-decision", "--smooth-bound", "5"],
                        stdin=json.dumps(dihedral["outputs"]["instance"])))
    assert found["outputs"]["shift_exponent"] == 37
    # |D60| = 120 to verify; the witness check reads r^37 s and the identity
    # from the label store verification filled.
    assert found["counters"]["oracle_evaluations"] == 120


@pytest.mark.parametrize("plant_args, args, expected", [
    pytest.param(["plant", "hsp", "--group", "s4", "--subgroup", "(1 2)"],
                 ["check", "--k", "3"], 24, id="s4-check-decision"),
    pytest.param(["plant", "hsp", "--group", "s4", "--subgroup", "(1 2)"],
                 ["check", "--flavor", "search", "--k", "3"], 24, id="s4-check-search"),
    pytest.param(["plant", "coset", "--group", "s3", "--subgroup", "", "--shift", "(1 2 3)"],
                 ["search-via-decision"], 2 * 6, id="s3-shift-search"),
    pytest.param(["plant", "hsp", "--group", "s5", "--subgroup", "(1 2 3)"],
                 ["search-via-decision"], 120, id="s5-truth-table-search"),
])
def test_searches_and_checks_read_only_what_verification_labelled(plant_args, args,
                                                                  expected):
    # Verification fills each planted function's label store; the search
    # plans, the shift search's queries and witness check, the checker's
    # claim check and its translate trials all read that store.
    planted = payload(run(plant_args))
    result = run(args, stdin=json.dumps(planted["outputs"]["instance"]))
    assert result.exit_code == 0, result.output
    assert payload(result)["counters"]["oracle_evaluations"] == expected


def test_report_echoes_the_arguments_click_was_given():
    # sys.argv is the test runner's own; the report must not echo it.
    args = ["--seed", "5", "plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"]
    assert sys.argv[1:] != args
    assert payload(run(args))["command"] == args
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main.main(args=args, prog_name="cosetlab", standalone_mode=False)
    assert json.loads(out.getvalue())["command"] == args


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


D12_QUERIES = [[2, 1, 0], [2, 1, 1], [2, 2, 0], [2, 2, 1], [3, 1, 0], [3, 1, 1], [3, 1, 2]]
D60_QUERIES = D12_QUERIES + [[5, 1, t] for t in range(5)]


@pytest.mark.parametrize("group, subgroup, seed, spec, expected", [
    ("d12", "r5s", 0, "bruteforce", (D12_QUERIES, 5)),
    ("d12", "r5s", 0, "buggy:always-trivial", "0 accepted offsets at modulus 2"),
    ("d12", "r5s", 0, "buggy:always-nontrivial", "2 accepted offsets at modulus 2"),
    ("d12", "r5s", 1, "buggy:flip:0.3", "2 accepted offsets at modulus 2"),
    ("d12", "r5s", 2, "buggy:flip:0.3", "r^11s does not share the identity label"),
    ("d12", "r5s", 0, "buggy:wrong-if-order-gt:23", "2 accepted offsets at modulus 4"),
    ("d12", "r5s", 0, "buggy:wrong-if-order-gt:24", (D12_QUERIES, 5)),
    ("d60", "r37s", 0, "bruteforce", (D60_QUERIES, 37)),
    ("d60", "r37s", 0, "buggy:always-trivial", "0 accepted offsets at modulus 2"),
    ("d60", "r37s", 0, "buggy:always-nontrivial", "2 accepted offsets at modulus 2"),
    ("d60", "r37s", 1, "buggy:flip:0.3", "2 accepted offsets at modulus 2"),
    ("d60", "r37s", 2, "buggy:flip:0.3", "2 accepted offsets at modulus 5"),
    ("d60", "r37s", 0, "buggy:wrong-if-order-gt:119", "2 accepted offsets at modulus 4"),
    ("d60", "r37s", 0, "buggy:wrong-if-order-gt:120", (D60_QUERIES, 37)),
])
def test_dihedral_search_under_every_program_spec(group, subgroup, seed, spec, expected):
    """Each program spec on a dihedral search: the queries asked and the
    exponent found, or the failure.  A fault predicate sees |G| (24 for D12,
    120 for D60), so ``wrong-if-order-gt`` flips every answer just below it."""
    planted = payload(run(["plant", "hsp", "--group", group, "--subgroup", subgroup]))
    result = CliRunner().invoke(
        main, ["--seed", str(seed), "search-via-decision", "--emit-querylog",
               "--oracle", spec], input=json.dumps(planted["outputs"]["instance"]))
    if isinstance(expected, str):
        assert result.exit_code == 1
        assert result.output == f"Error: search failed: {expected}\n"
        return
    queries, exponent = expected
    assert result.exit_code == 0
    rep = payload(result)
    assert rep["outputs"] == {"querylog": [{"index": q} for q in queries],
                              "shift_exponent": exponent}
    assert rep["counters"]["decision_queries"] == len(queries)


S3_SHIFT_QUERIES = [[1, "stay"], [1, [2, 1, 3]], [2, "stay"], [2, [1, 3, 2]], [3, "stay"]]
S4_SHIFT_QUERIES = [[1, "stay"], [1, [2, 1, 3, 4]], [1, [3, 1, 4, 2]], [2, "stay"],
                    [2, [1, 3, 4, 2]], [3, "stay"], [3, [1, 2, 4, 3]], [4, "stay"]]


@pytest.mark.parametrize("group, shift, seed, spec, expected", [
    ("s3", "(1 2 3)", 0, "bruteforce", (S3_SHIFT_QUERIES, [2, 3, 1])),
    ("s3", "(1 2 3)", 0, "buggy:always-trivial", "no translate accepted at level 1"),
    ("s3", "(1 2 3)", 0, "buggy:always-nontrivial",
     "assembled translate does not relate the two functions"),
    ("s3", "(1 2 3)", 1, "buggy:flip:0.3", "no translate accepted at level 2"),
    ("s3", "(1 2 3)", 2, "buggy:flip:0.3",
     "assembled translate does not relate the two functions"),
    ("s3", "(1 2 3)", 0, "buggy:wrong-if-order-gt:1", "no translate accepted at level 2"),
    ("s3", "(1 2 3)", 0, "buggy:wrong-if-order-gt:2", (S3_SHIFT_QUERIES, [2, 3, 1])),
    ("s4", "(1 3)(2 4)", 0, "bruteforce", (S4_SHIFT_QUERIES, [3, 4, 1, 2])),
    ("s4", "(1 3)(2 4)", 0, "buggy:always-trivial", "no translate accepted at level 1"),
    ("s4", "(1 3)(2 4)", 0, "buggy:always-nontrivial",
     "assembled translate does not relate the two functions"),
    ("s4", "(1 3)(2 4)", 1, "buggy:flip:0.3", "no translate accepted at level 3"),
    ("s4", "(1 3)(2 4)", 2, "buggy:flip:0.3", "no translate accepted at level 2"),
    ("s4", "(1 3)(2 4)", 0, "buggy:wrong-if-order-gt:5", "no translate accepted at level 2"),
    ("s4", "(1 3)(2 4)", 0, "buggy:wrong-if-order-gt:6", (S4_SHIFT_QUERIES, [3, 4, 1, 2])),
])
def test_shift_search_under_every_program_spec(group, shift, seed, spec, expected):
    """Each program spec on a hidden-shift search: the queries asked and the
    shift found, or the failure.  A fault predicate sees the order of the
    level group a query asks about (2, 1, 1 for S3 and 6, 2, 1, 1 for S4), so
    ``wrong-if-order-gt`` just below the first level's order flips that
    level's answers only."""
    planted = payload(run(["plant", "coset", "--group", group, "--subgroup", "",
                           "--shift", shift]))
    result = CliRunner().invoke(
        main, ["--seed", str(seed), "search-via-decision", "--emit-querylog",
               "--oracle", spec], input=json.dumps(planted["outputs"]["instance"]))
    if isinstance(expected, str):
        assert result.exit_code == 1
        assert result.output == f"Error: search failed: {expected}\n"
        return
    queries, images = expected
    assert result.exit_code == 0
    rep = payload(result)
    assert rep["outputs"] == {"querylog": [{"index": q} for q in queries],
                              "shift": {"images": images, "kind": "perm"}}
    assert rep["counters"]["decision_queries"] == len(queries)


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


def test_cap_above_the_default_reaches_orbit_stabilizers():
    # Z_100002 has more elements than the default cap; the stabilizer and the
    # mapping elements must be enumerated under the cap the action was given.
    cap = ["--cap", "100002"]
    planted = payload(run([*cap, "plant", "orbit-coset", "--action",
                           "two-orbit:100002:2:3", "--phi1", "1", "--shift", "7"]))
    result = run([*cap, "solve"], stdin=json.dumps(planted["outputs"]["instance"]))
    assert result.exit_code == 0, result.output
    out = payload(result)["outputs"]
    # State 1 goes to state 0 under the odd rotations, least 1 (7 is one of
    # them); the even rotations fix it.
    assert out["disjoint"] is False
    assert out["shift"]["value"] == 1
    assert [g["value"] for g in out["stabilizer_generators"]] == [2]


S3_C2 = ["plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"]


def test_cap_reaches_every_group_a_command_builds(monkeypatch):
    """Each command, run under a non-default --cap, builds only groups that
    carry it: parsed and rebuilt groups, wreath products, their flattenings,
    stabilizer levels and dihedral query subgroups."""
    built = []
    init = FiniteGroup.__init__

    def recorded(group, *args, **kwargs):
        init(group, *args, **kwargs)
        built.append(group)

    monkeypatch.setattr(FiniteGroup, "__init__", recorded)
    pipelines = [
        [["plant", "hsp", "--group", "wr:z3:2"], ["solve"]],
        [["plant", "coset", "--group", "z4", "--subgroup", "2", "--shift", "1"],
         ["reduce"], ["solve"]],
        [["plant", "ghsh", "--group", "z5", "--shift", "2", "--copies", "3"],
         ["reduce"], ["solve"]],
        [["plant", "orbit-coset", "--action", "cyclic:4", "--phi1", "1", "--shift", "2"],
         ["reduce"], ["solve"]],
        [["plant", "hsp", "--group", "s3", "--subgroup", "(1 2 3)"],
         ["search-via-decision"]],
        [["plant", "coset", "--group", "s3", "--subgroup", "", "--shift", "(1 2 3)"],
         ["search-via-decision"]],
        [["plant", "hsp", "--group", "d12", "--subgroup", "r5s"],
         ["search-via-decision", "--smooth-bound", "3"]],
        [S3_C2, ["check", "--k", "1"]],
        [["plant", "hsp", "--group", "s3"], ["check", "--k", "1"]],
        [S3_C2, ["check", "--flavor", "search", "--k", "1"]],
    ]
    for commands in pipelines:
        stdin = None
        for args in commands:
            result = run(["--cap", "123457", *args], stdin)
            assert result.exit_code == 0, (args, result.output)
            stdin = json.dumps(payload(result)["outputs"].get("instance"))
    names = " | ".join(g.name for g in built)
    for kind in ("Z3 wr Z2", "G wr Z2", "stabilizer level", "on 6 points", "<r^"):
        assert kind in names
    assert {g.cap for g in built} == {123_457}


@pytest.mark.parametrize("planter, plant_args", [
    ("plant_coset", ["coset", "--group", "s4", "--subgroup", "(1 2 3 4)",
                     "--shift", "(1 2)"]),
    ("plant_ghsh", ["ghsh", "--group", "s3", "--shift", "(1 2 3)", "--copies", "3"]),
    ("plant_orbit_coset", ["orbit-coset", "--action", "two-orbit:6:2:3",
                           "--phi1", "3", "--shift", "4"]),
])
def test_reduce_plants_its_source_once(planter, plant_args, monkeypatch):
    instance = payload(run(["plant", *plant_args]))["outputs"]["instance"]
    original = getattr(instances, planter)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(instances, planter, counted)
    assert run(["reduce"], stdin=json.dumps(instance)).exit_code == 0
    assert len(calls) == 1


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


# (seed, program spec): every deviation, and flip streams that once led a
# search to an unconfirmed witness.
SWEEP_SPECS = ([(0, "bruteforce"), (0, "buggy:always-trivial"),
                (0, "buggy:always-nontrivial"), (64, "buggy:flip:0.05"),
                (67, "buggy:flip:0.05")]
               + [(seed, "buggy:flip:0.3") for seed in range(4)]
               + [(0, f"buggy:wrong-if-order-gt:{b}") for b in (1, 7, 100)])
S3_SUBGROUPS = ["", "(1 2)", "(1 3)", "(2 3)", "(1 2 3)", "(1 2 3),(1 2)"]
# One subgroup of each of the 11 conjugacy classes of S4.
S4_SUBGROUP_CLASSES = ["", "(1 2)", "(1 2)(3 4)", "(1 2 3)", "(1 2 3 4)",
                       "(1 2),(3 4)", "(1 2)(3 4),(1 3)(2 4)", "(1 2 3),(1 2)",
                       "(1 2 3 4),(1 3)", "(1 2 3),(1 2)(3 4)", "(1 2 3 4),(1 2)"]
SMOOTH_ORDERS = [n for n in range(2, 61)
                 if all(p <= 7 for p in range(2, n + 1) if n % p == 0
                        and all(p % q for q in range(2, p)))]


def _hsp_witness_confirmed(inst, outputs):
    found = outputs["found"]
    if found is None:  # a trivial claim only a checker can certify
        return True
    g = element_from_json(found)
    f = inst.oracle.evaluate
    return not g.is_identity() and f(g) == f(inst.group.identity)


def _shift_witness_confirmed(inst, outputs):
    u = element_from_json(outputs["shift"])
    return all(inst.f1.evaluate(g) == inst.f2.evaluate(group_op(g, u))
               for g in inst.group.elements())


def _dihedral_witness_confirmed(inst, outputs):
    n = inst.group.identity.rotations
    f = inst.oracle.evaluate
    return f(DihedralElement(n, outputs["shift_exponent"], 1)) == f(inst.group.identity)


def _sweep_instances(family):
    if family == "hsp":
        for group, subgroups in (("s3", S3_SUBGROUPS), ("s4", S4_SUBGROUP_CLASSES)):
            g = parse_group(group, DEFAULT_CAP)
            for text in subgroups:
                yield instances.plant_hsp(g, parse_elements(text, g), instances.Side.LEFT)
    elif family == "shift":
        s3, s4 = parse_group("s3", DEFAULT_CAP), parse_group("s4", DEFAULT_CAP)
        shifts = [(s3, u) for u in s3.elements()] + [
            (s4, parse_element(u, s4)) for u in ("(1 2 3 4)", "(1 3)(2 4)", "(2 4 3)")]
        for group, u in shifts:
            yield instances.plant_coset(group, (), u)
    else:
        for n in SMOOTH_ORDERS:
            for a in sorted({0, 1, n // 2, n - 1}):
                yield instances.plant_hsp(parse_group(f"d{n}", DEFAULT_CAP),
                                          (DihedralElement(n, a, 1),), instances.Side.LEFT)


@pytest.mark.parametrize("family, confirmed", [
    ("hsp", _hsp_witness_confirmed), ("shift", _shift_witness_confirmed),
    ("dihedral", _dihedral_witness_confirmed)])
def test_every_search_returns_a_confirmed_witness_or_fails(family, confirmed):
    """Under every program spec a search either exits 0 with a witness the
    instance confirms (a non-identity element labelled like the identity, a u
    with f1(g) = f2(g u) for every g, an r^a s in the kernel) or exits 1 with
    a search failure.  A permutation search may also claim no witness."""
    unconfirmed = []
    for inst in _sweep_instances(family):
        stdin = json.dumps(instances.instance_to_json(inst))
        for seed, spec in SWEEP_SPECS:
            result = CliRunner().invoke(main, ["--seed", str(seed), "search-via-decision",
                                               "--oracle", spec], input=stdin)
            if result.exit_code == 1:
                assert result.output.startswith("Error: search failed: "), result.output
            elif result.exit_code != 0 or not confirmed(inst, payload(result)["outputs"]):
                unconfirmed.append((stdin, seed, spec, result.output))
    assert unconfirmed == []

    shift = payload(run(["plant", "coset", "--group", "s3", "--subgroup", "",
                         "--shift", "(1 2 3)"]))
    for seed in range(4):
        result3 = CliRunner().invoke(
            main, ["--seed", str(seed), "search-via-decision",
                   "--oracle", "buggy:always-nontrivial"],
            input=json.dumps(shift["outputs"]["instance"]))
        assert result3.exit_code == 1
        assert "search failed" in result3.output


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
    # Every suite, the reductions suite included: it is the only command-line
    # path through recover_ghsh_functions.
    result = run(["selftest", "--suite", "all", "--max-degree", "4"])
    assert result.exit_code == 0
    rep = payload(result)
    assert rep["counters"]["total_failures"] == 0
    suites = {s["suite"]: s["properties"] for s in rep["outputs"]["suites"]}
    assert set(suites) == {"algebra", "reductions", "search", "checkers"}
    for suite, props in suites.items():
        assert props and all(p["cases"] > 0 and p["failures"] == 0 for p in props), suite
    names = {p["name"] for props in suites.values() for p in props}
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


_S3_COSET = {"problem": "hidden_coset",
             "group": {"degree": 3, "generators": [[2, 1, 3], [2, 3, 1]]},
             "planted": {"shift": {"kind": "perm", "images": [3, 2, 1]},
                         "subgroup": [{"kind": "perm", "images": [2, 1, 3]}]}}


@pytest.mark.parametrize("args, stdin", [
    (["plant", "hsp", "--group", "s3", "--subgroup", "(1 5)"], None),
    (["plant", "hsp", "--group", "s0"], None),
    (["plant", "hsp", "--group", "z0"], None),
    (["plant", "hsp", "--group", "d0"], None),
    (["plant", "hsp", "--group", "s3", "--subgroup", "(1 2"], None),
    (["plant", "hsp", "--group", "d6", "--subgroup", "rx"], None),
    (["plant", "ghsh", "--group", "s3", "--shift", "(1 2)", "--copies", "1"], None),
    (["plant", "orbit-coset", "--action", "cyclic:0"], None),
    (["plant", "orbit-coset", "--action", "two-orbit:4:0:2"], None),
    (["plant", "orbit-coset", "--action", "cyclic:4", "--phi1", "9"], None),
    (["--cap", "10", "plant", "hsp", "--group", "s5"], None),
    (["solve"], "[1, 2]"),
    (["solve", "--in", "{missing}"], None),
    (["selftest", "--max-degree", "-1"], None),
    (["selftest", "--max-degree", "2"], None),
    (["selftest", "--max-degree", "7"], None),
    (["selftest", "--max-degree", "9"], None),
    ([], None),
    (["plant"], None),
    (["solve"], '{"problem": "hsp", "construction": {"source": 5}}'),
    (["reduce"], '{"problem": "hsp", "construction": {"source": "x"}}'),
    (["search-via-decision"], '{"problem": "hsp", "construction": {"source": []}}'),
    (["check"], '{"problem": "hsp", "construction": {"source": []}}'),
    (["reduce"], json.dumps({
        "problem": "orbit_coset", "phi1": 0,
        "planted": {"shift": {"kind": "cyclic", "modulus": 4, "value": 1}},
        "action": {"group": {"generators": [{"kind": "cyclic", "modulus": 4, "value": 1}],
                             "identity": {"kind": "cyclic", "modulus": 4, "value": 0}},
                   "states": ["s0", "s1", "s2", "s2"],
                   "generator_images": [[1, 2, 3, 0]]}})),
    (["solve"], json.dumps({"problem": "hsp",
                            "construction": {"via": "bogus", "source": _S3_COSET}})),
    (["solve"], json.dumps({"problem": "ghsh",
                            "construction": {"via": "orbit-coset-to-hsp",
                                             "source": _S3_COSET}})),
    (["solve"], '{"problem": "hsp", "construction": []}'),
    (["solve"], '{"construction": {}}'),
])
def test_invalid_input_exits_2_with_json_error(args, stdin, tmp_path):
    args = [a.replace("{missing}", str(tmp_path / "missing.json")) for a in args]
    result = CliRunner().invoke(main, args, input=stdin)
    assert result.exit_code == 2, result.output
    assert "Traceback" not in result.output
    assert isinstance(result.exception, SystemExit)
    json_lines = [l for l in result.output.splitlines() if l.startswith("{")]
    assert json_lines and json.loads(json_lines[0])["error"]



@pytest.mark.parametrize("plant_args, args", [
    (["plant", "hsp", "--group", "s3", "--subgroup", "(1 3)", "--side", "right"],
     ["check"]),
    (["plant", "hsp", "--group", "z4", "--subgroup", "2"], ["check"]),
    (["plant", "coset", "--group", "s3", "--shift", "(1 2)"], ["check"]),
    (["plant", "hsp", "--group", "z4", "--subgroup", "2"], ["search-via-decision"]),
    (["plant", "coset", "--group", "z4", "--shift", "1"], ["search-via-decision"]),
    (["plant", "hsp", "--group", "d6", "--subgroup", "r1s"],
     ["search-via-decision", "--smooth-bound", "1"]),
    (["plant", "hsp", "--group", "d60", "--subgroup", "r37s"],
     ["search-via-decision", "--smooth-bound", "3"]),
    (["plant", "hsp", "--group", "s3"], ["--cap", "5", "solve"]),
    (["plant", "hsp", "--group", "s3"], ["--cap", "50", "check", "--k", "1"]),
    (["plant", "ghsh", "--group", "s3", "--shift", "(1 2)", "--copies", "3"],
     ["--cap", "100", "reduce"]),
])
def test_instance_the_command_cannot_take_exits_2(plant_args, args):
    instance = json.dumps(payload(run(plant_args))["outputs"]["instance"])
    code, error = _error_exit(args, instance)
    assert code == 2
    assert error["error"]


@pytest.mark.parametrize("subgroup", ["", "r2", "r1s,r2"])
def test_dihedral_search_rejects_a_hidden_subgroup_it_cannot_find(subgroup):
    # The dihedral search finds a hidden {id, r^a s} only; the instance's
    # kernel decides before any query, whatever the oracle.
    instance = json.dumps(payload(run(["plant", "hsp", "--group", "d6", "--subgroup",
                                       subgroup]))["outputs"]["instance"])
    code, error = _error_exit(["search-via-decision", "--smooth-bound", "3"], instance)
    assert code == 2
    assert "{id, r^a s}" in error["error"]


def test_construction_without_a_source_is_named():
    for stdin in ('{"problem": "hsp", "construction": []}', '{"construction": {}}'):
        code, error = _error_exit(["solve"], stdin)
        assert code == 2
        assert error["error"] == "bad instance: construction must be an object with a source"


@pytest.mark.parametrize("n, bound", [(12, 3), (60, 5)])
@pytest.mark.parametrize("command", [["solve"], ["search-via-decision"]])
def test_json_dihedral_group_enumerates_under_the_cap(n, bound, command):
    # The JSON-loaded D_n knows its 2n elements without listing them; a cap
    # of 2n - 1 refuses it, a cap of 2n takes it.
    planted = payload(run(["plant", "hsp", "--group", f"d{n}", "--subgroup", "r7s"]))
    stdin = json.dumps(planted["outputs"]["instance"])
    if command == ["search-via-decision"]:
        command = [*command, "--smooth-bound", str(bound)]
    code, error = _error_exit(["--cap", str(2 * n - 1), *command], stdin)
    assert code == 2
    assert error["error"] == f"bad instance: group has {2 * n} elements, cap {2 * n - 1}"
    result = run(["--cap", str(2 * n), *command], stdin)
    assert result.exit_code == 0, result.output
    outputs = payload(result)["outputs"]
    if "shift_exponent" in outputs:
        assert outputs["shift_exponent"] == 7
    else:
        assert outputs["subgroup_generators"] == [
            {"kind": "dihedral", "rotations": n, "rot": 7, "flip": 1}]


@pytest.mark.parametrize("plant, order", [
    (["ghsh", "--group", "z12", "--shift", "5", "--copies", "3"], 12),
    (["coset", "--group", "z12", "--subgroup", "4", "--shift", "1"], 12),
    (["hsp", "--group", "d6", "--subgroup", "r2s", "--side", "right"], 12),
])
def test_cap_error_of_a_loaded_instance_is_a_bad_instance(plant, order):
    # A shift chain meets the cap in verification, the others while they are
    # parsed and planted; the error reads the same either way.
    planted = payload(run(["plant", *plant]))
    code, error = _error_exit(["--cap", str(order - 1), "solve"],
                              json.dumps(planted["outputs"]["instance"]))
    assert code == 2
    assert error["error"] == f"bad instance: group has {order} elements, cap {order - 1}"


@pytest.mark.parametrize("args, stdin, message", [
    (["solve"], json.dumps({"problem": "hsp", "side": "left",
                            "group": {"degree": 1, "generators": []},
                            "planted": {"subgroup": []}}),
     "bad instance: closure exceeds cap 0"),
    (["plant", "hsp", "--group", "s1"], None, "closure exceeds cap 0"),
    (["plant", "hsp", "--group", "z1"], None, "closure exceeds cap 0"),
])
def test_cap_zero_refuses_a_one_element_group(args, stdin, message):
    # The identity counts against the cap, in a closure as in a listing.
    code, error = _error_exit(["--cap", "0", *args], stdin)
    assert code == 2
    assert error["error"] == message


def test_action_closure_past_the_cap_exits_2():
    code, error = _error_exit(["--cap", "3", "plant", "orbit-coset", "--action",
                               "cyclic:6"], None)
    assert code == 2
    assert error["error"] == "closure exceeds cap 3"


@pytest.mark.parametrize("args", [
    [], ["plant"], ["--seed", "x", "plant"], ["plant", "hsp", "--group", "s3", "--side", "up"],
    ["check", "--k", "x"], ["selftest", "--suite", "none"], ["--nope"], ["nope"],
    ["plant", "nope"], ["--cap", "5", "plant", "hsp", "--group", "s3"],
])
def test_each_error_prints_one_json_object(args):
    result = CliRunner().invoke(main, args, input="")
    assert result.exit_code == 2
    assert len([l for l in result.stdout.splitlines() if l.startswith("{")]) == 1
    assert not [l for l in result.stderr.splitlines() if l.startswith("{")]
