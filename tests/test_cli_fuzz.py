"""Seeded fuzz of the command line's input boundary.

Elements are validated only where they enter the library, so this is where
bad input has to be caught.  Planted instance JSON over s3, z4 and d6 is
mutated (images, kinds, moduli, shifts, missing and extra keys) and fed to
reduce, solve, search-via-decision and check; argument lists of the plant
commands are drawn from valid and malformed tokens.  Every run must exit
with 0 or with 2 and a JSON error, and never with an uncaught exception.
"""

from __future__ import annotations

import copy
import json
import random
import traceback

from click.testing import CliRunner

from cosetlab.cli import main

SEED = 20261018
RUNS = 200

PLANTS = {
    "s3-hsp": ["plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"],
    "s3-trivial": ["plant", "hsp", "--group", "s3"],
    "s3-shift": ["plant", "coset", "--group", "s3", "--shift", "(1 2 3)"],
    "s3-ghsh": ["plant", "ghsh", "--group", "s3", "--shift", "(1 2)"],
    "z4-hsp": ["plant", "hsp", "--group", "z4", "--subgroup", "2"],
    "z4-coset": ["plant", "coset", "--group", "z4", "--subgroup", "2", "--shift", "1"],
    "z4-orbit": ["plant", "orbit-coset", "--action", "cyclic:4", "--shift", "1"],
    "d6-hsp": ["plant", "hsp", "--group", "d6", "--subgroup", "r2s"],
    "d6-coset": ["plant", "coset", "--group", "d6", "--shift", "r1s"],
}
# The instances each command can accept, so that unmutated and lightly
# mutated inputs reach past the first type check.
ACCEPTS = {
    "reduce": ("s3-shift", "s3-ghsh", "z4-coset", "z4-orbit", "d6-coset"),
    "solve": tuple(PLANTS),
    "search": ("s3-hsp", "s3-trivial", "s3-shift", "d6-hsp"),
    "check": ("s3-hsp", "s3-trivial"),
}
# Small values only: a mutated degree or copy count must not blow up the run.
VALUES = (-1, 0, 1, 2, 3, 4, 1.5, "x", "", None, True, [], {}, [1, 1], {"kind": "perm"})
KINDS = ("perm", "cyclic", "dihedral", "wreath", "tuple", "bogus")
FOCUS = {"images", "kind", "modulus", "value", "rotations", "rot", "flip", "shift",
         "slots", "items", "degree", "generators", "identity", "subgroup", "copies",
         "phi1", "side", "problem", "states", "generator_images"}
TOKENS = ("(1 2)", "(1 2 3)", "(1 9)", "(1 2", "()", "", "1", "2", "-1", "r1s", "r3",
          "rxs", "s", "id", '{"kind": "perm", "images": [2, 1, 3]}',
          '{"kind": "perm", "images": [1, 1, 3]}',
          '{"kind": "cyclic", "modulus": 4, "value": 1.5}',
          '{"kind": "dihedral", "rotations": 6, "rot": 1, "flip": 2}',
          '{"kind": "wreath", "slots": [], "shift": 0}', "{", '{"kind": 5}', "[1, 2]")
GROUPS = ("s3", "z4", "d6", "s0", "s1", "z0", "z1", "d0", "d1", "wr:z2:2", "wr:z2:0",
          "q3", "s-1")
ACTIONS = ("cyclic:4", "cyclic:0", "cyclic:x", "two-orbit:4:2:2", "two-orbit:4:3:1",
           "two-orbit:4:0:2", "line:3")
PROGRAMS = ("bruteforce", "buggy:always-trivial", "buggy:always-nontrivial",
            "buggy:flip:0.5", "buggy:flip:2", "buggy:wrong-if-order-gt:2", "buggy:nope",
            "nope")


def _spots(node, path=()):
    """Every (path, value) below the root."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,), value
            yield from _spots(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield path + (i,), value
            yield from _spots(value, path + (i,))


def mutate(data: dict, rng: random.Random) -> dict:
    data = copy.deepcopy(data)
    for _ in range(1 if rng.random() < 0.7 else 2):
        spots = [p for p, _ in _spots(data)]
        focused = [p for p in spots if p[-1] in FOCUS]
        path = rng.choice(focused if focused and rng.random() < 0.7 else spots)
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        key = path[-1]
        action = rng.choice(("replace", "replace", "delete", "extra", "extra", "kind", "dup"))
        if action == "replace":
            parent[key] = copy.deepcopy(rng.choice(VALUES))
        elif action == "delete":
            del parent[key]
        elif action == "extra":
            if isinstance(parent, dict):
                parent["extra"] = rng.choice(VALUES)
            else:
                parent.append(copy.deepcopy(rng.choice(parent)))
        elif action == "kind":
            kinded = [p for p, v in _spots(data) if isinstance(v, dict) and "kind" in v]
            if kinded:
                target = data
                for step in kinded[rng.randrange(len(kinded))]:
                    target = target[step]
                target["kind"] = rng.choice(KINDS)
        elif isinstance(parent[key], list) and parent[key]:
            items = parent[key]
            items[rng.randrange(len(items))] = items[rng.randrange(len(items))]
        else:
            parent[key] = copy.deepcopy(rng.choice(VALUES))
    return data


def instance_args(command: str, path: str, rng: random.Random) -> list[str]:
    if command == "search":
        args = ["search-via-decision", "--in", path,
                "--smooth-bound", rng.choice(("7", "7", "2", "1"))]
        if rng.random() < 0.3:
            args.append("--emit-querylog")
        return args
    if command == "check":
        return ["check", "--in", path, "--program", rng.choice(PROGRAMS),
                "--flavor", rng.choice(("decision", "search")),
                "--k", rng.choice(("1", "1", "1", "2", "0", "-1")),
                "--runs", rng.choice(("1", "1", "2", "0"))]
    return [command, "--in", path]


def plant_args(rng: random.Random) -> list[str]:
    token = lambda: rng.choice(TOKENS)  # noqa: E731
    return rng.choice((
        ["plant", "hsp", "--group", rng.choice(GROUPS), "--subgroup", token(),
         "--side", rng.choice(("left", "right"))],
        ["plant", "coset", "--group", rng.choice(GROUPS), "--subgroup", token(),
         "--shift", token()],
        ["plant", "ghsh", "--group", rng.choice(GROUPS), "--shift", token(),
         "--copies", rng.choice(("-1", "1", "2", "3"))],
        ["plant", "orbit-coset", "--action", rng.choice(ACTIONS),
         "--phi1", rng.choice(("-1", "0", "3", "9")),
         "--shift", rng.choice(("none", "1", "-1", "r1s", "(1 2)", "{"))],
    ))


def global_args(rng: random.Random) -> list[str]:
    args = ["--seed", str(rng.randrange(6))]
    if rng.random() < 0.2:
        args += ["--cap", rng.choice(("1", "5", "50"))]
    return args


def test_cli_boundary_fuzz(tmp_path):
    runner = CliRunner()
    planted = {}
    for name, args in PLANTS.items():
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        planted[name] = json.loads(result.output)["outputs"]["instance"]
    rng = random.Random(SEED)
    codes = {0: 0, 2: 0}
    for i in range(RUNS):
        if rng.random() < 0.25:
            args = global_args(rng) + plant_args(rng)
        else:
            command = rng.choice(tuple(ACCEPTS))
            data = planted[rng.choice(ACCEPTS[command])]
            if rng.random() < 0.85:
                data = mutate(data, rng)
            path = tmp_path / f"case{i}.json"
            path.write_text(json.dumps(data))
            args = global_args(rng) + instance_args(command, str(path), rng)
        result = runner.invoke(main, args)
        crash = ("" if result.exception is None or isinstance(result.exception, SystemExit)
                 else "".join(traceback.format_exception(*result.exc_info)))
        context = f"{args}\n{result.output}\n{crash}"
        assert not crash, context
        assert result.exit_code in (0, 2), context
        if result.exit_code == 2:
            errors = [line for line in result.output.splitlines() if line.startswith("{")]
            assert errors and json.loads(errors[0])["error"], context
        codes[result.exit_code] += 1
    # The mutations must leave some inputs valid and reject others.
    assert codes[0] > 0 and codes[2] > 0, codes


# Ill-typed values for every typed option, each placed in an otherwise valid
# command line.  Click rejects them while it parses, before any command runs,
# and the rejection must be the same exit 2 with a JSON error.
ILL_TYPED = {
    "--seed": (["--seed", "{}", "plant", "hsp", "--group", "s3"], ("x", "1.5", "0x1", "")),
    "--cap": (["--cap", "{}", "plant", "hsp", "--group", "s3"], ("x", "1e3", "")),
    "--side": (["plant", "hsp", "--group", "s3", "--side", "{}"], ("up", "LEFT", "")),
    "--copies": (["plant", "ghsh", "--group", "s3", "--shift", "(1 2)", "--copies", "{}"],
                 ("x", "2.0")),
    "--phi1": (["plant", "orbit-coset", "--action", "cyclic:4", "--phi1", "{}"],
               ("x", "1.5")),
    "--smooth-bound": (["search-via-decision", "--in", "{in}", "--smooth-bound", "{}"],
                       ("x", "7.5")),
    "--flavor": (["check", "--in", "{in}", "--flavor", "{}"], ("both", "Decision", "")),
    "--k": (["check", "--in", "{in}", "--k", "{}"], ("x", "1.5", "seven", "")),
    "--runs": (["check", "--in", "{in}", "--runs", "{}"], ("x", "2.0", "")),
    "--suite": (["selftest", "--suite", "{}"], ("nope", "ALL", "")),
    "--max-degree": (["selftest", "--max-degree", "{}"], ("x", "4.0")),
}


def test_ill_typed_option_values_exit_2_with_json_error(tmp_path):
    runner = CliRunner()
    planted = runner.invoke(main, PLANTS["s3-hsp"])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(json.loads(planted.output)["outputs"]["instance"]))
    for option, (template, values) in ILL_TYPED.items():
        for value in values:
            args = [a.replace("{in}", str(path)).replace("{}", value) for a in template]
            result = runner.invoke(main, args)
            context = f"{args}\n{result.output}"
            assert result.exit_code == 2, context
            assert isinstance(result.exception, SystemExit), context
            errors = [line for line in result.output.splitlines() if line.startswith("{")]
            assert errors and option in json.loads(errors[0])["error"], context
