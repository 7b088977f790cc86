"""Golden CLI transcripts: seeded commands whose stdout is pinned by digest.

Each pipeline runs in process, feeding ``outputs.instance`` of one report to
the next command on stdin; a pipeline may open with a hand-written instance,
which is fed to its first command instead.  A report's digest is the SHA-256
of its stdout with the ``elapsed_s`` line removed, so any change to a query,
an answer, a counter or the report layout shows up here.  ``python tests/test_cli_golden.py``
prints the pinned and fresh digests of every pipeline and names those that
differ; it never rewrites this file.
"""

import hashlib
import json
import re
import sys

import pytest
from click.testing import CliRunner

from cosetlab.cli import main

ELAPSED = re.compile(r'^\s*"elapsed_s": [-+.0-9e]+,?\n', re.M)

S3_TRIVIAL = ["plant", "hsp", "--group", "s3"]
S3_C2 = ["plant", "hsp", "--group", "s3", "--subgroup", "(1 2)"]


def _dihedral(rot, flip=0, n=12):
    return {"kind": "dihedral", "rotations": n, "rot": rot, "flip": flip}


def _cyclic(value, m=12):
    return {"kind": "cyclic", "modulus": m, "value": value}


# Groups given by non-standard generators, so that their elements' closure
# order differs from their key order: <r^8, r^6 s, r^10 s> = <r^4, r^2 s> of
# order 6 in D12, and <8, 6> = <2> of order 6 in Z12.
D12_SUBGROUP_HSP = {
    "problem": "hsp", "side": "left",
    "group": {"identity": _dihedral(0),
              "generators": [_dihedral(8), _dihedral(6, 1), _dihedral(10, 1)]},
    "planted": {"subgroup": [_dihedral(6, 1)]}}
Z12_SUBGROUP_COSET = {
    "problem": "hidden_coset",
    "group": {"identity": _cyclic(0), "generators": [_cyclic(8), _cyclic(6)]},
    "planted": {"subgroup": [_cyclic(6)], "shift": _cyclic(4)}}

# (name, commands, digest of each command's stdout)
PIPELINES = [
    ("readme-s3-querylog",
     [["plant", "hsp", "--group", "s3", "--subgroup", "(1 2 3)"],
      ["search-via-decision", "--emit-querylog"]],
     ["64a82fa1d7d64a07", "d7e7c65cda369109"]),
    ("readme-z4-coset",
     [["plant", "coset", "--group", "z4", "--subgroup", "2", "--shift", "1"],
      ["reduce"], ["solve"]],
     ["ed2a52e6996e9c90", "2bf83e61bc51ab8c", "1bb6bd3196bda5c6"]),
    ("readme-d60-dihedral",
     [["plant", "hsp", "--group", "d60", "--subgroup", "r37s"],
      ["search-via-decision", "--smooth-bound", "5"]],
     ["9b7500c7d39bc62c", "222929bb9c5a15a9"]),
    ("readme-s3-check-always-trivial",
     [S3_C2, ["--seed", "1", "check", "--program", "buggy:always-trivial",
              "--k", "7", "--runs", "100"]],
     ["d374655a4ae6faea", "b38c2e05d75d4f6e"]),
    ("s4-querylog",
     [["plant", "hsp", "--group", "s4", "--subgroup", "(1 2)(3 4)"],
      ["search-via-decision", "--emit-querylog"]],
     ["2f288207a0368962", "a1e4130023a8c965"]),
    ("s4-trivial-querylog",
     [["plant", "hsp", "--group", "s4"], ["search-via-decision", "--emit-querylog"]],
     ["2cb5e3611a9cbc6b", "1adcb6e911913025"]),
    ("s3-shift-search",
     [["plant", "coset", "--group", "s3", "--subgroup", "", "--shift", "(1 2 3)"],
      ["--seed", "4", "search-via-decision"]],
     ["41b69deea3f4da75", "50cc8bae139de2cb"]),
    ("check-decision-bruteforce",
     [S3_C2, ["--seed", "5", "check", "--k", "3", "--runs", "2"]],
     ["d374655a4ae6faea", "82302bcdba283a0c"]),
    ("check-decision-bruteforce-trivial",
     [S3_TRIVIAL, ["--seed", "6", "check", "--k", "2"]],
     ["f3bf7242b5f42ac5", "c1907a231a11aa42"]),
    ("check-decision-always-nontrivial",
     [S3_TRIVIAL, ["--seed", "7", "check", "--program", "buggy:always-nontrivial",
                   "--k", "3", "--runs", "2"]],
     ["f3bf7242b5f42ac5", "5724ff78c09184ea"]),
    ("check-decision-flip",
     [S3_TRIVIAL, ["--seed", "8", "check", "--program", "buggy:flip:0.3",
                   "--k", "3", "--runs", "3"]],
     ["f3bf7242b5f42ac5", "6842188fdc250899"]),
    ("check-search-bruteforce",
     [S3_C2, ["--seed", "9", "check", "--flavor", "search", "--k", "3"]],
     ["d374655a4ae6faea", "ac97afab085bf6a3"]),
    ("check-search-always-trivial",
     [S3_C2, ["--seed", "10", "check", "--flavor", "search",
              "--program", "buggy:always-trivial", "--k", "3", "--runs", "2"]],
     ["d374655a4ae6faea", "c854855bae6bb65c"]),
    ("check-search-always-nontrivial",
     [S3_TRIVIAL, ["--seed", "11", "check", "--flavor", "search",
                   "--program", "buggy:always-nontrivial", "--k", "3", "--runs", "2"]],
     ["f3bf7242b5f42ac5", "2a3f2226e5a00144"]),
    ("check-search-flip",
     [S3_C2, ["--seed", "12", "check", "--flavor", "search",
              "--program", "buggy:flip:0.3", "--k", "3", "--runs", "3"]],
     ["d374655a4ae6faea", "4a85652532ecf7ee"]),
    ("z5-shift-chain",
     [["plant", "ghsh", "--group", "z5", "--shift", "2", "--copies", "3"],
      ["reduce"], ["solve"]],
     ["f660234e3b8319fd", "51a05a71c450f4bd", "64428d562ff0ac88"]),
    ("cyclic4-orbit-coset",
     [["plant", "orbit-coset", "--action", "cyclic:4", "--phi1", "1", "--shift", "2"],
      ["reduce"], ["solve"]],
     ["9219fe79a3648070", "6e839f5baa126602", "dad1b165de787110"]),
    ("two-orbit-disjoint",
     [["plant", "orbit-coset", "--action", "two-orbit:6:2:3", "--phi1", "1",
       "--shift", "none"],
      ["solve"]],
     ["627c72e6d5db3b7f", "86533eeab9f51bec"]),
    ("s3-coset-solve",
     [["plant", "coset", "--group", "s3", "--subgroup", "(1 2)", "--shift", "(1 3)"],
      ["solve"]],
     ["43372f7d26cbfc98", "29dc5c2f55c3c2f7"]),
    ("s3-shift-chain-solve",
     [["plant", "ghsh", "--group", "s3", "--shift", "(1 2 3)", "--copies", "3"], ["solve"]],
     ["8875636edad7949c", "c78d6a9eefb81166"]),
    ("two-orbit-reduce",
     [["plant", "orbit-coset", "--action", "two-orbit:6:2:3", "--phi1", "3",
       "--shift", "4"],
      ["reduce"], ["solve"]],
     ["6e95e5fbb57e0d56", "f6687c74e4838fd3", "fb41b79bdb347ff3"]),
    ("d12-dihedral-smooth-bound-3",
     [["plant", "hsp", "--group", "d12", "--subgroup", "r5s"],
      ["search-via-decision", "--smooth-bound", "3"]],
     ["3f84e1ad83984ead", "81ef8a4650365f03"]),
    ("check-decision-wrong-if-order-gt-6-seed-13",
     [S3_C2, ["--seed", "13", "check", "--flavor", "decision",
              "--program", "buggy:wrong-if-order-gt:6", "--k", "3"]],
     ["d374655a4ae6faea", "165a07a43835e060"]),
    ("check-decision-wrong-if-order-gt-6-seed-14",
     [S3_C2, ["--seed", "14", "check", "--flavor", "decision",
              "--program", "buggy:wrong-if-order-gt:6", "--k", "3"]],
     ["d374655a4ae6faea", "e9e92cb04531cf37"]),
    ("check-search-wrong-if-order-gt-6-seed-13",
     [S3_C2, ["--seed", "13", "check", "--flavor", "search",
              "--program", "buggy:wrong-if-order-gt:6", "--k", "3"]],
     ["d374655a4ae6faea", "f13f24fb411dd48c"]),
    ("check-search-wrong-if-order-gt-6-seed-14",
     [S3_C2, ["--seed", "14", "check", "--flavor", "search",
              "--program", "buggy:wrong-if-order-gt:6", "--k", "3"]],
     ["d374655a4ae6faea", "f33513b4d8737959"]),
    ("d12-coset-solve",
     [["plant", "coset", "--group", "d12", "--subgroup", "r4,r3s", "--shift", "r5s"],
      ["solve"]],
     ["7253b555e0db1edd", "31b25b01ff7651e5"]),
    ("d12-subgroup-json-solve", [D12_SUBGROUP_HSP, ["solve"]], ["8efb0653e9b14440"]),
    ("d12-subgroup-json-dihedral-search",
     [D12_SUBGROUP_HSP, ["search-via-decision", "--smooth-bound", "3"]], ["7ed15ee08036c667"]),
    ("z12-subgroup-json-coset-solve", [Z12_SUBGROUP_COSET, ["solve"]], ["163ee3d8db56b590"]),
    ("z12-subgroup-json-coset-reduce",
     [Z12_SUBGROUP_COSET, ["reduce"], ["solve"]],
     ["16e5198c72da5987", "acc2a13b68c5720a"]),
]


def stdout_digest(text: str) -> str:
    return hashlib.sha256(ELAPSED.sub("", text).encode()).hexdigest()[:16]


def run_pipeline(commands, monkeypatch):
    digests, stdin = [], None
    for args in commands:
        if isinstance(args, dict):
            stdin = json.dumps(args)
            continue
        # Reports echo sys.argv, as a shell invocation would set it.
        monkeypatch.setattr(sys, "argv", ["cosetlab", *args])
        result = CliRunner().invoke(main, args, input=stdin)
        assert result.exit_code == 0, result.output
        digests.append(stdout_digest(result.stdout))
        stdin = json.dumps(json.loads(result.stdout)["outputs"].get("instance"))
    return digests


@pytest.mark.parametrize("commands, expected",
                         [p[1:] for p in PIPELINES], ids=[p[0] for p in PIPELINES])
def test_golden_cli_output(commands, expected, monkeypatch):
    assert run_pipeline(commands, monkeypatch) == expected


def digest_report() -> list[str]:
    """Print each pipeline's pinned and freshly computed digests; return the
    names of the pipelines that differ.  Reads PIPELINES, never rewrites it."""
    moved = []
    for name, commands, pinned in PIPELINES:
        with pytest.MonkeyPatch.context() as monkeypatch:
            try:
                fresh = run_pipeline(commands, monkeypatch)
            except AssertionError as exc:
                fresh = [f"failed: {exc}"]
        print(f"{name}\n  pinned: {' '.join(pinned)}\n  fresh:  {' '.join(fresh)}")
        if fresh != pinned:
            moved.append(name)
    print("differ: " + (", ".join(moved) or "none"))
    return moved


if __name__ == "__main__":
    # python tests/test_cli_golden.py: the digest report, exit 1 if any differ.
    sys.exit(1 if digest_report() else 0)
