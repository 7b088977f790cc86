"""Golden CLI transcripts: seeded commands whose stdout is pinned by digest.

Each pipeline runs in process, feeding ``outputs.instance`` of one report to
the next command on stdin.  A report's digest is the SHA-256 of its stdout
with the ``elapsed_s`` line removed, so any change to a query, an answer, a
counter or the report layout shows up here.
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

# (name, commands, digest of each command's stdout)
PIPELINES = [
    ("readme-s3-querylog",
     [["plant", "hsp", "--group", "s3", "--subgroup", "(1 2 3)"],
      ["search-via-decision", "--emit-querylog"]],
     ["64a82fa1d7d64a07", "d5f02a086214831f"]),
    ("readme-z4-coset",
     [["plant", "coset", "--group", "z4", "--subgroup", "2", "--shift", "1"],
      ["reduce"], ["solve"]],
     ["ea9db15d0f798767", "2bf83e61bc51ab8c", "66930acf814bd316"]),
    ("readme-d60-dihedral",
     [["plant", "hsp", "--group", "d60", "--subgroup", "r37s"],
      ["search-via-decision", "--smooth-bound", "5"]],
     ["9b7500c7d39bc62c", "828bd5943ea9c454"]),
    ("readme-s3-check-always-trivial",
     [S3_C2, ["--seed", "1", "check", "--program", "buggy:always-trivial",
              "--k", "7", "--runs", "100"]],
     ["d374655a4ae6faea", "e8afb20970917903"]),
    ("s4-querylog",
     [["plant", "hsp", "--group", "s4", "--subgroup", "(1 2)(3 4)"],
      ["search-via-decision", "--emit-querylog"]],
     ["2f288207a0368962", "7532e3e3a27970bc"]),
    ("s4-trivial-querylog",
     [["plant", "hsp", "--group", "s4"], ["search-via-decision", "--emit-querylog"]],
     ["2cb5e3611a9cbc6b", "0083f4fdca55b312"]),
    ("s3-shift-search",
     [["plant", "coset", "--group", "s3", "--subgroup", "", "--shift", "(1 2 3)"],
      ["--seed", "4", "search-via-decision"]],
     ["68570faa49efecfe", "52dc7c1bf5b61f51"]),
    ("check-decision-bruteforce",
     [S3_C2, ["--seed", "5", "check", "--k", "3", "--runs", "2"]],
     ["d374655a4ae6faea", "13dedcb51adcfd90"]),
    ("check-decision-bruteforce-trivial",
     [S3_TRIVIAL, ["--seed", "6", "check", "--k", "2"]],
     ["f3bf7242b5f42ac5", "245d35e9f558dde9"]),
    ("check-decision-always-nontrivial",
     [S3_TRIVIAL, ["--seed", "7", "check", "--program", "buggy:always-nontrivial",
                   "--k", "3", "--runs", "2"]],
     ["f3bf7242b5f42ac5", "76b77296ec6e375b"]),
    ("check-decision-flip",
     [S3_TRIVIAL, ["--seed", "8", "check", "--program", "buggy:flip:0.3",
                   "--k", "3", "--runs", "3"]],
     ["f3bf7242b5f42ac5", "d66cd83a2329c87e"]),
    ("check-search-bruteforce",
     [S3_C2, ["--seed", "9", "check", "--flavor", "search", "--k", "3"]],
     ["d374655a4ae6faea", "957a037fe82ee441"]),
    ("check-search-always-trivial",
     [S3_C2, ["--seed", "10", "check", "--flavor", "search",
              "--program", "buggy:always-trivial", "--k", "3", "--runs", "2"]],
     ["d374655a4ae6faea", "d223abf14f3a7fa1"]),
    ("check-search-always-nontrivial",
     [S3_TRIVIAL, ["--seed", "11", "check", "--flavor", "search",
                   "--program", "buggy:always-nontrivial", "--k", "3", "--runs", "2"]],
     ["f3bf7242b5f42ac5", "120eb7339020308b"]),
    ("check-search-flip",
     [S3_C2, ["--seed", "12", "check", "--flavor", "search",
              "--program", "buggy:flip:0.3", "--k", "3", "--runs", "3"]],
     ["d374655a4ae6faea", "fd337a8bce82257b"]),
    ("z5-shift-chain",
     [["plant", "ghsh", "--group", "z5", "--shift", "2", "--copies", "3"],
      ["reduce"], ["solve"]],
     ["3b6edc3a4bafdb7a", "51a05a71c450f4bd", "bb4e9fdf675e848f"]),
    ("cyclic4-orbit-coset",
     [["plant", "orbit-coset", "--action", "cyclic:4", "--phi1", "1", "--shift", "2"],
      ["reduce"], ["solve"]],
     ["9219fe79a3648070", "6e839f5baa126602", "f3137d7acac5dcc3"]),
    ("two-orbit-disjoint",
     [["plant", "orbit-coset", "--action", "two-orbit:6:2:3", "--phi1", "1",
       "--shift", "none"],
      ["solve"]],
     ["627c72e6d5db3b7f", "86533eeab9f51bec"]),
    ("s3-coset-solve",
     [["plant", "coset", "--group", "s3", "--subgroup", "(1 2)", "--shift", "(1 3)"],
      ["solve"]],
     ["1da3465ca35ad5f6", "2e8cdf7865f502ee"]),
    ("s3-shift-chain-solve",
     [["plant", "ghsh", "--group", "s3", "--shift", "(1 2 3)", "--copies", "3"], ["solve"]],
     ["fc4feadc8a0188ef", "1cf64fd2d0939a73"]),
    ("two-orbit-reduce",
     [["plant", "orbit-coset", "--action", "two-orbit:6:2:3", "--phi1", "3",
       "--shift", "4"],
      ["reduce"], ["solve"]],
     ["6e95e5fbb57e0d56", "f6687c74e4838fd3", "1076c3299a04bc75"]),
    ("d12-dihedral-smooth-bound-3",
     [["plant", "hsp", "--group", "d12", "--subgroup", "r5s"],
      ["search-via-decision", "--smooth-bound", "3"]],
     ["3f84e1ad83984ead", "01864681bff8d5e3"]),
    ("check-decision-wrong-if-order-gt-6-seed-13",
     [S3_C2, ["--seed", "13", "check", "--flavor", "decision",
              "--program", "buggy:wrong-if-order-gt:6", "--k", "3"]],
     ["d374655a4ae6faea", "5945454cb46efb63"]),
    ("check-decision-wrong-if-order-gt-6-seed-14",
     [S3_C2, ["--seed", "14", "check", "--flavor", "decision",
              "--program", "buggy:wrong-if-order-gt:6", "--k", "3"]],
     ["d374655a4ae6faea", "9144714c4ed088bb"]),
    ("check-search-wrong-if-order-gt-6-seed-13",
     [S3_C2, ["--seed", "13", "check", "--flavor", "search",
              "--program", "buggy:wrong-if-order-gt:6", "--k", "3"]],
     ["d374655a4ae6faea", "70476c8ad58a50da"]),
    ("check-search-wrong-if-order-gt-6-seed-14",
     [S3_C2, ["--seed", "14", "check", "--flavor", "search",
              "--program", "buggy:wrong-if-order-gt:6", "--k", "3"]],
     ["d374655a4ae6faea", "fc9ef51342633cdb"]),
]


def stdout_digest(text: str) -> str:
    return hashlib.sha256(ELAPSED.sub("", text).encode()).hexdigest()[:16]


def run_pipeline(commands, monkeypatch):
    digests, stdin = [], None
    for args in commands:
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
