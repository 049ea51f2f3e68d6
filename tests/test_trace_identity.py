"""Traces stay byte-identical: gen output is pinned by sha256 digests.

The digests were taken from the code before the multiplier search was
reworked to take contents through G and to defer roots.  A speed change
must keep them; a deliberate format change replaces them and says so.
"""

import hashlib

import pytest

from maxsing.cli import EXIT_BUDGET, EXIT_OK, main

SPLIT4_POW = ("--family", "quadric", "--phi", "pow", "1/2", "--steps", "11")
SPLIT4_LOG3X = ("--family", "quadric", "--phi", "log3x", "--steps", "12")
GRASSMANN42_POW = ("--family", "grassmann", "--n", "4", "--k", "2", "--phi", "pow", "1/2",
                   "--steps", "8", "--max-height", "4")


@pytest.mark.parametrize("args, seed, exit_code, digest", [
    (SPLIT4_POW, 0, EXIT_OK, "1a3650327ec0862e30a4ee29a43b601c2f1697ace7aa04f3e1c986fefe48f805"),
    (SPLIT4_POW, 7, EXIT_OK, "2286dc90642639588a295dcecbc41ed64d7973c71cba52928121009398f1be61"),
    (SPLIT4_LOG3X, 7, EXIT_BUDGET, "37ee8491dafc66df6fc2597c3faa8e09bbc6c195946a42a85a19108698126f35"),
    (GRASSMANN42_POW, 7, EXIT_OK, "8bd30fe685a7ce4d336ca41eb976448b723fe133f65c2b132ca03b16e067e228"),
], ids=["split4-pow-seed0", "split4-pow-seed7", "split4-log3x-seed7", "grassmann42-pow-seed7"])
def test_trace_digest(tmp_path, args, seed, exit_code, digest):
    out = tmp_path / "t.json"
    code = main(["gen", *args, "--seed", str(seed), "--precision-bits", "64", "--out", str(out)])
    assert code == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
