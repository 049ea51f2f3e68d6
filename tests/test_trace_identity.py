"""Traces stay byte-identical: gen output is pinned by sha256 digests.

The split4 and grassmann(4,2) pow digests were taken from the code before
the multiplier search was reworked to take contents through G and to
defer roots; the other k-linear digests from the code before k-linear
evaluation moved to integers.  A speed change must keep them; a
deliberate format change replaces them and says so.
"""

import hashlib
from fractions import Fraction

import pytest

from maxsing.cli import EXIT_BUDGET, EXIT_OK, main
from maxsing.multilinear import KLinearMap, prodforms_map, save_map

KLINEAR_POW = ("--phi", "pow", "1/2", "--steps", "8", "--max-height", "4")
SPLIT4_POW = ("--family", "quadric", "--phi", "pow", "1/2", "--steps", "11")
SPLIT4_LOG3X = ("--family", "quadric", "--phi", "log3x", "--steps", "12")
GRASSMANN42_POW = ("--family", "grassmann", "--n", "4", "--k", "2", *KLINEAR_POW)
GRASSMANN52_POW = ("--family", "grassmann", "--n", "5", "--k", "2", *KLINEAR_POW)
PRODFORMS23_POW = ("--family", "prodforms", "--n", "2", "--k", "3", *KLINEAR_POW)
GRASSMANN42_LOG3X = ("--family", "grassmann", "--n", "4", "--k", "2", "--phi", "log3x", "--steps", "12")
RATIONAL_MAP_POW = ("--family", "klinear", "--klinear-file", "{map}", *KLINEAR_POW)


def rational_prodforms_map() -> KLinearMap:
    """prodforms(3, 2) with basis image (i, j) scaled by 1/2 (i even) or 2/3 (i odd).

    The scales differ between (i, j) and (j, i), so the map is not
    symmetric, and its images have denominators 2 and 3.
    """
    base = prodforms_map(3, 2)
    images = {idx: tuple(a * Fraction(1 + idx[0] % 2, 2 + idx[0] % 2) for a in img)
              for idx, img in base.basis_images.items()}
    return KLinearMap(k=2, n=3, target_dim=base.target_dim, basis_images=images)


@pytest.mark.parametrize("args, seed, exit_code, digest", [
    (SPLIT4_POW, 0, EXIT_OK, "1a3650327ec0862e30a4ee29a43b601c2f1697ace7aa04f3e1c986fefe48f805"),
    (SPLIT4_POW, 7, EXIT_OK, "2286dc90642639588a295dcecbc41ed64d7973c71cba52928121009398f1be61"),
    (SPLIT4_LOG3X, 7, EXIT_BUDGET, "37ee8491dafc66df6fc2597c3faa8e09bbc6c195946a42a85a19108698126f35"),
    (GRASSMANN42_POW, 7, EXIT_OK, "8bd30fe685a7ce4d336ca41eb976448b723fe133f65c2b132ca03b16e067e228"),
    (GRASSMANN52_POW, 7, EXIT_OK, "7f62fe7a71e2e269b1fa17e6b0f053ab730a7de51768eced0df0c2a4f3740e6a"),
    (PRODFORMS23_POW, 7, EXIT_OK, "05cf2794ed82ed5504809ee82db660053d9cc539f861ecb47150a9a8cbfb24f5"),
    (GRASSMANN42_LOG3X, 7, EXIT_BUDGET, "f488354487e3fc993a60a9a43fa83f4404e48e3c2845ede62163b2d56a48e3bc"),
    (RATIONAL_MAP_POW, 7, EXIT_OK, "6c40338c6435e486284836529b5c921fe64361b4f5fe6cbcbd7ed2f3ed78f4f7"),
], ids=["split4-pow-seed0", "split4-pow-seed7", "split4-log3x-seed7", "grassmann42-pow-seed7",
        "grassmann52-pow-seed7", "prodforms23-pow-seed7", "grassmann42-log3x-seed7",
        "rational-map-pow-seed7"])
def test_trace_digest(tmp_path, args, seed, exit_code, digest):
    if args is RATIONAL_MAP_POW:
        map_path = tmp_path / "map.json"
        save_map(rational_prodforms_map(), str(map_path))
        args = tuple(str(map_path) if a == "{map}" else a for a in args)
    out = tmp_path / "t.json"
    code = main(["gen", *args, "--seed", str(seed), "--precision-bits", "64", "--out", str(out)])
    assert code == exit_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
