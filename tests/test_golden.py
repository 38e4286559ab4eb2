"""Canonical text pinned by sha256: localized normal forms, the determinant, a
failure witness, the fitted exponent table and suite reports, among them the
suites whose checks are differences and sums of many terms, and the commutation
corrections of both orientations.  A change that must leave behaviour alone has
to keep every digest."""

import hashlib
import json

import pytest

from qmv.cli import main

GOLDEN = [
    (["normalize", "--n", "3", "inv1n^2*X[1,3]*X[2,1] + Xp[2,1]*Xp[3,2]*inv1n"],
     "6fe4c3cd0f8707ee717906fe6aea45c2ff85705399938b72609b709605375642"),
    (["normalize", "--n", "3", "X[2,3]*inv1n*X[1,1] - inv1n^3*M[{1,2}|{2,3}]"],
     "c1bc81a901c92a21ce2395faea573d328b907f923a1c9a17018987ca9bb96e09"),
    (["normalize", "--n", "4", "Mp[{2,4}|{1,3}]"],
     "ea0ec87bb72768264d2d632c738c2aa8ea57e170a006b4fe2d9a5fae1094b09d"),
    (["det", "--n", "4"],
     "1d88ad8d2b96d0f1b9e26b9030c28eed890671bab9a9e8026a3b6716223b358a"),
    (["equal", "--n", "4", "Mp[{2,3,4}|{1,2,3}]*X[1,4]", "q*Dq@4"],
     "f707748fd468707cc8a123f8738ab94b872b5eb7b780e3e3ca54a890ccdf44b4"),
    (["fit-exponents", "--format", "json"],
     "b601dbf88e7829d6bb561824f1f6a24b5dec51517edc498b9b13b0fe16eb4b0b"),
    (["suite", "jordan-obstruction", "--n", "4", "--format", "json"],
     "3403bce33aebe3f4e351cb5a7b124f8a007d30d3cf5db342df8a9eb4fc2825ee"),
    (["suite", "lemma111", "--n", "3", "--format", "json"],
     "3688a346cffbf42af2ff0c00550a91d0f580a2d71bd9499e70affd535af5aed8"),
    (["suite", "prop112", "--n", "3", "--format", "json"],
     "0528a4556d3b4c7621e320372c51b9be7f632d26b347a640adf4df60eb5f8e1d"),
    (["suite", "centrality", "--n", "4", "--format", "json"],
     "690db8eba148a1ec03a335d673969873bb5841f3c26d977840ecc8e3d1f94d00"),
    (["suite", "laplace", "--n", "4", "--format", "json"],
     "b8805bd4660f0d3f8d9bbe19dcd7027b14276240ed741c855f4fa3ffbd5de1c4"),
    (["suite", "lemma23", "--n", "4", "--format", "json"],
     "6da6e9aea00d7294f155c29801be9aeaf1e535f7689d46657465a67e0ae49deb"),
    (["suite", "thm25", "--n", "4", "--format", "json"],
     "f347f19a65e0d435ce54b97081186f9b48356199dd7f37d4da2497439b89c689"),
    (["fit-exponents"],
     "04f5eaa9cba60b025cf3033d903ba60a84432c3134f3a33dc4ed67dc621e9694"),
    (["suite", "thm25", "--m", "3", "--n", "4", "--format", "json"],
     "0ab7770590d40b5937bf28dc4533c42009a7631f1feae237fcfc9f32af9b2a22"),
    (["suite", "thm25", "--m", "4", "--n", "3", "--format", "json"],
     "1d7455f17a8d13c4b2b5399c6f2786aa97224d4a8bd491e9400717246e9f3276"),
    (["suite", "cor22", "--n", "4", "--format", "json"],
     "d87f3008d0cccadf1c03cdaac0d51d9e9b7ac044f0d3843b18e4ba3f8ce3e396"),
    (["suite", "lemma23", "--m", "3", "--n", "4", "--format", "json"],
     "6a77fa6a362231b7935840ee7119c6c2d1e05bdfeed917126bab9a7d3cd3df1c"),
    (["suite", "lemma23", "--m", "4", "--n", "3", "--format", "json"],
     "0e1912fe2450d6022feb3a3dea269b43b46705f42d9c2b61008d95e7a0e07b85"),
]


IDS = ["normalize-3x3-sum", "normalize-3x3-difference", "normalize-4x4-Mp", "det-4", "equal-4-fails",
       "fit-exponents", "jordan-obstruction-4", "lemma111-3", "prop112-3",
       "centrality-4", "laplace-4", "lemma23-4", "thm25-4",
       "fit-exponents-text", "thm25-3x4", "thm25-4x3", "cor22-4", "lemma23-3x4", "lemma23-4x3"]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=IDS)
def test_canonical_output_is_unchanged(capsys, argv, digest):
    code = main(argv)
    out = capsys.readouterr().out
    if argv[0] == "suite":
        # suite reports are pinned without their timings
        report = json.loads(out)
        del report["timings"]
        text = json.dumps(report, sort_keys=True)
    else:
        text = f"{code}\n{out}"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
