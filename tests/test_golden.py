"""Canonical text pinned by sha256: localized normal forms, the determinant, a
failure witness, the fitted exponent table and suite reports, among them the
suites whose checks are differences and sums of many terms, and the commutation
corrections of both orientations; and the derived suites' reports under
perturbed laws, whose witnesses come from the localized fallback builders.  A
change that must leave behaviour alone has to keep every digest."""

import hashlib
import json

import pytest

from qmv import laws, localize

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


# Laws whose constant is raised by one, so that the localized fallback
# builders make the failing checks and their witnesses: the commutation
# corrections of both orientations, the Lemma 2.3 first-row expansion, and the
# row expansion behind every derived minor.  127 checks fail over these cases.
PERTURBED_LAWS = ("thm25-2prime", "thm25-4prime", "lemma23-eq1", "row-laplace")
FALLBACK = [
    ("lemma111", 3, 3, "909704acf64a38b478e0aa2de29693f28f8e4afae4fc3745666badf00ff57881"),
    ("lemma111", 3, 4, "30aafc53376bf004e9c7059f312d824ed1d5bf3fc509cecd02d0cddcf70065c5"),
    ("lemma111", 4, 4, "d51d7ddc49d8653fd623331041b5640f08dabf09dd31e3a9fa25914b0b32b32c"),
    ("prop112", 3, 3, "d1bd229ac548512c8e62edebbc55e724bb78cbdf78431c14b86a56860d4298c6"),
    ("prop112", 3, 4, "9ea57522e05b12f935ea72bcbc4c841c6bbc8410b43a18980c534046e6c10711"),
    ("prop112", 4, 4, "ea3a1a96939a19efa6b6d7acabee7f4f01cbd150942e51c0e90d02395a5eb39d"),
    ("thm21", 3, 3, "c312d384d8b37526548c2736a6f4c317473b4e304553d3a1361a8346c76bc580"),
    ("thm21", 4, 4, "f825e8fe128712cf275c9ae05e58be3b59a396d6cf2399ab11a1f26b1532faab"),
    ("cor22", 3, 3, "32f4cb9fbb44fb313910836790a2551132115992890c5184f5443239c95db8b3"),
    ("cor22", 3, 4, "d7c41d9be004a9afc6d08a5565be497bb2089cc42f1956751b16525a4a5c9933"),
    ("cor22", 4, 4, "c1bf01d865dfc581f6617ed3bc24368720c5c15fafeba6fa0e3bb6eaafb92262"),
    ("lemma23", 3, 3, "0fa6238a3dcf73f7f417952fac03089d696aee6316a6da90b41847f3614048ac"),
    ("lemma23", 3, 4, "b03ce6e867979d65ae93945da366263ad1c38de54419081f400dfd8732fe842a"),
    ("lemma23", 4, 4, "48ff2166c775070deb2351a538c30c41a4a1ca1728a566ebd2353bc08e5c63b8"),
    ("thm25", 3, 3, "0d5d4efea129a25d17851cb445dbb26fbc3a1425a6708733bd635f675c612b3c"),
    ("thm25", 3, 4, "77576f7883db013da6a7f7c14dddceeee9b29b4eb842003d4995d81458958c60"),
    ("thm25", 4, 4, "5d205d1ef75ddd39986bac58372b7dea2e0b35e82ddca3ad91539bd6d8729d4f"),
]


@pytest.fixture
def perturbed_laws(monkeypatch):
    frozen = laws.law_coefficients

    def perturbed(family):
        law = frozen(family)
        if family in PERTURBED_LAWS:
            law["1"] = law.get("1", 0) + 1
        return law

    monkeypatch.setattr(laws, "law_coefficients", perturbed)
    # derived minors memoize row-laplace results, so no perturbed law may outlive a case
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()
    yield
    for cached in (localize.x_prime, localize._x_prime_minor):
        cached.cache_clear()


@pytest.mark.parametrize("suite,m,n,digest", FALLBACK, ids=[f"{s}-{m}x{n}" for s, m, n, _ in FALLBACK])
def test_fallback_witnesses_under_perturbed_laws_are_unchanged(capsys, perturbed_laws, suite, m, n,
                                                               digest):
    # the exit code and the report without its timings
    code = main(["suite", suite, "--m", str(m), "--n", str(n), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    del report["timings"]
    text = f"{code}\n{json.dumps(report, sort_keys=True)}"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
