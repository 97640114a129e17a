"""Report-bytes guard: cheap CLI cases against recorded digests.

Each case runs in-process through ``cli.run``; the SHA-256 of the canonical
JSON of its ``{results, pass}`` must match the digest recorded here.  A
change that moves a report byte outside ``timings`` fails this test; a
deliberate report change re-records the digests in its own diff.
"""

import hashlib
import json

import pytest

import wordmaplab.cli as cli

# The --hom case reads this file from the test's working directory: S3's
# identity and trivial endomorphism, whose images commute.
HOM_FILE = "hom-S3-d2.json"
HOM_COMPONENTS = [list(range(6)), [0] * 6]

REPORT_DIGESTS = [
    (["verify-theorem", "--group", "S3", "--word", "x1^2"],
     "3d9c674e4347f87c53fb8722e878adc0e9b4e7fc002185d070ae9a707d6384b8"),
    (["verify-theorem", "--group", "Q8", "--word", "x1*x2", "--d", "2"],
     "e04ebb527925b31a54b19a0ed88a380afaa9ea025ee7a33770092668b7be4c58"),
    (["verify-theorem", "--group", "Q8", "--word", "x1*x2", "--d", "2",
      "--samples", "10000", "--seed", "7"],
     "6dfca65889f3b8c4cbc7b30c405730037ff6d9e799c8036aad1625885e85e60e"),
    # 9-wide estimator chunks from the top seed.
    (["verify-theorem", "--group", "S3", "--word", "x1*x2^-1*x3^2",
      "--d", "3", "--samples", "50000", "--seed", "18446744073709551615"],
     "f986891b0a98f2e3ace6c74d60adfd7161bd5b181049bdff9b3e4b172db3fd78"),
    # The last estimator chunk holds one sample.
    (["verify-theorem", "--group", "A4", "--word", "x1^2*x2^3", "--d", "2",
      "--samples", "8193", "--seed", "1"],
     "1416eb5c75b8d5e9bcb642de2fc427d1eef5dfaf82884eb6a5637919204b06b9"),
    # A non-abelian group sampled at d = 1.
    (["verify-theorem", "--group", "S4", "--word", "x1^3",
      "--samples", "20000", "--seed", "3"],
     "57b7aa7c1f3351ea2772713288340864e8fc2bf93b54b38c115b398be958b595"),
    # A given hom at d = 2, scored instead of searched for.
    (["verify-theorem", "--group", "S3", "--word", "x1*x2", "--d", "2",
      "--hom", HOM_FILE],
     "684e5445db3812b3a2f2edc83238544ab24609385165df65fc05cc583158ab14"),
    (["verify-theorem", "--group", "S1", "--word", "x1^2"],
     "949299586cf1857cdc7abadb34dd602d70d69b243bb46632289ee8343df660ad"),
    (["hom-search", "--group", "perm:(1 2 3)(4 5),(1 4)", "--word", "x1^2"],
     "37ef58f4256dd4c8ccf99b37fcd9a3d9bca6bbe32328d4995d6dad488bf9f5b4"),
    (["commuting-probability", "--group", "Q8xD4"],
     "cec6f1e517c4ccbfaf1638a7e2abce57e2c5139da219bffbb3c787440e5792ea"),
    (["fiber-stats", "--group", "S3", "--word", "x1^2"],
     "b8b7f8e3aebd4542a9463a6df6d8134967342953b9e052dac9cfe9f851f07ba2"),
    (["verify-mann", "--group", "D4", "-e", "2"],
     "153b10d66e960727426b6f602241ac498f92316c85e5c964020963963a519597"),
    (["verify-commuting", "--group", "A4"],
     "fc439fb5bf0a4829aab7025c7e387d0e1e9de35f4df636381dbaf866d049bf33"),
    (["verify-lemma", "--fuzz", "20", "--seed", "7"],
     "6ca681dacb7c1675a1541c86ce2718e54a906323fc89ade9a936632a8191e7e9"),
    (["derive-word", "--word", "x1*x2"],
     "99ad2fb93f184baf88e269dc67d8570217474b637cac38e7bf8f3c165b3ca1d4"),
]


@pytest.mark.parametrize("argv,digest", REPORT_DIGESTS,
                         ids=[" ".join(argv) for argv, _ in REPORT_DIGESTS])
def test_report_digest(capsys, monkeypatch, tmp_path, argv, digest):
    monkeypatch.chdir(tmp_path)
    (tmp_path / HOM_FILE).write_text(json.dumps(
        {"components": HOM_COMPONENTS}))
    assert cli.run(argv) == 0
    rep = json.loads(capsys.readouterr().out)
    body = json.dumps({"results": rep["results"], "pass": rep["pass"]},
                      sort_keys=True)
    assert hashlib.sha256(body.encode()).hexdigest() == digest
