"""Golden outputs: the CLI's JSON record and strategy export of bundled
queries, pinned by SHA-256 digest.

Each case runs `run --format json --verify --export-strategy` and hashes the
export file's bytes and the property's record, without its timings and the
export path.  A change to the engines that is meant to keep every output
identical keeps these digests; a change that alters an output on purpose
updates the digest and says which output changed and why.
"""

import hashlib
import json

import pytest

from conftest import model_path
from csgnash.cli import main

# fields that vary between runs (timings) or with the test's scratch path
VOLATILE = ("time", "mdp_time", "constr_time", "strategy_file")

CASES = [
    ("fig1.csg", (), "<<p1:p2>>max=? (P[F<=3 sent1] + P[F<=3 sent2])",
     "731e216e0113750258affeebbe98ac98b67167834e2d75d978992204a82830b5",
     "f737acce2ae0e3e9ea670306f3e48bf9cdd2d1805c3a054c13b05d3804e77de5"),
    ("robot.csg", ("l=3",), "<<p1:p2>>max=? (P[F<=6 goal1] + P[F<=6 goal2])",
     "1c5ee07b4a47e33ee265e26f8b93f838fddbc8ad6f9e5ce55daecb0645deb9c5",
     "092b7b9075fec21bdd21478db583dcda5a6db935109bafb7945ca5485c3bf0c3"),
    ("robot.csg", ("l=3",), "<<p1:p2>>max=? (P[F<=4 goal1] + P[F<=6 goal2])",
     "5c952cff58da05f9e3c784f327d0f814f7e63d0205b24ef4b545a4d9b181682b",
     "58c1f5485d57061ad37ce6c15e94026a8610f08e2b1c935d7509530eb9442dd3"),
    ("robot.csg", ("l=3",), "<<p1:p2>>max=? (P[F goal1] + P[F goal2])",
     "d836d75d294e92843bc99fc37f09d6693285f12b93b4878a0f65e11c4fd6e390",
     "26583ec55ebb41a02a19b94cbf5bdd12c0798a95a98713a89abfd93e6842014f"),
    ("robot.csg", ("l=3",), "<<p1:p2>>max=? (P[F<=4 goal1] + P[F goal2])",
     "514e7467f88336116289c32b905c725a6e528588daa6330369739a37ab3d96c9",
     "223f00d6a20dea7bfaffa2e94b366da7f4630574317fe6908025f8c4444142e0"),
    ("power.csg", (), '<<p1:p2>>max=? (R{"r1"}[F done1] + R{"r2"}[F done2])',
     "360869001f499fa1cc13c7cc400b9bb5c8d74dfad70c429e0b397514eb428369",
     "efde643bd88e44bda0fcd04258842cf51e9a822e858f1d2a96b1714928a974bf"),
    ("mac.csg", ("emax=2",),
     '<<p1:p2>>max=? (R{"r1"}[C<=4] + R{"r2"}[C<=4])',
     "4372175892ed6fa77f2da4fdc763d254c90caa4c43949f18714085da1efb92c1",
     "1e6cc5f8c2401e32327e90a7e362edea948cd6280ae2884aa9161083a504101b"),
    ("aloha.csg", ("D=3",),
     "<<p1:{p2,p3}>>max=? "
     "(P[F (sent1 & t<=8)] + P[F (sent2 & sent3 & t<=8)])",
     "9ae2cabd11c07b40fee099cfddbc18f9ac392ae4d0c46ff138be016f2665f54d",
     "5683f01f7f7932ede0e7fba69daf786da057b7ffe8ce28af353ca95a1c7764fc"),
    ("mac.csg", ("emax=2",),
     '<<p1:p2>>max=? (R{"r1"}[C<=4] + R{"r2"}[C<=6])',
     "d554882b5196645801a862c0636268950f1d278f0391fe5827c4be0dab2a5533",
     "b4567500850eaa802f6b8b2b3a2c709e05cb1b5474b2988e2c1191538562e65b"),
    # a mixed pair, solved exactly (5 states times 4 layers), with no
    # end-component warning
    ("fig1.csg", (), "<<p1:p2>>max=? (P[F<=2 sent1] + P[F sent2])",
     "3e93b4a9a3222f3e649ac2c41a4208e682974e397a6c9bb5e4cb272f99c18df1",
     "63ac982608b0e0b804d030f0e1fd436605cded8d5449463b7a5a8cfad129cedf"),
    # an unbounded pair whose export lists lost modes
    ("robot.csg", ("l=3",),
     "<<p1:p2>>max=? (P[!crash U goal1] + P[!crash U goal2])",
     "89658886f075d0f09b596e02e3246aa493eec9a9ba95e5a158f6c3cd9821400c",
     "36bea337c49ddc4a25913b3b98ce4ff58c04908fe1f763d7821cc1dde900ddbc"),
    # a bounded pair with pads (0, 2), whose memory counts down to step -2
    ("fig1.csg", (), "<<p1:p2>>max=? (P[X sent1] + P[F<=3 sent2])",
     "f085732e7e452dc0d850650cab10bad3cc63e848ed68fa0f34439789e88ca0ab",
     "457b19f1004e7d32fa71ddf5590176b46a572529c80df61c093c685e3f4677a9"),
]


def digests(capsys, tmp_path, model, consts, prop):
    """(export digest, record digest) of one CLI run of `prop`."""
    export = tmp_path / "strategy.json"
    argv = ["run", "--model", model_path(model), "--property", prop,
            "--format", "json", "--verify", "--export-strategy", str(export)]
    for const in consts:
        argv += ["--const", const]
    code = main(argv)
    assert code == 0
    record = json.loads(capsys.readouterr().out)["results"][0]
    for key in VOLATILE:
        record.pop(key, None)
    text = json.dumps(record, sort_keys=True)
    return (hashlib.sha256(export.read_bytes()).hexdigest(),
            hashlib.sha256(text.encode()).hexdigest())


@pytest.mark.parametrize("model,consts,prop,export_sha,record_sha", CASES)
def test_outputs_match_golden_digests(capsys, tmp_path, model, consts, prop,
                                      export_sha, record_sha):
    assert digests(capsys, tmp_path, model, consts, prop) == \
        (export_sha, record_sha)
