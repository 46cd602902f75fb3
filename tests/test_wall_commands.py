"""Byte identity of the wall commands on fixed documents.

``invariant``, ``generic``, ``walls``, ``walls --all`` and ``same-chamber``
run through ``main()`` on a dozen fixed documents, (r, n) up to (5, 3):
generic pairs with large prime denominators, endpoints on relevant and on
irrelevant walls, a first wall deep in subrank 2, both endpoints on walls of
one pattern, rank-1 documents, and malformed or disagreeing documents.  The
sha256 of each exit code and output line was recorded from the per-pattern
implementation that the per-subrank pass replaced (the rank-1 ones once every
wall command refused rank 1), so any change in a wall, its order, a witness
or an error message shows here.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import product

import pytest

from parastab import (
    admissible_rows,
    chamber_fingerprint,
    count_admissible,
    subdegree_bounds,
    weight_system,
)
from parastab.cli import main
from oracles import admissible_types


def doc(r: int, d: int, rows: list[str]) -> dict:
    """A weight document; each row lists one point's weights, space-separated."""
    points = [{"label": f"p{i}", "weights": row.split()} for i, row in enumerate(rows)]
    return {"r": r, "degree": d, "points": points}


def weights(document: dict):
    """The weight system of a document, built with the library."""
    rows = [[Fraction(v) for v in point["weights"]] for point in document["points"]]
    return weight_system(rows, rank=document["r"])


R2_MIXED = ["1/10 7/10", "1/5 3/5"]  # on walls m = 1 and m = -1, irrelevant for even d
R2_ON_WALL = ["0 1/2", "0 1/2"]
R2_NEAR_ZERO = ["0 1/30", "0 1/20"]  # crosses m = 0 on two patterns from R2_MIXED
R4_DEEP = ["1/12 7/24 5/12 17/24", "1/8 5/12 5/8 3/4", "5/24 11/24 17/24 23/24"]
R4_A = ["577/4007 1178/4007 1873/4007 3590/4007", "2365/4007 2641/4007 2883/4007 2934/4007",
        "101/4007 1265/4007 2911/4007 3472/4007"]
R5_A = ["151/10037 542/10037 2455/10037 4407/10037 4823/10037",
        "5897/10037 7507/10037 8020/10037 8567/10037 9785/10037",
        "3274/10037 4261/10037 7645/10037 7955/10037 8376/10037"]
R5_B = ["550/10039 4752/10039 7114/10039 8145/10039 9139/10039",
        "1611/10039 5188/10039 7183/10039 7498/10039 8440/10039",
        "2999/10039 4240/10039 6975/10039 7420/10039 7850/10039"]
R5_ON_WALL = ["2/15 19/30 11/15 5/6 14/15", "1/15 1/6 4/15 11/30 7/15", "0 1/10 1/5 8/15 9/10"]

CASES = {
    "r2-irrelevant-wall": (doc(2, 0, R2_MIXED), doc(2, 0, R2_NEAR_ZERO)),
    "r2-one-pattern": (doc(2, 1, R2_ON_WALL), doc(2, 1, R2_MIXED)),
    "r3-one-point": (doc(3, -1, ["1/8 3/8 7/8"]), doc(3, -1, ["1/9 4/9 5/9"])),
    "r2-eight-points": (
        doc(2, 3, ["121/1009 327/1009", "514/1009 974/1009", "524/1009 662/1009",
                   "880/1009 975/1009", "105/1009 905/1009", "228/1009 916/1009",
                   "615/1009 636/1009", "430/1009 569/1009"]),
        doc(2, 3, ["586/1013 802/1013", "560/1013 862/1013", "748/1013 795/1013",
                   "502/1013 786/1013", "769/1013 791/1013", "451/1013 600/1013",
                   "2/1013 245/1013", "82/1013 628/1013"]),
    ),
    "r3-five-points": (
        doc(3, -4, ["453/4001 1176/4001 3345/4001", "47/4001 401/4001 1841/4001",
                    "2806/4001 3337/4001 3649/4001", "1287/4001 2008/4001 2782/4001",
                    "861/4001 1030/4001 1627/4001"]),
        doc(3, -4, ["1424/4003 1460/4003 3806/4003", "1541/4003 3055/4003 3297/4003",
                    "312/4003 2103/4003 2612/4003", "367/4003 1394/4003 2961/4003",
                    "1196/4003 2203/4003 2283/4003"]),
    ),
    "r4-deep-wall": (doc(4, 1, R4_DEEP), doc(4, 1, R4_A)),
    "r4-four-points": (
        doc(4, -3, ["5956/10007 6043/10007 6917/10007 7554/10007",
                    "1485/10007 6533/10007 9084/10007 9596/10007",
                    "1907/10007 6970/10007 8166/10007 8296/10007",
                    "6523/10007 8045/10007 8595/10007 9833/10007"]),
        doc(4, -3, ["1999/10009 3750/10009 7484/10009 7898/10009",
                    "4112/10009 7690/10009 8939/10009 9171/10009",
                    "5040/10009 6587/10009 8223/10009 8980/10009",
                    "3318/10009 6585/10009 7095/10009 7846/10009"]),
    ),
    "r5-three-points": (doc(5, 4, R5_A), doc(5, 4, R5_B)),
    "r5-first-on-wall": (doc(5, 2, R5_ON_WALL), doc(5, 2, R5_B)),
    "r5-second-on-wall": (
        doc(5, -1, ["85/997 559/997 624/997 856/997 954/997",
                    "123/997 203/997 253/997 635/997 812/997"]),
        doc(5, -1, ["1/30 3/10 7/15 1/2 2/3", "11/30 13/30 3/5 19/30 5/6"]),
    ),
    "r1-rank-one": (doc(1, 0, ["1/3", "1/2"]), doc(1, 0, ["1/4", "2/3"])),
    "degrees-disagree": (doc(2, 0, R2_MIXED), doc(2, 1, R2_MIXED)),
    "not-increasing": (doc(2, 0, ["1/2 1/3"]), doc(2, 0, ["1/3 1/2"])),
    "rank-mismatch": (doc(3, 0, R2_MIXED), doc(3, 0, R2_MIXED)),
}

COMMANDS = {
    "invariant": ["invariant"],
    "generic": ["generic"],
    "walls": ["walls"],
    "walls-all": ["walls", "--all"],
    "same-chamber": ["same-chamber"],
}

HASHES = {
    "r2-irrelevant-wall/invariant": "5b8ad94f8340f2f2347dec660ea5c736b9dc2e31ad47f65929eb212bdcc1b633",
    "r2-irrelevant-wall/generic": "378b42234b5aa429c3b3e33516fc95c8dc64331c2e078e806e60c1730f77e30c",
    "r2-irrelevant-wall/walls": "8c5da0f2d1fa9d56950d1d0e5ac797c9abbb9171dddaf9efafd1833a9a62ec10",
    "r2-irrelevant-wall/walls-all": "90fc4e77f0d00a4f44c24343becaa7f3ea39df41fbb9143f3259655048869e06",
    "r2-irrelevant-wall/same-chamber": "62592b2f50da606c7d266e28e0f5e88d9ea5e1bdea77165a23d686387e4ac0b8",
    "r2-one-pattern/invariant": "057be64c8d25cedcfe75f2ff538ebcbfd1ff635e9f7c68755a5b92a97d9c686c",
    "r2-one-pattern/generic": "145ad30d2a575ead3bc7161cf38ec2f20fb5a9eb6159d5989ab83d5d1ffef5be",
    "r2-one-pattern/walls": "90fc4e77f0d00a4f44c24343becaa7f3ea39df41fbb9143f3259655048869e06",
    "r2-one-pattern/walls-all": "90fc4e77f0d00a4f44c24343becaa7f3ea39df41fbb9143f3259655048869e06",
    "r2-one-pattern/same-chamber": "9abf7871e8fbf6b430f222e8e127ad4ff065c84fe55505907a9b7c83dc688eb3",
    "r3-one-point/invariant": "190e8f3f2f8bbd444ea402ca11a402c6934b6a04efd81a31ee0f419a51e7adf2",
    "r3-one-point/generic": "5efb213de49ca0f00b01cfedd1ddb6e0c31ccd1b71f626864c97b6c903d811f0",
    "r3-one-point/walls": "80010a7a30687d9dd468c4ab3ee4519d0847a67e80cf1800f7041c1735ffeea2",
    "r3-one-point/walls-all": "80010a7a30687d9dd468c4ab3ee4519d0847a67e80cf1800f7041c1735ffeea2",
    "r3-one-point/same-chamber": "c7056d7d426d0a93e2347a03de2ecbbbb03942a7b9079eef66813a1b314d99d3",
    "r2-eight-points/invariant": "c91262fd3cead5185749f4015e77750aab9e71b1219b29537851651e9ff2463c",
    "r2-eight-points/generic": "317e165ba701881a5a2ab35d4e30b24786b75454c6796e896d3b652dde2e7bec",
    "r2-eight-points/walls": "8a2f094921a95a3b84ae520b1dceb945964b944f169faacb19a211d4a6eb3c4b",
    "r2-eight-points/walls-all": "5dcf3ebd4b5f2c67503d7bf6ace325dc22c5f4ff8a9ef747d6a11c900e6461f5",
    "r2-eight-points/same-chamber": "59675ed163cf56c1273bc3aeac742f5d1690bd131db8a5a07ddb8130879e35a0",
    "r3-five-points/invariant": "a8bccc1af8a7865fe451d555ce330d1ad19d54291fd5ebc9c4efd5e62520c4fa",
    "r3-five-points/generic": "495ced4cb0bc4a23d623bfe13127b184a42c80f032c7775bcea6ef2f4fff591a",
    "r3-five-points/walls": "f65aafe00bdbca61aa5886d9a635862648a3403977a8b2685cfd81fb0be87fd1",
    "r3-five-points/walls-all": "84339c8e8618b21cb34ea308b30a166c844a982a8d0aab9e665ac6f6b60fbd6a",
    "r3-five-points/same-chamber": "b5819e2521c238cf3fd0768a570406121cd82db22501398fe658f327f22b7f36",
    "r4-deep-wall/invariant": "09fb03e85e10edf39d1f99c76007f45ec7137b22f47c07773a0071cd132f6f3c",
    "r4-deep-wall/generic": "5bae7a8ad70e68a66ba7c99a8aa49efac548d2ef336878f1ee02df616df0735b",
    "r4-deep-wall/walls": "47ada656c059ae3e19e9145baa25a11be51de54656b00f3ad0f9c63a86935c9a",
    "r4-deep-wall/walls-all": "68737970c14e528ab5fec448d3b7f1c10e41d7c2b81c2c932030c46da484fc1a",
    "r4-deep-wall/same-chamber": "fe64db80b49d259cc02e353d401b244277883b86415367b4c1e5d214d09fcd5c",
    "r4-four-points/invariant": "c6c01dd8508a605e721ff828dcbc2d9d00b054f1b87562ed0dcbff9080cbba45",
    "r4-four-points/generic": "e52c07f75f5aa065a9bd52b9c10c00388101be294121011b3894cf58518c7707",
    "r4-four-points/walls": "828273cbb77e9bca62b24d87b05c1c60e4d2092d3dd7391a4474eaa2b19dbfe6",
    "r4-four-points/walls-all": "b384d2de75f7a7c8bb7d4b2dac7bdca1155496613a860bf64d23891b687be939",
    "r4-four-points/same-chamber": "f8b3b5b3198c5fa1fb2e2d01e6f9e24c09de40a1178fef56444e71bae29c0877",
    "r5-three-points/invariant": "cf6bf93a795b35d2834c66753c9c33203ebd1c7369653592ef80a06a88f1dc58",
    "r5-three-points/generic": "a8883ea9ed34e6ef4c81a33e80ca173939ab4ef934fc921dd47b483c4c410ab6",
    "r5-three-points/walls": "7dcfec23b9c95cfa55a48f4341f1db6a2b7157670f17e9a568bed46f0852248a",
    "r5-three-points/walls-all": "4d6f873474a95db719108c143704b6ef207bed51689ca80018a661116ad2e19e",
    "r5-three-points/same-chamber": "4a469ac61390251a780ff58c1f11f1db8df5c28980bfaa58fc4a2f02a6af064e",
    "r5-first-on-wall/invariant": "fd45f091b6ab42502ca10209f34886aec96756cb2a69cdf03c061c14309eca9e",
    "r5-first-on-wall/generic": "499b077ae7ad822362add95c7b48dd7422d413c49c1f0d9e6f5ec53d0d3b3c9f",
    "r5-first-on-wall/walls": "946303b130bfe5775a6d3b84a1c51a9def442c9d9cf8f872e3682ea600da2df6",
    "r5-first-on-wall/walls-all": "9191a49288048c88e59f362a95748eeebac1c74937e821de002d5f1c199ede81",
    "r5-first-on-wall/same-chamber": "d01e18ad4766138b11caf38ee10fe086d38e8949be67d41dd0a38daf2671975e",
    "r5-second-on-wall/invariant": "8eee6fb683a1c96a295527430a6e25a7603092bd11a990dc509dc119263eac51",
    "r5-second-on-wall/generic": "b036c24b108b0e2675274341e84d7c7a7895f434d146a5e53111335567e92bb9",
    "r5-second-on-wall/walls": "21258652c7b1cb6a538e5cb617fda8887c8b16babdb31e39d5cdb9bf739e83d5",
    "r5-second-on-wall/walls-all": "3417bc44e89a70895bc32abb6fe3a2ac39a54de5e47291d85c066a6b8376d1a2",
    "r5-second-on-wall/same-chamber": "c7056d7d426d0a93e2347a03de2ecbbbb03942a7b9079eef66813a1b314d99d3",
    "r1-rank-one/invariant": "db33aacf2375ef8afd8fa30f84ee0a72578f7774ead6976222c278525e92d871",
    "r1-rank-one/generic": "db33aacf2375ef8afd8fa30f84ee0a72578f7774ead6976222c278525e92d871",
    "r1-rank-one/walls": "db33aacf2375ef8afd8fa30f84ee0a72578f7774ead6976222c278525e92d871",
    "r1-rank-one/walls-all": "db33aacf2375ef8afd8fa30f84ee0a72578f7774ead6976222c278525e92d871",
    "r1-rank-one/same-chamber": "db33aacf2375ef8afd8fa30f84ee0a72578f7774ead6976222c278525e92d871",
    "degrees-disagree/invariant": "5b8ad94f8340f2f2347dec660ea5c736b9dc2e31ad47f65929eb212bdcc1b633",
    "degrees-disagree/generic": "378b42234b5aa429c3b3e33516fc95c8dc64331c2e078e806e60c1730f77e30c",
    "degrees-disagree/walls": "8f2d946cb9b3eddd7cffe75ec2daaada4c86207bf336cf31c017eca0010899d8",
    "degrees-disagree/walls-all": "8f2d946cb9b3eddd7cffe75ec2daaada4c86207bf336cf31c017eca0010899d8",
    "degrees-disagree/same-chamber": "8f2d946cb9b3eddd7cffe75ec2daaada4c86207bf336cf31c017eca0010899d8",
    "not-increasing/invariant": "f8bc443ae7e160ca0634dc9a2071ae6e6dcc77c0d85f4902a51736eff516e1e9",
    "not-increasing/generic": "f8bc443ae7e160ca0634dc9a2071ae6e6dcc77c0d85f4902a51736eff516e1e9",
    "not-increasing/walls": "f8bc443ae7e160ca0634dc9a2071ae6e6dcc77c0d85f4902a51736eff516e1e9",
    "not-increasing/walls-all": "f8bc443ae7e160ca0634dc9a2071ae6e6dcc77c0d85f4902a51736eff516e1e9",
    "not-increasing/same-chamber": "f8bc443ae7e160ca0634dc9a2071ae6e6dcc77c0d85f4902a51736eff516e1e9",
    "rank-mismatch/invariant": "f2a2c57294349a680998378bfdb289ea684e9b27516d5d27106810d55111b59f",
    "rank-mismatch/generic": "f2a2c57294349a680998378bfdb289ea684e9b27516d5d27106810d55111b59f",
    "rank-mismatch/walls": "f2a2c57294349a680998378bfdb289ea684e9b27516d5d27106810d55111b59f",
    "rank-mismatch/walls-all": "f2a2c57294349a680998378bfdb289ea684e9b27516d5d27106810d55111b59f",
    "rank-mismatch/same-chamber": "f2a2c57294349a680998378bfdb289ea684e9b27516d5d27106810d55111b59f",
}


def run(argv: list[str], stdin: dict) -> tuple[int, str]:
    out, saved = io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(stdin))
    try:
        with redirect_stdout(out):
            code = main([*argv, "--json"])
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def output_hash(case: str, command: str) -> str:
    first, second = CASES[case]
    single = command in ("invariant", "generic")
    code, out = run(COMMANDS[command], first if single else {"first": first, "second": second})
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", CASES)
def test_wall_command_output_is_unchanged(case, command):
    assert output_hash(case, command) == HASHES[f"{case}/{command}"]


def payload(case: str, command: str) -> tuple[int, dict]:
    first, second = CASES[case]
    single = command in ("invariant", "generic")
    code, out = run(COMMANDS[command], first if single else {"first": first, "second": second})
    return code, json.loads(out)


def test_rank_one_same_chamber_is_the_rank_error():
    """Every wall command refuses rank 1 with the fingerprint's rank error, exit 1."""
    error = {"error": {"kind": "domain", "message": "requires r >= 2 and n >= 1"}}
    for command in COMMANDS:
        assert payload("r1-rank-one", command) == (1, error)


def test_generic_off_every_wall_has_no_degree_witness():
    code, out = payload("r5-second-on-wall", "generic")
    assert code == 0
    assert out == {
        "degree": -1, "degree_generic": True, "degree_witness": None,
        "generic": True, "witness": None,
    }


@pytest.mark.parametrize("case", ["r5-second-on-wall", "r2-one-pattern", "r3-one-point"])
def test_same_chamber_on_a_relevant_wall_compares_fingerprints(case):
    """An endpoint on a relevant wall: ``walls`` is null and ``same`` is fingerprint equality."""
    first, second = CASES[case]
    w1, w2 = weights(first), weights(second)
    d = first["degree"]
    same = chamber_fingerprint(w1, d) == chamber_fingerprint(w2, d)
    assert payload(case, "same-chamber") == (0, {"degree": d, "same": same, "walls": None})
    assert payload(case, "walls")[0] == 1


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("r", range(2, 6))
def test_invariant_rows_are_the_admissible_types(r, n):
    """The rows ``invariant`` reports, against the validated patterns.

    Independently of both: every 0/1 row of a proper sum k, sorted by its
    picks, and their n-fold products by subrank.
    """
    rows = list(admissible_rows(r, n))
    assert rows == [t.rows for t in admissible_types(r, n)]
    ordered = sorted(product((0, 1), repeat=r), key=lambda v: [i for i, x in enumerate(v) if x])
    by_sum = [[v for v in ordered if sum(v) == k] for k in range(1, r)]
    assert rows == [p for same_sum in by_sum for p in product(same_sum, repeat=n)]
    assert len(rows) == count_admissible(r, n)
    w = doc(r, 0, [" ".join(f"{k}/{r}" for k in range(r))] * n)
    code, out = run(["invariant"], w)
    assert code == 0
    assert json.loads(out)["types"] == json.loads(json.dumps(rows))
    lower, upper = subdegree_bounds(r, 0, n)
    expected = {
        "r": r, "n": n, "degree": 0, "types": rows,
        "values": chamber_fingerprint(weights(w), 0),
        "bounds": {"lower_open": str(lower), "upper": str(upper)},
    }
    assert out == json.dumps(expected, sort_keys=True, separators=(",", ":")) + "\n"
