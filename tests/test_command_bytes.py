"""Byte identity of ``aut``, ``iso``, the matrix commands and ``fixtures`` on fixed inputs.

Each case runs through ``main()`` in-process; the sha256 of its exit code and
output line was recorded before ``automorphism_group`` and ``iso_transforms``
stopped taking the rank, point count and genus that their weight system and
curve already carry, so any change in a class list, an order, a report or an
error message shows here.  Cases cover generic and on-wall weights, strict
mode, curve relabelings, documents of different point counts, monomial and
non-monomial determinants, the Laurent fallback of the determinant, and the
rank-1, inner and exponent-pattern matrix commands.  Five hashes were
recorded again since, for three deliberate changes: ``hecke/starved``
when the Hecke check became exact (a report at any ``--precision``, where a
precision error was), ``iso/point-counts`` when documents of different
point counts became an input error like documents of different ranks, and
``iso/match``, ``iso/match-back`` and ``iso/perms`` when documents that
give different genera did (their pairs are genus 3 against genus 2).  The
``*-same-genus`` cases give the image genus 3 and keep the hashes those
three had before.  The ``fixtures`` case pins the claims table's output,
whose line alone has sha256 ``afbb0078...5af2``.

The help text of ``parastab -h`` and of every ``parastab <command> -h`` is
pinned the same way, at 80 columns, as CPython 3.11's argparse lays it out,
so a change to how the argument tree is built cannot change a byte of it.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout

import pytest

from parastab.cli import main


def doc(r: int, d: int, rows: list[str], **curve) -> dict:
    """A weight document with points x, y, z, ...; each row lists one point's weights."""
    points = [{"label": "xyzw"[i], "weights": row.split()} for i, row in enumerate(rows)]
    return {"r": r, "degree": d, "points": points, **curve}


# the rank-2 fixture, on walls
R2_WALL = doc(
    2, 0, ["1/10 7/10", "1/5 3/5"], genus=2,
    symmetries=[{"perm": ["y", "x"], "multiplicity": 1}],
)
R2_GENERIC = doc(
    2, 1, ["1/7 5/7", "2/9 8/9", "1/11 3/11"], genus=3,
    symmetries=[
        {"perm": ["y", "x", "z"], "multiplicity": 2}, {"perm": [2, 1, 0], "multiplicity": 1}
    ],
)
# R2_GENERIC moved by the transform (perm (1, 0, 2), sign 1, tdeg 0, hecke (1, 0, 1))
R2_IMAGE = doc(2, -1, ["0 2/3", "0 3/7", "0 9/11"], genus=2)
# the same image over a curve of R2_GENERIC's genus
R2_IMAGE_G3 = {**R2_IMAGE, "genus": 3}
R3_GENERIC = doc(3, -1, ["1/13 5/13 11/13", "3/17 7/17 16/17"], genus=1)
R3_WALL = doc(3, -1, ["1/8 3/8 7/8"], genus=2)


def z(exp: int, coeff: str = "1") -> dict:
    return {str(exp): coeff}


CASES = {
    "aut/r2-wall": (["aut"], R2_WALL),
    "aut/r2-wall-strict": (["aut", "--strict"], R2_WALL),
    "aut/r2-generic": (["aut"], R2_GENERIC),
    "aut/r2-generic-strict": (["aut", "--strict"], R2_GENERIC),
    "aut/r3-generic-strict": (["aut", "--strict"], R3_GENERIC),
    "aut/r3-wall": (["aut"], R3_WALL),
    "iso/match": (["iso"], {"first": R2_GENERIC, "second": R2_IMAGE}),
    "iso/match-back": (["iso"], {"first": R2_IMAGE, "second": R2_GENERIC}),
    "iso/perms": (["iso", "--perms", '[["y","x","z"],[2,1,0]]'],
                  {"first": R2_GENERIC, "second": R2_IMAGE}),
    "iso/match-same-genus": (["iso"], {"first": R2_GENERIC, "second": R2_IMAGE_G3}),
    "iso/match-back-same-genus": (["iso"], {"first": R2_IMAGE_G3, "second": R2_GENERIC}),
    "iso/perms-same-genus": (["iso", "--perms", '[["y","x","z"],[2,1,0]]'],
                             {"first": R2_GENERIC, "second": R2_IMAGE_G3}),
    "iso/strict-error": (["iso", "--strict"], {"first": R3_WALL, "second": R3_WALL}),
    "iso/point-counts": (["iso"], {"first": R2_WALL, "second": R2_IMAGE}),
    "iso/unrelated": (["iso"], {"first": R2_WALL, "second": doc(2, 0, ["1/3 1/2", "0 1/4"])}),
    "hecke/monomial": (["matrix-hecke"], [[0, 1], [z(1), 0]]),
    "hecke/not-integral": (["matrix-hecke"], [[z(1), 0], [0, 1]]),
    "hecke/certified": (["matrix-hecke"], [[z(1), 0], [0, [[0, "1"], [1, "-1"]]]]),
    "hecke/starved": (["matrix-hecke", "--precision", "1"],
                      [[z(1), 0], [0, [[0, "1"], [1, "-1"]]]]),
    "hecke/singular": (["matrix-hecke"], [[1, 1], [1, 1]]),
    "hecke/non-square": (["matrix-hecke"], [[1, 2]]),
    "hecke/sparse": (["matrix-hecke"], [[z(100000), 1], [1, {"0": "1/2", "-1": "3"}]]),
    "mp/pair": (["matrix-mp"], {"a": [[0, 1], [z(1), 0]], "b": [[0, z(-1)], [1, 0]]}),
    "mp/pair-inner": (["matrix-mp", "--check-inner"],
                      {"a": [[0, 1], [z(1), 0]], "b": [[0, z(-1)], [1, 0]]}),
    "mp/not-inner": (["matrix-mp", "--check-inner"],
                     {"a": [[1, 2], [3, 4]], "b": [[1, 0], [z(1), 1]]}),
    "rank1/yes": (["matrix-rank1"], [[1, 2], [2, 4]]),
    "rank1/no": (["matrix-rank1"], [[1, 0], [0, 1]]),
    "rank1/zero": (["matrix-rank1"], [[0, 0], [0, 0]]),
    "rank1/laurent": (["matrix-rank1"], [[z(1), z(2, "2")], [z(-1, "1/3"), "2/3"]]),
    "xi/1": (["matrix-xi", "--n", "1"], None),
    "xi/2": (["matrix-xi", "--n", "2"], None),
    "xi/3": (["matrix-xi", "--n", "3"], None),
    "fixtures": (["fixtures"], None),
}

HASHES = {
    "aut/r2-wall": "00fdd4326d17306f7fc50d35c9a7c17fd481d9b84b5723d6770f57c8831bee77",
    "aut/r2-wall-strict": "ad6579414792393980a1414d0ff7f178b51481df12abe28f57b2e000583a6bcb",
    "aut/r2-generic": "4c71b9d01fedb5de938e340c6f21e99da9698dbfcaab17e40cf485978d91d1a7",
    "aut/r2-generic-strict": "4c71b9d01fedb5de938e340c6f21e99da9698dbfcaab17e40cf485978d91d1a7",
    "aut/r3-generic-strict": "b189457fca22898b7f6bc7ad5403f33ea04b8843fcfe2e5fc3e19e631e3b2d5f",
    "aut/r3-wall": "f8b46d9bfc1edccc06d083a28759c38bed0a1e67c5e696e4c62944b514b8674d",
    "iso/match": "b5690d3f1a8252ae5ee0291977aa0038b06cc6a230359361f6203f7ae360511b",
    "iso/match-back": "b5690d3f1a8252ae5ee0291977aa0038b06cc6a230359361f6203f7ae360511b",
    "iso/perms": "b5690d3f1a8252ae5ee0291977aa0038b06cc6a230359361f6203f7ae360511b",
    "iso/match-same-genus": "68b1a09bb865ffbee16dd07c5b3d0e7a07078fa82aa11758360c82d0289069b6",
    "iso/match-back-same-genus": "f96b51d872b1234f03aa79623dab8920941b4ea9cc447668195cefdf2ba9ecee",
    "iso/perms-same-genus": "45d4cb4f51fa74c4a9688216e62efc37aeac752c22240b8bc11373b5240d8c71",
    "iso/strict-error": "81a33e1fcfce2cc2e20d1b9326b29ce5e83bcec1d703e48f7f37c04ce24110e0",
    "iso/point-counts": "5e1ea9b3ee293502b32c789120d4c4aa80a3dea2418396ec31915a3bc859d3fb",
    "iso/unrelated": "36952cf552acb9fffa0b72b969760481bc9986641ecae15b28b7466269421cbb",
    "hecke/monomial": "97f2d764470dd98cc35b1fcfab409f998cb6702bead00eb94cfd6e444872777e",
    "hecke/not-integral": "97a01e2769ed8292831869be000da2f4436b91a2ea940d922e9d0ecb84da31b1",
    "hecke/certified": "97a01e2769ed8292831869be000da2f4436b91a2ea940d922e9d0ecb84da31b1",
    "hecke/starved": "4372ed4ca57aa8d29a88b3f5ded35795cfc1b156868b21c0f3504feb7129e171",
    "hecke/singular": "af13c9a7e2af737bafeddc802c1eac61e0720d98ab21ac9d0325f3259f7f1f9f",
    "hecke/non-square": "4ea3d6e3dcb3bac029405813d3ba34e3a6f7fa929e790e3b221405d8d9bc2186",
    "hecke/sparse": "5b2ac3d7ed85c879b29a06d856f674de21a6b2461ae89060879302b15689d7e4",
    "mp/pair": "6f80207bc4baba9ed2d31b33b6c396798c217a26cef755e264d9e9b20961a1aa",
    "mp/pair-inner": "8c8032ee5a82f81982aa8ea4b81c38b366a43fc8db5859134f17f3ed512e51aa",
    "mp/not-inner": "3ccdf593354a2d6cd978957c1d9c9881d8e6504343b6f1210c87fa63d5435a85",
    "rank1/yes": "2eb7e07d01ca169dd38c47107272dc1057da1593de5eb1c96bdd540fbd51b466",
    "rank1/no": "580667e5f019bdf2fbb6325f37f158b7b5650f54d6863a42034fe80ebda43f6f",
    "rank1/zero": "20c036edd83253af0a801f9fa3d5a27e7cf6b94865746b1b523f7ee75848709e",
    "rank1/laurent": "c68f65a772c7052d470ccad72312587fe42993c6e6ab9d664e5f1df29cdfbeeb",
    "xi/1": "ef71f91a388e95f1e6c97fa22123bdf77352d33c6049f7db52182f5a478459e4",
    "xi/2": "8f4f99b3c7a3b4e14fa66918374765936763dd0c08d1f2dd390871ac52663a59",
    "xi/3": "0072c7a4d3c1ef60bba47bc30bf58db9e697f9d33daed6fc986b637a15163d7f",
    "fixtures": "d8d1d30ba8d4f97bfe28e8ab02912f37e63537d68baa5b8032f67957d90c5e5b",
}


def run(argv: list[str], stdin) -> tuple[int, str]:
    out, saved = io.StringIO(), sys.stdin
    if stdin is not None:
        argv = [*argv, "--json"]
        sys.stdin = io.StringIO(json.dumps(stdin))
    try:
        with redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def output_hash(case: str) -> str:
    code, out = run(*CASES[case])
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_command_output_is_unchanged(case):
    assert output_hash(case) == HASHES[case]


# argv -> the sha256 of the exit code and help text, recorded before the CLI
# loaded its layers on demand
HELP_HASHES = {
    "-h": "d1fde5bc24b1266a1fac4bbee3136654ed7621301938592d67b420dfd9929d23",
    "normalize -h": "b25dbee641eff865a2136ee473f147c866c737be9a589547983e97da1d9c56f1",
    "owt -h": "7d92319aca3c9c680da5da85f16d89e7c9db7ac8c6291f240943e886aff5ac96",
    "invariant -h": "35a585277eb73022213e3af26eb54a4315fc5aef538f05481fda7a57707a7013",
    "same-chamber -h": "0e6d8af4cfed59e8bd1c37e58484689224db5f22469dbb0a7039f6c9d47d5a5a",
    "walls -h": "b86ec2d5a87251c44dd3fe61f4b58b29adee89673d91e977b0b3863767026014",
    "generic -h": "eca50a75bef04179b2e7f387164236117fee3db650a573743713c636eaa6953c",
    "concentrated -h": "2772f32eb607ababbc1c6fe7c1704068779ad185261c690f1cae176bdf4509d2",
    "dims -h": "24abdf74cc1df9979ea77147dec2859080d7950687fc5754510b8c4d26cf020d",
    "bounds -h": "916563fe852f30350d4b59faa22c62d649315c9a823cab6b6b8845b264227237",
    "transform -h": "56eba8a5b5bffb33f49b6860a52ab8f2bc0b7f56a01a640bdb432f7e13d3c08b",
    "compose -h": "345c0e5a705fc7e7c67313eac597cd8f8f1bfa4aa6bc8aac5293af2c9502833c",
    "inverse -h": "d2b08d2428955a64e19cc85655a38d49a76639c71b835d0ce77a0b9869321194",
    "aut -h": "c25087df9622725b907191dc00a0d2d76add616995e13d889eaab97ef38fa0f5",
    "iso -h": "44d835ce29c4e3261c74545a18c6cca9ba0f618f1fb3728b9c123bf89b15e9e6",
    "orders -h": "abfbdf0306bb193e403e0a8f65c9402fa054abfd38f9fbd5ec94015054efb800",
    "matrix-xi -h": "563673414179f84d0c8507c146bbdaaecd527731c11a7ad711972934017251f4",
    "matrix-rank1 -h": "211ca508ca6ce7a2d04fc988ab60b151bd5f80ab55798b126ea9e2556cd9d012",
    "matrix-mp -h": "23777e1c2d876e13852c609adfac43c01585db4e20faa7ff66b9ab19dc52a813",
    "matrix-hecke -h": "7cc98b7dcd116244cef2d36114c36e9a6fe20604a32b27b40bb9e18874bfec86",
    "fixtures -h": "fe6ac14b400631e2bf24ff31a64aadc63e2bb419e83f97dad1a5818047f94f2a",
}


@pytest.mark.parametrize("command", HELP_HASHES)
def test_help_text_is_unchanged(command, monkeypatch):
    # argparse wraps at the terminal width, which it reads from COLUMNS first
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exit_info:
        main(command.split())
    text = f"{exit_info.value.code}\n{out.getvalue()}"
    assert hashlib.sha256(text.encode()).hexdigest() == HELP_HASHES[command]
