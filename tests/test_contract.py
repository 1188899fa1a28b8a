"""The behaviour contract: byte-identical output of the pinned commands.

Each digest is the sha256 of a command's stdout, recorded before the
crossing-height window became the only judge of which candidates reach the
spectrum test.  A change that keeps the contract keeps every digest.
"""

import hashlib

import pytest

from tiltwall import catalog
from tiltwall.cli import main

PROBE = ("walls", "--class", "2,0,-25", "--beta", "-6", "--amax", "30", "--format", "json")

CONTRACT = [
    (("check",), "9a378649d5ee7e45cfa02dd1bee8ca6e40c3b9957400fd1dd461bc3ed61f215c"),
    *(
        (("catalog", "--id", sid, "--export"), digest)
        for sid, digest in [
            ("abelian12-ideal-point",
             "df380f3c8cc5a0df041013dffb091491511e1b4a9667ad6eae48010be6fbeee5"),
            ("ppas-abel-jacobi",
             "d536d9188bb55744382a189ed93c21a22eaffce6867b54c71ee3320e51eae9be"),
            ("ppas-ideal-1",
             "d49a8319b145af2a8814451d0d5a5f4c40915b84027d63ee448f2feca84360d0"),
            ("ppas-ideal-2",
             "92a27424186cdb3a171c43e352847d67ec69d21aded050aebc1e37dbbd74459e"),
            ("ppas-ideal-3-collinear",
             "c0c08ee64f112ad985739e08a49575ff8e5d689b75ef9e4ea2533af0f9e53ae4"),
            ("ppas-ideal-3-generic",
             "0195505d241e5beb9608fab35feb011b6add2c14d5aa8138b8770bb7483f2f6e"),
            ("ppas-ideal-4-collinear",
             "0453d81a9fa62055033be18c046becdec117d0494ba409387db5d3684e99b605"),
            ("ppas-ideal-4-generic",
             "743591a5455a6a9f7eddda73765c89e386fb5d418cc9a35728d18e8aa17ae348"),
            ("ppas-ideal-5-W1-walls",
             "8e0cb07b2abf63e7c9994998342a962c610fbf498e0103e001e34236fb394618"),
            ("ppas-ideal-5-W2",
             "6d90265beae4554536ced05bde32e1748003591f92c947048df55c14129123e8"),
            ("ppas-ideal-5-W3-walls",
             "c64380d139c0213f33142be229564b422bee7ac688215d7e2eb31a0155174a4c"),
            ("ppas-ideal-5-generic",
             "ba85ca3cb4ace6653dbf3f4c9fe101726c603d3326afae18dd46bd11943e4bab"),
            ("ppas-structure-sheaf",
             "fba60f45076b09e80707e56f81782b11927d59942b219a4a76a13f997194b050"),
        ]
    ),
    # the disc-100 probe: the same 22 walls at both ends
    ((*PROBE, "--amin", "1/100"),
     "36e8adea278e7cf1b3d8389e4fc26bd961fe00bbc74890ae321d22cb50289446"),
    ((*PROBE, "--amin", "1/1000"),
     "36e8adea278e7cf1b3d8389e4fc26bd961fe00bbc74890ae321d22cb50289446"),
    # no top: 17 walls, the outermost at a = 805/4
    (("walls", "--class", "2,8,-51/2", "--beta", "-20", "--amin", "1/100", "--format", "json"),
     "d18a06845a0c20708a9d2a4ff8701fa53915a19b8280199b838673a77eb5a0f9"),
]


@pytest.mark.parametrize("argv, digest", CONTRACT, ids=[" ".join(a) for a, _ in CONTRACT])
def test_output_is_byte_identical(capsys, argv, digest):
    assert main(list(argv)) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_every_scenario_export_is_pinned():
    pinned = [argv[2] for argv, _ in CONTRACT if argv[0] == "catalog"]
    assert pinned == catalog.list_scenarios()
