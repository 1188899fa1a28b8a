"""The behaviour contract: byte-identical output of the pinned commands.

Each digest is the sha256 of a command's stdout.  The `check`, `catalog` and
`walls` digests were recorded before the crossing-height window became the
only judge of which candidates reach the spectrum test; the `chd` digests,
which pin the assembled chd0 and chd1 of every tree scenario, were recorded
before assembly stopped re-checking its own output; the rank-0,
negative-rank and abelian-(1,2) `walls` digests were recorded before the
search kept one witness of each pair {w, v - w}.  The `--help` digests
were recorded with COLUMNS=80 on Python 3.11, before the parser was built
once per process; argparse lays help out differently across Python versions,
so they are compared on 3.11 only.  A change that keeps the contract keeps
every digest.
"""

import hashlib
import sys

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
    # rank 0, negative rank, and the abelian-(1,2) lattice
    (("walls", "--class", "0,6,-9", "--beta", "-3/2", "--amin", "1/50", "--format", "json"),
     "6d76e4f3ba860024776d06d55299edb9780ad6c01c2ce15f7637a99cf8c87bf8"),
    (("walls", "--class", "-2,8,-10", "--beta", "-3/2", "--amin", "1/50", "--format", "json"),
     "022c7a11418dcfb8ce6ad4f63ad0056909c52ee3f2772eac08c9e64a94c40599"),
    (("walls", "--preset", "abelian-(1,2)", "--class", "0,16,-10", "--beta", "-3/2",
      "--amin", "1/50", "--format", "json"),
     "5f5661eb8d6b926345e75d17b8f388b6be79f1343fc1a42a4a3ff978fc422e0a"),
    # chd0 and chd1 of every tree scenario, as assembled
    *(
        (("chd", "--scenario", sid, "--k", k, "--format", "json"), digest)
        for sid, k, digest in [
            ("abelian12-ideal-point", "0",
             "17155f5bc187fb1248b5b5cfd333ef3c48fda0594f21a4ea0082f8962b1df4c8"),
            ("abelian12-ideal-point", "1",
             "6f1471f08ad5bd332363a956cd5ae9858e87491746c2bc680669c1f38caafcee"),
            ("ppas-abel-jacobi", "0",
             "969efbe225c122a61302d4625454e08e734ff56af2277d2a06455a4b49c3018f"),
            ("ppas-abel-jacobi", "1",
             "49b08c51240becaf1c82024a4c9e10f7ceb65017e503b2c232335c81edcbd9c7"),
            ("ppas-ideal-1", "0",
             "c9914d67f7ec6c073fb31656cc019525dd8eae62f9f00c3a9efdf2593814869c"),
            ("ppas-ideal-1", "1",
             "52c1b94bf7201b9d4d75d1bae7cc9e04d187c8bae3c6bd4795b94c635a2b02fa"),
            ("ppas-ideal-2", "0",
             "d4c0fc0d0198f89d70dbf54504d172ada7ffe097ae8963d2a5d4dc32ad9d9406"),
            ("ppas-ideal-2", "1",
             "8c84dda9d22b46f93a2c35fae61eec001980199fea9908963e95ab56081b480f"),
            ("ppas-ideal-3-collinear", "0",
             "ae189fd894ce9db39a585f07a3beaf3d43d07572ac0b79918df19462922fbea2"),
            ("ppas-ideal-3-collinear", "1",
             "c614c652ebc527bbf1c8f96aa8d137337242a162f9282d2f181657ae426e8c5a"),
            ("ppas-ideal-3-generic", "0",
             "cc34b338524504ab545a75bfe6c0ae3dc561c67b5f7609a4a9177a7f75152cbb"),
            ("ppas-ideal-3-generic", "1",
             "3d55726c0a05a7742f29fb16fd217b927a8d5dc8b5145a4dbcf421fd75c67b61"),
            ("ppas-ideal-4-collinear", "0",
             "a6b86528868ae675d7f23c61be16543efcc98c31569cbd61c3c9726996b36d50"),
            ("ppas-ideal-4-collinear", "1",
             "4058cd794e159643728c4d633ad8b0915b12472e2fd783d739e1d07ac5eb6fe4"),
            ("ppas-ideal-4-generic", "0",
             "93b557f4daba4a334a322c31d4b0df348c5abc60db31b050e69ac6401a81e7c3"),
            ("ppas-ideal-4-generic", "1",
             "9c52dea2746f3f6819611f5a215d05b6482cdc16956cfe3643bc98bbfa53a584"),
            ("ppas-ideal-5-W2", "0",
             "2ab227878ccd0becb6c5594e6c7991b42014562ec1a02255542c62b3c4dd03ba"),
            ("ppas-ideal-5-W2", "1",
             "d36e341533d10d395956f216b74ee74274c1cf2f27eac28719fbd958cef669c0"),
            ("ppas-ideal-5-generic", "0",
             "ea92a8f605e8b848dfaf51625dd60f411a3357fd6d65c558fb0228ad61cf0014"),
            ("ppas-ideal-5-generic", "1",
             "07bebfc5fd611305a866c530fc4a1184716c2eef27b0d5bf749783d795d00fc1"),
            ("ppas-structure-sheaf", "0",
             "49d4fa77e8c234a36379d54ae53bbe59a6fe07447a85088b483737afb0c9a3f5"),
            ("ppas-structure-sheaf", "1",
             "5eca86d06fadc7b2192d719faeaa07c88416d53d8bb36a87aa2a4e9be3e29932"),
        ]
    ),
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


def test_every_tree_scenario_function_is_pinned():
    pinned = [(argv[2], argv[4]) for argv, _ in CONTRACT if argv[0] == "chd"]
    trees = [sid for sid in catalog.list_scenarios() if catalog.load_scenario(sid).tree]
    assert pinned == [(sid, k) for sid in trees for k in ("0", "1")]


# the top-level help lists the commands, so a new one changes its digest
HELP = [
    ((), "fffbad1cf92bcf91d25c3eec5484ec9cbcf35591bbbc73ff52cc68b2eeed07e3"),
    (("walls",), "f1ca06349d3472113d5138c7c1e798c7a8c88cd0a27fa057349d1228ac3e7490"),
    (("chd",), "31888e5a7bba9eea4b15cd54d33a5bce6542f9259c0a61f3efe67d7099814eb2"),
    (("validate",), "816a2b0de4b70d532b9a3dd2e77731b09398af7263e50005f277feebabaeffd4"),
    (("hn",), "f79b25fe797941e546216789a119dbcb1d3fc1d73b17c921b4508774265d87f4"),
    (("catalog",), "1870fdd26332a1231cfdfdbf9577deba2c3bea58ad068254e400c71d5693e1f9"),
    (("check",), "0d10961fb73a31fb5f669f90b300e74f8da8aef531d072393acbd6fbd5c75288"),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help digests recorded on 3.11")
@pytest.mark.parametrize("argv, digest", HELP, ids=[" ".join(a) or "tiltwall" for a, _ in HELP])
def test_help_is_byte_identical(monkeypatch, capsys, argv, digest):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest

