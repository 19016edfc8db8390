"""Golden outputs at n = 10: sha256 digests of CLI stdout and of the
library's arrangement and cut profile, pinned per family. Then `table`
stdout, pinned for n = 1..16 and 20 and for row selections up to n = 100.
Last, the row bytes of every level of two random trees at n = 18, whose
shuffles run both routes of `rng.shuffle_rows`, on rows of 2..131072 entries.

Only `build` output differs between families. The arrangement, the
certificate, the evaluation of the arranged file and the cut profile are
the same for every BC graph of a dimension, so one digest pins each.
"""

import hashlib
import io

import numpy as np
import pytest

from bclayout import FamilySpec, bc_arrangement, build_family, certify
from bclayout.families import build_tree
from bclayout.cli import run

N = 10

BUILD_SHA256 = {
    ("hypercube", None): "b3179370519c63e72247479d94e25928644292e6e72335aac894f400ccc148a3",
    ("locally-twisted", None): "3b2235552852586ef160b1dcc7045b23faaaff41b54ff8f73830d37d2e22c1dc",
    ("mobius-0", None): "6a4f797a29d75df087a39986da9b456682dc23d74d80a422fcd936043ecdcf0c",
    ("mobius-1", None): "11ff6dcf83324814f2e612937ccfaa2ffc2f82fd2ff58133fba6ed2a754e108e",
    ("random", 42): "df4158a159903652b8921faf04227626972dd1b53491151075dd11a6ae002822",
    ("random", 2**64 - 1): "a9e5b96169acdb56aacb27c9873e5e26b18908814fc52c68e6c645705671940e",
}
ARRANGE_SHA256 = "458f5bcf4a92269c996718f39a3a923561b99f017ac4abbcb9d7c8098b99a22c"
# certify and eval print the same JSON report for a valid witness
REPORT_SHA256 = "8adf82f76f60af5a24f05e6d69712733347f21943f30fb91a581f41356b3d029"
# space-joined decimal text of the cut counts and of the positions
CUTS_SHA256 = "8959a19d877499ce4560a9d1319147c3299b11d7a98546a311687c48b6ae2777"
POSITIONS_SHA256 = "77ead9331708d0f0b5cd4979baaa752f0200806c50b31e491590d8270f2565fc"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_of(*argv):
    out, err = io.StringIO(), io.StringIO()
    status = run(list(argv), stdout=out, stderr=err)
    assert status == 0, err.getvalue()
    return out.getvalue()


def family_args(kind, seed):
    args = ["--family", kind, "-n", str(N)]
    return args if seed is None else args + ["--seed", str(seed)]


@pytest.mark.parametrize("kind,seed", list(BUILD_SHA256), ids=lambda v: str(v))
def test_cli_stdout_is_pinned(kind, seed, tmp_path):
    fam = family_args(kind, seed)
    assert sha256(stdout_of("build", *fam)) == BUILD_SHA256[kind, seed]
    assert sha256(stdout_of("arrange", *fam)) == ARRANGE_SHA256
    assert sha256(stdout_of("certify", *fam)) == REPORT_SHA256
    g, a = str(tmp_path / "g.json"), str(tmp_path / "a.arr")
    stdout_of("build", *fam, "-o", g)
    stdout_of("arrange", "-i", g, "-o", a)
    assert sha256(stdout_of("eval", "-g", g, "-a", a)) == REPORT_SHA256


@pytest.mark.parametrize("kind,seed", list(BUILD_SHA256), ids=lambda v: str(v))
def test_library_outputs_are_pinned(kind, seed):
    bc = build_family(FamilySpec(kind, N, seed))
    counts = certify(bc).cut_profile.tolist()
    assert sha256(" ".join(map(str, counts))) == CUTS_SHA256
    positions = bc_arrangement(bc.tree).to_list()
    assert sha256(" ".join(map(str, positions))) == POSITIONS_SHA256


# `table` stdout: the full table for n = 1..16 and 20, then selected rows
TABLE_SHA256 = {
    "-n 1": "504ae1d61f32914b4423d3f21dff4453025bc74c421c57da9279c555f0a29345",
    "-n 2": "d7e69e732ba3308ae732255ef82f8ae0e0502d3c6dc3bc4e31219dda5ad6c473",
    "-n 3": "a386b283d4575c978c3cce9ace0099c30a4a8b8993bf5afd0a4215c1406335cd",
    "-n 4": "c29930c093cb22db3af39b825dadf75d0e285c8bcfb3100d0ad79d3a890f2cfc",
    "-n 5": "d309ba72a23551a9e43ee4963d1bae57f7d935b3299ff1a801da69869bbef076",
    "-n 6": "c79e971fe7e3141705f753ac96bef5a03258a8b46899fcbf03b12c470d3ec575",
    "-n 7": "e635ff0e93ced2794b2206914823a7dd8ba1234b522781b65dc78595cce8c03a",
    "-n 8": "8db3247d38f9c460b51f44d3e1d6913202ef05f96fb604f0262e30fd7f87d7fe",
    "-n 9": "9855fe30f354fd9cbc85ea66cf1293c54c962b85eb2132d02805dc55ea226c5b",
    "-n 10": "6ddf39df9adf6bac2fdee366509e1b0cfc5ae535b83228e19a6639534014f101",
    "-n 11": "27405ceb1d2584cab331a2f4917f117941bfeacd3d8b69cb7ca4214f718bee77",
    "-n 12": "1cd47e83ec3e4b873dcd316b50416bf9ca5941e148fda63a65598d9668334bd5",
    "-n 13": "894a232e83a8e50df44a37adb8961143798ccb17968497b095c6dfcb493ae6e3",
    "-n 14": "92184bbc92b50c060464f8b7c9db0310b7b3c73876e4291c17bf5dc4fa6cfbea",
    "-n 15": "018a655ce929a03a647848652d1227fcb791d4c58d3667d0289d0c3607bab222",
    "-n 16": "ebe5ea60092ebe724f53effebb1ede6c5ea095850cdbb8efc0b4128ef48dc5e4",
    # the largest full table, 1 048 575 rows
    "-n 20": "34717ef7974046566ebc59e70d6f1d0b9e4421bf2e20e21f494f18b572bb187d",
    "-n 40 --max-m 4": "92e10bc3f15728139c743b00d2602dee0d951266d5a2a2212b0a98d9022fd4d1",
    # --max-m above 2**n - 1 stops at the full table
    "-n 3 --max-m 100": "a386b283d4575c978c3cce9ace0099c30a4a8b8993bf5afd0a4215c1406335cd",
    "-n 5 --m 7,3,31": "1b2f97fefc09f5828984852db886fc2edf346eeac2bcf153e634c563f11ab8b3",
    "-n 63 --m 9223372036854775807":
        "4f19cb8b8912133b35b31e3be1dc944334cd23e249d2279ff8975e9c57de377a",
    "-n 100 --m 3":  # the row 3,2,296
        "627f66f6141be82f0cb8bbcfc1ab1bc3b05c7f3f0c2abf107772d0116ed26538",
}


@pytest.mark.parametrize("args", list(TABLE_SHA256))
def test_table_stdout_is_pinned(args):
    assert sha256(stdout_of("table", *args.split())) == TABLE_SHA256[args]


# sha256 of each level's int32 row bytes, levels d = 2..18 in order: the
# many-row loop makes d = 2..12 (64 rows or more, of 2..2048 entries), the
# replay d = 13..18 (32 rows or fewer, of 4096..131072 entries)
RANDOM_LEVELS_SHA256 = {
    1: """
        3b4b537c56eb80d7b5d8e0fbf4ce42ddc9a739739f857677f107a48a45f656e1
        cf56559502c1abecf085743daedbcdcc9fe53e32223c5e813b73246be2cc68ff
        f3fd9de79de2b674d80db33302626162c8d88661c1b6235184b68f367a26663c
        17dc923531710d44c0f8a2ba6359898dcc4f7906c36b0d510c84f0b314d29194
        6925bec777b8086c1ffcfb6141b887eaddcb6d38a3add0d7d880fcb141010bc8
        dffa858f0737969e3a0770b87f4752b8be283b78dffd4f6fbf1c4dd2b31e26d3
        f09cda15b8af85ee10ad3525c2171a0916cfee7e7208b6923bce673dfcd3a601
        51c92279f31defb20b2f8cafc4a9b5af02591334b016e32e0d3c4733430f19c6
        c75caf2a8a8f0a9cad3fbfb97133bfad287daa79eed6eaa24350b755f5b6aa35
        f8b57b414faf2864be786aa6ab6d597ca53d8fb342742e4404bcbb9c6ec62d0e
        3d47d8e187a0ddefb0afe5af33d7c6bd72c3cd006cc25cdd46fed7f79af47995
        72faf7954a55cd91196d137ed82fbe92cdf20550953ae954c5f5897e93b4fed6
        85afa8c2658eda3802bc8b439c28f7c8bea9097ee9dc2573aeaabed7ed0354f7
        b220c8719bb88ac7a787229908b5bdc05bd751cf3534be6798edf1d75165f8f9
        fabd25af002210b67fb2bf02c4d41b6651373d724face30218b073883bb55068
        a31c2bd9196403dc1ed47c3a436e45b0cfedab55ddda5d522dedb437e2686097
        6d325629fe0a9577565312db6f1bb82266039041e4bbe044636683d9df1d2886
    """,
    2**64 - 1: """
        1404855365a50d9ffad8d5d1ce8a8534611c86ce41c63a31722097c62f1123a6
        f70eca0e44d1d4ac97e7e49d80060d83524737032f827db9545977c5c48a5944
        f705eb49cffbd519f8d7887b0b7c7655d83e87b8e40d3742ee2702516e09395a
        e379e6ede9747c09443848625992cc114b76194ddca1e164443262c0e1041785
        aea3f7499513ab5233062b49163c5f7e26777767017a4902686c5014a71b2828
        89df819e426620ed2da4fd231180a6ffc79f9fcf8f72a38ddb2bfefbf98b0fa8
        e91d71405edbde27dcf03c8ef54e833f1f9664a35dbed3eb9b5f9746f103c1cd
        87d6978ef7371b33f516386c77eb76678ce549b71a01f8925c6a33c0a614ecf4
        256ba260bb8f0a64e224878ac21aee59ab94caf862ecd3b96d996c2db7833855
        526cf7f816cfe6d0a0d0b573ba44229617d0e2c1023fbe6722bbad4fc4a79bb8
        dc275f22112c8f3c3cbbc58e57e77521969112dcd04ebf21775592bc321fdd40
        8da4af9652ce25012998ac6cc6b46443f3abe84b146a694ad497e2dc7a8519a5
        ff4a32f8c3bc7274793862f84345cb35fda9f7bb330e02b9f1a83d1717dffb49
        d41a44a3042afade35ba2dd461cd5d6df5ba7b28912ed078fe742486949774ba
        4203e926299e9c5d638dfb298a293a9f31a3bac5f7797d479d9fdf9b3dd2b1b4
        b6bb1c754e954ed260fb348ae6da513a61a39e5a45ceab1a006f83866d2b0baa
        bcdc0e5dd9ca42f0597da55009dbc292b51fb5c2e5d1ada6df2614d9eef7919b
    """,
}


@pytest.mark.parametrize("seed", list(RANDOM_LEVELS_SHA256))
def test_random_tree_levels_are_pinned(seed):
    levels = build_tree(FamilySpec("random", 18, seed)).levels
    digests = []
    for d, (phis, _) in enumerate(levels, 2):
        assert phis.dtype == np.int32 and phis.shape == (1 << (18 - d), 1 << (d - 1))
        digests.append(hashlib.sha256(phis.tobytes()).hexdigest())
    assert digests == RANDOM_LEVELS_SHA256[seed].split()
