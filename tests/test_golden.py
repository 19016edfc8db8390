"""Golden outputs at n = 10: sha256 digests of CLI stdout and of the
library's arrangement and cut profile, pinned per family.

Only `build` output differs between families. The arrangement, the
certificate, the evaluation of the arranged file and the cut profile are
the same for every BC graph of a dimension, so one digest pins each.
"""

import hashlib
import io

import pytest

from bclayout import FamilySpec, bc_arrangement, build_family, certify
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
    counts = certify(bc).cut_profile.counts
    assert sha256(" ".join(map(str, counts))) == CUTS_SHA256
    positions = bc_arrangement(bc.tree).to_list()
    assert sha256(" ".join(map(str, positions))) == POSITIONS_SHA256
