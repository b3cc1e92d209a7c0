"""Pinned bytes of the command line's output.

The sha256 of each command's stdout on seeded generated networks was
recorded before the ``run`` path got its direct decimal parse, one
rendering per row and templated JSON rows, so any change to the bytes the
CLI prints shows here, not only a difference between two hash seeds.  The
branch-independent ``generate`` and ``experiment abb`` digests and those of
the ir, nd and revenue audits were recorded before the command line was
declared once (one parser, one command table).  The ``run`` digests of
the cross-invited network, the one pinned input with a branch root the
sponsor did not invite (so its counterfactuals re-hang a root), were
recorded before counterfactual pricing moved into ``auctions``.  The IC
audit of cavallo on ``star_with_tail``, the one pinned IC FAIL, was recorded
before IR and IC became one deviation scan.
"""

import hashlib

import pytest

from netredist.cli import EXIT_OK, EXIT_PROPERTY_FAILURE, main
from netredist.generators import EVENLY_GROWING, GrowthModel, generate
from netredist.profiles import save_profile

from networks import cross_invited, star_with_tail

NETWORK_SHA256 = {
    "network": "9bab097aed858d8ce637f0a399c7998f4f17d130c3118386189c58398c109dbb",
    "truth": "fd0b1e411aabe5f32dfa5d33932df011f4d53e47a7027c39126c1836d81ec419",
}

RUN_SHA256 = {
    ("idm", "json"): "3bef3732de4e52d55309b5cca573f37c057e6ce7255235ce21d1befb0a06558a",
    ("idm", "csv"): "89211af9310cef51f3d7c85c816fa33f97b76a1620a2059e409fe3d446f4998d",
    ("idm", "table"): "7017acc4746eb255e19a4cae0821df098e3b79153f997346091c8cdb9c736581",
    ("tnm", "json"): "4d861fd9bec4ccbd82bf311145784a4015a4cb9c121781969ddb120e2234efb8",
    ("tnm", "csv"): "89211af9310cef51f3d7c85c816fa33f97b76a1620a2059e409fe3d446f4998d",
    ("tnm", "table"): "7017acc4746eb255e19a4cae0821df098e3b79153f997346091c8cdb9c736581",
    ("vcg", "json"): "7e2b44bed6bfdea47f871c919f295898d95e1b4702e5b812c5ed0a122970e83f",
    ("vcg", "csv"): "89211af9310cef51f3d7c85c816fa33f97b76a1620a2059e409fe3d446f4998d",
    ("vcg", "table"): "7017acc4746eb255e19a4cae0821df098e3b79153f997346091c8cdb9c736581",
    ("fixed:30", "json"): "2efdd7c608f9055801a7b043c5c6a72428b0e72280bdd315cfcd7488462ad032",
    ("fixed:30", "csv"): "d95e35565e544d7f1d2d95b642c847ed79848581ba9649d81e6de5b9fc608f10",
    ("fixed:30", "table"): "8f2c80da282d8846e20364ad7ea97f681c1cc269bb08e56e2dbf32cf661814fd",
    ("cavallo", "json"): "ad4e121d6e08d1e1caed0d465c2e53f2398a154dc2eff5d5d286f5c72540f303",
    ("cavallo", "csv"): "3542953c3bde42c2e71a0db46a44ad00850cd986308f2579f882164744e4e3c5",
    ("cavallo", "table"): "1bd0816f9edd413710752bb28d10f18c39f1d60545f10d5215f014072407611c",
}

#: ``--output json run`` of ``cross_invited()``, per mechanism.
REHANG_SHA256 = {
    "idm": "eeb845b878b5144392f332616fd76d0691d221a4abfbe539d70185e75d7c2135",
    "tnm": "2a6145d3744f978ad73ba15767f1a3efde079da1d7e0f975d14a1d6a4fcac667",
    "vcg": "6ea95a44b79846fcd4af6ec6ff126922b186d417988c1da40a9605a7d8e0af7c",
    "fixed:3": "27d2859c5d12547736e1f45d601f254feaf585825a27ab184f1e6f1bfc349308",
    "cavallo": "d5fe8babe26d70bc1cdb18570e8601c1e690bab1917bb64b823c87fff1152090",
}

#: Other commands, as argv after ``--output <output>``, with their digests.
OTHER_SHA256 = {
    ("precision-0", "json"): "b44bac28f9d640d15a814305b1678db5b8f55dbdefc200e5f606f76e6fab57b4",
    ("precision-0", "table"): "b2660f898c6f0e55a9fc67bad787b9ec3e904ea93fc1cb4a018a918c8a090e23",
    ("precision-20", "json"): "645842e2cb47187f9b1f1a9f93c5ed51c3d84f2d8484af0bc5ebeb59432e6c25",
    ("precision-20", "table"): "d9226df618091c3489ebf7f94cb288f5a8906b6b6bea88c980ab392f9426d8d1",
    ("true-values", "json"): "eb66867a60b3575af1688ef1ce7d693d9da82be1d20d478a0ac6b6aa6f69e511",
    ("true-values", "csv"): "df5568eded0a0970c929136b9784befbef527ccddbbda4d2754e3c49cd155017",
    ("true-values", "table"): "2513ff88cd69ccfa82acab55cbb8c4a5282cf7bd0cca557bd9226261ba8ebbfe",
    ("tree", "json"): "6852a9bed3e51fe9ce8a923fe580359e9611bf2df799a7bedc9986fbeb6ae5ae",
    ("tree", "csv"): "ee26c33287eca1f49a96f136625de3d94a9b5f585152bfd4a70e8501f9431a4a",
    ("tree", "table"): "ef8f26ca2fc40b8b18a49eb2f594ee0c5cf30e23d0bc9e1d00d9064c6cc6cc82",
    ("shares", "json"): "2a41834272fc5763fb420c71e5593f6898845769be1847168251d0955b506da8",
    ("shares", "csv"): "96e04cccbf2a6e4d9fcd68baec012b41f119e03e13437c044e19456ac3b6857d",
    ("shares", "table"): "7e547b9fb6c1efdd7dd6a4a8958803ab6fed6e34f702184025d61eb567e1288c",
    ("experiment-bb", "json"): "03edc708b98ee4a43ce29f0b7d10f0afca284e615fa815d8e453b1611e8bf788",
    ("experiment-bb", "csv"): "69e0c52d85703e0e5488522e0155957ba0209535c60832bcdab286c200497b48",
    ("experiment-bb", "table"): "b24ed01b152f6cb6f0828bc4dafa5666130fe2cda2640d426bd709f8e2f4532d",
    ("experiment-abb", "json"): "7ccfb2f634360a0d31f0782bc1ceb7e4577e3cd34b161b07946d110a92506539",
    ("experiment-abb", "csv"): "cf514a4a193bd50f7861e6a8db60722b809358b020aeec6ffcafa5075563ca64",
    ("experiment-abb", "table"): "2f1e4be97c9b08048a67b9228626aeb98c10a2f1c4e68b9200348827bc139257",
    ("verify", "table"): "4b31350892194f9ec8a44f78067386b64e986015bfe780201b769e421baa3703",
    ("generate-branch-independent", "table"): "184ff89ea1bdb138cdfd2e36585f3351a55f8258397d91ab48ef12949a33e72e",
    ("generate-fewer-agents-than-branches", "table"): "c64a0f47b92702d1e05c8f8421575ff0902880c14d47af2d213839a556c21d7a",
    ("experiment-abb-branch-independent", "json"): "3cea6b60d0cf0954ccf794b25aaa94e66cbb33f4c278353539503bfe22b78a6a",
    ("experiment-abb-branch-independent", "csv"): "b31f2edff8ba9e2628833c23a70c88637486eabbb4d598a635c50475839eee1f",
    ("experiment-abb-branch-independent", "table"): "39169dfd54f1b80ee0629dd57fc00f4a90ebb11bf071d490282491196ca867f9",
    ("verify-ir", "table"): "6c07a9c5705ad451fbf293d4bb6ece4a8db8216bb3a0c9942c7ac35d32b31f62",
    ("verify-nd", "table"): "6e8c66106bbded8ec4075841b9a1b4d8119d6100a3b3c769caa95d38dce315d8",
    ("verify-rev-mono", "table"): "64491cab66e8abb03a5edb8340eca342d947e32e99354839ef213949c1e482ba",
    ("verify-rev-inv", "table"): "768791c4fc39b6f17edf415d7ca13424f3993ae77ea13b4bc849e78b7c487772",
    ("verify-ic-cavallo", "table"): "41a29d7724379214642d3d1f43952a422bc5b24fb0a174989466e57d612451c0",
}

OTHER_ARGV = {
    "precision-0": ["--precision", "0", "run", "{network}"],
    "precision-20": ["--precision", "20", "run", "{network}"],
    "true-values": ["run", "{network}", "--true-values", "{truth}"],
    "tree": ["tree", "{network}"],
    "shares": ["--alpha", "1/5", "shares", "{network}"],
    "experiment-bb": ["experiment", "bb", "--price", "30", "--sizes", "20,40",
                      "--num-seeds", "10"],
    "experiment-abb": ["experiment", "abb", "--sizes", "20,40", "--num-seeds", "3"],
    "verify": ["verify", "--property", "ic", "--mechanism", "nrmf:idm",
               "--instances", "{instances}"],
    "generate-branch-independent": ["--seed", "3", "generate", "--model",
                                    "branch-independent", "--n", "60"],
    "generate-fewer-agents-than-branches": ["--seed", "7", "generate", "--model",
                                            "branch-independent", "--branches", "6",
                                            "--n", "4"],
    "experiment-abb-branch-independent": ["experiment", "abb", "--model",
                                          "branch-independent", "--sizes", "20,40",
                                          "--num-seeds", "3"],
    **{f"verify-{prop}": ["verify", "--property", prop, "--mechanism", "nrmf:idm",
                          "--instances", "{instances}"]
       for prop in ("ir", "nd", "rev-mono", "rev-inv")},
    "verify-ic-cavallo": ["verify", "--property", "ic", "--mechanism", "cavallo",
                          "--instances", "{tail}"],
}

#: Commands whose pinned run ends in another exit code than EXIT_OK: on the
#: small instance nrmf:idm fails both revenue audits, and cavallo fails IC
#: on ``star_with_tail``, so their bytes pin a witness too.
OTHER_EXIT = {
    "verify-rev-mono": EXIT_PROPERTY_FAILURE,
    "verify-rev-inv": EXIT_PROPERTY_FAILURE,
    "verify-ic-cavallo": EXIT_PROPERTY_FAILURE,
}


def _save(path, seed, n):
    model = GrowthModel(kind=EVENLY_GROWING, initial_branches=4, value_max=100, seed=seed)
    save_profile(generate(model, n), path)
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    (directory / "instances").mkdir()
    (directory / "tail").mkdir()
    save_profile(cross_invited(), directory / "rehang.json")
    save_profile(star_with_tail(), directory / "tail" / "tail.json")
    return {
        "rehang": str(directory / "rehang.json"),
        "network": _save(directory / "network.json", 3, 60),
        "truth": _save(directory / "truth.json", 5, 60),
        "instances": str(directory / "instances"),
        "tail": str(directory / "tail"),
        "small": _save(directory / "instances" / "small.json", 4, 7),
    }


def _stdout_sha256(capsys, argv, code=EXIT_OK):
    assert main(argv) == code
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_the_generated_networks_are_the_recorded_ones(files):
    for name, digest in NETWORK_SHA256.items():
        with open(files[name], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, name


@pytest.mark.parametrize("mechanism,output", list(RUN_SHA256))
def test_run_output_bytes_are_pinned(capsys, files, mechanism, output):
    argv = ["--output", output, "run", files["network"], "--mechanism", mechanism]
    assert _stdout_sha256(capsys, argv) == RUN_SHA256[mechanism, output]


@pytest.mark.parametrize("mechanism", list(REHANG_SHA256))
def test_run_output_bytes_with_a_rehung_root_are_pinned(capsys, files, mechanism):
    argv = ["--output", "json", "run", files["rehang"], "--mechanism", mechanism]
    assert _stdout_sha256(capsys, argv) == REHANG_SHA256[mechanism]


@pytest.mark.parametrize("command,output", list(OTHER_SHA256))
def test_other_command_output_bytes_are_pinned(capsys, files, command, output):
    argv = [arg.format(**files) for arg in OTHER_ARGV[command]]
    code = OTHER_EXIT.get(command, EXIT_OK)
    digest = _stdout_sha256(capsys, ["--output", output, *argv], code)
    assert digest == OTHER_SHA256[command, output]
