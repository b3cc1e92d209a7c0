"""Pinned bytes of the command line's output: the one check on them.

Each entry is the sha256 of one command's stdout, so any change to the
bytes the CLI prints fails here, not only a difference between two hash
seeds; CI runs this file under ``PYTHONHASHSEED`` 0 and 1 as well.  The
groups:

- ``NETWORK_SHA256``: the seeded evenly grown networks every other group
  reads (60 agents, and their truth file of other values).
- ``RUN_SHA256``: ``run`` on the 60-agent network per mechanism and
  output, recorded before the ``run`` path got its direct decimal parse,
  one rendering per row and templated JSON rows; ``nrmf:tnm`` and
  ``auction:idm`` pin the one mechanism grammar.
- ``REHANG_SHA256``: ``run`` on ``cross_invited``, a branch root the
  sponsor did not invite, so its counterfactuals re-hang a root, recorded
  before counterfactual pricing moved into ``auctions``.
- ``CATALOGUE_SHA256``: ``run --mechanism idm|tnm`` on networks whose
  invitations are returned or cross branches, from the test catalogue:
  ``nearest_cut``, a 2,000-agent sparse digraph, the 60-agent two-ended
  chain and the 60-agent ring entered twice, where silencing a branch
  re-hangs roots under other branches.
- ``OTHER_SHA256``: every other command.  ``generate`` of both growth
  models; ``run`` at precision 0 and 20 and with true values; ``tree``;
  ``shares`` at two alphas; ``experiment bb`` and ``abb``, the latter
  under both growth models and under ``cavallo`` and ``auction:idm``;
  and each ``verify`` audit under NRMF, a plain auction or cavallo.
  The branch-independent ``generate`` and ``experiment abb`` digests and
  those of the ir, nd and revenue audits of ``nrmf:idm`` were recorded
  before the command line was declared once (one parser, one command
  table); the IC audit of cavallo on ``star_with_tail``, an IC FAIL, before
  IR and IC became one deviation scan.  The audits on the empty market
  (``unreached``) and on ``leaf_named_taken`` pin the edge cases of the
  deviation scan and of the leaf-extension pairs.  A ``verify`` report
  does not name its mechanism, so audits with the same findings on the
  same instances share a digest.

The catalogue's digests, and the other entries that took over CI's
former hash-seed batch, were recorded before the loader read every plain
decimal through ``_long_int``.
"""

import hashlib
import random

import pytest

from netredist.cli import EXIT_OK, EXIT_PROPERTY_FAILURE, main
from netredist.generators import EVENLY_GROWING, GrowthModel, generate
from netredist.profiles import save_profile

from families import ring_entered_twice, sparse_digraph_profile, two_ended_chain
from networks import cross_invited, leaf_named_taken, nearest_cut, star_with_tail, unreached

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
    ("nrmf:tnm", "json"): "97a49d75767bf3565b62f267ff202e378aaadb935a92d18b315a2f96bfe27f75",
    ("auction:idm", "json"): "47c22125bab836b093b349d9e6c8fa307a6ad7bb1e9814aebc9077d91987659a",
}

#: ``--output json run`` of ``cross_invited()``, per mechanism.
REHANG_SHA256 = {
    "idm": "eeb845b878b5144392f332616fd76d0691d221a4abfbe539d70185e75d7c2135",
    "tnm": "2a6145d3744f978ad73ba15767f1a3efde079da1d7e0f975d14a1d6a4fcac667",
    "vcg": "6ea95a44b79846fcd4af6ec6ff126922b186d417988c1da40a9605a7d8e0af7c",
    "fixed:3": "27d2859c5d12547736e1f45d601f254feaf585825a27ab184f1e6f1bfc349308",
    "cavallo": "d5fe8babe26d70bc1cdb18570e8601c1e690bab1917bb64b823c87fff1152090",
}

#: ``--output json run`` of the catalogue's networks, per network and mechanism.
CATALOGUE_SHA256 = {
    ("nearest", "idm"): "51ad75080f0460117d2636ea74a6eb86d67480918c2ce1bc8f8103edea6aafc0",
    ("nearest", "tnm"): "60b72dff3273368170be6ea5f1979d1fc30046877187ec3777bfe3fad375dca1",
    ("dense", "idm"): "f735ac5b92f57601e33a6a159241933d2c18b3a2ec672bbbbd1d336921505893",
    ("dense", "tnm"): "6726d19d7267492c14ec413e5f4a7dc213ca9fe7a92ca091d81bf46937f0f245",
    ("chain", "idm"): "d097da1651cc564dab83f1cc1c2bdd5bdb0578b2e33b9135bbe35c242d81deab",
    ("chain", "tnm"): "0d9e21a46ad6d21dd7f8313805ebb5eb59c579cdd7b9ed894539372fda992dd4",
    ("ring", "idm"): "0b4daf20eb15c409d6ca652956bfc3a28209d498517839f1b61c597f6998d423",
    ("ring", "tnm"): "696a7d750218a4c7f320c5362cbc29abec2f8ff8ea7c5b7bc3f8b7baf3a80069",
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
    # ``generate`` prints the bytes ``save_profile`` writes
    ("generate-network", "table"): NETWORK_SHA256["network"],
    ("generate-truth", "table"): NETWORK_SHA256["truth"],
    ("generate-small", "table"): "17a24545cb1fcfc814d2737eacfb618fd44d1b4637dd819ed46cfe4d1b2c04fd",
    ("generate-branch-independent-3-branches", "table"): "06971a2a8678d668d8af8305c996909b3136c1efe85de78e5a35549d3ecfac37",
    ("precision-0", "csv"): "f8d8d11e48667c6e7658929d38e483a934f0c09d4e0fcfdcea32722cf3812ab7",
    ("precision-0-true-values", "table"): "824e793582f92e9bea9a9b3e5df69e65594fc980aec9a483039d63a022d9cd94",
    ("shares-half", "json"): "3048272682815aa4cd0a6e30f10c02151ceb4a2d57fddea0b7040175fbaca4b8",
    ("verify-ir-idm", "table"): "6c07a9c5705ad451fbf293d4bb6ece4a8db8216bb3a0c9942c7ac35d32b31f62",
    ("verify-ic-vcg", "table"): "4b31350892194f9ec8a44f78067386b64e986015bfe780201b769e421baa3703",
    ("verify-ic-auction:vcg", "table"): "4b31350892194f9ec8a44f78067386b64e986015bfe780201b769e421baa3703",
    ("verify-nd-cavallo", "table"): "6e8c66106bbded8ec4075841b9a1b4d8119d6100a3b3c769caa95d38dce315d8",
    ("verify-rev-mono-vcg", "table"): "42300bff523442ebe7cd46a71eef7ac3f891576c725d10cbc21ff7fbdc30ae1c",
    ("verify-rev-inv-idm", "table"): "4dbdfce38d77a9d4e119e0b1c3a685d3fe0343f1a428dc139b757330b23175c2",
    ("verify-ic-idm-unreached", "table"): "30f1d63012c26353b84c92be6012024d19960c833e6a4756a7bc240610a3669d",
    ("verify-rev-inv-leaf", "table"): "0a29599182bbccff3776dc1c2adbc2be37c7f7456ebeedea03ce5d237949576c",
    ("experiment-abb-branch-independent-20", "table"): "11822df596c8257434b15b93d622a1f797f4085e630167ababf1db280a035ee8",
    ("experiment-abb-cavallo", "table"): "d2402a90aeb35ac49a89af0cc2c1f16f3e7fcfb4c92702088dbb352330c290a4",
    ("experiment-abb-auction:idm", "table"): "f54c4438e61ba49c3ced170d2ee242a124e7efaf171d29e2e14d50ef54fa78f6",
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
    "generate-network": ["--seed", "3", "generate", "--n", "60"],
    "generate-truth": ["--seed", "5", "generate", "--n", "60"],
    "generate-small": ["--seed", "4", "generate", "--n", "7"],
    "generate-branch-independent-3-branches": ["--seed", "3", "generate", "--model",
                                               "branch-independent", "--branches", "3",
                                               "--n", "40"],
    "precision-0-true-values": ["--precision", "0", "run", "{network}",
                                "--true-values", "{truth}"],
    "shares-half": ["--alpha", "1/2", "shares", "{network}"],
    **{f"verify-{prop}-{mechanism}": ["verify", "--property", prop, "--mechanism",
                                      mechanism, "--instances", "{instances}"]
       for prop, mechanism in (("ir", "idm"), ("ic", "vcg"), ("ic", "auction:vcg"),
                               ("nd", "cavallo"), ("rev-mono", "vcg"), ("rev-inv", "idm"))},
    "verify-ic-idm-unreached": ["verify", "--property", "ic", "--mechanism", "idm",
                                "--instances", "{unreached}"],
    "verify-rev-inv-leaf": ["verify", "--property", "rev-inv", "--mechanism", "nrmf:idm",
                            "--instances", "{leaf}"],
    "experiment-abb-branch-independent-20": ["experiment", "abb", "--model",
                                             "branch-independent", "--sizes", "20",
                                             "--num-seeds", "2"],
    **{f"experiment-abb-{mechanism}": ["experiment", "abb", "--mechanism", mechanism,
                                       "--sizes", "20", "--num-seeds", "2"]
       for mechanism in ("cavallo", "auction:idm")},
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
    model = GrowthModel(kind=EVENLY_GROWING, value_max=100, seed=seed)
    save_profile(generate(model, n), path)
    return str(path)


#: The catalogue's networks, each saved as ``<name>.json``.
CATALOGUE = {
    "rehang": cross_invited,
    "nearest": nearest_cut,
    "dense": lambda: sparse_digraph_profile(random.Random(11), 2000),
    "chain": lambda: two_ended_chain(60, random.Random(0)),
    "ring": lambda: ring_entered_twice(60, random.Random(0)),
}

#: Instance directories for ``verify``, each holding one network.
INSTANCE_DIRECTORIES = {"tail": star_with_tail, "unreached": unreached, "leaf": leaf_named_taken}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Every input the pinned commands read, by the ``{name}`` in their argv."""
    directory = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, build in CATALOGUE.items():
        paths[name] = str(directory / f"{name}.json")
        save_profile(build(), paths[name])
    for name, build in INSTANCE_DIRECTORIES.items():
        (directory / name).mkdir()
        save_profile(build(), directory / name / f"{name}.json")
        paths[name] = str(directory / name)
    (directory / "instances").mkdir()
    return {
        **paths,
        "network": _save(directory / "network.json", 3, 60),
        "truth": _save(directory / "truth.json", 5, 60),
        "instances": str(directory / "instances"),
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


@pytest.mark.parametrize("network,mechanism", list(CATALOGUE_SHA256))
def test_run_output_bytes_on_the_catalogue_networks_are_pinned(capsys, files, network,
                                                                mechanism):
    argv = ["--output", "json", "run", files[network], "--mechanism", mechanism]
    assert _stdout_sha256(capsys, argv) == CATALOGUE_SHA256[network, mechanism]


@pytest.mark.parametrize("command,output", list(OTHER_SHA256))
def test_other_command_output_bytes_are_pinned(capsys, files, command, output):
    argv = [arg.format(**files) for arg in OTHER_ARGV[command]]
    code = OTHER_EXIT.get(command, EXIT_OK)
    digest = _stdout_sha256(capsys, ["--output", output, *argv], code)
    assert digest == OTHER_SHA256[command, output]
