"""End-to-end tests of the command line interface."""

import contextlib
import hashlib
import io
import json
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermitree.baselines import bravyi_kitaev, jordan_wigner
from fermitree import cli
from fermitree.cli import main
from fermitree.fermion import estimate_fermionic_rdm
from fermitree.statesim import BellShotStream
from fermitree.pauli import PauliString
from fermitree.ternary import build_mapping, load_mapping, verify_mapping, verify_table


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_map_ternary_round_trip(tmp_path):
    path = tmp_path / "mapping.json"
    assert main(["map", "--modes", "5", "--output", str(path)]) == 0
    mapping = load_mapping(str(path))
    assert mapping == build_mapping(5)
    assert verify_mapping(mapping).passed


def test_map_stdout_payload(capsys):
    code, payload = run_json(capsys, ["map", "--kind", "jw", "--modes", "3"])
    assert code == 0
    assert payload["kind"] == "jw"
    assert len(payload["majorana_table"]) == 6
    assert payload["majorana_table"][0] == "+ X0"


def test_stats_csv(tmp_path):
    path = tmp_path / "stats.csv"
    code = main(
        ["stats", "--modes-from", "2", "--modes-to", "4", "--output", str(path)]
    )
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,kind,mean_weight,max_weight"
    assert len(lines) == 1 + 3 * 3
    n, kind, mean, mx = lines[1].split(",")
    assert (n, kind) == ("2", "ternary")
    assert float(mean) > 0 and int(mx) >= 1


def test_stats_rejects_bad_range(capsys):
    assert main(["stats", "--modes-from", "5", "--modes-to", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_stats_rejects_an_unknown_kind_before_writing(tmp_path, capsys):
    path = tmp_path / "stats.csv"
    argv = ["stats", "--modes-to", "3", "--kinds", "ternary,nope", "--output", str(path)]
    assert main(argv) == 2
    assert "unknown mapping kind 'nope'" in capsys.readouterr().err
    assert not path.exists()


def test_verify_passes(capsys):
    assert main(["verify", "--kind", "bk", "--modes", "6"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "anticommutation: ok" in out


def test_verify_catches_corrupted_file(tmp_path, capsys):
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "4", "--output", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    # swap one letter so two operators stop anticommuting
    data["majorana_table"][0] = data["majorana_table"][1]
    path.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


MALFORMED_MAPPINGS = {
    "kind only": lambda data: {"kind": "ternary"},
    "entry not text": lambda data: {**data, "majorana_table": [5, *data["majorana_table"][1:]]},
    "short table": lambda data: {**data, "majorana_table": data["majorana_table"][:2]},
    "n_modes not int": lambda data: {**data, "n_modes": "2"},
    "path not list": lambda data: {**data, "dropped_path": 2},
    "base_height 30": lambda data: {**data, "base_height": 30},
    "base_height true": lambda data: {**data, "base_height": True},
    "extended_leaves shifted": lambda data: {**data, "extended_leaves": [[1]]},
    "num_qubits off by one": lambda data: {**data, "num_qubits": 3},
    "dropped_path not all-Z": lambda data: {**data, "dropped_path": [0]},
    "not an object": lambda data: [data],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MAPPINGS))
def test_verify_rejects_malformed_file(case, tmp_path, capsys):
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "2", "--output", str(path)])
    capsys.readouterr()
    path.write_text(json.dumps(MALFORMED_MAPPINGS[case](json.loads(path.read_text()))))
    assert main(["verify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


VERIFY_MODES_13 = {
    "ternary": (
        "ternary mapping, n=13: 26 operators\n"
        "  anticommutation: ok\n"
        "  squares to +I:   ok\n"
        "  path product:    identity, phase i^1\n"
        "  mean weight:     3.000000 (lower bound 2.965647)\n"
        "  max weight:      3\n"
        "PASS\n"
    ),
    "bk": (
        "bk mapping, n=13: 26 operators\n"
        "  anticommutation: ok\n"
        "  squares to +I:   ok\n"
        "  mean weight:     4.307692 (lower bound 2.965647)\n"
        "  max weight:      5\n"
        "PASS\n"
    ),
    "jw": (
        "jw mapping, n=13: 26 operators\n"
        "  anticommutation: ok\n"
        "  squares to +I:   ok\n"
        "  mean weight:     7.000000 (lower bound 2.965647)\n"
        "  max weight:      13\n"
        "PASS\n"
    ),
}


@pytest.mark.parametrize("kind", sorted(VERIFY_MODES_13))
def test_verify_output_is_unchanged(kind, capsys):
    assert main(["verify", "--kind", kind, "--modes", "13"]) == 0
    assert capsys.readouterr().out == VERIFY_MODES_13[kind]


def test_verify_corrupted_file_output_is_unchanged(tmp_path, capsys):
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "4", "--output", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    table = data["majorana_table"]
    table[0] = table[1]  # duplicate: the two copies commute
    table[3] = "+i " + table[3].split(" ", 1)[1]  # odd phase: squares to -I
    table[5] = "+ I"  # identity commutes with everything
    table[6] = "- " + table[6].split(" ", 1)[1]  # even phase: still fine
    path.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"ternary mapping from {path}: 8 operators\n"
        "  anticommutation: ((1, 2), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6), (6, 7), (6, 8))\n"
        "  squares to +I:   (4,)\n"
        "  path product:    NOT identity\n"
        "  canonical table: no\n"
        "  mean weight:     1.750000 (lower bound 1.892789)\n"
        "  max weight:      2\n"
        "FAIL\n"
    )


def test_verify_file_with_labels_beyond_int64(tmp_path, capsys):
    # labels past int64 parse, but a mapping file's labels must lie below
    # n_modes, so the file is refused; its table still verifies as a table
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "4", "--output", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    table = data["majorana_table"]
    table[2] += " X99999999999999999999"  # still anticommutes with the rest
    table[4] = "+ Z18446744073709551616"  # shares no qubit with the rest
    path.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: majorana_table entry 3 ('+ X0 Z1 X99999999999999999999') acts on qubit"
        " 99999999999999999999, not below n_modes = 4\n"
    )
    report = verify_table(tuple(map(PauliString.parse, table)))
    assert report.anticommutation_failures == ((1, 5), (2, 5), (3, 5), (4, 5), (5, 6), (5, 7), (5, 8))
    assert (report.square_failures, report.mean_weight, report.max_weight) == ((), 2.0, 3)


def test_verify_file_with_labels_outside_the_register(tmp_path, capsys):
    # a 1-mode table on qubits 0 and 5 anticommutes and squares to +I
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "1", "--output", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    data["majorana_table"] = ["+ X0 Z5", "+ Y0 Z5"]
    path.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: majorana_table entry 1 ('+ X0 Z5') acts on qubit 5, not below n_modes = 1\n"
    )

def test_verify_file_holding_another_table(tmp_path, capsys):
    # a Jordan-Wigner table anticommutes and squares to +I, but its product
    # with the dropped all-Z path is not a phase times the identity
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "4", "--output", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    data["majorana_table"] = [str(op) for op in jordan_wigner(4)]
    path.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path)]) == 1
    out = capsys.readouterr().out
    assert "  path product:    NOT identity\n" in out
    assert "  canonical table: no\n" in out
    assert out.endswith("FAIL\n")


def test_verify_file_reports_canonical_table(tmp_path, capsys):
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "13", "--output", str(path)])
    capsys.readouterr()
    assert main(["verify", "--input", str(path)]) == 0
    assert capsys.readouterr().out == (
        f"ternary mapping from {path}: 26 operators\n"
        + VERIFY_MODES_13["ternary"].split("\n", 1)[1].replace(
            "  mean weight:", "  canonical table: yes\n  mean weight:"
        )
    )


def test_verify_file_rejects_contradicting_modes(tmp_path, capsys):
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "13", "--output", str(path)])
    assert main(["verify", "--input", str(path), "--modes", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --modes 5 contradicts file (13)" in captured.err
    assert main(["verify", "--input", str(path), "--modes", "13"]) == 0


def test_verify_file_rejects_other_kinds(tmp_path, capsys):
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "13", "--output", str(path)])
    for kind in ("bk", "jw"):
        assert main(["verify", "--input", str(path), "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"not --kind {kind}" in captured.err


def test_verify_file_with_relabelled_qubits_is_not_canonical(tmp_path, capsys):
    # swapping two qubit labels off the dropped all-Z path (qubits 0 and 3)
    # keeps the algebra and the identity product, but not the canonical table
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "4", "--output", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    swap = {"1": "2", "2": "1"}
    data["majorana_table"] = [
        re.sub(r"(?<=[XYZ])([12])\b", lambda m: swap[m.group(1)], op)
        for op in data["majorana_table"]
    ]
    path.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  path product:    identity, phase i^" in out
    assert "  canonical table: no\n" in out
    assert out.endswith("PASS\n")


# sha256 of the stdout of `fermitree map --modes n`, n = 1..40
MAP_SHA256 = [
    "c52b714705b2144dcbf865c2b40f6be2f7b033c077d5cc7841f4b49f40abd904",
    "5d00cf56c427a686d2e76adfb5b9e5f074d0bc0661f5872a9ad21f4168f3f326",
    "4adaac8f9bf60d596801b0d01e21e78214a57c4b14254ac5727ce8c6967268a9",
    "e9e353244e7f15e93fff27a6cdcde5a81b502f5afd73a2c88a828f133ec9b265",
    "15ffe548401cd1869904807727f6375bc456612c9e0445176976fccd46089ea3",
    "0a392ef3acd5b71f87f005de5630d3f2b5ca3a8113964abd6e4f9b9f415ae40a",
    "ec97a91c104d956a08da26c956b84354bcd243edf38b0990e2533c6d5f900828",
    "3b8dd046bf6f7c5dce29aa21b4f63e1baee9dafa19b5cf157366b1bd51a322fd",
    "8a0b2d9e728041a1116e2f709775f052f41c853c3ea81da1ee2b3c58371a7c09",
    "b234ccd707e35d00398f0d0e70711684596a61122782d7295d43dadbe39c52a0",
    "4be3fe42315d698af8d6075e1742d94771e279990cc97fd688bf98470640be04",
    "ce39a46eaf7fe5ebfdd20ff9daad34a819c3154522fda580812dab67a957b38a",
    "08c81f702ce905398fc85062ebd0ee32f43dda9b96e7b17a7f17288a5f0540f7",
    "3f91419a258670d3bb1603b90914a73838712ee7f04d5a5f81d745d4e62eaf0e",
    "75013cfcc59a17efa0cf4da905c9343f5fa531017462f0720593a5b0143333a3",
    "b38fb54c9e0b79b1721c89134406f7b4b9750ec980732cb2b1a062d354dfb7a0",
    "818d3d1e47ce599dcceb8907471796f6c9a9628dec65b3f27321dbdf82b67cdf",
    "59d78f8dcea487db6fb8a6a9fb07cc1c3f7e09d8a6bfcd7302430acf9291fbd7",
    "b7c25183021dc6c2c8a9fca6218e5fba2c9da6e88119f43bf7ec0601206fa50f",
    "6879dbdc3387700fcaa61e2ec972926ffa01b5ef06f772204248c73c1fbb7b1e",
    "80864a592abf621943f2a69b6c42fa08ac4492c2a1efaed05ba19e8f7fbb416e",
    "8e6a211a5f54d3a2c152afa156f7fbf507bde8499262d738cd7c432b521448de",
    "474f5d789c57a9eee8ce2f129e85cf89641ce7ab7e55c3dfcbfd31e684ba59d7",
    "5ab3f467661d131a07a7a6f440ec26d0587e5f28a27dd9a3c68517f5c9b0b003",
    "9100065b70581d77ee81cc4e217910dc0031b99bfaef8989943e55564d483dbf",
    "4d34d035757142021476ab41a113574500e9c3d2afd360530827d34768c00b9e",
    "77efce26455bc9c003aaed4e39bacdfa098cc5a66926dc0578668031bc62ee5d",
    "2bcd1d01033878457f3b3757425708c4015718a64ddbeae03cff7a93c36de73d",
    "eb772220097452efcc5ed71c5fbaaae49f703f247de7d4132da6ea994ca6486e",
    "b30fe65bf95cf524e656e2ca3a697c96ca1d0993039897068296e2165092c421",
    "d65d7f8529931b1f17628a2c738940c9ce31864fda1dfe633fc5cb299ac8b9f5",
    "7be788464c6a95becf72f56314855f179008bfa1b45d6d36ec481a3101f130cd",
    "35e594176cd1aac4069c99ab3c3128ad05fed80c6287bc5fc60ddac179118629",
    "b34d3b0019c416258bcaaea57527b291419e53b68b3d74e2a1bbae34d8fe52b7",
    "651a4e2d244e38bcb1897f9e4b1bbd569cc26167ec6b13ae28bf70f8095eb225",
    "3c576e066a07b4f5537664460ffb6b05dedb0561020e9d25e2d13a53fbe55023",
    "34a90a3c56c7e51f85722fa38fa588502f8dc86e1afdbaf2c96e565dda175244",
    "f77630fe822a06d63aa72b9d6b8199f306d75ee2e5790d6388cb631ce3d67a03",
    "d6ccab756902aa7860081bf642052d80f9a3e404a0cf59f5332a349fef0d6f94",
    "a487fda7c6308155b2a5b737ff24498ee601b5fd60acba1b3383b8a725c9ee12",
]


@pytest.mark.parametrize("n", range(1, 41))
def test_map_output_is_unchanged(n, capsys):
    assert main(["map", "--modes", str(n)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == MAP_SHA256[n - 1]


# sha256 of the stdout of `fermitree verify --kind K --modes n` for each n in
# VERIFY_MODES, in that order
VERIFY_MODES = [*range(1, 41), 200, 364]
VERIFY_SHA256 = {
    "ternary": [
        "e46877dda250989e62aba9cc6ef37a9175d7d4c97c1d1793778e2a1e59aa1fb0",
        "def47dab7599189c2ac1875f71fc319c4468ccd05c39089d58c519e91ca14b05",
        "cc11341fbf6b3da552b588306aa23f93b9a949fdbff6ed5efffdc547db1ac785",
        "1251b28de63749498eb014b6ccb919cc9170f761cd991d3bbc842eda4b7cb2f0",
        "a342f64e338b0a5424fdfc8ab08dc9c5344540ce904782b0d2e75cc9debcc9dd",
        "edb38edcf4ef08bce707516ac7b55a2fff14e97e92cae612c60a4aae7784efbe",
        "fbf7630d3b664d8706aa5af30b4c3caa793ad47e87c196d6f508adb7147df4de",
        "2a85ba80ca2f8a2440c8b77644bd4e64cabcf977d0913485416ac1f096be434c",
        "5818fe5d222fed5ec7ffd4a859fdb58d924c4f44c639b681d2de7a501ba6bde2",
        "af1df256fd64002f007cc5436609c9d0dadd80efe2a60a9228b1db33ad23e2c8",
        "7fa37c43feace674b6680a480aa80173a61642c21f98d39a3fb62bf3f00b66fe",
        "c9cf5beef67fb3f6ada2723f6f5fac1113da20ebce8903bd9065369a4c1a6944",
        "2a845d3385f0d6288f57c39e0c0f93b409bcf349b2cd3de60dd01e2bfa7c5ed1",
        "24f4d07dc91ed7769470a88c038c322ddeb812c0af54ec22a18b93632fe7f36a",
        "393cf577c017d081ce8411c7ac0a992e1de9af329bb9df0d47be60d498032e8f",
        "ce48394e83bee84100985da95d3d14df71d1d0981af8ea86e8eedabd0a3f2ae7",
        "9e7c6b261df676d05de89ac03585510b779867ba58a0e9eb1017be5bb9d17a20",
        "79e2c77e11dfbb36857c8dc8abdf1b41f4f113e7e9ace064d24328cf49cee1dd",
        "755caa2649ddeffc67dc13945cd20c6c66a5a85508e676a3100e0a21126c4a23",
        "b8f41176273e581b36814664f04ed575d3f52cf14397c8aebc819807891b6863",
        "7e01c16fbbd115a3979552c74ae114894afabfdcf1ae83df1b51966b27ae91c7",
        "fd46fc0809e4a8aa73480cf0a6d50dfae852a1c4f08de0470c0e3b65652db289",
        "3c474bdc7e522d8f025acfccc82487f96ce0c8bb8722950a7efe08d07270a138",
        "e050d47e46a0e7391078d53b34324bd73cb9693036f9e086e5ad0c74b0250256",
        "0e2326933e5ec3f82250b2d9a932e78e2fd013bcbe37a326ba80ee1d01e0a8ee",
        "86b23ff18f71853f4c617a53f64919f9c20fdc58d646206c45b9614fb00dbfa5",
        "886128f0be70b0a958b13c0657f36a419b4dc34ce59565b359275f0c61c5bad7",
        "e6d54ad4ec8e86d9786994cf90b52ceada1eb13fd72b5381e09138ad3eabd862",
        "43db2045bf4dd3b3aa40ce4db3f0fb4296ee75a49bc45b8a7c05c9c51f3ea7c7",
        "fcacd9369321c157dd1ee5a560775722a64d10ed2a7e83f19567b6be69b89e4a",
        "42b577b812e73a64e6b0cfc741b12f31ef39221f2e460217c004a4b5a4d42e46",
        "e535526e9fd46efcfeaf72ebc5e65d18638f8c5ac3545693adce2de9179a4f56",
        "2d847bfeb5a4b6769ccb4ccd8a1e7122b322321c6edebc8189c051893bd9e832",
        "226b627ccd9f3e2e317c7a2f42af2f6157d0c1ea21d23179ae157f8dc7b1753e",
        "f91b5df7d5141985cb6eb70131b7e9840a9b20cc040f5645293c461850f3a138",
        "8b465abcbcef9d8ff5a5c3f6fab7a895631de5bfbc858363078270cae2dc0b7f",
        "26f9d53733a19f8a8082321203e9b6aec6105989e037ff10ed94646213ffaf66",
        "9d19d8b0a331e92b953eb3031169273392081359c46f5631565d1ffe868a74a2",
        "c742f552415c99face951c303ed571ffbb817c9bbd77a57d66502a354cfc0bbc",
        "b809ef866fb2b67f96d868c25c607dd1fd5cb21138f3bd266cde1de0e703409c",
        "d5c2c745f4ba77dbd1ed32b64d8f49c1f6204e0ddaaf7f7d67323a02016189e6",
        "6f054f12acdd5468e30ab5d8e2755077b4ee5bb1d5fafe07aa4f1bdfd727af98",
    ],
    "bk": [
        "5c0940f82e742c53fe171ad89a5e311dc3e7e611ec8874abdbb540d4384ed52a",
        "8897cdd4730263d9d9fcdcf5676d52c810e434aade860788513cec77e65f2468",
        "e8233c49a61177fec978286b2bd1da85360c5472f3bdecf4fb784d8c256c9f8b",
        "902f317fd658aa6aacd15973e955cee8c0570dfa5115c9c29438226b52b04dc8",
        "352b7e34b1d84e2b1348195799766b39183ee3de56b5f798c1363b855a4cd43e",
        "496ec4110cce5724adbba9be5c45d570bb5d54dd221868bb704d86fabe23170e",
        "29084a2a392e7dd279cade2719b2957db65e533684f737159003b67203670b9c",
        "02b083099e12ec1b9bd941ac0406f5b44e1d3207e3e581e08d470ede3077c786",
        "180db4b3a27ef46550f181ebed7fee8d6df9d5b2ee3a33d9eff644a609584ec1",
        "b94ca27d14d4e64886e8aed6f5e9f36802aa331ed7f8221ec0e4f9ecd9340f57",
        "e446e866414e0938c51031f5b0ff1f1d5484eb68713bc0e7e8e6bbe4ae31420a",
        "b048d97d76cfb7bf66672350bcce0973ab1f12753a18df4bfbca4c264648524f",
        "25c7848e7f056be534e91cdad6e2571fc44395d3fe7a9dca4e4a834a8654bfe3",
        "b58a8ecc17110a85e62497cf8329d47c0f382413afc7ed3ba254ab807c2fcd95",
        "4e73314921b8d95849d9a1ce9975df6659fa18ae0a50a9f9f14d8c98eb56b2ad",
        "a1a976b2bc802a62e7f8ef3be514e5877897f41c9726be786ed326bdbf988e11",
        "173c3fcad33d6096e23717c9cbec472bd7ff66f4b5aa50e6d1485ce89eadfdd1",
        "0790b2353b2656121d71428496bb73ad4515198eb410985918583f45c33dd445",
        "29ae19996bfb184cc089a1972247574473448e585f5064a2658308d1626f0ec1",
        "07e8ecaa6c9324e0dfb77fe7d1f5d056df43811434222c58ba726741914efec1",
        "4312c525fd4ec498626f971e427dab8332af9a08e87115526554db7f6f0d0a38",
        "1e1a4d8d003190a2f7b940cd630d5590e56040a1f4779fddf3e481cc2b85fbc4",
        "d1be04821422081bdeea8fd8ae570f5c0c8f86dba16e7c378eac34a04f97a2d7",
        "cc1c8a718b9eb53494b4489413eeec97a64c49c16f61320fd8635f2c8c585333",
        "719879f53f044a66a765d123ebc41a4ed376c204d856c0844b61535afd1115b7",
        "e92ac7a8064ff12018939d579879910c31e747f066e2ac17e1eeb858686df696",
        "6eeec5a45a975cd8050f8f810f40160f973f7fbf2bb4309683959540b187c554",
        "138f09d32eb4bd9eb0e3a44617d6d043d17a822ae994a31943a4b5aa5f8c7562",
        "16faf6c2c040388604c8626d5c15d046a4a5fb03c39e9bc3663da4ae64fa1ced",
        "f3db55aa44274b0d50b74ef760a01384117970db46ef7c434f64de50ed4ad07a",
        "3e7b05e3bd09449f04e7a8a8da928890e42909805e4bdc2dea8ae42ede2f4cd9",
        "674e6bec9ff912c916dbd8a9ef1f839ae3832e9d8099b0818018f9c5de11ce92",
        "df786e8d030eb2cbb2901d5b50f0707d7b30ea0913ae7a30d6369623c7ff6baa",
        "02bb86bb90edf3dd7951018a7f5be36d9ba5c83e8b4b658b5b428d82137ad8b5",
        "8b08865ee66482cec11df59adfa6e5e4145554a35c6dc9a653b735eb50ec4a81",
        "a7668ae7a40ce88af8e702dd9aee036b9b95e6963e0b78f23e6e2a24d0053015",
        "320ebf1a7d674147a3ac3a2721317ef09cc1aaf7e66c5e36225c325730cbc31d",
        "50f9f5f4199a969458381f18b1020c25c19958a6fa0b046c575f6d3e9e2aec75",
        "ea20f3d0d5aabc999b82cd29727ccfaaa865227f41f6e5708ae0bde1d9ba9f4c",
        "07fdaedd962067ef27fc2356853f000ff17307cda1652c2bebe55866d4f9da55",
        "f903097930c94e582f112725bdffb4f1cc7afcac89ea4b2027e37e85e4fd0a82",
        "2f59aaa613fd60a1868e94eb01f65a0357dde9c068e8d95c0b43e72d91263ab9",
    ],
    "jw": [
        "c55a84824fe2e1ba4b996855c27fc893ab0be0b1c4c5567cac9c4c19fe991522",
        "c0c277913a0e0de1026dece62184a8530064dd30951706b8f3670d8e256c0546",
        "fafb81b98dd35cf8aee45f1261a676fde59bd1cef691c84f75266f3d4422439d",
        "71e7719e47ff6e424a7fd09742f3f62760e7ce0988c3e691d68bae5cc4d41df3",
        "27ebde12282b291f91929f7ff1bc3974939d5a66ae8c8f64dffc877bd3436660",
        "8786d50946fe8dd774b6076ca3af8388f476c0d935267597181834106c1790ca",
        "bfccc7c45d934c93857edd8847fd5655f0ac0b7d16bab6cf7ed9699503c328a6",
        "20e03e21235afcdb73f236746480b126b7310655e374b883394297ba97b844c7",
        "a5ba1090675f591c95603826e6502b98f901713e0cf2b5cb85115f8fa6a0126d",
        "42ced2af0171b8627236c69e7cd417de67f689c0f9653dbab09194b034955f60",
        "04ca27ddb6bd6e66293dc9ccf9b8dbd0104a18cef03afe8717511ff90d0a1a47",
        "3f6fb76c7a8c53bd4c5714340068351d46c03a7cbde4bf7461dbf4f9557384d6",
        "e7a084e9360442febe9de50fc882bd259231030aa84b8f6245b8175774925f41",
        "b4a5b5aaac1e85649ad878e28c54b94fee62f7cb8d06efd676e2923ce0cee253",
        "291cb93fe140a58e60387057ca85591d2446d78cb4cfe591b49f9cdf58d1abd1",
        "e6acdef4894262ffb9991e86b05b78479197302ab89f3e6189c470688f545c46",
        "6b40972938a8950e21fd1ebda889455562579e1dc3dbcf490d2344fd92cb4bed",
        "8b9e718e9c704a255c653f5a7edcb0cbfaeafe756b24a691cf2d6417bdb40d7b",
        "9b40475440e847d2b675e3a2fe5bcaa3798f02153e92f53edc05914e04664150",
        "cc272ca9be9f6e483c3bb696281fab85e6e6a7476e41e07ecd29f227f8651e61",
        "ab8d1d55ba63787fb20f0dbccfce0e0743d21c6df8c3150e96119918b934d7ad",
        "f131b22ff8fb587a6ee6b1222f281c4f91ab097d2b224a77ec695ce5ac0b7b5a",
        "00d7b4a1350e60111c55cef23d4ce8f7f1306a05733009dff50fcf3ca096f17d",
        "e68c61d22c31748857f9e5228be6637d28e0ebf4d8934655dce2cf5a3a4d3d71",
        "96f4cc59fc18f4aa57ccc5a97afd8c3118ef3d86c49d93c1e93ca8147e5a8f32",
        "d8b21f692523e28164aeb1296e3844b0bf303a0006b30360e0c323dc517983c5",
        "e842265bd79079f9cb775f5d1c6396ccb2c9e3c384ec63485b0e0ae8e0008203",
        "a5df8a362657b714319b11cfb607e5ce5003f25c3ce13fb2d566551aec189add",
        "29779d42c5a938e83ac2bee8daf0d9d00fa0b555960b2d7de81a5030d1dbf451",
        "ece0fbf627b6fd92e8486cdb2ad071030710ae049469a3e171f52eb36e520f64",
        "d7e64a452a39e039c0923320f925b35135887960c0de2a61d912705e8d13e537",
        "a11d139e98a63b436901b40fb4581f77796a80d8ec89f0eae7320d2f277b25ea",
        "4106742d20a9b931eed67941199a0b53e4257c1df31b99aaa2e08931cc3cc3ca",
        "31c0431b0b0df37e19e598f4f4d477e439522fb10a2a70c2c9e830863dc8896b",
        "c0156b082ecc8944feda6dcbb927bef70912408a780f2a10d677dc9414a0b4c3",
        "b3cda14ad223d2ddb1e442692be5f62a7cb1485cf5d894372e54d9a2d02e5537",
        "d3a3485631b611388963ea04a856c5a5fa09e228aa0a3fc10d6022e28e72f215",
        "434311a30f8cd5aef241c206bf5cbf830147092c0dd556a15bc8aa94e9fc2374",
        "9e5d0548e4883f75237512fe4978d632bf7bc439295ac222c972969dc806203a",
        "ad44af154556bc909ca93de03ab2ec4c6879529db92e7c7467a9719140cc4307",
        "7ab8124ad7d92e84b44de40f74b277ed38b42a27bc5cbeb3c63bb2832e421049",
        "d65301582e0211bd582aef1d474dfd3ee62d0c2e7107a1fb31bbf7850a58e14f",
    ],
}


@pytest.mark.parametrize("kind", ["ternary", "bk", "jw"])
@pytest.mark.parametrize("n", VERIFY_MODES)
def test_verify_stdout_is_unchanged(kind, n, capsys):
    assert main(["verify", "--kind", kind, "--modes", str(n)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_SHA256[kind][VERIFY_MODES.index(n)]


def test_verify_needs_modes_or_input(capsys):
    assert main(["verify"]) == 2
    assert "error" in capsys.readouterr().err


def test_tomograph_qubit_payload(tmp_path, capsys):
    shots_path = tmp_path / "shots.jsonl"
    code, payload = run_json(
        capsys,
        [
            "tomograph",
            "--qubits",
            "2",
            "--k",
            "1",
            "--shots",
            "500",
            "--seed",
            "11",
            "--shots-output",
            str(shots_path),
        ],
    )
    assert code == 0
    assert payload["qubits"] == 2
    assert len(payload["estimates"]) == 6
    for row in payload["estimates"]:
        assert abs(row["value"] - row["exact"]) == pytest.approx(row["abs_error"])
        assert row["std_error"] > 0
    assert len(shots_path.read_text().strip().splitlines()) == 500


def test_tomograph_fermionic_payload(capsys):
    code, payload = run_json(
        capsys,
        [
            "tomograph",
            "--fermionic",
            "--modes",
            "2",
            "--shots",
            "2000",
            "--seed",
            "3",
        ],
    )
    assert code == 0
    assert payload["mapping"] == "ternary"
    assert len(payload["estimates"]) == 6
    assert payload["attenuation_bound"] == 5.0
    assert payload["max_attenuation"] <= 5.0
    for row in payload["estimates"]:
        assert len(row["indices"]) == 2
        assert row["weight"] >= 1
        assert row["abs_error"] < 1.0


@pytest.mark.parametrize("state", ["zero", "ghz"])
def test_tomograph_named_state_payload(state, capsys):
    # on |0000> and on the 4-qubit GHZ state every ZZ pair is 1 and every
    # two-qubit string with an x or a y is 0
    code, payload = run_json(
        capsys,
        ["tomograph", "--qubits", "4", "--k", "2", "--shots", "2000", "--seed", "1", "--state", state],
    )
    assert code == 0
    assert payload["state"] == state
    assert len(payload["estimates"]) == 6 * 9
    for row in payload["estimates"]:
        want = 1.0 if row["letters"] == ["z", "z"] else 0.0
        assert row["exact"] == pytest.approx(want, abs=1e-12)
        assert abs(row["value"] - row["exact"]) <= 5 * row["std_error"]


def test_tomograph_worker_count_does_not_change_output(tmp_path):
    paths = []
    for workers in ("1", "4"):
        path = tmp_path / f"out-{workers}.json"
        code = main(
            [
                "tomograph",
                "--qubits",
                "3",
                "--k",
                "2",
                "--shots",
                "9000",
                "--seed",
                "21",
                "--workers",
                workers,
                "--output",
                str(path),
            ]
        )
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_tomograph_register_too_large(capsys):
    # 11 system qubits with one ancilla each have 4^11 Bell outcomes, past
    # the dense limit
    code = main(
        ["tomograph", "--qubits", "11", "--shots", "10", "--seed", "0"]
    )
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_tomograph_fermionic_register_too_large(capsys):
    # the ternary tree of 11 modes has 11 qubits, so 4^11 Bell outcomes
    code = main(
        ["tomograph", "--fermionic", "--modes", "11", "--shots", "10", "--seed", "0"]
    )
    assert code == 3
    assert "Bell outcomes" in capsys.readouterr().err


def test_tomograph_fermionic_needs_modes(capsys):
    code = main(["tomograph", "--fermionic", "--shots", "10", "--seed", "0"])
    assert code == 2
    capsys.readouterr()


def test_tomograph_fermionic_shots_output_is_the_estimated_stream(tmp_path):
    argv = ["tomograph", "--fermionic", "--modes", "3", "--k", "2", "--shots", "700",
            "--seed", "4", "--kind", "bk"]
    plain, payload, shots = tmp_path / "plain.json", tmp_path / "t.json", tmp_path / "s.jsonl"
    assert main([*argv, "--output", str(plain)]) == 0
    assert main([*argv, "--output", str(payload), "--shots-output", str(shots)]) == 0
    assert payload.read_bytes() == plain.read_bytes()
    stream = BellShotStream.from_jsonl(str(shots))
    assert (stream.num_pairs, stream.num_shots) == (3, 700)
    rows = json.loads(payload.read_text())["estimates"]
    estimates = estimate_fermionic_rdm(stream, bravyi_kitaev(3), 2)
    assert [(row["value_re"], row["value_im"], row["std_error"]) for row in rows] == [
        (est.value.real, est.value.imag, est.std_error) for est in estimates
    ]


@pytest.mark.parametrize("branch", [["--qubits", "3"], ["--fermionic", "--modes", "3"]])
@pytest.mark.parametrize("k", ["0", "4"])
def test_tomograph_rejects_k_outside_the_register(branch, k, monkeypatch, capsys):
    # k is checked against the register before any shot is drawn
    def sampler(*args, **kwargs):
        raise AssertionError("sampled before k was checked")

    monkeypatch.setattr(cli, "sample_povm_shots", sampler)
    assert main(["tomograph", *branch, "--k", k, "--shots", "10", "--seed", "0"]) == 2
    assert "k must be in 1..3" in capsys.readouterr().err


@pytest.mark.parametrize("state", ["random", "zero", "ghz"])
@pytest.mark.parametrize(
    "argv,message",
    [
        (["--qubits", "0", "--seed", "0"], "--qubits must be at least 1, got 0"),
        (["--qubits", "-1", "--seed", "0"], "--qubits must be at least 1, got -1"),
        (["--qubits", "3", "--seed", "-1"], "--seed must be non-negative, got -1"),
        (["--fermionic", "--modes", "3", "--seed", "-2"], "--seed must be non-negative, got -2"),
    ],
)
def test_tomograph_rejects_a_bad_register_or_seed(argv, message, state, capsys):
    # named for the option at fault, not for --k or by numpy's seed check
    assert main(["tomograph", *argv, "--state", state, "--shots", "10"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,code,message",
    [
        (["--qubits", "12", "--shots", "10"], 3, "Bell outcomes"),
        (["--fermionic", "--modes", "12", "--shots", "10"], 3, "Bell outcomes"),
        (["--qubits", "10", "--shots", "0"], 2, "at least one shot"),
        (["--qubits", "10", "--shots", "10", "--workers", "0"], 2, "at least one worker"),
    ],
)
def test_tomograph_checks_sampling_before_the_exact_column(argv, code, message, monkeypatch, capsys):
    # exit at once, not after the C(n, 5) 3^5 or C(2n, 10) masks and exact values
    def exact(*args, **kwargs):
        raise AssertionError("mask table or exact column built before the sampling checks")

    for name in ("rdm_masks", "monomial_masks", "expectations"):
        monkeypatch.setattr(cli, name, exact)
    assert main(["tomograph", *argv, "--k", "5", "--seed", "0"]) == code
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,option",
    [
        (["--fermionic", "--modes", "4", "--qubits", "9"], "--qubits"),
        (["--qubits", "3", "--modes", "9"], "--modes"),
        (["--qubits", "3", "--kind", "jw"], "--kind"),
        (["--qubits", "3", "--kind", "ternary"], "--kind"),
        (["--modes", "3"], "--modes"),
    ],
)
def test_tomograph_rejects_contradicting_options(argv, option, capsys):
    assert main(["tomograph", *argv, "--shots", "10", "--seed", "0"]) == 2
    assert re.search(rf"error: {option} (needs|contradicts) --fermionic", capsys.readouterr().err)


def test_bad_flag_exits_via_argparse():
    with pytest.raises(SystemExit) as err:
        main(["map", "--kind", "nonsense", "--modes", "3"])
    assert err.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0


def test_qudit_sic_qutrit(capsys):
    code, payload = run_json(capsys, ["qudit-sic", "--dimension", "3"])
    assert code == 0
    assert payload["exact_sic"] is True
    assert payload["povm_sum_residual"] < 1e-10
    assert payload["target_magnitude"] == pytest.approx(0.5)
    assert len(payload["calibration_factors"]) == 8


def test_qudit_sic_rejects_non_sic_fiducial(tmp_path, capsys):
    path = tmp_path / "fid.json"
    path.write_text(
        json.dumps({"dimension": 3, "amplitudes": [[1, 0], [0, 0], [0, 0]]})
    )
    code, payload = run_json(capsys, ["qudit-sic", "--fiducial", str(path)])
    assert code == 1
    assert payload["informationally_complete"] is False


@pytest.mark.parametrize(
    "payload",
    [
        {"dimension": 3},
        {"dimension": "3", "amplitudes": [[1, 0], [0, 0], [0, 0]]},
        {"dimension": 3, "amplitudes": [[1, 0], [0], [0, 0]]},
        {"dimension": 2, "amplitudes": [["1", 0], [0, 0]]},
        [3],
    ],
)
def test_qudit_sic_rejects_malformed_fiducial(payload, tmp_path, capsys):
    path = tmp_path / "fid.json"
    path.write_text(json.dumps(payload))
    assert main(["qudit-sic", "--fiducial", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_qudit_sic_rejects_boolean_amplitudes(tmp_path, capsys):
    path = tmp_path / "fid.json"
    path.write_text('{"dimension": 2, "amplitudes": [[true, 0.0], [0.0, 0.0]]}')
    assert main(["qudit-sic", "--fiducial", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_qudit_sic_needs_fiducial_for_other_dims(capsys):
    assert main(["qudit-sic", "--dimension", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("dimension,code", [(32, 1), (33, 3)])
def test_qudit_sic_bell_basis_capacity(dimension, code, tmp_path, capsys):
    # a basis-state fiducial is not informationally complete, so D = 32
    # runs to the report and exits 1; D = 33 is past the Bell-basis budget
    amplitudes = [[1, 0]] + [[0, 0]] * (dimension - 1)
    path = tmp_path / "fid.json"
    path.write_text(json.dumps({"dimension": dimension, "amplitudes": amplitudes}))
    assert main(["qudit-sic", "--fiducial", str(path)]) == code
    captured = capsys.readouterr()
    if code == 3:
        assert captured.out == ""
        assert "budget" in captured.err
    else:
        assert json.loads(captured.out)["informationally_complete"] is False


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fermitree", "map", "--modes", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["n_modes"] == 2


# -- the report writer -----------------------------------------------------------

# floats json spells in every way: signed zeros, subnormals, the switch to
# exponent form at 1e16 and 1e-5, and the non-finite values
FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, 9999999999999998.0, 0.0001,
                     float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
)
INTS = st.one_of(st.integers(-(2**63), 2**63 - 1), st.integers(-(10**40), 10**40))
SCHEMAS = {
    # field -> (strategy of one value, whether a column may be a numpy array)
    "qubit": {
        "qubits": (st.lists(st.integers(0, 2**70), max_size=4).map(tuple), False),
        "letters": (st.lists(st.sampled_from("xyz"), max_size=4).map(tuple), False),
        "value": (FLOATS, True),
        "std_error": (FLOATS, True),
        "num_shots": (INTS, True),
        "exact": (FLOATS, True),
        "abs_error": (FLOATS, True),
    },
    "fermionic": {
        "indices": (st.lists(st.integers(1, 64), max_size=6).map(tuple), False),
        "value_re": (FLOATS, True),
        "value_im": (FLOATS, True),
        "std_error": (FLOATS, True),
        "pauli": (st.text(max_size=12), False),
        "weight": (INTS, True),
        "attenuation": (FLOATS, True),
        "exact_re": (FLOATS, True),
        "exact_im": (FLOATS, True),
        "abs_error": (FLOATS, True),
    },
}


def emitted(payload, rows=None):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(payload, None, rows)
    return out.getvalue()


def redumped(payload, rows):
    # the oracle: the rows as dicts of Python values, through json.dumps
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in rows.values()]
    rows = [dict(zip(rows, values)) for values in zip(*columns)]
    full = {**payload, "estimates": rows, "tool_version": cli.__version__}
    return json.dumps(full, indent=2, sort_keys=True) + "\n"


@st.composite
def reports(draw):
    schema = SCHEMAS[draw(st.sampled_from(sorted(SCHEMAS)))]
    length = draw(st.integers(0, 6))
    rows = {}
    for name, (values, array) in schema.items():
        column = draw(st.lists(values, min_size=length, max_size=length))
        if array and draw(st.booleans()):
            try:  # the float and int64 columns the command builds with numpy
                column = np.array(column, dtype=np.int64 if name in ("num_shots", "weight") else float)
            except OverflowError:
                pass
        rows[name] = column
    payload = {"command": "tomograph", "k": draw(INTS), "seed": draw(INTS),
               "state": draw(st.text(max_size=5)), "max_attenuation": draw(FLOATS)}
    return payload, rows


@settings(max_examples=300, deadline=None)
@given(reports())
def test_emitted_rows_are_what_json_dumps_writes(report):
    payload, rows = report
    assert emitted(payload, rows) == redumped(payload, rows)


@pytest.mark.parametrize(
    "column",
    [
        [True, False],
        [None, 1],
        [1, 2.5],
        [(), ()],
        [(1, "x"), (1, "x")],
        [(1, True), (1, 1)],
        [(0.0,), (-0.0,)],
        [[1, [2, {"b": 1, "a": None}]], []],
        np.array([True, False]),
    ],
)
def test_emitted_rows_of_other_types_are_what_json_dumps_writes(column):
    # a column of other or mixed types, and tuples that compare equal with
    # different texts, go through json.dumps value by value
    payload, rows = {"command": "tomograph"}, {"a": column, "b": [0.5, -0.0]}
    assert emitted(payload, rows) == redumped(payload, rows)


def test_emit_refuses_columns_of_unequal_length():
    with pytest.raises(ValueError):
        emitted({"command": "tomograph"}, {"a": [1, 2], "b": [0.5]})


@pytest.mark.parametrize(
    "argv",
    [
        ["--qubits", "4", "--k", "2", "--state", "random"],
        ["--qubits", "4", "--k", "2", "--state", "ghz"],
        ["--qubits", "4", "--k", "2", "--state", "zero"],
        ["--qubits", "3", "--k", "3", "--state", "random"],
        ["--fermionic", "--modes", "4", "--k", "2", "--kind", "ternary"],
        ["--fermionic", "--modes", "4", "--k", "2", "--kind", "jw"],
        ["--fermionic", "--modes", "4", "--k", "2", "--kind", "bk"],
        ["--fermionic", "--modes", "3", "--k", "1", "--state", "zero"],
    ],
)
def test_tomograph_report_is_the_redump_of_its_own_load(argv, tmp_path):
    path = tmp_path / "report.json"
    assert main(["tomograph", *argv, "--shots", "700", "--seed", "5", "--output", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
