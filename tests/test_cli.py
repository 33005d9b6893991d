"""End-to-end tests of the command line interface."""

import json
import subprocess
import sys

import pytest

from fermitree.cli import main
from fermitree.ternary import build_mapping, load_mapping, verify_mapping


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
        "  path product:    identity, phase i^0\n"
        "  mean weight:     1.750000 (lower bound 1.892789)\n"
        "  max weight:      2\n"
        "FAIL\n"
    )


def test_verify_file_with_labels_beyond_int64(tmp_path, capsys):
    path = tmp_path / "mapping.json"
    main(["map", "--modes", "4", "--output", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    table = data["majorana_table"]
    table[2] += " X99999999999999999999"  # still anticommutes with the rest
    table[4] = "+ Z18446744073709551616"  # shares no qubit with the rest
    path.write_text(json.dumps(data))
    assert main(["verify", "--input", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"ternary mapping from {path}: 8 operators\n"
        "  anticommutation: ((1, 5), (2, 5), (3, 5), (4, 5), (5, 6), (5, 7), (5, 8))\n"
        "  squares to +I:   ok\n"
        "  path product:    identity, phase i^0\n"
        "  mean weight:     2.000000 (lower bound 1.892789)\n"
        "  max weight:      3\n"
        "FAIL\n"
    )


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
    # 11 system qubits need 22 sites with ancillas, past the dense limit
    code = main(
        ["tomograph", "--qubits", "11", "--shots", "10", "--seed", "0"]
    )
    assert code == 3
    assert "error" in capsys.readouterr().err


def test_tomograph_fermionic_needs_modes(capsys):
    code = main(["tomograph", "--fermionic", "--shots", "10", "--seed", "0"])
    assert code == 2
    capsys.readouterr()


def test_tomograph_fermionic_rejects_shots_output(tmp_path, capsys):
    path = tmp_path / "shots.jsonl"
    code = main(
        ["tomograph", "--fermionic", "--modes", "2", "--shots", "10", "--seed", "0",
         "--shots-output", str(path)]
    )
    assert code == 2
    assert "--shots-output" in capsys.readouterr().err
    assert not path.exists()


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


def test_qudit_sic_needs_fiducial_for_other_dims(capsys):
    assert main(["qudit-sic", "--dimension", "5"]) == 2
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fermitree", "map", "--modes", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["n_modes"] == 2
