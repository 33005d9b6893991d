"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is printed with its unit,
that no operation fails, and that the output checks catch one
sign-flipped estimate.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

import run

run.import_fermitree()

from tracing import NullTracer  # noqa: E402
from workloads import FermionRdm, MappingVerify, QubitTomography, QutritHw  # noqa: E402

SEED = 3
TINY = {
    w.name: w
    for w in (
        MappingVerify(ternary_modes=7, bk_modes=7, jw_modes=5),
        QubitTomography(qubits=3, shots=8192),
        FermionRdm(modes=3, shots=8192),
        QutritHw(sites=2, shots=2000),
    )
}
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(capsys, workloads, name, trace):
    code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0.2",
                     "--trace", str(trace)], workloads=workloads)
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_printed_with_unit(capsys, name, trace):
    lines, result = bench(capsys, TINY, name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric, unit in declared.items():
        assert any(line.split()[1:2] == [metric] and line.endswith(f" {unit}")
                   for line in lines), metric
    assert any(line.split()[1:4] == ["error_rate", "0", "fraction"] for line in lines)
    if not trace:
        assert result["metrics"]["ok_fraction"]["value"] == 1.0
    if trace:
        assert (run.OUT / f"trace-{name}-seed{SEED}.jsonl").stat().st_size > 0


def flip_largest(values):
    """Index of the estimate with the largest magnitude, to be sign-flipped."""
    return max(range(len(values)), key=lambda i: abs(values[i]))


class CorruptedTomography(QubitTomography):
    """Writes the CLI payload with one estimate's sign flipped."""

    def run_pass(self, inputs, tr):
        out = super().run_pass(inputs, tr)
        path = Path(out["path"])
        payload = json.loads(path.read_text())
        rows = payload["estimates"]
        row = rows[flip_largest([r["value"] for r in rows])]
        assert 2 * abs(row["value"]) > 5 * row["std_error"]
        row["value"] = -row["value"]
        path.write_text(json.dumps(payload))
        return out


def test_sign_flip_counts_as_failure(capsys):
    wl = CorruptedTomography(**TINY["qubit-tomography"].sizes)
    _, result = bench(capsys, {wl.name: wl}, wl.name, 0)
    assert not result["correct"]
    # every pass fails; the worker-invariance check runs the CLI afresh and passes
    assert result["failed"] == result["attempted"] - 1


@pytest.mark.parametrize("name", ["fermion-rdm", "qutrit-hw"])
def test_checker_catches_sign_flip(tmp_path, name):
    wl = TINY[name]
    inputs = wl.setup(SEED, str(tmp_path))
    out = wl.run_pass(inputs, NullTracer())
    assert wl.check(inputs, out) == []
    estimates = out["estimates"]
    i = flip_largest([e.value for e in estimates])
    assert 2 * abs(estimates[i].value) > 5 * estimates[i].std_error
    estimates[i] = dataclasses.replace(estimates[i], value=-estimates[i].value)
    assert len(wl.check(inputs, out)) == 1
