"""The benchmark's workloads: inputs from a seed, one pass, an output check.

Every workload is a closed loop in one process: the next pass starts when
the previous one ends.  ``run_pass`` is what the timed runs measure.
``run_traced_pass`` makes the same public calls, in the same order and
with the same arguments, with a span around each call; where the timed
pass goes through one composite entry point (``cli.main`` or
``sampled_fermionic_rdm``) the traced pass unrolls it, and ``fingerprint``
lets the runner check that both produce the same output.  ``probe`` runs
standalone calls on the traced pass's data that are not part of the pass.

``check`` returns a list of failure messages, empty when the pass output
is correct.  Estimates must lie within ``Z_LIMIT`` standard errors of the
exact oracle value.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

import fermitree
from fermitree import baselines, cli, fermion, qudit, statesim, ternary, tomography
from fermitree.pauli import PauliString

Z_LIMIT = 5.0
# Absolute slack for estimates whose plug-in standard error is 0.
ABS_TOL = 1e-9
# RDM order of the qubit and fermion workloads.
K = 2
# --workers of qubit-tomography; the worker-invariance check compares it with 1.
TOMOGRAPHY_WORKERS = 2
# Shot runs of qutrit-hw, seeded seed, seed + 1, ...
QUTRIT_RUNS = 2


def within_limit(value: complex, exact: complex, std_error: float) -> bool:
    return abs(value - exact) <= Z_LIMIT * std_error + ABS_TOL


class Workload:
    name = ""

    def __init__(self, **sizes) -> None:
        self.sizes = sizes

    @property
    def items(self) -> int:
        raise NotImplementedError

    def setup(self, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def run_pass(self, inputs: dict, tr):
        raise NotImplementedError

    def run_traced_pass(self, inputs: dict, tr):
        return self.run_pass(inputs, tr)

    def probe(self, inputs: dict, output, tr) -> None:
        pass

    def check(self, inputs: dict, output) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, output):
        return None

    def run_extra_check(self, inputs: dict) -> list[str] | None:
        """Untimed check made once per run; None when the workload has none."""
        return None


class MappingVerify(Workload):
    """Build, verify, serialise and reload the ternary tree; verify BK and JW.

    The sizes are fixed; the seed does not change the work.
    """

    name = "mapping-verify"

    def __init__(self, ternary_modes: int = 200, bk_modes: int = 200, jw_modes: int = 60):
        super().__init__(ternary_modes=ternary_modes, bk_modes=bk_modes, jw_modes=jw_modes)

    @property
    def items(self) -> int:
        return sum(math.comb(2 * n, 2) for n in self.sizes.values())

    def setup(self, seed, workdir):
        return dict(self.sizes)

    def run_pass(self, inputs, tr):
        n, nb, nj = inputs["ternary_modes"], inputs["bk_modes"], inputs["jw_modes"]
        with tr.span("ternary.build_mapping"):
            mapping = ternary.build_mapping(n)
        with tr.span("ternary.verify_mapping", pairs=math.comb(2 * n, 2)):
            tree_report = ternary.verify_mapping(mapping)
        with tr.span("ternary.mapping_to_dict"):
            payload = ternary.mapping_to_dict(mapping)
        payload = json.loads(json.dumps(payload))
        with tr.span("ternary.mapping_from_dict"):
            reloaded = ternary.mapping_from_dict(payload)
        with tr.span("baselines.bravyi_kitaev"):
            bk = baselines.bravyi_kitaev(nb)
        with tr.span("ternary.verify_table.bk", pairs=math.comb(2 * nb, 2)):
            bk_report = ternary.verify_table(bk)
        with tr.span("baselines.jordan_wigner"):
            jw = baselines.jordan_wigner(nj)
        with tr.span("ternary.verify_table.jw", pairs=math.comb(2 * nj, 2)):
            jw_report = ternary.verify_table(jw)
        stats = {}
        for kind, table in (("ternary", mapping.majorana_table), ("bk", bk), ("jw", jw)):
            with tr.span("baselines.weight_stats"):
                stats[kind] = baselines.weight_stats(table)
        return {
            "mapping": mapping,
            "reloaded": reloaded,
            "reports": {"ternary": tree_report, "bk": bk_report, "jw": jw_report},
            "stats": stats,
        }

    def check(self, inputs, output):
        failures = []
        modes = {"ternary": inputs["ternary_modes"], "bk": inputs["bk_modes"],
                 "jw": inputs["jw_modes"]}
        for kind, report in output["reports"].items():
            if not report.passed or report.n_operators != 2 * modes[kind]:
                failures.append(f"{kind} table failed verification")
            stats = output["stats"][kind]
            if stats.mean_weight < ternary.weight_lower_bound(modes[kind]) - 1e-12:
                failures.append(f"{kind} mean weight {stats.mean_weight} below log3(2n)")
        if output["reports"]["ternary"].identity_product_ok is not True:
            failures.append("ternary path product is not the identity")
        bound = ternary.max_weight_bound(modes["ternary"])
        if output["stats"]["ternary"].max_weight != bound:
            failures.append(f"ternary max weight differs from the bound {bound}")
        if output["reloaded"] != output["mapping"]:
            failures.append("reloaded mapping differs from the built one")
        return failures


class QubitTomography(Workload):
    """``fermitree tomograph`` in process, at the 2**20-amplitude capacity edge."""

    name = "qubit-tomography"

    def __init__(self, qubits: int = 10, shots: int = 24576):
        super().__init__(qubits=qubits, shots=shots)

    @property
    def items(self) -> int:
        return math.comb(self.sizes["qubits"], K) * 3 ** K

    def argv(self, seed: int, workers: int, output: str) -> list[str]:
        s = self.sizes
        return ["tomograph", "--qubits", str(s["qubits"]), "--k", str(K),
                "--shots", str(s["shots"]), "--workers", str(workers),
                "--seed", str(seed), "--output", output]

    def setup(self, seed, workdir):
        out = os.path.join(workdir, "tomograph.json")
        return {"seed": seed, "workdir": workdir, "output": out,
                "argv": self.argv(seed, TOMOGRAPHY_WORKERS, out)}

    def run_pass(self, inputs, tr):
        with tr.span("cli.main"):
            code = cli.main(inputs["argv"])
        if code != 0:
            raise RuntimeError(f"fermitree tomograph exited with {code}")
        return {"path": inputs["output"]}

    def run_traced_pass(self, inputs, tr):
        """The calls of ``cli.cmd_tomograph`` for a random qubit state."""
        s, seed = self.sizes, inputs["seed"]
        with tr.span("statesim.random_state"):
            system = statesim.random_state(s["qubits"], 2, np.random.default_rng(seed))
        with tr.span("statesim.attach_ancillas") as sp:
            register = statesim.attach_ancillas(system)
        sp.counts["amplitudes"] = register.dim
        with tr.span("statesim.sample_bell_shots", shots=s["shots"]):
            stream = statesim.sample_bell_shots(register, s["shots"], seed,
                                               workers=TOMOGRAPHY_WORKERS)
        with tr.span("tomography.estimate_all_k_rdms") as sp:
            estimates = tomography.estimate_all_k_rdms(stream, K)
        sp.counts.update(elements=len(estimates), gathers=len(estimates) * K * s["shots"])
        with tr.span("tomography.estimates_to_rows"):
            rows = tomography.estimates_to_rows(estimates)
        for row, est in zip(rows, estimates):
            pauli = PauliString.from_map(
                {q: letter.upper() for q, letter in zip(est.qubits, est.letters)}
            )
            with tr.span("statesim.expectation"):
                exact = statesim.expectation(system, pauli).real
            row["exact"] = exact
            row["abs_error"] = abs(est.value - exact)
        payload = {"command": "tomograph", "k": K, "shots": s["shots"], "seed": seed,
                   "state": "random", "tool_version": fermitree.__version__,
                   "qubits": s["qubits"], "estimates": rows}
        path = os.path.join(inputs["workdir"], "tomograph-traced.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return {"path": path, "register": register}

    def probe(self, inputs, output, tr):
        register, shots = output["register"], self.sizes["shots"]
        # complex128 register read and written once per pair contraction,
        # plus the float64 probability vector: computed, not measured.
        n_pairs = register.num_sites // 2
        computed = n_pairs * 2 * 16 * register.dim + 8 * register.dim
        with tr.span("statesim.bell_outcome_distribution", bytes_computed=computed):
            statesim.bell_outcome_distribution(register)
        with tr.span("statesim.sample_bell_shots_w1", shots=shots):
            statesim.sample_bell_shots(register, shots, inputs["seed"], workers=1)

    def fingerprint(self, output):
        with open(output["path"], "rb") as fh:
            return fh.read()

    def check(self, inputs, output):
        with open(output["path"], encoding="utf-8") as fh:
            rows = json.load(fh)["estimates"]
        failures = []
        if len(rows) != self.items:
            failures.append(f"{len(rows)} RDM elements, expected {self.items}")
        for row in rows:
            if not within_limit(row["value"], row["exact"], row["std_error"]):
                failures.append(f"element {row['qubits']} {row['letters']} off by "
                                f"{row['abs_error']:.3g} with std error {row['std_error']:.3g}")
        return failures

    def run_extra_check(self, inputs):
        """Criterion 14: the payload is byte-identical for 1 and N workers."""
        texts = []
        for workers in (1, TOMOGRAPHY_WORKERS):
            path = os.path.join(inputs["workdir"], f"tomograph-w{workers}.json")
            if cli.main(self.argv(inputs["seed"], workers, path)) != 0:
                return [f"tomograph with --workers {workers} failed"]
            with open(path, "rb") as fh:
                texts.append(fh.read())
        return [] if texts[0] == texts[1] else ["payload depends on --workers"]


class FermionRdm(Workload):
    """Encoded Fock state, sampled and exact fermionic 2-RDM."""

    name = "fermion-rdm"

    def __init__(self, modes: int = 8, shots: int = 4096):
        super().__init__(modes=modes, shots=shots)

    @property
    def items(self) -> int:
        return math.comb(2 * self.sizes["modes"], 2 * K)

    def monomials(self):
        return itertools.combinations(range(1, 2 * self.sizes["modes"] + 1), 2 * K)

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        occupations = tuple(int(b) for b in rng.integers(0, 2, size=self.sizes["modes"]))
        return {"seed": seed, "occupations": occupations}

    def _state(self, inputs, tr):
        with tr.span("ternary.build_mapping"):
            mapping = ternary.build_mapping(self.sizes["modes"])
        with tr.span("fermion.encode_fock_state"):
            state = fermion.encode_fock_state(mapping, inputs["occupations"])
        return mapping, state

    def _exact(self, state, mapping, tr):
        with tr.span("fermion.exact_fermionic_rdm"):
            return fermion.exact_fermionic_rdm(state, mapping, K)

    def run_pass(self, inputs, tr):
        s = self.sizes
        mapping, state = self._state(inputs, tr)
        with tr.span("fermion.sampled_fermionic_rdm"):
            estimates = fermion.sampled_fermionic_rdm(
                state, mapping, K, s["shots"], inputs["seed"], workers=1
            )
        return {"mapping": mapping, "estimates": estimates,
                "exact": self._exact(state, mapping, tr)}

    def run_traced_pass(self, inputs, tr):
        """The calls of ``sampled_fermionic_rdm``, one span each."""
        s = self.sizes
        mapping, state = self._state(inputs, tr)
        with tr.span("statesim.attach_ancillas") as sp:
            register = statesim.attach_ancillas(state)
        sp.counts["amplitudes"] = register.dim
        with tr.span("statesim.sample_bell_shots", shots=s["shots"]):
            stream = statesim.sample_bell_shots(register, s["shots"], inputs["seed"], workers=1)
        estimates = []
        for indices in self.monomials():
            with tr.span("fermion.estimate_monomial") as sp:
                est = fermion.estimate_monomial(stream, indices, mapping)
            sp.counts["gathers"] = est.weight * est.num_shots
            estimates.append(est)
        return {"mapping": mapping, "estimates": estimates,
                "exact": self._exact(state, mapping, tr)}

    def probe(self, inputs, output, tr):
        for indices in self.monomials():
            with tr.span("fermion.encode_monomial"):
                fermion.encode_monomial(indices, output["mapping"])

    def fingerprint(self, output):
        return output["estimates"]

    def check(self, inputs, output):
        estimates, exact = output["estimates"], output["exact"]
        failures = []
        if len(estimates) != self.items:
            failures.append(f"{len(estimates)} monomials, expected {self.items}")
        for est in estimates:
            if not within_limit(est.value, exact[est.indices], est.std_error):
                failures.append(f"monomial {est.indices} = {est.value:.4g}, exact "
                                f"{exact[est.indices]:.4g}, std error {est.std_error:.3g}")
        return failures


class QutritHw(Workload):
    """Two qutrit shot runs through JSONL, merged, then every 2-site correlator."""

    name = "qutrit-hw"

    def __init__(self, sites: int = 6, shots: int = 2000):
        super().__init__(sites=sites, shots=shots)

    @property
    def items(self) -> int:
        return len(self.targets())

    def targets(self) -> list[tuple[tuple[int, int, int], ...]]:
        labels = [(f, g) for f in range(3) for g in range(3) if (f, g) != (0, 0)]
        return [
            ((a, *fa), (b, *fb))
            for a, b in itertools.combinations(range(self.sizes["sites"]), 2)
            for fa in labels
            for fb in labels
        ]

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        return {
            "seed": seed,
            "workdir": workdir,
            "state": statesim.random_state(self.sizes["sites"], 3, rng),
            "fiducial": qudit.qutrit_fiducial(),
            "targets": self.targets(),
        }

    def run_pass(self, inputs, tr):
        s, state, fiducial = self.sizes, inputs["state"], inputs["fiducial"]
        with tr.span("statesim.attach_ancillas") as sp:
            register = statesim.attach_ancillas(state, fiducial.as_state())
        sp.counts["amplitudes"] = register.dim
        streams, reloaded = [], []
        for r in range(QUTRIT_RUNS):
            with tr.span("statesim.sample_bell_shots", shots=s["shots"]):
                stream = statesim.sample_bell_shots(register, s["shots"], inputs["seed"] + r)
            path = os.path.join(inputs["workdir"], f"shots-{r}.jsonl")
            with tr.span("statesim.to_jsonl") as sp:
                stream.to_jsonl(path)
            if tr.enabled:
                sp.counts["bytes"] = os.path.getsize(path)
            with tr.span("statesim.from_jsonl"):
                reloaded.append(statesim.BellShotStream.from_jsonl(path, local_dim=3))
            streams.append(stream)
        with tr.span("tomography.merge_streams"):
            merged = tomography.merge_streams(reloaded)
        estimates, exact = [], []
        for targets in inputs["targets"]:
            with tr.span("qudit.estimate_hw_correlator",
                         gathers=len(targets) * merged.num_shots):
                estimates.append(qudit.estimate_hw_correlator(merged, targets, fiducial))
        for targets in inputs["targets"]:
            with tr.span("qudit.exact_hw_correlator"):
                exact.append(qudit.exact_hw_correlator(state, targets))
        return {"streams": streams, "merged": merged, "estimates": estimates, "exact": exact}

    def check(self, inputs, output):
        failures = []
        expected = np.concatenate([st.codes for st in output["streams"]])
        merged = output["merged"]
        if merged.local_dim != 3 or not np.array_equal(merged.codes, expected):
            failures.append("merged read-back stream differs from the in-memory streams")
        if len(output["estimates"]) != self.items:
            failures.append(f"{len(output['estimates'])} correlators, expected {self.items}")
        for est, exact in zip(output["estimates"], output["exact"]):
            if not within_limit(est.value, exact, est.std_error):
                failures.append(f"correlator {est.targets} = {est.value:.4g}, exact "
                                f"{exact:.4g}, std error {est.std_error:.3g}")
        return failures


WORKLOADS = {w.name: w for w in (MappingVerify(), QubitTomography(), FermionRdm(), QutritHw())}
