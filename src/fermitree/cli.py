"""Command line front end.

Subcommands:
    map        export a Majorana mapping as JSON
    stats      weight statistics over a range of mode counts (CSV)
    verify     run the algebraic checks on a mapping, exit 1 on failure
    tomograph  sample Bell shots and estimate k-RDM elements
    qudit-sic  validate a fiducial state and its Heisenberg-Weyl POVM

Exit codes: 0 success, 1 verification failure, 2 bad arguments or a
malformed input file, 3 register too large for dense simulation.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .baselines import bravyi_kitaev, jordan_wigner, weight_stats
from .fermion import attenuation_bound, monomial_columns, monomial_masks
from .pauli import masks_text
from .qudit import load_fiducial, qubit_fiducial, qutrit_fiducial, validate_fiducial
from .statesim import (
    CapacityError,
    DenseState,
    bell_povm_elements,
    expectations,
    random_state,
    sample_povm_shots,
)
from .ternary import (
    build_mapping,
    load_mapping,
    mapping_to_dict,
    verify_mapping,
    verify_table,
    weight_lower_bound,
)
from .tomography import mask_means, rdm_masks

KINDS = ("ternary", "jw", "bk")


def _build_table(kind: str, modes: int):
    if kind == "ternary":
        return build_mapping(modes).majorana_table
    if kind == "jw":
        return jordan_wigner(modes)
    if kind == "bk":
        return bravyi_kitaev(modes)
    raise ValueError(f"unknown mapping kind {kind!r}")


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_ROWS = "\0estimates"  # the placeholder _emit replaces with the rendered rows
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's spelling


def _emit(payload: dict, output: str | None, rows: dict | None = None) -> None:
    """Write ``payload`` with the tool version as sorted, indented JSON,
    exactly as ``json.dumps(..., indent=2, sort_keys=True)`` writes it,
    plus a newline.  ``rows`` (one equal-length column per field) becomes
    the payload's ``estimates`` list, rendered by ``_rows_text``."""
    envelope = {**payload, "tool_version": __version__}
    if rows is None:
        text = json.dumps(envelope, indent=2, sort_keys=True)
    else:
        envelope["estimates"] = _ROWS
        head, tail = json.dumps(envelope, indent=2, sort_keys=True).split(json.dumps(_ROWS))
        text = head + _rows_text(rows) + tail
    _write(text + "\n", output)


def _rows_text(columns: dict) -> str:
    """The rows {name: columns[name][i]} as the text of a top-level payload
    value: one row template with the names in sorted order, filled with
    each column's texts (``_column_texts``); columns of unequal length raise
    ValueError."""
    names = sorted(columns)
    fields = (f"      {encode_basestring_ascii(name).replace('%', '%%')}: %s" for name in names)
    template = "    {\n" + ",\n".join(fields) + "\n    }"
    texts = (_column_texts(columns[name]) for name in names)
    rows = [template % row for row in zip(*texts, strict=True)]
    return "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"


def _column_texts(column) -> list[str]:
    """The JSON text of each value of a column (a numpy array or a list) at
    the depth of a row's field.  Floats are ``float.__repr__``, with NaN and
    infinities spelled as ``json`` spells them, ints ``int.__repr__`` and
    strings ``json``'s ASCII escape.  A tuple of ints, or of strings, is one
    indented block, rendered once per distinct tuple.  A column of other or
    mixed types goes through ``json.dumps`` value by value."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    kinds = set(map(type, values))
    if kinds == {float}:
        texts = list(map(float.__repr__, values))
        return texts if all(map(math.isfinite, values)) else [_NONFINITE.get(t, t) for t in texts]
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    items = set(map(type, itertools.chain.from_iterable(values))) if kinds == {tuple} else None
    if items in ({int}, {str}):  # equal tuples of ints, or of strings, have equal texts
        text = int.__repr__ if items == {int} else encode_basestring_ascii
        blocks = {v: "[\n        " + ",\n        ".join(map(text, v)) + "\n      ]" if v else "[]" for v in set(values)}
        return [blocks[v] for v in values]
    return [json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n      ") for value in values]


def cmd_map(args: argparse.Namespace) -> int:
    if args.kind == "ternary":
        payload = mapping_to_dict(build_mapping(args.modes))
    else:
        table = _build_table(args.kind, args.modes)
        payload = {
            "kind": args.kind,
            "n_modes": args.modes,
            "num_qubits": args.modes,
            "majorana_table": [str(op) for op in table],
        }
    _emit(payload, args.output)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.modes_from < 1 or args.modes_to < args.modes_from:
        raise ValueError("need 1 <= modes-from <= modes-to")
    kinds = [k.strip() for k in args.kinds.split(",")]
    lines = ["n,kind,mean_weight,max_weight"]
    for n in range(args.modes_from, args.modes_to + 1):
        for kind in kinds:
            stats = weight_stats(_build_table(kind, n))
            lines.append(f"{n},{kind},{stats.mean_weight},{stats.max_weight}")
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    canonical = None  # whether an input file holds build_mapping's table
    if args.input:
        if args.kind != "ternary":
            raise ValueError(f"--input holds a ternary mapping, not --kind {args.kind}")
        mapping = load_mapping(args.input)
        if args.modes is not None and args.modes != mapping.n_modes:
            raise ValueError(f"--modes {args.modes} contradicts file ({mapping.n_modes})")
        label = f"ternary mapping from {args.input}"
        report = verify_mapping(mapping)
        n_modes = mapping.n_modes
        canonical = mapping.majorana_table == build_mapping(n_modes).majorana_table
    elif args.modes is None:
        raise ValueError("need --modes or --input")
    elif args.kind == "ternary":
        mapping = build_mapping(args.modes)
        label = f"ternary mapping, n={args.modes}"
        report = verify_mapping(mapping)
        n_modes = args.modes
    else:
        table = _build_table(args.kind, args.modes)
        label = f"{args.kind} mapping, n={args.modes}"
        report = verify_table(table)
        n_modes = args.modes

    bound = weight_lower_bound(n_modes)
    bound_ok = report.mean_weight >= bound - 1e-12
    print(f"{label}: {report.n_operators} operators")
    print(f"  anticommutation: {'ok' if not report.anticommutation_failures else report.anticommutation_failures}")
    print(f"  squares to +I:   {'ok' if not report.square_failures else report.square_failures}")
    if report.identity_product_ok is not None:
        phase = report.identity_product_phase_power
        print(f"  path product:    {'identity, phase i^' + str(phase) if report.identity_product_ok else 'NOT identity'}")
    if canonical is not None:
        print(f"  canonical table: {'yes' if canonical else 'no'}")
    print(f"  mean weight:     {report.mean_weight:.6f} (lower bound {bound:.6f})")
    print(f"  max weight:      {report.max_weight}")
    passed = report.passed and bound_ok
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _prepare_state(kind: str, num_qubits: int, seed: int) -> DenseState:
    if kind == "random":
        return random_state(num_qubits, 2, np.random.default_rng(seed))
    if kind == "zero":
        return DenseState.zero_state(num_qubits)
    if kind == "ghz":
        return DenseState.ghz(num_qubits)
    raise ValueError(f"unknown state kind {kind!r}")


def cmd_tomograph(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    config = {
        "command": "tomograph",
        "k": args.k,
        "shots": args.shots,
        "seed": args.seed,
        "state": args.state,
    }
    if args.fermionic:
        if args.qubits is not None:
            raise ValueError("--qubits contradicts --fermionic, whose register holds one qubit per mode")
        if args.modes is None:
            raise ValueError("--fermionic needs --modes")
        config.update({"modes": args.modes, "mapping": args.kind or "ternary"})
        table = _build_table(config["mapping"], args.modes)
        num_qubits = args.modes
    elif args.modes is not None:
        raise ValueError("--modes needs --fermionic")
    elif args.kind is not None:
        raise ValueError("--kind needs --fermionic")
    elif args.qubits is None:
        raise ValueError("need --qubits (or --fermionic with --modes)")
    elif args.qubits < 1:
        raise ValueError(f"--qubits must be at least 1, got {args.qubits}")
    else:
        config["qubits"] = num_qubits = args.qubits
    if not 1 <= args.k <= num_qubits:
        raise ValueError(f"k must be in 1..{num_qubits}, got {args.k}")
    system = _prepare_state(args.state, num_qubits, args.seed)
    # the sampler checks the shots, the workers and the capacity before it draws
    stream = sample_povm_shots(system, args.shots, args.seed, workers=args.workers)
    if args.fermionic:
        indices, masks = monomial_masks(table, args.k, num_qubits)
        values, std_error, attenuation, weight = monomial_columns(stream, masks)
        exact = expectations(system, masks).tolist()
        rows = {
            "indices": indices,
            "value_re": [v.real for v in values],
            "value_im": [v.imag for v in values],
            "std_error": std_error,
            "pauli": masks_text(masks, num_qubits),
            "weight": weight,
            "attenuation": attenuation,
            "exact_re": [e.real for e in exact],
            "exact_im": [e.imag for e in exact],
            "abs_error": [abs(v - e) for v, e in zip(values, exact)],
        }
        config.update(max_attenuation=max(attenuation),
                      attenuation_bound=attenuation_bound(table, args.k))
    else:
        keys, masks = rdm_masks(num_qubits, args.k)
        mean, scale, std_error = mask_means(stream, masks[0], masks[1])
        value, exact = scale * mean, expectations(system, masks).real
        qubits, letters = zip(*keys)
        rows = {
            "qubits": qubits,
            "letters": letters,
            "value": value,
            "std_error": std_error,
            "num_shots": np.full(len(keys), stream.num_shots),
            "exact": exact,
            "abs_error": np.abs(value - exact),
        }
    if args.shots_output:
        stream.to_jsonl(args.shots_output)
    _emit(config, args.output, rows)
    return 0


def cmd_qudit_sic(args: argparse.Namespace) -> int:
    if args.fiducial:
        fiducial = load_fiducial(args.fiducial)
        if args.dimension is not None and args.dimension != fiducial.dimension:
            raise ValueError(
                f"--dimension {args.dimension} contradicts file ({fiducial.dimension})"
            )
    else:
        dimension = 2 if args.dimension is None else args.dimension
        if dimension == 2:
            fiducial = qubit_fiducial()
        elif dimension == 3:
            fiducial = qutrit_fiducial()
        else:
            raise ValueError(
                "built-in fiducials exist for D=2,3; otherwise pass --fiducial"
            )

    # first, so a dimension past the Bell-basis budget exits before the
    # D^2 calibration factors are computed
    elements = bell_povm_elements(fiducial.as_state())
    report = validate_fiducial(fiducial)
    d = fiducial.dimension
    total = sum(elements)
    sum_residual = float(np.max(np.abs(total - np.eye(d))))
    payload = {
        "command": "qudit-sic",
        "dimension": d,
        "target_magnitude": report.target_magnitude,
        "min_magnitude": report.min_magnitude,
        "max_magnitude": report.max_magnitude,
        "exact_sic": report.exact_sic,
        "informationally_complete": report.informationally_complete,
        "povm_sum_residual": sum_residual,
        "calibration_factors": {
            f"{f},{g}": [v.real, v.imag] for (f, g), v in sorted(fiducial.overlaps.items())
        },
    }
    _emit(payload, args.output)
    ok = report.informationally_complete and sum_residual < 1e-10
    return 0 if ok else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of every subcommand, built once per process:
    ``parse_args`` keeps no state on it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="fermitree",
        description="Ternary-tree Majorana mappings and Bell-basis RDM estimation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="export a Majorana mapping as JSON")
    p_map.add_argument("--kind", choices=KINDS, default="ternary")
    p_map.add_argument("--modes", type=int, required=True)
    p_map.add_argument("--output")
    p_map.set_defaults(func=cmd_map)

    p_stats = sub.add_parser("stats", help="weight statistics as CSV")
    p_stats.add_argument("--kinds", default=",".join(KINDS))
    p_stats.add_argument("--modes-from", type=int, default=1)
    p_stats.add_argument("--modes-to", type=int, required=True)
    p_stats.add_argument("--output")
    p_stats.set_defaults(func=cmd_stats)

    p_verify = sub.add_parser("verify", help="check a mapping's Majorana algebra")
    p_verify.add_argument("--kind", choices=KINDS, default="ternary")
    p_verify.add_argument("--modes", type=int)
    p_verify.add_argument("--input", help="ternary mapping JSON to verify instead")
    p_verify.set_defaults(func=cmd_verify)

    p_tomo = sub.add_parser("tomograph", help="estimate k-RDM elements from Bell shots")
    p_tomo.add_argument("--qubits", type=int)
    p_tomo.add_argument("--k", type=int, default=1)
    p_tomo.add_argument("--shots", type=int, required=True)
    p_tomo.add_argument("--seed", type=int, required=True)
    p_tomo.add_argument(
        "--workers", type=int, default=1,
        help="at least 1; has no effect on the output or the speed",
    )
    p_tomo.add_argument("--state", choices=("random", "zero", "ghz"), default="random")
    p_tomo.add_argument("--fermionic", action="store_true")
    p_tomo.add_argument("--modes", type=int)
    p_tomo.add_argument("--kind", choices=KINDS, help="mapping of --fermionic (default ternary)")
    p_tomo.add_argument("--output")
    p_tomo.add_argument("--shots-output", help="also write the raw shot stream (JSONL)")
    p_tomo.set_defaults(func=cmd_tomograph)

    p_sic = sub.add_parser("qudit-sic", help="validate a fiducial and its POVM")
    p_sic.add_argument("--dimension", type=int)
    p_sic.add_argument("--fiducial", help="fiducial JSON file")
    p_sic.add_argument("--output")
    p_sic.set_defaults(func=cmd_qudit_sic)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
