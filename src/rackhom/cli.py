"""Batch command line front end.

Reads one JSON rack description, runs one command, writes one report to
stdout.  The description is a dict: the input document once checked
against the schema, with "free_orbits" filled in on a permutation, and the
report writes it unchanged as "rack".  Exit codes: 0 success, 1
verification mismatch, 2 any error.  The error names ParseError,
ValidationError, InfiniteOrbits and DegreeTooLarge printed on stderr are
stable interface, as are all field names below.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from importlib import import_module
from typing import TYPE_CHECKING, Any, Iterator

from .racks import (
    DEFAULT_BASIS_CAP,
    DegreeTooLarge,
    EmptySpec,
    FiniteRack,
    InfiniteOrbits,
    NotBijective,
    NotPermutation,
    NotSelfDistributive,
    PermutationSpec,
    as_permutation,
    check_count,
    is_int,
    orbit_decomposition,
    validate_rack,
)

if TYPE_CHECKING:
    from .cycles import CertifiedLevel

# The layer functions, each imported from its module on first access (PEP
# 562), so a command loads only the modules it runs.  The runners call them
# as attributes of this module, `_cli.name`, so that a wrapper set here is
# what runs.  `betti`, `basis_recipes` and `independence_certificate` are
# not called here, but the benchmark's tracer wraps them here.
_LAYERS = {
    name: module
    for module, names in (
        ("closed_forms", "betti betti_numbers betti_reaches e2_rank poincare_series"),
        ("cycles", "basis_recipes certified_levels independence_certificate"),
        ("homology", "check_table_cap homology_table"),
    )
    for name in names.split()
}


def __getattr__(name: str) -> Any:
    if name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAYERS[name]}", __package__), name)
    return value


_cli = sys.modules[__name__]


class ParseError(ValueError):
    """The input document is malformed or violates the schema."""


def _is_int_list(value: Any) -> bool:
    return isinstance(value, list) and all(map(is_int, value))


def _check_document(doc: Any) -> dict[str, Any]:
    """The rack description: either an explicit table or a permutation given
    by its cycles plus a count of free orbits, 0 if left out, each key
    checked and in the report's order."""
    if not isinstance(doc, dict):
        raise ParseError("input must be a JSON object")
    kind = doc.get("kind")
    if kind == "table":
        if set(doc) != {"kind", "table"}:
            raise ParseError('table kind takes exactly the fields "kind" and "table"')
        table = doc["table"]
        if not isinstance(table, list) or not table or not all(map(_is_int_list, table)):
            raise ParseError('"table" must be a nonempty list of integer lists')
        return {"kind": "table", "table": table}
    if kind == "permutation":
        if not set(doc) <= {"kind", "cycles", "free_orbits"} or "cycles" not in doc:
            raise ParseError('permutation kind takes "cycles" and optionally "free_orbits"')
        cycles = doc["cycles"]
        if not isinstance(cycles, list) or not all(
            _is_int_list(cycle) and cycle for cycle in cycles
        ):
            raise ParseError('"cycles" must be a list of nonempty integer lists')
        free = doc.get("free_orbits", 0)
        if not is_int(free) or free < 0:
            raise ParseError('"free_orbits" must be a nonnegative integer')
        seen = [v for cycle in cycles for v in cycle]
        if sorted(seen) != list(range(len(seen))):
            raise ParseError("cycle entries must be exactly the ids 0..n-1")
        if not cycles and free == 0:
            raise ParseError("empty permutation: no cycles and no free orbits")
        return {"kind": "permutation", "cycles": cycles, "free_orbits": free}
    raise ParseError('"kind" must be "table" or "permutation"')


def finite_rack(description: dict[str, Any]) -> FiniteRack:
    """Realize as a finite rack; brute-force commands come through here."""
    if description["kind"] == "table":
        return validate_rack(description["table"])
    if description["free_orbits"] > 0:
        raise InfiniteOrbits("free orbits admit no finite realization")
    cycles = description["cycles"]
    successor = {v: c[(i + 1) % len(c)] for c in cycles for i, v in enumerate(c)}
    row = tuple(successor[v] for v in range(len(successor)))
    return FiniteRack((row,) * len(row))


def permutation_spec(description: dict[str, Any]) -> PermutationSpec:
    """Orbit data; closed-form commands come through here."""
    if description["kind"] == "table":
        return PermutationSpec.from_rack(validate_rack(description["table"]))
    return PermutationSpec(
        tuple(len(cycle) for cycle in description["cycles"]), description["free_orbits"]
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rackhom",
        description="Integral rack homology: brute force and closed forms.",
    )
    parser.add_argument("command", choices=list(_RUNNERS))
    parser.add_argument("--input", required=True, help="path to a rack description (JSON)")
    parser.add_argument("--max-degree", type=int, default=4, dest="max_degree")
    parser.add_argument("--terms", type=int, default=8)
    parser.add_argument(
        "--format",
        choices=list(_EMITTERS),
        default="table",
        dest="output_format",
    )
    parser.add_argument("--basis-cap", type=int, default=DEFAULT_BASIS_CAP, dest="basis_cap")
    return parser


def load_description(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, encoding, depth or digits
        raise ParseError(f"invalid JSON: {exc}") from exc
    return _check_document(doc)


# Each stable error name with the exception types reported under it.
# ValidationError: the described rack fails the axioms or preconditions of
# the command.
_ERROR_NAMES: tuple[tuple[Any, str], ...] = (
    (ParseError, "ParseError"),
    ((NotBijective, NotSelfDistributive, NotPermutation, EmptySpec), "ValidationError"),
    (InfiniteOrbits, "InfiniteOrbits"),
    (DegreeTooLarge, "DegreeTooLarge"),
)


# Row keys in JSON order.  The first six are the csv and table columns,
# headed by their keys except where _CSV_HEADERS names one; the rest are
# JSON only.
COLUMNS = (
    "degree", "free_rank", "torsion", "closed_form", "e2_total", "bn_size",
    "certificate_rank", "independent", "recipes",
)
_TABULAR = COLUMNS[:6]
_CSV_HEADERS = {"closed_form": "closed_form_rank"}


def _report(description: dict[str, Any], rows: list, **extra: Any) -> dict[str, Any]:
    """The JSON document every format writes; ``extra`` is the command's own
    key: summary, poincare_series, or e2_page of cells {"p", "q", "rank"}."""
    return {"rack": description, "results": rows, "status": "ok", **extra}


def run_validate(description: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    summary: dict[str, Any]
    if description["kind"] == "table":
        rack = validate_rack(description["table"])
        phi = as_permutation(rack)
        summary = {"size": rack.size, "is_permutation": phi is not None}
        if phi is not None:
            orbits = orbit_decomposition(phi).orbits
            summary["orbits"] = [list(orbit) for orbit in orbits]
    else:
        cycles, spec = description["cycles"], permutation_spec(description)
        summary = {
            "size": sum(map(len, cycles)),
            "is_permutation": True,
            "orbits": cycles,
            "free_orbits": description["free_orbits"],
            "r": spec.r,
            "r_fin": spec.r_fin,
        }
    return _report(description, [], summary=summary)


def _homology_columns(rack: FiniteRack, args: argparse.Namespace) -> list[dict[str, Any]]:
    groups = _cli.homology_table(rack, args.max_degree, args.basis_cap)
    return [{"free_rank": group.free_rank, "torsion": group.torsion} for group in groups]


def _check_work(count: int, what: str, cap: int, spec: PermutationSpec, degree: int) -> None:
    """Closed forms have no basis to count; their work is the number of
    values asked for, held to the same cap.  None of those values exceeds
    b_degree (E^2 cells are nonnegative and sum to b_n on each antidiagonal),
    which must also print within the interpreter's digit limit, if any."""
    check_count(count, cap, "{} {} exceed", what)
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python >= 3.10.7
    if digits and _cli.betti_reaches(spec, degree, 10**digits):
        raise DegreeTooLarge(f"b_{degree} has more than {digits} digits, too many to print")


def _betti_columns(spec: PermutationSpec, args: argparse.Namespace) -> list[dict[str, Any]]:
    _check_work(args.max_degree + 1, "Betti degrees", args.basis_cap, spec, args.max_degree)
    return [{"closed_form": b} for b in _cli.betti_numbers(spec, args.max_degree)]


def _e2_columns(
    spec: PermutationSpec, args: argparse.Namespace
) -> tuple[list[dict[str, Any]], list[dict[str, int]]]:
    """Antidiagonal totals of the E^2 page, and the page itself."""
    cells = (args.max_degree + 1) * (args.max_degree + 2) // 2
    _check_work(cells, "E2 page cells", args.basis_cap, spec, args.max_degree)
    page = [
        {"p": p, "q": q, "rank": _cli.e2_rank(spec, p, q)}
        for q in range(args.max_degree + 1)
        for p in range(args.max_degree + 1 - q)
    ]
    totals = [0] * (args.max_degree + 1)
    for cell in page:
        totals[cell["p"] + cell["q"]] += cell["rank"]
    return [{"e2_total": total} for total in totals], page


def _cycle_columns(levels: Iterator[CertifiedLevel]) -> list[dict[str, Any]]:
    return [
        {
            "bn_size": len(level.recipes),
            "certificate_rank": level.rank,
            "independent": level.independent,
            "recipes": level.recipes,
        }
        for level in levels
    ]


def _rows(*producers: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Merge column producers, each one dict of columns per degree 0..max_degree,
    into rows keyed in COLUMNS order.  The columns free_rank .. e2_total
    that no producer gives are None, which JSON writes as null; other
    columns are left out."""
    rows = []
    for n, parts in enumerate(zip(*producers)):
        row = {"degree": n, **dict.fromkeys(COLUMNS[1:5])}
        for part in parts:
            row.update(part)
        rows.append({key: row[key] for key in COLUMNS if key in row})
    return rows


def run_homology(description: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    return _report(description, _rows(_homology_columns(finite_rack(description), args)))


def run_betti(description: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    spec = permutation_spec(description)
    _check_work(args.terms, "Poincare series terms", args.basis_cap, spec, args.terms - 1)
    rows = _rows(_betti_columns(spec, args))
    coeffs = _cli.poincare_series(spec, args.terms).coefficients
    series = [0] * args.terms
    series[: len(coeffs)] = coeffs
    return _report(description, rows, poincare_series=series)


def run_e2(description: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    totals, page = _e2_columns(permutation_spec(description), args)
    return _report(description, _rows(totals), e2_page=page)


def run_cycles(description: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    levels = _cli.certified_levels(finite_rack(description), args.max_degree, args.basis_cap)
    return _report(description, _rows(_cycle_columns(levels)))


def run_verify(description: dict[str, Any], args: argparse.Namespace) -> dict[str, Any]:
    """Every column at once; ok when the five ranks agree, the certificate
    is independent and there is no torsion."""
    rack = finite_rack(description)
    spec = PermutationSpec.from_rack(rack)  # so a table is validated once
    _cli.check_table_cap(rack.size, args.max_degree, args.basis_cap)
    levels = _cli.certified_levels(rack, args.max_degree, args.basis_cap)  # checks the cap
    rows = _rows(
        _homology_columns(rack, args),
        _betti_columns(spec, args),
        _e2_columns(spec, args)[0],
        _cycle_columns(levels),
    )
    for row in rows:
        del row["recipes"]
    ranks = ("free_rank", "closed_form", "e2_total", "bn_size", "certificate_rank")
    match = all(
        len({row[key] for key in ranks}) == 1 and row["independent"] and not row["torsion"]
        for row in rows
    )
    return _report(description, rows, status="ok" if match else "mismatch")


_RUNNERS = {
    "validate": run_validate,
    "homology": run_homology,
    "betti": run_betti,
    "e2": run_e2,
    "cycles": run_cycles,
    "verify": run_verify,
}


def _cell(key: str, value: Any, missing: str, no_torsion: str) -> str:
    if value is None:
        return missing
    if key == "torsion":
        return ";".join(map(str, value)) or no_torsion
    return str(value)


_CONSTANTS = {None: "null", True: "true", False: "false"}


def emit_json(report: dict[str, Any]) -> str:
    """What `json.dumps(report, indent=2)` writes, for dicts with str keys,
    lists, tuples and scalars.  A scalar or empty report goes to the stdlib
    as it is; otherwise a nested `write` walks the report, calling itself on
    each nonempty container inside the one it writes, instead of the
    stdlib's chain of generators.

    Every separator, quoted key and int is a part of its own, made once and
    shared by every place it is written, and the parts are joined once at
    the end, so a series of a million zeros costs two pointers per item,
    not a string.  Each distinct int is converted to decimal once: `betti`
    prints every Betti number in its row and again in the series, and that
    conversion is most of the work.  Like the stdlib, the walk recurses
    once per level of nesting; reports are at most four levels deep.
    """
    if not isinstance(report, (list, tuple, dict)) or not report:
        return json.dumps(report, indent=2)
    quote = json.encoder.encode_basestring_ascii
    parts: list[str] = []
    append = parts.append
    digits: dict[int, str] = {}
    keys: dict[str, str] = {}  # each key, quoted, with its colon

    def write(container: Any, indent: str) -> None:
        """One nonempty container whose first line starts at ``indent``."""
        keyed = isinstance(container, dict)
        inner = indent + "  "
        lead, separator = "[{"[keyed] + inner, "," + inner  # shared by every item
        for value in container.items() if keyed else container:
            append(lead)
            lead = separator
            if keyed:
                key, value = value
                text = keys.get(key)
                if text is None:
                    text = keys[key] = quote(key) + ": "
                append(text)
            kind = type(value)
            if kind is int:
                text = digits.get(value)
                if text is None:
                    text = digits[value] = int.__repr__(value)
                append(text)
            elif kind is str:
                append(quote(value))
            elif value is None or kind is bool:
                append(_CONSTANTS[value])
            elif not isinstance(value, (list, tuple, dict)):
                append(json.dumps(value))  # floats, subclasses; TypeError on the rest
            elif value:
                write(value, inner)
            else:
                append("{}" if isinstance(value, dict) else "[]")
        append(indent + "]}"[keyed])

    write(report, "\n")
    del write  # it refers to itself: without this, its parts wait for the cycle collector
    return "".join(parts)


def emit_csv(report: dict[str, Any]) -> str:
    import csv

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if "summary" in report:
        writer.writerow(["field", "value"])
        for key, value in report["summary"].items():
            writer.writerow([key, json.dumps(value) if isinstance(value, list) else value])
        return buffer.getvalue()
    writer.writerow([_CSV_HEADERS.get(key, key) for key in _TABULAR])
    for row in report["results"]:
        writer.writerow([_cell(key, row.get(key), "", "") for key in _TABULAR])
    return buffer.getvalue()


def emit_table(report: dict[str, Any]) -> str:
    lines = [f"{key}: {value}" for key, value in report.get("summary", {}).items()]
    if "summary" not in report:
        table_rows = [
            [_cell(key, row.get(key), "-", "none") for key in _TABULAR]
            for row in report["results"]
        ]
        widths = [max(map(len, column)) for column in zip(_TABULAR, *table_rows)]
        for cells in [_TABULAR, *table_rows]:
            lines.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)))
    for row in report["results"]:
        if "recipes" in row:
            lines.append(f"B_{row['degree']}: " + ", ".join(row["recipes"]))
    if "poincare_series" in report:
        series = report["poincare_series"]
        digits = {value: str(value) for value in set(series)}  # one text per distinct int
        lines.append("poincare_series: " + ", ".join(map(digits.__getitem__, series)))
    if "e2_page" in report:
        lines.append("e2_page (p, q, rank):")
        for cell in report["e2_page"]:
            if cell["rank"]:
                lines.append(f"  ({cell['p']}, {cell['q']}): {cell['rank']}")
    lines.append(f"status: {report['status']}")
    return "\n".join(lines) + "\n"


_EMITTERS = {"table": emit_table, "csv": emit_csv, "json": emit_json}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_degree < 0:
            raise ParseError("--max-degree must be nonnegative")
        if args.terms < 1 or args.basis_cap < 1:
            raise ParseError("--terms and --basis-cap must be positive")
        description = load_description(args.input)
        report = _RUNNERS[args.command](description, args)
    except Exception as exc:  # noqa: BLE001 - mapped to stable names below
        name = next((name for types, name in _ERROR_NAMES if isinstance(exc, types)), None)
        if name is None:
            raise
        print(f"{name}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(_EMITTERS[args.output_format](report))
    return 1 if report["status"] == "mismatch" else 0


if __name__ == "__main__":
    sys.exit(main())
