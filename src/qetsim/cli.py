"""Command-line surface: single points, sweeps, figure datasets, and checks.

Subcommands
-----------
efficiency  closed-form energies and optimal angle for one (N, m, ratio)
sweep       closed-form grid over ranges of N, m, and k/h
figure      one of the pinned figure datasets (fig2a ... fig7)
bell        ground-state Bell values
nopt        optimal qubit count at fixed k/h
fixtures    the specialization fixture report
verify      the full verification suite (exit 1 on any failure)

Every table goes out through one CSV writer and one JSON writer, `_csv` and
`_json`, whose docstrings give the format. Identical configurations always
produce identical bytes; `tests/test_output_bytes.py` pins them.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import codecs
import math
import os
import sys
from collections.abc import Iterator, Sequence

import numpy as np

from . import analysis, closedform, protocol_oracle, verify
from .errors import InvalidRange, QetError
from .model import DEFAULT_ORACLE_CAP, ModelParams, Partition

SWEEP_HEADER = "n,m,ratio,e_in,e_out,eta,bell"  # the fields of analysis.SweepTable
#: Rows of a CSV table laid out at a time, as one uint8 array.
CSV_BLOCK_ROWS = 4096

#: Config-file keys that map to valueless flags; written as key=true/false.
_BOOLEAN_KEYS = frozenset({"bell", "scan"})


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else "%.17g" % value


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _cell(value) -> bytes:
    if isinstance(value, str):
        return value.encode("utf-8", "surrogatepass")
    if isinstance(value, bool):
        return b"true" if value else b"false"
    return b"" if value != value else _fmt(value).encode()


def _json_cell(value) -> bytes:
    """A float as its repr and nan as null; any other value as ``json.dumps``
    writes it."""
    if isinstance(value, float):
        return b"null" if value != value else repr(value).encode()
    import json
    return json.dumps(value).encode()


def _distinct_cells(column: np.ndarray, cell) -> tuple[list, np.ndarray]:
    """``cell`` of each distinct value of ``column``, and the index of each
    element's. Floats are told apart by bit pattern, so -0.0 keeps its sign."""
    values = column.view(np.int64) if column.dtype.kind == "f" else column
    # A stable sort: on a sweep's key columns, which arrive in runs, it
    # takes about half the time of ``np.unique``'s quicksort.
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    where = np.empty(ordered.size, dtype=np.intp)
    where[order] = np.cumsum(first) - 1
    return [cell(v) for v in ordered[first].view(column.dtype).tolist()], where


def _block(cells: list[np.ndarray], literals: list[bytes]) -> np.ndarray:
    """Rows of NUL-padded cells, ``literals[i]`` before cell i and the last
    literal after the last cell, as one uint8 array with the NULs dropped."""
    widths = [cell.shape[1] for cell in cells]
    block = np.zeros((len(cells[0]), sum(widths) + sum(map(len, literals))), dtype=np.uint8)
    at = 0
    for i, literal in enumerate(literals):
        block[:, at:at + len(literal)] = np.frombuffer(literal, dtype=np.uint8)
        at += len(literal)
        if i < len(cells):
            block[:, at:at + widths[i]] = cells[i]
            at += widths[i]
    return block[block != 0]


def _blocks(columns: Sequence[np.ndarray], keys: int, literals: list[bytes],
            as_json: bool) -> Iterator[np.ndarray]:
    """The data rows as bytes, one uint8 array per ``CSV_BLOCK_ROWS`` rows,
    laid out by ``_block``. The first ``keys`` columns, the inputs, and
    every column that is not float are formatted once per distinct value,
    by ``_cell`` or ``_json_cell``; the other floats by one ``floatfmt.g17``
    or ``floatfmt.shortest`` call a block of rows, a nan as an empty cell or
    ``null``."""
    from . import floatfmt  # only commands that write a table load it
    text_of, floats, null = ((_json_cell, floatfmt.shortest, b"null") if as_json
                             else (_cell, floatfmt.g17, b""))
    null = np.frombuffer(null, dtype=np.uint8)
    distinct, has = {}, {}
    for i, column in enumerate(columns):
        if i < keys or column.dtype.kind != "f":
            text, where = _distinct_cells(column, text_of)
            text = np.array(text, dtype=bytes)
            distinct[i] = text.view(np.uint8).reshape(len(text), text.itemsize), where
        elif np.isnan(column).any():
            has[i] = ~np.isnan(column)
    for start in range(0, columns[0].size, CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        count = columns[0][rows].size
        values = [column[rows][has[i][rows]] if i in has else column[rows]
                  for i, column in enumerate(columns) if i not in distinct]
        text = floats(np.concatenate(values) if values else [])
        cells, at = [], 0
        for i in range(len(columns)):
            if i in distinct:
                cells.append(distinct[i][0].take(distinct[i][1][rows], axis=0))
            elif i not in has:
                cells.append(text[at:at + count])
                at += count
            else:
                # A block of nans is a column of nulls, or of zero width in CSV.
                filled = has[i][rows]
                found = np.count_nonzero(filled)
                width = text.shape[1] if found else 0
                cell = np.zeros((count, max(width, null.size)), dtype=np.uint8)
                cell[filled, :width] = text[at:at + found, :width]
                cell[~filled, :null.size] = null
                cells.append(cell)
                at += found
        yield _block(cells, literals)


def _bytes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)


def _text(parts: list[np.ndarray]) -> str:
    """The byte arrays of ``parts`` joined and read back as UTF-8, lone
    surrogates too. Empties ``parts``, so no block outlives the join."""
    text = np.concatenate(parts)
    parts.clear()
    return codecs.utf_8_decode(text, "surrogatepass", True)[0]


def _csv(header: str, columns: Sequence[np.ndarray], meta: list[str], keys: int) -> str:
    """The table as CSV: ``meta`` as ``#`` lines, the header, a line a row. A
    float is ``%.17g`` and nan an empty cell, an int decimal, a bool true or
    false and a string itself. The first ``keys`` columns, the inputs, and
    every column that is not float are formatted once per distinct value;
    the other floats go through one ``floatfmt.g17`` call a block of rows."""
    head = "\n".join([*(f"# {m}" for m in meta), header]) + "\n"
    literals = [b"", *[b","] * (len(columns) - 1), b"\n"]
    return _text([_bytes(head), *_blocks(columns, keys, literals, as_json=False)])


def _json(header: str, columns: Sequence[np.ndarray], meta: list[str], keys: int = 0) -> str:
    """The table as ``{"meta": meta, "rows": [...]}``, as ``json.dumps`` with
    ``indent=2`` writes it: a float is its repr and nan ``null``, and an int,
    a bool or a string is ``json.dumps`` of it. The blocks of rows are laid
    out as ``_csv`` lays out its own, with the keys in the separators; the
    floats go through ``floatfmt.shortest``, the rest once per distinct
    value, and so do the first ``keys`` columns."""
    import json
    # The rows go between the brackets of the empty "rows" list, which
    # json.dumps writes last.
    head = json.dumps({"meta": meta, "rows": []}, indent=2)
    if not columns[0].size:
        return head + "\n"
    fields = [f"      {json.dumps(key)}: ".encode() for key in header.split(",")]
    literals = [b"    {\n" + fields[0], *(b",\n" + field for field in fields[1:]),
                b"\n    },\n"]
    parts = [_bytes(head[:-len("]\n}")] + "\n"),
             *_blocks(columns, keys, literals, as_json=True)]
    parts[-1] = parts[-1][:-len(",\n")]  # the last row ends the list
    parts.append(_bytes("\n  ]\n}\n"))
    return _text(parts)


def rows_to_csv(table: analysis.SweepTable, meta: list[str]) -> str:
    return _csv(SWEEP_HEADER, [*vars(table).values()], meta, keys=3)


def rows_to_json(table: analysis.SweepTable, meta: list[str]) -> str:
    return _json(SWEEP_HEADER, [*vars(table).values()], meta, keys=3)


def render_sweep(n_values, m_values, ratios, with_bell: bool = False,
                 h: float = 1.0, fmt: str = "csv") -> str:
    table = analysis.efficiency_sweep(n_values, m_values, ratios, h, with_bell)
    meta = ["dataset: sweep", f"h: {_fmt(h)}", f"points: {table.n.size}"]
    return rows_to_csv(table, meta) if fmt == "csv" else rows_to_json(table, meta)


def render_figure(name: str, h: float = 1.0, fmt: str = "csv") -> str:
    table = analysis.figure_dataset(name, h)
    meta = [f"dataset: {name}", f"h: {_fmt(h)}",
            "ratio grids: log-spaced, 50 points per decade",
            f"points: {table.n.size}"]
    return rows_to_csv(table, meta) if fmt == "csv" else rows_to_json(table, meta)


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    """Comma-separated integers; a:b and a:b:step expand inclusively. The
    values are counted before any range expands, and a list of more than
    ``analysis.GRID_POINTS_MAX`` is refused."""
    spans = []
    for part in text.split(","):
        if ":" in part:
            bits = part.split(":")
            if len(bits) == 2:
                lo, hi, step = int(bits[0]), int(bits[1]), 1
            elif len(bits) == 3:
                lo, hi, step = (int(b) for b in bits)
            else:
                raise argparse.ArgumentTypeError(f"bad range {part!r}")
            if step < 1 or hi < lo:
                raise argparse.ArgumentTypeError(f"bad range {part!r}")
            spans.append((lo, hi, step))
        else:
            value = int(part)
            spans.append((value, value, 1))
    count = sum((hi - lo) // step + 1 for lo, hi, step in spans)
    if count > analysis.GRID_POINTS_MAX:
        raise argparse.ArgumentTypeError(
            f"{text!r} holds {count} values, more than {analysis.GRID_POINTS_MAX}")
    return [v for lo, hi, step in spans for v in range(lo, hi + 1, step)]


def _ratio(text: str) -> float:
    """A coupling ratio. -0 reads as 0: a zero coupling has no sign, and the
    emitters would print one."""
    try:
        return float(text) + 0.0  # -0.0 + 0.0 is 0.0; every other float is unchanged
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [_ratio(part) for part in text.split(",")]
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from None


def _oracle_cap(text: str) -> int:
    """A brute-force cap: an integer >= 2, since a smaller one admits no model."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text!r}")
    return cap


def _env_oracle_cap() -> int:
    raw = os.environ.get("QET_ORACLE_CAP")
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return _oracle_cap(raw)
    except argparse.ArgumentTypeError as exc:
        raise QetError(f"QET_ORACLE_CAP {exc}") from None


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write output here instead of standard output")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", default=None, metavar="FILE",
                   help="key=value file supplying defaults for these flags")


def _load_config(path: str) -> list[str]:
    """Turn a key=value file into an argv fragment (earlier = overridable)."""
    pairs = []
    try:
        with open(path) as fh:
            raw_lines = fh.readlines()
    except OSError as exc:
        raise QetError(f"cannot read config file {path}: {exc}") from None
    for raw in raw_lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise QetError(f"config line {line!r} is not key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in _BOOLEAN_KEYS:
            if value.lower() in ("true", "yes", "1"):
                pairs.append(f"--{key}")
            elif value.lower() not in ("false", "no", "0"):
                raise QetError(f"config key {key} wants true/false, got {value!r}")
            continue
        pairs.extend([f"--{key.replace('_', '-')}", value])
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qetsim",
        description="energy teleportation closed forms, brute-force checks, "
                    "and figure datasets")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags match by their whole name only: as an abbreviation, --h on a
    # command with no field would read as --help and exit 0.
    exact = {"allow_abbrev": False}

    p = sub.add_parser("efficiency", help="one (N, m, ratio) point", **exact)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--ratio", type=_ratio, required=True, help="k/h")
    p.add_argument("--shots", type=int, default=None,
                   help="add a finite-shot estimate (demo; exact path is default)")
    p.add_argument("--seed", type=int, default=0,
                   help="64-bit seed for --shots")
    _add_common(p)
    p.set_defaults(func=_cmd_efficiency)

    p = sub.add_parser("sweep", help="closed-form grid over N, m, k/h ranges", **exact)
    p.add_argument("--n", type=_int_list, required=True,
                   help="e.g. 3:10 or 3,5,8")
    p.add_argument("--m", type=_int_list, required=True)
    p.add_argument("--ratio", type=_float_list, required=True)
    p.add_argument("--bell", action="store_true",
                   help="fill the bell column (needs N >= 3)")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="emit one pinned figure dataset", **exact)
    p.add_argument("name", choices=sorted(analysis.FIGURE_BUILDERS))
    _add_common(p)
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("bell", help="ground-state Bell values", **exact)
    p.add_argument("--n", type=_int_list, required=True)
    p.add_argument("--ratio", type=_float_list, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("nopt", help="optimal qubit count at fixed k/h", **exact)
    p.add_argument("--x", type=_float_list, required=True, help="k/h values")
    p.add_argument("--scan", action="store_true",
                   help="add exhaustive-scan columns as a cross-check")
    p.add_argument("--n-max", type=int, default=100_000,
                   help="scan upper bound (with --scan)")
    _add_common(p)
    p.set_defaults(func=_cmd_nopt)

    p = sub.add_parser("fixtures", help="specialization fixture report", **exact)
    _add_common(p)
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("verify", help="run the verification suite", **exact)
    p.add_argument("--n-max", type=int, default=10,
                   help="largest N on the oracle agreement grid (>= 3)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    # Each command takes only the flags it reads.
    for name in ("efficiency", "sweep", "figure", "bell"):
        sub.choices[name].add_argument(
            "--h", type=float, default=1.0,
            help="field coupling; energies scale linearly with it, and eta and "
                 "the Bell value depend on k/h alone")
    for name in ("efficiency", "verify"):
        sub.choices[name].add_argument(
            "--oracle-cap", type=_oracle_cap, default=None,
            help="largest N the brute-force engine will accept "
                 f"(default: QET_ORACLE_CAP env or {DEFAULT_ORACLE_CAP})")
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_efficiency(args) -> int:
    table = analysis.sweep_row((args.n, args.m, args.ratio, False), args.h)
    # Where k = (k/h) h overflows, the range rule reads k/h, as for the row.
    k = args.ratio * args.h
    theta = closedform._optimal_theta(args.n, args.m, k, args.h, args.ratio)
    meta = [f"theta_opt: {_fmt(theta.theta)}",
            f"cos_2theta: {_fmt(theta.cos_2theta)}",
            f"sin_2theta: {_fmt(theta.sin_2theta)}"]
    extra = {}
    if args.shots is not None:
        if math.isinf(k):
            raise InvalidRange(f"--shots cannot sample at k/h={args.ratio:g}, h={args.h:g}: "
                               "k = (k/h) h overflows float64 there")
        est = protocol_oracle.sample_protocol(
            ModelParams(args.n, args.h, k), Partition.last(args.n, args.m), theta.theta,
            n_shots=args.shots, seed=args.seed, oracle_cap=args.oracle_cap)
        extra = {"sampled_e_in": est.e_in, "sampled_e_out": est.e_out,
                 "shots": est.n_shots, "seed": est.seed}
        meta.extend(f"{key}: {_fmt(val)}" for key, val in extra.items())
    if args.format == "csv":
        text = rows_to_csv(table, meta)
    else:
        doc = {"n": args.n, "m": args.m, "ratio": args.ratio, "h": args.h,
               "e_in": table.e_in.item(), "e_out": table.e_out.item(),
               "eta": table.eta.item(), "theta_opt": theta.theta, **extra}
        text = _json(",".join(doc), [np.array([v]) for v in doc.values()], [])
    _emit(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    text = render_sweep(args.n, args.m, args.ratio, with_bell=args.bell,
                        h=args.h, fmt=args.format)
    _emit(text, args.out)
    return 0


def _cmd_figure(args) -> int:
    text = render_figure(args.name, h=args.h, fmt=args.format)
    _emit(text, args.out)
    return 0


def _emit_table(args, header: str, columns, meta: list[str], keys: int):
    _emit(_csv(header, columns, meta, keys) if args.format == "csv"
          else _json(header, columns, meta, keys), args.out)


def _cmd_bell(args) -> int:
    columns = analysis.bell_table(args.n, args.ratio, args.h)
    _emit_table(args, "n,ratio,b_value,violates,saturation", columns,
                ["dataset: bell"], keys=2)
    return 0


def _cmd_nopt(args) -> int:
    header = "x,n_opt_real,n_opt_int,eta_at_opt,c_aux"
    if args.scan:
        header += ",scan_n,scan_eta"
    rows = []
    for x in sorted(set(args.x)):
        rep = analysis.n_opt(x)
        row = [rep.x, rep.n_opt_real, rep.n_opt_int, rep.eta_at_opt, rep.c_aux]
        if args.scan:
            row.extend(analysis.n_opt_scan(x, n_max=args.n_max))
        rows.append(row)
    _emit_table(args, header, [*map(np.array, zip(*rows))], ["dataset: nopt"], keys=1)
    return 0


def _cmd_fixtures(args) -> int:
    results = analysis.specialization_fixture_check()
    header = "fixture_id,n,m,max_deviation,tolerance,expected_mismatch,agrees,note"
    rows = [[r.fixture_id, r.n_qubits, r.m_outputs, r.max_deviation,
             r.tolerance, r.expected_mismatch, r.agrees,
             r.note.replace(",", ";")] for r in results]
    _emit_table(args, header, [*map(np.array, zip(*rows))], ["dataset: fixtures"], keys=3)
    behaved = all(r.agrees != r.expected_mismatch for r in results)
    return 0 if behaved else 1


def _cmd_verify(args) -> int:
    cap = args.oracle_cap
    results = verify.run_all(n_max=args.n_max, oracle_cap=cap)
    n_fail = sum(1 for r in results if not r.passed)
    if args.format == "json":
        import json
        _emit(json.dumps({
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail,
                        "seconds": r.seconds} for r in results],
            "passed": len(results) - n_fail, "total": len(results)}, indent=2) + "\n",
            args.out)
        return 0 if n_fail == 0 else 1
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"[{tag}] {r.name}: {r.detail} ({r.seconds:.2f} s)")
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if n_fail == 0 else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            injected = _load_config(args.config)
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + injected + argv[at:])
        # Only the commands that take --oracle-cap read the environment.
        if "oracle_cap" in vars(args) and args.oracle_cap is None:
            args.oracle_cap = _env_oracle_cap()
        return args.func(args)
    except QetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
