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

Sweep-style output uses one fixed CSV schema, `n,m,ratio,e_in,e_out,eta,bell`
(bell left empty when not computed), floats printed as `"%.17g" % x` prints
them, metadata as `#` comment lines above the header, and a single newline
as the separator. The CSV rows are laid out as arrays, a block of
`CSV_BLOCK_ROWS` rows at a time: `floatfmt.g17` gives the bytes of each
float, and each distinct n, m and ratio is formatted once. With
`--format json` the same rows are objects keyed by that header, laid out as
`json.dumps(indent=2)` lays them out, one text template per row, with
floats as their shortest repr and `null` for a bell not computed.
Identical configurations always produce identical bytes; the CSV and JSON
bytes of sweeps and figures are pinned by `tests/test_output_bytes.py`.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import codecs
import os
import sys
from collections.abc import Iterator

import numpy as np

from . import analysis, closedform, protocol_oracle, verify
from .errors import QetError
from .model import DEFAULT_ORACLE_CAP, ModelParams, Partition

SWEEP_HEADER = "n,m,ratio,e_in,e_out,eta,bell"
#: Rows of a CSV sweep laid out at a time, as one uint8 array.
CSV_BLOCK_ROWS = 4096
#: One row object of the JSON sweep, as ``json.dumps(indent=2)`` lays it out:
#: a finite float is written with ``float.__repr__`` and the bell cell is
#: ``null`` or a repr.
SWEEP_JSON_ROW = ("    {\n"
                  '      "n": %d,\n'
                  '      "m": %d,\n'
                  '      "ratio": %r,\n'
                  '      "e_in": %r,\n'
                  '      "e_out": %r,\n'
                  '      "eta": %r,\n'
                  '      "bell": %s\n'
                  "    }")

#: Config-file keys that map to valueless flags; written as key=true/false.
_BOOLEAN_KEYS = frozenset({"bell", "scan"})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return "%.17g" % value


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _table(header: str, data_rows: list[list], meta: list[str]) -> str:
    lines = [f"# {m}" for m in meta]
    lines.append(header)
    for row in data_rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(meta: list[str], rows: list[dict]) -> str:
    import json
    return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


def _distinct_cells(column: np.ndarray, fmt: bytes) -> tuple[np.ndarray, np.ndarray]:
    """``fmt % value`` of each distinct value, as NUL-padded uint8 rows, and
    the text row of each element. Bit patterns, not values, pick the
    distinct ones, so -0.0 keeps its sign."""
    bits, where = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array([fmt % v for v in bits.view(column.dtype).tolist()], dtype=bytes)
    return text.view(np.uint8).reshape(bits.size, text.itemsize), where


def _csv_block(cells: list[np.ndarray]) -> np.ndarray:
    """Rows of NUL-padded cells joined by commas, each row ending in a newline."""
    widths = [cell.shape[1] for cell in cells]
    block = np.zeros((len(cells[0]), sum(widths) + len(cells)), dtype=np.uint8)
    at = 0
    for cell, width in zip(cells, widths):
        block[:, at:at + width] = cell
        block[:, at + width] = ord(",")
        at += width + 1
    block[:, -1] = ord("\n")
    return block[block != 0]


def _csv_blocks(table: analysis.SweepTable) -> Iterator[np.ndarray]:
    """The data rows as ASCII, one uint8 array per ``CSV_BLOCK_ROWS`` rows."""
    from . import floatfmt  # only commands that write a CSV sweep load it
    # n, m and ratio repeat across rows, so each distinct value is formatted
    # once, in Python.
    n_text, n_at = _distinct_cells(table.n, b"%d")
    m_text, m_at = _distinct_cells(table.m, b"%d")
    ratio_text, ratio_at = _distinct_cells(table.ratio, b"%.17g")
    has_bell = ~np.isnan(table.bell)
    for start in range(0, table.n.size, CSV_BLOCK_ROWS):
        rows = slice(start, start + CSV_BLOCK_ROWS)
        has = has_bell[rows]
        count = has.size
        text = floatfmt.g17(np.concatenate([table.e_in[rows], table.e_out[rows],
                                            table.eta[rows], table.bell[rows][has]]))
        # A bell value that was not computed leaves its cell empty.
        bell = np.zeros((count, text.shape[1] if has.any() else 0), dtype=np.uint8)
        bell[has] = text[3 * count:, :bell.shape[1]]
        yield _csv_block([
            n_text.take(n_at[rows], axis=0), m_text.take(m_at[rows], axis=0),
            ratio_text.take(ratio_at[rows], axis=0),
            text[:count], text[count:2 * count], text[2 * count:3 * count], bell])


def rows_to_csv(table: analysis.SweepTable, meta: list[str]) -> str:
    head = "\n".join([*(f"# {m}" for m in meta), SWEEP_HEADER]) + "\n"
    # The rows are ASCII; the metadata goes through UTF-8 and back unchanged,
    # a lone surrogate included.
    text = np.concatenate([np.frombuffer(head.encode("utf-8", "surrogatepass"), np.uint8),
                           *_csv_blocks(table)])
    return codecs.utf_8_decode(text, "surrogatepass", True)[0]


def rows_to_json(table: analysis.SweepTable, meta: list[str]) -> str:
    import json
    # The rows go between the brackets of the empty "rows" list, which
    # json.dumps writes last.
    head = json.dumps({"meta": meta, "rows": []}, indent=2)
    if not table.n.size:
        return head + "\n"
    rows = map(SWEEP_JSON_ROW.__mod__, zip(
        table.n.tolist(), table.m.tolist(), table.ratio.tolist(),
        table.e_in.tolist(), table.e_out.tolist(), table.eta.tolist(),
        ["null" if b != b else repr(b) for b in table.bell.tolist()]))
    return head[:-len("[]\n}")] + "[\n" + ",\n".join(rows) + "\n  ]\n}\n"


def _render(table: analysis.SweepTable, fmt: str, meta: list[str]) -> str:
    return rows_to_csv(table, meta) if fmt == "csv" else rows_to_json(table, meta)


def render_sweep(n_values, m_values, ratios, with_bell: bool = False,
                 h: float = 1.0, fmt: str = "csv") -> str:
    table = analysis.efficiency_sweep(n_values, m_values, ratios, h, with_bell)
    meta = ["dataset: sweep", f"h: {_fmt(h)}", f"points: {table.n.size}"]
    return _render(table, fmt, meta)


def render_figure(name: str, h: float = 1.0, fmt: str = "csv") -> str:
    table = analysis.figure_dataset(name, h)
    meta = [f"dataset: {name}", f"h: {_fmt(h)}",
            "ratio grids: log-spaced, 50 points per decade",
            f"points: {table.n.size}"]
    return _render(table, fmt, meta)


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
            help="field coupling; energies scale linearly with it")
    for name in ("efficiency", "verify"):
        sub.choices[name].add_argument(
            "--oracle-cap", type=_oracle_cap, default=None,
            help="largest N the brute-force engine will accept "
                 "(default: QET_ORACLE_CAP env or 12)")
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_efficiency(args) -> int:
    table = analysis.sweep_row((args.n, args.m, args.ratio, False), args.h)
    params = ModelParams(args.n, args.h, args.ratio * args.h)
    part = Partition.last(args.n, args.m)
    theta = closedform.optimal_theta(params, part)
    meta = [f"theta_opt: {_fmt(theta.theta)}",
            f"cos_2theta: {_fmt(theta.cos_2theta)}",
            f"sin_2theta: {_fmt(theta.sin_2theta)}"]
    extra = {}
    if args.shots is not None:
        est = protocol_oracle.sample_protocol(
            params, part, theta.theta, n_shots=args.shots,
            seed=args.seed, oracle_cap=args.oracle_cap)
        extra = {"sampled_e_in": est.e_in, "sampled_e_out": est.e_out,
                 "shots": est.n_shots, "seed": est.seed}
        meta.extend(f"{key}: {_fmt(val)}" for key, val in extra.items())
    if args.format == "csv":
        text = rows_to_csv(table, meta)
    else:
        doc = {"n": args.n, "m": args.m, "ratio": args.ratio, "h": args.h,
               "e_in": table.e_in.item(), "e_out": table.e_out.item(),
               "eta": table.eta.item(), "theta_opt": theta.theta, **extra}
        text = _json_doc([], [doc])
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


def _emit_table(args, header: str, rows, meta: list[str]):
    """Rows of Python values as CSV under ``header``, or as JSON objects
    keyed by the header's fields."""
    if args.format == "csv":
        text = _table(header, rows, meta)
    else:
        keys = header.split(",")
        text = _json_doc(meta, [dict(zip(keys, r)) for r in rows])
    _emit(text, args.out)


def _cmd_bell(args) -> int:
    rows = analysis.bell_table(args.n, args.ratio, args.h)
    _emit_table(args, "n,ratio,b_value,violates,saturation", rows, ["dataset: bell"])
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
    _emit_table(args, header, rows, ["dataset: nopt"])
    return 0


def _cmd_fixtures(args) -> int:
    results = analysis.specialization_fixture_check()
    header = "fixture_id,n,m,max_deviation,tolerance,expected_mismatch,agrees,note"
    rows = [[r.fixture_id, r.n_qubits, r.m_outputs, r.max_deviation,
             r.tolerance, r.expected_mismatch, r.agrees,
             r.note.replace(",", ";")] for r in results]
    _emit_table(args, header, rows, ["dataset: fixtures"])
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
