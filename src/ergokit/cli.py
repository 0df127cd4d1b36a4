"""Command-line front-end.

Subcommands: figure1 (reference curves), ergotropy (one state family),
verify (invariant suites), sweep (CSV parameter scans) and protocol
(bias-steering demos).  Exit codes: 0 success, 1 verification failure,
2 usage or domain error, 3 infeasibility.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path

from .analysis import Bipartition, min_pt_eigenvalue
from .core import SystemSpec, _check_bytes, von_neumann_entropy
from .errors import (
    CapacityError,
    DomainError,
    ErgokitError,
    InfeasibilityError,
    UnsupportedError,
)
from .families import (
    diagonal_state_at_entropy,
    dicke_thermal_mixture,
    entangled_pure_state,
    separable_optimal_state,
)
from .figures import Figure1Row, figure1_rows
from .passivity import ergotropy
from .protocols import inversion_sequence_to_bias, prepare_locally_thermal
from .reporting import emit_csv, svg_line_chart
from .verify import DEFAULT_SEED, SUITES, format_json, format_report, run_suite

STATE_FAMILIES = ("entangled", "separable", "dicke", "fixed-entropy")
SWEEP_FAMILIES = STATE_FAMILIES + ("protocol",)

FIGURE1_COLUMNS = tuple(f.name for f in fields(Figure1Row))

SWEEP_COLUMNS = (
    "family", "n", "beta", "status", "initial_energy", "entropy", "ergotropy",
    "bound_total_energy", "bound_entropy", "ratio_to_bound", "ppt_min_eig",
    "target_bias", "achieved_bias", "residual", "note",
)


@dataclass(frozen=True)
class SweepConfig:
    """One sweep invocation: a state family scanned over ensemble sizes."""

    family: str
    n_values: tuple[int, ...]
    d: int = 2
    beta: float = 1.0
    local_energies: tuple[float, ...] | None = None
    total_entropy: float | None = None
    beta_prime: float | None = None
    target_biases: tuple[float, ...] = field(default_factory=tuple)
    include_ppt: bool = False

    def __post_init__(self):
        if self.family not in SWEEP_FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if not self.n_values:
            raise DomainError("sweep needs at least one ensemble size")


def _spec(n: int, d: int, beta: float, ladder) -> SystemSpec:
    if not ladder:  # the default ladder 0, 1, ..., d - 1, sized before it is built
        _check_bytes(64 * d, "the default energy ladder")
        ladder = range(d)
    return SystemSpec(n=n, d=d, local_energies=tuple(float(x) for x in ladder), beta=beta)


def build_family_state(spec: SystemSpec, family: str, total_entropy=None):
    if family == "entangled":
        return entangled_pure_state(spec)
    if family == "separable":
        return separable_optimal_state(spec)
    if family == "dicke":
        return dicke_thermal_mixture(spec)
    if family == "fixed-entropy":
        if total_entropy is None:
            raise DomainError("the fixed-entropy family needs --total-entropy")
        return diagonal_state_at_entropy(spec, total_entropy)[0]
    raise DomainError(f"unknown state family {family!r}")


def sweep_rows(config: SweepConfig) -> list[dict]:
    rows = []
    for n in config.n_values:
        if config.family == "protocol":
            beta_prime = config.beta if config.beta_prime is None else config.beta_prime
            rows.extend(
                _sweep_cell(config, n, partial(_protocol_values, kind="invert",
                                               beta_prime=beta_prime, target=target),
                            target_bias=target)
                for target in config.target_biases or (0.0,)
            )
        else:
            rows.append(_sweep_cell(
                config, n, partial(_family_values, family=config.family,
                                   total_entropy=config.total_entropy,
                                   include_ppt=config.include_ppt)))
    return rows


def _sweep_cell(config: SweepConfig, n: int, values, **fixed) -> dict:
    """One sweep row; the errors of an infeasible cell become its note."""
    row = {"family": config.family, "n": n, "beta": config.beta, "status": "ok", **fixed}
    try:
        spec = _spec(n, config.d, config.beta, config.local_energies)
        row.update(values(spec))
    except (DomainError, UnsupportedError, CapacityError, InfeasibilityError) as exc:
        row["status"] = "infeasible"
        row["note"] = _note(exc)
    return row


def _family_values(spec: SystemSpec, family: str, total_entropy=None,
                   include_ppt: bool = False) -> dict:
    """Energies, entropy, work and bounds of one family state; raises on error."""
    state = build_family_state(spec, family, total_entropy)
    entropy = von_neumann_entropy(state)
    report = ergotropy(state, spec, total_entropy=entropy)
    values = {
        "initial_energy": report.initial_energy,
        "passive_energy": report.passive_energy,
        "ergotropy": report.ergotropy,
        "entropy": entropy,
        "bound_total_energy": report.bound_total_energy,
        "bound_entropy": report.bound_entropy,
        "ratio_to_bound": report.ratio_to_bound,
    }
    if include_ppt and spec.n >= 2:
        # a state too large to transpose keeps its row, with the reason
        try:
            values["ppt_min_eig"] = min_pt_eigenvalue(state, spec, Bipartition.half_split(spec.n))
        except CapacityError as exc:
            values["note"] = _note(exc)
    return values


def _protocol_values(spec: SystemSpec, kind: str, beta_prime: float, target: float) -> dict:
    """Outcome of one rotate or invert protocol run; raises on error."""
    if kind == "rotate":
        result = prepare_locally_thermal(spec, beta_prime, target)
        extra = {"angle": result.angle}
    else:
        result = inversion_sequence_to_bias(spec, beta_prime, target)
        extra = {"levels": " ".join(str(l) for l in result.levels) or "(none)"}
    return {
        "target_bias": result.target_bias,
        "achieved_bias": result.achieved_bias,
        "residual": result.residual,
        "beta_local": result.beta_local,
        "entropy": von_neumann_entropy(result.state),
        **extra,
    }


def _note(exc: Exception) -> str:
    return str(exc).replace(",", ";").replace("\n", " ")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parsed(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"{what} {text!r} is not a valid {kind.__name__}") from None


def _parse_ladder(text):
    if text is None:
        return None
    return tuple(_parsed(float, x, "local energy") for x in str(text).split(","))


def _parse_n_range(text: str) -> tuple[int, ...]:
    if ":" in text:
        lo, hi = (_parsed(int, part, "subsystem count") for part in text.split(":", 1))
        if hi < lo:
            raise DomainError(f"empty range {text!r}")
        return tuple(range(lo, hi + 1))
    return (_parsed(int, text, "subsystem count"),)


# --config is read before the subcommand's parser runs, so that the file's
# flags can go in front of the command line's
_CONFIG = argparse.ArgumentParser(prog="ergokit", add_help=False, allow_abbrev=False)
_CONFIG.add_argument("--config", metavar="FILE",
                     help="key = value file, read as flags before the command line's")

# options that several subcommands read; each lists the ones it takes
_SHARED = {
    "--beta": dict(type=float, default=1.0,
                   help="reference inverse temperature (units 1/E_1)"),
    "--energy-ladder": dict(dest="energy_ladder",
                            help="comma-separated local energies, ground first (default 0,1,...,d-1)"),
    "--d": dict(type=int, default=2, help="local dimension"),
    "--out": dict(help="output file path"),
    "--format": dict(choices=("csv", "svg", "both"), default="csv"),
}


def load_config_file(path) -> list[str]:
    """The flags of a `key = value` file, one pair a line; '#' starts a comment.

    `key = true` is the bare flag --key, and a value of several words
    repeats the flag once per word.  The subcommand's parser checks them.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DomainError(f"config file {str(path)!r} is not UTF-8 text ({exc.reason})") from None
    flags = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not eq:
            raise DomainError(f"config line is not key = value: {raw!r}")
        flag = "--" + key.replace("_", "-")
        if flag == "--config":
            raise DomainError("a config file cannot name another config file")
        words = value.split() or [""]
        flags.extend([flag] if value == "true" else [f"{flag}={word}" for word in words])
    return flags


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ergokit",
                                     description="work extraction from correlated locally thermal states")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *shared):
        """A subcommand taking --config and the named _SHARED options."""
        cmd = sub.add_parser(name, parents=[_CONFIG], allow_abbrev=False, help=help)
        for flag in shared:
            cmd.add_argument(flag, **_SHARED[flag])
        cmd.set_defaults(handler=handler)
        return cmd

    fig = command("figure1", _cmd_figure1, "emit the three reference work-ratio curves",
                  "--beta", "--out", "--format")
    fig.add_argument("--n-max", dest="n_max", type=int, default=20)

    erg = command("ergotropy", _cmd_ergotropy, "work report for one state family",
                  "--beta", "--energy-ladder", "--d", "--out")
    erg.add_argument("--family", choices=STATE_FAMILIES, required=True)
    erg.add_argument("--n", required=True)
    erg.add_argument("--total-entropy", dest="total_entropy", type=float)

    ver = command("verify", _cmd_verify, "run invariant suites")
    ver.add_argument("--suite", choices=("all", *SUITES), default="all")
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--json", action="store_true",
                     help="print the report as one JSON object")

    swp = command("sweep", _cmd_sweep, "scan a family over n, emit CSV",
                  "--beta", "--energy-ladder", "--d", "--out", "--format")
    swp.add_argument("--family", choices=SWEEP_FAMILIES, required=True)
    swp.add_argument("--n", required=True, help="single size or inclusive range lo:hi")
    swp.add_argument("--total-entropy", dest="total_entropy", type=float)
    swp.add_argument("--beta-prime", dest="beta_prime", type=float)
    swp.add_argument("--target-bias", dest="target_bias", type=float, action="append")
    swp.add_argument("--ppt", action="store_true",
                     help="add the half-split partial-transpose minimum (n >= 2)")

    pro = command("protocol", _cmd_protocol, "bias-steering demos", "--energy-ladder", "--d")
    pro.add_argument("--kind", choices=("rotate", "invert"), default="rotate")
    pro.add_argument("--n", required=True)
    pro.add_argument("--beta-prime", dest="beta_prime", type=float, required=True)
    pro.add_argument("--target-bias", dest="target_bias", type=float, default=0.0)
    return parser


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _outputs(args, rows, columns, series, default_stem: str) -> int:
    if args.out is None and args.format == "csv":
        sys.stdout.write(emit_csv(columns, rows))
        return 0
    stem = Path(args.out) if args.out else Path(f"{default_stem}.csv")
    if args.format in ("csv", "both"):
        csv_path = stem if stem.suffix == ".csv" else stem.with_suffix(".csv")
        emit_csv(columns, rows, csv_path)
        print(f"wrote {csv_path}")
    if args.format in ("svg", "both"):
        svg_path = stem.with_suffix(".svg")
        svg_line_chart(series, svg_path, title=default_stem,
                       x_label="n", y_label="work ratio")
        print(f"wrote {svg_path}")
    return 0


def _cmd_figure1(args) -> int:
    rows = figure1_rows(args.beta, args.n_max)
    ns = [r.n for r in rows]
    series = [
        ("entangled", ns, [r.entangled_ratio for r in rows]),
        ("separable", ns, [r.separable_ratio for r in rows]),
        ("entropy bound", ns, [r.entropy_bound_ratio for r in rows]),
    ]
    return _outputs(args, [asdict(r) for r in rows], FIGURE1_COLUMNS, series, "figure1")


def _print_values(values: dict):
    for key, value in values.items():
        print(f"{key} = {value if not isinstance(value, float) else f'{value:.12g}'}")


def _cmd_ergotropy(args) -> int:
    n = _parsed(int, args.n, "subsystem count")
    spec = _spec(n, args.d, args.beta, _parse_ladder(args.energy_ladder))
    values = {
        "family": args.family,
        "n": n,
        "beta": args.beta,
        **_family_values(spec, args.family, args.total_entropy),
    }
    _print_values(values)
    if args.out:
        emit_csv(tuple(values), [values], args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite, seed=args.seed)
    report = format_json if args.json else format_report
    print(report(results, seed=args.seed))
    return 0 if all(r.passed for r in results) else 1


def _cmd_sweep(args) -> int:
    config = SweepConfig(
        family=args.family,
        n_values=_parse_n_range(args.n),
        d=args.d,
        beta=args.beta,
        local_energies=_parse_ladder(args.energy_ladder),
        total_entropy=args.total_entropy,
        beta_prime=args.beta_prime,
        target_biases=tuple(args.target_bias or ()),
        include_ppt=args.ppt,
    )
    rows = sweep_rows(config)
    ns = [r["n"] for r in rows]
    works = [r.get("ergotropy") or 0.0 for r in rows]
    series = [(config.family, ns, works)]
    return _outputs(args, rows, SWEEP_COLUMNS, series, f"sweep_{config.family}")


def _cmd_protocol(args) -> int:
    n = _parsed(int, args.n, "subsystem count")
    # the state is prepared at beta'; the reference beta plays no part
    spec = _spec(n, args.d, 1.0, _parse_ladder(args.energy_ladder))
    _print_values({
        "kind": args.kind,
        "n": n,
        "beta_prime": args.beta_prime,
        **_protocol_values(spec, args.kind, args.beta_prime, args.target_bias),
    })
    return 0


# a negative number with an exponent, which argparse would read as an option
_EXPONENT_NEGATIVE = re.compile(r"-(\d+\.?\d*|\.\d+)[eE][-+]?\d+")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for at in range(len(argv) - 1, 0, -1):  # `--opt -1e-3` as `--opt=-1e-3`
        flag = argv[at - 1]
        if flag.startswith("--") and "=" not in flag and _EXPONENT_NEGATIVE.fullmatch(argv[at]):
            argv[at - 1:at + 1] = [f"{flag}={argv[at]}"]
    try:
        config, argv = _CONFIG.parse_known_args(argv)
        if config.config is not None:
            argv[1:1] = load_config_file(config.config)  # after the subcommand
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # argparse: usage errors exit 2, --help 0
        return exc.code
    except InfeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ErgokitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
