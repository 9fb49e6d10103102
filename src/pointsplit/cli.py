"""Batch experiment runner: verify | anomaly | vacuum | kernel | derive.

Every subcommand resolves a RunConfig (defaults < config file < flags),
runs pure computations, and emits a self-describing report: a single JSON
object holding the config and the tables, or one flat CSV per table.  Identical
configs produce byte-identical reports; there are no timestamps and all
orderings are fixed.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage/config error or
a run that left the float range, which main alone decides and reports by
naming the run's inputs (all finite, as RunConfig checks them).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .anomaly import (
    _check_exact_routes,
    double_commutator_direct,
    double_commutator_spectral,
    finite_difference_limit,
    kernel_asymptote,
    split_commutator_integral,
)
from .checks import run_verify_suite
from .fock import inner, n_slots_for
from .groundstate import (
    ENUMERATION_MAX_SLOTS,
    _energies_agree,
    ground_state_bruteforce,
    redefined_vacuum,
    redefined_vacuum_energy,
    split_spectrum,
)
from .lattice import LatticeConfig
from .modeops import apply_operator, smeared_kernel, split_hamiltonian
from .symbolic import formal_smeared_commutator, format_expr
from .trigpoly import TrigPoly


class ConfigError(Exception):
    pass


def _finite(key: str, value, positive: bool = False) -> float:
    """A finite number as float; a bool, a string or a non-finite value is a ConfigError."""
    try:
        if isinstance(value, bool) or not math.isfinite(value):
            raise TypeError
    except (TypeError, OverflowError):
        raise ConfigError(f"{key} must be a finite number, got {value!r}") from None
    if positive and not value > 0:
        raise ConfigError(f"{key} must be positive, got {value!r}")
    return float(value)


def _harmonic(h) -> tuple[int, float, float]:
    if not (isinstance(h, (list, tuple)) and len(h) == 3 and type(h[0]) is int):
        raise ConfigError(f"f_harmonics must be made of [n, re, im] with integer n, got {h!r}")
    return h[0], _finite("harmonic re", h[1]), _finite("harmonic im", h[2])


@dataclass
class RunConfig:
    mass: float = 1.0
    delta_p: float = 1.0
    n_max: int = 2
    eps: list[float] = field(default_factory=lambda: [0.3])
    f_harmonics: list[tuple[int, float, float]] = field(default_factory=list)
    eta: float | None = None
    cutoff: float | None = None
    format: str = "json"
    out: str | None = None

    def __post_init__(self):
        """Coerce and check every field, whether it came from a flag or a
        config file, so a bad value ends in one error before any work: a
        ConfigError here, a ValueError from LatticeConfig or TrigPoly."""
        self.mass = _finite("mass", self.mass)
        self.delta_p = _finite("delta_p", self.delta_p)
        for key in ("eps", "f_harmonics"):
            if not isinstance(getattr(self, key), list):
                raise ConfigError(f"{key} must be a list, got {getattr(self, key)!r}")
        self.eps = [_finite("eps", x) for x in self.eps]
        for i, x in enumerate(self.eps):
            if x in self.eps[:i]:  # by float equality, so 0.0 and -0.0 are one value
                raise ConfigError(f"eps must not repeat a value, got {x!r} more than once")
        self.f_harmonics = [_harmonic(h) for h in self.f_harmonics]
        for key in ("eta", "cutoff"):
            if getattr(self, key) is not None:
                setattr(self, key, _finite(key, getattr(self, key), positive=True))
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be json or csv, got {self.format!r}")
        if not isinstance(self.out, (str, type(None))):
            raise ConfigError(f"out must be a path, got {self.out!r}")
        lattice = self.lattice()
        # the smearing f, built and checked here once for the subcommands to read; None without harmonics
        self.smearing = None
        if self.f_harmonics:
            self.smearing = TrigPoly.from_harmonics(lattice.box_length, self.f_harmonics)
            self.smearing.check_on_lattice(lattice)

    def lattice(self) -> LatticeConfig:
        return LatticeConfig(self.mass, self.delta_p, self.n_max)

    def to_dict(self) -> dict:
        # the output path is emission plumbing, not part of the computation,
        # so it is left out of the echoed config to keep reports byte-stable
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


def _parse_harmonic(text: str) -> tuple[int, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected n:re:im, got {text!r}")
    try:
        return int(parts[0]), float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad harmonic {text!r}: {exc}") from exc


class _Flag(NamedTuple):
    dest: str
    type: Callable
    repeatable: bool = False
    help: str | None = None
    choices: tuple[str, ...] | None = None


# the flags every subcommand shares, read by _read_plain_argv and declared to argparse by _build_parser
_FLAGS = {
    "--config": _Flag("config", str, help="JSON file with the same keys as the flags"),
    "--mass": _Flag("mass", float),
    "--delta-p": _Flag("delta_p", float),
    "--n-max": _Flag("n_max", int),
    "--eps": _Flag("eps", float, repeatable=True, help="repeatable"),
    "--f-harmonic": _Flag(
        "f_harmonics", _parse_harmonic, repeatable=True, help="smearing harmonic n:re:im (n >= 0, mirrored to -n); repeatable"
    ),
    "--eta": _Flag("eta", float),
    "--cutoff": _Flag("cutoff", float),
    "--format": _Flag("format", str, choices=("json", "csv")),
    "--out": _Flag("out", str),
}
_SIGN_HOOK = "--corrupt-sign-hook"  # verify's alone
_FLOAT_FLAGS = tuple(name for name, flag in _FLAGS.items() if flag.type is float)


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Write `--eps -1e-3` as `--eps=-1e-3` for every float flag.

    argparse reads a dash-led value that is not a plain decimal, such as
    -1e-3 or -inf, as an option and stops with 'expected one argument'.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _FLOAT_FLAGS and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                out[-1] += "=" + arg
                continue
        out.append(arg)
    return out


def _read_plain_argv(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace _build_parser() returns for a plain argv, read without building a parser:
    a subcommand, then exact flag names each followed by a value that does not start with '-'
    or written --flag=value, plus the sign hook on verify.  None for anything else (help, an
    abbreviated or unknown flag, a missing value, one its type or choices reject), which is
    left to argparse, so its messages stay its own."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values: dict = {flag.dest: None for flag in _FLAGS.values()}
    if argv[0] == "verify":
        values["corrupt_sign_hook"] = False
    rest = iter(argv[1:])
    for arg in rest:
        if arg == _SIGN_HOOK and argv[0] == "verify":
            values["corrupt_sign_hook"] = True
            continue
        name, eq, text = arg.partition("=")
        flag = _FLAGS.get(name)
        if flag is None:
            return None
        if not eq:
            text = next(rest, "-")
            if text.startswith("-"):
                return None
        elif text == "--":  # argparse drops it and stores an empty list
            return None
        try:
            value = flag.type(text)
        except (ValueError, argparse.ArgumentTypeError):
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        if flag.repeatable:
            value = (values[flag.dest] or []) + [value]
        values[flag.dest] = value
    return argparse.Namespace(command=argv[0], **values)


class _Parser(argparse.ArgumentParser):
    """Turns a usage error into one ConfigError line instead of usage text."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built for help and usage errors, once per process: a parse keeps its state in the Namespace it
    # returns, not in the parser; the shared flags sit on a parent parser each subparser copies
    common = argparse.ArgumentParser(add_help=False)
    for name, flag in _FLAGS.items():
        common.add_argument(
            name,
            type=flag.type,
            action="append" if flag.repeatable else "store",
            dest=flag.dest,
            help=flag.help,
            choices=flag.choices,
        )
    parser = _Parser(
        prog="pointsplit",
        description="Exact workbench for point-split commutators of a 1+1D fermion field.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, parents=[common])
        if name == "verify":
            p.add_argument(_SIGN_HOOK, action="store_true", help=argparse.SUPPRESS)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    """Defaults < config file < flags; RunConfig coerces and checks the result."""
    keys = [f.name for f in fields(RunConfig)]
    values = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                values = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        if not isinstance(values, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(values) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values.update({key: getattr(args, key) for key in keys if getattr(args, key, None) is not None})
    return RunConfig(**values)


# -- emission ---------------------------------------------------------------

_COLUMNS = {
    "checks": ["name", "passed", "residual", "tolerance", "detail"],
    "summary": ["quantity", "value"],
    "pointsplit": ["eps", "value", "positive"],
    "kernel": ["g", "kernel_imag"],
    "kernel_asymptote": ["eps", "eta", "cutoff", "damped", "extrapolated", "eps_times_extrapolated"],
    "continuum": ["eps", "finite_difference", "limit", "abs_error"],
    "spectrum": ["eps", "j", "p", "energy", "split_energy", "negative", "zero"],
    "ground_state": ["quantity", "value"],
    "derivation": ["pipeline", "step", "expression"],
}


_CONTAINERS = (dict, list, tuple)


def _flat(value) -> bool:
    return not any(isinstance(v, _CONTAINERS) for v in (value.values() if isinstance(value, dict) else value))


def _indented(value, indent: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2, allow_nan=False) for a tree with string keys, at
    nesting `indent`.  With an indent CPython's json falls back to its pure-Python encoder, so each
    flat container, and each list of flat non-empty dicts (a table's rows), is one call of the C
    encoder with the indent folded into its item separator; Python walks only the containers above."""
    if not isinstance(value, _CONTAINERS) or not value:
        return json.dumps(value, allow_nan=False)
    inner = "\n" + indent + "  "
    if _flat(value):
        text = json.dumps(value, sort_keys=True, allow_nan=False, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + "\n" + indent + text[-1]
    if isinstance(value, dict):
        items = (json.dumps(k) + ": " + _indented(v, indent + "  ") for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + "\n" + indent + "}"
    if all(isinstance(row, dict) and row and _flat(row) for row in value):
        row_inner = inner + "  "
        text = json.dumps(value, sort_keys=True, allow_nan=False, separators=("," + row_inner, ": "))
        # raw newlines come only from separators, and no row holds a dict, so "},<row_inner>{" is a row boundary
        rows = text[2:-2].replace("}," + row_inner + "{", inner + "}," + inner + "{" + row_inner)
        return "[" + inner + "{" + row_inner + rows + inner + "}\n" + indent + "]"
    return "[" + inner + ("," + inner).join(_indented(v, indent + "  ") for v in value) + "\n" + indent + "]"


def _json_report(report: dict) -> str:
    """The report as json.dumps(report, sort_keys=True, indent=2, allow_nan=False) writes it, plus a newline;
    strict JSON: a nan or an infinity, which the encoder refuses with a ValueError, raises OverflowError."""
    try:
        return _indented(report, "") + "\n"
    except ValueError:
        raise OverflowError from None


def _row(table: str, *values) -> dict:
    """A row of `table`: its values, one for each of the table's `_COLUMNS`, in that order."""
    return dict(zip(_COLUMNS[table], values, strict=True))


def _emit(report: dict, config: RunConfig) -> None:
    if config.format == "json":
        text = _json_report(report)
    else:
        lines: list[str] = []
        for name, rows in sorted(report["tables"].items()):
            cols = _COLUMNS[name]
            lines.append(f"# table: {name}")
            lines.append(",".join(cols))
            for row in rows:
                lines.append(",".join(_csv_cell(row[c]) for c in cols))
            lines.append("")
        text = "\n".join(lines)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # the path is not checked before the run: a check would cost every run
            raise ConfigError(f"cannot write the report to {config.out!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise OverflowError
        return repr(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


# -- subcommands --------------------------------------------------------------

# verify's smearing when no --f-harmonic is given (anomaly requires one): cos(2*pi*z/L)
VERIFY_HARMONICS = [(1, 0.5, 0.0)]


def cmd_verify(config: RunConfig, corrupt_sign: bool = False) -> int:
    lattice = config.lattice()
    f = config.smearing or TrigPoly.from_harmonics(lattice.box_length, VERIFY_HARMONICS)
    results = run_verify_suite(lattice, config.eps, f=f, corrupt_sign=corrupt_sign)
    if not all(math.isfinite(res.residual) for res in results):
        raise OverflowError
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        sys.stdout.write(f"{status} {res.name} max_residual={res.residual:.3e} tol={res.tolerance:.1e}\n")
    rows = [{col: getattr(r, col) for col in _COLUMNS["checks"]} for r in results]
    report = {"config": config.to_dict(), "checks": rows, "tables": {"checks": rows}}
    if config.out:  # stdout already carries the human-readable lines
        _emit(report, config)
    return 0 if all(r.passed for r in results) else 1


def cmd_anomaly(config: RunConfig) -> int:
    lattice = config.lattice()
    f = config.smearing
    if f is None:
        raise ConfigError("this command needs a smearing function; pass --f-harmonic n:re:im")
    formal = formal_smeared_commutator(split=False)
    charge_kernel = smeared_kernel(f, lattice)
    direct = double_commutator_direct(charge_kernel, lattice)
    spectral = double_commutator_spectral(charge_kernel, lattice)
    pointsplit_rows = []
    kernel_values = []  # (g, Im K(g)) for g = eps, -eps of every eps
    continuum_rows = []
    for eps in sorted(config.eps):
        value, kernels, weights = split_commutator_integral(f, eps, lattice)
        pointsplit_rows.append(_row("pointsplit", eps, value, value > 0))
        kernel_values += zip((eps, -eps), (kernel.imag for kernel in kernels))
        if eps != 0:
            fd, limit = finite_difference_limit(f, eps, weights)
            continuum_rows.append(_row("continuum", eps, fd, limit, abs(fd - limit)))
    _check_exact_routes(direct, spectral)
    summary = {"exact_direct": direct, "exact_spectral": spectral, "formal_zero": formal.is_zero()}
    report = {
        "config": config.to_dict(),
        "summary": summary,
        "formal_transcript": format_expr(formal),
        "tables": {
            "summary": [_row("summary", *item) for item in summary.items()],
            "pointsplit": pointsplit_rows,
            "kernel": [_row("kernel", *gk) for gk in sorted(kernel_values, key=lambda gk: gk[0])],
            "continuum": continuum_rows,
        },
    }
    _emit(report, config)
    return 0 if summary["formal_zero"] else 1


def cmd_vacuum(config: RunConfig) -> int:
    lattice = config.lattice()
    failed = False
    spectrum_rows = []
    ground_rows = []
    for eps in sorted(config.eps):
        spec = split_spectrum(eps, lattice)
        if lattice.cutoff * abs(eps) <= math.pi / 2:  # a notice, kept off stdout when the report is there
            (sys.stdout if config.out else sys.stderr).write(
                f"WARNING eps={eps}: cutoff*|eps| = {lattice.cutoff * abs(eps):.3f} <= pi/2; "
                "no mode can reach a negative split energy at this cutoff\n"
            )
        zero_set = set(spec.zero_modes)
        neg_set = set(spec.negative_modes)
        for j, p, energy, split_energy in spec.entries:
            # a literal, not _row: 2*n_max+1 rows per eps make the call cost time; a test holds its keys to _COLUMNS
            spectrum_rows.append(
                {
                    "eps": eps,
                    "j": j,
                    "p": p,
                    "energy": energy,
                    "split_energy": split_energy,
                    "negative": j in neg_set,
                    "zero": j in zero_set,
                }
            )
        additive = redefined_vacuum_energy(spec)
        state = redefined_vacuum(spec)
        h = split_hamiltonian(lattice, eps)
        via_ops = inner(state, apply_operator(h, state)).real
        ground = {"redefined_vacuum_energy": additive, "redefined_vacuum_energy_operator": via_ops}
        if not _energies_agree(via_ops, additive):
            failed = True
        if n_slots_for(lattice.n_max) <= ENUMERATION_MAX_SLOTS:
            rep = ground_state_bruteforce(eps, lattice)
            ground["bruteforce_minimum"] = rep.energy
            ground["bruteforce_degeneracy"] = rep.degeneracy
            ground["bruteforce_matches_redefined_vacuum"] = rep.matches_redefined_vacuum
            if not _energies_agree(rep.energy, additive):
                failed = True
        else:
            ground["bruteforce_skipped"] = "enumeration bound"
        ground_rows += (_row("ground_state", f"{quantity}[eps={eps!r}]", value) for quantity, value in ground.items())
    report = {
        "config": config.to_dict(),
        "tables": {"spectrum": spectrum_rows, "ground_state": ground_rows},
    }
    _emit(report, config)
    return 1 if failed else 0


def cmd_kernel(config: RunConfig) -> int:
    lattice = config.lattice()
    rows = []
    for eps in sorted(config.eps):
        eta, cutoff, damped, extrapolated = kernel_asymptote(eps, config.eta, config.cutoff, lattice.mass)
        rows.append(_row("kernel_asymptote", eps, eta, cutoff, damped, extrapolated, eps * extrapolated))
    report = {"config": config.to_dict(), "tables": {"kernel_asymptote": rows}}
    _emit(report, config)
    return 0


def cmd_derive(config: RunConfig) -> int:
    rows = []
    for label, split in (("coincident", False), ("split", True)):
        steps: list = []
        final = formal_smeared_commutator(split=split, record=steps)
        steps.append(("final", format_expr(final)))
        rows += (_row("derivation", label, step_name, text) for step_name, text in steps)
    report = {"config": config.to_dict(), "tables": {"derivation": rows}}
    _emit(report, config)
    return 0


class _Command(NamedTuple):
    run: Callable[..., int]
    help: str
    reads: tuple[str, ...]  # the inputs its arithmetic reads: the ones its error lines name


_COMMANDS = {
    "verify": _Command(
        cmd_verify,
        "run the identity suites (anticommutators, spinors, continuity, split continuity)",
        ("mass", "delta_p", "n_max", "eps", "f_harmonics"),
    ),
    "anomaly": _Command(
        cmd_anomaly,
        "formal-vs-exact juxtaposition for a smearing function",
        ("mass", "delta_p", "n_max", "eps", "f_harmonics"),
    ),
    "vacuum": _Command(
        cmd_vacuum, "split-Hamiltonian spectrum, negative set and redefined vacuum", ("mass", "delta_p", "n_max", "eps")
    ),
    "kernel": _Command(
        cmd_kernel, "small-separation asymptotics of the split vacuum kernel", ("mass", "eps", "eta", "cutoff")
    ),
    "derive": _Command(cmd_derive, "print the formal rewriting transcript", ()),
}


def _failure_line(failure: str, command: str, config: RunConfig) -> str:
    """The one error line for a run that failed past RunConfig, naming the inputs its command reads."""
    used = dict(vars(config), f_harmonics=config.f_harmonics or VERIFY_HARMONICS)
    inputs = ", ".join(f"{key}={used[key]!r}" for key in _COMMANDS[command].reads)
    return f"the {command} run {failure}" + (f" at {inputs}" if inputs else "")


def main(argv=None) -> int:
    """Run one subcommand; every failure ends in one `error:` line on stderr:
    exit 2 for bad usage or config, a report that cannot be written to --out,
    a run too large for memory, or a run that left the float range (an
    ArithmeticError, numpy's warnings raising as FloatingPointError, or a nan
    or an infinity bound for the report),
    exit 1 when an internal invariant fails, as a failed check does, or the
    kernel quadrature misses its tolerance."""
    config = None
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            argv = sys.argv[1:] if argv is None else argv
            args = _read_plain_argv(argv)
            if args is None:
                args = _build_parser().parse_args(_attach_negative_values(argv))
            config = _load_config(args)
            sign_hook = {"corrupt_sign": args.corrupt_sign_hook} if args.command == "verify" else {}
            return _COMMANDS[args.command].run(config, **sign_hook)
    except ArithmeticError:  # raised only past RunConfig, which makes every input finite: the arithmetic left the range
        code, message = 2, _failure_line("leaves the float range", args.command, config)
    except MemoryError:  # numpy's text, if any, names an array shape, not the inputs behind it
        code, message = 2, "out of memory reading the arguments"
        if config is not None:
            message = _failure_line("runs out of memory", args.command, config)
    except (ConfigError, ValueError) as exc:
        code, message = 2, str(exc)
    except RuntimeError as exc:
        code, message = 1, str(exc)
    print("error: " + " ".join(message.splitlines()), file=sys.stderr)  # one line; a path keeps its spaces
    return code


def entry() -> None:
    sys.exit(main())


# Everything the import made (numpy's and this package's modules, functions and
# classes) lives as long as the process.  Freezing it keeps every later garbage
# collection off it: a command's collections then walk only what the command
# allocates, so their cost no longer depends on which call the first one after
# the import falls in (about 1 ms on whichever call that is).
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
