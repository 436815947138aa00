"""Batch front-end: key=value configs in, reproducible CSV/JSON reports out.

Subcommands: exponents, construct, quantities, scale-check, liouville,
iterate, suite, defaults.  Outputs are deterministic for a fixed config:
evaluation order is fixed, floats are emitted with repr, JSON keys are
sorted and no timestamps are written.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import asymptotics as asy
from . import exponents as ex
from . import fields as fl
from . import quantities as qt
from . import scaling as sc
from .errors import CylscaleError, NonFiniteResultError
from .quadrature import QuadratureConfig

OUT_ENV = "CYLSCALE_OUT"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NUMERIC = 2

DEFAULTS = {
    "exponents.s": "14/5",
    "exponents.l": "14/5",
    "exponents.m0": "9/10",
    "construct.m0": "9/10",
    "construct.alpha": "1/2",
    "construct.delta": "none",
    "profile.kind": "power-law",
    "profile.c": "1.0",
    "profile.alpha_p": "0.5",
    "profile.gamma_p": "1.0857142857142856",
    "profile.pressure_coeff": "1.0",
    "profile.amplitude": "1.0",
    "profile.wavenumber": "1.0",
    "ladder.start": "0.125",
    "ladder.factor": "2.0",
    "ladder.count": "4",
    "scale.kind": "navier-stokes",
    "scale.lam": "0.5",
    "scale.alpha": "none",
    "liouville.m": "0.55",
    "liouville.gamma": "0.5",
    "liouville.compact_support": "false",
    "iterate.m": "0.55",
    "iterate.gamma": "0.5",
    "iterate.C": "1.0",
    "iterate.R": "2.0",
    "iterate.k_max": "400",
    **{f"quadrature.{f.name}": str(f.default) for f in dataclasses.fields(QuadratureConfig)},
    "run.tolerance": "1e-9",
}

#: CSV columns of the artifacts built from report rows
QUANTITY_COLUMNS = ("r", "A", "E", "C", "D", "H", "A_m1", "E_m", "D_m", "C_mt",
                    "M_kappa", "M_kappa_m0", "calE")
INVARIANCE_COLUMNS = ("relation", "a", "lhs", "rhs", "slack", "tolerance", "pass")
ITERATE_COLUMNS = ("k", "profile_term", "forcing_term", "bound")

#: largest iterate.k_max accepted; 100,000 steps write about 4 MB of CSV
K_MAX_LIMIT = 100_000
#: largest ladder.count accepted; suite CPU grows about 0.5 ms per radius (count 40 vs 4)
LADDER_COUNT_MAX = 1000


class ConfigError(CylscaleError):
    """Invalid or missing configuration entry."""


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


class RunConfig:
    """``DEFAULTS`` overlaid with ``entries``, kept as text; each getter
    parses its key's text once."""

    def __init__(self, entries: dict):
        unknown = sorted(set(entries) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        self._entries = {**DEFAULTS, **entries}
        # the entries never change, so each derived value is built once, on first use
        for getter in ("exponents", "quadrature", "provenance"):
            setattr(self, getter, functools.cache(getattr(self, getter)))
        if not self.tolerance > 0:
            raise ConfigError("run.tolerance must be positive")

    def text(self, key: str) -> str:
        """The entry as written, for kinds and rules."""
        return self._entries[key]

    def optional(self, key: str, read):
        """None where the entry is ``none``, in any case, else ``read(key)``."""
        return None if self.text(key).lower() == "none" else read(key)

    def flag(self, key: str) -> bool:
        """``true`` or ``false``, in any case."""
        raw = self.text(key)
        if raw.lower() not in ("true", "false"):
            raise ConfigError(f"{key} must be true or false, got {raw!r}")
        return raw.lower() == "true"

    def count(self, key: str, upper=math.inf) -> int:
        """An integer entry in [1, upper]."""
        raw = self.text(key)
        try:
            value = int(raw)
        except ValueError:
            value = 0
        if not 1 <= value <= upper:
            raise ConfigError(f"{key} must be an integer in [1, {upper}], got {raw!r}")
        return value

    def rational(self, key: str):
        """A finite number entry as written: an integer or a fraction stays
        exact, a decimal is a float."""
        raw = self.text(key)
        try:
            try:
                value = Fraction(raw) if "/" in raw else int(raw)
            except ValueError:
                value = float(raw)
            finite = math.isfinite(value)  # OverflowError beyond float range
        except (ValueError, ZeroDivisionError, OverflowError):
            finite = False
        if not finite:
            raise ConfigError(f"{key} must be a finite number, got {raw!r}")
        return value

    def real(self, key: str) -> float:
        """A finite number entry as a float."""
        return float(self.rational(key))

    @property
    def tolerance(self) -> float:
        return self.real("run.tolerance")

    def exponents(self) -> ex.ExponentParams:
        return ex.derive(*(self.rational(f"exponents.{k}") for k in ("s", "l", "m0")))

    def quadrature(self) -> QuadratureConfig:
        # integer fields are counts, string ones rule names as written;
        # QuadratureConfig checks the ceilings and the rule names
        read = lambda f: self.count if isinstance(f.default, int) else self.text
        return QuadratureConfig(**{f.name: read(f)(f"quadrature.{f.name}")
                                   for f in dataclasses.fields(QuadratureConfig)})

    def provenance(self) -> dict:
        """The tolerance and quadrature that every JSON artifact records."""
        return {"tolerance": self.tolerance, "quadrature": dataclasses.asdict(self.quadrature())}

    def profile(self):
        kind = self.text("profile.kind")
        if kind == "power-law":
            return fl.PowerLawProfile(
                c=self.real("profile.c"),
                alpha_p=self.real("profile.alpha_p"),
                gamma_p=self.real("profile.gamma_p"),
                pressure_coeff=self.real("profile.pressure_coeff"),
            )
        if kind == "constant":
            return fl.ConstantProfile((self.real("profile.c"), 0.0, 0.0))
        if kind == "shear":
            return fl.SteadyShearProfile(
                amplitude=self.real("profile.amplitude"),
                wavenumber=self.real("profile.wavenumber"),
            )
        raise ConfigError(f"unknown profile.kind {kind!r}")

    def ladder(self):
        start = self.real("ladder.start")
        factor = self.real("ladder.factor")
        count = self.count("ladder.count", LADDER_COUNT_MAX)
        for key, value, low in (("ladder.start", start, 0), ("ladder.factor", factor, 1)):
            if not value > low:
                raise ConfigError(f"{key} must exceed {low}, got {value!r}")
        try:
            radii = [start * factor**j for j in range(count)]
        except OverflowError:
            radii = [math.inf]
        if radii[-1] == math.inf:
            raise ConfigError(f"ladder radius overflows: ladder.start={start!r} times "
                              f"ladder.factor={factor!r} to the power {count - 1}")
        return radii


# ---------------------------------------------------------------------------
# emitters


def _num(v):
    """JSON-safe rendering preserving exactness where it exists."""
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, tuple):
        return [_num(x) for x in v]
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    return float(v)


def _cell(v):
    """A CSV cell: numbers as floats; bools, text and None as they are."""
    return v if v is None or isinstance(v, (bool, str)) else float(v)


def _finite_cell(v):
    """A CSV cell, refused if it is a NaN or infinite float."""
    if isinstance(v, float) and not math.isfinite(v):
        raise NonFiniteResultError(f"{v!r} is not a finite number")
    return v


def _emit(cfg: RunConfig, stem: str, fmt: str, header, rows, payload: dict) -> dict:
    """The artifact texts of one command, by file name; a NaN or infinity in
    any of them refuses the command."""
    payload["provenance"] = cfg.provenance()
    files = {}
    try:
        if fmt in ("csv", "both"):
            buf = io.StringIO()
            w = csv.writer(buf)
            w.writerow(header)
            w.writerows(map(_finite_cell, row) for row in rows)
            files[f"{stem}.csv"] = buf.getvalue()
        if fmt in ("json", "both"):
            files[f"{stem}.json"] = json.dumps(payload, indent=2, sort_keys=True,
                                               allow_nan=False, check_circular=False) + "\n"
    except ValueError:
        # _finite_cell raises one; with no circular check, json raises one only at NaN or inf
        raise NonFiniteResultError(f"{stem}: a result is not a finite number; "
                                   "nothing was written") from None
    return files


# ---------------------------------------------------------------------------
# subcommands


def cmd_exponents(cfg: RunConfig, fmt: str) -> tuple[dict, int]:
    p = cfg.exponents()
    header = ("s", "l", "m0", "kappa", "q_interp", "alpha", "m", "m1",
              "gamma_profile", "strong_admissible", "m0_lower_bound")
    record = {k: getattr(p, k) for k in header + (
        "weak_admissible", "positive_window", "scenario_ordered")}
    return _emit(cfg, "exponents", fmt, header, [[_cell(record[c]) for c in header]],
                 {k: _num(v) for k, v in record.items()}), EXIT_OK


def cmd_construct(cfg: RunConfig, fmt: str) -> tuple[dict, int]:
    con = ex.construct_profile_exponents(
        cfg.rational("construct.m0"), cfg.rational("construct.alpha"),
        cfg.optional("construct.delta", cfg.rational))
    record = {
        "m0": con.m0, "alpha": con.alpha_profile, "delta": con.delta,
        "delta_interval": con.delta_interval, "s": con.s, "l": con.l,
        "gamma": con.gamma, "kappa": con.kappa,
        "certificate": con.exponent_certificate, "integrable": con.integrable,
        "strong_admissible": con.strong_admissible, "branch": con.branch,
        "edge_check": con.edge_check,
    }
    header = ("m0", "alpha", "delta", "s", "l", "gamma", "certificate", "branch")
    return _emit(cfg, "construct", fmt, header, [[_cell(record[c]) for c in header]],
                 {k: _num(v) for k, v in record.items()}), EXIT_OK


def cmd_quantities(cfg: RunConfig, fmt: str) -> tuple[dict, int]:
    report = qt.quantity_report(cfg.profile(), cfg.ladder(), cfg.exponents(),
                                cfg.quadrature())
    rows = [[getattr(row, c) for c in QUANTITY_COLUMNS] for row in report.rows]
    payload = {
        "rows": [dict(zip(QUANTITY_COLUMNS, [_num(v) for v in r])) for r in rows],
        "type1_sup": report.type1_sup,
    }
    return _emit(cfg, "quantities", fmt, QUANTITY_COLUMNS, rows, payload), EXIT_OK


def cmd_scale_check(cfg: RunConfig, fmt: str) -> tuple[dict, int]:
    params = cfg.exponents()
    kind = cfg.text("scale.kind")
    alpha = cfg.optional("scale.alpha", cfg.real)
    if kind == "euler" and alpha is None:
        alpha = float(params.alpha)
    spec = sc.ScalingSpec(kind=kind, lam=cfg.real("scale.lam"), alpha=alpha)
    rows = sc.invariance_report(cfg.profile(), spec, params, cfg.ladder(),
                                cfg.quadrature(), tolerance=cfg.tolerance)
    csv_rows = [[r.relation, r.a, r.lhs, r.rhs, r.slack, r.tolerance, r.passed]
                for r in rows]
    payload = {
        "rows": [dict(zip(INVARIANCE_COLUMNS, row)) for row in csv_rows],
        "all_pass": all(r.passed for r in rows),
    }
    return (_emit(cfg, "scale_check", fmt, INVARIANCE_COLUMNS, csv_rows, payload),
            EXIT_OK if all(r.passed for r in rows) else EXIT_NUMERIC)


def cmd_liouville(cfg: RunConfig, fmt: str) -> tuple[dict, int]:
    m = cfg.real("liouville.m")
    gamma = cfg.optional("liouville.gamma", cfg.real)
    # compact support makes every ladder-normalized mass decay
    evidence = True if cfg.flag("liouville.compact_support") else None
    verdict = asy.liouville_verdict(m, gamma, evidence)
    return _emit(cfg, "liouville", fmt, ("verdict",), [[verdict.verdict]],
                 dataclasses.asdict(verdict)), EXIT_OK


def cmd_iterate(cfg: RunConfig, fmt: str) -> tuple[dict, int]:
    k_max = cfg.count("iterate.k_max", K_MAX_LIMIT)
    params = asy.derive_iteration_params(
        cfg.real("iterate.m"), cfg.real("iterate.gamma"),
        C_force=cfg.real("iterate.C"),
    )
    trace = asy.iterate_bound(params, cfg.real("iterate.R"), k_max)
    rows = [[k, p, a, b] for k, p, a, b in zip(
        trace.ks, trace.profile_terms, trace.forcing_terms, trace.bounds)]
    payload = {
        "theta": params.theta, "beta": params.beta,
        "gamma": params.gamma, "gamma_max": params.gamma_max,
        "case_tag": trace.case_tag, "verdict": trace.verdict,
        "final_bound": trace.bounds[-1],
        "final_forcing": trace.forcing_terms[-1],
    }
    return _emit(cfg, "iterate", fmt, ITERATE_COLUMNS, rows, payload), EXIT_OK


def cmd_suite(cfg: RunConfig, fmt: str) -> tuple[dict, int]:
    results = [cmd(cfg, fmt) for cmd in (cmd_exponents, cmd_construct, cmd_quantities,
                                         cmd_scale_check, cmd_liouville, cmd_iterate)]
    return ({name: text for files, _ in results for name, text in files.items()},
            max(code for _, code in results))


def cmd_defaults(cfg: RunConfig, fmt: str) -> tuple[dict, int]:
    for key in sorted(DEFAULTS):
        print(f"{key} = {DEFAULTS[key]}")
    return {}, EXIT_OK


COMMANDS = {
    "exponents": cmd_exponents,
    "construct": cmd_construct,
    "quantities": cmd_quantities,
    "scale-check": cmd_scale_check,
    "liouville": cmd_liouville,
    "iterate": cmd_iterate,
    "suite": cmd_suite,
    "defaults": cmd_defaults,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit EXIT_INVALID, not argparse's 2
        raise ConfigError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="cylscale",
        description="Exponent algebra, scaled energy quantities and "
        "iteration verdicts on parabolic cylinders.",
    )
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("overrides", nargs="*", metavar="key=value",
                    help="inline config overrides")
    ap.add_argument("--config", type=Path, default=None)
    ap.add_argument("--out", type=Path, default=None,
                    help=f"output directory (default ${OUT_ENV} or cwd)")
    ap.add_argument("--format", choices=("csv", "json", "both"), default="both")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        entries = {}
        if args.config is not None:
            try:
                text = args.config.read_text()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
            entries.update(parse_config_text(text))
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"override must be key=value, got {item!r}")
            key, val = item.split("=", 1)
            entries[key.strip()] = val.strip()
        cfg = RunConfig(entries)
        with np.errstate(all="ignore"):  # numpy's warnings only; overflows raise typed errors
            files, code = COMMANDS[args.command](cfg, args.format)
        # all or nothing: a command that raises has written nothing
        outdir = args.out or Path(os.environ.get(OUT_ENV, "."))
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (outdir / name).write_text(text, newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write to output directory {outdir}: {exc}") from exc
        return code
    except CylscaleError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
