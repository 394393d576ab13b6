"""Command-line front end: runs the analytic and stochastic checks and
writes machine-readable tables.

Handlers return their columns, rows and results; ``main`` alone writes the
report, a header row naming the columns, the data rows and a footer
recording the numerical conventions plus the effective configuration and
results, so any result file is self-describing.  It picks the exit code:
0 success, 1 a check exceeded its gap (or a numerical run went unstable),
2 usage or config error.

Determinism: output bytes depend only on the effective semantic
configuration.  ``--threads`` (or WRAPKIT_THREADS) changes wall time, never
bytes, and is therefore not echoed in the footer; neither are file paths.
Floats are printed with %.17g, which round-trips doubles exactly.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CatalogError,
    ContractError,
    DomainError,
    InstabilityError,
    ResolutionError,
    ResourceLimitError,
    SingularityError,
)
from .groups import alcove_points, make_group
from .wrapping import (
    RadialFunction,
    auto_cutoff,
    wrap_spectral,
    wraplap_check,
)
from .heat import (
    bend_complex,
    flat_heat_kernel,
    j_complex,
    preferred_route,
    semigroup_gap,
    spectral_heat_kernel,
    wrapped_heat_kernel,
)
from .brownian import (
    SdeConfig,
    empirical_density_table,
    real_character,
    wrap_bm_check,
)

_CONVENTIONS = (
    ("inner_product",
     "bi-invariant metric scaled so every root covector has unit length"
     " (su2 rho_norm_sq = 1/4)"),
    ("fourier",
     "nu_hat(xi) = integral nu(x) exp(-i<xi,x>) dx;"
     " the t-Gaussian has transform exp(-t||xi||^2/2)"),
    ("haar",
     "Haar measure has total mass 1;"
     " the Riemannian volume is kept separately in GroupSpec.volume"),
)

# execution plumbing, never part of the output bytes
_UNECHOED = {"out", "config", "threads"}


@dataclass(frozen=True)
class _Param:
    name: str
    type: type
    default: object
    help: str
    choices: tuple | None = None


_COMMON = (
    _Param("out", str, "-", "output path, - for stdout"),
    _Param("format", str, "csv", "output format", ("csv", "json")),
    _Param("config", str, None, "key=value config file (flags win)"),
    _Param("threads", int, None, "worker cap (default WRAPKIT_THREADS or 1)"),
)


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return "%.17g" % float(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _json_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else None
    if isinstance(v, (int, np.integer)):
        return int(v)
    return v


def _emit(eff: dict, columns: list[str], rows: list[tuple],
          results: list[tuple[str, object]]) -> None:
    footer = [("command", eff["command"])]
    footer += [(k, v) for k, v in _CONVENTIONS]
    for key in sorted(eff):
        if key == "command" or key in _UNECHOED or eff[key] is None:
            continue
        footer.append((key, _fmt(eff[key])))
    footer += [(k, _fmt(v)) for k, v in results]

    if eff["format"] == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([_fmt(v) for v in r])
        for k, v in footer:
            w.writerow([f"# {k}={v}"])
        data = buf.getvalue()
    else:
        recs = [dict(zip(columns, map(_json_cell, r))) for r in rows]
        recs.append({"footer": {k: v for k, v in footer}})
        data = json.dumps(recs, indent=1) + "\n"

    if eff["out"] in (None, "-"):
        sys.stdout.write(data)
    else:
        Path(eff["out"]).write_text(data)


def _coord_columns(rank: int) -> list[str]:
    return [f"H{i + 1}" for i in range(rank)]


def _parse_rep(text: str, rank: int) -> tuple[int, ...]:
    try:
        coords = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise DomainError(f"rep {text!r} is not a comma list of integers") from exc
    if len(coords) != rank:
        raise DomainError(f"rep needs {rank} coordinates, got {len(coords)}")
    return coords


def _parse_mixture(text: str) -> list[tuple[float, float]]:
    pairs = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) != 2:
            raise DomainError(
                f"mixture component {part!r} is not weight:variance"
            )
        try:
            w, s = float(bits[0]), float(bits[1])
        except ValueError as exc:
            raise DomainError(f"mixture component {part!r} is not numeric") from exc
        pairs.append((w, s))
    return pairs


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (columns, rows, results) to main
# ---------------------------------------------------------------------------

def _cmd_kernel(eff: dict) -> tuple:
    """kernel and poisson-check: both routes on an alcove grid; kernel also
    names the route auto_kernel would trust."""
    g = make_group(eff["group"])
    pts = alcove_points(g, eff["grid"])
    spectral = np.atleast_1d(spectral_heat_kernel(g, pts, eff["t"], True, eff["tol"]))
    wrapped = np.atleast_1d(wrapped_heat_kernel(g, pts, eff["t"], eff["tol"]))
    gap = np.abs(spectral - wrapped)
    rows = [(*p, s, w, d) for p, s, w, d in zip(pts, spectral, wrapped, gap)]
    ok = float(gap.max()) < eff["threshold"]
    route = ([("route", preferred_route(g, pts, eff["t"]))]
             if eff["command"] == "kernel" else [])
    return (_coord_columns(g.rank) + ["spectral", "wrapped", "gap"], rows,
            route + [("max_gap", float(gap.max())), ("pass", ok)])


def _cmd_semigroup_check(eff: dict) -> tuple:
    g = make_group(eff["group"])
    coeff_gap, quad_gap = semigroup_gap(
        g, eff["t"], eff["s"], grid_points=eff["grid"], tol=eff["tol"]
    )
    ok = coeff_gap < eff["coeff_threshold"] and quad_gap < eff["quad_threshold"]
    return (["t", "s", "coeff_gap", "quad_gap"],
            [(eff["t"], eff["s"], coeff_gap, quad_gap)], [("pass", ok)])


def _cmd_wrap(eff: dict) -> tuple:
    if not eff["mixture"]:
        raise DomainError("wrap needs --mixture w1:s1,w2:s2,...")
    g = make_group(eff["group"])
    nu = RadialFunction.mixture(g.dim, _parse_mixture(eff["mixture"]))
    cutoff = auto_cutoff(g, nu, eff["tol"]) if eff["cutoff"] is None else eff["cutoff"]
    f = wrap_spectral(g, nu, cutoff)
    rows = [(";".join(map(str, k)), d, c)
            for k, d, c in zip(f.coords.tolist(), f.dimensions.tolist(), f.values.tolist())]
    return (["weight", "dimension", "coefficient"], rows,
            [("effective_cutoff", float(cutoff)), ("terms", len(rows))])


def _cmd_wraplap_check(eff: dict) -> tuple:
    g = make_group(eff["group"])
    nu = RadialFunction.gaussian(g.dim, eff["t"])
    cutoff = auto_cutoff(g, nu, eff["tol"])
    gap = wraplap_check(g, nu, cutoff)
    ok = gap < eff["threshold"]
    return (["t", "gap"], [(eff["t"], gap)],
            [("effective_cutoff", float(cutoff)), ("pass", ok)])


def _cmd_simulate(eff: dict) -> tuple:
    g = make_group(eff["group"])
    cfg = SdeConfig(group=g, t=eff["t"], step=eff["step"], paths=eff["paths"],
                    seed=eff["seed"], chunk=eff["chunk"])
    score, rows = empirical_density_table(g, cfg, eff["bins"], eff["threads"])
    ok = bool(score < 1.0)
    return (["bin_lo", "bin_hi", "expected", "observed", "rel_dev",
             "threshold"], rows, [("score", score), ("pass", ok)])


def _cmd_wrap_bm_check(eff: dict) -> tuple:
    g = make_group(eff["group"])
    coords = (_parse_rep(eff["rep"], g.rank) if eff["rep"]
              else (1,) + (0,) * (g.rank - 1))
    f = real_character(g, coords)
    cfg = SdeConfig(group=g, t=eff["t"], step=eff["step"], paths=eff["paths"],
                    seed=eff["seed"], chunk=eff["chunk"])
    rep = wrap_bm_check(g, f, cfg, eff["threads"])
    gap = abs(rep.lhs.mean - rep.rhs.mean)
    allowance = 3.0 * math.hypot(rep.lhs.stderr, rep.rhs.stderr) + 5.0 * eff["step"]
    ok = gap <= allowance
    return (["lhs_mean", "lhs_stderr", "rhs_mean", "rhs_stderr", "gap", "z",
             "allowance"],
            [(rep.lhs.mean, rep.lhs.stderr, rep.rhs.mean, rep.rhs.stderr, gap,
              rep.z, allowance)],
            [("effective_rep", ",".join(map(str, coords))), ("pass", ok)])


def _cmd_bend(eff: dict) -> tuple:
    g = make_group(eff["group"])
    pts = alcove_points(g, eff["grid"]) * eff["scale"]
    value = np.atleast_1d(bend_complex(g, pts, eff["t"]))
    flat = flat_heat_kernel(np.sum(pts * pts, axis=1), eff["t"], 2 * g.dim)
    inv_j = 1.0 / np.atleast_1d(j_complex(g, pts))
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(flat > 0, value / np.where(flat > 0, flat, 1.0), np.nan)
    gap = np.abs(ratio - inv_j)
    rows = [(*p, v, r, ij, d)
            for p, v, r, ij, d in zip(pts, value, ratio, inv_j, gap)]
    finite = gap[np.isfinite(gap)]
    if len(finite) == 0:
        raise DomainError(
            "every comparison point underflows the flat Gaussian; "
            "reduce --scale or increase --t"
        )
    ok = float(finite.max()) <= eff["threshold"]
    return (_coord_columns(g.rank) + ["value", "ratio_to_flat", "inv_j", "gap"],
            rows, [("compared", len(finite)), ("max_gap", float(finite.max())),
                   ("pass", ok)])


def _cmd_catalog(eff: dict) -> tuple:
    names = ([eff["group"]] if eff["group"]
             else ["torus1", "torus2", "su2", "so3", "su2xsu2", "su3"])
    rows = []
    for name in names:
        g = make_group(name)
        rows.append((g.name, g.rank, g.dim, g.n_positive_roots, g.weyl_order,
                     g.is_abelian, g.rho_norm_sq, g.cell_volume, g.volume))
    return (["name", "rank", "dim", "positive_roots", "weyl_order", "abelian",
             "rho_norm_sq", "cell_volume", "volume"], rows, [])


_COMMANDS: dict = {
    "kernel": (
        "evaluate the shifted heat kernel both ways on an alcove grid",
        _cmd_kernel,
        (
            _Param("group", str, None, "catalog group name"),
            _Param("t", float, 1.0, "time"),
            _Param("grid", int, 16, "number of alcove comparison points"),
            _Param("tol", float, 1e-10, "evaluator tolerance"),
            _Param("threshold", float, 1e-8, "max allowed route gap"),
        ),
    ),
    "poisson-check": (
        "lattice-sum vs character-series identity for the heat Gaussian",
        _cmd_kernel,
        (
            _Param("group", str, None, "catalog group name"),
            _Param("t", float, 1.0, "time"),
            _Param("grid", int, 20, "number of alcove comparison points"),
            _Param("tol", float, 1e-10, "evaluator tolerance"),
            _Param("threshold", float, 1e-10, "max allowed gap"),
        ),
    ),
    "semigroup-check": (
        "q_t * q_s = q_{t+s} at coefficient and quadrature level",
        _cmd_semigroup_check,
        (
            _Param("group", str, None, "catalog group name"),
            _Param("t", float, 0.5, "first time"),
            _Param("s", float, 0.5, "second time"),
            _Param("grid", int, 16, "alcove comparison points"),
            _Param("tol", float, 1e-9, "series tolerance"),
            _Param("coeff_threshold", float, 1e-12, "coefficient gap bound"),
            _Param("quad_threshold", float, 1e-6, "quadrature gap bound"),
        ),
    ),
    "wrap": (
        "character coefficients of the wrap of a Gaussian mixture",
        _cmd_wrap,
        (
            _Param("group", str, None, "catalog group name"),
            _Param("mixture", str, None, "components w1:s1,w2:s2,..."),
            _Param("cutoff", float, None, "dual-norm cutoff (default: auto)"),
            _Param("tol", float, 1e-10, "auto-cutoff tail tolerance"),
        ),
    ),
    "wraplap-check": (
        "wrap of the flat Laplacian vs shifted group Laplacian of the wrap",
        _cmd_wraplap_check,
        (
            _Param("group", str, None, "catalog group name"),
            _Param("t", float, 0.5, "Gaussian time parameter"),
            _Param("tol", float, 1e-10, "auto-cutoff tail tolerance"),
            _Param("threshold", float, 1e-12, "max allowed coefficient gap"),
        ),
    ),
    "simulate": (
        "simulate Brownian paths and bin endpoints against the density",
        _cmd_simulate,
        (
            _Param("group", str, None, "rank-one catalog group"),
            _Param("t", float, 1.0, "horizon"),
            _Param("step", float, 1e-3, "random-walk step h"),
            _Param("paths", int, 100000, "number of paths"),
            _Param("seed", int, 0, "master seed"),
            _Param("chunk", int, SdeConfig.chunk, "paths per deterministic substream"),
            _Param("bins", int, 12, "histogram bins over the alcove"),
        ),
    ),
    "wrap-bm-check": (
        "Monte Carlo check: flat side with j-weight vs group side",
        _cmd_wrap_bm_check,
        (
            _Param("group", str, None, "catalog group name"),
            _Param("t", float, 0.5, "horizon"),
            _Param("step", float, 5e-3, "random-walk step h"),
            _Param("paths", int, 100000, "number of paths"),
            _Param("seed", int, 0, "master seed"),
            _Param("chunk", int, SdeConfig.chunk, "paths per deterministic substream"),
            _Param("rep", str, None,
                   "dominant weight coordinates k1,k2,... (default 1,0,...)"),
        ),
    ),
    "bend": (
        "closed-form complex-group kernel and its flat-ratio check",
        _cmd_bend,
        (
            _Param("group", str, None, "compact group to complexify"),
            _Param("t", float, 1.0, "time"),
            _Param("grid", int, 8, "alcove sample points"),
            _Param("scale", float, 1.0, "shrink factor applied to the points"),
            _Param("threshold", float, 1e-4, "max |ratio - 1/j| allowed"),
        ),
    ),
    "catalog": (
        "print the catalog group data",
        _cmd_catalog,
        (
            _Param("group", str, None, "one group (default: all)"),
        ),
    ),
}


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

def _config_flags(command: str, path: str) -> list[str]:
    """One ``--key=value`` per ``key = value`` line, typed and checked by the
    parser like any flag (``=`` keeps ``-0.5:0.3`` from reading as a flag)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc}") from exc
    names = {p.name for p in _COMMON + _COMMANDS[command][2]}
    flags, unknown = [], set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in names:  # exact, so no prefix abbreviation applies
            unknown.add(key)
        flags.append(f"--{key.replace('_', '-')}={value.strip()}")
    if unknown:
        raise DomainError(f"unknown config keys for {command}: "
                          f"{', '.join(sorted(unknown))}")
    return flags


def _checked(kind: type):
    """argparse type for ``kind``; a bad value reads "'x' is not a valid float"."""
    def convert(text: str):
        try:
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not a valid {kind.__name__}") from None
    return convert


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrapkit",
        description="heat kernels on compact groups three ways, cross-checked",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_, _handler, params) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_, allow_abbrev=False)
        for p in _COMMON + params:
            kwargs = {"default": p.default, "help": p.help, "dest": p.name}
            if p.choices:
                kwargs["choices"] = p.choices
            if p.type is not str:
                kwargs["type"] = _checked(p.type)
            sp.add_argument("--" + p.name.replace("_", "-"), **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _parser().parse_args(argv)
        if ns.config is not None:
            ns = _parser().parse_args(  # the file's values first: flags win
                argv[:1] + _config_flags(ns.command, ns.config) + argv[1:])
        if ns.group is None and ns.command != "catalog":
            raise DomainError("missing required parameter: group")
        columns, rows, results = _COMMANDS[ns.command][1](vars(ns))
    except SystemExit as exc:
        return int(exc.code or 0)
    except (CatalogError, ContractError, DomainError, ResolutionError,
            SingularityError) as exc:
        print(f"wrapkit: error: {exc}", file=sys.stderr)
        return 2
    except (InstabilityError, ResourceLimitError) as exc:
        print(f"wrapkit: error: {exc}", file=sys.stderr)
        return 1
    _emit(vars(ns), columns, rows, results)
    return 0 if dict(results).get("pass", True) else 1


if __name__ == "__main__":
    sys.exit(main())
