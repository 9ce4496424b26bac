"""Run configuration parsing and experiment orchestration with flat-file artifacts.

A run configuration is plain text, one `key = value` per line, `#` comments.
Unknown keys are rejected by name; every constraint violation names its key.
`run` executes solve -> free-boundary analysis -> per-center profiles (each
center profiled once, by `freeboundary.profile_point`) and then writes its
artifacts into the run directory:

    summary.json            headline numbers (energies, iterations, per-point
                            frequency/classification/dimension, fitted
                            monotonicity constants)
    fields.csv              x, y, u, v at every grid node
    profile_<center>.csv    r, H, D, D0, B, N, N0, phi
    gamma.csv               x, side, class, mu_hat, mu_int, d, fit_residual

Every file carries a header row and a comment line with the effective config
hash; outputs are byte-deterministic for a fixed config and seed (no wall
times or machine identifiers in any artifact). `config.txt` holds the
effective config and parses back to the same hash. The environment variable
BILAPLAB_OUTPUT_ROOT overrides where run directories are created.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .diagnostics import profile_radii
from .freeboundary import FreeBoundaryPoint, analyze_point, extract_gamma, profile_point
from .grid import cells_per_unit
from .problem import ProblemSpec, SpecError
from .solver import el_crosscheck, minimize, weak_residual

ENV_OUTPUT_ROOT = "BILAPLAB_OUTPUT_ROOT"

_STAGES = ("solve", "profile", "gamma")


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending key."""


@dataclass
class RunConfig:
    """Validated run description: problem fields plus orchestration knobs."""

    spec: ProblemSpec
    centers: list[float] | None = None  # None = auto (free-boundary points, else the origin)
    radii: list[float] | None = None    # None = auto ladder
    output: str | None = None           # None = runs/<hash> under the output root
    seed: int = 0
    stages: tuple[str, ...] = _STAGES

    def echo(self) -> str:
        """Canonical effective-config text (the hash input): the spec's init
        fields in their order, None as 'auto', then the run's keys."""
        values = [(key, getattr(self.spec, key)) for key in _SPEC_KEYS]
        lines = [f"{key} = {'auto' if v is None else getattr(v, 'description', repr(v))}"
                 for key, v in values] + [
            f"centers = {'auto' if self.centers is None else ';'.join(repr(c) for c in self.centers)}",
            f"radii = {'auto' if self.radii is None else ';'.join(repr(r) for r in self.radii)}",
            f"seed = {self.seed}",
            f"stages = {','.join(self.stages)}",
        ]
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()[:12]


# the problem keys: the spec's init fields, each with its type
_SPEC_KEYS = {f.name: f.type for f in fields(ProblemSpec) if f.init}
_KEYS = {*_SPEC_KEYS, "centers", "radii", "output", "seed", "stages"}


def _float(key: str, raw: str) -> float:
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected a number, got {raw!r}") from None
    if not np.isfinite(val):
        raise ConfigError(f"key '{key}': expected a finite number, got {raw!r}")
    return val


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key '{key}': expected an integer, got {raw!r}") from None


# the value of a spec field's text, by the field's type
_CONVERT = {"int": _int, "float": _float, "str": lambda key, raw: raw,
            "float | None": lambda key, raw: None if raw == "auto" else _float(key, raw)}


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a validated RunConfig.

    Empty text yields the all-defaults config. The problem keys are the init
    fields of `ProblemSpec`, which holds their defaults and their rules; the
    run's keys default to centers = auto, radii = auto, output unset, seed = 0
    and stages = solve,profile,gamma.

    "auto" keeps the adaptive policy: tol_grad scales with the energy,
    centers follow the extracted free boundary (origin fallback), radii
    follow the geometric ladder of default_radii. Explicit radii give a
    frequency only when there are at least 8 of them spanning a factor of 2
    (`estimate_mu`); otherwise every profile carries mu_error and no
    frequency, and the run still succeeds. Each violated constraint
    raises ConfigError naming the key: unknown keys, text that is not a
    finite number, a `ProblemSpec` field that the spec refuses, the rules of
    a run on top of the spec's: lambda_plus, lambda_minus > 0 and h <= 1/4,
    a negative seed, and centers outside the thin face or at n = 2.
    """
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {ln}: expected 'key = value', got {body!r}")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key '{key}' (line {ln})")
        if key in raw:
            raise ConfigError(f"key '{key}' given twice (line {ln})")
        raw[key] = val

    spec_args = {key: _CONVERT[kind](key, raw[key]) for key, kind in _SPEC_KEYS.items()
                 if key in raw}
    for key in ("lambda_plus", "lambda_minus"):
        # a run's weights are positive; the spec also takes 0, which turns a phase off
        if key in spec_args and not spec_args[key] > 0.0:
            raise ConfigError(f"key '{key}': weight must be > 0, got {spec_args[key]}")
    try:
        spec = ProblemSpec(**spec_args)
    except SpecError as exc:
        raise ConfigError(f"key '{exc.field}': {exc.reason}") from None
    if cells_per_unit(spec.h) < 4:
        raise ConfigError(f"key 'h': a run samples the unit ball, which needs 1 >= 4h, "
                          f"so h <= 1/4; got {spec.h}")

    centers = None
    if "centers" in raw and raw["centers"] != "auto":
        if spec.n == 2:
            raise ConfigError("key 'centers': n = 2 profiles the origin of the face only")
        centers = []
        for part in raw["centers"].split(";"):
            c = _float("centers", part)
            if abs(c) >= 1.0:
                raise ConfigError(
                    f"key 'centers': center {c} lies outside the open thin face (-1, 1)")
            centers.append(c)
        if not centers:
            raise ConfigError("key 'centers': empty list")
        if len({_center_tag(c) for c in centers}) < len(centers):
            raise ConfigError(f"key 'centers': centers must differ in the 4 decimals of their "
                              f"profile_<center>.csv names, got {raw['centers']!r}")

    radii = None
    if "radii" in raw and raw["radii"] != "auto":
        radii = sorted(_float("radii", part) for part in raw["radii"].split(";"))
        if any(r <= 0 for r in radii):
            raise ConfigError("key 'radii': radii must be positive")

    seed = _int("seed", raw["seed"]) if "seed" in raw else 0
    if seed < 0:
        raise ConfigError(f"key 'seed': expected a non-negative integer, got {seed}")

    stages: tuple[str, ...] = _STAGES
    if "stages" in raw:
        stages = tuple(s.strip() for s in raw["stages"].split(",") if s.strip())
        bad = [s for s in stages if s not in _STAGES]
        if bad:
            raise ConfigError(f"key 'stages': unknown stage(s) {bad}; valid: {list(_STAGES)}")

    return RunConfig(spec=spec, centers=centers, radii=radii,
                     output=raw.get("output"), seed=seed, stages=stages)


# ---------------------------------------------------------------------------
# artifact writing


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return "nan"
    return repr(x)


def _csv(digest: str, header: list[str], rows) -> str:
    """Rows under the config digest and a header line, as the text of a CSV file.

    A float ndarray is formatted in bulk: repr of a Python float is exactly
    what `_fmt` writes for it, nan and -0.0 included. Other rows go through
    `_fmt` value by value.
    """
    lines = [f"# config {digest}", ",".join(header)]
    if isinstance(rows, np.ndarray):
        lines += [",".join(map(repr, row)) for row in rows.tolist()]
    else:
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _fields_csv(digest: str, grid, u: np.ndarray, v: np.ndarray) -> str:
    """`_csv` of the node rows (x, y, u, v). A node's x and y are k h for
    lattice indices k, so they are formatted once per index, as the repr of
    float(k) * h, and only u and v are formatted node by node."""
    M = grid.M
    table = np.array([repr(float(k) * grid.h) for k in range(-M, M + 1)], dtype=object)
    columns = (table[grid.lattice[:, 0]], table[grid.lattice[:, -1] + M],
               map(repr, u.tolist()), map(repr, v.tolist()))
    return "\n".join([f"# config {digest}", "x,y,u,v", *map(",".join, zip(*columns))]) + "\n"


def output_root() -> Path:
    return Path(os.environ.get(ENV_OUTPUT_ROOT, os.getcwd()))


def _check_ladders(config: RunConfig, grid) -> None:
    """A ConfigError naming its key, before the solve, for a center with no
    admissible ball under `profile_radii`: the origin on the default radii
    for the gamma stage ('h'), and each configured center, or the origin,
    on the profile stage's radii ('radii' when explicit, else 'centers' or
    'h'). The gamma stage's points are found only by the solve; `run`
    skips one that has no admissible ball with a note."""
    checks = [("h", 0.0, None)] if "gamma" in config.stages else []
    if "profile" in config.stages:
        key = "radii" if config.radii else "centers" if config.centers else "h"
        checks += [(key, c, config.radii) for c in config.centers or [0.0]]
    for key, c, radii in checks:
        try:
            profile_radii(grid, [c] + [0.0] * (config.spec.n - 1), radii)
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}") from None


def run(config: RunConfig) -> Path:
    """Execute the configured stages, then write the artifact directory. Stage
    inputs that would fail (the gamma stage at n = 2, `_check_ladders`) are a
    ConfigError before the solve, and a run that fails writes nothing.

    Every center is profiled by `profile_point`: a free-boundary point that
    `analyze_point` profiled on the default radii is reused, and any other
    center is profiled as `FreeBoundaryPoint(x=c)`. An auto center at a
    free-boundary point with no admissible ball (too near the face edge for
    the default radii, or the sphere for the explicit radii) has a profile
    entry holding only the reason, and no CSV."""
    if "gamma" in config.stages and config.spec.n != 1:
        raise ConfigError("key 'n': the free boundary (stage gamma, `bilaplab blowup`) "
                          "is extracted at n = 1 only")
    spec = config.spec
    grid = spec.grid()
    _check_ladders(config, grid)
    digest = config.digest
    files = {"config.txt": f"# config {digest}\n" + config.echo()}
    summary: dict = {"config_hash": digest, "config": config.echo().splitlines()}

    result = minimize(spec)
    summary["solve"] = {
        "energy": result.energy,
        "iterations": result.iterations,
        "cg_iterations": result.cg_iterations,
        "backtracks": sum(step.backtracks for step in result.trace),
        "phase_flips": sum(step.phase_flips for step in result.trace),
        "grad_sup": result.grad_sup,
        "node_count": grid.node_count,
        "h": spec.h,
    }
    files["fields.csv"] = _fields_csv(digest, grid, result.u.values, result.v.values)

    el = el_crosscheck(result)
    summary["stationarity"] = {
        "harmonic_sup": el.harmonic_sup,
        "neumann_sup": el.neumann_sup,
        "natural_sup": el.natural_sup,
        "weak_residual": weak_residual(result, seed=config.seed),
    }

    points = extract_gamma(result.u) if "gamma" in config.stages else []
    for pt in points:
        analyze_point(pt, result)

    if "profile" in config.stages:
        summary["profiles"] = {}
        # an analyzed point carries its profile on the default radii
        known = {} if config.radii else {pt.x: pt for pt in points}
        for c in config.centers or [pt.x for pt in points] or [0.0]:
            pt = known[c] if c in known else profile_point(
                FreeBoundaryPoint(x=c), result, config.radii)
            tag = _center_tag(c)
            if pt.profile is None:
                summary["profiles"][tag] = {"center": c, "profile_error": pt.profile_error}
                continue
            prof = pt.profile
            summary["profiles"][tag] = {
                "center": c,
                "radii": [float(r) for r in prof.radii],
                "almgren_constant": pt.almgren_constant,
                **({"mu_hat": pt.mu_hat, "mu_int": pt.mu_int} if pt.mu_error is None
                   else {"mu_error": pt.mu_error}),
            }
            rows = np.column_stack((prof.radii, prof.H, prof.D, prof.D0, prof.B, prof.N,
                                    prof.N0, prof.phi))
            files[f"profile_{tag}.csv"] = _csv(
                digest, ["r", "H", "D", "D0", "B", "N", "N0", "phi"], rows)

    if "gamma" in config.stages:
        summary["points"] = [{
            "x": pt.x, "side": pt.side, "classification": pt.classification,
            "mu_hat": pt.mu_hat, "mu_int": pt.mu_int, "dimension": pt.dimension,
            "fit_residual": pt.fit_residual, "value_v": pt.value_v,
            "monneau_constant": pt.monneau_constant,
            **({} if pt.profile_error is None else {"profile_error": pt.profile_error}),
        } for pt in points]
        columns = ["x", "side", "classification", "mu_hat", "mu_int", "dimension",
                   "fit_residual"]
        files["gamma.csv"] = _csv(
            digest, ["x", "side", "class", "mu_hat", "mu_int", "d", "fit_residual"],
            [[row[k] for k in columns] for row in summary["points"]])

    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True, allow_nan=True) + "\n"
    out = Path(config.output) if config.output else output_root() / "runs" / digest
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return out


def _center_tag(c: float) -> str:
    return f"{c:+.4f}"
