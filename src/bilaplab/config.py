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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import profile_radii
from .freeboundary import FreeBoundaryPoint, analyze_point, extract_gamma, profile_point
from .problem import ProblemSpec
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
        """Canonical effective-config text (the hash input)."""
        s = self.spec
        lines = [
            f"n = {s.n}",
            f"p = {s.p!r}",
            f"lambda_plus = {s.lambda_plus!r}",
            f"lambda_minus = {s.lambda_minus!r}",
            f"h = {s.h!r}",
            f"g = {s.g.description}",
            f"tol_grad = {'auto' if s.tol_grad is None else repr(s.tol_grad)}",
            f"max_iter = {s.max_iter}",
            f"centers = {'auto' if self.centers is None else ';'.join(repr(c) for c in self.centers)}",
            f"radii = {'auto' if self.radii is None else ';'.join(repr(r) for r in self.radii)}",
            f"seed = {self.seed}",
            f"stages = {','.join(self.stages)}",
        ]
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()[:12]


_KEYS = {
    "n", "p", "lambda_plus", "lambda_minus", "g", "h", "tol_grad", "max_iter",
    "centers", "radii", "output", "seed", "stages",
}


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


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines into a validated RunConfig.

    Empty text yields the all-defaults config. Defaults:

        n = 1               p = 2.0            lambda_plus = 1.0
        lambda_minus = 1.0  h = 0.0625         g = zero
        tol_grad = auto     max_iter = 200     centers = auto
        radii = auto        output = (unset)   seed = 0
        stages = solve,profile,gamma

    "auto" keeps the adaptive policy: tol_grad scales with the energy,
    centers follow the extracted free boundary (origin fallback), radii
    follow the geometric ladder of default_radii. Explicit radii give a
    frequency only when there are at least 8 of them spanning a factor of 2
    (`estimate_mu`); otherwise every profile carries mu_error and no
    frequency, and the run still succeeds. Each violated constraint
    raises ConfigError naming the key: unknown keys, non-finite numbers,
    p <= 1, lambda <= 0, h whose reciprocal is not an integer or is below 4,
    centers outside the thin face or at n = 2, non-finite, unknown or
    missing datum parameters.
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

    n = _int("n", raw["n"]) if "n" in raw else 1
    if n not in (1, 2):
        raise ConfigError(f"key 'n': thin-face dimension must be 1 or 2, got {n}")
    p = _float("p", raw["p"]) if "p" in raw else 2.0
    if not p > 1.0:
        raise ConfigError(f"key 'p': the phase exponent requires p > 1, got {p}")
    lam_p = _float("lambda_plus", raw["lambda_plus"]) if "lambda_plus" in raw else 1.0
    lam_m = _float("lambda_minus", raw["lambda_minus"]) if "lambda_minus" in raw else 1.0
    if not lam_p > 0.0:
        raise ConfigError(f"key 'lambda_plus': weight must be > 0, got {lam_p}")
    if not lam_m > 0.0:
        raise ConfigError(f"key 'lambda_minus': weight must be > 0, got {lam_m}")
    h = _float("h", raw["h"]) if "h" in raw else 1.0 / 16
    if h <= 0 or abs(round(1.0 / h) - 1.0 / h) > 1e-9:
        raise ConfigError(f"key 'h': grid step must divide 1 exactly, got {h}")
    if round(1.0 / h) < 4:
        raise ConfigError(f"key 'h': a run samples the unit ball, which needs 1 >= 4h, "
                          f"so h <= 1/4; got {h}")
    g = raw.get("g", "zero")
    tol_grad = None
    if "tol_grad" in raw and raw["tol_grad"] != "auto":
        tol_grad = _float("tol_grad", raw["tol_grad"])
        if tol_grad <= 0:
            raise ConfigError(f"key 'tol_grad': tolerance must be > 0, got {tol_grad}")
    max_iter = _int("max_iter", raw["max_iter"]) if "max_iter" in raw else 200
    if max_iter < 1:
        raise ConfigError(f"key 'max_iter': need at least 1, got {max_iter}")

    try:
        spec = ProblemSpec(n=n, p=p, lambda_plus=lam_p, lambda_minus=lam_m,
                           g=g, h=h, tol_grad=tol_grad, max_iter=max_iter)
    except ValueError as exc:
        raise ConfigError(f"key 'g': {exc}") from None

    centers = None
    if "centers" in raw and raw["centers"] != "auto":
        if n == 2:
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
    rows = np.column_stack((grid.nodes[:, 0], grid.nodes[:, -1], result.u.values,
                            result.v.values))
    files["fields.csv"] = _csv(digest, ["x", "y", "u", "v"], rows)

    el = el_crosscheck(result, spec)
    summary["stationarity"] = {
        "harmonic_sup": el.harmonic_sup,
        "neumann_sup": el.neumann_sup,
        "natural_sup": el.natural_sup,
        "weak_residual": weak_residual(result, spec, seed=config.seed),
    }

    points = extract_gamma(result.u) if "gamma" in config.stages else []
    for pt in points:
        analyze_point(pt, result.u, result.v, spec)

    if "profile" in config.stages:
        summary["profiles"] = {}
        # an analyzed point carries its profile on the default radii
        known = {} if config.radii else {pt.x: pt for pt in points}
        for c in config.centers or [pt.x for pt in points] or [0.0]:
            pt = known[c] if c in known else profile_point(
                FreeBoundaryPoint(x=c), result.u, result.v, spec, config.radii)
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

    files["summary.json"] = json.dumps(summary, indent=2, sort_keys=True, allow_nan=True,
                                       default=_json_default) + "\n"
    out = Path(config.output) if config.output else output_root() / "runs" / digest
    out.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out / name).write_text(text)
    return out


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _center_tag(c: float) -> str:
    return f"{c:+.4f}"
