"""Scenario configs, initial-data families, and run orchestration.

A scenario is described by a flat ``key = value`` text file (# comments
allowed) naming the inertia operator, the grid, an initial-momentum family,
and the time stepping.  Running a scenario builds the grid and data, checks
the blowup certificate, integrates the flow, attaches comparison margins,
and writes one CSV output file with a '#'-prefixed metadata block (config
echo, certificate report, terminal status).  Identical configs produce
byte-identical outputs apart from the timestamp line.
"""

import datetime
import math
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .certify import certify, check_dominance
from .grid import InitialData, RadialGrid
from .hunter_saxton import HSExactSolution
from .kernels import KernelSpec
from .solver import run

__all__ = [
    "EXIT_CODES",
    "ScenarioConfig",
    "RunOutput",
    "builtin_initial_data",
    "run_scenario",
    "write_exact_hs_table",
    "parse_config",
    "parse_value",
    "serialize_config",
]


# Process exit code of each terminal run status.
EXIT_CODES = {
    "completed": 0,
    "blowup_detected": 0,
    "guard_tripped": 2,
    "step_rejected": 3,
    "nonfinite_state": 4,
}


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one run (plus a seed for perturbed
    families; the built-in families are deterministic and echo it only)."""

    sigma: int = 0
    k: int = 1
    n: int = 3
    grid_n: int = 1024
    r_max: float = 20.0
    spacing: str = "uniform"
    grade: float = 1.0
    family: str = "neg_bump"
    amplitude: float = 1.0
    r_lo: float = 2.0
    r_hi: float = 8.0
    bias: float = 0.0
    dt: float = 1e-3
    horizon: float = 10.0
    epsilon: float = 0.05
    record_every: int = 10
    output: str = "run.csv"
    seed: int = 0

    def validate(self):
        spec = KernelSpec(self.sigma, self.k, self.n)  # raises on bad (sigma, k, n)
        # NaN fails every comparison below, an infinite horizon would end
        # the run at t = 0 as "completed", and a NaN or inf amplitude or bias
        # would fail later under a wrong name (NaN * 0 is not 0)
        for f in fields(self):
            if f.type is float and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.grid_n < 128:
            raise ValueError("grid_n must be >= 128")
        if not 0.0 <= self.r_lo < self.r_hi:
            raise ValueError("need 0 <= r_lo < r_hi")
        if self.r_hi > 0.6 * self.r_max:
            raise ValueError("r_hi must be <= 0.6 * r_max (truncation margin)")
        if self.r_max > spec.r_max_limit:
            raise ValueError(
                f"r_max must be <= {spec.r_max_limit:g} for sigma = {self.sigma} "
                "(the kernel factors overflow beyond it)"
            )
        if not (0.0 < self.dt and 0.0 < self.horizon):
            raise ValueError("dt and horizon must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")
        if self.spacing not in ("uniform", "graded"):
            raise ValueError("spacing must be 'uniform' or 'graded'")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}


def serialize_config(config):
    """Canonical flat key = value text (floats via repr: exact round-trip)."""
    lines = []
    for f in fields(ScenarioConfig):
        lines.append(f"{f.name} = {getattr(config, f.name)!r}"
                     if f.type is str else
                     f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"


def parse_value(key, text):
    """The typed value of one config entry ``key = text``.

    A string may be quoted; an unknown key is an error.
    """
    if key not in _FIELD_TYPES:
        raise ValueError(f"unknown key {key!r}")
    ftype = _FIELD_TYPES[key]
    text = text.strip()
    if ftype is str and len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        return text[1:-1]
    return ftype(text)


def parse_config(text):
    """Parse the flat key = value format; unknown and repeated keys are an
    error."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"line {lineno}: key {key!r} given twice")
        try:
            values[key] = parse_value(key, val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return ScenarioConfig(**values).validate()


def _bump(x):
    """Smooth compactly supported bump, peak 1 at x = 0, zero for |x| >= 1."""
    out = np.zeros_like(x)
    inside = np.abs(x) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def _family_neg_bump(r, amplitude, r_lo, r_hi, bias):
    x = 2.0 * (r - r_lo) / (r_hi - r_lo) - 1.0
    return -amplitude * _bump(x)


def _family_neg_poly_bump(r, amplitude, r_lo, r_hi, bias):
    # C^2 at the endpoints, normalized so the midpoint value is -amplitude
    w = np.clip((r - r_lo) * (r_hi - r), 0.0, None)
    return -amplitude * (w / ((r_hi - r_lo) / 2.0) ** 2) ** 3


def _family_hs_mixed_sign(r, amplitude, r_lo, r_hi, bias):
    # momentum crossing from positive to negative across the support
    # (bias >= 1 makes it nonnegative everywhere: the global-existence side)
    x = 2.0 * (r - r_lo) / (r_hi - r_lo) - 1.0
    return amplitude * _bump(x) * (bias - np.sin(np.pi * np.clip(x, -1, 1)))


FAMILIES = {
    "neg_bump": _family_neg_bump,
    "neg_poly_bump": _family_neg_poly_bump,
    "hs_mixed_sign": _family_hs_mixed_sign,
}


def builtin_initial_data(family, params, grid, n):
    """Sample a named initial-momentum family on the grid.

    params: dict with amplitude (>= 0), r_lo < r_hi, and optionally bias
    (used by hs_mixed_sign).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    amplitude = params["amplitude"]
    if not 0.0 <= amplitude < math.inf:
        raise ValueError("amplitude must be finite and >= 0")
    omega0 = FAMILIES[family](
        grid.r, amplitude, params["r_lo"], params["r_hi"], params.get("bias", 0.0)
    )
    return InitialData.from_omega0(omega0, grid, n)


@dataclass
class RunOutput:
    config: ScenarioConfig
    certificate: object
    record: object
    dominance: dict | None
    status: str
    exit_code: int
    path: str


def _build(config):
    spec = KernelSpec(config.sigma, config.k, config.n)
    if config.spacing == "graded":
        grid = RadialGrid.graded(config.grid_n, config.r_max, config.grade)
    else:
        grid = RadialGrid.uniform(config.grid_n, config.r_max)
    params = {
        "amplitude": config.amplitude,
        "r_lo": config.r_lo,
        "r_hi": config.r_hi,
        "bias": config.bias,
    }
    data = builtin_initial_data(config.family, params, grid, config.n)
    return spec, grid, data


def run_scenario(config, output_path=None, quiet=False):
    """Execute one scenario end to end and write its output file."""
    config.validate()
    spec, grid, data = _build(config)
    cert = certify(spec, grid, data.omega0)
    record, final = run(
        spec,
        grid,
        data,
        dt=config.dt,
        horizon=config.horizon,
        blowup_threshold=config.epsilon,
        record_every=config.record_every,
        record_snapshots=True,
    )
    dominance = None
    if cert.passed and cert.applicable:
        dominance = check_dominance(cert, record)
    path = output_path or config.output
    _write_run_csv(path, config, cert, record, dominance)
    exit_code = EXIT_CODES[record.status]
    if not quiet:
        print(
            f"[{spec.label()}] status={record.status} t_final={record.times[-1]:.6g}"
            f" min_rho={record.min_rho[-1]:.4g} -> {path}"
        )
    return RunOutput(config, cert, record, dominance, record.status, exit_code, path)


def _fmt(x):
    return f"{x:.12g}"


def _header(title, config):
    """The title, version, timestamp and config lines of an output file."""
    return [
        f"# epdiff-radial {title}",
        f"# version: {__version__}",
        f"# timestamp: {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
        "# config-begin",
        *["# " + ln for ln in serialize_config(config).strip().splitlines()],
        "# config-end",
    ]


def _write_run_csv(path, config, cert, record, dominance):
    lines = _header("run", config)
    lines.append("# certificate-begin")
    lines += ["# " + ln for ln in cert.report().splitlines()]
    lines.append("# certificate-end")
    lines.append(f"# status = {record.status}")
    lines.append("# columns: t [time], min_rho [-], argmin_rho_r [radius], "
                 "energy [metric], margin [-], status [-]")
    lines.append("t,min_rho,argmin_rho_r,energy,margin,status")
    margins = dominance["margins"] if dominance else None
    last = len(record.times) - 1
    for i, t in enumerate(record.times):
        margin = _fmt(margins[i]) if margins is not None else "nan"
        status = record.status if i == last else "running"
        lines.append(
            f"{_fmt(t)},{_fmt(record.min_rho[i])},{_fmt(record.argmin_rho_r[i])},"
            f"{_fmt(record.energy[i])},{margin},{status}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_exact_hs_table(config, output_path=None, quiet=False):
    """Write the exact Hunter-Saxton solution table for a config.

    Rows sample (t, r) with t at five evenly spaced times up to the horizon
    (capped just below the breakdown time when that is finite).
    """
    config.validate()
    _, grid, data = _build(config)
    exact = HSExactSolution(config.n, grid, data.omega0)
    t_star = exact.breakdown_time()
    t_end = config.horizon
    if np.isfinite(t_star):
        t_end = min(t_end, 0.95 * t_star)
    path = output_path or config.output
    lines = _header("exact Hunter-Saxton table", config)
    lines.append(f"# breakdown_time = {_fmt(t_star)}")
    lines.append("t,r,q,gamma,rho")
    stride = max(1, grid.num // 64)
    for t in np.linspace(0.0, t_end, 5):
        q = exact.q(t)
        gamma, rho = exact.flow(t)
        for i in range(0, grid.num, stride):
            lines.append(
                f"{_fmt(t)},{_fmt(grid.r[i])},{_fmt(q[i])},"
                f"{_fmt(gamma[i])},{_fmt(rho[i])}"
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    if not quiet:
        print(f"[exact-hs n={config.n}] T* = {_fmt(t_star)} -> {path}")
    return path
