"""Seeded workloads: the generated inputs, the jobs that run them, and checks.

Each workload is a fixed list of jobs.  A job calls the library through its
public API, checks the outcome at the acceptance suite's own tolerances and
returns ``{check: error / tolerance}``; it passes when every ratio is at most
1 and it raised nothing.  The seed only jitters the amplitude and support of
the negative bump each job starts from, inside ranges where every check
passes; the library sees only the generated config files and arrays.
A job made of several library runs is a generator that yields between
them, so the runner can time its reference kernel there (see
``run.py``); it returns its ratios all the same.

Library calls go through module attributes (``solver.run``, not an imported
``run``) so that the tracer's wrappers see them.

Import this module only after ``bootstrap.load_package()``.
"""

import importlib
import math

import numpy as np


def _lib(name):
    # importlib, because the package attribute ``epdiff_radial.certify`` is
    # the certify() function, not the module
    return importlib.import_module("epdiff_radial." + name)


cli = _lib("cli")
certify = _lib("certify")
grid = _lib("grid")
hunter_saxton = _lib("hunter_saxton")
kernels = _lib("kernels")
liouville = _lib("liouville")
scenario = _lib("scenario")
solver = _lib("solver")

R_MAX = 20.0

# Jitter ranges around the acceptance suite's standard bump (A = 1 on [2, 8]).
AMPLITUDE = (0.97, 1.03)
R_LO = (1.95, 2.05)
R_HI = (7.95, 8.05)

# H2dot_n3, H2dot_n4, H1_n1, H1_n2, H1_n3, H2_n3, H2_n4 as (sigma, k, n)
BLOWUP_SPECS = ((0, 2, 3), (0, 2, 4), (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 3), (1, 2, 4))
BLOWUP_GRID_N = 256
BLOWUP_DT = 0.032
# Detection happens before t = 4.2 for every spec and jitter; the horizon
# only bounds a run that fails to blow up.
BLOWUP_HORIZON = 6.0

HS_GRID_N = 2048
HS_DT = 5e-4
SPATIAL_GRID_N = (256, 512, 1024)
TEMPORAL_GRID_N = 512
TEMPORAL_STEPS = (16, 32, 64)
TEMPORAL_REF_STEPS = 2048
ORACLE_GRID_N = 512

CERTIFY_GRID_N = 512
IN_SCOPE = (
    [(0, 1, n) for n in range(1, 6)]
    + [(0, 2, n) for n in range(3, 6)]
    + [(1, 1, n) for n in range(1, 6)]
    + [(1, 2, n) for n in range(3, 6)]
)
ROUNDTRIP_GRID_N = 4096
ROUNDTRIP_SPECS = ((0, 1, 3), (0, 2, 3), (1, 1, 3), (1, 2, 3), (0, 1, 1), (1, 1, 1))
# The roundtrip input is not jittered: its error is rounding-limited, so a
# 3% change of amplitude or a 0.02 shift of support moves the k = 2 error
# erratically between 0.58 and 0.83 of the 1e-6 tolerance.
ROUNDTRIP_BUMP = (0.5, 2.0)

class CheckFailed(Exception):
    """A job's output missed a pass/fail condition."""


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _label(sigma, k, n):
    return kernels.KernelSpec(sigma, k, n).label()


def draw_bump(rng):
    return {
        "amplitude": float(rng.uniform(*AMPLITUDE)),
        "r_lo": float(rng.uniform(*R_LO)),
        "r_hi": float(rng.uniform(*R_HI)),
    }


def neg_bump(r, amplitude, r_lo, r_hi):
    """-A exp(1 - 1/(1 - x^2)) on (r_lo, r_hi), zero outside."""
    x = 2.0 * (r - r_lo) / (r_hi - r_lo) - 1.0
    out = np.zeros_like(r)
    inside = np.abs(x) < 1.0
    out[inside] = -amplitude * np.exp(1.0 - 1.0 / (1.0 - x[inside] ** 2))
    return out


def neg_cos_bump(r, r_lo, r_hi, power=8):
    x = 2.0 * (r - r_lo) / (r_hi - r_lo) - 1.0
    out = np.zeros_like(r)
    inside = np.abs(x) < 1.0
    out[inside] = -np.cos(0.5 * np.pi * x[inside]) ** power
    return out


def _orders(errs):
    """Observed convergence order of each halving in a refinement study."""
    return [math.log2(c / f) if c > 0 and f > 0 else 0.0
            for c, f in zip(errs, errs[1:])]


def _need(required, order):
    return required / order if order > 0 else math.inf


# ------------------------------------------------------------ blowup_suite


def blowup_config(sigma, k, n, bump, seed):
    """Scenario file text in the CLI's flat key = value format."""
    values = {
        "sigma": sigma,
        "k": k,
        "n": n,
        "grid_n": BLOWUP_GRID_N,
        "r_max": R_MAX,
        "spacing": "uniform",
        "grade": 1.0,
        "family": "neg_bump",
        "amplitude": repr(bump["amplitude"]),
        "r_lo": repr(bump["r_lo"]),
        "r_hi": repr(bump["r_hi"]),
        "bias": 0.0,
        "dt": BLOWUP_DT,
        "horizon": BLOWUP_HORIZON,
        "epsilon": 0.05,
        "record_every": 10,
        "output": _label(sigma, k, n) + ".csv",
        "seed": seed,
    }
    return "".join(f"{key} = {val}\n" for key, val in values.items())


def read_run_csv(path):
    """(metadata dict, data rows) of a CSV written by ``epdiff-radial run``."""
    meta, rows = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, sep, val = line[1:].partition(" = ")
                if sep:
                    meta[key.strip()] = val.strip()
            elif line and not line.startswith("t,"):
                rows.append(line.split(","))
    return meta, rows


def _blowup_job(cfg_path, csv_path):
    def job():
        code = cli.main(["run", str(cfg_path), "--output", str(csv_path), "--quiet"])
        _require(code == 0, f"exit code {code}")
        meta, rows = read_run_csv(csv_path)
        _require(meta.get("status") == "blowup_detected",
                 f"status {meta.get('status')}")
        _require(meta.get("passed") == "yes" and meta.get("applicable") == "yes",
                 "certificate not passed or not applicable")
        t = np.array([float(row[0]) for row in rows])
        e = np.array([float(row[3]) for row in rows])
        margin = np.array([float(row[4]) for row in rows])
        _require(np.all(np.isfinite(margin)), "no dominance margins")
        half = t <= 0.5 * t[-1]
        drift = float(np.max(np.abs(e[half] - e[0])) / abs(e[0]))
        return {
            "t_detect/1.05T_bound": t[-1] / (1.05 * float(meta["T_bound"])),
            "-min_margin/1e-4": max(0.0, -float(np.min(margin))) / 1e-4,
            "|margin_0|/1e-12": abs(margin[0]) / 1e-12,
            "energy_drift/1e-5": drift / 1e-5,
        }

    return job


def _blowup_jobs(seed, workdir):
    rng = np.random.default_rng(seed)
    jobs = []
    for sigma, k, n in BLOWUP_SPECS:
        label = _label(sigma, k, n)
        bump = draw_bump(rng)
        cfg_path = workdir / f"{label}.cfg"
        cfg_path.write_text(blowup_config(sigma, k, n, bump, seed))
        jobs.append((label, bump, _blowup_job(cfg_path, workdir / f"{label}.csv")))
    return jobs


# ---------------------------------------------------------------- hs_exact


def _hs_setup(num, n, bump):
    g = grid.RadialGrid.uniform(num, R_MAX)
    omega0 = neg_bump(g.r, **bump)
    init = grid.InitialData.from_omega0(omega0, g, n)
    exact = hunter_saxton.HSExactSolution(n, g, omega0)
    return g, init, exact, 0.5 * exact.breakdown_time()


def _hs_rho_job(n, bump):
    def job():
        g, init, exact, t_half = _hs_setup(HS_GRID_N, n, bump)
        spec = kernels.KernelSpec(0, 1, n)
        _, state = solver.run(spec, g, init, dt=HS_DT, horizon=t_half)
        err = float(np.max(np.abs(state.rho - exact.flow(t_half)[1])))
        return {"rho_err/1e-4": err / 1e-4}

    return job


def _hs_spatial_job(bump):
    def job():
        errs = []
        for num in SPATIAL_GRID_N:
            g, init, exact, t_half = _hs_setup(num, 3, bump)
            _, state = solver.run(
                kernels.KernelSpec(0, 1, 3), g, init, dt=HS_DT, horizon=t_half
            )
            errs.append(float(np.max(np.abs(state.rho - exact.flow(t_half)[1]))))
            yield
        return {"2/spatial_order": max(_need(2.0, o) for o in _orders(errs))}

    return job


def _hs_temporal_job(bump):
    def job():
        g, init, _, t_half = _hs_setup(TEMPORAL_GRID_N, 3, bump)
        spec = kernels.KernelSpec(0, 1, 3)
        _, ref = solver.run(
            spec, g, init, dt=t_half / TEMPORAL_REF_STEPS, horizon=t_half
        )
        yield
        errs = []
        for m in TEMPORAL_STEPS:
            _, state = solver.run(spec, g, init, dt=t_half / m, horizon=t_half)
            errs.append(float(np.max(np.abs(state.gamma - ref.gamma))))
            yield
        first, second = _orders(errs)
        return {"3.8/temporal_order_1": _need(3.8, first),
                "3.9/temporal_order_2": _need(3.9, second)}

    return job


def _oracle_job(bump):
    def job():
        g = grid.RadialGrid.uniform(ORACLE_GRID_N, R_MAX)
        z0 = neg_bump(g.r, **bump)
        theta = liouville.theta_tail(z0, g.r)
        t_half = 0.5 * liouville.liouville_blowup_time(theta)
        _, q_hist = liouville.liouville_picard_oracle(z0, t_half, g)
        exact = liouville.liouville_exact(theta, t_half)
        return {"q_err/1e-6": float(np.max(np.abs(q_hist[-1] - exact))) / 1e-6}

    return job


def _hs_jobs(seed, workdir):
    rng = np.random.default_rng(seed)
    jobs = []
    for n in (1, 3):
        bump = draw_bump(rng)
        jobs.append((f"hs_rho_n{n}", bump, _hs_rho_job(n, bump)))
    for name, make in (
        ("hs_spatial_order", _hs_spatial_job),
        ("hs_temporal_order", _hs_temporal_job),
        ("liouville_oracle", _oracle_job),
    ):
        bump = draw_bump(rng)
        jobs.append((name, bump, make(bump)))
    return jobs


# ---------------------------------------------------------- certify_invert


def _closed_form_c(sigma, k, n):
    if sigma == 0:
        return float(n) if k == 1 else 2.0 * (n - 2.0) / (n + 2.0)
    return 1.0 if (k, n) == (1, 1) else None


def _certify_job(sigma, k, n, bump):
    def job():
        g = grid.RadialGrid.uniform(CERTIFY_GRID_N, R_MAX)
        cert = certify.certify(kernels.KernelSpec(sigma, k, n), g,
                               neg_bump(g.r, **bump))
        _require(cert.passed, "certificate failed")
        closed = _closed_form_c(sigma, k, n)
        if closed is None:
            return {}
        if sigma == 1:
            _require(cert.c_bound >= 1.0 - 1e-6, "C below 1 for H1_n1")
        return {"C_err/1e-6": abs(cert.c_bound - closed) / 1e-6}

    return job


def _ratio_job(n):
    def job():
        out = certify.h2_ratio_bounds(n, np.geomspace(1e-4, 30.0, 500))
        _require(out["passed"], "ratio bounds failed")
        return {"-min_slack/1e-12": max(0.0, -min(out["slacks"].values())) / 1e-12}

    return job


def _roundtrip_job(sigma, k, n):
    def job():
        g = grid.RadialGrid.uniform(ROUNDTRIP_GRID_N, R_MAX)
        omega = neg_cos_bump(g.r, *ROUNDTRIP_BUMP)
        spec = kernels.KernelSpec(sigma, k, n)
        back = kernels.apply_operator(spec, g, kernels.invert_operator(spec, g, omega))
        err = float(np.max(np.abs(back - omega)) / np.max(np.abs(omega)))
        return {"roundtrip_err/1e-6": err / 1e-6}

    return job


def _certify_invert_jobs(seed, workdir):
    rng = np.random.default_rng(seed)
    jobs = []
    for sigma, k, n in IN_SCOPE:
        bump = draw_bump(rng)
        jobs.append((f"certify_{_label(sigma, k, n)}", bump,
                     _certify_job(sigma, k, n, bump)))
    for n in (3, 4, 5):
        jobs.append((f"h2_ratio_n{n}", None, _ratio_job(n)))
    for sigma, k, n in ROUNDTRIP_SPECS:
        jobs.append((f"roundtrip_{_label(sigma, k, n)}", None,
                     _roundtrip_job(sigma, k, n)))
    return jobs


WORKLOADS = {
    "blowup_suite": _blowup_jobs,
    "hs_exact": _hs_jobs,
    "certify_invert": _certify_invert_jobs,
}


def make_jobs(workload, seed, workdir):
    """[(job id, generated bump or None, job callable)] for one workload."""
    workdir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](seed, workdir)


def build_first(workload, seed):
    """Build spec, grid and data of the workload's first job (setup_s)."""
    rng = np.random.default_rng(seed)
    bump = draw_bump(rng)
    if workload == "blowup_suite":
        sigma, k, n = BLOWUP_SPECS[0]
        config = scenario.parse_config(blowup_config(sigma, k, n, bump, seed))
        spec = kernels.KernelSpec(config.sigma, config.k, config.n)
        g = grid.RadialGrid.uniform(config.grid_n, config.r_max)
        data = scenario.builtin_initial_data(config.family, bump, g, config.n)
    else:
        num = HS_GRID_N if workload == "hs_exact" else CERTIFY_GRID_N
        n = 1
        spec = kernels.KernelSpec(0, 1, n)
        g = grid.RadialGrid.uniform(num, R_MAX)
        data = grid.InitialData.from_omega0(neg_bump(g.r, **bump), g, n)
    return spec, g, data
