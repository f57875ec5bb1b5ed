"""Config round-trip, initial-data families, CSV output, and the CLI."""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epdiff_radial import cli, solver
from epdiff_radial.cli import main
from epdiff_radial.grid import InitialData, RadialGrid
from epdiff_radial.scenario import (
    EXIT_CODES,
    FAMILIES,
    ScenarioConfig,
    builtin_initial_data,
    parse_config,
    run_scenario,
    serialize_config,
)

FAST = dict(
    sigma=0, k=1, n=3, grid_n=256, dt=5e-3, horizon=0.05, record_every=5
)


def write_config(tmp_path, **overrides):
    config = ScenarioConfig(**{**FAST, **overrides})
    path = tmp_path / "scenario.cfg"
    path.write_text(serialize_config(config))
    return config, path


def fast_config_with(text):
    """The FAST config with the key = value lines of text in place of its own
    lines for those keys (a key may be given only once)."""
    keys = {line.partition("=")[0].strip() for line in text.splitlines()}
    kept = [line for line in serialize_config(ScenarioConfig(**FAST)).splitlines()
            if line.partition("=")[0].strip() not in keys]
    return "\n".join(kept) + "\n" + text


# ---------------------------------------------------------------- config


@given(
    sigma=st.sampled_from([0, 1]),
    k=st.sampled_from([1, 2]),
    n=st.integers(min_value=3, max_value=6),
    grid_n=st.integers(min_value=128, max_value=4096),
    dt=st.floats(min_value=1e-5, max_value=1e-1),
    amplitude=st.floats(min_value=0.0, max_value=10.0),
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_config_roundtrip(sigma, k, n, grid_n, dt, amplitude, family, seed):
    config = ScenarioConfig(
        sigma=sigma, k=k, n=n, grid_n=grid_n, dt=dt,
        amplitude=amplitude, family=family, seed=seed,
    )
    assert parse_config(serialize_config(config)) == config


def test_parse_comments_and_errors():
    base = serialize_config(ScenarioConfig())
    assert parse_config("# a comment\n" + base) == ScenarioConfig()
    with pytest.raises(ValueError, match="unknown key"):
        parse_config(base + "bogus = 1\n")
    with pytest.raises(ValueError, match="key = value"):
        parse_config("not a config line\n")
    lines = len(base.splitlines())
    with pytest.raises(ValueError, match=f"line {lines + 1}: key 'grid_n' given twice"):
        parse_config(base + "grid_n = 256\n")


def test_cli_run_rejects_a_key_given_twice(tmp_path, capsys):
    # the last value used to win silently: the run went on at grid_n = 256
    twice = tmp_path / "twice.cfg"
    twice.write_text("grid_n = 128\ngrid_n = 256\n")
    assert main(["run", str(twice), "--quiet"]) == 1
    assert capsys.readouterr().err == "error: line 2: key 'grid_n' given twice\n"


def test_validation_errors():
    with pytest.raises(ValueError):
        ScenarioConfig(sigma=2).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(grid_n=64).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(r_lo=5.0, r_hi=3.0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(r_hi=15.0, r_max=20.0).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(family="nope").validate()
    with pytest.raises(ValueError):
        ScenarioConfig(dt=-1.0).validate()
    for bad in ({"horizon": float("inf")}, {"horizon": float("nan")},
                {"dt": float("nan")}):
        with pytest.raises(ValueError):
            ScenarioConfig(**bad).validate()
    with pytest.raises(ValueError):
        ScenarioConfig(record_every=0).validate()
    for epsilon in (0.0, 1.0, float("nan")):
        with pytest.raises(ValueError):
            ScenarioConfig(epsilon=epsilon).validate()
    for r_max in (600.5, 2000.0):
        with pytest.raises(ValueError, match="r_max must be <= 600 for sigma = 1"):
            ScenarioConfig(sigma=1, n=3, r_max=r_max, r_hi=8.0).validate()
    ScenarioConfig(sigma=1, n=3, r_max=600.0).validate()
    ScenarioConfig(sigma=0, n=3, r_max=2000.0).validate()


# ---------------------------------------------------------------- families


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_families_supported_and_smooth(family):
    grid = RadialGrid.uniform(1024, 20.0)
    params = {"amplitude": 1.0, "r_lo": 2.0, "r_hi": 8.0, "bias": 0.5}
    data = builtin_initial_data(family, params, grid, 3)
    om = data.omega0
    assert np.all(om[grid.r < 2.0] == 0.0)
    assert np.all(om[grid.r > 8.0] == 0.0)
    assert np.any(om != 0.0)
    # no jumps: discrete derivative stays bounded on this resolution
    assert np.max(np.abs(np.diff(om))) < 0.1


def test_neg_families_are_nonpositive():
    grid = RadialGrid.uniform(512, 20.0)
    params = {"amplitude": 2.0, "r_lo": 1.0, "r_hi": 6.0}
    for family in ("neg_bump", "neg_poly_bump"):
        data = builtin_initial_data(family, params, grid, 3)
        assert np.all(data.omega0 <= 0.0)
        assert np.min(data.omega0) == pytest.approx(-2.0, rel=1e-2)


def test_mixed_sign_family_bias():
    grid = RadialGrid.uniform(512, 20.0)
    params = {"amplitude": 1.0, "r_lo": 2.0, "r_hi": 8.0, "bias": 0.0}
    data = builtin_initial_data("hs_mixed_sign", params, grid, 1)
    assert np.any(data.omega0 > 0) and np.any(data.omega0 < 0)
    # bias >= 1 pushes the whole profile nonnegative
    data2 = builtin_initial_data(
        "hs_mixed_sign", {**params, "bias": 1.0}, grid, 1
    )
    assert np.all(data2.omega0 >= 0.0)


def test_amplitude_must_be_nonnegative():
    grid = RadialGrid.uniform(256, 20.0)
    with pytest.raises(ValueError):
        builtin_initial_data(
            "neg_bump", {"amplitude": -1.0, "r_lo": 2.0, "r_hi": 8.0}, grid, 3
        )


# ---------------------------------------------------------------- runs + CSV


def test_run_scenario_writes_csv(tmp_path):
    config, _ = write_config(tmp_path)
    out_path = tmp_path / "out.csv"
    out = run_scenario(config, output_path=str(out_path), quiet=True)
    assert out.exit_code == 0
    assert out.status == "completed"
    text = out_path.read_text()
    assert "# config-begin" in text and "# certificate-begin" in text
    header = [l for l in text.splitlines() if not l.startswith("#")][0]
    assert header == "t,min_rho,argmin_rho_r,energy,margin,status"
    rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert rows[0].startswith("0,1,")
    assert rows[-1].endswith(",completed")


def test_determinism_identical_outputs(tmp_path):
    config, _ = write_config(tmp_path)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run_scenario(config, output_path=str(p1), quiet=True)
    run_scenario(config, output_path=str(p2), quiet=True)

    def strip_ts(path):
        return [l for l in path.read_text().splitlines()
                if not l.startswith("# timestamp:")]

    assert strip_ts(p1) == strip_ts(p2)


# ---------------------------------------------------------------- CLI


def test_cli_run_and_exit_code(tmp_path, capsys):
    _, cfg = write_config(tmp_path, output=str(tmp_path / "run.csv"))
    assert main(["run", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "run.csv").exists()


def test_cli_certify_prints_report(tmp_path, capsys):
    _, cfg = write_config(tmp_path)
    assert main(["certify", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "passed = yes" in out and "T_bound" in out


@pytest.mark.parametrize("n, worst", [(3, "1.114815e-09"), (4, "9.305584e-10")])
def test_cli_certify_at_the_largest_sigma1_r_max(tmp_path, capsys, n, worst):
    # condition (b) is exact at r_max = 600, where its smallest value,
    # at (0.001, 600), is about 1e-9; odd and even n
    _, cfg = write_config(tmp_path, sigma=1, k=2, n=n, r_max=600.0)
    assert main(["certify", str(cfg)]) == 0
    assert (f"condition_log_supermodularity = pass (worst {worst} at "
            "(0.001, 600.0))") in capsys.readouterr().out.splitlines()


def test_cli_exact_hs(tmp_path):
    _, cfg = write_config(tmp_path, output=str(tmp_path / "hs.csv"))
    assert main(["exact-hs", str(cfg), "--quiet"]) == 0
    text = (tmp_path / "hs.csv").read_text()
    assert "t,r,q,gamma,rho" in text
    assert "# breakdown_time" in text


def test_cli_sweep(tmp_path):
    _, cfg = write_config(tmp_path, output=str(tmp_path / "sweep.csv"))
    code = main(["sweep", str(cfg), "--param", "amplitude",
                 "--values", "0.5,1.0", "--quiet"])
    assert code == 0
    assert (tmp_path / "sweep__amplitude_0.5.csv").exists()
    assert (tmp_path / "sweep__amplitude_1.0.csv").exists()


def test_cli_sweep_strips_quotes_as_a_config_file_does(tmp_path):
    # the value is parsed as the same key = value line in the file would be
    _, cfg = write_config(tmp_path, output=str(tmp_path / "sweep.csv"))
    code = main(["sweep", str(cfg), "--param", "family",
                 "--values", "'neg_poly_bump',\"neg_bump\"", "--quiet"])
    assert code == 0
    assert (tmp_path / "sweep__family_neg_poly_bump.csv").exists()
    assert (tmp_path / "sweep__family_neg_bump.csv").exists()


def test_cli_sweep_unknown_parameter_exits_1(tmp_path, capsys):
    _, cfg = write_config(tmp_path, output=str(tmp_path / "sweep.csv"))
    assert main(["sweep", str(cfg), "--param", "width", "--values", "1",
                 "--quiet"]) == 1
    assert "unknown key 'width'" in capsys.readouterr().err
    assert not list(tmp_path.glob("sweep*"))


def test_cli_sweep_output_in_a_dotted_directory(tmp_path):
    # the variant suffix goes on the file name, never at a dot of a directory
    (tmp_path / "runs.d").mkdir()
    _, cfg = write_config(tmp_path, output=str(tmp_path / "runs.d" / "sweep"))
    code = main(["sweep", str(cfg), "--param", "amplitude",
                 "--values", "0.5", "--quiet"])
    assert code == 0
    assert (tmp_path / "runs.d" / "sweep__amplitude_0.5").exists()


@pytest.mark.parametrize(
    "argv",
    [["sweep", "x.cfg"], ["integrate", "x.cfg"], ["run"]],
    ids=["sweep_without_param", "unknown_verb", "no_config"],
)
def test_cli_usage_error_exits_1(argv, capsys):
    # argparse's own exit code 2 would read as guard_tripped
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["-h"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_cli_main_called_again_in_one_process(tmp_path, capsys):
    # main keeps one parser per process; each call still parses its own argv
    _, cfg = write_config(tmp_path, output=str(tmp_path / "run.csv"))
    calls = [(["run", str(cfg), "--quiet"], 0), (["certify", str(cfg), "--quiet"], 0),
             (["run"], 1), (["--help"], 0), (["sweep", str(cfg)], 1)]
    for _ in range(2):
        for argv, code in calls:
            assert main(argv) == code, argv
    out, err = capsys.readouterr()
    assert out.count("usage:") == 2 and err.count("error:") == 4
    assert cli._parser.cache_info().currsize == 1


def test_cli_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("sigma = 7\n")
    assert main(["run", str(bad), "--quiet"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file_exits_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.cfg"), "--quiet"]) == 1


@pytest.mark.parametrize("text", ["record_every = 0\n", "epsilon = 1.5\n",
                                  "sigma = 1\nr_max = 2000\n"])
def test_cli_rejects_bad_run_settings_without_traceback(tmp_path, capsys, text):
    bad = tmp_path / "bad.cfg"
    bad.write_text(fast_config_with(text))
    assert main(["run", str(bad), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_run_on_a_grid_too_fine_for_its_weights_exits_1(tmp_path, capsys):
    # the products of spacings near 4e-303 underflow to 0: the quadrature
    # weights are not finite, and the run stops with an error line
    bad = tmp_path / "tiny.cfg"
    bad.write_text(fast_config_with("r_max = 1e-300\nr_lo = 0.0\nr_hi = 1e-301\n"))
    assert main(["run", str(bad), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == ("error: the node spacing is too small or too large for "
                   "finite quadrature weights\n")


@pytest.mark.parametrize("r_max", [5e-4, 1e-3])
def test_cli_certify_below_the_condition_mesh_exits_1(tmp_path, capsys, r_max):
    # the conditions are sampled from r = 1e-3 on, outside such a grid
    bad = tmp_path / "small.cfg"
    bad.write_text(fast_config_with(
        f"sigma = 1\nk = 2\nr_max = {r_max}\nr_lo = 0.0\nr_hi = {r_max / 4}\n"))
    assert main(["certify", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert not out and err == ("error: certify samples from r = 1e-3 on, so it "
                               "requires r_max > 1e-3\n")


@pytest.mark.parametrize("key,text", [
    ("amplitude", "amplitude = nan\n"),
    ("amplitude", "amplitude = inf\n"),
    ("bias", "family = hs_mixed_sign\nbias = nan\n"),
    ("r_max", "r_max = nan\n"),
])
def test_cli_rejects_a_nonfinite_value_by_its_key(tmp_path, capsys, key, text):
    # NaN * 0 is NaN, so a NaN amplitude used to fail as unsupported data
    bad = tmp_path / "bad.cfg"
    bad.write_text(fast_config_with(text))
    assert main(["run", str(bad), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {key} must be finite\n"


def test_cli_rejects_an_overflowing_weighted_momentum(tmp_path, capsys):
    # 20^239 overflows, and inf * 0 is NaN past the support: z_0 is not
    # finite, which used to be reported as momentum outside r_support
    bad = tmp_path / "bad.cfg"
    bad.write_text(fast_config_with("n = 240\nr_max = 20\n"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(bad), "--quiet"]) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.count("error:") == 1
    assert err == "error: r^(n-1) omega_0 overflows for n = 240 on r_max = 20\n"


def test_initial_data_rejects_a_nonfinite_momentum():
    # named as such, not as the overflow of r^(n-1) omega_0
    grid = RadialGrid.uniform(128, 20.0)
    for value in (math.nan, math.inf):
        omega0 = np.zeros(grid.num)
        omega0[40] = value
        with pytest.raises(ValueError, match="^omega0 must be finite$"):
            InitialData.from_omega0(omega0, grid, 3)


def test_initial_data_rejects_momentum_past_the_grids_r_support():
    # r_support is 0.6 r_max, worked out from the nodes, not set
    grid = RadialGrid.graded(128, 20.0, 1.5)
    assert grid.r_support == 0.6 * grid.r_max
    with pytest.raises(AttributeError):
        grid.r_support = 5.0
    omega0 = np.where(grid.r < 13.0, -1.0, 0.0)
    with pytest.raises(ValueError, match=r"^initial momentum must be supported "
                       r"inside r_support \(= 12\)$"):
        InitialData.from_omega0(omega0, grid, 3)


def test_builtin_data_rejects_a_nonfinite_amplitude():
    grid = RadialGrid.uniform(128, 20.0)
    for amplitude in (math.nan, math.inf):
        with pytest.raises(ValueError, match="amplitude"):
            builtin_initial_data("neg_bump", {"amplitude": amplitude, "r_lo": 2.0,
                                              "r_hi": 8.0}, grid, 3)


def test_cli_out_of_memory_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    # the stand-in raises what numpy raises for an array too large to
    # allocate, without allocating anything
    def out_of_memory(config, output_path=None, quiet=False):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli, "run_scenario", out_of_memory)
    _, cfg = write_config(tmp_path)
    assert main(["run", str(cfg), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 745. GiB for an array\n"


@pytest.mark.parametrize("error,status,code", [
    (solver.StepRejected, "step_rejected", 3),
    (solver.NonFiniteState, "nonfinite_state", 4),
])
def test_cli_exit_code_per_failure_status(tmp_path, monkeypatch, error, status,
                                          code):
    def failing_step(spec, grid, init, state, dt):
        raise error("injected")

    monkeypatch.setattr(solver, "step", failing_step)
    _, cfg = write_config(tmp_path, output=str(tmp_path / "run.csv"))
    assert main(["run", str(cfg), "--quiet"]) == code
    assert f"# status = {status}" in (tmp_path / "run.csv").read_text()


# ---------------------------------------------------------------- fuzz


@given(
    sigma=st.sampled_from([0, 1]),
    k=st.sampled_from([1, 2]),
    n=st.integers(min_value=1, max_value=5),
    grid_n=st.integers(min_value=128, max_value=160),
    r_max=st.floats(min_value=4.0, max_value=640.0),
    spacing=st.sampled_from(["uniform", "graded"]),
    grade=st.floats(min_value=1.0, max_value=2.0),
    family=st.sampled_from(sorted(FAMILIES)),
    amplitude=st.floats(min_value=0.0, max_value=4.0),
    lo_frac=st.floats(min_value=0.0, max_value=0.4),
    width_frac=st.floats(min_value=0.02, max_value=0.25),
    bias=st.floats(min_value=-1.0, max_value=2.0),
    dt=st.floats(min_value=1e-3, max_value=0.2),
    steps=st.integers(min_value=1, max_value=4),
    epsilon=st.floats(min_value=0.01, max_value=0.9),
    record_every=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_fuzz_config_through_the_cli(tmp_path_factory, sigma, k, n, grid_n,
                                     r_max, spacing, grade, family, amplitude,
                                     lo_frac, width_frac, bias, dt, steps,
                                     epsilon, record_every):
    # parse_config -> run_scenario on tiny grids for a few steps: a run ends
    # in a documented status with finite rows, or the CLI exits 1 with a
    # one-line error and no traceback
    config = ScenarioConfig(
        sigma=sigma, k=k, n=n, grid_n=grid_n, r_max=r_max, spacing=spacing,
        grade=grade, family=family, amplitude=amplitude,
        r_lo=lo_frac * r_max, r_hi=(lo_frac + width_frac) * r_max, bias=bias,
        dt=dt, horizon=steps * dt, epsilon=epsilon, record_every=record_every,
    )
    workdir = tmp_path_factory.mktemp("fuzz")
    cfg = workdir / "fuzz.cfg"
    out = workdir / "fuzz.csv"
    cfg.write_text(serialize_config(config))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with np.errstate(all="ignore"):
            code = main(["run", str(cfg), "--output", str(out), "--quiet"])
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert "Traceback" not in err.getvalue()
        return
    text = out.read_text()
    status = text.split("# status = ", 1)[1].split("\n", 1)[0]
    assert EXIT_CODES[status] == code
    rows = [l.split(",") for l in text.splitlines() if not l.startswith("#")][1:]
    assert rows and rows[-1][-1] == status
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row[:4])
