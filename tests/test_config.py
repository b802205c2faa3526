"""Config parsing: happy paths, rejection paths, line numbers."""

from fractions import Fraction

import pytest

from ndde import ConfigError, RunConfig, ValidationError, load_config
from ndde.config import loads
from ndde.presets import available, preset_text

_MINIMAL = """\
[problem]
form = "linear-neutral"
t0 = "0"
gamma = "1/3"
r1 = "0.5*t"
r2 = "0.5*t"
a = "0.1/(t + 1)"
b = "0*t"
c = "0*t"
G = "sin(x)"
k4 = "1"

[aux]
p = "1 + 0*t"
g = "0*t"

[history]
psi = "0.01 + 0*t"
"""


def test_minimal_linear_config_loads():
    cfg = loads(_MINIMAL)
    assert isinstance(cfg, RunConfig)
    assert cfg.problem.form == "linear-neutral"
    assert cfg.problem.gamma == Fraction(1, 3)
    assert cfg.problem.t0 == 0.0
    assert cfg.history.psi.evaluate(t=-1.0) == pytest.approx(0.01)
    # run-section defaults
    assert cfg.tmax == 10_000.0
    assert cfg.grid == 4096
    assert cfg.T == 50.0
    assert cfg.step == 1e-3
    assert cfg.tol == 1e-8


def test_run_section_overrides():
    cfg = loads(_MINIMAL + '\n[run]\nT = "12.5"\ngrid = "512"\ntol = "1e-6"\n')
    assert cfg.T == 12.5
    assert cfg.grid == 512
    assert cfg.tol == 1e-6
    assert cfg.tmax == 10_000.0  # untouched keys keep their defaults


def test_every_preset_loads_and_validates():
    for name in available():
        cfg = loads(preset_text(name))
        assert cfg.problem.form == "linear-neutral"
        assert cfg.problem.gamma == Fraction(1, 3)
        assert cfg.aux.p.evaluate(t=0.0) == pytest.approx(5.0)


@pytest.mark.parametrize(
    "r1, r2, shared",
    [
        ("0.5*t", "0.5*t", True),
        ("0*t + 0.5*t", "-0*t + 0.5*t", False),  # equal text, constants apart by the sign bit
        ("0.5*t", "t/2", False),
    ],
)
def test_equal_lags_share_one_delay_spec(r1, r2, shared):
    # one object, so its lag, slope and tau compile once
    text = _MINIMAL.replace('r1 = "0.5*t"', f'r1 = "{r1}"').replace('r2 = "0.5*t"', f'r2 = "{r2}"')
    problem = loads(text).problem
    assert (problem.r1 is problem.r2) is shared


def test_general_form_config_loads():
    text = _MINIMAL.replace('form = "linear-neutral"', 'form = "general"')
    text = text.replace(
        'b = "0*t"',
        'Q = "0*t + 0*x"\nq_bound = "0*t"\nd = "0*t"\nF = "0*x + 0*y"\nk2 = "0"\nk3 = "0"',
    )
    cfg = loads(text)
    assert cfg.problem.form == "general"
    assert cfg.problem.Q is not None


def test_unit_slope_lag_rejected():
    text = _MINIMAL.replace('r1 = "0.5*t"', 'r1 = "t + 1"')
    with pytest.raises(ValidationError, match="stay away from 1"):
        loads(text)


def test_empty_text_reports_missing_section():
    with pytest.raises(ConfigError, match=r"missing \[problem\] section"):
        loads("")


def test_unknown_key_carries_line_number():
    text = _MINIMAL.replace('b = "0*t"', 'bb = "0*t"')
    with pytest.raises(ConfigError, match="line 8: unknown key 'bb'"):
        loads(text)


def test_missing_required_key_names_it():
    text = _MINIMAL.replace('b = "0*t"\n', "")
    with pytest.raises(ConfigError, match="missing required key 'b'"):
        loads(text)


def test_unquoted_value_rejected():
    text = _MINIMAL.replace('t0 = "0"', "t0 = 0")
    with pytest.raises(ConfigError, match="line 3: .*double-quoted"):
        loads(text)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"line 1: unknown section \[problems\]"):
        loads("[problems]\n")


def test_duplicate_key_rejected():
    text = _MINIMAL + 'psi = "0*t"\n'
    with pytest.raises(ConfigError, match="duplicate key 'psi'"):
        loads(text)


def test_duplicate_section_rejected():
    text = _MINIMAL + "[aux]\n"
    with pytest.raises(ConfigError, match=r"duplicate section \[aux\]"):
        loads(text)


def test_key_before_any_section_rejected():
    with pytest.raises(ConfigError, match="line 1: .*before any section"):
        loads('x = "1"\n[problem]\n')


def test_malformed_header_rejected():
    with pytest.raises(ConfigError, match="line 1: malformed section"):
        loads("[problem\n")


def test_expression_error_carries_line_and_key():
    text = _MINIMAL.replace('a = "0.1/(t + 1)"', 'a = "0.1/(t + "')
    with pytest.raises(ConfigError, match="line 7: a:"):
        loads(text)


def test_bad_number_rejected():
    text = _MINIMAL.replace('k4 = "1"', 'k4 = "one"')
    with pytest.raises(ConfigError, match="line 11: k4: 'one' is not a number"):
        loads(text)


def test_even_denominator_gamma_rejected():
    text = _MINIMAL.replace('gamma = "1/3"', 'gamma = "1/2"')
    with pytest.raises(ConfigError, match=r"\[problem\]"):
        loads(text)


def test_unknown_form_rejected():
    text = _MINIMAL.replace('form = "linear-neutral"', 'form = "affine"')
    with pytest.raises(ConfigError, match="neither 'linear-neutral' nor 'general'"):
        loads(text)


def test_nonpositive_run_values_rejected():
    with pytest.raises(ConfigError, match="step: must be positive"):
        loads(_MINIMAL + '\n[run]\nstep = "-0.1"\n')
    for grid in ("1", "10", "63"):
        with pytest.raises(ConfigError, match=f"grid: need at least 64 .* got {grid}$"):
            loads(_MINIMAL + f'\n[run]\ngrid = "{grid}"\n')
    assert loads(_MINIMAL + '\n[run]\ngrid = "64"\n').grid == 64


def test_psi_prime_is_optional_but_accepted():
    cfg = loads(_MINIMAL.replace('psi = "0.01 + 0*t"', 'psi = "abs(t)"\npsi_prime = "0*t - 1"'))
    assert cfg.history.psi_prime is not None


def test_load_config_reads_file_and_prefixes_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(_MINIMAL)
    cfg = load_config(path)
    assert cfg.problem.form == "linear-neutral"

    bad = tmp_path / "bad.cfg"
    bad.write_text(_MINIMAL.replace('t0 = "0"', "t0 = 0"))
    with pytest.raises(ConfigError, match="bad.cfg: line 3"):
        load_config(bad)

    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "absent.cfg")


_GENERAL_RUN = _MINIMAL.replace('form = "linear-neutral"', 'form = "general"').replace(
    'b = "0*t"',
    'Q = "0*t + 0*x"\nq_bound = "0*t"\nd = "0*t"\nF = "0*x + 0*y"\nk2 = "0"\nk3 = "0"',
) + '\n[run]\ntmax = "100"\neps = "0.1"\nT = "5"\nstep = "0.01"\ntol = "1e-8"\n'


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["t0", "k2", "k3", "k4", "tmax", "eps", "T", "step", "tol"])
def test_non_finite_number_names_key_and_line(key, value):
    lines = _GENERAL_RUN.splitlines()
    (lineno,) = [n for n, line in enumerate(lines, 1) if line.startswith(f"{key} = ")]
    lines[lineno - 1] = f'{key} = "{value}"'
    with pytest.raises(ConfigError, match=f"^line {lineno}: {key}: '{value}' is not a finite number$"):
        loads("\n".join(lines))


def test_run_rule_reads_command_line_values():
    from ndde.config import run_value

    assert run_value("T", "-1") == -1.0  # checked against t0 where it is used
    assert run_value("grid", "64") == 64
    for key, raw, message in [
        ("tmax", "0", "tmax: must be positive"),
        ("tol", "nan", "tol: 'nan' is not a finite number"),
        ("step", "1e400", "step: '1e400' is not a finite number"),
        ("grid", "63", "grid: need at least 64"),
    ]:
        with pytest.raises(ConfigError, match=f"^{message}"):
            run_value(key, raw)
