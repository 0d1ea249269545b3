"""CLI surface: subcommands, flags, exit codes, output wiring."""
import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zsig
import zsig.cli as cli
from zsig.cli import main
from zsig.harness import ScanConfig, csv_text, run_scan
from zsig.poly import X2DivisiblePoly
from zsig.verification import CheckResult


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_orbit_command(capsys):
    rc, out, _ = run(capsys, "orbit", "--poly", "x^3+x^2", "--c", "1", "--horizon", "4")
    assert rc == 0
    assert "verdict:    escape (n=2)" in out
    assert "52023" in out
    # entry 5 (48 bits) is the first past a 20-bit cap: it is printed, then the walk stops
    rc, out, _ = run(capsys, "orbit", "--poly", "x^3+x^2", "--c", "1", "--bit-cap", "20")
    assert rc == 0
    assert out.splitlines()[-2].split()[-1] == "140797364928697"
    assert out.splitlines()[-1] == "stopped at n=5: entry exceeds 20 bits"


def test_orbit_rational_parameter_shows_deep_primes(capsys):
    rc, out, _ = run(capsys, "orbit", "--poly", "x^3+x^2", "--c", "1/2", "--horizon", "2")
    assert rc == 0
    assert "2^1" in out and "2^3" in out
    assert "7/8" in out


def test_decimal_digits_match_str():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        values = [0, 1, 9, 10, 11, 2**64, 3**5000]
        for k in (1, 2, 17, 59, 60, 61, 4299, 4300, 4301, 20000):
            values += [10**k - 1, 10**k, 10**k + 1, 2**k - 1, 2**k]
        for n in values:
            for signed in (n, -n):
                assert cli._decimal_digits(signed) == len(str(n)), n
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1234, 40000), offset=st.sampled_from((-1, 0, 1)),
       seed=st.integers(0, 2**32 - 1))
def test_decimal_digits_around_powers_of_ten(k, offset, seed):
    """Past 4096 bits the count is read off ln-enclosures, and off 10^k only where
    they overlap, as next to 10^k; it is len(str(n)) either way.  10^k + offset
    takes the fallback; 10^k plus or minus 10^(k - 12) and a random int of the
    same length are decided by the enclosures."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        power = 10**k
        near = power + offset * 10 ** (k - 12)
        spread = random.Random(seed).getrandbits(power.bit_length())
        for n in (power + offset, near, spread):
            assert cli._decimal_digits(n) == cli._decimal_digits(-n) == len(str(n)), (k, n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_orbit_default_horizon_prints_past_the_str_digit_limit(capsys):
    rc, out, err = run(capsys, "orbit", "--poly", "x^3+x^2", "--c=1/2")
    assert rc == 0 and err == ""
    rows = out.splitlines()[-10:]
    assert rows[0].split() == ["1", "-0.6931", "2^1", "1/2"]
    assert rows[8].split() == ["9", "600.2349", "2^6561", "<2236-digit>/<1976-digit>"]
    # entry 10 has more digits than CPython converts to str by default
    assert rows[9].split() == ["10", "1800.7048", "2^19683", "<6708-digit>/<5926-digit>"]


def test_orbit_abbreviated_negative_values_keep_their_sign(capsys):
    rc, out, _ = run(capsys, "orbit", "--poly", "x^3+x^2", "--c=-3", "--horizon", "7")
    assert rc == 0
    rows = [line.split() for line in out.splitlines()[-3:]]
    assert rows[0] == ["5", "81.7657", "-", "-323890966670970704829668980624583643"]
    assert rows[1] == ["6", "245.2971", "-", "-<107-digit>"]
    assert rows[2] == ["7", "735.8914", "-", "-<320-digit>"]
    rc, out, _ = run(capsys, "orbit", "--poly", "x^3+x^2", "--c=-5/3", "--horizon", "5")
    assert rc == 0
    assert out.splitlines()[-1].split() == ["5", "31.3338", "3^81", "-<53-digit>/<39-digit>"]


def test_orbit_coeffs_form(capsys):
    rc, out, _ = run(capsys, "orbit", "--coeffs", "0,0,1,1", "--c", "1", "--horizon", "2")
    assert rc == 0 and "x^3 + x^2" in out


def test_orbit_leading_dash_poly_needs_equals_form(capsys):
    rc, out, _ = run(capsys, "orbit", "--poly=-x^3+x^2", "--c", "-1", "--horizon", "3")
    assert rc == 0
    assert "finite" in out


def test_zsigmondy_command(capsys):
    rc, out, _ = run(capsys, "zsigmondy", "--poly", "x^3+x^2", "--c", "1",
                     "--horizon", "4")
    assert rc == 0
    assert "zsigmondy set in window: 1" in out
    assert "17341" in out
    rc, out, _ = run(capsys, "zsigmondy", "--poly", "x^3+x^2", "--c", "1", "--bit-cap", "20")
    assert rc == 0
    assert "window:     1..5" in out.splitlines()
    assert out.splitlines()[-1] == "window truncated at n=5 by the 20-bit cap"


def test_zsigmondy_zero_orbit_notes_and_exits_clean(capsys):
    rc, out, _ = run(capsys, "zsigmondy", "--poly", "x^2", "--c", "0")
    assert rc == 0
    assert "Zsigmondy set not defined" in out


def test_scan_inline_flags(capsys):
    rc, out, err = run(capsys, "scan", "--poly", "x^3+x^2", "--num-bound", "3",
                       "--den-bound", "2", "--horizon", "6")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("c_num,c_den,verdict")
    assert len(lines) == 12
    assert "scanned 11 parameters" in err
    assert "max zsigmondy window size 1" in err


def test_scan_json_to_file(capsys, tmp_path):
    dest = tmp_path / "out.json"
    rc, out, err = run(capsys, "scan", "--poly", "x^3+x^2", "--num-bound", "2",
                       "--den-bound", "1", "--horizon", "5", "--format", "json",
                       "-o", str(dest))
    assert rc == 0
    assert out == ""  # file output suppresses stdout copy
    obj = json.loads(dest.read_text())
    assert len(obj["rows"]) == 5


def test_scan_config_file_with_override(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("poly = x^3+x^2\nnum_bound = 3\nden_bound = 2\nhorizon = 4\n")
    rc1, out1, _ = run(capsys, "scan", "--config", str(cfg))
    rc2, out2, _ = run(capsys, "scan", "--config", str(cfg), "--horizon", "6")
    rc3, out3, _ = run(capsys, "scan", "--poly", "x^3+x^2", "--num-bound", "3",
                       "--den-bound", "2", "--horizon", "6")
    assert rc1 == rc2 == rc3 == 0
    assert out1 != out2
    assert out2 == out3


def test_scan_config_file_and_flags_give_one_config(capsys, monkeypatch, tmp_path):
    """A config file that sets every ScanConfig field equals the matching flags."""
    dest = tmp_path / "rows.json"
    settings = {"poly": "x^3+x^2", "num_bound": "2", "den_bound": "1", "horizon": "5",
                "bit_cap": "300", "parallelism": "2", "output": str(dest), "format": "json"}
    assert set(settings) == {f.name for f in dataclasses.fields(ScanConfig)}
    path = tmp_path / "scan.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    flags = [arg for key, value in settings.items()
             for arg in (f"--{key.replace('_', '-')}", value)]
    seen = []
    monkeypatch.setattr(zsig.harness, "run_scan", lambda cfg: seen.append(cfg) or run_scan(cfg))
    outputs = []
    for argv in (["--config", str(path)], flags):
        rc, out, _ = run(capsys, "scan", *argv)
        assert rc == 0 and out == ""
        outputs.append(dest.read_text())
    expected = ScanConfig(poly=X2DivisiblePoly.parse("x^3+x^2"), num_bound=2, den_bound=1,
                          horizon=5, bit_cap=300, parallelism=2, output=str(dest),
                          format="json")
    assert seen == [expected, expected]
    assert ScanConfig.from_file(str(path)) == expected
    assert outputs[0] == outputs[1]


def test_scan_defaults_come_from_scan_config(capsys):
    rc, out, _ = run(capsys, "scan", "--poly", "x^3+x^2", "--num-bound", "3",
                     "--den-bound", "2")
    assert rc == 0
    assert out == csv_text(run_scan(ScanConfig(X2DivisiblePoly.parse("x^3+x^2"), 3, 2)))


def test_scan_missing_bounds_is_usage_error(capsys):
    rc, _, err = run(capsys, "scan", "--poly", "x^2")
    assert rc == 2
    assert "error:" in err


def test_scan_missing_config_file_is_usage_error(capsys):
    rc, _, err = run(capsys, "scan", "--config", "/nonexistent/path.cfg")
    assert rc == 2
    assert "error:" in err
    # without a config file the polynomial must come from the flags
    rc, out, err = run(capsys, "scan", "--num-bound", "2", "--den-bound", "1")
    assert (rc, out) == (2, "")
    assert err == "error: scan needs --config, or --poly/--coeffs with bounds\n"


def test_scan_config_non_integer_names_path_line_and_key(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("poly = x^3+x^2\n# bounds\nnum_bound = two\nden_bound = 2\n")
    rc, out, err = run(capsys, "scan", "--config", str(cfg))
    assert rc == 2
    assert out == ""
    assert err == f"error: {cfg}:3: num_bound = 'two': not an integer\n"


def test_bit_cap_below_one_is_usage_error(capsys):
    # the check comes before any report line, so stdout stays empty
    for command, extra in (("orbit", ["--c", "3"]), ("zsigmondy", ["--c", "3"]),
                           ("scan", ["--num-bound", "2", "--den-bound", "1"])):
        for flag, message in (("--bit-cap", "bit_cap must be at least 1"),
                              ("--horizon", "horizon must be at least 1")):
            rc, out, err = run(capsys, command, "--poly", "x^3+x^2", flag, "0", *extra)
            assert rc == 2, (command, flag)
            assert out == ""
            assert f"error: {message}" in err
            assert "Traceback" not in err


def test_verify_single_check(capsys):
    rc, out, _ = run(capsys, "verify", "--check", "stabilization_index_exact")
    assert rc == 0
    assert "ok   stabilization_index_exact" in out
    assert "1/1 checks passed" in out


def test_verify_unknown_check(capsys):
    rc, _, err = run(capsys, "verify", "--check", "no_such_check")
    assert rc == 2
    assert "unknown checks" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(
        zsig.verification, "run_all",
        lambda names=None: [CheckResult("fabricated", False, "broken on purpose")],
    )
    rc, out, _ = run(capsys, "verify", "--check", "stabilization_index_exact")
    assert rc == 1
    assert "FAIL fabricated: broken on purpose" in out
    assert "0/1 checks passed" in out


def test_bounds_command(capsys):
    rc, out, _ = run(capsys, "bounds", "--poly", "x^3+x^2", "--L", "2", "--N", "1")
    assert rc == 0
    assert "n0 = 7" in out and "n1 = 12" in out
    assert "preimage root bound: 4" in out
    assert "4.004038e+12" in out
    # log2(2^60 + 1) is past 60, so 60^3 does not reach its cube: n2 = 4 + 2 * 132
    rc, out, _ = run(capsys, "bounds", "--poly", "x^60", "--L", str(2**60 - 1), "--N", "1")
    assert rc == 0
    assert "n2 = 268" in out


def test_normalize_with_explicit_point(capsys):
    rc, out, _ = run(capsys, "normalize", "--poly", "x^3-3*x", "--u", "1")
    assert rc == 0
    assert "target: x^3 + 3*x^2" in out
    assert "shift constant: -3" in out


def test_normalize_ambiguous_point_lists_candidates(capsys):
    rc, _, err = run(capsys, "normalize", "--poly", "x^3-3*x")
    assert rc == 2
    assert "-1, 1" in err
    # a constant has no critical point to find, and none to shift to the origin
    for argv, message in ((("--poly", "5"), "derivative vanishes identically"),
                          (("--poly", "5", "--u", "0"),
                           "shifted polynomial must have degree >= 2")):
        rc, out, err = run(capsys, "normalize", *argv)
        assert (rc, out) == (2, ""), argv
        assert err.startswith(f"error: {message}") and "Traceback" not in err


def test_normalize_maps_parameter(capsys):
    rc, out, _ = run(capsys, "normalize", "--poly", "x^3-3*x", "--u", "1",
                     "--c", "5")
    assert rc == 0
    assert "mapped parameter: 5 -> 2" in out


def test_malformed_polynomial_exits_two(capsys):
    for argv in (("--poly", "x^+2"), ("--coeffs", "0,0,1/0")):
        rc, _, err = run(capsys, "orbit", *argv, "--c", "1")
        assert rc == 2, argv
        assert "error:" in err
        assert "Traceback" not in err


def test_exponent_past_the_degree_limit_exits_two(capsys):
    # refused while parsing, before a coefficient list of that length is built
    for argv in (("zsigmondy", "--poly", "x^99999999999", "--c", "1"),
                 ("normalize", "--poly", "x^99999999999"),
                 ("scan", "--poly", "x^99999999999", "--num-bound", "1", "--den-bound", "1")):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert err == ("error: exponent 99999999999 in 'x^99999999999' "
                       "is above the degree limit 100000\n"), argv
        assert out == ""


def test_uncertified_denominator_support_exits_two(capsys):
    # a 30-digit prime is past the range where Miller-Rabin is a proof
    big = 10**30 + 57
    for argv in (("zsigmondy", "--poly", "x^3+x^2", f"--c=1/{big}"),
                 ("orbit", "--poly", "x^3+x^2", f"--c=1/{big}"),
                 ("normalize", "--poly", f"{big}*x^2", "--u", "0")):
        rc, out, err = run(capsys, *argv)
        assert rc == 2, argv
        assert "error: cannot certify" in err
        assert "Traceback" not in err and out == ""


def test_unfactorable_lead_still_gets_verdicts(capsys):
    # factor_small refuses this lead; membership never factors it, only den(c)
    poly = f"{(2**89 - 1) * (2**107 - 1)}*x^3+x^2"
    rc, out, err = run(capsys, "zsigmondy", "--poly", poly, "--c", "1/2", "--horizon", "4")
    assert (rc, err) == (0, "")
    assert "verdict:    denominator (n=1;p=2)" in out.splitlines()
    rc, out, err = run(capsys, "scan", "--poly", poly,
                       "--num-bound", "2", "--den-bound", "2", "--horizon", "3")
    assert rc == 0 and "Traceback" not in err
    assert out.splitlines() == [
        "c_num,c_den,verdict,witness,horizon,zset,zset_size,rin_failures,capped_at",
        "-2,1,escape,n=1,3,,0,,",
        "-1,1,escape,n=1,3,1,1,1,",
        "0,1,finite,tail=1;cycle=1,3,,,,",
        "1,1,escape,n=1,3,1,1,1,",
        "2,1,escape,n=1,3,,0,,",
        "-1,2,denominator,n=1;p=2,3,1,1,1,",
        "1,2,denominator,n=1;p=2,3,1,1,1,",
    ]


def test_closed_stdout_exits_141_quietly():
    # buffered, the report reaches the pipe at the final flush; unbuffered, at its first print
    src_dir = str(Path(zsig.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    for extra in ({}, {"PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "zsig.cli", "orbit", "--poly", "x^3+x^2",
                 "--c", "1/2", "--horizon", "4"],
                stdout=write_end, stderr=subprocess.PIPE, env={**env, **extra}, timeout=60)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b""), extra


def test_non_model_polynomial_exits_two(capsys):
    # a linear term is outside the family
    rc, _, err = run(capsys, "orbit", "--poly", "x^3+x", "--c", "1")
    assert rc == 2


ZSIGMONDY_ARGV = ["zsigmondy", "--poly", "x^3+x^2", "--c", "1", "--horizon", "4"]

# The launcher pip (via distlib) writes for a console_scripts entry.
CONSOLE_SCRIPT_TEMPLATE = """\
import re
import sys
from {module} import {func}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def test_console_script_entry_point(tmp_path):
    # Builds the `zsig` launcher from the declared entry point instead of
    # relying on an installed script, so it runs from the source tree.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["zsig"]
    module, _, func = target.partition(":")
    script = tmp_path / "zsig"
    script.write_text(CONSOLE_SCRIPT_TEMPLATE.format(module=module, func=func))

    src_dir = str(Path(zsig.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)

    def launch(*argv):
        return subprocess.run([sys.executable, str(script), *argv],
                              capture_output=True, text=True, timeout=60,
                              cwd=tmp_path, env=env)

    proc = launch(*ZSIGMONDY_ARGV)
    assert proc.returncode == 0, proc.stderr
    assert "zsigmondy set in window: 1" in proc.stdout

    bad = launch("zsigmondy", "--poly", "x^3+x^2", "--c", "1/0")
    assert bad.returncode == 2
    assert "error:" in bad.stderr
    assert "Traceback" not in bad.stderr


@pytest.mark.skipif(shutil.which("zsig") is None,
                    reason="zsig console script not installed")
def test_installed_console_script():
    proc = subprocess.run(
        [shutil.which("zsig"), *ZSIGMONDY_ARGV],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "zsigmondy set in window: 1" in proc.stdout
