"""End-to-end command line checks through real subprocesses."""

import csv
import dataclasses
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from padic_oscillator import cli
from padic_oscillator.exact_numbers import HalfPower
from padic_oscillator.propagator import QuadraticKernel, evaluate_kernel
from padic_oscillator.suites import run_suite

BASE = [sys.executable, "-m", "padic_oscillator.cli"]


def run_cli(*argv):
    return subprocess.run(BASE + list(argv), capture_output=True, text=True)


def run_json(*argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["schema"] == "padic-oscillator/1"
    return payload


@dataclasses.dataclass
class _Outer:
    inner: HalfPower
    items: tuple


def test_emit_renders_every_value_through_one_encoder(capsys):
    kernel_value = evaluate_kernel(QuadraticKernel.free(5, 1), Fraction(1, 5), 0)
    cli._emit("probe", {"zero": Fraction(0), "neg": Fraction(-7, 3), "z": complex(0.5, -2),
                        "nested": _Outer(HalfPower(3, Fraction(-1, 2)), (Fraction(2), 1j)),
                        "kernel_value": kernel_value})
    text = capsys.readouterr().out
    assert '"zero": "0/1"' in text and '"neg": "-7/3"' in text
    doc = json.loads(text)
    assert doc["z"] == {"re": 0.5, "im": -2.0}
    assert doc["nested"] == {"inner": {"base": "3/1", "exponent": "-1/2"},
                             "items": ["2/1", {"re": 0.0, "im": 1.0}]}
    # a to_json method chooses the keys even on a dataclass
    assert doc["kernel_value"] == {
        "lambda_angle": "0/1", "norm": {"base": "5/1", "exponent": "0/1"},
        "phase_angle": "12/25", "value": {"re": kernel_value.complex_value.real,
                                          "im": kernel_value.complex_value.imag}}
    with pytest.raises(TypeError):
        cli._emit("probe", {"unknown": object()})


def test_gauss_deep_pole_example():
    payload = run_json("gauss", "-p", "3", "-a", "1/3", "-b", "0", "-n", "0")
    result = payload["closed"]
    assert result["branch"] == 2
    assert result["lambda_angle"] == "1/4"
    assert result["magnitude"] == {"base": "3/1", "exponent": "-1/2"}
    assert abs(result["value"]["im"] - 1 / math.sqrt(3)) < 1e-12
    assert abs(result["value"]["re"]) < 1e-12


def test_gauss_with_oracle_cross_check():
    payload = run_json("gauss", "-p", "5", "-a", "2/5", "-b", "1", "-n", "1",
                       "--oracle-depth", "4")
    assert payload["deviation"] < 1e-9
    assert "oracle" in payload


def test_gauss_branch_gap_exit_code():
    # the former p = 2 branch gap now exits 0 with the dyadic branch 3
    result = run_json("gauss", "-p", "2", "-a", "1/2", "-b", "0")["closed"]
    assert result["branch"] == 3
    assert result["magnitude"] is None
    payload = run_json("gauss", "-p", "2", "-a", "1/4", "--oracle-depth", "1")
    assert payload["closed"]["magnitude"] == {"base": "2/1", "exponent": "-1/2"}
    assert payload["closed"]["phase_angle"] == "1/8"
    assert payload["deviation"] < 1e-9


def test_gauss_at_a_prime_near_ten_to_the_eighteen_answers_fast():
    start = time.perf_counter()
    result = run_json("gauss", "-p", "1000000000000000003", "-a", "1/3")["closed"]
    assert time.perf_counter() - start < 5
    assert result["branch"] == 1 and result["magnitude"]["exponent"] == "0/1"


@pytest.mark.parametrize("argv, digest", [
    ("-p 5 -a 3/25 -b 2/5 -n 0", "d41db1d847a1e062fec77f23f17af3df12f7ad6b4bd6037a0a369d3b065c8208"),
    ("-p 2 -a 5 -b 0 -n 1", "95397bce20233dd0e9476a729c38fb547ecc8dc5a4cd7c9fba3b5983bcea8bbc"),
    ("-p 2 -a 6 -b 1 -n 1", "e6967a8a0a312dcb86dbe223de241090c97c793721424acf2a2371f3716f0fec"),
    ("-p 3 -a 9 -b 3 -n 1", "d6581fb3164643f3b5e883388b845a65da09e27790d92defa486cf597d43aa2e"),
    ("-p 3 -a 1/3 -n 1000000", "d77e3cd8129c417d83f3e48e7c9f1bf167052c2e3436dcdce03062875ae54175"),
    ("-p 3 -a 1/3 -b 0 -n 0", "59045bb9c050a0c8526c58d1d938f54663a7a804d02938c2d9c3ac360d56a383"),
    ("-p 2 -a 3/8 -b 1/4 -n 1", "a291685af8276866ce311d8b20cb065c5c96e5b8ca75d9e1dcb8a69851078738"),
])
def test_gauss_closed_form_reports_are_pinned(argv, digest):
    # one report per branch and indicator outcome, as the Fraction-based closed form printed them
    proc = subprocess.run(BASE + ["gauss"] + argv.split(), capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("classical --preset example2(1,2) --t1 0 --t2 1/4 --x1 1 --x2 2 --order 96",
     "d71ec8eb074c1e4e16530aa1983bb84d332ad5d7cdb06e36f971fba243d4fe23"),
    ("propagator --place 5 --preset example1(2/3,1) --t1 0 --t2 5/7 --x1 1 --x2 2"
     " --stability-check", "f220d0084c446a0dca49174e257a7b7180985fea8a4812db23cf2ad5a9e8584a"),
    ("product --places real,3,5,7 --preset example1(1,1) --t1 0 --t2 105 --x1 1 --x2 2",
     "639323dd4e2b83e764ce9a02a7d585ef6e289f43af3946efae3bd212b62716f5"),
    ("vacuum -p 3,5 --preset constant(3) --t1 0 --t2 15 --method closed-form",
     "cf8d50f0deeee4e4467b32c3c43783456d5338b01d0381d7806607ffcae3562d"),
    ("discreteness --xs 0,1,1/2,3/2,2 --cutoff 100",
     "361e95bec0674f6bdfe191001499e3bb3d231fc3317aa82fdda3d45951124e47"),
    ("discreteness --xs 0,1/6,5/77,1/221,-3/1 --cutoff 50",
     "af766bc202005d2e483c4a69b30ff993a6009130c0237a538f72f87a7630e12d"),
])
def test_command_reports_are_pinned(argv, digest):
    # the order-96 solve, the stability gate, the product, the vacuum and discreteness reports
    proc = subprocess.run(BASE + argv.split(), capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("argv, code", [
    ("-a 1/3 -n 100000000", 0),
    ("-a 1/3 -b 1/27 -n -100000000", 0),  # branch 1, magnitude 3^(-10^8) renders as 0.0
    ("-a 0 -n 2000", 10),
    ("-a 0 -n 100000000", 10),
    pytest.param("-a 0 -n 1" + "0" * 400, 10, id="-a 0 -n 10^400-10"),
    # branch 1, magnitude 3^(-10^400) renders as 0.0 from the exponent's sign alone
    pytest.param("-a 1/3 -b 1 -n -1" + "0" * 400, 0, id="-a 1/3 -b 1 -n -10^400-0"),
])
def test_gauss_ball_exponent_costs_nothing(argv, code):
    start = time.perf_counter()
    proc = subprocess.run(BASE + ["gauss", "-p", "3"] + argv.split(),
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("error: 3^(") and "too large for a float" in proc.stderr
        assert "Traceback" not in proc.stderr
    else:
        assert json.loads(proc.stdout)["closed"]["magnitude"]["base"] == "3/1"


def test_gauss_prime_beyond_the_exact_primality_bound_is_a_usage_error():
    proc = run_cli("gauss", "-p", str(2**89 - 1), "-a", "1/3")
    assert proc.returncode == 64
    assert proc.stderr.startswith("error: cannot decide whether")


def test_gauss_depth_guard_exit_code():
    proc = run_cli("gauss", "-p", "3", "-a", "1/9", "-b", "0", "--oracle-depth", "1")
    assert proc.returncode == 3


def test_gauss_oracle_modulus_above_two_to_the_31_is_a_usage_error():
    # int64 products would overflow; fail before any work instead
    proc = subprocess.run(BASE + ["gauss", "-p", "2", "-a", "1/1099511627776",
                                  "--oracle-depth", "39"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 64
    assert "2^40" in proc.stderr


@pytest.mark.parametrize("argv, code", [
    ("-a 1/3 -n 10000000 --oracle-depth 10000001", 64),  # modulus 3^20000001
    ("-a 1/3 --oracle-depth 10000000", 0),  # 3 samples, fold 3^(-1)
    ("-a 0 -n 1000 --oracle-depth 0", 10),  # one sample, fold 3^1000
])
def test_gauss_oracle_guards_read_exponents(argv, code):
    start = time.perf_counter()
    proc = subprocess.run(BASE + ["gauss", "-p", "3"] + argv.split(),
                          capture_output=True, timeout=60)
    assert time.perf_counter() - start < 2
    assert proc.returncode == code, proc.stderr
    assert b"Traceback" not in proc.stderr
    if code == 0:  # the bytes that building 3^(10^7) printed
        assert hashlib.sha256(proc.stdout).hexdigest() == \
            "c4e7122ba4964c2dc0db44b18451cb2f893528f6f90d90cce1cb8c4565f7cc05"


def test_gauss_oracle_above_sample_budget_exits_nine():
    proc = subprocess.run(BASE + ["gauss", "-p", "2", "-a", "1/2147483648",
                                  "--oracle-depth", "30"],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 9
    assert "budget" in proc.stderr


def test_closed_stdout_exits_one_without_traceback():
    proc = subprocess.Popen(BASE + ["gauss", "-p", "3", "-a", "1/3"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()  # the child is still importing, so it has written nothing yet
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err


def test_cli_import_does_not_load_numpy():
    code = "import padic_oscillator.cli, sys; assert 'numpy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True)


def test_malformed_rational_is_a_usage_error():
    proc = run_cli("gauss", "-p", "3", "-a", "0.5")
    assert proc.returncode == 64


def test_classical_two_point_summary():
    payload = run_json("classical", "--preset", "example1(1,1)",
                       "--t1", "0", "--t2", "1/2", "--x1", "1", "--x2", "3/4")
    assert payload["action"]["quadratic_form"] == payload["action"]["boundary_form"]
    assert payload["action"]["difference"] == "0/1"
    coeffs = payload["trajectory_coefficients"]
    k1 = payload["momenta"]["k_prime"]
    # first trajectory coefficient is the initial velocity k'/m
    assert coeffs[1] == k1


def test_classical_uncertified_prime_exit_code():
    proc = run_cli("classical", "--preset", "constant(1)",
                   "--t1", "0", "--t2", "1/5", "--primes", "5")
    assert proc.returncode == 5


def test_classical_caustic_exit_code():
    proc = run_cli("classical", "--preset", "free", "--t1", "1/2", "--t2", "1/2")
    assert proc.returncode == 4


def test_propagator_real_place_with_composition():
    payload = run_json("propagator", "--place", "real", "--preset", "free",
                       "--t1", "0", "--t2", "2", "--x1", "1", "--x2", "4")
    value = payload["value"]["value"]
    assert abs(complex(value["re"], value["im"]) - complex(0.5, 0.5)) < 1e-12


def test_propagator_padic_composition_report():
    payload = run_json("propagator", "--place", "3", "--preset", "free",
                       "--t1", "0", "--t2", "2", "--compose", "1")
    assert payload["compose"]["max_deviation"] < 1e-9


def test_propagator_stability_gate_reports_angles_or_exit_six():
    payload = run_json("propagator", "--place", "real", "--preset", "example1(1,1)",
                       "--t1", "0", "--t2", "3/16", "--x1", "1", "--x2", "2",
                       "--stability-check")
    assert abs(payload["stability"]["real"] - 0.5210856417331802) < 1e-9
    unstable = run_cli("propagator", "--place", "real", "--preset", "example1(1,1)",
                       "--t1", "0", "--t2", "3/8", "--x1", "1", "--x2", "2",
                       "--stability-check")
    assert unstable.returncode == 6


def test_propagator_composition_refused_on_real_place():
    proc = run_cli("propagator", "--place", "real", "--preset", "free",
                   "--t1", "0", "--t2", "2", "--compose", "1")
    assert proc.returncode == 64


def test_vacuum_both_methods_agree():
    payload = run_json("vacuum", "-p", "3,5", "--preset", "constant(3)",
                       "--t1", "0", "--t2", "15")
    rows = payload["reports"]
    assert [row["prime"] for row in rows] == [3, 5]
    for row in rows:
        assert row["agree"] is True
        assert row["closed"]["holds"] is True
        assert row["brute"]["holds"] is True


def test_vacuum_violation_reports_witness():
    payload = run_json("vacuum", "-p", "3", "--preset", "constant(3)",
                       "--t1", "0", "--t2", "1", "--planck", "2/3",
                       "--method", "closed-form")
    row = payload["reports"][0]
    assert row["closed"]["holds"] is False
    assert row["closed"]["witness"] == "0/1"


def test_vacuum_dyadic_closed_form_agrees_with_brute_force():
    for t2, holds in (("2", True), ("1", False)):
        payload = run_json("vacuum", "-p", "2", "--preset", "free",
                           "--t1", "0", "--t2", t2, "--method", "both")
        row = payload["reports"][0]
        assert row["closed"]["holds"] is holds and row["brute"]["holds"] is holds
        assert row["agree"] is True
    payload = run_json("vacuum", "-p", "2", "--preset", "free",
                       "--t1", "0", "--t2", "2", "--method", "closed-form")
    assert payload["reports"][0]["closed"]["holds"] is True
    row = run_json("vacuum", "-p", "2", "--preset", "constant(2)",
                   "--t1", "0", "--t2", "2")["reports"][0]
    assert row["closed"]["holds"] is True and row["agree"] is True



@pytest.mark.parametrize("preset", ["free", "constant(3)"])
def test_vacuum_rejects_a_non_prime_before_anything_else(preset):
    proc = run_cli("vacuum", "-p", "4", "--preset", preset, "--t1", "0", "--t2", "1")
    assert proc.returncode == 64
    assert proc.stderr == "error: not a prime: 4\n"


def test_discreteness_json_rows_follow_integrality():
    payload = run_json("discreteness", "--xs", "0,1,1/2,3/2,2", "--cutoff", "100")
    values = {row["x"]: row["value"] for row in payload["rows"]}
    assert values["1/2"] == 0.0 and values["3/2"] == 0.0
    for key in ("0/1", "1/1", "2/1"):
        assert values[key] > 0


def test_discreteness_csv_shape():
    proc = run_cli("discreteness", "--xs", "0,1/2,1", "--format", "csv")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["x", "value"]
    assert len(rows) == 4
    assert rows[2][0] == "1/2" and float(rows[2][1]) == 0.0
    # RFC-4180 line endings survive on the raw byte stream
    raw = subprocess.run(BASE + ["discreteness", "--xs", "0,1/2,1",
                                 "--format", "csv"], capture_output=True)
    assert b"\r\n" in raw.stdout


def test_discreteness_cutoff_failure_exit_code():
    proc = run_cli("discreteness", "--xs", "1/101", "--cutoff", "100")
    assert proc.returncode == 7


@pytest.mark.parametrize("denominator, cutoff", [
    ((10**9 + 7) * (10**9 + 9), 10**8),  # two primes above the cutoff: 10^8 trial divisions
    (10**18 + 3, 10**8),  # a prime above the cutoff
])
def test_discreteness_cutoff_failure_is_fast_for_large_prime_factors(denominator, cutoff):
    start = time.perf_counter()
    proc = run_cli("discreteness", "--xs", f"1/{denominator}", "--cutoff", str(cutoff))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 7
    assert f"keeps a factor {denominator} with no prime divisor <= {cutoff}" in proc.stderr


def test_discreteness_lists_an_eighteen_digit_prime_within_the_cutoff():
    prime = 10**18 + 3
    payload = run_json("discreteness", "--xs", f"1/{prime}", "--cutoff", str(prime))
    assert payload["rows"][0]["vanishing_primes"] == [prime]


def test_product_three_places():
    payload = run_json("product", "--places", "real,3,5", "--preset", "free",
                       "--t1", "0", "--t2", "2", "--x1", "1", "--x2", "4")
    report = payload["report"]
    assert report["phase_angle"] == "1/8"
    assert abs(report["product"]["re"] - 0.5) < 1e-12
    assert abs(report["product"]["im"] - 0.5) < 1e-12


def test_product_counts_a_repeated_place_once():
    window = ("--preset", "example1(1,1)", "--t1", "0", "--t2", "105", "--x1", "1", "--x2", "2")
    once, twice = run_cli("product", "--places", "3", *window), \
        run_cli("product", "--places", "3,3", *window)
    assert once.returncode == twice.returncode == 0
    assert twice.stdout == once.stdout
    report = json.loads(twice.stdout)["report"]
    assert report["places"] == ["3"] and report["phase_angle"] == "11/12"


def test_product_over_the_empty_place_set_is_one():
    report = run_json("product", "--places", "", "--preset", "example1(1,1)", "--t1", "0",
                      "--t2", "105", "--x1", "1", "--x2", "2")["report"]
    assert report["places"] == [] and report["factors"] == {}
    assert report["phase_angle"] == "0/1" and report["product"] == {"re": 1.0, "im": 0.0}


def test_product_over_a_non_unit_wronskian_matches_each_place():
    # constant(3) has wronskian 3; each factor is that place's own kernel value
    window = ("--preset", "constant(3)", "--t1", "0", "--t2", "15", "--x1", "1", "--x2", "2")
    factors = run_json("product", "--places", "real,3,5", *window)["report"]["factors"]
    assert sorted(factors) == ["3", "5", "real"]
    for place, factor in factors.items():
        assert factor == run_json("propagator", "--place", place, *window)["value"]


@pytest.mark.xfail(strict=True, reason="no 2-adic kernel exists here (sqrt 5 is not in Q_2), "
                                       "but the heuristic certificate accepts it")
def test_padic_kernel_without_a_convergent_solution_exits_five():
    for order in ("16", "32", "64"):
        proc = run_cli("propagator", "--place", "2", "--preset", "example2(1,1)", "--t1", "0",
                       "--t2", "4", "--x1", "1", "--x2", "1", "--order", order)
        assert proc.returncode == 5, (order, proc.stdout)


@pytest.mark.xfail(strict=True, reason="t = 2 lies outside the radius 1 of the series, "
                                       "and the real place has no certificate")
def test_real_kernel_outside_the_radius_of_convergence_exits_five():
    for order in ("24", "48"):
        proc = run_cli("propagator", "--place", "real", "--preset", "example1(1,1)",
                       "--t1", "0", "--t2", "2", "--x1", "1", "--x2", "2", "--order", order)
        assert proc.returncode == 5, (order, proc.stdout)


@pytest.mark.xfail(strict=True, reason="t = 3 lies outside the radius 1 of the free frame series "
                                       "G = sqrt(1 + t^2), gamma = arctan t, and the classical "
                                       "command neither refuses it nor uses the exact free solution")
def test_free_classical_data_past_the_frame_radius_is_exact_or_refused():
    # the exact action is m (x'' - x')^2 / (2T) = 1/6 and both momenta m (x'' - x')/T = 1/3
    proc = run_cli("classical", "--preset", "free", "--t1", "0", "--t2", "3", "--x1", "1",
                   "--x2", "2", "--order", "12")
    if proc.returncode != 5:
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["action"]["quadratic_form"] == "1/6"
        assert payload["momenta"] == {"k_prime": "1/3", "k_dprime": "1/3"}


def test_vacuum_has_no_depth_override():
    proc = run_cli("vacuum", "-p", "3", "--preset", "free", "--t1", "0", "--t2", "3",
                   "--depth", "4")
    assert proc.returncode == 64 and "--depth" in proc.stderr


def test_unknown_suite_name_is_usage_error():
    proc = run_cli("suite", "no-such-suite")
    assert proc.returncode == 64


@pytest.mark.parametrize("name", ["ultrametric", "lambda"])
def test_single_suites_pass(name):
    payload = run_json("suite", name, "--seed", "1")
    assert payload["name"] == name
    assert all(entry["passed"] for entry in payload["results"])


@pytest.mark.parametrize("name", ["ultrametric", "composition", "vacuum"])
@pytest.mark.parametrize("cases", [0, -3])
def test_suite_needs_at_least_one_case(name, cases):
    with pytest.raises(ValueError, match="at least one case"):
        run_suite(name, cases=cases)
    proc = run_cli("suite", name, "--cases", str(cases))
    assert proc.returncode == 64 and proc.stdout == ""
    assert "at least one case" in proc.stderr


def test_suite_output_is_deterministic():
    first = run_cli("suite", "ultrametric", "--seed", "3")
    second = run_cli("suite", "ultrametric", "--seed", "3")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_missing_required_argument_is_usage_error():
    proc = run_cli("gauss", "-a", "1/3")
    assert proc.returncode == 64
