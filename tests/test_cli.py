import json
import math
import os
import subprocess
import sys
import time

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monodyn import cli
from monodyn.bounds import discrepancy_exact
from monodyn.cli import main
from monodyn.errors import OverflowGuard
from monodyn.galois import class_of_point
from monodyn.preper import enumerate_preperiodic
from monodyn.primes import is_prime
from monodyn.semigroup import Semigroup
from test_polyfactor import swinnerton_dyer


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(
        {"generators": [{"a": "2", "d": 2}, {"a": "3", "d": 3}]}))
    return str(path)


def _src_env() -> dict:
    """The environment with this checkout's src first on PYTHONPATH, for a
    fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_orbit(config, tmp_path, capsys):
    out = tmp_path / "orbit.json"
    rc = main(["--config", config, "orbit", "--point", "2", "--depth", "2",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "monodyn/1"
    assert doc["preperiodic"]["tag"] == "not_preperiodic"
    assert len(doc["orbit"]) == 1 + 2 + 4


def test_preper_jsonl(config, capsys):
    rc = main(["--config", config, "--depth", "1", "preper"])
    assert rc == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.splitlines() if s]
    assert {"c", "M", "t", "witness", "minpoly", "degree"} <= set(lines[0])
    assert any(row["c"] == "1/2" and row["M"] == 1 for row in lines)


def test_preper_degree_cap(config, capsys):
    # rows past the cap keep their class degree and lose only the minpoly
    assert main(["--config", config, "--depth", "2", "preper"]) == 0
    full = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert main(["--config", config, "--depth", "2", "--degree-cap", "1",
                 "preper"]) == 0
    capped = [json.loads(s) for s in capsys.readouterr().out.splitlines()]
    assert len(capped) == len(full)
    assert any(row["degree"] > 1 for row in full)
    for row, ref in zip(capped, full):
        assert row["degree"] == ref["degree"]
        assert row["minpoly"] == (ref["minpoly"] if ref["degree"] <= 1
                                  else None)
        assert ref["minpoly"] is not None and \
            len(ref["minpoly"]) == ref["degree"] + 1


def test_height_long_preperiod(config, capsys):
    # the composite coefficient of 24 letters has billions of digits; the
    # closed form works on its exponent vector instead
    g1 = ",".join("12"[i % 2] for i in range(24))
    rc = main(["--config", config, "height", "--beta", "2", "--g1", g1])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["iterative"]["value"] - doc["closed"]) \
        <= doc["iterative"]["error_bound"]


def test_height(config, capsys):
    rc = main(["--config", config, "height", "--beta", "1", "--g1", "1",
               "--g2", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["closed"] - 0.6212266624470001) < 1e-12
    assert abs(doc["iterative"]["value"] - doc["closed"]) \
        <= doc["iterative"]["error_bound"] + 1e-9


@pytest.mark.parametrize("generators, argv", [
    ([{"a": "2", "d": 10 ** 400}], ["--g2", "1"]),
    ([{"a": "2", "d": 2}, {"a": "3", "d": 2 ** 600}],
     ["--g2", "2", "--tol", "1e-300"])], ids=["d=10^400", "D=2^1200"])
def test_height_past_float_range_degrees(tmp_path, generators, argv, capsys):
    # a degree, or the degree product of two steps, passes float range: the
    # drift bound is rounded from the exact quotient and the value is the
    # height of |f(beta)|^(1/|D|), so neither ends in an OverflowError
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"generators": generators}))
    start = time.perf_counter()
    rc = main(["--config", str(path), "height", "--beta", "3"] + argv)
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert rc == 0 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["iterative"]["value"] == doc["closed"] == math.log(3)


def test_bounds_csv(capsys):
    rc = main(["--seed", "5", "bounds", "--samples", "25"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id,v,log_lambda,bound,margin"
    assert len(lines) == 26
    assert all(float(line.split(",")[4]) > 0 for line in lines[1:])


def test_equid(config, capsys):
    rc = main(["--config", config, "equid", "--depth", "2", "--beta", "3",
               "--nodes", "4096"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["jensen"]["diff"]) < 1e-9
    assert doc["classes"]


def test_scan_json_and_exit_codes(config, tmp_path, capsys):
    out = tmp_path / "scan.json"
    rc = main(["--config", config, "scan", "--beta", "2", "--depth", "3",
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "monodyn/1"
    assert doc["s_integral_points"] == 2
    # invalid config: beta preperiodic
    rc = main(["--config", config, "scan", "--beta", "1/2", "--depth", "2"])
    assert rc == 2
    # cap exceeded writes partial output with exit 3
    out2 = tmp_path / "partial.json"
    rc = main(["--config", config, "scan", "--beta", "2", "--depth", "5",
               "--node-cap", "50", "--out", str(out2)])
    assert rc == 3
    assert json.loads(out2.read_text())["truncated"]


def test_scan_past_the_gamma_tolerance_is_a_cap(config, tmp_path, capsys):
    # a gamma residual above --tol truncates the scan: exit 3, and the
    # report is still written, with one note per residual
    out = tmp_path / "r.json"
    rc = main(["--config", config, "scan", "--beta", "2", "--depth", "3",
               "--tol", "1e-300", "--out", str(out)])
    assert rc == 3
    doc = json.loads(out.read_text())
    assert doc["truncated"] and len(doc["verdicts"]) == 38
    assert len(doc["notes"]) == 17
    assert all(n.startswith("gamma residual ") for n in doc["notes"])


@pytest.mark.parametrize("command", ["preper", "equid"])
def test_depth_zero_is_invalid_config(config, command, capsys):
    rc = main(["--config", config, command, "--depth", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "invalid config" in err and "Traceback" not in err


def test_scan_degree_cap_on_genuine_twin(config, tmp_path, capsys):
    # depth 3 reaches the degree-2 genuine twins of sqrt(1/3) e(1/12) and
    # e(5/12); the scan reads no degree cap, so it refuses --degree-cap 1
    # rather than write a report whose "degree_cap" says 512, and every
    # verdict of the default report carries its discrepancy
    out = tmp_path / "r.json"
    rc = main(["--config", config, "scan", "--beta", "2", "--depth", "3",
               "--degree-cap", "1", "--out", str(out)])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert err == "invalid config: scan reads no --degree-cap\n"
    assert main(["--config", config, "scan", "--beta", "2", "--depth", "3",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert not doc["truncated"] and not doc["notes"]
    twins = [v for v in doc["verdicts"]
             if (v["c"], v["M"], v["t"]) in (("1/3", 2, "1/12"),
                                             ("1/3", 2, "5/12"))]
    assert len(twins) == 2 and all(v["degree"] == 2 for v in twins)
    assert all(isinstance(v["discrepancy"], float) for v in twins)


def test_scan_hard_to_factor_beta_is_a_cap(config, capsys):
    # beta is the product of the next primes after 2^99 and 2^100: Pollard
    # rho spends its step budget and the scan exits 3 instead of running on
    beta = (2 ** 99 + 255) * (2 ** 100 + 277)
    assert str(beta) == ("803469022129495137770981046669401812450909766380"
                         "349129036779")
    rc = main(["--config", config, "scan", "--beta", str(beta),
               "-S", "2,3,5", "--depth", "2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "cap exceeded" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", (["preper"], ["equid"],
                                  ["scan", "--beta", "2"]), ids=" ".join)
def test_hard_to_factor_coefficient_is_a_cap(tmp_path, argv, capsys):
    # the coefficient p q has 222 bits, p and q the next primes after 2^110
    # and 2^111: factoring the first collision binomial's a spends rho's
    # budget, and each command exits 3 with no output
    p, q = 2 ** 110 + 27, 2 ** 111 + 51
    assert [n for n in range(2 ** 110, p + 1) if is_prime(n)] == [p]
    assert [n for n in range(2 ** 111, q + 1) if is_prime(n)] == [q]
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"generators": [{"a": str(p * q), "d": 2},
                                               {"a": "3", "d": 3}]}))
    t0 = time.perf_counter()
    rc = main(["--config", str(path), "--depth", "2"] + argv)
    assert rc == 3 and time.perf_counter() - t0 < 10
    out, err = capsys.readouterr()
    assert err.startswith("cap exceeded: ") and "Traceback" not in err
    assert not out


def test_scan_wide_composite_beta_is_a_cap_in_seconds(config, capsys):
    # trial division leaves a composite of over 900 bits in 10^299 + 7; rho
    # is charged per word operation, so its budget runs out in seconds
    t0 = time.perf_counter()
    rc = main(["--config", config, "scan", "--beta", str(10 ** 299 + 7),
               "--depth", "2"])
    assert rc == 3 and time.perf_counter() - t0 < 10
    err = capsys.readouterr().err
    assert "cap exceeded" in err and "Traceback" not in err


@pytest.mark.parametrize("beta", ["1e309", "-1e309", "1e160", "-3e-400"])
def test_scan_beta_past_float_range(config, beta, capsys):
    # the archimedean row is computed in log space: no overflow, and the
    # Gamma residual stays within tol
    rc = main(["--config", config, "scan", f"--beta={beta}", "--depth", "2"])
    assert rc == 0, capsys.readouterr().err


EQUID_SEMIGROUPS = (
    [{"a": "2", "d": 2}, {"a": "3", "d": 3}],
    [{"a": "-5/2", "d": 3}, {"a": "4", "d": -2}],
    [{"a": "4", "d": 2}, {"a": "9", "d": 3}],
)


@pytest.mark.parametrize("generators", EQUID_SEMIGROUPS)
def test_equid_classes_match_point_enumeration(generators, tmp_path, capsys):
    # oracle: enumerate the points, then group them into classes in order
    # of first appearance
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"generators": generators}))
    rc = main(["--config", str(path), "equid", "--depth", "4"])
    assert rc == 0
    rows = json.loads(capsys.readouterr().out)["classes"]
    expect = []
    seen = set()
    G = Semigroup.from_json({"generators": generators})
    for ep in enumerate_preperiodic(G, 4):
        cls = class_of_point(ep.point)
        if cls.representative.key() in seen:
            continue
        seen.add(cls.representative.key())
        expect.append({"point": cls.representative.to_json(),
                       "degree": cls.degree,
                       "discrepancy": float(discrepancy_exact(cls.angles)),
                       "progressions": cls.progressions()})
    assert rows == expect


def test_scan_csv(config, capsys):
    rc = main(["--config", config, "scan", "--beta", "2", "--depth", "2",
               "--format", "csv"])
    assert rc == 0
    outp = capsys.readouterr().out
    assert outp.splitlines()[0].startswith("c,M,t,")


def test_factor(capsys):
    rc = main(["factor", "27,0,0,0,0,0,1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(f["coeffs"] for f in doc["factors"]) == \
        sorted([["3", "-3", "1"], ["3", "0", "1"], ["3", "3", "1"]])


def test_factor_negative_constant_after_double_dash(capsys):
    # without --, argparse reads -2,0,1 as an option and exits 2
    assert main(["factor", "--", "-2,0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["factors"] == [{"coeffs": ["-2", "0", "1"], "multiplicity": 1}]


def test_factor_binomial_in_a_power_of_x(capsys):
    # X^22 - 81 = (X^11 - 9)(X^11 + 9), found at Y^2 - 81 with Y = X^11
    rc = main(["factor", "--", ",".join(["-81"] + ["0"] * 21 + ["1"])])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["factors"] == [
        {"coeffs": [c] + ["0"] * 10 + ["1"], "multiplicity": 1}
        for c in ("-9", "9")]


def test_factor_past_recombination_budget_is_a_cap(capsys):
    # the degree-64 Swinnerton-Dyer polynomial splits into quadratics
    # modulo every prime, so recombination runs out of its subset budget
    f = swinnerton_dyer((2, 3, 5, 7, 11, 13))
    rc = main(["factor", ",".join(f.to_strings())])
    assert rc == 3
    err = capsys.readouterr().err
    assert "cap exceeded" in err and "Traceback" not in err


def test_overflow_guard_is_a_cap(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise OverflowGuard("exact comparison beyond the size budget")
    monkeypatch.setattr(cli, "factor_poly", refuse)
    assert main(["factor", "1,1"]) == 3
    err = capsys.readouterr().err
    assert "cap exceeded" in err and "Traceback" not in err


def test_one_parser_serves_every_call(config, monkeypatch, capsys):
    # preper then equid in one process print what each prints in a fresh
    # process, and a _cmd_ patched after the parser is built is the one run
    argvs = (["--config", config, "--depth", "2", "preper"],
             ["--config", config, "--depth", "2", "equid"])
    for argv in argvs:
        fresh = subprocess.run([sys.executable, "-m", "monodyn.cli"] + argv,
                               env=_src_env(), check=True,
                               capture_output=True, text=True).stdout
        assert main(argv) == 0
        assert capsys.readouterr().out == fresh
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "_cmd_equid", lambda args: 7)
    assert main(argvs[1]) == 7


def test_missing_config(capsys):
    rc = main(["scan", "--beta", "2"])
    assert rc == 2


# each of these ended in a bare traceback, ran the wrong word, or reported a
# user mistake as an internal invariant violation (exit 4)
BAD_ARGV = (
    ["scan", "--beta", "abc"],
    ["scan", "--beta", "1/0"],
    ["equid", "--beta", "1/0"],
    ["orbit", "--point", "x"],
    ["orbit", "--point", "0"],
    ["orbit", "--point", "1e99999999"],
    ["factor", "1,a"],
    ["factor", "5"],
    ["scan", "--beta", "2", "-S", "4"],
    ["height", "--beta", "2", "--g2", "3"],
    ["height", "--beta", "2", "--g2", "0"],
    ["height", "--beta", "2", "--g2", ""],
    ["height", "--beta", "2", "--tol", "0"],
    ["height", "--beta", "0"],
    ["equid", "--nodes", "8"],
    ["height", "--beta", "2", "--g1=--"],
    ["scan", "--beta", "2", "--depth=--"],
    ["scan", "--beta=1e-4300"],
    ["scan", "--beta=1e4300"],
    ["orbit", "--point", "2", "--depth", "-1"],
    ["scan", "--beta", "2", "--degree-cap", "-1"],
    ["scan", "--beta", "2", "--node-cap", "-1"],
    ["bounds", "--samples", "-1"],
    ["bounds", "--samples", str(cli.MAX_SAMPLES + 1)],
    ["scan", "--beta", "2", "-S", "2,2,3"],
)


@pytest.mark.parametrize("argv", BAD_ARGV, ids=" ".join)
def test_bad_options_are_invalid_config(config, argv, capsys):
    rc = main(["--config", config, "--depth", "2"] + argv)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and "Traceback" not in err


# config values that ended in a traceback or were silently truncated
BAD_GENERATORS = (
    '{"a": "1e4300", "d": 2}',        # prints past the int digit limit
    '{"a": "2", "d": 2.5}',           # scanned as d = 2
    '{"a": "1/0", "d": 2}',
    '{"a": Infinity, "d": 2}',
    '{"a": "2", "d": 2',              # not JSON
)


@pytest.mark.parametrize("generator", BAD_GENERATORS)
def test_bad_config_is_invalid_config(tmp_path, generator, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"generators": [%s, {"a": "3", "d": 3}]}' % generator)
    rc = main(["--config", str(path), "scan", "--beta", "2", "--depth", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config: ") and "Traceback" not in err


BIG_COEFFICIENT = '[{"a": "1e4000", "d": 2}, {"a": "3", "d": 3}]'
BIG_DEGREE = '[{"a": "2", "d": 2}, {"a": "3", "d": %d}]' % 10 ** 30


@pytest.mark.parametrize("generators, argv", [
    pytest.param(BIG_COEFFICIENT, argv, id=" ".join(argv))
    for argv in (["scan", "--beta", "2"], ["preper"], ["equid"],
                 ["orbit", "--point", "2"])] + [
    pytest.param(BIG_DEGREE, ["orbit", "--point", "3"], id="orbit --point 3")])
def test_unprintable_output_is_a_cap(tmp_path, generators, argv, capsys):
    # the config prints, but radicands of depth-2 points pass the
    # int-to-text digit limit; the scan refuses the class as it is listed,
    # before its valuations (it took 3.9 s when to_json refused it).  With
    # d = 10^30 the radicand 3^(10^30 + 1) is refused from its exponent,
    # before the power is built (building it did not end in 60 s)
    path = tmp_path / "g.json"
    path.write_text('{"generators": %s}' % generators)
    start = time.perf_counter()
    rc = main(["--config", str(path)] + argv + ["--depth", "2"])
    if argv[0] == "scan" or generators == BIG_DEGREE:
        assert time.perf_counter() - start < 1.0
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded: ") and "Traceback" not in err


@pytest.mark.parametrize("depth", ("13", "19", "40"))
def test_deep_orbit_is_a_cap(shared_config, depth, capsys):
    # the tree doubles per level; its first radicand past the digit limit
    # (near depth 9) stops it as it grows, not after 10^6 nodes
    start = time.perf_counter()
    rc = main(["--config", shared_config, "orbit", "--point", "2",
               "--depth", depth])
    assert time.perf_counter() - start < 1.0
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("cap exceeded: ") and "Traceback" not in err


def test_deep_equid_is_a_cap(shared_config, capsys):
    # the rows' degrees pass 10^6 points near |w| = 8; equid stops there
    # with no output instead of listing depth 12
    start = time.perf_counter()
    rc = main(["--config", shared_config, "equid", "--depth", "12"])
    assert time.perf_counter() - start < 2.0
    assert rc == 3
    out, err = capsys.readouterr()
    assert err.startswith("cap exceeded: node cap 1000000")
    assert "Traceback" not in err and not out


@pytest.mark.parametrize("argv", (["equid", "--depth", "25"],
                                  ["preper", "--depth", "25"],
                                  ["scan", "--beta", "2", "--depth", "30"]),
                         ids=" ".join)
def test_repeated_classes_spend_the_root_budget(tmp_path, argv, capsys):
    # z^2 twice: level L has 2^L L word pairs but only a few new classes of
    # roots of unity, so no cap on what is emitted trips; the stream's root
    # budget stops it near |w| = 11 (the scan with its partial report)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"generators": [{"a": "1", "d": 2}] * 2}))
    out = tmp_path / "out.json"
    start = time.perf_counter()
    rc = main(["--config", str(path), "--out", str(out)] + argv)
    assert time.perf_counter() - start < 10.0
    assert rc == 3
    note = "root budget 20000000 reached at |w| = 11"
    err = capsys.readouterr().err
    if argv[0] == "scan":
        doc = json.loads(out.read_text())
        assert doc["truncated"] and doc["notes"] == [note] and not err
        assert max(map(int, doc["class_counts"])) == 11
    else:
        assert err == f"cap exceeded: {note}\n" and not out.exists()


def test_import_leaves_numpy_out():
    # with mpmath barred from import, a near-tie comparison and a depth-3
    # scan still run: h/k is a convergent of log2(3) with k past 2^61, so
    # the float sum cannot decide and the exact tier refuses
    code = (
        "import sys; sys.modules['mpmath'] = None\n"
        "from fractions import Fraction as F\n"
        "import monodyn, monodyn.cli\n"
        "from monodyn.exactreal import PosReal\n"
        "from monodyn.places import INF, Place\n"
        "from monodyn.scan import ScanConfig, run_scan\n"
        "from monodyn.semigroup import Semigroup\n"
        "h, k = map(int, sys.argv[1:])\n"
        "print(PosReal({2: F(h, k), 3: F(-1)}).compare_one())\n"
        "G = Semigroup.from_pairs([('2', 2), ('3', 3)])\n"
        "S = [INF, Place(2), Place(3), Place(5)]\n"
        "print(len(run_scan(ScanConfig(G, S, F(2), 3)).verdicts))\n"
        "print('numpy' in sys.modules)\n")
    h, k = 6724555128221608268, 4242721909926539673   # h/k ~ log2(3)
    out = subprocess.run([sys.executable, "-c", code, str(h), str(k)],
                         env=_src_env(), check=True, capture_output=True,
                         text=True).stdout
    sign, verdicts, numpy = out.split()
    with mpmath.workprec(256):
        expect = mpmath.sign(mpmath.mpf(h) / k - mpmath.log(3, 2))
    assert int(sign) == expect and int(verdicts) > 0 and numpy == "False"


@pytest.fixture(scope="module")
def shared_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "g.json"
    path.write_text(json.dumps(
        {"generators": [{"a": "2", "d": 2}, {"a": "3", "d": 3}]}))
    return str(path)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:      # argparse's own usage errors exit 2
        return exc.code


FUZZ_TEXT = st.text(alphabet="0123456789-+/.,e_ x", max_size=12)
FUZZ_ARGV = {
    "point": lambda t: ["orbit", f"--point={t}"],
    "beta": lambda t: ["height", f"--beta={t}"],
    "g1": lambda t: ["height", "--beta=2", f"--g1={t}"],
    "g2": lambda t: ["height", "--beta=2", f"--g2={t}"],
    "factor": lambda t: ["factor", "--", t],
    "scan-beta": lambda t: ["scan", f"--beta={t}"],
    "scan-S": lambda t: ["scan", "--beta=2", f"-S={t}"],
    # height ignores --depth, so a large depth costs nothing past the parse
    "depth": lambda t: ["height", "--beta=2", f"--depth={t}"],
    # the orbit tree stops at its first unprintable node, near depth 9
    "orbit-depth": lambda t: ["orbit", "--point=2", f"--depth={t}"],
}
FUZZ_WALL_S = 1.0     # per example


@pytest.mark.parametrize("option", FUZZ_ARGV)
@settings(max_examples=25, deadline=None)
@given(text=FUZZ_TEXT)
def test_random_option_text_fails_fast(shared_config, option, text):
    # any text either runs, is an invalid config or hits a cap; another
    # exception or exit 4 fails the test
    argv = ["--config", shared_config, "--depth", "2"] + FUZZ_ARGV[option](text)
    t0 = time.perf_counter()
    assert _exit_code(argv) in (0, 2, 3)
    assert time.perf_counter() - t0 < FUZZ_WALL_S, argv


@settings(max_examples=25, deadline=None)
@given(a=FUZZ_TEXT, d=FUZZ_TEXT)
def test_random_config_text_fails_fast(shared_config, a, d):
    # the coefficient as a JSON string and the degree as raw JSON text
    path = shared_config + ".fuzz.json"
    with open(path, "w") as fh:
        fh.write('{"generators": [{"a": %s, "d": %s}, {"a": "3", "d": 3}]}'
                 % (json.dumps(a), d))
    argv = ["--config", path, "scan", "--beta=2", "--depth", "2"]
    assert _exit_code(argv) in (0, 2, 3)
