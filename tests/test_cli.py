import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import weakref
from pathlib import Path

import pytest

from planeparts import cli, counting
from planeparts.cli import main
from planeparts.series import classical_gf


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_gf_text():
    code, out = run_cli(["gf", "--family", "dspp", "--profile", "++", "--order", "5"])
    assert code == 0
    assert out.strip() == "1,1,2,4,6,9"


def test_gf_classical():
    code, out = run_cli(["gf", "--family", "pp", "--order", "0"])
    assert code == 0 and out.strip() == "1"
    code, out = run_cli(["gf", "--family", "pp", "--order", "5"])
    assert out.strip() == "1,1,3,6,13,24"
    code, out = run_cli(["gf", "--family", "pp", "--order", "1500", "--format", "json"])
    assert code == 0
    assert json.loads(out)["coefficients"] == [str(c) for c in classical_gf("pp", 1500).coeffs]


def test_gf_scp_minus_profile_forms():
    for spelling in ("--profile=--", "--profile=-1,-1"):
        code, out = run_cli(["gf", "--family", "scp", spelling, "--order", "5"])
        assert code == 0
        assert out.strip().endswith(",4")


def test_gf_json_big_ints_as_strings():
    code, out = run_cli(
        ["gf", "--family", "dspp", "--profile", "++", "--order", "5", "--format", "json"]
    )
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "1", "2", "4", "6", "9"]
    assert payload["profile"] == "++"
    assert payload["order"] == 5
    assert payload["multisets"] == [
        {"base": 3, "residues": {"1": 1, "2": 1, "3": 1}},
        {"base": 6, "residues": {"3": 1}},
    ]


def test_count_matches_gf():
    code, out = run_cli(["count", "--family", "dspp", "--profile", "++", "--order", "10"])
    assert code == 0
    assert out.strip().split(",")[10] == "64"
    code, out = run_cli(["count", "--family", "dspp", "--profile", "", "--order", "4"])
    assert out.strip() == "1,1,2,3,5"
    code, out = run_cli(["count", "--family", "cp", "--profile", "+-", "--order", "4"])
    assert out.strip() == "1,1,2,3,5"


def test_count_csv():
    code, out = run_cli(
        ["count", "--family", "scp", "--profile=--", "--order", "3", "--format", "csv"]
    )
    lines = out.strip().splitlines()
    assert lines[0] == "index,coefficient"
    assert lines[1] == "0,1" and lines[-1] == "3,2"


def test_cp_empty_profile_is_usage_error():
    code, _ = run_cli(["gf", "--family", "cp", "--profile", "", "--order", "3"])
    assert code == 2
    code, _ = run_cli(["count", "--family", "cp", "--profile", "", "--order", "3"])
    assert code == 2
    # negative orders are refused by the expansion kernel, which every
    # product and every identity right-hand side goes through
    for argv in (
        ["gf", "--family", "dspp", "--profile", "++", "--order", "-1"],
        ["gf", "--family", "pp", "--order", "-1"],
        ["verify", "--max-len", "1", "--order", "-1"],
        ["verify", "--max-len", "-1", "--order", "2"],
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run_cli(argv)
        assert code == 2, argv
        assert err.getvalue().startswith("error:"), argv
    # the counting oracles refuse them with the kernel's message
    for family in ("dspp", "cp", "scp"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run_cli(["count", "--family", family, "--profile", "++", "--order", "-1"])
        assert code == 2, family
        assert err.getvalue() == "error: order must be nonnegative, got -1\n", family
    # orders whose state vectors would pass the counting budget are
    # refused before the walk starts, not ended by the OOM killer
    for family, order in (("dspp", "50"), ("dspp", "60"), ("cp", "60"), ("scp", "60")):
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            code, _ = run_cli(["count", "--family", family, "--profile", "++", "--order", order])
        assert time.perf_counter() - start < 1, (family, order)
        assert code == 2, (family, order)
        assert err.getvalue().startswith("error:"), (family, order)


def test_asym_json():
    code, out = run_cli(["asym", "--family", "dspp", "--profile", "++", "--n", "5", "20"])
    assert code == 0
    payload = json.loads(out)
    assert payload["estimates"] == {"5": 10, "20": 1325}
    assert abs(payload["params"]["b"] - 0.25) < 1e-15
    code, out = run_cli(["asym", "--family", "dspp", "--m", "3", "--n", "5"])
    payload = json.loads(out)
    assert payload["profile"] == "--"
    code, _ = run_cli(["asym", "--family", "scp", "--m", "3"])
    assert code == 2
    # psi_100000 for dspp ++ is about 3.5e374: printed as mantissa and exponent
    code, out = run_cli(["asym", "--family", "dspp", "--profile", "++", "--n", "20", "100000"])
    assert code == 0
    payload = json.loads(out)
    assert payload["estimates"]["20"] == 1325
    text = payload["psi"]["100000"]
    assert payload["estimates"]["100000"] == text
    mantissa, exponent = text.split("e+")
    assert 1 <= float(mantissa) < 10 and int(exponent) == 374
    code, _ = run_cli(["asym", "--family", "dspp", "--profile", "++", "--n", str(10**700)])
    assert code == 2  # even log psi_n is past the float range


def test_table_values():
    code, out = run_cli(["table", "--format", "json"])
    assert code == 0
    rows = {r["family"]: r for r in json.loads(out)["rows"]}
    assert rows["dspp"]["exact"] == ["9", "64", "314", "1244"]
    assert rows["dspp"]["estimate"] == [10, 70, 336, 1325]
    assert rows["scp"]["exact"] == ["4", "17", "56", "161"]
    assert rows["scp"]["estimate"] == [4, 18, 59, 169]


def test_table_custom_n():
    code, out = run_cli(["table", "--n", "1", "--format", "json"])
    assert code == 0
    rows = {r["family"]: r for r in json.loads(out)["rows"]}
    assert rows["dspp"]["exact"] == ["1"]
    assert isinstance(rows["dspp"]["estimate"][0], int)


def test_table_past_the_float_range_is_usage_error():
    # psi_70000 for dspp ++ is past the float range: refused before the
    # products are expanded, which would take minutes
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["table", "--n", "5", "70000"])
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err.getvalue() == "error: n = 70000 is too large: psi_n is past the float range\n"


def test_verify_exit_codes_and_fault_injection():
    code, out = run_cli(["verify", "--max-len", "1", "--order", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["failures"] == 0 and summary["cases"] == len(lines) - 1
    for line in lines[:-1]:
        assert json.loads(line)["passed"] is True

    code, out = run_cli(["verify", "--max-len", "1", "--order", "5", "--inject-fault", "0"])
    assert code == 1
    lines = out.strip().splitlines()
    assert json.loads(lines[-1])["failures"] == 1
    failing = [json.loads(line) for line in lines[:-1] if not json.loads(line)["passed"]]
    assert len(failing) == 1 and failing[0]["first_mismatch"] == 0


CLI_CHILD = "import sys; from planeparts.cli import main; sys.exit(main())"
# the same, printing the child's peak RSS in kB (VmHWM, its own high-water
# mark; ru_maxrss would start from the spawner's peak) as its last stderr line
PEAK_CHILD = (
    "import sys; from planeparts.cli import main; code = main(); "
    "print([l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')][0], "
    "file=sys.stderr); sys.exit(code)"
)


def run_limited(argv, child=CLI_CHILD):
    """Run the CLI in a child process under a 2 GB address space, the limit
    set in the child only; (the completed process, its wall seconds).  A
    child ended by a signal has a negative returncode."""
    limit = 2 << 30
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", child] + argv,
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return proc, time.perf_counter() - start


def test_verify_refuses_an_oversized_battery_under_a_memory_limit():
    # --max-len 30 would list 2^30 profiles: it must be refused as bad
    # input (exit 2), not end in MemoryError (exit 3)
    proc, wall = run_limited(["verify", "--max-len", "30"])
    assert wall < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: max_len 30 lists more than the 100000 identity checks")


def test_stepless_counts_run_to_their_guard_under_a_memory_limit():
    # a chain with no step counts the partitions of each size instead of
    # walking: the empty profile runs through order 51 and cp of length 1
    # through 47, where the guard's vector estimate reaches its budget;
    # one order more is refused as bad input at once
    for family, profile, top, p_top in (("dspp", "", 51, 239943), ("cp", "+", 47, 124754)):
        argv = ["count", "--family", family, "--profile=" + profile, "--format", "json", "--order"]
        proc, wall = run_limited(argv + [str(top)])
        assert proc.returncode == 0 and wall < 2, (family, proc.returncode, wall, proc.stderr)
        assert json.loads(proc.stdout)["coefficients"][-1] == str(p_top)
        proc, wall = run_limited(argv + [str(top + 1)])
        assert proc.returncode == 2 and wall < 2 and proc.stdout == "", (family, wall)
        assert proc.stderr.startswith("error: order %d needs more than the 256 MB" % (top + 1))


def test_guard_estimate_is_above_the_peak(monkeypatch):
    # a count accepted by the guard peaks below the guard's estimate: with
    # the budget lowered to a fresh child's peak RSS at that order, the
    # guard refuses the order; cp "+-" walks a whole size class of betas
    # at once
    cases = (("dspp", "++", 46, counting._steps((1, 1), 1)), ("dspp", "", 51, []),
             ("cp", "+-", 40, counting._steps((1,), 1) + [(False, 0, 0)]))
    for family, profile, order, steps in cases:
        argv = ["count", "--family", family, "--profile=" + profile, "--order", str(order)]
        proc, _ = run_limited(argv, PEAK_CHILD)
        assert proc.returncode == 0, proc.stderr
        peak = int(proc.stderr.split()[-1]) << 10
        monkeypatch.setattr(counting, "VECTOR_BUDGET", peak)
        with pytest.raises(ValueError):
            counting._guard(steps, order)


def test_wide_profiles_finish_under_a_memory_limit():
    # the pair multisets are tallies, O(h) in memory: width 100000 and a
    # 10^4-letter profile once built h^2/2 pair values (6.2 GB and 1.9 GB)
    rng = random.Random(19)
    profile = "".join(rng.choice("+-") for _ in range(10**4))
    for argv in (
        ["asym", "--family", "dspp", "--m", "100000"],
        *(["gf", "--family", f, "--profile=" + profile, "--order", "5"] for f in ("dspp", "cp", "scp")),
    ):
        proc, wall = run_limited(argv)
        assert proc.returncode == 0 and wall < 5, (argv[:4], proc.returncode, wall, proc.stderr)
        assert proc.stdout.endswith("\n")


def test_asym_past_the_float_range_of_v():
    # v is below the float range from width 84: printed as mantissa and
    # exponent, not as 0.0, and psi_n still evaluates from log v
    code, out = run_cli(["asym", "--family", "dspp", "--m", "84", "--n", "5"])
    assert code == 0
    payload = json.loads(out)
    mantissa, exponent = payload["params"]["v"].split("e-")
    assert 1 <= float(mantissa) < 10 and int(exponent) == 327
    assert payload["psi"]["5"].endswith("e-316") and payload["estimates"]["5"] == 0
    code, out = run_cli(["asym", "--family", "dspp", "--m", "83"])
    assert json.loads(out)["params"]["v"].endswith("e-319")  # subnormal at the parent
    code, out = run_cli(["asym", "--family", "dspp", "--m", "82"])
    assert json.loads(out)["params"]["v"].endswith("e-311")
    code, out = run_cli(["asym", "--family", "dspp", "--m", "81"])
    assert isinstance(json.loads(out)["params"]["v"], float)
    proc, _ = run_limited(["asym", "--family", "dspp", "--m", "120", "--n", "100000000"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["psi"]["100000000"].endswith("e+60601")


def test_verify_depth_shrinks_cases():
    _, out_small = run_cli(["verify", "--max-len", "1", "--order", "4"])
    _, out_big = run_cli(["verify", "--max-len", "2", "--order", "4"])
    small = json.loads(out_small.strip().splitlines()[-1])["cases"]
    big = json.loads(out_big.strip().splitlines()[-1])["cases"]
    assert small < big


def test_output_deterministic():
    argvs = (
        ["gf", "--family", "scp", "--profile=-+", "--order", "9", "--format", "json"],
        ["table", "--format", "json"],
        ["asym", "--family", "scp", "--profile=--", "--n", "7"],
        ["verify", "--max-len", "1", "--order", "4"],
    )
    for argv in argvs:
        code1, out1 = run_cli(list(argv))
        code2, out2 = run_cli(list(argv))
        assert (code1, out1) == (code2, out2)


def test_gf_and_count_agree_through_the_cli():
    for family in ("dspp", "cp", "scp"):
        for profile in ("+", "-", "++", "+-", "-+", "--"):
            argv_tail = ["--family", family, "--profile=%s" % profile, "--order", "8"]
            _, gf_out = run_cli(["gf"] + argv_tail)
            _, count_out = run_cli(["count"] + argv_tail)
            assert gf_out == count_out, (family, profile)


def test_usage_error_exit_code():
    import pytest

    with pytest.raises(SystemExit) as exc:
        run_cli(["gf", "--family", "bogus", "--order", "3"])
    assert exc.value.code == 2



def test_cached_parser_keeps_no_state_between_calls():
    import pytest

    assert cli.build_parser() is cli.build_parser()
    code, out = run_cli(["asym", "--family", "dspp", "--profile=+", "--n", "7"])
    assert code == 0 and list(json.loads(out)["psi"]) == ["7"]
    code, out = run_cli(["asym", "--family", "dspp", "--profile=+"])
    assert code == 0 and "psi" not in json.loads(out)
    assert cli.build_parser().parse_args(["asym", "--family", "dspp"]).n == []
    with pytest.raises(SystemExit) as exc:
        run_cli(["count", "--family", "dspp", "--order", "seven"])
    assert exc.value.code == 2

def test_unexpected_exception_is_internal_error(monkeypatch):
    def broken(delta, order):
        raise RuntimeError("kernel exploded")

    monkeypatch.setitem(cli.FAMILIES, "pp", cli.Family(broken))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["gf", "--family", "pp", "--order", "3"])
    assert code == 3 and out == ""
    assert err.getvalue() == "internal error: RuntimeError: kernel exploded\n"


def test_memory_error_is_internal_error_without_traceback(monkeypatch):
    # running out of memory ends in exit 3 and one constant line, and the
    # data the failed call still held is freed before that line is written
    class Hog:
        pass

    held = []

    def broken(delta, order):
        hog = Hog()
        held.append(weakref.ref(hog))
        try:
            raise KeyError("while handling another error")
        except KeyError:
            raise MemoryError

    class Recorder(io.StringIO):
        def write(self, text):
            alive.append(held[0]() is not None)
            return super().write(text)

    alive = []
    monkeypatch.setitem(cli.FAMILIES, "dspp", cli.Family(broken))
    err = Recorder()
    with contextlib.redirect_stderr(err):
        code, out = run_cli(["gf", "--family", "dspp", "--profile=+-", "--order", "3"])
    assert code == 3 and out == ""
    assert err.getvalue() == "internal error: out of memory\n"
    assert alive and not any(alive)
