"""Command-line interface: what the golden corpus cannot replay.

``tests/test_golden_cli.py`` pins every output of the corpus commands
byte for byte.  This module holds the rest: injected faults (a patched
route, component, check or environment), subprocesses (the int-to-str
limit, a closed stdout, the cold-start imports), the file system
(``--out`` files and unwritable paths), and argvs that no golden case
runs.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qminv.arith as arith
import qminv.cli as cli
import qminv.invariants as invariants
import qminv.quotloc as quotloc
import qminv.selfcheck as selfcheck
from qminv.arith import InvariantQuery
from qminv.exactalg import EquivCoeff, QSeries
from qminv.invariants import InvariantResult, ROUTE_CLOSED, qm_moduli

SRC = Path(__file__).resolve().parent.parent / "src"
# each part is -?[0-9]+ only: not the "_", "+", blank or non-ASCII digit int() takes
MALFORMED_GENERA = ["2..5..7", "2..x", "..5", "2..", "2,x", "1_0", "+2", " 3", "\u0663", "2..+5"]
MALFORMED_DEGREES = ["1,x", "1.5", "1_0", "+2", " 3", "\u0663"]


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantCommand:
    def test_degree_zero_constant_map(self, capsys):
        for route in ("closed", "both"):
            code, out, _ = run(
                capsys,
                "invariant", "-r", "2", "-d", "0", "-a", "1", "-w", "0", "-g", "2",
                "--route", route, "--format", "json",
            )
            assert code == 0
            record = json.loads(out)
            assert record["value"] == "4"
            assert record["route"] == "closed_form"

    def test_decimal_too_large_for_float(self, capsys):
        # 7^400 * 16/7 overflows a float; the exact value is still fine
        code, out, err = run(
            capsys,
            "invariant", "-r", "7", "-d", "0", "-a", "1", "-w", "7", "-g", "200",
            "--side", "moduli", "--decimal",
        )
        assert (code, out) == (4, "")
        assert err == (
            "invalid input: --decimal: value is too large for a float approximation\n"
        )

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="no int-to-str digit limit before Python 3.10.7",
    )
    def test_value_longer_than_int_str_limit(self):
        # 14398 * 2^14400 has 4339 digits, past CPython's default limit of
        # 4300 digits for converting an int to a string
        proc = subprocess.run(
            [sys.executable, "-m", "qminv.cli", "invariant", "-r", "2", "-d", "1", "-a", "1",
             "-w", "1", "-g", "7200", "--side", "moduli", "--format", "json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        value = json.loads(proc.stdout)["value"]
        expected = qm_moduli(InvariantQuery(r=2, d=1, a=1, w=1, g=7200)).value_t
        default_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert len(value) == 4339
            assert value == str(expected)
        finally:
            sys.set_int_max_str_digits(default_limit)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="no int-to-str digit limit before Python 3.10.7",
    )
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "1", "-g", "7200", "--side", "moduli"], 0),
            (["invariant", "-r", "4", "-d", "1", "-a", "2", "-w", "1", "-g", "2"], 4),
        ],
        ids=["exit0", "exit4"],
    )
    def test_main_restores_the_int_str_limit(self, capsys, argv, expected):
        # main lifts the limit while it runs: the 4339-digit value prints
        # (exit 0) under a caller's limit of 1000 digits; on return, a
        # success or a refusal (exit 4), that limit is back
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(1000)
            assert run(capsys, *argv)[0] == expected
            assert sys.get_int_max_str_digits() == 1000
        finally:
            sys.set_int_max_str_digits(saved)

    def test_raw_flag(self, capsys):
        _, out, _ = run(
            capsys,
            "invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "1", "-g", "2",
            "--raw", "--format", "json",
        )
        assert json.loads(out)["raw"] == "(2)*t"

    def test_out_in_missing_directory(self, capsys, tmp_path):
        # an empty path is as unwritable as a missing directory
        for target in (str(tmp_path / "missing" / "record.json"), ""):
            code, out, err = run(
                capsys,
                "invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "3", "-g", "2",
                "--format", "json", "--out", target,
            )
            assert code == 4
            assert json.loads(out)["value"] == "8/3"
            assert err.startswith("invalid input: cannot write --out file:")
            assert err.count("\n") == 1
            assert not os.path.exists(target)


class TestExitCodes:
    @pytest.mark.parametrize(
        "route, side",
        [("closed", "elliptic"), ("both", "elliptic"), ("closed", "moduli"), ("both", "moduli")],
    )
    def test_permissive_reaches_every_route(self, capsys, route, side):
        argv = [
            "invariant", "-r", "3", "-d", "2", "-a", "1", "-w", "5", "-g", "2",
            "--route", route, "--side", side, "--format", "json",
        ]
        code, _, strict_err = run(capsys, *argv)
        assert code == 3
        assert strict_err == (
            "unsupported query: no proven closed form for r=3, w=5: "
            "some divisor of w lies outside {0, 1} mod 3\n"
        )
        code, out, _ = run(capsys, *argv, "--permissive")
        record = json.loads(out)
        assert code == 0
        assert record["conjectural"] is True
        factor = 3 ** 4 if side == "moduli" else 1
        assert Fraction(record["value"]) == Fraction(12, 5) * factor

    @pytest.mark.parametrize("text", MALFORMED_DEGREES)
    @pytest.mark.parametrize(
        "argv, flag",
        [
            # genus 3, so that no argv here is a golden case's
            *((["invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "3", "-g", "3"], flag)
              for flag in ("-r", "-d", "-a", "-w", "-g")),
            (["series", "--identity", "A", "--genus", "3", "--order", "3"], "--genus"),
            (["series", "--identity", "A", "--genus", "3", "--order", "3"], "--order"),
            (["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "3", "--g", "3"], "--w-max"),
        ],
        ids=["r", "d", "a", "w", "g", "series-genus", "order", "w-max"],
    )
    def test_every_integer_flag_is_plain_digits(self, capsys, argv, flag, text):
        # the grammar of --g and --w-list, reported by argparse as a usage error
        argv = list(argv)
        argv[argv.index(flag) + 1] = text
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        *_, last = err.splitlines()
        assert f": error: argument {flag}" in last
        assert last.endswith(f": invalid int value: {text!r}")

    def test_route_disagreement_output(self, capsys, monkeypatch):
        def fake_closed(query, strict=True):
            return InvariantResult(Fraction(999), (), ROUTE_CLOSED, False)

        monkeypatch.setattr(invariants, "qm_elliptic_closed", fake_closed)
        argv = ["invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "3", "-g", "2", "--route", "both"]
        assert run(capsys, *argv) == (
            2,
            "query        r=2 d=1 a=1 w=3 g=2 side=elliptic\n"
            "value        8/3\n"
            "route        both\n"
            "conjectural  no\n"
            "breakdown    m=1: 2; m=3: 2/3\n"
            "closed_form  value 999\n"
            "wall_crossing_oracle value 8/3\n"
            "check        route_agreement: FAIL\n",
            "route disagreement: closed=999 oracle=8/3\n",
        )
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (2, "route disagreement: closed=999 oracle=8/3\n")
        breakdown = [{"m": 1, "contribution": "2"}, {"m": 3, "contribution": "2/3"}]
        # dumps keeps key order, so this pins the line byte for byte
        assert out == json.dumps({
            "query": {"r": 2, "d": 1, "a": 1, "w": 3, "g": 2, "side": "elliptic"},
            "value": "8/3",
            "route": "both",
            "conjectural": False,
            "breakdown": breakdown,
            "routes": {
                "closed_form": {"value": "999", "breakdown": []},
                "wall_crossing_oracle": {"value": "8/3", "breakdown": breakdown},
            },
            "identity_checks": [{"name": "route_agreement", "pass": False}],
        }) + "\n"
        # sweep reaches the routes through the same map, so it sees the patch too
        code, out, _ = run(capsys, "sweep", "-r", "2", "-d", "1", "-a", "1", "--w-list", "3", "--g", "2")
        assert (code, out) == (2, "g=2 w=3 closed=999 oracle=8/3 DISAGREE\n0/1 agree\n")

    def test_permissive_moduli_side_composite_rank_is_conjectural(self, capsys):
        # one gate on both sides: strict mode refuses the composite rank with
        # the gate's reason, --permissive gives the all-rank conjecture
        argv = [
            "invariant", "-r", "4", "-d", "1", "-a", "1", "-w", "5", "-g", "2",
            "--side", "moduli", "--format", "json",
        ]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == (
            "unsupported query: no proven closed form for r=4, w=5: "
            "the rank 4 is not prime\n"
        )
        code, out, err = run(capsys, *argv, "--permissive")
        assert (code, err) == (0, "")
        record = json.loads(out)
        assert record["value"] == "3072/5"
        assert record["conjectural"] is True

    @pytest.mark.parametrize("mode", ["--strict", "--permissive"], ids=["strict", "permissive"])
    @pytest.mark.parametrize("d", ["0", "1"])
    def test_permissive_constant_map_needs_prime_rank(self, capsys, d, mode):
        # --permissive lifts the proven-set gate, but the constant-map
        # count at w = 0 has its own prime-rank rule; it comes before the
        # congruence, so d = 1 (an empty moduli space) is unsupported too
        code, out, err = run(
            capsys,
            "invariant", "-r", "4", "-d", d, "-a", "1", "-w", "0", "-g", "2", mode,
        )
        assert (code, out) == (3, "")
        assert err == "unsupported query: constant-map count needs a prime rank, got 4\n"

    @pytest.mark.parametrize(
        "r, flags",
        [
            ("2", ["--side", "moduli"]),
            ("2", ["--side", "moduli", "--route", "closed", "--permissive"]),
            ("2", ["--side", "moduli", "--route", "oracle"]),
            ("2", ["--route", "oracle"]),
            ("3", ["--route", "oracle", "--permissive"]),
            ("4", ["--side", "moduli"]),
        ],
    )
    def test_degree_zero_is_elliptic_closed_form_only(self, capsys, r, flags):
        # the constant-map count is the elliptic-side closed form; any other
        # side or route at w = 0 reaches the w >= 1 gate, before any rank rule
        code, out, err = run(
            capsys,
            "invariant", "-r", r, "-d", "0", "-a", "1", "-w", "0", "-g", "2", *flags,
        )
        assert (code, out) == (4, "")
        assert err == (
            "invalid input: a positive-degree route needs w >= 1; "
            "w = 0 is the elliptic-side constant-map count\n"
        )

    def test_unsupported_off_congruence(self, capsys):
        # w = 5 != d*a mod 3: the moduli space is empty, but the query is
        # still outside the proven set, on every route
        for route in ("closed", "oracle"):
            code, _, err = run(
                capsys,
                "invariant", "-r", "3", "-d", "0", "-a", "1", "-w", "5", "-g", "2",
                "--route", route,
            )
            assert code == 3
            assert "some divisor of w lies outside {0, 1} mod 3" in err

    def test_internal_check_failure(self, capsys, monkeypatch):
        def broken(r, u):
            raise RuntimeError("fixed-locus enumeration gave 0")

        monkeypatch.setattr(quotloc, "slice_euler_bruteforce", broken)
        code, out, err = run(
            capsys,
            "invariant", "-r", "2", "-d", "0", "-a", "1", "-w", "6", "-g", "3",
        )
        assert code == 2
        assert out == ""
        assert err == "internal check failed: fixed-locus enumeration gave 0\n"

    @pytest.mark.parametrize("route", ["oracle", "both"])
    def test_proven_query_with_unsupported_component(self, capsys, monkeypatch, route):
        # the oracle checks the shared proven/unproven decision against its
        # own components: a proven query must not reach the dim^2 fallback
        original = invariants.wall_components

        def one_unsupported(query):
            return [original(query)[0]._replace(supported=False)]

        monkeypatch.setattr(invariants, "wall_components", one_unsupported)
        code, out, err = run(
            capsys,
            "invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "3", "-g", "2",
            "--route", route,
        )
        assert (code, out) == (2, "")
        assert err == (
            "internal check failed: the proven query r=2, w=3 has an "
            "unsupported wall component\n"
        )


def _double_stabilizer(original):
    return lambda n: 2 * original(n)


def _negate_pole(original):
    def perturbed(m, dim):
        f = original(m, dim)
        return {-1: EquivCoeff(*(-v for v in f[-1]))}

    return perturbed


def _shift_slice_euler(original):
    return lambda r, u: original(r, u) + 1


def _swap_slots(original):
    # the omega slot read as t: the pole's omega is minus its t
    def perturbed(f):
        residue = original(f)
        return EquivCoeff(t=residue.omega, omega=residue.t)

    return perturbed


class TestOracleCanDisagree:
    """A wrong component formula must make ``--route both`` exit 2."""

    @pytest.mark.parametrize(
        "name, perturb, w, d",
        [
            ("torsion_order", _double_stabilizer, "3", "1"),
            ("normal_bundle_inverse_expansion", _negate_pole, "3", "1"),
            ("laurent_residue", _swap_slots, "3", "1"),
            # w = 6 has a rank-0 component; at w = 3 the brute force never runs
            ("slice_euler_bruteforce", _shift_slice_euler, "6", "0"),
        ],
    )
    def test_perturbed_component_disagrees(self, capsys, monkeypatch, name, perturb, w, d):
        monkeypatch.setattr(quotloc, name, perturb(getattr(quotloc, name)))
        code, _, err = run(
            capsys,
            "invariant", "-r", "2", "-d", d, "-a", "1", "-w", w, "-g", "3",
            "--route", "both",
        )
        assert code == 2
        assert err.startswith("route disagreement: ")

    def test_wrong_dimension_fails_the_component_check(self, capsys, monkeypatch):
        # both components at w = 3 have quotient rank r - 1, where the value
        # is the same whatever dim is; only the check dim = w/m notices
        original = quotloc.quot_dimension
        monkeypatch.setattr(quotloc, "quot_dimension", lambda r, a, u: original(r, a, u) + 1)
        code, _, err = run(
            capsys,
            "invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "3", "-g", "3",
            "--route", "both",
        )
        assert code == 2
        assert err.startswith("internal check failed: ")

    def test_disagreement_is_reported_when_out_cannot_be_written(self, capsys, monkeypatch, tmp_path):
        # the disagreement line comes first; the unwritable file sets the exit code
        monkeypatch.setattr(quotloc, "torsion_order", _double_stabilizer(quotloc.torsion_order))
        code, out, err = run(
            capsys,
            "invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "3", "-g", "2",
            "--out", str(tmp_path / "missing" / "record.json"),
        )
        assert code == 4
        assert "route_agreement: FAIL" in out
        disagreement, unwritable = err.splitlines()
        assert disagreement.startswith("route disagreement: closed=8/3 oracle=")
        assert unwritable.startswith("invalid input: cannot write --out file: ")

    @pytest.mark.parametrize(
        "scan, closed, oracle", [(slice(-1), "8/9", "8/3"), (slice(1, None), "8/3", "8/9")], ids=["missing-w", "missing-1"]
    )
    def test_shared_divisor_scan_fault_disagrees(self, capsys, monkeypatch, scan, closed, oracle):
        # both routes read arith.divisors: the closed form sums m/w over the scan and the
        # oracle 1/m, so a scan that loses w, or 1, moves them apart; only a fault that is
        # symmetric under m <-> w/m, such as losing both, would move them alike
        real = arith.divisors
        for module in (arith, invariants, quotloc):
            monkeypatch.setattr(module, "divisors", lambda w: real(w)[scan])
        code, _, err = run(capsys, "invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "9", "-g", "2")
        assert (code, err) == (2, f"route disagreement: closed={closed} oracle={oracle}\n")

    def test_oracle_decides_emptiness_itself(self, capsys, monkeypatch):
        # the oracle reads emptiness off its own base degrees, so a broken
        # degree_congruent moves only the closed form
        monkeypatch.setattr(invariants, "degree_congruent", lambda query: True)
        code, _, err = run(capsys, "invariant", "-r", "2", "-d", "0", "-a", "1", "-w", "3", "-g", "2")
        assert (code, err) == (2, "route disagreement: closed=8/3 oracle=0\n")

    def test_reordered_breakdown_disagrees(self, capsys, monkeypatch):
        # the same components in reverse order: the value is unchanged, so
        # only a divisor-by-divisor comparison of the breakdowns notices
        original = invariants.wall_components
        monkeypatch.setattr(invariants, "wall_components", lambda query: original(query)[::-1])
        code, out, err = run(
            capsys, "invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "3", "-g", "3", "--route", "both"
        )
        assert (code, err) == (
            2,
            "route disagreement: equal values 16/3, breakdowns differ: "
            "closed m=1: 4; m=3: 4/3, oracle m=3: 4/3; m=1: 4\n",
        )
        assert "route_agreement: FAIL" in out
        code, out, _ = run(
            capsys, "sweep", "-r", "2", "-d", "1", "-a", "1", "--w-list", "1,3", "--g", "3"
        )
        assert code == 2
        assert out.splitlines()[1:] == ["g=3 w=3 closed=16/3 oracle=16/3 DISAGREE", "1/2 agree"]


class TestSeriesCommand:
    def test_identity_b_trivial_order(self, capsys):
        code, out, _ = run(
            capsys, "series", "--identity", "B", "--genus", "2", "--order", "1"
        )
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("genus", [1, 0])
    def test_genus_below_two_is_invalid_at_every_order(self, capsys, genus):
        # order 1 of identity B has no moduli-side term to reject the genus
        code, out, err = run(
            capsys, "series", "--identity", "B", "--genus", str(genus), "--order", "1"
        )
        assert code == 4
        assert out == ""
        assert err == f"invalid input: genus must be >= 2, got {genus}\n"

    def test_identity_a_high_genus(self, capsys):
        code, _, _ = run(
            capsys, "series", "--identity", "A", "--genus", "5", "--order", "50"
        )
        assert code == 0

    @pytest.mark.parametrize("env", [None, "6"])
    def test_default_order_ignores_the_environment(self, capsys, monkeypatch, env):
        # the default is a constant; the library reads no environment variable
        if env is None:
            monkeypatch.delenv("QM_TRUNCATION_DEFAULT", raising=False)
        else:
            monkeypatch.setenv("QM_TRUNCATION_DEFAULT", env)
        code, out, _ = run(
            capsys, "series", "--identity", "A", "--genus", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["order"] == 50

    def test_left_side_can_disagree(self, capsys, monkeypatch):
        # the closed form loses w from its divisors; the sigma sieve of the
        # right side does not, so the identity fails
        divisors = invariants.divisors
        monkeypatch.setattr(invariants, "divisors", lambda w: divisors(w)[:-1])
        code, out, err = run(capsys, "series", "--identity", "A", "--genus", "2", "--order", "9")
        assert (code, err) == (2, "")
        assert out.splitlines()[-1] == "verdict: FAIL"

    def test_invalid_order(self, capsys):
        for order in ("0", "-3"):
            result = run(
                capsys, "series", "--identity", "A", "--genus", "2", "--order", order
            )
            assert result == (4, "", "invalid input: truncation order must be >= 1\n")


class TestSweepCommand:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["-r", "1", "-a", "1", "--w-max", "0", "--g", "1"], "rank must be >= 2, got 1"),
            (["-r", "4", "-a", "2", "--w-max", "0", "--g", "2"], "no unit normalisation: gcd(4,2) != 1"),
            (["-r", "2", "-a", "1", "--w-max", "0", "--g", "1"], "genus must be >= 2, got 1"),
            # the bad genus comes last: no g = 3 point is printed first
            (["-r", "2", "-a", "1", "--w-max", "3", "--g", "3,1"], "genus must be >= 2, got 1"),
            # a list names its smallest genus, a range its first, however long the range
            (["-r", "2", "-a", "1", "--w-max", "3", "--g", "3,1,0"], "genus must be >= 2, got 0"),
            (["-r", "2", "-a", "1", "--w-max", "3", "--g", f"1..{10 ** 12}"], "genus must be >= 2, got 1"),
            # with no degree to sweep, a check of the range's second genus would print 0/0 agree
            (["-r", "2", "-a", "1", "--w-max", "0", "--g", "1..3"], "genus must be >= 2, got 1"),
            # the bad degree comes last: no w = 1 point is printed first
            (["-r", "2", "-a", "1", "--w-list", "1,-1", "--g", "2"], "sweep degrees must be >= 1, got -1"),
            (["-r", "2", "-a", "1", "--w-list", "1,0", "--g", "2"], "sweep degrees must be >= 1, got 0"),
            (["-r", "2", "-a", "1", "--w-max", "-3", "--g", "2"], "--w-max must be >= 0, got -3"),
            # the largest degree is checked too: no w = 1 point is printed first
            (["-r", "2", "-a", "1", "--w-list", f"1,{10 ** 18}", "--g", "2"],
             f"quasimap degree must be <= 1000000000000, got {10 ** 18}"),
            # an empty grid cannot pass a rank above the bound either
            (["-r", str(10 ** 12 + 1), "-a", "1", "--w-max", "0", "--g", "2"],
             "rank must be <= 1000000000000, got 1000000000001"),
            # an explicit list must name a degree, as the genus list must
            (["-r", "2", "-a", "1", "--w-list", ",", "--g", "2"], "empty degree list"),
            (["-r", "2", "-a", "1", "--w-list", "", "--g", "2"], "empty degree list"),
            # one message for every malformed --g, not Python's int() text
            *(
                (["-r", "2", "-a", "1", "--w-max", "3", "--g", text],
                 f"--g takes LO..HI or a comma-separated list of genera, e.g. 2..5, 2,4 or 3; got {text!r}")
                for text in MALFORMED_GENERA
            ),
            # one message for every malformed --w-list too
            *(
                (["-r", "2", "-a", "1", "--w-list", text, "--g", "2"],
                 f"--w-list takes a comma-separated list of degrees, e.g. 1,3,7 or 5; got {text!r}")
                for text in MALFORMED_DEGREES
            ),
        ],
        ids=[
            "rank", "a", "genus", "genus-after-points", "genus-list-smallest", "genus-range-long",
            "genus-range-no-degrees", "w-list-negative", "w-list-zero",
            "w-max-negative", "w-list-too-large", "rank-too-large", "w-list-comma", "w-list-empty",
            *(f"g-{text}" for text in MALFORMED_GENERA),
            *(f"w-list-{text}" for text in MALFORMED_DEGREES),
        ],
    )
    def test_query_is_validated_before_the_first_point(self, capsys, flags, message):
        code, out, err = run(capsys, "sweep", "-d", "0", *flags)
        assert (code, out) == (4, "")
        assert err == f"invalid input: {message}\n"

    def test_empty_genus_range(self, capsys):
        code, out, err = run(
            capsys, "sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "3", "--g", "5..2"
        )
        assert code == 4
        assert out == ""
        assert err == "invalid input: empty genus range\n"

    def test_out_in_missing_directory(self, capsys, tmp_path):
        for target in (str(tmp_path / "missing" / "sweep.jsonl"), ""):
            code, out, err = run(
                capsys,
                "sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "3", "--g", "2",
                "--out", target,
            )
            assert code == 4
            assert out.strip().endswith("3/3 agree")
            assert err.startswith("invalid input: cannot write --out file:")
            assert err.count("\n") == 1
            assert not os.path.exists(target)

    # the grid streams: the largest --w-max the bound takes, or a genus range of
    # any length, prints its first point at once
    @pytest.mark.parametrize(
        "w_max, genera",
        [("3000", "2..5"), (str(10**12), "2..5"), ("3", f"2..{10**12}")],
        ids=["3000", str(10**12), f"g-2..{10**12}"],
    )
    def test_closed_stdout_exits_1_without_traceback(self, w_max, genera):
        with subprocess.Popen(
            [sys.executable, "-m", "qminv.cli", "sweep", "-r", "2", "-d", "1", "-a", "1",
             "--w-max", w_max, "--g", genera],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        ) as proc:
            assert proc.stdout.readline() == b"g=2 w=1 closed=2 oracle=2 agree\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=60), err) == (1, b"")

    def test_permissive_flags_each_point(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "-r", "3", "-d", "2", "-a", "1", "--w-list", "1,2,5", "--g", "2",
            "--permissive", "--format", "json",
        )
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert code == 0
        # w=1 is proven; 2 and 5 are not (2 = 5 = 2 mod 3)
        assert [record["conjectural"] for record in lines[:-1]] == [False, True, True]
        assert lines[-1] == {"summary": {"total": 3, "agree": 3, "conjectural": 2}}

    def test_strict_stop_keeps_earlier_points(self, capsys, tmp_path):
        target = tmp_path / "sweep.jsonl"
        code, out, err = run(
            capsys,
            "sweep", "-r", "3", "-d", "1", "-a", "1", "--w-list", "1,4,7", "--g", "2",
            "--format", "json", "--out", str(target),
        )
        assert code == 3
        assert [json.loads(line)["query"]["w"] for line in out.splitlines()] == [1]
        assert err.startswith("unsupported query: no proven closed form for r=3, w=4:")
        assert not target.exists()


def _record_strings(node):
    """Every value, contribution, closed, oracle, lhs and rhs string of a record."""
    if isinstance(node, list):
        return [text for item in node for text in _record_strings(item)]
    if not isinstance(node, dict):
        return []
    keys = ("value", "contribution", "closed", "oracle", "lhs", "rhs")
    return [
        text
        for key, item in node.items()
        for text in ([item] if key in keys else _record_strings(item))
    ]


class TestOneDataSource:
    """Table output is a rendering of the JSON records, and --out holds those records."""

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ["invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "3", "-g", "2",
                 "--route", route, "--side", side, *extra]
                for route in ("closed", "oracle", "both")
                for side in ("elliptic", "moduli")
                for extra in ([], ["--raw", "--decimal"])
            ),
            ["series", "--identity", "A", "--genus", "2", "--order", "6"],
            ["series", "--identity", "B", "--genus", "3", "--order", "6"],
            ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "4", "--g", "2..3"],
            ["sweep", "-r", "3", "-d", "2", "-a", "1", "--w-list", "1,2,5", "--g", "2", "--permissive"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_table_renders_the_json_records(self, capsys, tmp_path, argv):
        outputs = {}
        for fmt in ("table", "json"):
            target = tmp_path / f"{fmt}.jsonl"
            code, out, err = run(capsys, *argv, "--format", fmt, "--out", str(target))
            assert (code, err) == (0, "")
            outputs[fmt] = out, target.read_text(encoding="utf-8")
        (table, table_file), (json_out, json_file) = outputs["table"], outputs["json"]
        assert table_file == json_file == json_out
        strings = _record_strings([json.loads(line) for line in json_out.splitlines()])
        assert strings
        for text in strings:
            assert text in table


class TestSelfcheckCommand:
    def test_crashing_check_is_reported(self, capsys, monkeypatch):
        def _check_divides_by_zero():
            return ("never reported", 1 // 0 == 0, "")

        checks = list(selfcheck.ALL_CHECKS)
        monkeypatch.setattr(selfcheck, "ALL_CHECKS", [checks[0], _check_divides_by_zero, checks[-1]])
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("ok ")
        assert lines[1] == "FAIL _check_divides_by_zero  ZeroDivisionError: integer division or modulo by zero"
        assert lines[2].startswith("ok ")
        assert lines[3] == "2/3 checks passed"

    @pytest.mark.parametrize("head, tail", [(2, 0), (1, 1)], ids=["doubled", "filled"])
    def test_euler_product_check_has_an_independent_side(self, monkeypatch, head, tail):
        # exp and the factor product both start from QSeries.one, so a wrong
        # one scales both alike; the pentagonal-number series does not use it
        monkeypatch.setattr(QSeries, "one", classmethod(lambda cls, n: cls((Fraction(head),) + (Fraction(tail),) * n)))
        name, ok, _ = selfcheck._check_exp_euler_product()
        assert (name, ok) == ("exp of the eta-log recovers the Euler product", False)

    @pytest.mark.parametrize(
        "module, name, fault, check",
        [
            # the series' right side reads sigma_1 at the other parity
            (invariants, "sigma_sieve", lambda real: lambda order: [0, *real(order)[:-1]],
             "variable negation is an involution with clean parity split"),
            (selfcheck, "solve_base_degrees", lambda real: lambda r, a, w: real(r, a, w)[::-1],
             "degree-vector solutions satisfy both equations"),
            (selfcheck, "slice_euler_bruteforce", _shift_slice_euler, "brute-force slice Euler characteristics equal r*k"),
            (quotloc, "torsion_order", _double_stabilizer, "wall components: stabilizer and Euler ledger"),
            # the closed form's scan loses 1, then w
            (invariants, "divisors", lambda real: lambda w: real(w)[1:], "wall-crossing oracle equals the closed form"),
            (invariants, "divisors", lambda real: lambda w: real(w)[:-1], "generating-series identities hold"),
            (selfcheck, "laurent_residue", _swap_slots, "residue engine matches the symbolic expansion"),
            # the moduli side without its r^(2g) factor
            (selfcheck, "qm_moduli", lambda real: invariants.qm_elliptic, "moduli-side values carry the r^(2g) factor"),
        ],
        ids=["negation", "degree-solver", "slice-euler", "ledger", "oracle", "series", "residue", "factor"],
    )
    def test_each_check_sees_a_fault_in_what_it_checks(self, capsys, monkeypatch, module, name, fault, check):
        # the golden replay shows every check passing; each must also be able to fail
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        code, out, _ = run(capsys, "selfcheck")
        assert code == 1 and f"FAIL {check}  " in out

    @pytest.mark.parametrize("index", [-1, 17], ids=["top", "interior"])
    def test_divisor_sum_check_sees_a_perturbed_sieve(self, monkeypatch, index):
        real = selfcheck.sigma_sieve

        def perturbed(order):
            sigma = real(order)
            sigma[index] += 1
            return sigma

        monkeypatch.setattr(selfcheck, "sigma_sieve", perturbed)
        name, ok, detail = selfcheck._check_eta_log_divisor_sums()
        assert (name, ok, detail) == ("eta-log coefficients are -sigma_{-1}(w)", False, "mismatches: ['sieve']")

    def test_divisor_sum_checks_see_a_short_divisor_scan(self, monkeypatch):
        # the closed form's kernel without w itself: every sum is short by w
        real = selfcheck.divisors
        monkeypatch.setattr(selfcheck, "divisors", lambda w: real(w)[:-1])
        assert selfcheck._check_sigma_identities()[1] is False
        name, ok, detail = selfcheck._check_eta_log_divisor_sums()
        assert not ok and detail == f"mismatches: {[*range(1, 41), 'sieve']}"


class TestColdStart:
    def test_cli_import_skips_dataclasses_and_selfcheck(self):
        # every qminv process pays for what `import qminv.cli` loads; only the
        # selfcheck subcommand needs qminv.selfcheck
        probe = (
            "import qminv.cli, sys; "
            "print(sorted({'dataclasses', 'inspect', 'qminv.selfcheck'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
