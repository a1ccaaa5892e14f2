"""Golden CLI corpus: every case replays byte for byte.

Each case runs ``qminv.cli.main(argv)`` in-process and is compared with
``tests/golden/<name>.json``: stdout, stderr, the exit code and the file
written by ``--out`` (the ``OUT`` token in argv is replaced by a fresh
path).  Each case must also hand its caller's int-to-str digit limit
back; ``run_case`` raises otherwise.  The corpus is the CLI's one output
contract: a command it runs gets no second, hand-written check in
``tests/test_cli.py``.  It covers
exits 0, 3 and 4 only.  Exits 1 and 2 need a failure that a working
program cannot replay (a failed selfcheck or a closed stdout, a route
disagreement or an internal check), so ``tests/test_cli.py`` owns them
and injects the failure, as it owns the subprocess and file-system
checks and the argvs that no case here runs.  Re-record the corpus only
on an intended output change, with

    PYTHONPATH=src python tests/test_golden_cli.py --record
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import qminv.cli as cli

GOLDEN = Path(__file__).parent / "golden"

INV = ["invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "3", "-g", "2"]

# name -> argv
CASES: dict[str, list[str]] = {
    "invariant_both_table": INV,
    "invariant_both_json": INV + ["--format", "json"],
    "invariant_both_parity_zero_json": (
        ["invariant", "-r", "2", "-d", "0", "-a", "1", "-w", "3", "-g", "2", "--format", "json"]),
    "invariant_closed_table": (
        ["invariant", "-r", "2", "-d", "0", "-a", "1", "-w", "12", "-g", "4", "--route", "closed"]),
    "invariant_closed_json": (
        ["invariant", "-r", "2", "-d", "0", "-a", "1", "-w", "12", "-g", "4", "--route", "closed",
         "--format", "json"]),
    "invariant_oracle_table": (
        ["invariant", "-r", "3", "-d", "1", "-a", "1", "-w", "9", "-g", "3", "--route", "oracle"]),
    "invariant_oracle_json": (
        ["invariant", "-r", "2", "-d", "0", "-a", "1", "-w", "6", "-g", "3", "--route", "oracle",
         "--format", "json"]),
    "invariant_moduli_both_table": INV[:8] + ["1", "-g", "2", "--side", "moduli"],
    "invariant_moduli_oracle_json": (
        ["invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "5", "-g", "3", "--side", "moduli",
         "--route", "oracle", "--format", "json"]),
    "invariant_raw_decimal_table": INV + ["--raw", "--decimal"],
    "invariant_raw_decimal_json": INV + ["--raw", "--decimal", "--format", "json"],
    "invariant_w0_table": (
        ["invariant", "-r", "2", "-d", "0", "-a", "1", "-w", "0", "-g", "2"]),
    "invariant_w0_json": (
        ["invariant", "-r", "3", "-d", "0", "-a", "1", "-w", "0", "-g", "3", "--format", "json"]),
    "invariant_w0_empty_json": (
        ["invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "0", "-g", "2", "--format", "json"]),
    "invariant_a2_w0_json": (
        ["invariant", "-r", "3", "-d", "0", "-a", "2", "-w", "0", "-g", "2", "--format", "json"]),
    "invariant_exit4_w0_moduli": (
        ["invariant", "-r", "2", "-d", "0", "-a", "1", "-w", "0", "-g", "2", "--side", "moduli"]),
    "invariant_exit4_w0_oracle": (
        ["invariant", "-r", "3", "-d", "0", "-a", "1", "-w", "0", "-g", "3", "--route", "oracle"]),
    "invariant_a2_permissive_table": (
        ["invariant", "-r", "5", "-d", "2", "-a", "2", "-w", "4", "-g", "2", "--route", "oracle",
         "--permissive"]),
    "invariant_a2_permissive_json": (
        ["invariant", "-r", "5", "-d", "2", "-a", "2", "-w", "4", "-g", "2", "--route", "oracle",
         "--permissive", "--format", "json"]),
    "invariant_permissive_json": (
        ["invariant", "-r", "3", "-d", "2", "-a", "1", "-w", "5", "-g", "2", "--route", "oracle",
         "--permissive", "--format", "json"]),
    "invariant_both_permissive_json": (
        ["invariant", "-r", "3", "-d", "2", "-a", "1", "-w", "5", "-g", "2", "--permissive",
         "--format", "json"]),
    "invariant_closed_permissive_table": (
        ["invariant", "-r", "3", "-d", "2", "-a", "1", "-w", "5", "-g", "2", "--route", "closed",
         "--permissive"]),
    # off the congruence: the closed form's own flag, which --route both hides
    # behind the oracle's
    "invariant_closed_off_congruence_permissive_table": (
        ["invariant", "-r", "5", "-d", "1", "-a", "2", "-w", "4", "-g", "2", "--route", "closed",
         "--permissive"]),
    "invariant_out_file": INV + ["--decimal", "--out", "OUT"],
    "invariant_exit3_oracle": (
        ["invariant", "-r", "3", "-d", "2", "-a", "1", "-w", "5", "-g", "2", "--route", "oracle"]),
    "invariant_exit3_both": (
        ["invariant", "-r", "3", "-d", "2", "-a", "1", "-w", "5", "-g", "2"]),
    "invariant_exit3_moduli": (
        ["invariant", "-r", "4", "-d", "1", "-a", "1", "-w", "1", "-g", "2", "--side", "moduli",
         "--route", "closed"]),
    "invariant_moduli_composite_permissive_json": (
        ["invariant", "-r", "4", "-d", "1", "-a", "1", "-w", "5", "-g", "2", "--side", "moduli",
         "--permissive", "--format", "json"]),
    "invariant_exit3_composite_oracle": (
        ["invariant", "-r", "4", "-d", "1", "-a", "1", "-w", "5", "-g", "2", "--route", "oracle"]),
    "invariant_composite_permissive_json": (
        ["invariant", "-r", "4", "-d", "1", "-a", "1", "-w", "5", "-g", "2", "--route", "oracle",
         "--permissive", "--format", "json"]),
    "invariant_exit3_composite_closed": (
        ["invariant", "-r", "4", "-d", "1", "-a", "1", "-w", "5", "-g", "2", "--route", "closed"]),
    "invariant_exit3_w0_composite_off_congruence": (
        ["invariant", "-r", "4", "-d", "1", "-a", "1", "-w", "0", "-g", "2"]),
    # a composite rank is never proven, on either side: exit 3 on both routes
    # together too; 9 is the least odd composite rank, where is_prime's trial
    # division, not its parity test, decides
    "invariant_exit3_composite_both": (
        ["invariant", "-r", "4", "-d", "1", "-a", "1", "-w", "5", "-g", "2"]),
    "invariant_exit3_rank9": (
        ["invariant", "-r", "9", "-d", "1", "-a", "1", "-w", "1", "-g", "2"]),
    # 25 = 5^2: a trial division that stepped past 5 would call it prime
    "invariant_exit3_rank25": (
        ["invariant", "-r", "25", "-d", "1", "-a", "1", "-w", "1", "-g", "2"]),
    "invariant_exit4_negative_w": INV[:8] + ["-3", "-g", "2"],
    "invariant_exit4_bad_a": (
        ["invariant", "-r", "4", "-d", "1", "-a", "2", "-w", "1", "-g", "2"]),
    # both ends of the range 0 <= a < r: a = r is out of range, and a = 0 is
    # in it but has no unit normalisation
    "invariant_exit4_a_equals_rank": (
        ["invariant", "-r", "3", "-d", "0", "-a", "3", "-w", "1", "-g", "2"]),
    "invariant_exit4_a_zero": (
        ["invariant", "-r", "3", "-d", "0", "-a", "0", "-w", "1", "-g", "2"]),
    "invariant_exit4_usage": ["invariant", "-r", "2"],
    "invariant_exit4_w_not_integer": INV[:8] + ["x", "-g", "2"],
    # every integer flag is -?[0-9]+ only: not the "_", "+" or non-ASCII
    # digit that int() takes
    "invariant_exit4_w_underscore": INV[:8] + ["1_0", "-g", "2"],
    # a rank or degree above 10**12 is refused before is_prime or divisors
    # trial-divides up to its square root
    "invariant_exit4_w_too_large": (
        ["invariant", "-r", "2", "-d", "1", "-a", "1", "-w", str(2 ** 62 - 1), "-g", "2", "--route", "closed"]),
    "invariant_exit4_r_too_large": (
        ["invariant", "-r", str(10 ** 18 + 3), "-d", "0", "-a", "1", "-w", "0", "-g", "2"]),
    # the bound itself is taken: 10**12 as the rank (as the degree in the last
    # case), and 999999999989, the largest prime rank, which is_prime
    # trial-divides in full
    "invariant_exit3_r_at_bound": (
        ["invariant", "-r", str(10 ** 12), "-d", "0", "-a", "1", "-w", "0", "-g", "2"]),
    "invariant_w0_largest_prime_rank_json": (
        ["invariant", "-r", "999999999989", "-d", "0", "-a", "1", "-w", "0", "-g", "2", "--format", "json"]),
    # 14398 * 2^14400 has 4339 digits, past CPython's default int-to-str limit
    "invariant_moduli_g7200_json": (
        ["invariant", "-r", "2", "-d", "1", "-a", "1", "-w", "1", "-g", "7200", "--side", "moduli",
         "--format", "json"]),
    "exit4_no_command": [],
    "exit0_help": ["--help"],
    "sweep_exit0_help": ["sweep", "--help"],
    "series_a_table": ["series", "--identity", "A", "--genus", "2", "--order", "10"],
    "series_a_json": (
        ["series", "--identity", "A", "--genus", "3", "--order", "9", "--format", "json"]),
    "series_b_table": ["series", "--identity", "B", "--genus", "3", "--order", "12"],
    "series_b_json_out": (
        ["series", "--identity", "B", "--genus", "2", "--order", "8", "--format", "json",
         "--out", "OUT"]),
    # the default --order, which no other case reaches
    "series_a_default_order": ["series", "--identity", "A", "--genus", "2"],
    # the least order: one coefficient past the constant term
    "series_b_order_one": ["series", "--identity", "B", "--genus", "2", "--order", "1"],
    "series_exit4_order_zero": ["series", "--identity", "A", "--genus", "2", "--order", "0"],
    "series_exit4_order_nonascii": ["series", "--identity", "A", "--genus", "2", "--order", "\u0663"],
    # 2**62 coefficients fail Python's own length check before any allocation
    "series_exit4_order_too_large": (
        ["series", "--identity", "A", "--genus", "2", "--order", str(2 ** 62)]),
    "sweep_w_max_table": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "6", "--g", "2..3"]),
    "sweep_w_max_json": (
        ["sweep", "-r", "2", "-d", "0", "-a", "1", "--w-max", "8", "--g", "2,4", "--format", "json"]),
    "sweep_w_list_json": (
        ["sweep", "-r", "3", "-d", "1", "-a", "1", "--w-list", "1,3,9", "--g", "2", "--format", "json"]),
    "sweep_w_list_a2_table": (
        ["sweep", "-r", "3", "-d", "1", "-a", "2", "--w-list", "2,3,6", "--g", "3"]),
    # a list runs in the order given, repeats included; only a range ascends
    "sweep_w_list_given_order_table": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-list", "5,3,3", "--g", "4,2"]),
    "sweep_permissive_table": (
        ["sweep", "-r", "3", "-d", "2", "-a", "1", "--w-list", "2,5", "--g", "2", "--permissive"]),
    "sweep_permissive_json": (
        ["sweep", "-r", "3", "-d", "2", "-a", "1", "--w-list", "2,5", "--g", "2", "--permissive",
         "--format", "json"]),
    # a one-genus range: the grid's corner query reads the range's only genus
    "sweep_one_genus_range_table": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "3", "--g", "2..2"]),
    "sweep_out_file": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "3", "--g", "2", "--out", "OUT"]),
    "sweep_empty_w_max": ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "0", "--g", "2"],
    "sweep_exit3_strict": (
        ["sweep", "-r", "3", "-d", "2", "-a", "1", "--w-list", "5", "--g", "2"]),
    "sweep_exit3_strict_partial": (
        ["sweep", "-r", "3", "-d", "1", "-a", "1", "--w-list", "1,4", "--g", "2"]),
    # the (r, a) = (2, 1) grid on both degrees d, w up to 40
    "sweep_grid_r2_d0_table": (
        ["sweep", "-r", "2", "-d", "0", "-a", "1", "--w-max", "40", "--g", "2..3"]),
    "sweep_grid_r2_d1_table": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "40", "--g", "2..3"]),
    # r = 3 on proven degrees only: every divisor of w is 0 or 1 mod 3
    "sweep_grid_r3_d0_proven_table": (
        ["sweep", "-r", "3", "-d", "0", "-a", "1", "--w-list", "1,3,7,9,21,27,39,63,81", "--g", "2..3"]),
    "sweep_grid_r3_d1_proven_table": (
        ["sweep", "-r", "3", "-d", "1", "-a", "1", "--w-list", "1,3,7,13,49,91", "--g", "2..3"]),
    # a = 2 is the only grid where ch2 != 0; none of its degrees is proven
    "sweep_grid_r3_a2_permissive_table": (
        ["sweep", "-r", "3", "-d", "1", "-a", "2", "--w-max", "40", "--g", "2..3", "--permissive"]),
    "sweep_exit4_usage": ["sweep", "-r", "2", "-d", "1", "-a", "1", "--g", "2"],
    "sweep_exit4_w_list_zero": ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-list", "1,0", "--g", "2"],
    "sweep_exit4_negative_w_max": ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "-3", "--g", "2"],
    "sweep_exit4_w_max_plus": ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "+3", "--g", "2"],
    "sweep_exit4_w_list_empty": ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-list", ",", "--g", "2"],
    "sweep_exit4_genus_range_malformed": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", "3", "--g", "2..5..7"]),
    "sweep_exit4_w_list_malformed": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-list", "1,x", "--g", "2"]),
    "sweep_exit4_w_list_underscore": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-list", "1_0,+2", "--g", "2"]),
    # --w-max is checked against the quasimap-degree bound before the first point
    "sweep_exit4_w_max_above_bound": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", str(10 ** 12 + 1), "--g", "2"]),
    "sweep_exit4_w_max_too_large": (
        ["sweep", "-r", "2", "-d", "1", "-a", "1", "--w-max", str(10 ** 19), "--g", "2"]),
    "selfcheck": ["selfcheck"],
    # r = 7, w = 7^4 is proven, and its rank-0 classes (0, 343), (0, 49), (0, 7), (0, 1) would send
    # 2403590750354 decompositions through the slice brute force: the oracle refuses before it
    # starts, the closed form answers, and a sweep keeps the points it printed before it
    "invariant_exit4_slice_budget": ["invariant", "-r", "7", "-d", "0", "-a", "1", "-w", "2401", "-g", "2"],
    "invariant_closed_slice_budget_table": (
        ["invariant", "-r", "7", "-d", "0", "-a", "1", "-w", "2401", "-g", "2", "--route", "closed"]),
    "sweep_exit4_slice_budget_partial": ["sweep", "-r", "7", "-d", "0", "-a", "1", "--w-list", "7,2401", "--g", "2"],
    # the slowest case (the divisors of 10**12) comes last, so that a mutant
    # that fails an earlier case is judged without it
    "invariant_closed_w_at_bound_json": (
        ["invariant", "-r", "2", "-d", "0", "-a", "1", "-w", str(10 ** 12), "-g", "2", "--route", "closed",
         "--format", "json"]),
}


# the int-to-str digit limit a case's caller holds, which cli.main must hand
# back: not CPython's default of 4300, and below the 4339 digits of
# invariant_moduli_g7200_json, so that a main that does not lift it fails there
CALLER_DIGIT_LIMIT = 4000


def run_case(argv: list[str], out_path: Path) -> dict:
    """Run one case in-process; returns exit code, streams and --out content.

    Where the interpreter has an int-to-str digit limit, the case runs under
    ``CALLER_DIGIT_LIMIT``, and a case that leaves another limit behind
    raises ``RuntimeError``.
    """
    argv = [str(out_path) if arg == "OUT" else arg for arg in argv]
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    saved_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved_limit is not None:
        sys.set_int_max_str_digits(CALLER_DIGIT_LIMIT)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    finally:
        if saved is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved
        if saved_limit is not None:
            left = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(saved_limit)
    if saved_limit is not None and left != CALLER_DIGIT_LIMIT:
        raise RuntimeError(f"cli.main left the int-to-str digit limit at {left}, not {CALLER_DIGIT_LIMIT}")
    out_file = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "out_file": out_file,
    }


def test_corpus_files_match_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def pytest_generate_tests(metafunc):
    # a hook, not pytest.mark.parametrize, so that tools/mutate.py's first
    # detector imports this module without importing pytest
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(CASES))


def test_golden_case(name, tmp_path):
    expected = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run_case(CASES[name], tmp_path / "out.json") == expected


def _mutate_tool():
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("mutate", root / "tools" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    return root, mutate


def test_mutation_stage1_passes_on_clean_tree():
    # tools/mutate.py's first detector replays this corpus; run it as the
    # tool does, so that the two cannot drift apart
    root, mutate = _mutate_tool()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", mutate.STAGE1], cwd=root, env=env, capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_mutation_reasons_without_a_mutant_are_stale():
    # the tool reports such a reason as STALE and exits 1; the keys here are
    # the reasons' own, not the current source's, which a mutant changes
    _, mutate = _mutate_tool()
    keys = list(mutate.REASONS)
    assert mutate.stale_reasons(iter(keys)) == []
    assert mutate.stale_reasons(keys[1:]) == keys[:1]
    assert mutate.stale_reasons([]) == keys


def test_corpus_module_imports_no_pytest():
    # every mutant's first detector imports this module; pytest would add
    # to each one's start-up
    root = Path(__file__).resolve().parent.parent
    probe = "import sys; sys.path.insert(0, 'tests'); import test_golden_cli; print('pytest' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=root,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            result = run_case(argv, Path(tmp) / "out.json")
        (GOLDEN / f"{name}.json").write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
