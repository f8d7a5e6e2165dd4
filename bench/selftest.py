"""Self-test of the benchmark's checks: each kind of failure must be counted.

    python3 bench/selftest.py

Runs single ops through the benchmark's Runner with the real CLI, and with
wrappers around it that corrupt one thing: a CSV value moved by one unit in
its ninth significant digit, a nonzero exit, an exception, a simulate
estimate moved beyond five standard errors, and a simulate whose re-run
prints a different CSV. Each must show up as one failed op; the unmodified
ops must show none. Exits 1 if any case disagrees.
"""

import os
import shutil
import sys
from pathlib import Path

from run import ROOT, Runner, import_cli  # pins BLAS threads first
from checks import standard_error
from workloads import Workload, compare, simulate


def _bump_last_digit(field: str) -> str:
    mantissa, _, exponent = field.partition("e")
    digits = mantissa.rstrip("0123456789")
    tail = mantissa[len(digits) :]
    bumped = str(int(tail) + 1 if tail[-1] != "9" else int(tail) - 1).zfill(len(tail))
    return digits + bumped + ("e" + exponent if exponent else "")


def _edit_csv(main, edit, calls=None):
    """Run the real CLI, then rewrite one field of its CSV with `edit`
    (on the calls whose 1-based number is in `calls`, or on every call)."""
    count = [0]

    def fake(argv):
        code = main(argv)
        count[0] += 1
        if calls is None or count[0] in calls:
            out = Path(argv[argv.index("--out") + 1])
            lines = out.read_text(encoding="utf-8").split("\n")
            lines[1] = edit(lines[1].split(","))
            out.write_text("\n".join(lines), encoding="utf-8")
        return code

    return fake


def _field(index, change):
    def edit(fields):
        fields[index] = change(fields)
        return ",".join(fields)

    return edit


def _estimate_beyond_5_se(fields):
    exact, replicas = float(fields[5]), int(fields[2])
    return format(exact + 6.0 * standard_error(exact, replicas), ".9g")


def _raise(argv):
    raise RuntimeError("injected")


def main() -> int:
    cli_main = import_cli().main
    small_compare = Workload(40, 2, (compare(),))
    strat = Workload(20, 2, (simulate("strat"),))
    cases = [
        ("clean compare", cli_main, small_compare, 0),
        ("compare var_strat off by one unit in the 9th digit",
         _edit_csv(cli_main, _field(1, lambda f: _bump_last_digit(f[1]))), small_compare, 1),
        ("compare gap bound off by one unit in the 9th digit",
         _edit_csv(cli_main, _field(4, lambda f: _bump_last_digit(f[4]))), small_compare, 1),
        ("nonzero exit", lambda argv: cli_main(argv) or 2, small_compare, 1),
        ("exception out of main", _raise, small_compare, 1),
        ("clean simulate and re-run", cli_main, strat, 0),
        ("simulate estimate beyond 5 standard errors",
         _edit_csv(cli_main, _field(3, _estimate_beyond_5_se)), strat, 1),
        ("simulate re-run prints another estimate",
         _edit_csv(cli_main, _field(3, lambda f: _bump_last_digit(f[3])), calls={2}), strat, 1),
    ]
    workdir = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    wrong = 0
    try:
        for label, fake_main, workload, expected in cases:
            workdir.mkdir(parents=True)
            runner = Runner(fake_main, workload, 7, workdir)
            runner.rotation()
            runner.rerun_first()
            ok = runner.failed == expected
            wrong += not ok
            print(
                f"{'PASS' if ok else 'FAIL'}: {label}: {runner.failed} of "
                f"{runner.attempted} ops failed, expected {expected}"
            )
            for problem in runner.problems[:2]:
                print(f"    {problem}")
            shutil.rmtree(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
