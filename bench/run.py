"""Benchmark of the scanvar CLI: commands end to end, and per-module spans.

    python3 bench/run.py --workload exact-k2 --seed 1 --seconds 40 --trace 0

Runs one workload in this process, closed loop with one client: rotations of
the workload's commands, each op on a fresh seeded model, through
`scanvar.cli.main(argv)`. Every printed number is checked against an
independent plain-numpy reference. Times are reported at the machine's
undisturbed speed (see calibration.py). The last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1` (a traced rotation
alternates with an untraced one, to measure the tracing overhead). Run it from
the root of a source checkout; it imports scanvar from `src/` only.
"""

import os

# BLAS threads are pinned before numpy is first imported.
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from calibration import Calibration  # noqa: E402
from spans import MODULES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SLOTS = ("cmd1_s", "cmd2_s", "cmd3_s")
SETUP_SAMPLES = 5
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import scanvar.cli"
MAX_PROBLEMS_SHOWN = 5


def import_cli():
    """scanvar.cli from this checkout's src/, or exit without a result."""
    if not (SRC / "scanvar" / "cli.py").is_file():
        sys.exit(f"bench: no scanvar sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import scanvar.cli

    if Path(scanvar.cli.__file__).resolve().parent != SRC / "scanvar":
        sys.exit(f"bench: imported scanvar from {scanvar.cli.__file__}, not {SRC}")
    return scanvar.cli


def fresh_import_seconds() -> float:
    """Wall time of a fresh interpreter that imports scanvar.cli."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        timeout=60,
    )
    return perf_counter() - start


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    a = np.random.default_rng(0).random((1000, 1000))
    float((a @ a)[0, 0])  # a BLAS call large enough to start its threads
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pins": PINS,
        "threads_after_matmul": len(os.listdir("/proc/self/task")),
        "loadavg_start": os.getloadavg(),
    }


def call(main, argv, tracer=None, command=None):
    """One CLI op: (seconds, exit code or error text, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = tracer.span(command, main, argv) if tracer else main(argv)
        except (Exception, SystemExit) as exc:  # the op failed; keep measuring
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def exit_problem(code, stderr: str) -> list[str]:
    return [f"exit {code}: {stderr.strip()[-300:]}"] if code != 0 else []


def check(op, code, stdout: str, stderr: str) -> list[str]:
    if code != 0:
        return exit_problem(code, stderr)
    try:
        text = op.out.read_text(encoding="utf-8") if op.out else ""
        return op.check(stdout, text)
    except Exception as exc:  # malformed output must count as a failed op
        return [f"output check raised {exc!r}"]


class Runner:
    def __init__(self, main, workload, seed: int, workdir: Path):
        self.main = main
        self.commands = workload.commands
        self.base = workload.base(seed)
        self.seed = seed
        self.workdir = workdir
        self.index = 0
        self.calibration = Calibration(workload.calibration)
        # per command: op times at undisturbed speed, and as measured
        self.times = {c.name: [] for c in self.commands}
        self.raw_times = {c.name: [] for c in self.commands}
        self.traced_times = {c.name: [] for c in self.commands}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict = {}  # command -> (op, CSV bytes, seconds) for the re-run

    def _record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def rotation(self, tracer=None) -> None:
        for command in self.commands:
            opdir = self.workdir / f"op{self.index}"
            opdir.mkdir()
            op = command.prepare(self.base, self.seed, self.index, opdir)
            label = f"op {self.index} {command.name}"
            self.index += 1
            elapsed, code, stdout, stderr = call(self.main, op.argv(), tracer, command.name)
            scaled = self.calibration.scale(elapsed)
            problems = check(op, code, stdout, stderr)
            self._record(label, problems)
            if tracer:
                self.traced_times[command.name].append(scaled)
            else:
                self.times[command.name].append(scaled)
                self.raw_times[command.name].append(elapsed)
            if command.rerun and command.name not in self.first and not problems:
                self.first[command.name] = (op, op.out.read_bytes(), elapsed)
            else:
                shutil.rmtree(opdir)

    def rerun_seconds(self) -> float:
        return sum(elapsed for _, _, elapsed in self.first.values())

    def setup_sample(self) -> tuple[float, float]:
        """(at undisturbed speed, as measured) seconds of a fresh interpreter."""
        elapsed = fresh_import_seconds()
        return self.calibration.scale(elapsed), elapsed

    def rerun_first(self) -> None:
        """The first op of each re-run command again: same CSV bytes."""
        for name, (op, expected, _) in self.first.items():
            out = op.out.with_name(op.out.stem + "-rerun.csv")
            _, code, _, stderr = call(self.main, op.argv(out))
            problems = exit_problem(code, stderr)
            if not problems and (not out.is_file() or out.read_bytes() != expected):
                problems = ["re-run CSV differs from the first run"]
            self._record(f"re-run of {name}", problems)


def summary(name: str, scaled: list[float], raw: list[float], unit: str) -> str:
    """Median at undisturbed speed, median as measured, the sample count and
    the highest percentile with ten samples beyond it."""
    line = (
        f"{name}: median {statistics.median(scaled):.6g} {unit} "
        f"({statistics.median(raw):.6g} {unit} as measured), n={len(scaled)}"
    )
    if len(scaled) >= 20:
        q = 1.0 - 10.0 / len(scaled)
        cut = statistics.quantiles(scaled, n=100, method="inclusive")[int(q * 100) - 1]
        line += f", p{int(q * 100)} {cut:.6g} {unit}"
    return line


def layer_values(tracer: Tracer, ops: int, command: str | None = None) -> dict:
    """Per-layer values per op of `command`, or per rotation (one op of each
    command) when `command` is None."""

    def total(table, *names):
        return sum(
            v for (cmd, n), v in table.items() if n in names and command in (None, cmd)
        ) / ops

    def self_s(*names):
        return total(tracer.self_time, *names)

    def calls(name):
        return total(tracer.calls, name)

    def count(key):
        return total(tracer.counts, key)

    path_s = self_s("simulate.simulate")
    draws = count("simulate.draws")
    values = {
        "cli.load_model_s": (self_s("cli.load_model"), "s"),
        "kernels.random_scan_s": (self_s("kernels.random_scan"), "s"),
        "kernels.random_scan_calls": (calls("kernels.random_scan"), "count"),
        "kernels.compose_cycle_s": (self_s("kernels.compose_cycle"), "s"),
        "kernels.compose_cycle_calls": (calls("kernels.compose_cycle"), "count"),
        "embedding.realization_s": (
            self_s(
                "embedding.CycleEmbedding.realization",
                "embedding.embedding_realization",
                "embedding.diag_realization",
                "embedding.shift_realization",
            ),
            "s",
        ),
        "embedding.realizations_built": (calls("embedding.embedding_realization"), "count"),
        "embedding.realization_mb": (count("embedding.realization_mb"), "MB"),
        "embedding.resolvent_solve_s": (
            self_s("embedding.CycleEmbedding.resolvent_solve", "embedding.resolvent_solve"),
            "s",
        ),
        "embedding.resolvent_solves": (calls("embedding.CycleEmbedding.resolvent_solve"), "count"),
        "embedding.lu_gflop": (count("embedding.lu_gflop"), "GFLOP"),
        "variance.summability_check_s": (self_s("variance.summability_check"), "s"),
        "variance.eig_problems": (count("variance.eig_problems"), "count"),
        "variance.var_lambda_strat_s": (self_s("variance.var_lambda_strat"), "s"),
        "variance.var_lambda_rand_s": (self_s("variance.var_lambda_rand"), "s"),
        "variance.var_limit_s": (self_s("variance.var_limit"), "s"),
        "variance.finite_m_variance_exact_s": (self_s("variance.finite_m_variance_exact"), "s"),
        "ordering.gap_lower_bound_s": (self_s("ordering.gap_lower_bound"), "s"),
        "ordering.peskun_dominates_s": (self_s("ordering.peskun_dominates"), "s"),
        "simulate.path_s": (path_s, "s"),
        "simulate.draws": (draws, "count"),
        "simulate.draws_per_s": (draws / path_s if path_s > 0 else 0.0, "1/s"),
        "seeding.derive_seed_calls": (calls("seeding.derive_seed"), "count"),
    }
    for module in MODULES:
        values[f"{module}.errors"] = (count(f"{module}.errors"), "count")
    return values


def layer_metrics(tracer: Tracer, rotations: int, runner: Runner) -> dict:
    """The per-layer result: values per traced rotation, and the tracing's
    own cost."""
    values = layer_values(tracer, rotations)
    values["trace.overhead_s"] = (
        statistics.fmean(
            statistics.median(runner.traced_times[c]) - statistics.median(runner.times[c])
            for c in runner.times
        ),
        "s",
    )
    # self times partition each op's root span, so they sum to the op time
    root = sum(t for (_, n), t in tracer.self_time.items() if n == "op")
    values["trace.unattributed_share"] = (root / sum(tracer.self_time.values()), "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_command_counts(tracer: Tracer, runner: Runner) -> list[str]:
    """The nonzero per-layer counts per op of each command."""
    lines = []
    for command, times in runner.traced_times.items():
        values = layer_values(tracer, len(times), command)
        shown = ", ".join(
            f"{name} {v:g}" for name, (v, unit) in values.items() if unit != "s" and v
        )
        lines.append(f"per {command} op: {shown or 'no counted calls'}")
    return lines


def run(args) -> tuple[dict, list[str]]:
    main = import_cli().main
    env = environment()
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        runner = Runner(main, workload, args.seed, workdir)
        start = perf_counter()
        setup = [runner.setup_sample()]
        rotations = 0
        while True:
            began = perf_counter()
            traced = tracer is not None and rotations % 2 == 1
            if traced:
                tracer.install()
            try:
                runner.rotation(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            rotations += 1
            if len(setup) < SETUP_SAMPLES:
                setup.append(runner.setup_sample())
            # stop when another rotation, and the re-runs, would overrun
            left = args.seconds - (perf_counter() - start) - runner.rerun_seconds()
            if left < perf_counter() - began and (tracer is None or rotations >= 2):
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(runner.setup_sample())
        runner.rerun_first()
        measured = perf_counter() - start
    finally:
        shutil.rmtree(workdir)
    env["loadavg_end"] = os.getloadavg()

    lines = [
        "env " + json.dumps(env),
        f"workload {args.workload} seed {args.seed}: {rotations} rotations in {measured:.1f} s",
        summary("setup_s", [s for s, _ in setup], [r for _, r in setup], "s"),
    ]
    metrics = {"setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s"}}
    for slot, command in zip(SLOTS, workload.commands):
        times = runner.times[command.name]
        lines.append(summary(f"{slot} = {command.name}_s", times, runner.raw_times[command.name], "s"))
        metrics[slot] = {"value": statistics.median(times), "unit": "s"}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = {"value": peak, "unit": "MB"}
    lines.append(f"peak_rss_mb: {peak:.6g} MB")
    lines.append(
        f"fail_ratio: {runner.failed}/{runner.attempted} = "
        f"{runner.failed / runner.attempted:.6g} (1)"
    )
    lines.extend(runner.problems[:MAX_PROBLEMS_SHOWN])
    if tracer is not None:
        metrics = layer_metrics(tracer, rotations // 2, runner)
        lines.extend(per_command_counts(tracer, runner))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, lines = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
