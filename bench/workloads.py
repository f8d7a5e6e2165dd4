"""The benchmark's workloads: which CLI commands run, on which models.

Each command turns (workload seed, op index) into a fresh model file, the
argv for `scanvar.cli.main`, and a check of what the command printed. The
check builds its reference only after the timed call.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from models import BaseFamily
from reference import Reference

GRID = (0.3, 0.6, 0.9, 0.99)
PESKUN_HOLD = 0.3
SIM_STEPS = 2048
SIM_REPLICAS = 100


@dataclass(frozen=True)
class Op:
    args: list[str]  # CLI arguments without --out
    out: Path | None  # CSV the command writes, if any
    check: Callable[[str, str], list[str]]  # (stdout, csv text) -> problems

    def argv(self, out: Path | None = None) -> list[str]:
        out = out or self.out
        return self.args + (["--out", str(out)] if out else [])


@dataclass(frozen=True)
class Command:
    name: str  # metric stem printed next to the slot name, e.g. compare_s
    prepare: Callable[[BaseFamily, int, int, Path], Op]  # (base, seed, op index, op dir)
    rerun: bool = False  # re-run the first op at the end; its CSV must not change


@dataclass(frozen=True)
class Workload:
    n: int
    k: int
    commands: tuple[Command, ...]
    calibration: str = "dense"  # the reference computation, see calibration.py

    def base(self, seed: int) -> BaseFamily:
        hold = PESKUN_HOLD if any(c.name == "peskun" for c in self.commands) else None
        return BaseFamily(seed, self.n, self.k, hold)


def _paths(opdir: Path) -> tuple[Path, Path]:
    return opdir / "model.json", opdir / "out.csv"


def compare() -> Command:
    def prepare(base: BaseFamily, seed: int, index: int, opdir: Path) -> Op:
        model = base.op(seed, index)
        path, out = _paths(opdir)
        model.write(path, lambda_grid=GRID)
        return Op(
            ["compare", "--model", str(path)],
            out,
            lambda stdout, text: checks.check_compare(text, GRID, Reference(model)),
        )

    return Command("compare", prepare)


def peskun() -> Command:
    def prepare(base: BaseFamily, seed: int, index: int, opdir: Path) -> Op:
        model = base.op(seed, index)
        lazy = base.op(seed, index, lazy=True)
        path, out = _paths(opdir)
        path_b = opdir / "model_b.json"
        model.write(path, lambda_grid=GRID)
        lazy.write(path_b)
        return Op(
            ["peskun", "--model", str(path), "--model-b", str(path_b)],
            out,
            lambda stdout, text: checks.check_peskun(
                text, GRID, Reference(model), Reference(lazy)
            ),
        )

    return Command("peskun", prepare)


def limit() -> Command:
    def prepare(base: BaseFamily, seed: int, index: int, opdir: Path) -> Op:
        model = base.op(seed, index)
        path, out = _paths(opdir)
        model.write(path)
        return Op(
            ["limit", "--model", str(path)],
            out,
            lambda stdout, text: checks.check_limit(stdout, text, Reference(model)),
        )

    return Command("limit", prepare)


def validate() -> Command:
    def prepare(base: BaseFamily, seed: int, index: int, opdir: Path) -> Op:
        model = base.op(seed, index)
        path, _ = _paths(opdir)
        model.write(path)
        n, k = model.pi.size, len(model.kernels)
        return Op(
            ["validate", "--model", str(path)],
            None,
            lambda stdout, text: checks.check_validate(stdout, n, k),
        )

    return Command("validate", prepare)


def simulate(scheme: str) -> Command:
    def prepare(base: BaseFamily, seed: int, index: int, opdir: Path) -> Op:
        model = base.op(seed, index)
        sim_seed = int(np.random.default_rng([seed, index + 1, 1]).integers(2**31))
        path, out = _paths(opdir)
        model.write(
            path,
            simulation={
                "steps": SIM_STEPS,
                "replicas": SIM_REPLICAS,
                "seed": sim_seed,
                "scheme": scheme,
            },
        )
        return Op(
            ["simulate", "--model", str(path)],
            out,
            lambda stdout, text: checks.check_simulate(
                text, Reference(model), scheme, SIM_STEPS, SIM_REPLICAS
            ),
        )

    return Command(f"sim_{scheme}", prepare, rerun=True)


# Why each workload: see BENCHMARK.json and README.md.
WORKLOADS = {
    "exact-k2": Workload(400, 2, (compare(), peskun(), limit())),
    "exact-k8": Workload(150, 8, (compare(), limit(), validate())),
    "simulate-k2": Workload(
        30, 2, (simulate("strat"), simulate("rand"), simulate("embedded")), "interpreter"
    ),
}
