"""Check that two scanvar source trees behave the same on the command line.

    python3 tools/cli_parity.py OLD_SRC NEW_SRC

Runs a fixed list of command lines, each in a fresh interpreter, against
each `src/` directory: every subcommand with the flags it reads, on the
two-state example e1 and on one generated model per benchmark workload
(`bench/models.py`, same sizes), `compare` and `peskun` on grids holding
a value within 1e-12 of one, `compare` at discount zero, `simulate` on
e1 and on the simulate-k2 model at short and long horizons, strat and
rand `simulate` rows at the exact-k8 and exact-k2 sizes, the embedded
scheme on e1, on one kernel and on five, each scheme on a Gibbs pair,
whose rows have zero entries, `simulate` on two kernels at the largest
size whose count table fits and at the next size up, and on a model
whose cumulative weights crowd a few buckets, `compare` and `limit` on a
three-kernel model where the scan ordering fails and `compare` there at
discount zero, `compare`, `limit` and `validate` on one kernel and on one
state, `compare` at discount zero on one kernel and on three ring
kernels, `validate`, `compare`, `limit` and rand `simulate` on three
kernels whose zero entries are 0.0 in some and -0.0 in others, `compare`
and `limit` on a model whose detailed-balance residual is near the
tolerance, where the random scan's eigenbasis solve falls back to its
LU, `limit` and `compare` with the limit row on a model with a target
weight near 1e-12,
on a swap pair, on a pair holding with probability 1 - 1e-9, on a pair
flipping with probability 1e-9, on one kernel with an eigenvalue
1 - 1e-8 and on two kernels whose target weights span six decades,
`compare` and `peskun` on the grid (1,) alone on the swap pair and on
the pair flipping with probability 1e-9,
`compare` near discount one and `limit` on a seven-state model with a
target weight near 1e-12 and an f nearly constant on the other states,
`validate`, `compare` and `limit` on a labelled model and on model
files that the loader refuses (duplicate labels, alone and with other
faults, state counts that disagree with the data, an empty list of
labels, one fault of each kind it checks, an empty kernel list beside a
NaN weight, a weight sum and a negative entry off by less than 1e-10
beside larger faults, finite weights or a kernel row whose sum
overflows, an empty `lambda_grid`, and a string, true, false or null
in `pi`, `f` or a kernel), on model files that test the parser and the
walk over a file's bytes (see `model_texts`), plus command lines that
fail with a documented exit code (among them `peskun` on families of
different shapes, which exits 1 before the two-kernel check could exit
2, and on families of different targets, `simulate` with 10**400 steps
or one replica, and `--method` or `--series-terms` on `demo` and
`compare`, a usage error), and the `compare` and `peskun` verdicts on e1
at `--tol 0`.
Each side runs in its own empty directory, so relative output paths print
the same. Exit codes, stdout, stderr and the bytes of every file a command
writes must agree; the script prints one line per command line and exits
1 on any difference. BLAS threads are pinned to one, so both sides round
alike.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import numpy as np  # noqa: E402
from models import BaseFamily  # noqa: E402

RUN = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from scanvar.cli import main; sys.exit(main(sys.argv[2:]))"
)
PINS = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

E1 = {
    "states": 2,
    "pi": [0.5, 0.5],
    "kernels": [[[0.9, 0.1], [0.1, 0.9]], [[0.6, 0.4], [0.4, 0.6]]],
    "f": [1.0, -1.0],
}
E1_LAZY = dict(E1, kernels=[[[0.95, 0.05], [0.05, 0.95]], [[0.8, 0.2], [0.2, 0.8]]])
# three kernels flipping the state with probabilities 0.9, 0.9 and 0.1: the
# cycle variance exceeds the random scan's at discount 0.9 and in the limit
K3_COUNTER = dict(E1, kernels=[[[1.0 - p, p], [p, 1.0 - p]] for p in (0.9, 0.9, 0.1)])
# three kernels on four states whose zero entries are 0.0 in some kernels
# and -0.0 in others, or -0.0 in all (entry (1, 3)): ties in each entry's sort
Z, M = 0.0, -0.0
SIGNED_ZEROS = {
    "states": 4,
    "pi": [0.25] * 4,
    "kernels": [
        [[0.75, 0.25, M, Z], [0.25, 0.75, Z, M], [M, Z, 0.5, 0.5], [Z, M, 0.5, 0.5]],
        [[1.0, Z, M, M], [Z, 0.625, 0.375, M], [M, 0.375, 0.625, M], [M, M, M, 1.0]],
        [[0.875, M, Z, 0.125], [M, 1.0, Z, M], [Z, Z, 1.0, M], [0.125, M, M, 0.875]],
    ],
    "f": [1.0, -1.0, 0.5, -0.5],
}
# two kernels reversible for a target other than e1's
OTHER_TARGET = dict(
    E1, pi=[0.25, 0.75], kernels=[[[0.7, 0.3], [0.1, 0.9]], [[0.4, 0.6], [0.2, 0.8]]]
)
# the smallest sizes: one kernel on e1's target, and one state
K1 = dict(E1, kernels=E1["kernels"][:1])
N1 = {"states": 1, "pi": [1.0], "kernels": [[[1.0]], [[1.0]]], "f": [2.0]}


def near_tolerance() -> dict:
    """Two kernels on three states that resample from the target with
    probability 0.01 and 0.03, each plus a circulation of flow 2.2e-11
    around the states: the target stays invariant, and the flow's
    asymmetry is about 0.9 of the detailed-balance tolerance."""
    pi = np.array([0.2, 0.3, 0.5])
    circulation = 2.2e-11 * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]) / pi[:, None]
    kernels = [
        (1 - p) * np.eye(3) + p * np.outer(np.ones(3), pi) + circulation for p in (0.01, 0.03)
    ]
    return {"states": 3, "pi": pi.tolist(), "kernels": [m.tolist() for m in kernels],
            "f": [1.0, -1.0, 0.5]}


def gibbs_pair(n1: int, n2: int, seed: int) -> dict:
    """The two coordinate updates of a Gibbs sampler on a seeded n1 x n2
    grid target, state = i1 * n2 + i2. Each row is zero off one grid line,
    so its cumulative weights repeat."""
    rng = np.random.default_rng(seed)
    p = 0.5 + rng.random((n1, n2))
    p /= p.sum()
    w = p.ravel()
    i1, i2 = np.divmod(np.arange(w.size), n2)
    kernels = [
        (i2[:, None] == i2) * w / p.sum(axis=0)[i2][:, None],
        (i1[:, None] == i1) * w / p.sum(axis=1)[i1][:, None],
    ]
    return {"states": w.size, "pi": w.tolist(), "kernels": [m.tolist() for m in kernels],
            "f": rng.standard_normal(w.size).tolist()}


def metropolised(w: np.ndarray, proposal: np.ndarray) -> np.ndarray:
    """The proposal Metropolised for the target w, rounded as the library's
    metropolis_kernel rounds it."""
    flow = w[:, None] * proposal
    off = np.minimum(flow, flow.T) / w[:, None]
    np.fill_diagonal(off, 0.0)
    return off + np.diag(np.maximum(1.0 - off.sum(axis=1), 0.0))


def tiny_weight() -> dict:
    """One kernel on six states whose first target weight is scaled by
    1e-12: the library's random_reversible(pi, 32), whose first try draws
    its Dirichlet proposal from the seed derive_seed(32, 0). Its cycle
    contraction is 0.913."""
    w = np.random.default_rng(32).random(6) + 0.05
    w[0] *= 1e-12
    w /= w.sum()
    proposal = np.random.default_rng(5456677139618326403).dirichlet(np.ones(6), size=6)
    return {"states": 6, "pi": w.tolist(), "kernels": [metropolised(w, proposal).tolist()],
            "f": list(range(6))}


def seven_state() -> dict:
    """Two kernels on seven states whose first target weight is scaled by
    1e-12, and an f nearly constant on the heavy states, all drawn from
    default_rng(0): the library's random_reversible(pi, 0) and
    random_reversible(pi, 1), whose first tries draw their proposals from
    the seeds derive_seed(0, 0) and derive_seed(1, 0). Near discount one
    the solve amplifies any part of f that centring leaves off the mean."""
    rng = np.random.default_rng(0)
    w = rng.random(7) + 0.05
    w[0] *= 1e-12
    w /= w.sum()
    kernels = [
        metropolised(w, np.random.default_rng(seed).dirichlet(np.ones(7), size=7)).tolist()
        for seed in (15204172177749531820, 16294208416658607535)
    ]
    f = 1.0 + 1e-9 * rng.standard_normal(7)
    f[0] = 1.01
    return {"states": 7, "pi": w.tolist(), "kernels": kernels, "f": f.tolist()}


def crowded(n: int, seed: int, low: float = 1e-12, hold: float = 1.0 - 1e-9) -> dict:
    """Two Metropolised Dirichlet proposals on a seeded target whose
    weights run from `low` to one, the second holding with probability
    `hold`: by default many cumulative weights lie within 1e-9 of zero or
    of one."""
    rng = np.random.default_rng(seed)
    w = np.geomspace(low, 1.0, n)
    rng.shuffle(w)
    w /= w.sum()
    kernels = []
    for a in (0.0, hold):
        q = rng.dirichlet(np.ones(n), size=n)
        m = np.minimum(q, (w[:, None] * q).T / w[:, None])
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, 1.0 - m.sum(axis=1))
        kernels.append((1.0 - a) * m + a * np.eye(n))
    return {"states": n, "pi": w.tolist(), "kernels": [m.tolist() for m in kernels],
            "f": rng.standard_normal(n).tolist()}


def invalid_models() -> dict[str, dict]:
    """Model files for the loader's checks: labels, state counts that
    disagree with the data, an empty list of labels, one fault of each kind the domain types
    refuse (NaN is written as JSON's NaN), an empty kernel list beside a
    NaN weight, a weight sum and a negative entry off by less than 1e-10
    beside larger faults, finite weights or
    a kernel row whose sum overflows, an empty `lambda_grid`, and a
    string, true, false or null in `pi`, `f` or a kernel."""
    nan, p2, short_row = float("nan"), E1["kernels"][1], [[0.9, 0.09], [0.1, 0.9]]
    return {
        "labelled": dict(E1, states=["lo", "hi"]),
        "labels-long": dict(E1, states=["a", "b", "c"]),
        "labels-twice": dict(E1, states=["a", "a"]),
        "labels-twice-row-sum": dict(E1, states=["a", "a"], kernels=[short_row, p2]),
        "labels-twice-nan-weight": dict(E1, states=["a", "a"], pi=[nan, 0.5]),
        "count-off": dict(E1, states=3),
        "states-0": dict(E1, states=0),
        "states-minus-1": dict(E1, states=-1),
        "states-true": dict(E1, states=True),
        "states-mixed": dict(E1, states=["a", 1]),
        "empty": {"states": 0, "pi": [], "kernels": [], "f": []},
        "empty-labels": {"states": [], "pi": [], "kernels": [], "f": []},
        "no-kernels": dict(E1, kernels=[]),
        "empty-kernels-bad-pi": dict(E1, pi=[nan, 0.5], kernels=[]),
        "row-sum": dict(E1, kernels=[short_row, p2]),
        # raw flow imbalance 8e-11 is within 1e-10, but 1.8e-10 of the largest flow
        "relative-balance": dict(E1, kernels=[[[0.1, 0.9], [0.9 - 1.6e-10, 0.1 + 1.6e-10]]]),
        "balance": dict(E1, kernels=[[[0.9, 0.1], [0.2, 0.8]], p2]),
        "negative": dict(E1, kernels=[[[1.1, -0.1], [-0.1, 1.1]], p2]),
        "zero-weight": dict(E1, pi=[0.0, 1.0], kernels=[[[1.0, 0.0], [0.0, 1.0]]]),
        "weight-sum": dict(E1, pi=[0.5, 0.49]),
        # faults below 1e-10 that the types refuse, beside a short row
        "pi-sum-and-row-sum": dict(E1, pi=[0.5, 0.5 + 5e-11], kernels=[short_row, p2]),
        "negative-and-short-row": dict(
            E1, kernels=[[[1.0 + 1e-11, -1e-11], [-1e-11, 1.0 + 1e-11]], [[0.6, 0.39], [0.4, 0.6]]]
        ),
        "short-f": dict(E1, f=[1.0]),
        "nan-f": dict(E1, f=[1.0, nan]),
        "shapes": dict(E1, kernels=[E1["kernels"][0], np.eye(3).tolist()]),
        "nan-kernel": dict(E1, kernels=[[[nan, 0.1], [0.1, 0.9]], p2]),
        # finite entries whose sums overflow to inf
        "overflow-pi": dict(E1, pi=[1e308, 1e308]),
        "overflow-row": dict(E1, kernels=[[[1e308, 1e308], [0.1, 0.9]], p2]),
        # an empty grid is refused, not taken for an absent one
        "empty-grid": dict(E1, lambda_grid=[]),
        # entries np.asarray reads as numbers, which JSON does not call numbers
        "string-weight": dict(E1, pi=["0.5", 0.5]),
        "null-weight": dict(E1, pi=[None, 0.5]),
        "boolean-f": dict(E1, f=[True, False]),
        "boolean-kernel": dict(E1, kernels=[[[True, False], [False, True]]]),
        "null-kernel-entry": dict(E1, kernels=[E1["kernels"][0], [[0.6, 0.4], [0.4, None]]]),
        "string-kernel-entry": dict(E1, kernels=[E1["kernels"][0], [[0.6, "0.4"], [0.4, 0.6]]]),
    }


def model_texts() -> dict[str, bytes]:
    """Model files as bytes, for the parser: kernels that do not convert
    (alone and with a required field missing), `kernels` not a list or
    given twice, trailing data, a UTF-8 BOM, a top-level array, syntax
    errors, CRLF and whitespace-heavy formatting, and text that is not
    UTF-8, numbers past a float's range (integers, and float literals in
    pi and f) or too long to read, nesting too
    deep to parse, and kernel matrices whose rows orjson refuses or the
    row walk does not take (NaN and Infinity literals, floats past a
    float's range, integers past 64 bits or of 5000 digits, nested rows,
    a string holding ']', an empty row or matrix, an object entry, a lone
    surrogate escape, bad row separators, a short row, which numpy would
    broadcast, and one row too many), and the edges of the walk over the
    file's bytes: a raw UTF-8 label, CRLF and lone-CR line endings with a
    syntax error late in the file, a `pi` longer than the first decode
    window, a number as the top level, ending at the end of the file,
    `kernels` inside `simulation` ahead of the top-level one, and
    `kernels` given twice, both valid."""
    string, ragged = [[0.6, "x"], [0.4, 0.6]], [[0.6], [0.4, 0.6]]
    e1 = json.dumps(E1)
    deep = "[" * 100_000 + "]" * 100_000
    texts = {
        "string-entry": json.dumps(dict(E1, kernels=[E1["kernels"][0], string])),
        "ragged": json.dumps(dict(E1, kernels=[E1["kernels"][0], ragged])),
        "string-entry-no-pi": json.dumps({k: v for k, v in E1.items() if k != "pi"}
                                         | {"kernels": [string]}),
        "kernels-object": json.dumps(dict(E1, kernels={"a": E1["kernels"][0]})),
        "kernels-number": json.dumps(dict(E1, kernels=3)),
        "kernels-twice": e1[:-1] + ', "kernels": ' + json.dumps([string]) + "}",
        "kernels-twice-last-good": '{"kernels": ' + json.dumps([string]) + ", " + e1[1:],
        "empty-object": "{}",
        "trailing-data": e1 + " x",
        "trailing-comma": e1[:-1] + ",}",
        "kernels-trailing-comma": e1.replace("]]]", "]],]"),
        "unterminated": e1[:-20],
        "bom": "\ufeff" + e1,
        "top-level-array": json.dumps([E1]),
        "crlf": json.dumps(dict(E1, lambda_grid=[0.5]), indent=2).replace("\n", "\r\n"),
        "whitespace": " \t\r\n" + json.dumps(E1, indent="\t \r\n", separators=(" \n,\t", "\r : ")),
        "huge-pi": json.dumps(dict(E1, pi=[10**400, 0.5])),
        "huge-f": json.dumps(dict(E1, f=[1.0, 10**400])),
        "huge-kernel": json.dumps(dict(E1, kernels=[E1["kernels"][0], [[0.6, 10**400], [0.4, 0.6]]])),
        "huge-grid": json.dumps(dict(E1, lambda_grid=[0.5, 10**400])),
        "float-past-range-pi": e1.replace('"pi": [0.5, 0.5]', '"pi": [1e400, 0.5]'),
        "float-past-range-f": e1.replace('"f": [1.0, -1.0]', '"f": [1.0, -1e400]'),
        "long-integer": json.dumps(E1).replace("0.5, 0.5", "1" * 5000 + ", 0.5"),
        "deep-top-level": deep,
        "deep-kernels": json.dumps(dict(E1, kernels="DEEP")).replace('"DEEP"', deep),
        "utf8-label": json.dumps(dict(E1, states=["\u00e9t\u00e9", "\u03c0"]), ensure_ascii=False),
        "crlf-late-error": (json.dumps(E1, indent=2)[:-2] + ",\n}").replace("\n", "\r\n"),
        "cr-late-error": (json.dumps(E1, indent=2)[:-2] + ",\n}").replace("\n", "\r"),
        "long-pi": e1.replace('"pi": [0.5, 0.5]', '"pi": [0.5' + "0" * 5000 + "," + " " * 5000 + "0.5]"),
        "number-top-level": "42",
        "kernels-in-simulation": '{"simulation": {"kernels": [[[1.0]]], "steps": 64}, ' + e1[1:],
        "kernels-twice-both-good": e1[:-1] + ', "kernels": ' + json.dumps(E1_LAZY["kernels"]) + "}",
    }
    # kernel matrices whose rows orjson refuses or the row walk does not take
    p2 = json.dumps(E1["kernels"][1])
    for name, matrix in {
        "nan-literal": "[[NaN, 0.4], [0.4, 0.6]]",
        "infinity-literal": "[[0.6, 0.4], [Infinity, -Infinity]]",
        "float-past-range": "[[0.6, 1e400], [0.4, 0.6]]",
        "past-64-bits": "[[0.6, 18446744073709551616], [0.4, 0.6]]",
        "long-integer-row": "[[0.6, 1" + "0" * 5000 + "], [0.4, 0.6]]",
        "nested-rows": "[[[0.6], [0.4]], [[0.4], [0.6]]]",
        "string-bracket": '[[0.6, "]"], [0.4, 0.6]]',
        "empty-row": "[[0.6, 0.4], []]",
        "empty-matrix": "[]",
        "object-entry": "[[0.6, {}], [0.4, 0.6]]",
        "lone-surrogate": '[["\\ud800", 0.4], [0.4, 0.6]]',
        "row-semicolon": "[[0.6, 0.4]; [0.4, 0.6]]",
        "row-no-separator": "[[0.6, 0.4] [0.4, 0.6]]",
        "row-trailing-comma": "[[0.6, 0.4], [0.4, 0.6],]",
        "number-row": "[[0.6, 0.4], 7]",
        "short-row": "[[0.6, 0.4], [0.5]]",
        "extra-row": "[[0.6, 0.4], [0.4, 0.6], [0.5, 0.5]]",
    }.items():
        texts[f"matrix-{name}"] = e1.replace(p2, matrix)
    out = {name: text.encode("utf-8") for name, text in texts.items()}
    out["not-utf8"] = e1.replace('"f"', '"\xff"').encode("latin-1")
    return out


def write_models(models: Path) -> dict[str, tuple[Path, Path, list[str]]]:
    """name -> (model, its kernelwise identity blend, simulation sizes)."""
    (models / "e1.json").write_text(json.dumps(E1))
    (models / "e1-lazy.json").write_text(json.dumps(E1_LAZY))
    out = {"e1": (models / "e1.json", models / "e1-lazy.json", ["--steps", "512", "--replicas", "40"])}
    # one model per benchmark workload, at its size: (name, n, k, simulate sizes)
    for name, n, k, sizes in (
        ("exact-k2", 400, 2, ["--steps", "256", "--replicas", "20"]),
        ("exact-k8", 150, 8, ["--steps", "256", "--replicas", "20"]),
        ("simulate-k2", 30, 2, []),
    ):
        base = BaseFamily(1, n, k, hold=0.3)
        path, path_b = models / f"{name}.json", models / f"{name}-lazy.json"
        sim = {"steps": 2048, "replicas": 100, "seed": 5, "scheme": "embedded"}
        base.op(1, 0).write(path, lambda_grid=[0.3, 0.6, 0.9, 0.99], simulation=sim)
        base.op(1, 0, lazy=True).write(path_b)
        out[name] = (path, path_b, sizes)
    return out


def command_lines(models: Path) -> list[list[str]]:
    lines = [["demo"], ["demo", "--out", "x.csv", "--tol", "1e-9"]]
    for model, lazy, sizes in write_models(models).values():
        m, b = str(model), str(lazy)
        lines += [
            ["validate", "--model", m],
            ["validate", "--model", m, "--tol", "1e-13"],
            ["compare", "--model", m],
            ["compare", "--model", m, "--out", "c.csv", "--tol", "1e-9"],
            ["compare", "--model", m, "--lambda", "0.3,0.9,1", "--out", "s.csv"],
            ["compare", "--model", m, "--lambda", "0.5"],
            ["compare", "--model", m, "--lambda", "0,0.5"],
            ["peskun", "--model", m, "--model-b", b],
            ["peskun", "--model", m, "--model-b", b, "--lambda", "0.2,1", "--out", "p.csv"],
            ["peskun", "--model", b, "--model-b", m, "--tol", "1e-12"],
            ["limit", "--model", m],
            ["limit", "--model", m, "--out", "l.csv"],
            ["simulate", "--model", m, "--seed", "3", *sizes],
            ["simulate", "--model", m, "--seed", "4", "--out", "sim.csv", *sizes],
        ]
        # a grid value within 1e-12 of one asks for the limit row
        for grid in ("1", "1,0.5", "0.5,1.0000000000001"):
            lines += [
                ["compare", "--model", m, "--lambda", grid],
                ["peskun", "--model", m, "--model-b", b, "--lambda", grid],
            ]
    for name in ("e1", "simulate-k2"):  # short and long horizons
        m = str(models / f"{name}.json")
        lines += [
            ["simulate", "--model", m, "--seed", "2", "--steps", str(steps), "--replicas", "20"]
            for steps in (1, 2, 3, 5, 257, 4096)
        ]
    # strat and rand rows (no scheme field) at the exact-k8 and exact-k2
    # sizes, on both sides of the choice between stepping and squaring
    for name, n, k in (("k8-plain", 150, 8), ("k2-plain", 400, 2)):
        m = models / f"{name}.json"
        BaseFamily(3, n, k).op(3, 0).write(m)
        lines += [
            ["simulate", "--model", str(m), "--seed", "8", "--steps", str(steps), "--replicas", "5"]
            for steps in (16, 257, 4096)
        ]
    # two kernels on 101 states hold the largest count table that fits, and
    # 102 states step by gather; a short run steps by gather at any size
    for n in (101, 102):
        m = models / f"table-{n}.json"
        BaseFamily(4, n, 2).op(4, 0).write(m)
        lines.append(["simulate", "--model", str(m), "--seed", "10", "--steps", "2048",
                      "--replicas", "40"])
    m = models / "crowded.json"
    m.write_text(json.dumps(crowded(30, 11)))
    lines += [
        ["simulate", "--model", str(m), "--seed", "12", "--steps", str(steps),
         "--replicas", str(replicas)]
        for steps, replicas in ((38, 5), (2048, 100))
    ]
    # the embedded scheme, which only a model's simulation block selects:
    # on e1, on one kernel and on a random five-kernel model
    embedded = {"scheme": "embedded"}
    (models / "e1-embedded.json").write_text(json.dumps(dict(E1, simulation=embedded)))
    for name, k in (("k1", 1), ("k5", 5)):
        BaseFamily(2, 12, k).op(2, 0).write(models / f"{name}-embedded.json", simulation=embedded)
    for name in ("e1", "k1", "k5"):
        m = str(models / f"{name}-embedded.json")
        lines += [
            ["simulate", "--model", m, "--seed", "6", "--steps", str(steps), "--replicas", "20"]
            for steps in (1, 2, 5, 257, 4096)
        ]
        lines.append(["simulate", "--model", m, "--out", "e.csv"])
    # every scheme on a Gibbs pair, whose rows have zero entries
    gibbs = gibbs_pair(3, 4, 7)
    for scheme in ("strat", "rand", "embedded"):
        m = models / f"gibbs-{scheme}.json"
        m.write_text(json.dumps(dict(gibbs, simulation={"scheme": scheme})))
        lines.append(["simulate", "--model", str(m), "--seed", "9", "--steps", "257",
                      "--replicas", "20"])
    k3 = models / "k3-counter.json"
    k3.write_text(json.dumps(K3_COUNTER))
    lines += [
        ["compare", "--model", str(k3), "--lambda", "0.5,0.9"],
        ["compare", "--model", str(k3), "--lambda", "0,0.5"],
        ["compare", "--model", str(k3), "--out", "k.csv"],
        ["limit", "--model", str(k3), "--out", "l.csv"],
    ]
    for name, model in (("k1", K1), ("n1", N1)):
        m = models / f"{name}.json"
        m.write_text(json.dumps(model))
        lines += [
            ["compare", "--model", str(m)],
            ["compare", "--model", str(m), "--lambda", "0.3,1"],
            ["limit", "--model", str(m)],
            ["validate", "--model", str(m)],
        ]
    lines.append(["compare", "--model", str(models / "k1.json"), "--lambda", "0,0.5"])
    # three ring kernels on six states whose three equal phase terms at
    # discount zero once summed and scaled to a gap of 2.2e-16
    m = models / "k3-ring.json"
    BaseFamily(3, 6, 3).op(3, 0).write(m)
    lines.append(["compare", "--model", str(m), "--lambda", "0,0.5"])
    m = models / "signed-zeros.json"
    m.write_text(json.dumps(dict(SIGNED_ZEROS, simulation={"scheme": "rand"})))
    lines += [
        ["validate", "--model", str(m)],
        ["compare", "--model", str(m), "--lambda", "0,0.5,0.9,1"],
        ["limit", "--model", str(m)],
        ["simulate", "--model", str(m), "--seed", "14", "--steps", "257", "--replicas", "20"],
    ]
    near = models / "near-tolerance.json"
    near.write_text(json.dumps(near_tolerance()))
    lines += [["compare", "--model", str(near)], ["limit", "--model", str(near)]]
    # the summability verdict on a target weight near 1e-12, on a swap
    # pair, which never contracts, and on two ring kernels holding with
    # probability 1 - 1e-9, whose contraction is 1 - 1e-9; the random-scan
    # guard on a pair that flips with probability 1e-9, on one kernel whose
    # second eigenvalue 1 - 1e-8 lies on the guard's line, and on two
    # kernels on 40 states whose target weights run from 1e-6 to one
    (models / "tiny-weight.json").write_text(json.dumps(tiny_weight()))
    swap = [[0.0, 1.0], [1.0, 0.0]]
    (models / "swap.json").write_text(json.dumps(dict(E1, kernels=[swap, swap])))
    BaseFamily(1, 6, 2, hold=1.0 - 1e-9).op(1, 0, lazy=True).write(models / "near-one.json")
    sticky, line = ([[1.0 - p, p], [p, 1.0 - p]] for p in (1e-9, 5e-9))
    (models / "sticky.json").write_text(json.dumps(dict(E1, kernels=[sticky, sticky])))
    (models / "on-the-line.json").write_text(json.dumps(dict(E1, kernels=[line])))
    (models / "wide-ratio.json").write_text(json.dumps(crowded(40, 13, low=1e-6, hold=0.0)))
    for name in ("tiny-weight", "swap", "near-one", "sticky", "on-the-line", "wide-ratio"):
        m = str(models / f"{name}.json")
        lines += [["limit", "--model", m], ["compare", "--model", m, "--lambda", "0.5,1"]]
    # a sweep whose only row is the refused limit (peskun reads only the
    # cycles' limits, which the sticky pair's summable cycle gives)
    for name in ("swap", "sticky"):
        m = str(models / f"{name}.json")
        lines += [["compare", "--model", m, "--lambda", "1", "--out", "c.csv"],
                  ["peskun", "--model", m, "--model-b", m, "--lambda", "1"]]
    # near discount one on a 1e-12 weight with f nearly constant elsewhere
    m = models / "seven-state.json"
    m.write_text(json.dumps(seven_state()))
    lines += [["compare", "--model", str(m), "--lambda", "0.99,0.999999,1"],
              ["limit", "--model", str(m)]]
    for name, model in invalid_models().items():
        m = models / f"invalid-{name}.json"
        m.write_text(json.dumps(model))
        lines += [[command, "--model", str(m)] for command in ("validate", "compare", "limit")]
    for name, data in model_texts().items():
        m = models / f"text-{name}.json"
        m.write_bytes(data)
        lines += [[command, "--model", str(m)] for command in ("validate", "compare", "limit")]
    m = str(models / "e1.json")
    (models / "e1-seed.json").write_text(json.dumps(dict(E1, simulation={"seed": 2**64})))
    (models / "other-target.json").write_text(json.dumps(OTHER_TARGET))
    lines += [  # documented failures
        ["simulate", "--model", m, "--seed", "-1", "--steps", "64", "--replicas", "5"],
        ["simulate", "--model", m, "--seed", str(2**64), "--steps", "64", "--replicas", "5"],
        ["simulate", "--model", str(models / "e1-seed.json"), "--steps", "64",
         "--replicas", "5", "--out", "q.csv"],
        ["peskun", "--model", m],
        ["peskun", "--model", m, "--model-b", str(models / "exact-k2.json")],
        ["peskun", "--model", str(models / "exact-k8.json"), "--model-b", m],
        ["peskun", "--model", m, "--model-b", str(models / "other-target.json")],
        ["compare", "--model", str(models / "missing.json")],
        ["compare", "--model", m, "--lambda", "1.5"],
        ["peskun", "--model", m, "--model-b", m, "--lambda", "0.5,nan"],
        ["compare", "--model", m, "--lambda", "0.3,a"],
        ["simulate", "--model", m, "--steps", "0", "--replicas", "5", "--seed", "1"],
        ["simulate", "--model", m, "--steps", "64", "--replicas", "1", "--seed", "1"],
        ["simulate", "--model", m, "--steps", str(10**400), "--replicas", "5", "--seed", "1"],
        # compare and demo take one route, so a route flag is a usage error
        ["demo", "--out", "x.csv", "--method", "series", "--series-terms", "60", "--tol", "1e-9"],
        ["compare", "--model", m, "--method", "series", "--lambda", "0.5"],
    ]
    # verdicts at --tol 0: e1 against itself has every gap exactly 0
    lines += [
        ["peskun", "--model", m, "--model-b", m, "--tol", "0"],
        ["compare", "--model", m, "--tol", "0"],
    ]
    return lines


def run(src: str, argv: list[str], cwd: Path) -> tuple:
    before = set(cwd.rglob("*"))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, src, *argv],
        cwd=cwd,
        env={**os.environ, **PINS},
        capture_output=True,
        timeout=600,
    )
    written = {
        str(p.relative_to(cwd)): p.read_bytes()
        for p in sorted(cwd.rglob("*"))
        if p.is_file() and p not in before
    }
    for p in written:
        (cwd / p).unlink()
    return proc.returncode, proc.stdout, proc.stderr, written


def main(argv=None) -> int:
    old, new = (str(Path(p).resolve()) for p in (argv or sys.argv[1:]))
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for d in ("models", "old", "new"):
            (tmp / d).mkdir()
        for line in command_lines(tmp / "models"):
            a = run(old, line, tmp / "old")
            b = run(new, line, tmp / "new")
            same = a == b
            differ += not same
            label = " ".join(Path(x).name if "/" in x else x for x in line)
            print(f"{'same' if same else 'DIFFERENT'} exit {a[0]}/{b[0]}: {label}", flush=True)
    print(f"{differ} command line(s) differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
