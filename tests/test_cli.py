"""End-to-end tests of the command line interface and its file formats."""

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from scanvar.cli import (
    EXIT_ASSERTION,
    EXIT_IO,
    EXIT_OK,
    EXIT_VALIDATION,
    PSD_TOL,
    load_model,
    main,
)
import scanvar.cli
import scanvar.kernels
from scanvar.kernels import NUMERIC_TOL, Dist, ValidationError, gibbs_kernel, random_reversible
from scanvar.ordering import OrderingReport, PeskunComparison


def write_model(path, **overrides):
    model = {
        "states": 2,
        "pi": helpers.E1_PI,
        "kernels": [helpers.E1_P1, helpers.E1_P2],
        "f": helpers.E1_F,
    }
    model.update(overrides)
    path.write_text(json.dumps(model), encoding="utf-8")
    return str(path)


def model_args(command, path):
    """--model, and for peskun also --model-b, on the same file."""
    return ["--model", path] + (["--model-b", path] if command == "peskun" else [])


THREE_KERNEL_MODEL = {
    "states": 3,
    "pi": [0.25, 0.25, 0.5],
    "kernels": [
        [[0.5, 0.3, 0.2], [0.3, 0.5, 0.2], [0.1, 0.1, 0.8]],
        [[0.2, 0.4, 0.4], [0.4, 0.4, 0.2], [0.2, 0.1, 0.7]],
        [[0.6, 0.0, 0.4], [0.0, 0.2, 0.8], [0.2, 0.4, 0.4]],
    ],
    "f": [1.0, -2.0, 0.5],
}


def gibbs_pair_model() -> dict:
    """The two coordinate updates of a Gibbs sampler on a 2 x 3 grid."""
    joint = Dist(np.array([0.1, 0.2, 0.15, 0.25, 0.2, 0.1]))
    kernels = [gibbs_kernel(joint, (2, 3), c).matrix.tolist() for c in (1, 2)]
    return {"states": 6, "pi": joint.weights.tolist(), "kernels": kernels,
            "f": [1.0, -2.0, 0.5, 3.0, 0.0, -1.0]}


GIBBS_PAIR = gibbs_pair_model()


class TestLoadModel:
    def test_well_formed(self, tmp_path):
        model = load_model(write_model(tmp_path / "m.json"))
        assert model.family.k == 2
        assert model.family.n == 2
        assert model.lambda_grid is None

    def test_labels_as_states(self, tmp_path):
        path = write_model(tmp_path / "m.json", states=["lo", "hi"])
        assert load_model(path).family.n == 2

    def test_bad_row_sum_reported(self, tmp_path):
        bad = [[0.9, 0.09], [0.1, 0.9]]
        path = write_model(tmp_path / "m.json", kernels=[bad, helpers.E1_P2])
        with pytest.raises(ValidationError) as err:
            load_model(path)
        message = str(err.value)
        assert "row 0" in message
        assert "0.01" in message

    @pytest.mark.parametrize("excess", [1e-7, 5e-11])
    def test_row_sum_fault_named_once(self, tmp_path, excess):
        bad = [[0.9 + excess, 0.1], [0.1, 0.9]]
        path = write_model(tmp_path / "m.json", kernels=[bad, helpers.E1_P2])
        with pytest.raises(ValidationError) as err:
            load_model(path)
        header, *problems = str(err.value).splitlines()
        assert path in header
        assert len(problems) == 1
        assert problems[0].startswith("  kernel 1: row 0 sums to ")

    def test_nonreversible_reports_residual(self, tmp_path):
        path = write_model(
            tmp_path / "m.json", kernels=[[[0.9, 0.1], [0.2, 0.8]], helpers.E1_P2]
        )
        with pytest.raises(ValidationError) as err:
            load_model(path)
        assert "detailed-balance" in str(err.value)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"states": 2, "pi": [0.5, 0.5]}), encoding="utf-8")
        from scanvar.cli import ModelFormatError

        with pytest.raises(ModelFormatError):
            load_model(str(path))

    @pytest.mark.parametrize(
        "command, overrides, field",
        [
            ("compare", {"lambda_grid": 0.5}, "'lambda_grid'"),
            ("compare", {"lambda_grid": ["a"]}, "'lambda_grid'"),
            ("simulate", {"simulation": {"steps": "many"}}, "'simulation.steps'"),
            ("simulate", {"simulation": {"seed": "x"}}, "'simulation.seed'"),
            ("simulate", {"simulation": {"steps": 2.5}}, "'simulation.steps'"),
            ("simulate", {"simulation": {"replicas": True}}, "'simulation.replicas'"),
            ("simulate", {"simulation": {"scheme": 1}}, "'simulation.scheme'"),
            # not taken for an absent grid, as --lambda '' is not taken for an absent flag
            ("compare", {"lambda_grid": []}, "field 'lambda_grid' must not be empty"),
            ("simulate", {"simulation": [4096]}, "field 'simulation' must be an object"),
        ],
    )
    def test_malformed_optional_field_is_parse_error(
        self, tmp_path, capsys, command, overrides, field
    ):
        path = write_model(tmp_path / "m.json", **overrides)
        assert main([command, "--model", path]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("parse error: ")
        assert field in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "states", [True, -1, 0, []], ids=["true", "minus-one", "zero", "no-labels"]
    )
    def test_boolean_state_count_is_parse_error(self, tmp_path, capsys, states):
        # a boolean is no count, and neither is a negative number or zero,
        # nor an empty list a list of labels, since no family has zero states
        path = write_model(tmp_path / "m.json", states=states, pi=[1.0], kernels=[[[1.0]]], f=[0.0])
        assert main(["limit", "--model", path]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == (
            f"parse error: {path}: field 'states' must be a count or a list of labels\n"
        )
        assert captured.out == ""

    def test_integral_simulation_sizes_accepted(self, tmp_path):
        path = write_model(
            tmp_path / "m.json", simulation={"steps": 64.0, "replicas": 10, "seed": 3}
        )
        sim = load_model(path).simulation
        assert sim == {"steps": 64, "replicas": 10, "seed": 3}
        assert all(type(v) is int for v in sim.values())

    def test_valid_model_diagnosed_once(self, tmp_path, monkeypatch, capsys):
        # the family's own diagnosis is the only one, per model file and
        # for every command: validate reads it back, and the fault listing
        # of a model refused for detailed balance reads the refusal's record
        calls = []
        diagnose = scanvar.kernels.family_diagnostics

        def counted(*args, **kwargs):
            calls.append(args)
            return diagnose(*args, **kwargs)

        monkeypatch.setattr(scanvar.kernels, "family_diagnostics", counted)
        monkeypatch.setattr(scanvar.cli, "family_diagnostics", counted)
        monkeypatch.chdir(tmp_path)
        load_model(write_model(tmp_path / "three.json", **THREE_KERNEL_MODEL))
        assert len(calls) == 1
        path = write_model(tmp_path / "m.json")
        for command in scanvar.cli.COMMANDS:
            calls.clear()
            if command == "demo":
                argv = ["demo", "--out", "demo.csv"]
            else:
                argv = [command, *model_args(command, path)]
            if command == "simulate":
                argv += ["--steps", "8", "--replicas", "2"]
            assert main(argv) == EXIT_OK, command
            model_files = 2 if command == "peskun" else 1
            assert len(calls) == model_files, command
        calls.clear()
        refused = write_model(
            tmp_path / "r.json", kernels=[[[0.9, 0.1], [0.2, 0.8]], helpers.E1_P2]
        )
        with pytest.raises(ValidationError) as err:
            load_model(refused)
        assert str(err.value).endswith(
            "\n  kernel 1: relative detailed-balance residual 0.111 > 1e-10"
        )
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "overrides, lines",
        [
            ({"states": ["a", "a"]}, ["state labels must be distinct"]),
            # raw flow imbalance 8e-11, but 1.8e-10 of the kernel's largest flow 0.45
            (
                {"kernels": [[[0.1, 0.9], [0.9 - 1.6e-10, 0.1 + 1.6e-10]]]},
                ["kernel 1: relative detailed-balance residual 1.78e-10 > 1e-10"],
            ),
            # faults below 1e-10 that the types refuse, beside larger ones
            (
                {"pi": [0.5, 0.5 + 5e-11], "kernels": [[[0.9, 0.09], [0.1, 0.9]], helpers.E1_P2]},
                ["pi: weights sum to 1.00000000005 (residual 5e-11)",
                 "kernel 1: row 0 sums to 0.99 (residual 0.01)",
                 "kernel 1: relative detailed-balance residual 0.0111 > 1e-10"],
            ),
            (
                {"kernels": [[[1.0 + 1e-11, -1e-11], [-1e-11, 1.0 + 1e-11]],
                             [[0.6, 0.39], [0.4, 0.6]]]},
                ["kernel 1: negative entry of magnitude 1e-11",
                 "kernel 2: row 0 sums to 0.99 (residual 0.01)",
                 "kernel 2: relative detailed-balance residual 0.0167 > 1e-10"],
            ),
            ({"kernels": []}, ["a kernel family needs at least one kernel"]),
            # an empty list is named beside a pi the family cannot be measured on
            (
                {"pi": [float("nan"), 0.5], "kernels": []},
                ["pi: non-finite entry nan at [0]", "a kernel family needs at least one kernel"],
            ),
            (
                {"pi": [0.2, 0.3, 0.5], "kernels": []},
                ["pi has shape (3,), expected (2,)", "a kernel family needs at least one kernel"],
            ),
        ],
        ids=["labels", "relative-balance", "pi-sum", "negative-entry", "no-kernels",
             "no-kernels-nan-weight", "no-kernels-long-pi"],
    )
    def test_type_refusal_listed(self, tmp_path, capsys, overrides, lines):
        # every fault the types refuse is listed, at the types' thresholds
        path = write_model(tmp_path / "m.json", **overrides)
        assert main(["validate", "--model", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == (
            f"validation error: {path} failed validation:\n  " + "\n  ".join(lines) + "\n"
        )
        assert captured.out == ""

    def test_dimension_mismatch_listed(self, tmp_path):
        path = write_model(tmp_path / "m.json", f=[1.0, -1.0, 0.0])
        with pytest.raises(ValidationError) as err:
            load_model(path)
        assert "f has shape" in str(err.value)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "field, value, lines",
        [
            ("pi", "[1e400, 0.5]", ["pi: non-finite entry inf at [0]"]),
            ("pi", "[NaN, 0.5]", ["pi: non-finite entry nan at [0]"]),
            ("f", "[1.0, -1e400]", ["f: non-finite entry -inf at [1]"]),
            (
                "kernels",
                "[[[0.9, 0.1], [0.1, NaN]], [[0.6, 1e400], [Infinity, 0.6]]]",
                ["kernel 1: non-finite entry nan at [1][1]",
                 "kernel 2: non-finite entry inf at [0][1]"],
            ),
            # its balance residual would be inf
            (
                "kernels",
                "[[[0.9, 0.1], [0.1, 0.9]], [[0.6, -Infinity], [0.4, 0.6]]]",
                ["kernel 2: non-finite entry -inf at [0][1]"],
            ),
        ],
        ids=["inf-pi", "nan-pi", "inf-f", "kernels", "minus-inf-kernel"],
    )
    def test_non_finite_entry_listed_alone(self, tmp_path, capsys, field, value, lines):
        # json reads NaN, Infinity and a float literal past a float's range;
        # the residuals they make are inf or NaN, so only the entries are
        # listed, with no RuntimeWarning on the way
        path = write_model(tmp_path / "m.json", **{field: "X"})
        text = (tmp_path / "m.json").read_text(encoding="utf-8").replace('"X"', value)
        (tmp_path / "m.json").write_text(text, encoding="utf-8")
        for command in ("validate", "compare"):
            assert main([command, "--model", path]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.err == (
                f"validation error: {path} failed validation:\n  " + "\n  ".join(lines) + "\n"
            )
            assert captured.out == ""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "overrides, lines",
        [
            ({"pi": [1e308, 1e308]}, ["pi: weights sum to inf (residual inf)"]),
            (
                {"kernels": [[[1e308, 1e308], [0.1, 0.9]], helpers.E1_P2]},
                ["kernel 1: row 0 sums to inf (residual inf)",
                 "kernel 1: relative detailed-balance residual 1 > 1e-10"],
            ),
        ],
        ids=["pi", "kernel-row"],
    )
    def test_overflowing_sum_listed_without_warnings(self, tmp_path, capsys, overrides, lines):
        # finite entries whose sum overflows: the sums are inf, refused and
        # listed, with no RuntimeWarning from the types or the listing
        path = write_model(tmp_path / "m.json", **overrides)
        for command in ("validate", "compare", "limit"):
            assert main([command, "--model", path]) == EXIT_VALIDATION
            captured = capsys.readouterr()
            assert captured.err == (
                f"validation error: {path} failed validation:\n  " + "\n  ".join(lines) + "\n"
            )
            assert captured.out == ""

    @pytest.mark.parametrize(
        "overrides, lines",
        [
            ({"pi": [float("nan"), 0.5]}, ["pi: non-finite entry nan at [0]"]),
            (
                {"kernels": [[[0.9, 0.09], [0.1, 0.9]], helpers.E1_P2]},
                ["kernel 1: row 0 sums to 0.99 (residual 0.01)",
                 "kernel 1: relative detailed-balance residual 0.0111 > 1e-10"],
            ),
        ],
        ids=["nan-weight", "row-sum"],
    )
    def test_repeated_labels_listed_with_other_faults(self, tmp_path, overrides, lines):
        path = write_model(tmp_path / "m.json", states=["a", "a"], **overrides)
        with pytest.raises(ValidationError) as err:
            load_model(path)
        assert str(err.value) == (
            f"{path} failed validation:\n  state labels must be distinct\n  "
            + "\n  ".join(lines)
        )

    def test_load_holds_the_bytes_and_the_arrays(self, tmp_path):
        # A kernel entry takes about 23 bytes in the file and 8 in its
        # array, so the kernels' arrays weigh A = 8 k n^2, about 0.35F for
        # a file of F bytes. The read holds the bytes, the arrays, one
        # row's list (32 bytes an entry) and pi's and f's lists: F + A and
        # a few n. Validation then holds each kernel twice (the load's
        # array and the Kernel type's copy) beside two n x n buffers,
        # A (2k + 2) / k: 1.4F at k = 1, and below the read's F + A at
        # k >= 2. 0.15F more leaves room for the other fields and numpy's
        # temporaries, and fails a load that holds a decoded copy of the
        # file (2F) or every kernel's lists (more than 2.3F). Non-ASCII
        # labels and CRLF line endings keep that bound.
        for n, k, label, newline in (
            (200, 4, "s", "\n"), (200, 1, "s", "\n"), (300, 2, "s", "\n"),
            (300, 2, "\u00e9tat-\u03c0", "\n"), (300, 2, "s", "\r\n"),
        ):
            fam = helpers.random_family(np.random.default_rng(5), n, k)
            kernels = [
                "[" + ("," + newline).join(json.dumps(row) for row in m.tolist()) + "]"
                for m in fam.matrices
            ]
            path = tmp_path / "m.json"
            path.write_bytes(("{" + newline + ("," + newline).join([
                '"states": ' + json.dumps([f"{label}{i}" for i in range(n)], ensure_ascii=False),
                '"pi": ' + json.dumps(fam.pi.weights.tolist()),
                '"kernels": [' + ("," + newline).join(kernels) + "]",
                '"f": ' + json.dumps([1.0] * n),
            ]) + newline + "}").encode("utf-8"))
            size, arrays = path.stat().st_size, 8 * k * n * n
            tracemalloc.start()
            try:
                load_model(str(path))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = max(size + arrays, arrays * (2 * k + 2) / k) + 0.15 * size
            assert peak < bound, (n, k, label, newline, peak / size, bound / size)

    def test_values_across_window_edges_read_by_the_walk(self, tmp_path, monkeypatch):
        # json's scanner reads each value on a decoded window of the file's
        # bytes, 4096 bytes long at first and doubled until the value ends
        # before the window does: a number, a label or a multibyte
        # character cut at an edge is read whole, on the walk alone
        path = tmp_path / "m.json"
        for pad in range(4090, 4100):
            text = (
                '{"states": ["a' + "\u00e9" * (pad // 2) + '", "b"], '
                '"pi": [0.5' + "0" * pad + ", 0.5], "
                '"padding": 1.' + "0" * pad + ", "
                + json.dumps({"kernels": [helpers.E1_P1, helpers.E1_P2], "f": helpers.E1_F})[1:]
            )
            path.write_text(text, encoding="utf-8")
            want = json.loads(text)
            with monkeypatch.context() as patch:
                patch.setattr(json, "loads", None)  # no parse of the whole text
                raw = scanvar.cli._read_model(str(path))
            assert {k: v for k, v in raw.items() if k != "kernels"} == {
                k: v for k, v in want.items() if k != "kernels"
            }
            assert [m.tolist() for m in raw["kernels"]] == want["kernels"]

    @pytest.mark.parametrize("walk", [True, False], ids=["walk", "fallback"])
    @pytest.mark.parametrize(
        "field, value, shown",
        [
            ("pi", ["0.5", 0.5], '"0.5"'),
            ("pi", [None, 0.5], "null"),
            ("f", [1.0, False], "false"),
            ("kernels", [[[True, False], [False, True]]], "true"),
            ("kernels", [helpers.E1_P1, [[0.6, 0.4], [0.4, None]]], "null"),
            ("kernels", [helpers.E1_P1, [[0.6, "0.4"], [0.4, 0.6]]], '"0.4"'),
        ],
        ids=["string-weight", "null-weight", "false-value", "identity-of-booleans",
             "null-entry", "string-entry"],
    )
    def test_non_number_entry_is_parse_error(
        self, tmp_path, capsys, monkeypatch, walk, field, value, shown
    ):
        # np.asarray reads "0.5" as 0.5, true as 1 and null as NaN; JSON
        # calls none of them a number, so each is refused as lambda_grid's
        # entries are, from the walk and from the whole-text fallback alike
        path = write_model(tmp_path / "m.json", **{field: value})
        if walk:  # the walk reads this file, so json.loads is never called
            monkeypatch.setattr(json, "loads", None)
        else:
            monkeypatch.setattr(scanvar.cli, "_walk_model", lambda data: json.loads(""))
        assert main(["validate", "--model", path]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == (
            f"parse error: {path}: field '{field}' has an entry that is not a number: {shown}\n"
        )
        assert captured.out == ""

    def test_long_first_row_makes_no_square_array(self, tmp_path):
        # A matrix is read into an m x m array, m its first row's length,
        # only when m * m numbers fit in the text; a 1 x m kernel is read
        # by json, and its shape is refused.
        m = 4000
        path = write_model(tmp_path / "m.json", kernels=[[[0.5] * m]])
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError) as err:
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"kernel 1 has shape (1, {m}), expected (2, 2)" in str(err.value)
        assert peak < m * m

    def test_non_utf8_file_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"states": 2, "pi": [0.5, 0.5], "f": "\xff"}')
        assert main(["validate", "--model", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith(f"parse error: {path} is not valid UTF-8: ")
        assert "byte 0xff in position 38" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["pi", "f", "kernels", "lambda_grid"])
    def test_out_of_range_integer_is_parse_error(self, tmp_path, capsys, field):
        huge = 10**400  # a float holds no integer past about 1.8e308
        overrides = {
            "pi": [huge, 0.5],
            "f": [1.0, huge],
            "kernels": [helpers.E1_P1, [[0.6, huge], [0.4, 0.6]]],
            "lambda_grid": [0.5, huge],
        }
        path = write_model(tmp_path / "m.json", **{field: overrides[field]})
        assert main(["compare", "--model", path]) == EXIT_IO
        captured = capsys.readouterr()
        named = "field 'lambda_grid' has a number" if field == "lambda_grid" else "a number is"
        assert captured.err == (
            f"parse error: {path}: {named} out of range: "
            "int too large to convert to float\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
            ('{"states": 2, "kernels": ' + "[" * 100_000 + "]" * 100_000 + "}",
             "maximum recursion depth exceeded"),
            ('{"states": 2, "pi": [' + "1" * 5000 + "]}", "Exceeds the limit (4300 digits)"),
        ],
        ids=["deep-top-level", "deep-kernels", "long-integer"],
    )
    def test_unparsable_json_is_parse_error(self, tmp_path, capsys, text, reason):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", "--model", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith(f"parse error: {path} cannot be parsed: {reason}")
        assert captured.out == ""

    @pytest.mark.parametrize(
        "bad",
        [[[0.6, "x"], [0.4, 0.6]], [[0.6, {}], [0.4, 0.6]], [[0.6], [0.4, 0.6]]],
        ids=["string", "object", "ragged"],
    )
    def test_unconvertible_kernel_reported_after_required_fields(self, tmp_path, capsys, bad):
        with pytest.raises((TypeError, ValueError)) as numpy_err:
            np.asarray(bad, dtype=float)
        path = write_model(tmp_path / "m.json", kernels=[helpers.E1_P1, bad])
        assert main(["validate", "--model", path]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"parse error: {path}: non-numeric entries: {numpy_err.value}\n"
        )
        model = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))
        del model["pi"]
        (tmp_path / "m.json").write_text(json.dumps(model), encoding="utf-8")
        assert main(["validate", "--model", path]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"parse error: {path}: missing required field 'pi'\n"
        )


# Number tokens as a model file may write them: float reprs of every
# magnitude (subnormals and both zeros among them), integers past 64 bits,
# -0, and decimals of up to 40 digits whose exponents reach past a float's
# range either way.
TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.just("-0"),
    st.builds(
        lambda sign, digits, point, exponent: sign
        + (digits.lstrip("0") or "0")[:point]
        + ("." + digits[point:] if digits[point:] else "")
        + exponent,
        st.sampled_from(["", "-"]),
        st.text("0123456789", min_size=1, max_size=40),
        st.integers(1, 40),
        st.sampled_from(["", "e"]).flatmap(
            lambda e: st.just("") if not e else st.integers(-400, 400).map(lambda x: f"e{x:+d}")
        ),
    ),
)
# JSON whitespace as indent=2, tabs and CRLF layouts put it between tokens
SPACE = st.sampled_from(["", " ", "\n  ", "\n    ", "\t", "\r\n", "\r\n\t\t", " \t\r\n"])


def json_own(text):
    """json's reading of a model text: its kernels, or the error it raises."""
    try:
        return json.loads(text)["kernels"], None
    except (ValueError, RecursionError) as err:
        return None, err


def holds_non_numbers(value):
    """Whether parsed JSON holds a string, true, false, null or an object
    where a number could stand."""
    if isinstance(value, list):
        return any(holds_non_numbers(x) for x in value)
    return type(value) not in (int, float)


def assert_read_as_json(path):
    """_read_model gives json's own kernels, each the float array json's
    lists convert to, bit for bit, or the lists themselves when they do not
    convert or hold a string, true, false or null, or fails on json's own
    error."""
    want, err = json_own(path.read_text(encoding="utf-8"))
    if err is not None:
        with pytest.raises(scanvar.cli.ModelFormatError) as got:
            scanvar.cli._read_model(str(path))
        cause = got.value.__cause__
        assert (type(cause), str(cause)) == (type(err), str(err))
        return
    got = scanvar.cli._read_model(str(path))["kernels"]
    assert len(got) == len(want)
    for matrix, lists in zip(got, want):
        try:
            array = np.asarray(lists, dtype=float)
        except (TypeError, ValueError, OverflowError):
            array = None
        if array is None or holds_non_numbers(lists):
            assert matrix == lists
            continue
        assert isinstance(matrix, np.ndarray) and matrix.dtype == float
        assert matrix.shape == array.shape
        assert matrix.tobytes() == array.tobytes()


class TestRowDecode:
    """Kernel rows are decoded by orjson, and anything it refuses or the
    row walk does not take is scanned again by json. The fixed refusals
    run first, so that a broken walk fails fast under `pytest -x`."""

    @pytest.mark.parametrize(
        "matrix",
        [
            "[[NaN, 0.4], [0.4, 0.6]]",
            "[[0.6, 0.4], [Infinity, -Infinity]]",
            "[[0.6, 1e400], [0.4, 0.6]]",
            "[[0.6, 18446744073709551616], [0.4, -9223372036854775809]]",
            "[[0.6, 1" + "0" * 5000 + "], [0.4, 0.6]]",
            "[[[0.6], [0.4]], [[0.4], [0.6]]]",
            '[[0.6, "]"], [0.4, 0.6]]',
            "[[0.6, 0.4], []]",
            "[[], []]",
            "[]",
            "[[0.6, {}], [0.4, 0.6]]",
            '[["\\ud800", 0.4], [0.4, 0.6]]',
            "[[0.6, 0.4]; [0.4, 0.6]]",
            "[[0.6, 0.4] [0.4, 0.6]]",
            "[[0.6, 0.4], [0.4, 0.6],]",
            "[0.6, [0.4, 0.6]]",
            "[[0.6, 0.4], 7]",
            "[[0.6, 0.4], [0.4, 0.6",
            # rows numpy would broadcast, a matrix not square, and a 1 x 1 one
            "[[0.6, 0.4], [0.5]]",
            "[[0.5], [0.4, 0.6]]",
            "[[0.6, 0.4], [0.4, 0.6], [0.5, 0.5]]",
            "[[1.0]]",
            # entries np.asarray would read as numbers, which load_model refuses
            "[[true, false], [false, true]]",
            "[[0.6, 0.4], [0.4, null]]",
            '[[0.6, 0.4], ["0.4", 0.6]]',
        ],
        ids=[
            "nan", "infinity", "past-float-range", "past-64-bits", "5000-digits",
            "nested", "string-bracket", "empty-row", "empty-rows", "empty-matrix",
            "object", "lone-surrogate", "semicolon", "no-separator", "trailing-comma",
            "number-first", "number-row", "unclosed", "short-last-row",
            "short-first-row", "extra-row", "one-by-one", "booleans", "null",
            "numeric-string",
        ],
    )
    def test_refused_matrix_read_by_json_in_place(self, tmp_path, monkeypatch, matrix):
        # json's value, and from the one walk: a refused matrix is scanned
        # again where it stands, so a valid text is never parsed whole
        text = json.dumps({"states": 2, "pi": helpers.E1_PI, "kernels": ["P1", "M"]})
        text = text.replace('"P1"', json.dumps(helpers.E1_P1)).replace('"M"', matrix)
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        valid, loads, whole = json_own(text)[1] is None, json.loads, []
        monkeypatch.setattr(json, "loads", lambda s: whole.append(s) or loads(s))
        assert_read_as_json(path)
        assert len(whole) == (1 if valid else 2)  # json_own's, and the fallback's

    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.integers(0, 4)).flatmap(
                lambda shape: st.lists(
                    st.lists(TOKENS, min_size=shape[1], max_size=shape[1]),
                    min_size=shape[0], max_size=shape[0],
                )
            ),
            min_size=1, max_size=3,
        ),
        SPACE,
        SPACE,
    )
    def test_rows_read_as_json_reads_them(self, tmp_path_factory, kernels, outer, inner):
        def array(items, space):
            return "[" + space + ("," + space).join(items) + space + "]"

        matrices = [array([array(row, inner) for row in m], outer) for m in kernels]
        text = (
            '{"states": 2,' + outer + '"pi": [0.5, 0.5],' + outer + '"kernels": '
            + array(matrices, outer) + "," + outer + '"f": [1.0, -1.0]}'
        )
        path = tmp_path_factory.getbasetemp() / "rows.json"
        path.write_text(text, encoding="utf-8")
        assert_read_as_json(path)


class TestCompare:
    def test_e1_half_row_values(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.json")
        code = main(["compare", "--model", path, "--lambda", "0.5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,var_strat,var_rand,gap,gap_lower_bound,method"
        first = lines[1].split(",")
        assert first[0] == "0.5"
        assert first[1] == "1.60416667"
        assert first[2] == "1.66666667"
        assert float(first[3]) == pytest.approx(1 / 16, abs=1e-9)
        assert 0.0 <= float(first[4]) <= 1 / 16
        assert first[5] == "resolvent"
        limit = lines[2].split(",")
        assert limit[0] == "1"
        assert limit[5] == "limit"

    def test_output_deterministic_bytes(self, tmp_path):
        path = write_model(tmp_path / "m.json", lambda_grid=[0.3, 0.6, 0.9])
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["compare", "--model", path, "--out", str(out_a)]) == EXIT_OK
        assert main(["compare", "--model", path, "--out", str(out_b)]) == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        assert b"\r" not in out_a.read_bytes()

    def test_three_kernel_model_gets_nan_bound(self, tmp_path, capsys):
        path = write_model(
            tmp_path / "m.json",
            kernels=[helpers.E1_P1, helpers.E1_P2, [[0.8, 0.2], [0.2, 0.8]]],
        )
        code = main(["compare", "--model", path, "--lambda", "0.5"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        row = out.splitlines()[1].split(",")
        assert row[4] == "nan"

    def test_three_kernel_csv_bytes(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.json", **THREE_KERNEL_MODEL)
        out = tmp_path / "out.csv"
        args = ["compare", "--model", path, "--lambda", "0.3,0.9"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == (
            "lambda,var_strat,var_rand,gap,gap_lower_bound,method\n"
            "0.3,1.48746344,1.50323301,0.0157695627,nan,resolvent\n"
            "0.9,1.5980428,1.79947998,0.201437171,nan,resolvent\n"
            "1,1.59592294,1.85492701,0.259004063,nan,limit\n"
        ).encode()

    def test_three_kernel_counterexample_reported(self, tmp_path, capsys):
        # strat <= rand fails at 0.9 and in the limit; compare asserts the
        # ordering for two kernels only, so it prints the rows and exits 0
        path = write_model(tmp_path / "m.json", kernels=helpers.K3_COUNTER_KERNELS)
        assert main(["compare", "--model", path, "--lambda", "0.5,0.9"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [line.split(",") for line in captured.out.splitlines()[1:]]
        assert [r[:3] + r[4:] for r in rows] == [
            ["0.5", "0.737891738", "0.764705882", "nan", "resolvent"],
            ["0.9", "0.873787399", "0.612903226", "nan", "resolvent"],
            ["1", "1.13114754", "0.578947368", "nan", "limit"],
        ]
        assert [float(r[3]) < 0.0 for r in rows] == [False, True, True]
        assert main(["limit", "--model", path]) == EXIT_OK
        assert capsys.readouterr().out == (
            "cycle contraction: 0.512 (summable)\n"
            "limit var_strat: 1.13114754\n"
            "limit var_rand:  0.578947368\n"
        )

    @pytest.mark.parametrize("command", ["compare", "peskun"])
    @pytest.mark.parametrize("grid", ["1.5", "0.3,-0.5", "0.3,1.0000001", "0.3,nan"])
    def test_discount_outside_unit_interval_rejected(self, tmp_path, capsys, command, grid):
        path = write_model(tmp_path / "m.json")
        code = main([command, *model_args(command, path), "--lambda", grid])
        captured = capsys.readouterr()
        assert code == EXIT_ASSERTION
        assert "discount must lie in [0, 1)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["compare", "peskun"])
    def test_discount_within_1e12_of_one_is_limit_row(self, tmp_path, capsys, command):
        path = write_model(tmp_path / "m.json")
        grid = "0.5,1,1.0000000000001,0.9999999999999"
        code = main([command, *model_args(command, path), "--lambda", grid])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK
        assert [line.split(",")[-1] for line in lines[1:]] == ["resolvent", "limit"]

    @pytest.mark.parametrize("command", ["compare", "peskun"])
    @pytest.mark.parametrize("grid", ["a", "0.3,,0.9", "0.3;0.9", pytest.param("", id="empty")])
    def test_non_numeric_discount_is_parse_error(self, tmp_path, capsys, command, grid):
        path = write_model(tmp_path / "m.json")
        code = main([command, *model_args(command, path), "--lambda", grid])
        captured = capsys.readouterr()
        assert code == EXIT_IO
        assert captured.err.startswith("parse error: --lambda must be")
        assert repr(grid) in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["compare", "peskun"])
    def test_certifiable_model_solves_no_nonsymmetric_eigenproblem(
        self, tmp_path, capsys, monkeypatch, command
    ):
        rng = np.random.default_rng(75)
        fam = helpers.random_family(rng, 6, 2)
        model = {
            "states": 6,
            "pi": fam.pi.weights.tolist(),
            "kernels": [m.tolist() for m in fam.matrices],
            "f": rng.standard_normal(6).tolist(),
        }
        path = write_model(tmp_path / "m.json", **model)
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        assert main([command, *model_args(command, path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1].endswith(",limit")
        assert calls == []

    def test_two_kernel_sweep_costs(self, tmp_path, capsys, monkeypatch, eigh_calls):
        # the default four discounts and the limit: one LU per discount and
        # one for the limit, all strat's; one eigendecomposition of the
        # mixed kernel for rand and the bound; one cycle product
        import scanvar.embedding
        import scanvar.variance

        rng = np.random.default_rng(78)
        fam = helpers.random_family(rng, 8, 2)
        model = {
            "states": 8,
            "pi": fam.pi.weights.tolist(),
            "kernels": [m.tolist() for m in fam.matrices],
            "f": rng.standard_normal(8).tolist(),
        }
        path = write_model(tmp_path / "m.json", **model)
        solves, products = [], []
        solve, product = scanvar.embedding._cycle_solve, scanvar.kernels._cycle_product

        def counted_solve(*args, **kwargs):
            solves.append(len(args[0]))
            return solve(*args, **kwargs)

        def counted_product(matrices):
            products.append(len(matrices))
            return product(matrices)

        monkeypatch.setattr(scanvar.embedding, "_cycle_solve", counted_solve)
        monkeypatch.setattr(scanvar.variance, "_cycle_solve", counted_solve)
        monkeypatch.setattr(scanvar.kernels, "_cycle_product", counted_product)
        assert main(["compare", "--model", path]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 4 + 1
        assert solves == [2] * 5
        assert eigh_calls == [(8, 8)]
        assert products == [2]

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        path = write_model(
            tmp_path / "m.json", kernels=[[[0.9, 0.1], [0.2, 0.8]], helpers.E1_P2]
        )
        assert main(["compare", "--model", path]) == EXIT_VALIDATION
        assert "validation error" in capsys.readouterr().err

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["compare", "--model", str(path)]) == EXIT_IO
        assert "parse error" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["compare", "--model", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_top_level_array_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text("[" + Path(write_model(path)).read_text() + "]", encoding="utf-8")
        assert main(["compare", "--model", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == f"parse error: {path}: top level must be an object\n"
        assert captured.out == ""

    def test_output_into_missing_directory_is_io_error(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.json")
        out = tmp_path / "missing" / "c.csv"
        assert main(["compare", "--model", path, "--out", str(out)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err.startswith("i/o error: ")
        assert str(out) in captured.err
        assert captured.out == ""
        assert not out.parent.exists()


class TestValidate:
    def test_good_model(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.json")
        assert main(["validate", "--model", path]) == EXIT_OK
        assert "verdict" in capsys.readouterr().out

    def test_bad_model(self, tmp_path):
        path = write_model(
            tmp_path / "m.json", kernels=[[[0.9, 0.1], [0.2, 0.8]], helpers.E1_P2]
        )
        assert main(["validate", "--model", path]) == EXIT_VALIDATION

    def test_verdict_passes_at_the_worst_residual(self, tmp_path, capsys):
        # a flow imbalance of 1e-13 is the largest residual; a tolerance
        # equal to it passes and the next float below it fails
        kernel = [[0.9, 0.1], [0.1 + 2e-13, 0.9 - 2e-13]]
        path = write_model(tmp_path / "m.json", kernels=[kernel, helpers.E1_P2])
        diag = load_model(path).family.diagnostics
        worst = max(*diag.row_sum_deviation, *diag.balance_residual)
        assert worst == diag.balance_residual[0] > 0.0
        below = float(np.nextafter(worst, 0.0))
        assert main(["validate", "--model", path, "--tol", repr(worst)]) == EXIT_OK
        assert main(["validate", "--model", path, "--tol", repr(below)]) == EXIT_VALIDATION
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == f"verdict at tol {below:g}: fail"


class TestPeskun:
    def test_self_comparison_all_zero(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.json")
        code = main(
            ["peskun", "--model", path, "--model-b", path, "--lambda", "0.3,0.6"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            fields = line.split(",")
            assert abs(float(fields[3])) <= 1e-10
            assert fields[4] == "true"

    def test_dominated_pair(self, tmp_path, capsys):
        path_a = write_model(tmp_path / "a.json")
        lazy_kernels = [
            (0.5 * np.asarray(k) + 0.5 * np.eye(2)).tolist()
            for k in (helpers.E1_P1, helpers.E1_P2)
        ]
        path_b = write_model(tmp_path / "b.json", kernels=lazy_kernels)
        code = main(["peskun", "--model", path_a, "--model-b", path_b])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        for line in out.strip().splitlines()[1:]:
            assert float(line.split(",")[3]) >= -1e-10

    def test_reversed_roles_flagged(self, tmp_path, capsys):
        path_a = write_model(tmp_path / "a.json")
        lazy_kernels = [
            (0.5 * np.asarray(k) + 0.5 * np.eye(2)).tolist()
            for k in (helpers.E1_P1, helpers.E1_P2)
        ]
        path_b = write_model(tmp_path / "b.json", kernels=lazy_kernels)
        code = main(["peskun", "--model", path_b, "--model-b", path_a])
        err = capsys.readouterr().err
        assert code == EXIT_ASSERTION
        assert "dominance" in err


    def test_shape_refused_before_kernel_count(self, tmp_path, capsys):
        # differing shapes exit 1 before three kernels exit 2, and both
        # before the grid is read
        path_a = write_model(tmp_path / "a.json", **THREE_KERNEL_MODEL)
        path_b = write_model(tmp_path / "b.json")
        grid = ["--lambda", "1.5"]
        assert main(["peskun", "--model", path_a, "--model-b", path_b] + grid) == EXIT_VALIDATION
        assert "differ in shape" in capsys.readouterr().err
        assert main(["peskun", "--model", path_a, "--model-b", path_a] + grid) == EXIT_ASSERTION
        assert "exactly two kernels" in capsys.readouterr().err

    def test_different_targets_refused(self, tmp_path, capsys):
        # two kernels on two states each, reversible for targets that differ
        path_a = write_model(tmp_path / "a.json")
        kernels = [[[0.7, 0.3], [0.1, 0.9]], [[0.4, 0.6], [0.2, 0.8]]]
        path_b = write_model(tmp_path / "b.json", pi=[0.25, 0.75], kernels=kernels)
        out = tmp_path / "p.csv"
        argv = ["peskun", "--model", path_a, "--model-b", path_b, "--out", str(out)]
        assert main(argv) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == "validation error: families must share the same target\n"
        assert captured.out == ""
        assert not out.exists()


# Rows for compare's verdicts, each with the stderr lines it draws at the
# default tolerance on two kernels: a negative gap, a gap below its bound,
# a NaN bound (never a violation) and a NaN gap (always one).
CRAFTED_ROWS = [
    (OrderingReport(0.3, 2.0, 1.5, float("nan")), [
        "FAIL: scan-order comparison violated at lambda=0.3: "
        "random-scan minus deterministic-scan gap -0.5 < -1e-10",
    ]),
    (OrderingReport(0.6, 1.0, 1.25, 0.5), [
        "FAIL: gap lower bound violated at lambda=0.6: "
        "gap 0.25 below its certified bound 0.5 beyond 1e-10",
    ]),
    (OrderingReport(0.9, 1.0, 1.5, float("nan")), []),
    (OrderingReport(1.0, float("nan"), 1.0, 0.0), [
        "FAIL: scan-order comparison violated at lambda=1: "
        "random-scan minus deterministic-scan gap nan < -1e-10",
        "FAIL: gap lower bound violated at lambda=1: "
        "gap nan below its certified bound 0 beyond 1e-10",
    ]),
]
CRAFTED_CSV = (
    "lambda,var_strat,var_rand,gap,gap_lower_bound,method\n"
    "0.3,2,1.5,-0.5,nan,resolvent\n"
    "0.6,1,1.25,0.25,0.5,resolvent\n"
    "0.9,1,1.5,0.5,nan,resolvent\n"
    "1,nan,1,nan,0,limit\n"
)


class TestVerdicts:
    """The library's rows and records are measurements; compare (on two
    kernels) and peskun judge the rows against --tol, and peskun judges
    the dominance record against PSD_TOL. The rows and records here are
    crafted."""

    @staticmethod
    def returning(monkeypatch, name, rows):
        monkeypatch.setattr(scanvar.cli, name, lambda *args, **kwargs: list(rows))

    @pytest.mark.parametrize("kernels, code", [(2, EXIT_ASSERTION), (3, EXIT_OK)])
    def test_compare_reports_every_violation(self, tmp_path, capsys, monkeypatch, kernels, code):
        third = [[0.8, 0.2], [0.2, 0.8]]
        path = write_model(
            tmp_path / "m.json", kernels=[helpers.E1_P1, helpers.E1_P2, third][:kernels]
        )
        self.returning(monkeypatch, "check_scan_ordering", [row for row, _ in CRAFTED_ROWS])
        out = tmp_path / "c.csv"
        assert main(["compare", "--model", path, "--out", str(out)]) == code
        lines = [line for _, drawn in CRAFTED_ROWS for line in drawn] if kernels == 2 else []
        assert capsys.readouterr().err == "".join(line + "\n" for line in lines)
        assert out.read_bytes() == CRAFTED_CSV.encode()

    @pytest.mark.parametrize("t", [NUMERIC_TOL, 0.375])
    @pytest.mark.parametrize(
        "row, line",
        [
            (lambda t: OrderingReport(0.5, t, 0.0, float("nan")),
             "FAIL: scan-order comparison violated at lambda=0.5"),
            (lambda t: OrderingReport(0.5, 1.0, 1.0, t),
             "FAIL: gap lower bound violated at lambda=0.5"),
        ],
        ids=["order", "bound"],
    )
    def test_compare_tolerance_boundary(self, tmp_path, capsys, monkeypatch, t, row, line):
        # the row is exactly t past its rule: gap = -t, or gap = bound - t
        path = write_model(tmp_path / "m.json")
        self.returning(monkeypatch, "check_scan_ordering", [row(t)])
        assert main(["compare", "--model", path, "--tol", repr(t)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        below = repr(float(np.nextafter(t, 0.0)))
        assert main(["compare", "--model", path, "--tol", below]) == EXIT_ASSERTION
        (err,) = capsys.readouterr().err.splitlines()
        assert err.startswith(line + ": ")

    @pytest.mark.parametrize("t", [NUMERIC_TOL, 0.375])
    def test_peskun_tolerance_boundary(self, tmp_path, capsys, monkeypatch, t):
        path = write_model(tmp_path / "m.json")
        rows = [OrderingReport(0.5, 1.0, 1.0, float("nan")),
                OrderingReport(1.0, t, 0.0, float("nan"))]
        self.returning(monkeypatch, "check_peskun_ordering", rows)
        argv = ["peskun", "--model", path, "--model-b", path, "--tol"]
        assert main([*argv, repr(t)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert main([*argv, repr(float(np.nextafter(t, 0.0)))]) == EXIT_ASSERTION
        assert capsys.readouterr().err == (
            "FAIL: dominated-family cycle variance dropped below the dominating "
            f"one (worst difference {-t:.3g})\n"
        )

    @pytest.mark.parametrize("below", [False, True], ids=["at", "below"])
    def test_peskun_dominance_boundary(self, tmp_path, capsys, monkeypatch, below):
        # the least Dirichlet-form eigenvalue may be exactly -PSD_TOL; one
        # ulp lower, every row says false and the command exits 2
        low = float(np.nextafter(-PSD_TOL, -np.inf)) if below else -PSD_TOL
        comparison = PeskunComparison((0.0, low))
        monkeypatch.setattr(scanvar.cli, "peskun_dominates", lambda *args: comparison)
        path = write_model(tmp_path / "m.json")
        out = tmp_path / "p.csv"
        code = main(["peskun", "--model", path, "--model-b", path, "--out", str(out)])
        assert code == (EXIT_ASSERTION if below else EXIT_OK)
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 5
        assert {row.split(",")[4] for row in rows} == {"false" if below else "true"}
        assert capsys.readouterr().err == (
            "FAIL: kernelwise Dirichlet-form dominance does not hold (smallest "
            "eigenvalue -1e-10 below -1e-10); comparison reported outside the "
            "dominance hypothesis\n"
            if below
            else ""
        )


class TestLimitAndSimulate:
    def test_limit_values(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.json")
        assert main(["limit", "--model", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "2.57142857" in out
        assert "cycle contraction: 0.16" in out

    def test_limit_unsummable(self, tmp_path, capsys):
        eye = np.eye(2).tolist()
        path = write_model(tmp_path / "m.json", kernels=[eye, eye])
        assert main(["limit", "--model", path]) == EXIT_VALIDATION
        assert "not absolutely summable" in capsys.readouterr().err

    def test_limit_refusal_is_the_libraries(self, tmp_path, capsys):
        # the report's line, then var_limit(strat)'s SummabilityError, once
        path = write_model(tmp_path / "m.json", kernels=[np.eye(2).tolist()] * 2)
        out = tmp_path / "l.csv"
        assert main(["limit", "--model", path, "--out", str(out)]) == EXIT_VALIDATION
        assert capsys.readouterr() == (
            "cycle contraction: 1 (not summable)\n",
            "validation error: cycle contraction 1 is not below 1, so the covariance "
            "series is not absolutely summable\n",
        )
        assert not out.exists()

    def test_limit_unit_radius_rounded_below_one(self, tmp_path, capsys):
        # eigvals returns the exact radius 1 of I - 1 pi' as 1 - 1.1e-16 here
        w = np.array([1.44590388e-06, 9.99998554e-01])
        path = write_model(
            tmp_path / "m.json", pi=(w / w.sum()).tolist(), kernels=[np.eye(2).tolist()]
        )
        assert main(["limit", "--model", path]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out.startswith("cycle contraction: 1 (not summable)")
        assert "not absolutely summable" in captured.err

    def test_tiny_target_weight_limit_is_summable(self, tmp_path, capsys):
        # a weight of 6.6e-14 does not refuse a contraction of 0.913
        fam, f = helpers.tiny_weight_model()
        path = write_model(
            tmp_path / "m.json", states=6, pi=fam.pi.weights.tolist(),
            kernels=[fam.matrices[0].tolist()], f=f.values.tolist(),
        )
        assert main(["limit", "--model", path]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("cycle contraction: 0.913066")
        assert "(summable)" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        ("model", "summable"),
        [
            ({}, True),
            ({"kernels": helpers.K3_COUNTER_KERNELS}, True),
            ({"kernels": [np.eye(2).tolist()] * 2}, False),
            ({"kernels": [[[0.0, 1.0], [1.0, 0.0]]] * 2}, False),
            (GIBBS_PAIR, True),
        ],
        ids=["e1", "k3-counter", "identity", "swap", "gibbs"],
    )
    def test_compare_has_a_limit_row_exactly_when_limit_is_summable(
        self, tmp_path, capsys, model, summable
    ):
        path = write_model(tmp_path / "m.json", **model)
        code = main(["limit", "--model", path])
        assert ("(summable)" in capsys.readouterr().out) == summable
        assert code == (EXIT_OK if summable else EXIT_VALIDATION)
        main(["compare", "--model", path, "--lambda", "0.5,1"])
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [r.endswith(",limit") for r in rows] == [False] + [True] * summable

    @pytest.mark.parametrize("command", ["limit", "compare"])
    def test_near_reducible_rand_limit_refused(self, tmp_path, capsys, command):
        # limit exits 1 and names the refusal; compare leaves out its limit
        # row and keeps the discount row, as for a cycle that is not summable
        sticky = [[1.0 - 1e-9, 1e-9], [1e-9, 1.0 - 1e-9]]
        path = write_model(tmp_path / "m.json", kernels=[sticky, sticky])
        code = main([command, "--model", path, *(["--lambda", "0.5"] * (command == "compare"))])
        out, err = capsys.readouterr()
        if command == "limit":
            assert code == EXIT_VALIDATION
            assert out.startswith("cycle contraction: ") and "(summable)" in out
            assert err.startswith("validation error: mixed kernel has 2 eigenvalues")
            assert "within 1e-8 of 1" in err
        else:
            assert code == EXIT_OK and err == ""
            (row,) = out.strip().splitlines()[1:]
            assert row.startswith("0.5,") and row.endswith(",resolvent")

    def test_constant_f_has_zero_limit_and_rows(self, tmp_path, capsys):
        # a target whose weights sum to one only up to rounding: a constant f
        # still centres to zeros, so every variance and gap is exactly zero
        pi = helpers.random_dist(np.random.default_rng(0), 5)
        kernels = [random_reversible(pi, seed).matrix.tolist() for seed in (0, 1)]
        path = write_model(
            tmp_path / "m.json", states=5, pi=pi.weights.tolist(), kernels=kernels, f=[3.0] * 5
        )
        assert np.dot(load_model(path).family.pi.weights, np.ones(5)) != 1.0
        assert main(["limit", "--model", path]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[1:] == ["limit var_strat: 0", "limit var_rand:  0"]
        assert main(["compare", "--model", path, "--lambda", "0.5,1"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows == ["0.5,0,0,0,0,resolvent", "1,0,0,0,0,limit"]

    def test_simulate_csv(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.json")
        code = main(
            [
                "simulate",
                "--model",
                path,
                "--steps",
                "256",
                "--replicas",
                "50",
                "--seed",
                "4",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "scheme,steps,replicas,estimate,standard_error,exact_finite_m"
        schemes = [line.split(",")[0] for line in lines[1:]]
        assert schemes == ["strat", "rand"]
        for line in lines[1:]:
            fields = line.split(",")
            estimate, se, exact = (float(x) for x in fields[3:])
            assert abs(estimate - exact) <= 5 * se


    @pytest.mark.parametrize(
        "sizes, message",
        [
            (["--steps", "0", "--replicas", "0"], "replicas must be at least 2, got 0"),
            (["--steps", "0", "--replicas", "5"], "steps must be at least 1, got 0"),
            (["--steps", "8", "--replicas", "1"], "replicas must be at least 2, got 1"),
        ],
        ids=["sizes0", "sizes1", "one-replica"],
    )
    def test_simulate_zero_sizes_rejected(self, tmp_path, capsys, sizes, message):
        # the replica count is checked first, by the library's count rule
        path = write_model(tmp_path / "m.json")
        code = main(["simulate", "--model", path, "--seed", "1", *sizes])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"validation error: {message}\n")

    @pytest.mark.parametrize(
        "flag, count, message",
        [("--steps", 10**400, "steps must be below 2**63"),
         ("--replicas", 10**30, "replicas must be below 2**63")],
    )
    def test_simulate_count_past_int64_refused(
        self, tmp_path, capsys, monkeypatch, flag, count, message
    ):
        # refused before any seed is derived, so a regression fails fast
        def derive_seed(master, index):
            raise AssertionError("a replica seed was derived")

        monkeypatch.setattr(sys.modules["scanvar.simulate"], "derive_seed", derive_seed)
        path = write_model(tmp_path / "m.json")
        assert main(["simulate", "--model", path, flag, str(count)]) == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.err == f"validation error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
    @pytest.mark.parametrize("source", ["--seed", "m.json: field 'simulation.seed'"])
    def test_seed_out_of_range_is_parse_error(self, tmp_path, monkeypatch, capsys, source, seed):
        # the seed is read modulo 2**64, so these would alias seeds in range
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--model", "m.json", "--out", "s.csv"]
        if source == "--seed":
            write_model(tmp_path / "m.json")
            argv += ["--seed", str(seed)]
        else:
            write_model(tmp_path / "m.json", simulation={"steps": 8, "replicas": 4, "seed": seed})
        assert main(argv) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == (
            f"parse error: {source} must satisfy 0 <= seed < 2**64, got {seed}\n"
        )
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    def test_seed_range_ends_accepted(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.json")
        for seed in (0, 2**64 - 1):
            argv = ["simulate", "--model", path, "--steps", "8", "--replicas", "4"]
            assert main([*argv, "--seed", str(seed)]) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_limit_solves_each_eigenproblem_once(self, tmp_path, capsys, monkeypatch):
        # the cycle contraction, printed and then guarding the strat limit;
        # the rand limit's guard is decided on the symmetrised mixed kernel
        calls = []
        eigvals = np.linalg.eigvals

        def counted(a):
            calls.append(a.shape)
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        path = write_model(tmp_path / "m.json", **THREE_KERNEL_MODEL)
        assert main(["limit", "--model", path]) == EXIT_OK
        assert calls == [(3, 3)]

    def test_limit_csv_matches_compare_limit_row(self, tmp_path, capsys):
        # the limit row's bound is 0 for two kernels (e1) and NaN otherwise
        for model, tail in (({}, ",0,limit"), (THREE_KERNEL_MODEL, ",nan,limit")):
            path = write_model(tmp_path / "m.json", **model)
            out = tmp_path / "limit.csv"
            assert main(["limit", "--model", path, "--out", str(out)]) == EXIT_OK
            capsys.readouterr()
            assert main(["compare", "--model", path, "--lambda", "1"]) == EXIT_OK
            assert out.read_text() == capsys.readouterr().out
            assert out.read_text().splitlines()[1].endswith(tail)

    @pytest.mark.parametrize("pair", ["swap", "sticky"])
    @pytest.mark.parametrize("command", ["compare", "peskun"])
    def test_refused_limit_alone_is_limits_refusal(
        self, tmp_path, capsys, monkeypatch, command, pair
    ):
        # a sweep whose only row is a refused limit exits 1 with the line
        # limit prints and writes no CSV; peskun reads only the cycles'
        # limits, which the sticky pair's summable cycle gives
        monkeypatch.chdir(tmp_path)
        flip = {"swap": 1.0, "sticky": 1e-9}[pair]
        kernel = [[1.0 - flip, flip], [flip, 1.0 - flip]]
        write_model(tmp_path / "m.json", kernels=[kernel, kernel])
        assert main(["limit", "--model", "m.json"]) == EXIT_VALIDATION
        refusal = capsys.readouterr().err
        argv = [command, *model_args(command, "m.json"), "--lambda", "1"]
        code = main(argv + ["--out", "c.csv"] * (command == "compare"))
        out, err = capsys.readouterr()
        if (command, pair) == ("peskun", "sticky"):
            assert (code, err) == (EXIT_OK, "")
            assert out.splitlines()[1].endswith(",true,limit")
        else:
            assert (code, out, err) == (EXIT_VALIDATION, "", refusal)
            assert refusal.startswith("validation error: ") and refusal.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]


class TestSmallestSizes:
    def test_one_kernel(self, tmp_path, capsys):
        # the cycle and the random scan are the same chain, whose one
        # nonunit eigenvalue 0.8 gives (1 + 0.8 lam) / (1 - 0.8 lam)
        path = write_model(tmp_path / "m.json", kernels=[helpers.E1_P1])
        assert main(["compare", "--model", path]) == EXIT_OK
        _, *rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5
        for row in rows[:-1]:
            lam, strat, rand, gap, bound, method = row.split(",")
            expected = (1.0 + 0.8 * float(lam)) / (1.0 - 0.8 * float(lam))
            assert strat == rand
            assert float(strat) == pytest.approx(expected, rel=1e-8)
            assert (gap, bound, method) == ("0", "nan", "resolvent")
        assert rows[0] == "0.3,1.63157895,1.63157895,0,nan,resolvent"
        assert rows[-1] == "1,9,9,0,nan,limit"
        assert main(["limit", "--model", path]) == EXIT_OK
        assert "cycle contraction: 0.8 (summable)" in capsys.readouterr().out
        assert main(["peskun", "--model", path, "--model-b", path]) == EXIT_ASSERTION
        assert "needs exactly two kernels, got 1" in capsys.readouterr().err

    def test_one_state(self, tmp_path, capsys):
        path = write_model(
            tmp_path / "m.json", states=1, pi=[1.0], kernels=[[[1.0]], [[1.0]]], f=[2.0]
        )
        assert main(["compare", "--model", path]) == EXIT_OK
        _, *rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 5
        assert all(row.split(",")[1:5] == ["0"] * 4 for row in rows)
        assert main(["limit", "--model", path]) == EXIT_OK
        assert "cycle contraction: 0 (summable)" in capsys.readouterr().out


class TestDemo:
    def test_writes_model_and_csv(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["demo"]) == EXIT_OK
        model = tmp_path / "demo_model.json"
        csv = tmp_path / "demo_compare.csv"
        assert model.exists() and csv.exists()
        loaded = load_model(str(model))
        assert loaded.family.k == 2
        lines = csv.read_text().splitlines()
        assert lines[0] == "lambda,var_strat,var_rand,gap,gap_lower_bound,method"
        assert lines[-1].startswith("1,")


# The flags each subcommand registers, by destination; its handler reads
# every one of them and no other flag is accepted.
COMMAND_FLAGS = {
    "validate": {"model", "tol"},
    "compare": {"model", "lambdas", "tol", "out"},
    "peskun": {"model", "model_b", "lambdas", "tol", "out"},
    "limit": {"model", "out"},
    "simulate": {"model", "seed", "steps", "replicas", "out"},
    "demo": {"tol", "out"},
}

FLAG_ARGS = {
    "model": ["--model", "m.json"],
    "model_b": ["--model-b", "m.json"],
    "lambdas": ["--lambda", "0.5"],
    "method": ["--method", "series"],
    "series_terms": ["--series-terms", "5"],
    "tol": ["--tol", "1e-9"],
    "seed": ["--seed", "1"],
    "steps": ["--steps", "8"],
    "replicas": ["--replicas", "2"],
    "out": ["--out", "x.csv"],
}


class TestFlags:
    @pytest.mark.parametrize("command", COMMAND_FLAGS)
    def test_handler_reads_every_registered_flag(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        write_model(tmp_path / "m.json")
        argv = [command]
        for dest in ("model", "model_b", "seed", "steps", "replicas", "out"):  # enough to run
            if dest in COMMAND_FLAGS[command]:
                argv += FLAG_ARGS[dest]
        args = scanvar.cli.build_parser().parse_args(argv)
        registered = set(vars(args)) - {"command", "handler"}
        assert registered == COMMAND_FLAGS[command]
        reads = set()

        class Recorded(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        assert args.handler(Recorded(**vars(args))) == EXIT_OK
        assert reads & registered == registered

    @pytest.mark.parametrize(
        "command, dest",
        [
            (command, dest)
            for command, flags in COMMAND_FLAGS.items()
            for dest in FLAG_ARGS
            if dest not in flags
        ],
    )
    def test_unread_flag_is_usage_error(self, tmp_path, monkeypatch, capsys, command, dest):
        monkeypatch.chdir(tmp_path)
        write_model(tmp_path / "m.json")
        argv = [command, *FLAG_ARGS[dest]]
        if command != "demo":
            argv += FLAG_ARGS["model"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: " + " ".join(FLAG_ARGS[dest]) in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    @pytest.mark.parametrize("command", [c for c, fl in COMMAND_FLAGS.items() if "tol" in fl])
    @pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf", "abc"])
    def test_bad_tolerance_is_parse_error(self, tmp_path, monkeypatch, capsys, command, tol):
        monkeypatch.chdir(tmp_path)
        write_model(tmp_path / "m.json")
        argv = [command, f"--tol={tol}"]
        if command != "demo":
            argv += model_args(command, "m.json")
        if "out" in COMMAND_FLAGS[command]:
            argv += FLAG_ARGS["out"]
        assert main(argv) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == (
            f"parse error: --tol must be a finite nonnegative number, got {tol!r}\n"
        )
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]

    def test_peskun_without_model_b_is_parse_error(self, tmp_path, capsys):
        path = write_model(tmp_path / "m.json")
        assert main(["peskun", "--model", path]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.err == "parse error: peskun needs --model-b for the dominated family\n"
        assert captured.out == ""
