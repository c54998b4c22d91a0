"""End-to-end CLI contract tests: artifacts, exit codes, error envelopes."""

import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from macrobell.bell import BellConfig, chsh_value
from macrobell.cli import (_CSV_BLOCK_ROWS, _csv_blocks, _fmt, _parse_coeffs_vector,
                           _write_atomic, run)
from macrobell.errors import NumericError
from macrobell.finite_n import DickeSuperposition, pmf_finite
from macrobell.povm import derive_params, projective_from_bloch

from conftest import CHSH_OPTIMUM, src_env

FLOAT_FIELD = re.compile(r"-?\d\.\d{17}e[+-]\d+")


def read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def run_ok(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.err == ""
    return captured.out


def run_err(capsys, argv, expected_code):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expected_code
    payload = json.loads(captured.err)
    assert set(payload) == {"error", "message"}
    return payload


def reference_csv(header, *columns) -> str:
    """The former writer: csv.writer over rows of ``_fmt`` fields, str for ints."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*[[str(v) if c.dtype.kind in "iu" else _fmt(v) for v in c]
                           for c in map(np.asarray, columns)]))
    return buffer.getvalue()


def assert_same_lines(text, expected):
    """``text == expected``, reporting the first differing line: pytest's own
    diff of two long strings takes minutes."""
    lines, wanted = text.split("\n"), expected.split("\n")
    same = lines == wanted
    row = next((i for i, (a, b) in enumerate(zip(lines, wanted)) if a != b),
               min(len(lines), len(wanted)))
    assert same, f"line {row}: {lines[row:row + 1]} != {wanted[row:row + 1]}"


EDGE_FLOATS = np.array([-0.0, 5e-324, 1e-300, np.inf, -np.inf, np.nan, 1.7e308])
# exact 19-digit expansions ending in 5, ties that %.17e rounds to even; and
# 1e153, whose double lies 0.27 units of the 18th digit below 10**153
HARD_ROUNDINGS = np.array([1000000000000000.125, 1000000000000000.375, -1000000000000000.625,
                           1125899906842623.875, 100000000000000.0625, 1e153, -1e153])


@pytest.mark.parametrize("header, columns", [
    (("N", "ks"), (np.array([400]), np.array([-0.0]))),
    (("a", "b", "n"), (EDGE_FLOATS, -EDGE_FLOATS[::-1], np.arange(7) * 100 - 300)),
    (("x",), (HARD_ROUNDINGS,)),
], ids=["single-row", "three-columns", "hard-roundings"])
def test_csv_text_is_byte_equal_to_csv_writer(header, columns):
    assert b"".join(_csv_blocks(header, *columns)).decode() == reference_csv(header, *columns)


def _ulps_from_powers_of_ten(offsets):
    """10**k (as parsed) moved by d units in the last place, per (k, d)."""
    bits = np.array([float(f"1e{k}") for k, _ in offsets]).view(np.int64)
    return (bits + np.array([d for _, d in offsets], dtype=np.int64)).view(np.float64)


# Each column is a short drawn list repeated to the row count, so the row
# counts straddle the block size without drawing thousands of values.  The
# reference at 4097 rows takes ~25 ms, so a failure is reported unshrunk.
@settings(max_examples=40, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(floats=st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=30),
       bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=30),
       offsets=st.lists(st.tuples(st.integers(-300, 300), st.integers(-2, 2)),
                        min_size=1, max_size=30),
       ints=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=30),
       negate=st.booleans(),
       rows=st.sampled_from([1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1]))
def test_joined_blocks_are_the_reference_csv(floats, bits, offsets, ints, negate, rows):
    near_powers = _ulps_from_powers_of_ten(offsets) * (-1.0 if negate else 1.0)
    columns = [np.resize(np.array(floats), rows),
               np.resize(np.array(bits, dtype=np.uint64).view(np.float64), rows),
               np.resize(np.array(ints, dtype=np.int64), rows),
               np.resize(near_powers, rows)]
    header = ("floats", "bits", "ints", "near_powers")
    blocks = list(_csv_blocks(header, *columns))
    assert_same_lines(b"".join(blocks).decode(), reference_csv(header, *columns))
    assert blocks[0] == b"floats,bits,ints,near_powers\n"
    assert [block.count(b"\n") for block in blocks[1:]] == \
        [min(_CSV_BLOCK_ROWS, rows - start) for start in range(0, rows, _CSV_BLOCK_ROWS)]


def test_failed_stream_keeps_the_old_artifact(tmp_path):
    target = tmp_path / "pmf.csv"
    target.write_bytes(b"old bytes\n")

    def blocks():
        yield b"x,prob\n"
        raise NumericError("the second block failed")

    with pytest.raises(NumericError):
        _write_atomic(str(target), blocks())
    assert target.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pmf.csv"]


def test_dist_without_out_writes_every_row_to_stdout(capsys):
    n = _CSV_BLOCK_ROWS + 10
    out = run_ok(capsys, ["dist", "--N", str(n), "--povm", "sx", "--state", "paper"])
    sx = projective_from_bloch(math.pi / 2.0, 0.0)
    paper = np.array([2.0, math.sqrt(5.0), 1.0]) / math.sqrt(10.0)
    pmf = pmf_finite(DickeSuperposition(n, paper), sx, derive_params(sx), 0.5)
    assert pmf.values.size > _CSV_BLOCK_ROWS
    assert_same_lines(out, reference_csv(("x", "prob"), pmf.values, pmf.probs))


class TestChsh:
    def test_optimize_reaches_known_value(self, capsys, tmp_path):
        out = tmp_path / "chsh.json"
        summary = run_ok(capsys, ["chsh", "--coeffs", "paper", "--optimize",
                                  "--out", str(out)])
        payload = json.loads(out.read_text())
        assert abs(payload["value"] - CHSH_OPTIMUM) <= 1e-6
        assert payload["optimized"] is True
        assert set(payload["correlators"]) == {"AB", "AB'", "A'B", "A'B'"}
        assert json.loads(summary)["value"] == payload["value"]

    def test_explicit_angles(self, capsys):
        angles = "0,{},{},{}".format(math.pi / 2, -math.pi / 4, math.pi / 4)
        out = run_ok(capsys, ["chsh", "--coeffs", "paper",
                              "--angles", angles])
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(CHSH_OPTIMUM, abs=1e-9)
        assert payload["optimized"] is False

    def test_angles_or_optimize_required(self, capsys):
        payload = run_err(capsys, ["chsh", "--coeffs", "paper"], 1)
        assert "optimize" in payload["message"]

    def test_rank_past_the_cap_is_refused(self, capsys):
        payload = run_err(capsys, ["chsh", "--coeffs", "equal:2002", "--optimize"], 1)
        assert payload["error"] == "cap_exceeded"

    # The value, the correlators and the optimizer used to build a table each:
    # six per --optimize call, five per --angles call.
    @pytest.mark.parametrize("settings, most", [
        (["--optimize"], 2),
        (["--angles", "0.3,1.9,-0.7,0.8"], 1),
    ], ids=["optimize", "angles"])
    def test_one_call_builds_at_most_two_sign_tables(self, capsys, monkeypatch, settings,
                                                     most):
        from macrobell import bell

        builds = []
        build = bell.sign_overlap_table

        def counted(*args, **kwargs):
            builds.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(bell, "sign_overlap_table", counted)
        payload = json.loads(run_ok(capsys, ["chsh", "--coeffs", "equal:8", *settings]))
        assert len(builds) <= most
        c = payload["correlators"]
        assert payload["value"] == pytest.approx(c["AB"] + c["AB'"] + c["A'B"] - c["A'B'"],
                                                 abs=1e-15)

    # --angles used to build the Fourier series twice, once for the value and
    # once for the correlators; the value is now their signed sum, bit for bit.
    @pytest.mark.parametrize("coeffs", ["paper", "equal:8", "random40"])
    def test_angles_value_is_chsh_value_from_one_series(self, capsys, monkeypatch, tmp_path,
                                                        coeffs):
        from macrobell import bell

        if coeffs == "random40":
            rng = np.random.default_rng(40)
            coeffs = str(tmp_path / "c.json")
            with open(coeffs, "w") as handle:
                json.dump(rng.normal(size=(40, 2)).tolist(), handle)
        series = []
        build = bell._fourier_series

        def counted(*args):
            series.append(args)
            return build(*args)

        monkeypatch.setattr(bell, "_fourier_series", counted)
        angles = (0.3, 1.9, -0.7, 0.8)
        payload = json.loads(run_ok(capsys, ["chsh", "--coeffs", coeffs, "--angles",
                                             ",".join(map(repr, angles))]))
        assert len(series) == 1
        assert payload["value"] == chsh_value(BellConfig(_parse_coeffs_vector(coeffs), *angles))


# equal:<d> used to build the d-vector before any level bound, so 10^12 levels
# failed with numpy's MemoryError traceback and no JSON error.
@pytest.mark.parametrize("argv, code", [
    (["chsh", "--optimize"], "cap_exceeded"),
    (["noise-sweep"], "cap_exceeded"),
    (["limit"], "cap_exceeded"),
    (["dist", "--N", "10", "--povm", "sx"], "validation"),
], ids=["chsh", "noise-sweep", "limit", "dist"])
def test_huge_equal_state_is_refused_before_it_is_built(capsys, argv, code):
    payload = run_err(capsys, [*argv, "--coeffs", "equal:1000000000000"], 1)
    assert payload["error"] == code


# Each count that sizes an allocation is bounded at DEFAULT_LATTICE_CAP (2^22)
# rows before anything is built.  10^11 used to end in numpy's
# _ArrayMemoryError traceback, and 10^8 sweep cells ran for minutes.
_CAP = 2**22


@pytest.mark.parametrize("argv, option", [
    (["limit", "--alpha", "0.5", "--coeffs", "paper", "--points", str(_CAP + 1)], "--points"),
    (["limit", "--alpha", "1", "--coeffs", "paper", "--points", str(_CAP + 1)], "--points"),
    (["local-model", "--coeffs", "random", "--points", "2049"], "--points"),
    (["sample", "--N", "100", "--povm", "sx", "--coeffs", "paper", "--seed", "1",
      "--n-samples", str(_CAP + 1)], "--n-samples"),
    (["converge", "--povm", "sx", "--state", "w", "--n-list", "10",
      "--n-samples", str(_CAP + 1)], "--n-samples"),
    (["noise-sweep", "--coeffs", "paper", "--s-grid", "0:0.5:2049",
      "--eps-grid", "0:0.5:2048"], "--s-grid x --eps-grid"),
], ids=["limit-half", "limit-one", "local-model", "sample", "converge", "noise-sweep"])
def test_counts_past_the_cap_are_refused_before_anything_is_built(capsys, tmp_path, argv,
                                                                  option):
    import tracemalloc

    tracemalloc.start()
    try:
        payload = run_err(capsys, [*argv, "--out", str(tmp_path / "out.csv")], 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload["error"] == "cap_exceeded"
    assert payload["message"].startswith(f"{option} gives ")
    assert peak < 2**20  # a row array at the cap alone is 32 MiB
    assert not (tmp_path / "out.csv").exists()


def test_counts_at_the_cap_pass_the_bound():
    from macrobell.cli import _bounded

    _bounded("--points", _CAP)
    _bounded("--points", 2048**2)


# A width whose band overflows reached numpy as a grid of nan and inf.
@pytest.mark.parametrize("argv, name", [
    (["limit", "--alpha", "0.5", "--coeffs", "paper", "--width", "1e200"], "width"),
    (["noise-sweep", "--coeffs", "paper", "--s-grid", "0:1e308:3", "--eps-grid", "0:0.5:2"],
     "s_grid"),
], ids=["limit", "noise-sweep"])
def test_width_without_a_finite_band_is_refused(capsys, argv, name):
    payload = run_err(capsys, argv, 1)
    assert payload["error"] == "validation"
    assert payload["message"].startswith(f"{name} ") and "finite band" in payload["message"]
    assert len(payload["message"]) < 200


# --dim 10^9 used to draw the d x d matrix first and fail with numpy's MemoryError.
@pytest.mark.parametrize("dim", ["2002", "1000000000"])
def test_local_model_dim_past_the_cap_is_refused(capsys, dim):
    payload = run_err(capsys, ["local-model", "--coeffs", "random", "--dim", dim], 1)
    assert payload["error"] == "cap_exceeded"


class TestDist:
    def test_probabilities_sum_to_one(self, capsys):
        out = run_ok(capsys, ["dist", "--N", "20", "--povm", "sx",
                              "--state", "paper"])
        header, rows = read_csv(out)
        assert header == ["x", "prob"]
        probs = np.array([float(r[1]) for r in rows])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert all(FLOAT_FIELD.fullmatch(field) for r in rows for f in (0, 1)
                   for field in [r[f]])

    def test_custom_coefficients_and_base_level(self, capsys):
        out = run_ok(capsys, ["dist", "--N", "12", "--povm", "sx",
                              "--coeffs", "1,0,1i", "--base-level", "2"])
        _, rows = read_csv(out)
        probs = np.array([float(r[1]) for r in rows])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("args", [
        ["--N", "100", "--coeffs", "paper", "--base-level", "50"],
        ["--N", "200", "--coeffs", "equal:16"],
    ], ids=["paper-base50", "equal16"])
    def test_mid_ladder_and_sixteen_levels(self, capsys, tmp_path, args):
        out = tmp_path / "dist.csv"
        summary = run_ok(capsys, ["dist", "--povm", "sx", *args, "--out", str(out)])
        _, rows = read_csv(out.read_text())
        probs = np.array([float(r[1]) for r in rows])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert json.loads(summary)["total_prob"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("preset", ["w", "paper"])
    def test_coeffs_presets_are_the_state_presets(self, capsys, preset):
        # --coeffs reads the --state preset from level 0, padded with zeros
        _, by_coeffs = read_csv(run_ok(capsys, ["dist", "--N", "20", "--povm", "sx",
                                                "--coeffs", preset]))
        _, by_state = read_csv(run_ok(capsys, ["dist", "--N", "20", "--povm", "sx",
                                               "--state", preset]))
        np.testing.assert_allclose(np.array(by_coeffs, dtype=float),
                                   np.array(by_state, dtype=float), rtol=0, atol=1e-14)

    def test_degenerate_povm_needs_overrides(self, capsys):
        payload = run_err(capsys, ["dist", "--N", "10", "--povm", "sz",
                                   "--state", "w"], 1)
        assert payload["error"] == "degenerate_off_diagonal"
        run_ok(capsys, ["dist", "--N", "10", "--povm", "sz", "--state", "w",
                        "--mu", "0", "--tau", "1"])


class TestLimit:
    def test_half_density_normalized(self, capsys):
        out = run_ok(capsys, ["limit", "--alpha", "0.5", "--coeffs", "paper"])
        header, rows = read_csv(out)
        assert header == ["x", "density"]
        x = np.array([float(r[0]) for r in rows])
        density = np.array([float(r[1]) for r in rows])
        assert np.trapezoid(density, x) == pytest.approx(1.0, abs=1e-8)

    def test_one_rotor_normalized(self, capsys):
        out = run_ok(capsys, ["limit", "--alpha", "1.0", "--coeffs", "paper"])
        header, rows = read_csv(out)
        assert header == ["theta", "density"]
        theta = np.array([float(r[0]) for r in rows])
        density = np.array([float(r[1]) for r in rows])
        assert theta[0] == 0.0 and theta[-1] == pytest.approx(math.pi)
        assert np.trapezoid(density, theta) == pytest.approx(1.0, abs=1e-8)

    def test_width_from_povm(self, capsys):
        direct = run_ok(capsys, ["limit", "--coeffs", "w", "--povm", "sx"])
        explicit = run_ok(capsys, ["limit", "--coeffs", "w",
                                   "--phi", str(math.pi), "--width", "0"])
        assert direct == explicit

    def test_alpha_one_ignores_the_width_of_the_povm(self, capsys, tmp_path):
        # The README's 0.35-contrast POVM has s^2 > 0, which only alpha = 0.5 uses.
        povm = _povm_file(tmp_path, json.dumps(CONTRAST_POVM))
        argv = ["limit", "--alpha", "1", "--coeffs", "paper"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_ok(capsys, [*argv, "--povm", povm, "--out", str(a)]) == \
            run_ok(capsys, [*argv, "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        run_ok(capsys, ["converge", "--alpha", "1", "--povm", povm, "--coeffs", "paper",
                        "--n-list", "10,20", "--n-samples", "100"])

    def test_alpha_one_rejects_an_explicit_width(self, capsys):
        payload = run_err(capsys, ["limit", "--alpha", "1", "--coeffs", "paper",
                                   "--width", "0.3"], 1)
        assert payload["error"] == "validation"

    def test_bad_alpha_rejected(self, capsys):
        payload = run_err(capsys, ["limit", "--alpha", "0.75",
                                   "--coeffs", "paper"], 1)
        assert payload["error"] == "validation"

    @pytest.mark.parametrize("width", ["3", "5"])
    def test_default_grid_holds_wide_smearing(self, capsys, tmp_path, width):
        summary = run_ok(capsys, ["limit", "--alpha", "0.5", "--coeffs", "paper",
                                  "--width", width, "--out", str(tmp_path / "l.csv")])
        assert json.loads(summary)["integral"] == pytest.approx(1.0, abs=1e-6)

    def test_level_130_past_the_factorial_overflow(self, capsys, tmp_path):
        summary = run_ok(capsys, ["limit", "--alpha", "0.5", "--coeffs", "0," * 130 + "1",
                                  "--width", "0", "--out", str(tmp_path / "l.csv")])
        assert json.loads(summary)["integral"] == pytest.approx(1.0, abs=1e-6)

    def test_level_2000_on_the_resolved_default_grid(self, capsys, tmp_path):
        # 4001 points resolve the top level's band up to level 1955; over the
        # former +-(12 + 2 k_max) they undersampled level 250 (integral 0.9645).
        summary = json.loads(run_ok(capsys, [
            "limit", "--alpha", "0.5", "--coeffs", "0," * 2000 + "1", "--width", "0",
            "--out", str(tmp_path / "l.csv")]))
        assert summary["points"] > 4001
        assert summary["integral"] == pytest.approx(1.0, abs=1e-9)

    def test_one_level_past_the_cap_is_refused(self, capsys):
        # the test above holds the cap's 2001 levels
        payload = run_err(capsys, ["limit", "--coeffs", "equal:2002", "--width", "0"], 1)
        assert payload["error"] == "cap_exceeded"

    def test_limit_loads_no_bell_layer(self, tmp_path):
        script = ("import sys\n"
                  "from macrobell.cli import run\n"
                  f"assert run(['limit', '--coeffs', 'paper', '--out', {str(tmp_path / 'l.csv')!r}]) == 0\n"
                  "print('macrobell.bell' in sys.modules)\n")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                check=True, env=src_env())
        assert result.stdout.splitlines()[-1] == "False"

    def test_level_1000_past_the_seed_underflow(self, capsys, tmp_path):
        # The rows underflowed inside the level's band: integral 0.66, exit 2.
        # Its rows now span the band alone: 4001, not 57 298.
        summary = json.loads(run_ok(capsys, [
            "limit", "--alpha", "0.5", "--coeffs", "0," * 1000 + "1", "--width", "0",
            "--out", str(tmp_path / "l.csv")]))
        assert summary["points"] == 4001
        assert summary["integral"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("coeffs", ["0," * 75 + "1", "0," * 370 + "1", "equal:2000"],
                             ids=["level75", "level370", "equal2000"])
    def test_wide_kernels_past_the_former_node_cap(self, capsys, tmp_path, coeffs):
        # Level 75 at width 0.3 overflowed a former Hermite series; Gauss-Hermite
        # rows held it, but numpy's rule degenerates at 371 nodes, and level 370
        # exited 2 with numeric.  The width now smooths the law, not the rows.
        summary = run_ok(capsys, ["limit", "--alpha", "0.5", "--coeffs", coeffs,
                                  "--width", "0.3", "--out", str(tmp_path / "l.csv")])
        assert json.loads(summary)["integral"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", ["0.5", "1"])
    def test_points_sets_the_row_count(self, capsys, alpha):
        out = run_ok(capsys, ["limit", "--alpha", alpha, "--coeffs", "paper",
                              "--points", "11"])
        assert len(read_csv(out)[1]) == 11


class TestChannel:
    def test_depolarizing_width_closed_form(self, capsys):
        out = run_ok(capsys, ["channel", "--povm", "sx", "--depol", "0.1"])
        payload = json.loads(out)
        assert payload["s_squared"] == pytest.approx(1.0 / 0.81 - 1.0,
                                                     rel=1e-12)
        assert payload["phi"] == pytest.approx(math.pi, abs=1e-12)

    def test_divergent_loss_is_numeric_error(self, capsys):
        payload = run_err(capsys, ["channel", "--povm", "sx",
                                   "--loss", "1e-13"], 2)
        assert payload["error"] == "divergent_width"

    def test_singular_channel_rejected(self, capsys):
        payload = run_err(capsys, ["channel", "--povm", "sx",
                                   "--dephase", "0.5"], 1)
        assert payload["error"] == "singular_channel"


class TestLocalModel:
    def test_discrepancy_is_tiny(self, capsys, tmp_path):
        out = tmp_path / "joint.csv"
        summary = json.loads(run_ok(capsys, [
            "local-model", "--coeffs", "random", "--dim", "3", "--seed", "4",
            "--points", "41", "--out", str(out)]))
        assert summary["max_discrepancy"] < 1e-12
        header, rows = read_csv(out.read_text())
        assert header == ["theta_a", "theta_b", "quantum", "lhv", "abs_diff"]
        assert len(rows) == 41 * 41
        # row i * 41 + j holds (theta_a[i], theta_b[j])
        grid = np.linspace(0.0, np.pi, 41)
        theta = np.array([[float(r[0]), float(r[1])] for r in rows])
        np.testing.assert_array_equal(theta[:, 0], np.repeat(grid, 41))
        np.testing.assert_array_equal(theta[:, 1], np.tile(grid, 41))


class TestNoiseSweep:
    def test_sweep_artifact_and_summary(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        summary = json.loads(run_ok(capsys, [
            "noise-sweep", "--coeffs", "paper", "--s-grid", "0:0.2:5",
            "--eps-grid", "0:0:1", "--out", str(out)]))
        assert summary["clean_value"] == pytest.approx(CHSH_OPTIMUM, abs=1e-6)
        thresholds = list(summary["threshold_s"].values())
        assert len(thresholds) == 1
        assert thresholds[0] is None or 0.0 < thresholds[0] < 0.2
        header, rows = read_csv(out.read_text())
        assert header == ["s", "eps", "chsh"]
        assert len(rows) == 5
        values = [float(r[2]) for r in rows]
        assert values[0] == pytest.approx(CHSH_OPTIMUM, abs=5e-9)
        assert values == sorted(values, reverse=True)


class TestSample:
    def test_writes_csv_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "records.csv"
        summary = json.loads(run_ok(capsys, [
            "sample", "--N", "50", "--povm", "sx", "--state", "w",
            "--n-samples", "200", "--seed", "9", "--out", str(out)]))
        header, rows = read_csv(out.read_text())
        assert header == ["x"] and len(rows) == 200
        meta = json.loads((tmp_path / "records.csv.meta.json").read_text())
        assert meta == summary
        assert meta["N"] == 50 and meta["seed"] == 9
        assert meta["n_samples"] == 200 and meta["alpha"] == 0.5

    def test_twenty_levels(self, capsys, tmp_path):
        # The sampler capped the level count at 16 and exited 1 with cap_exceeded.
        out = tmp_path / "records.csv"
        run_ok(capsys, ["sample", "--N", "40", "--povm", "sx", "--coeffs", "equal:20",
                        "--n-samples", "50", "--seed", "1", "--out", str(out)])
        assert len(read_csv(out.read_text())[1]) == 50

    def test_requires_out(self, capsys):
        payload = run_err(capsys, ["sample", "--N", "10", "--povm", "sx",
                                   "--state", "w", "--n-samples", "5"], 1)
        assert "--out" in payload["message"]

    def test_deterministic_artifacts(self, capsys, tmp_path):
        argv = ["sample", "--N", "30", "--povm", "sx", "--state", "paper",
                "--n-samples", "100", "--seed", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_ok(capsys, argv + ["--out", str(a)])
        run_ok(capsys, argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestConverge:
    def test_ks_per_size(self, capsys):
        out = run_ok(capsys, ["converge", "--povm", "sx", "--state", "w",
                              "--n-list", "10,20,40", "--n-samples", "400"])
        header, rows = read_csv(out)
        assert header == ["N", "ks"]
        assert [int(r[0]) for r in rows] == [10, 20, 40]
        for row in rows:
            assert 0.0 <= float(row[1]) <= 1.0

    def test_limit_at_base_level_200(self, capsys):
        # The limit law of levels 200-202 needs wavefunctions past level 170.
        out = run_ok(capsys, ["converge", "--povm", "sx", "--coeffs", "paper",
                              "--base-level", "200", "--n-list", "400,800",
                              "--n-samples", "500"])
        _, rows = read_csv(out)
        assert [int(r[0]) for r in rows] == [400, 800]
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows)


class TestSelftest:
    def test_all_checks_pass(self, capsys):
        out = run_ok(capsys, ["selftest"])
        assert "all checks passed" in out
        assert "FAIL" not in out
        checks = out.splitlines()[:-1]
        assert all(" <= " in line for line in checks)
        assert any("wide-kernel-high-level" in line for line in checks)
        assert any("limit-charfn-high-level" in line for line in checks)
        assert any("oracle-pmf-base0" in line for line in checks)
        assert any("sign-table-high-level" in line for line in checks)
        assert any("correlator-fourier-high-rank" in line for line in checks)


def _povm_file(tmp_path, text):
    path = tmp_path / "povm.json"
    path.write_text(text)
    return str(path)


def _binary_file(tmp_path):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00\x81")
    return str(path)


CONTRAST_POVM = {"outcomes": [1.0, -1.0],
                 "effects": [[[[0.5, 0.0], [0.35, 0.0]], [[0.35, 0.0], [0.5, 0.0]]],
                             [[[0.5, 0.0], [-0.35, 0.0]], [[-0.35, 0.0], [0.5, 0.0]]]]}

_SX_EFFECTS = [[[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
               [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]]]

MALFORMED = {
    "equal-coeffs": lambda tmp: ["dist", "--N", "10", "--povm", "sx",
                                 "--coeffs", "equal:abc"],
    "bloch-angle": lambda tmp: ["dist", "--N", "10", "--povm", "bloch:x,1",
                                "--state", "w"],
    "dicke-level": lambda tmp: ["dist", "--N", "10", "--povm", "sx",
                                "--state", "dicke:q"],
    "chsh-angle": lambda tmp: ["chsh", "--coeffs", "paper", "--angles", "1,2,3,x"],
    "limit-points": lambda tmp: ["limit", "--coeffs", "paper", "--points", "-3"],
    "local-model-points-negative": lambda tmp: ["local-model", "--coeffs", "random",
                                                "--points", "-3"],
    "local-model-points-zero": lambda tmp: ["local-model", "--coeffs", "random",
                                            "--points", "0"],
    "povm-not-json": lambda tmp: ["dist", "--N", "10", "--state", "w", "--povm",
                                  _povm_file(tmp, "{not json")],
    "povm-outcome-not-number": lambda tmp: [
        "dist", "--N", "10", "--state", "w", "--povm",
        _povm_file(tmp, json.dumps({"outcomes": ["x", -1], "effects": _SX_EFFECTS}))],
    "povm-effect-not-number": lambda tmp: [
        "dist", "--N", "10", "--state", "w", "--povm",
        _povm_file(tmp, json.dumps({"outcomes": [1, -1],
                                    "effects": [[["a", "b"], ["c", "d"]]] * 2}))],
    "povm-not-text": lambda tmp: ["dist", "--N", "10", "--state", "w", "--povm",
                                  _binary_file(tmp)],
    "coeffs-not-text": lambda tmp: ["chsh", "--optimize", "--coeffs", _binary_file(tmp)],
    # an option the command would ignore is rejected
    "chsh-optimize-and-angles": lambda tmp: ["chsh", "--coeffs", "paper", "--optimize",
                                             "--angles", "0,1,2,3"],
    "local-model-dim-without-random": lambda tmp: ["local-model", "--coeffs", "1,0;0,0",
                                                   "--dim", "7"],
    "local-model-seed-without-random": lambda tmp: ["local-model", "--coeffs", "1,0;0,0",
                                                    "--seed", "2"],
    "limit-phi-nan": lambda tmp: ["limit", "--coeffs", "paper", "--phi", "nan"],
    "limit-phi-inf": lambda tmp: ["limit", "--coeffs", "paper", "--phi", "inf"],
    "limit-rotor-phi-nan": lambda tmp: ["limit", "--alpha", "1", "--coeffs", "paper",
                                        "--phi", "nan"],
    "sample-mu-nan": lambda tmp: ["sample", "--N", "20", "--povm", "sx", "--state", "w",
                                  "--n-samples", "5", "--mu", "nan"],
    "sample-mu-inf": lambda tmp: ["sample", "--N", "20", "--povm", "sx", "--state", "w",
                                  "--n-samples", "5", "--mu", "inf"],
    "converge-tau-inf": lambda tmp: ["converge", "--povm", "sx", "--state", "w",
                                     "--n-list", "10", "--tau", "inf", "--mu", "0"],
    "dist-tau-nan": lambda tmp: ["dist", "--N", "10", "--povm", "sx", "--state", "w",
                                 "--tau", "nan"],
    "state-paper-with-base-level": lambda tmp: ["dist", "--N", "100", "--povm", "sx",
                                                "--state", "paper", "--base-level", "50"],
    "state-w-with-base-level": lambda tmp: ["dist", "--N", "10", "--povm", "sx",
                                            "--state", "w", "--base-level", "7"],
    "state-and-coeffs": lambda tmp: ["dist", "--N", "10", "--povm", "sx",
                                     "--state", "w", "--coeffs", "paper"],
    # the limit law follows the POVM's own mu and tau, so the KS distances
    # against records scaled by others came out near 0.3 and 1 with exit 0
    "converge-mu": lambda tmp: ["converge", "--povm", "sx", "--state", "w",
                                "--n-list", "200,800", "--n-samples", "4000", "--seed", "3",
                                "--mu", "0.5"],
    "converge-tau": lambda tmp: ["converge", "--povm", "sx", "--state", "w",
                                 "--n-list", "200,800", "--n-samples", "4000", "--seed", "3",
                                 "--tau", "2"],
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_validation_error(capsys, tmp_path, case):
    out = tmp_path / "artifact.csv"
    payload = run_err(capsys, MALFORMED[case](tmp_path) + ["--out", str(out)], 1)
    assert payload["error"] == "validation"
    assert not out.exists() and not (tmp_path / "artifact.csv.meta.json").exists()


class TestPlumbing:
    def test_finite_n_commands_share_one_option_block(self):
        import argparse

        from macrobell.cli import _build_parser

        shared = {"--alpha", "--povm", "--state", "--coeffs", "--base-level", "--mu", "--tau"}
        own = {"dist": {"--N"}, "sample": {"--N", "--n-samples", "--seed"},
               "converge": {"--n-list", "--n-samples", "--seed"}}
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        blocks = []
        for name, extra in own.items():
            actions = sub.choices[name]._actions
            flags = {f for a in actions for f in a.option_strings}
            assert flags == {"-h", "--help", "--out", "--threads"} | shared | extra, name
            blocks.append(sorted((a.option_strings, a.dest, a.default, a.type, a.required)
                                 for a in actions if shared & set(a.option_strings)))
        assert blocks[0] == blocks[1] == blocks[2]

    def test_unknown_flag(self, capsys):
        payload = run_err(capsys, ["chsh", "--coeffs", "paper", "--optimize",
                                   "--frobnicate"], 1)
        assert payload["error"] == "validation"

    def test_unknown_command(self, capsys):
        run_err(capsys, ["transmogrify"], 1)

    def test_missing_povm_file(self, capsys, tmp_path):
        payload = run_err(capsys, ["dist", "--N", "10", "--state", "w",
                                   "--povm", str(tmp_path / "nope.json")], 1)
        assert "nope.json" in payload["message"]

    def test_unreadable_inputs_name_their_path(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        payload = run_err(capsys, ["limit", "--coeffs", missing], 1)
        assert payload["error"] == "validation" and missing in payload["message"]
        payload = run_err(capsys, ["dist", "--N", "10", "--state", "w",
                                   "--povm", str(tmp_path)], 1)
        assert payload["error"] == "validation" and str(tmp_path) in payload["message"]

    @pytest.mark.parametrize("argv", [["limit"], ["dist", "--N", "30", "--povm", "sx"]],
                             ids=["limit", "dist"])
    def test_coefficient_file_with_and_without_at(self, capsys, tmp_path, argv):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps([0.6, [0.0, 0.48], -0.64]))
        plain = run_ok(capsys, [*argv, "--coeffs", str(path)])
        assert plain == run_ok(capsys, [*argv, "--coeffs", "@" + str(path)])
        assert plain == run_ok(capsys, [*argv, "--coeffs", "0.6,0.48i,-0.64"])

    def test_converge_reads_the_coefficient_file_once(self, capsys, tmp_path, monkeypatch):
        import macrobell.cli as cli

        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps([0.0, 1.0]))
        read, reads = cli._read_input, []

        def counting_read(name):
            reads.append(name)
            return read(name)

        monkeypatch.setattr(cli, "_read_input", counting_read)
        run_ok(capsys, ["converge", "--povm", "sx", "--coeffs", "@" + str(path),
                        "--n-list", "10,20,40", "--n-samples", "50"])
        assert reads == [str(path)]

    @pytest.mark.parametrize("alpha", ["0.5", "1"])
    def test_limit_measures_sx_by_default(self, capsys, alpha):
        argv = ["limit", "--alpha", alpha, "--coeffs", "paper"]
        assert run_ok(capsys, argv) == run_ok(capsys, [*argv, "--povm", "sx"])

    @pytest.mark.parametrize("state, coeffs", [
        (["--state", "w"], ["--coeffs", "1", "--base-level", "1"]),
        (["--state", "paper"], ["--coeffs", "paper"]),
        (["--state", "dicke:3"], ["--coeffs", "1", "--base-level", "3"]),
    ], ids=["w", "paper", "dicke"])
    def test_state_presets_are_coefficients_at_a_base_level(self, capsys, state, coeffs):
        argv = ["dist", "--N", "12", "--povm", "sx"]
        assert run_ok(capsys, [*argv, *state]) == run_ok(capsys, [*argv, *coeffs])

    def test_out_parent_must_exist(self, capsys, tmp_path):
        target = tmp_path / "missing" / "artifact.csv"
        run_err(capsys, ["chsh", "--coeffs", "paper", "--optimize",
                         "--out", str(target)], 1)

    # Both escaped as IsADirectoryError, PermissionError or FileNotFoundError
    # tracebacks; a directory target also put the temp file in its parent.
    @pytest.mark.parametrize("argv", [
        ["dist", "--N", "6", "--povm", "sx", "--state", "w"],
        ["limit", "--alpha", "1", "--coeffs", "paper"],
        ["chsh", "--coeffs", "paper", "--optimize"],
        ["local-model", "--coeffs", "random", "--dim", "2"],
        ["noise-sweep", "--coeffs", "paper", "--s-grid", "0:0.5:2", "--eps-grid", "0:0.5:2"],
        ["channel", "--povm", "sx", "--depol", "0.1"],
        ["sample", "--N", "10", "--povm", "sx", "--state", "w", "--n-samples", "5"],
        ["converge", "--povm", "sx", "--state", "w", "--n-list", "10", "--n-samples", "5"],
    ], ids=lambda argv: argv[0])
    def test_out_directory_is_a_validation_error(self, capsys, tmp_path, argv):
        target = tmp_path / "out"
        target.mkdir()
        payload = run_err(capsys, [*argv, "--out", str(target)], 1)
        assert payload == {"error": "validation",
                           "message": f"output path is a directory: {target}"}
        assert os.listdir(tmp_path) == ["out"] and os.listdir(target) == []

    def test_directory_at_the_sidecar_path_is_a_validation_error(self, capsys, tmp_path):
        (tmp_path / "s.csv.meta.json").mkdir()
        payload = run_err(capsys, ["sample", "--N", "10", "--povm", "sx", "--state", "w",
                                   "--n-samples", "5", "--out", str(tmp_path / "s.csv")], 1)
        assert payload["message"].startswith(f"cannot write {tmp_path / 's.csv.meta.json'}: ")
        assert os.listdir(tmp_path) == ["s.csv.meta.json"]

    def test_unwritable_out_directory_is_a_validation_error(self, capsys, tmp_path,
                                                            monkeypatch):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("tempfile.mkstemp", refuse)
        target = tmp_path / "chsh.json"
        payload = run_err(capsys, ["chsh", "--coeffs", "paper", "--optimize",
                                   "--out", str(target)], 1)
        assert payload == {"error": "validation",
                           "message": f"cannot write {target}: Permission denied"}

    def test_atomic_overwrite_leaves_no_temp_files(self, capsys, tmp_path):
        out = tmp_path / "chsh.json"
        argv = ["chsh", "--coeffs", "paper", "--optimize", "--out", str(out)]
        run_ok(capsys, argv)
        first = out.read_text()
        run_ok(capsys, argv)
        assert out.read_text() == first
        assert os.listdir(tmp_path) == ["chsh.json"]

    def test_thread_cap_validation(self, capsys):
        run_err(capsys, ["selftest", "--threads", "0"], 1)

    def test_thread_env_validation(self, capsys, monkeypatch):
        monkeypatch.setenv("MACROBELL_THREADS", "lots")
        run_err(capsys, ["chsh", "--coeffs", "paper", "--optimize"], 1)

    def test_thread_cap_sets_environment(self, capsys, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        run_ok(capsys, ["chsh", "--coeffs", "paper", "--optimize",
                        "--threads", "2"])
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


# --------------------------------------------------------------------------
# the process: `python -m macrobell.cli` flushes stdout and stderr and ends
# with os._exit, so main's flush is what delivers buffered output
# --------------------------------------------------------------------------

def buffered_env() -> dict:
    """``src_env()`` with buffered stdio, as a user runs the command."""
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


def cli_process(argv, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "macrobell.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=buffered_env())


def assert_stdout_error(stderr: bytes):
    payload = json.loads(stderr)
    assert payload["error"] == "validation"
    assert payload["message"].startswith("cannot write stdout: ")


class TestProcess:
    def test_stdout_is_the_bytes_run_writes(self, capsysbinary):
        # well past one pipe buffer, so the process blocks on the reader
        argv = ["dist", "--N", "10000", "--povm", "sx", "--state", "paper"]
        assert run(argv) == 0
        expected = capsysbinary.readouterr().out
        assert len(expected) > 2**16
        result = cli_process(argv)
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == expected

    def test_out_prints_one_summary_line(self, tmp_path):
        out = tmp_path / "chsh.json"
        result = cli_process(["chsh", "--coeffs", "paper", "--optimize", "--out", str(out)])
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.count(b"\n") == 1
        assert json.loads(result.stdout) == {"value": json.loads(out.read_text())["value"]}

    @pytest.mark.parametrize("argv, code", [
        (["channel", "--povm", "sx"], 0),
        (["chsh", "--coeffs", "nope", "--optimize"], 1),
        (["channel", "--povm", "sx", "--loss", "1e-13"], 2),
    ], ids=["ok", "validation", "numeric"])
    def test_exit_codes_and_error_object(self, argv, code):
        result = cli_process(argv)
        assert result.returncode == code
        if code:
            assert result.stdout == b""
            assert set(json.loads(result.stderr)) == {"error", "message"}
        else:
            assert result.stderr == b""
            assert json.loads(result.stdout)["mode"] == "half"

    # A stdout that cannot take the output used to end in a BrokenPipeError or
    # OSError traceback (AttributeError when closed), not in the JSON error.
    def test_closed_pipe_is_a_validation_error(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = cli_process(["dist", "--N", "10000", "--povm", "sx", "--state", "paper"],
                                 stdout=write_end)
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert_stdout_error(result.stderr)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_is_a_validation_error(self, tmp_path):
        out = tmp_path / "chsh.json"
        with open("/dev/full", "wb") as full:
            result = cli_process(["chsh", "--coeffs", "paper", "--optimize", "--out", str(out)],
                                 stdout=full)
        assert result.returncode == 1
        assert_stdout_error(result.stderr)
        assert json.loads(out.read_text())["optimized"] is True

    # argparse wrote the help itself: on a closed pipe the process exited 120
    # with a BrokenPipeError on stderr, or 0 with the help lost when unbuffered.
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["chsh", "--help"]], ids=["top", "chsh"])
    def test_help_on_a_closed_pipe_is_a_validation_error(self, argv, unbuffered):
        env = buffered_env()
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run([sys.executable, "-m", "macrobell.cli", *argv],
                                    stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert result.returncode == 1
        assert_stdout_error(result.stderr)

    def test_help_goes_to_stdout(self):
        result = cli_process(["chsh", "--help"])
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout.startswith(b"usage: macrobell chsh")

    @pytest.mark.parametrize("redirect, message", [(">&-", True), (">&- 2>&-", False)],
                             ids=["stdout", "stdout-and-stderr"])
    def test_closed_stdout_exits_1(self, tmp_path, redirect, message):
        argv = [sys.executable, "-m", "macrobell.cli", "chsh", "--coeffs", "paper",
                "--optimize", "--out", str(tmp_path / "chsh.json")]
        result = subprocess.run(["sh", "-c", f"{shlex.join(argv)} {redirect}"],
                                capture_output=True, env=buffered_env())
        assert result.returncode == 1
        if message:
            assert_stdout_error(result.stderr)
        else:  # with no stderr the failure is the exit code alone
            assert result.stderr == b""
