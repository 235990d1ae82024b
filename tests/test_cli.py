import io
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from turnarcs import cli, simulator
from turnarcs.cli import CSV_CHUNK_ROWS, main, read_realization_csv
from turnarcs.covariance import Exponential, GeneralizedF, NegativeBinomial, SequenceCovariance
from turnarcs.degree_sampling import (
    FiniteDegrees,
    GeometricDegrees,
    OddShiftedZeta,
    ShiftedZeta,
    recommend_distribution,
)
from turnarcs.grids import (
    Grid,
    GridError,
    LatLonGrid,
    PointListGrid,
    SectionGrid,
    Slice3Grid,
    build_grid,
    parse_grid,
)
from turnarcs.simulator import SERIES_ERROR_BOUND, Realization, SimulationConfig, simulate


# ---------------------------------------------------------------------- grids

def test_latlon_single_face():
    grid = build_grid(LatLonGrid(1, 1))
    assert_allclose(grid.points, [[-1.0, 0.0, 0.0]], atol=1e-15)
    assert_allclose(grid.coords, [[np.pi / 2, np.pi]])


def test_latlon_ordering_is_colatitude_major():
    grid = build_grid(LatLonGrid(2, 3))
    colats = grid.coords[:, 0]
    assert_allclose(colats, [np.pi / 4] * 3 + [3 * np.pi / 4] * 3)


def test_slice3_grid():
    grid = build_grid(Slice3Grid(0.75, 2, 2))
    assert grid.points.shape == (4, 4)
    assert_allclose(np.linalg.norm(grid.points, axis=1), 1.0, atol=1e-14)
    assert_allclose(grid.points[:, 3], 0.75)


def test_section_grid_high_dimension():
    grid = build_grid(SectionGrid(256, 2, 2))
    assert grid.points.shape == (4, 257)
    assert_array_equal(grid.points[:, 3:], np.zeros((4, 254)))
    assert_allclose(np.linalg.norm(grid.points, axis=1), 1.0, atol=1e-14)


def test_point_list_grid(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("# a comment\n1,0,0\n0,1,0\n0,0,1\n")
    grid = build_grid(PointListGrid(str(path)))
    assert grid.d == 2
    assert_allclose(grid.points, np.eye(3))
    assert grid.coord_names == ["x0", "x1", "x2"]


def test_point_list_error_names_line(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,0,0\n0,nonsense,0\n")
    with pytest.raises(GridError, match=":2"):
        build_grid(PointListGrid(str(path)))


def test_point_list_norm_check(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1,0,0\n2,0,0\n")
    with pytest.raises(GridError, match=":2"):
        build_grid(PointListGrid(str(path)))


@pytest.mark.parametrize("row", ["nan,0,0", "0,inf,0", "0 0 -inf"])
def test_point_list_rejects_non_finite(tmp_path, row):
    path = tmp_path / "pts.csv"
    path.write_text(f"1,0,0\n{row}\n")
    with pytest.raises(GridError, match=":2: non-finite"):
        build_grid(PointListGrid(str(path)))


@pytest.mark.parametrize("spec, message", [
    (LatLonGrid(0, 4), "face counts must be >= 1"),
    (Slice3Grid(1.0, 2, 2), "slice coordinate must satisfy |w| < 1, got 1.0"),
    (SectionGrid(2, 2, 2), "section grids need sphere dimension >= 3"),
    ("latlon:2x2", "unknown grid spec 'latlon:2x2'"),
], ids=["latlon-faces", "slice3-w", "section-d", "text"])
def test_build_grid_rejects_a_spec_it_cannot_build(spec, message):
    with pytest.raises(GridError) as caught:
        build_grid(spec)
    assert str(caught.value) == message


@pytest.mark.parametrize("text, d, message", [
    (None, None, "cannot open point list {path}: [Errno 2] No such file or directory: '{path}'"),
    ("1,0,0\n0,1\n", None, "{path}:2: expected 3 coordinates, got 2"),
    ("# a comment only\n\n", None, "{path}: no points found"),
    ("1,0,0\n0,1,0\n", 3, "{path}: rows have 3 coordinates, expected 4"),
], ids=["missing", "ragged", "empty", "wrong-d"])
def test_point_list_errors_name_the_file(tmp_path, text, d, message):
    path = tmp_path / "pts.csv"
    if text is not None:
        path.write_text(text)
    with pytest.raises(GridError) as caught:
        build_grid(PointListGrid(str(path), d))
    assert str(caught.value) == message.format(path=path)


@pytest.mark.parametrize("text, message", [
    ("points:", "points grid needs a file path"),
    ("latlon:ax2", "malformed grid spec 'latlon:ax2': invalid literal for int() with base 10: 'a'"),
    ("slice3:w:2x2", "malformed grid spec 'slice3:w:2x2': could not convert string to float: 'w'"),
], ids=["points-no-path", "latlon-faces", "slice3-w"])
def test_parse_grid_rejects_a_malformed_spec(text, message):
    with pytest.raises(GridError) as caught:
        parse_grid(text)
    assert str(caught.value) == message


def test_parse_grid_strings():
    assert parse_grid("latlon:100x50") == LatLonGrid(100, 50)
    assert parse_grid("slice3:0.75:10x20") == Slice3Grid(0.75, 10, 20)
    assert parse_grid("section:256:5x5") == SectionGrid(256, 5, 5)
    assert parse_grid("points:somefile.csv") == PointListGrid("somefile.csv", None)
    with pytest.raises(GridError):
        parse_grid("torus:3x3")
    with pytest.raises(GridError):
        parse_grid("latlon:100")


FACES = st.integers(1, 10**6)
GRID_SPECS = st.one_of(
    st.builds(LatLonGrid, FACES, FACES),
    st.builds(Slice3Grid, st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
              FACES, FACES),
    st.builds(SectionGrid, st.integers(3, 10**4), FACES, FACES),
    st.builds(PointListGrid, st.text(min_size=1), st.none() | st.integers(1, 10**4)),
)


@settings(max_examples=200, deadline=None)
@given(spec=GRID_SPECS)
@example(spec=Slice3Grid(0.123456789, 10, 10))
@example(spec=Slice3Grid(0.25, 100, 100))
def test_grid_spec_round_trips(spec):
    # the CSV "# grid=" line must name the grid that was run
    assert parse_grid(spec.describe(), spec.d) == spec


def law_state(law):
    return type(law), {key: np.asarray(value).tolist() for key, value in vars(law).items()}


OPEN_UNIT = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
DEGREE_LAWS = st.one_of(
    st.builds(GeometricDegrees, OPEN_UNIT),
    st.builds(ShiftedZeta, st.floats(1.0, 1e3, exclude_min=True)),
    st.builds(OddShiftedZeta, st.floats(1.0, 1e3, exclude_min=True)),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8).filter(lambda w: sum(w) > 0.1)
      .map(lambda w: FiniteDegrees(np.array(w) / sum(w))),
)


@settings(max_examples=200, deadline=None)
@given(law=DEGREE_LAWS)
@example(law=GeometricDegrees(0.0014985004999999996))     # recommended for nb delta=0.999
@example(law=GeometricDegrees(0.01))
@example(law=ShiftedZeta(2.0))
@example(law=FiniteDegrees(np.array([0.1, 0.2, 0.7])))
def test_degree_law_spec_round_trips(law):
    # the CSV "# degrees=" line must parse back to the law that was run
    assert law_state(cli.parse_degrees(law.spec_string())) == law_state(law)


def test_short_spec_strings_stay_short():
    assert GeometricDegrees(0.01).spec_string() == "geometric:0.01"
    assert ShiftedZeta(2.0).spec_string() == "zeta:2"
    assert OddShiftedZeta(2.5).spec_string() == "oddzeta:2.5"
    assert Slice3Grid(0.25, 100, 100).describe() == "slice3:0.25:100x100"


@settings(max_examples=50, deadline=None)
@given(d=st.integers(1, 8), rows=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_point_file_round_trips(tmp_path_factory, d, rows, seed):
    # a point file of unit points, written with 17 significant digits as the
    # CSV writer does, reads back bit for bit
    v = np.random.default_rng(seed).normal(size=(rows, d + 1))
    points = v / np.linalg.norm(v, axis=1)[:, None]
    path = tmp_path_factory.mktemp("points") / "pts.csv"
    np.savetxt(path, points, fmt="%.17g", delimiter=",")
    grid = build_grid(PointListGrid(str(path)))
    assert grid.d == d
    assert_array_equal(grid.points, points)


# ------------------------------------------------------------------- simulate

SIM_ARGS = [
    "simulate", "--model", "nb", "--d", "2", "--delta", "0.5",
    "--degree-dist", "geometric:0.1", "--L", "40", "--seed", "7",
    "--grid", "latlon:6x8",
]


def test_simulate_writes_deterministic_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(SIM_ARGS + ["--out", str(out1)]) == 0
    assert main(SIM_ARGS + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_csv_round_trip(tmp_path):
    out = tmp_path / "r.csv"
    assert main(SIM_ARGS + ["--out", str(out)]) == 0
    header, names, data = read_realization_csv(str(out))
    assert names == ["colat", "lon", "z1"]
    assert header["model"] == "nb(delta=0.5, d=2)"
    assert header["grid"] == "latlon:6x8"

    config = SimulationConfig(
        NegativeBinomial(0.5, d=2), GeometricDegrees(0.1), L=40, seed=7
    )
    grid = build_grid(LatLonGrid(6, 8))
    expected = simulate(config, grid.points)
    # 17-significant-digit decimals round-trip doubles exactly
    assert_array_equal(data[:, 2], expected.values[:, 0])
    assert_array_equal(data[:, :2], grid.coords)


def test_simulate_header_records_profile_error_bound(tmp_path):
    # 48 points take no table: the bound of the highest row, a series row
    # of degree 37, SERIES_ERROR_BOUND (n+1)^2
    out = tmp_path / "r.csv"
    assert main(SIM_ARGS + ["--out", str(out)]) == 0
    header, _, _ = read_realization_csv(str(out))
    assert header["degree_max"] == "37" and "table:0," in header["profile_methods"]
    assert float(header["profile_error_bound"]) == SERIES_ERROR_BOUND * 38**2


def test_simulate_header_reads_back_as_the_metadata(tmp_path):
    # each metadata key has its own header line, which reads back as its
    # value (d, p, L and seed used to share one line, so read back as d)
    out = tmp_path / "r.csv"
    args = ["simulate", "--model", "nb", "--delta", "0.5", "--degree-dist", "geometric:0.1",
            "--L", "5", "--seed", "3", "--grid", "latlon:2x3", "--out", str(out)]
    assert main(args) == 0
    header, _, _ = read_realization_csv(str(out))
    config = SimulationConfig(NegativeBinomial(0.5), GeometricDegrees(0.1), L=5, seed=3)
    metadata = simulate(config, build_grid(LatLonGrid(2, 3)).points).metadata
    assert header.keys() - metadata.keys() == {"grid"}
    for key, value in metadata.items():
        if isinstance(value, dict):
            assert header[key] == ",".join(f"{k}:{v}" for k, v in value.items())
        else:
            assert type(value)(header[key]) == value


def test_simulate_header_records_the_drawn_degrees(tmp_path):
    # degree_sum and degree_max of the plan simulate draws, as Python ints
    # in the metadata and read back from the CSV header
    out = tmp_path / "r.csv"
    args = ["simulate", "--model", "f", "--d", "3", "--alpha", "1", "--nu", "3.5",
            "--tau", "2", "--degree-dist", "zeta:1.5", "--L", "40", "--seed", str(2**64 + 3),
            "--grid", "slice3:0.25:4x5", "--out", str(out)]
    assert main(args) == 0
    header, _, _ = read_realization_csv(str(out))
    model = cli.parse_model(cli.build_parser().parse_args(args))
    config = SimulationConfig(model, ShiftedZeta(1.5), L=40, seed=2**64 + 3)
    degrees = simulator._draw_plan(config).degrees.tolist()   # exact ints: no int64 sum
    metadata = simulate(config, build_grid(parse_grid("slice3:0.25:4x5")).points).metadata
    for key, value in (("degree_sum", sum(degrees)), ("degree_max", max(degrees))):
        assert type(metadata[key]) is int and metadata[key] == value
        assert int(header[key]) == value
    assert sum(degrees) > max(degrees) > 0


def test_simulate_header_records_profile_methods(tmp_path):
    # the waves per profile method, in the method table's order, summing to
    # L; one header line after degree_max, read back as the metadata says
    out = tmp_path / "r.csv"
    args = ["simulate", "--model", "f", "--d", "3", "--alpha", "1", "--nu", "3.5",
            "--tau", "2", "--degree-dist", "zeta:2", "--L", "60", "--seed", "4",
            "--grid", "slice3:0.25:100x100", "--out", str(out)]
    assert main(args) == 0
    header, _, _ = read_realization_csv(str(out))
    config = SimulationConfig(cli.parse_model(cli.build_parser().parse_args(args)),
                              ShiftedZeta(2.0), L=60, seed=4)
    counts = simulate(config, build_grid(parse_grid("slice3:0.25:100x100")).points
                      ).metadata["profile_methods"]
    assert list(counts) == [method.name for method in simulator._METHODS]
    assert sum(counts.values()) == 60
    assert counts["affine"] > 0 and counts["exact"] > 0 and counts["series"] > 0
    assert header["profile_methods"] == ",".join(f"{k}:{v}" for k, v in counts.items())
    lines = out.read_text().splitlines()
    after = lines.index(f"# degree_max={header['degree_max']}") + 1
    assert lines[after].startswith("# profile_methods=")


def test_main_parses_each_call_afresh(tmp_path, monkeypatch):
    # the parser is built once per process; consecutive main calls with
    # other subcommands and flags still get their own values and defaults
    assert cli.build_parser() is cli.build_parser()
    seen = []

    def recording(config, points):
        seen.append((config.L, config.seed, type(config.degrees)))
        return simulate(config, points)

    monkeypatch.setattr(cli, "simulate", recording)
    small = ["simulate", "--model", "nb", "--delta", "0.5", "--grid", "latlon:2x3"]
    assert main(small + ["--L", "7", "--seed", "11", "--degree-dist", "zeta:2",
                         "--out", str(tmp_path / "a.csv")]) == 0
    assert main(["coeffs", "--model", "nb", "--delta", "0.3", "--n-max", "3",
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert main(small + ["--out", str(tmp_path / "b.csv")]) == 0
    assert seen[0] == (7, 11, ShiftedZeta)
    assert seen[1][:2] == (1500, 0) and seen[1][2] is not ShiftedZeta
    assert len((tmp_path / "c.csv").read_text().splitlines()) > 3


def test_simulate_auto_degree_header(tmp_path):
    out = tmp_path / "r.csv"
    args = [
        "simulate", "--model", "sm", "--d", "2", "--alpha", "1", "--nu", "0.75",
        "--auto-degree", "--L", "5", "--seed", "1",
        "--grid", "latlon:2x2", "--out", str(out),
    ]
    assert main(args) == 0
    header, _, _ = read_realization_csv(str(out))
    assert header["degrees"] == "zeta:2"
    assert header["auto-degree: case"] == "3"


def test_simulate_auto_degree_header_records_the_warning(tmp_path):
    # Chentsov on d = 4 has an empty admissible zeta interval, so the chosen
    # law carries the Berry-Esseen warning into the header
    out = tmp_path / "r.csv"
    assert main(["simulate", "--model", "chentsov", "--d", "4", "--L", "5", "--seed", "1",
                 "--grid", "section:4:2x2", "--out", str(out)]) == 0
    header, _, data = read_realization_csv(str(out))
    assert header["degrees"] == "oddzeta:2"
    assert header["auto-degree: warning"] == "Berry-Esseen bound not guaranteed finite"
    assert data.shape == (4, 3)


def test_simulate_defaults_to_auto_degree(tmp_path):
    # degree-law flags omitted entirely: automatic selection kicks in
    out = tmp_path / "r.csv"
    args = [
        "simulate", "--model", "nb", "--d", "2", "--delta", "0.5",
        "--L", "10", "--seed", "7", "--grid", "latlon:5x5", "--out", str(out),
    ]
    assert main(args) == 0
    header, _, data = read_realization_csv(str(out))
    assert header["degrees"] == "geometric:0.01"
    assert header["auto-degree: case"] == "2"
    assert data.shape == (25, 3)


def test_simulate_bivariate(tmp_path):
    out = tmp_path / "r.csv"
    args = [
        "simulate", "--model", "nb", "--p", "2", "--delta", "0.2,0.2,0.7",
        "--rho", "0.6", "--degree-dist", "geometric:0.01", "--L", "20",
        "--seed", "3", "--grid", "latlon:4x4", "--out", str(out),
    ]
    assert main(args) == 0
    _, names, data = read_realization_csv(str(out))
    assert names == ["colat", "lon", "z1", "z2"]
    assert data.shape == (16, 4)


# ------------------------------------------------------------------ coeffs

def test_coeffs_chentsov(tmp_path, capsys):
    assert main(["coeffs", "--model", "chentsov", "--d", "2", "--n-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,b_n"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    values = [float(r[1]) for r in rows]
    assert values[0] == 0.0
    assert values[1] == pytest.approx(0.75, rel=1e-15)
    assert values[2] == 0.0
    assert values[3] == pytest.approx(0.109375, rel=1e-15)


def test_coeffs_to_file(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["coeffs", "--model", "nb", "--delta", "0.5", "--n-max", "2",
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines() == ["n,b_n", "0,0.5", "1,0.25", "2,0.125"]


@pytest.mark.parametrize("flags, model", [
    (["--model", "exponential", "--d", "3", "--nu", "2"], Exponential(2.0, d=3)),
    (["--model", "sequence", "--d", "2", "--coeffs", "0.5,0,0.5"],
     SequenceCovariance([0.5, 0.0, 0.5], d=2)),
])
def test_coeffs_match_the_library(flags, model, capsys):
    assert main(["coeffs", *flags, "--n-max", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["n,b_n"] + [f"{n},{b:.17g}" for n, b in enumerate(model.coeff_table(4))]


# ---------------------------------------------------------------------- mu3

def test_mu3_matches_library(capsys):
    assert main([
        "mu3", "--model", "nb", "--d", "2", "--delta", "0.5",
        "--degree-dist", "geometric:0.01", "--L", "1500",
    ]) == 0
    out = capsys.readouterr().out
    from turnarcs.diagnostics import berry_esseen_report

    report = berry_esseen_report(
        NegativeBinomial(0.5, d=2), GeometricDegrees(0.01), 1500
    )
    assert f"mu3 = {report.mu3.value!r}" in out
    assert f"ks-bound = {report.bound!r}" in out


def test_mu3_reports_each_component_of_a_bivariate_model(capsys):
    assert main([
        "mu3", "--model", "nb", "--p", "2", "--delta", "0.2,0.2,0.7", "--rho", "0.6",
        "--degree-dist", "geometric:0.05", "--L", "300",
    ]) == 0
    out = capsys.readouterr().out
    from turnarcs.covariance import BivariateNegativeBinomial
    from turnarcs.diagnostics import berry_esseen_report

    model = BivariateNegativeBinomial(0.2, 0.2, 0.7, rho=0.6)
    lines = []
    for i in range(2):
        report = berry_esseen_report(model.component(i), GeometricDegrees(0.05), 300)
        lines += [f"component {i + 1}: mu3 = {report.mu3.value!r} (truncated at degree "
                  f"{report.mu3.n_max}, tail bound {report.mu3.relative_tail:.3g} relative)",
                  f"component {i + 1}: sigma = {report.sigma!r}",
                  f"component {i + 1}: L = 300",
                  f"component {i + 1}: ks-bound = {report.bound!r}"]
    assert out.splitlines() == lines


def test_mu3_truncated_sum_gives_no_bound(capsys):
    # the terms peak near degree 2000, so the sum up to degree 64 is only a
    # lower bound on mu3 and cannot give a KS bound
    assert main([
        "mu3", "--model", "nb", "--delta", "0.999",
        "--degree-dist", "geometric:0.0014985", "--n-max", "64", "--L", "1500",
    ]) == 0
    out = capsys.readouterr().out
    assert "tail bound inf relative" in out
    assert "ks-bound = not established" in out


def test_mu3_doubles_its_truncation_until_the_tail_is_small(capsys):
    # the auto-degree law's sum to degree 64 and to 128 leaves a relative
    # tail above 1e-4 (the d = 3 polynomial envelope); the sum to 256 does not
    model = GeneralizedF(1.0, 3.5, 2.0, d=3)
    assert main(["mu3", "--model", "f", "--d", "3", "--alpha", "1", "--nu", "3.5",
                 "--tau", "2"]) == 0
    out = capsys.readouterr().out
    from turnarcs.diagnostics import berry_esseen_report

    report = berry_esseen_report(model, recommend_distribution(model).distribution, 1500)
    assert report.mu3.n_max == 256 and 0.0 < report.mu3.relative_tail <= 1e-4
    assert f"mu3 = {report.mu3.value!r} (truncated at degree 256," in out
    assert f"ks-bound = {report.bound!r}" in out


@pytest.mark.parametrize("flags", [
    ["--model", "nb", "--delta", "0.5"],
    ["--model", "sm", "--alpha", "1", "--nu", "0.75"],
    ["--model", "f", "--d", "3", "--alpha", "1", "--nu", "3.5", "--tau", "2"],
    ["--model", "chentsov", "--d", "3"],
])
def test_mu3_sum_to_degree_zero_gives_no_bound(flags, capsys):
    # no term of degree >= 1 anchors a tail envelope, so the tail of the sum
    # to degree 0 is unbounded; Chentsov's sum is 0.0 there
    assert main(["mu3", *flags, "--n-max", "0"]) == 0
    out = capsys.readouterr().out
    assert "(truncated at degree 0, tail bound inf relative)" in out
    assert "ks-bound = not established" in out


def test_mu3_rejects_a_law_that_cannot_simulate_the_model(tmp_path, capsys):
    # the law finite:0.5,0.5 leaves out degree 2, which nb loads: mu3 gives
    # the error simulate gives, not a bound for a run that cannot happen
    flags = ["--model", "nb", "--delta", "0.5", "--degree-dist", "finite:0.5,0.5"]
    assert main(["mu3", *flags]) == 1
    assert main(["simulate", *flags, "--grid", "latlon:2x2",
                 "--out", str(tmp_path / "r.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 2 * ("turnarcs: degree law assigns no mass to degree 2, "
                                "which the model loads\n")


def test_mu3_divergent_prints_flag(capsys):
    assert main([
        "mu3", "--model", "chentsov", "--d", "8",
        "--degree-dist", "oddzeta:2", "--L", "100",
    ]) == 0
    assert "infinite" in capsys.readouterr().out


# ----------------------------------------------------------------- recommend

def test_recommend_output(capsys):
    assert main(["recommend", "--model", "sm", "--d", "2",
                 "--alpha", "1", "--nu", "0.75"]) == 0
    out = capsys.readouterr().out
    assert "case: 3" in out
    assert "theta-prime-interval: (1, 5.5)" in out
    assert "distribution: zeta:2" in out


def test_recommend_flags_empty_interval(capsys):
    assert main(["recommend", "--model", "chentsov", "--d", "8"]) == 0
    out = capsys.readouterr().out
    assert "theta-prime-interval-empty: yes" in out
    assert "warning: Berry-Esseen bound not guaranteed finite" in out


# ------------------------------------------------------------------ validate

def test_validate_passes_and_reports(tmp_path, capsys):
    report_path = tmp_path / "report.csv"
    code = main([
        "validate", "--model", "nb", "--delta", "0.5",
        "--degree-dist", "geometric:0.2", "--L", "40", "--M", "200",
        "--grid", "latlon:4x8", "--bins", "10", "--seed", "11",
        "--out", str(report_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "wall-time-seconds" in out
    text = report_path.read_text()
    assert "bin,center,count,i,j,estimate,theoretical,se,ok" in text


def test_validate_subsamples_pairs_and_reports_empty_bins(capsys):
    # 528 pairs on latlon:4x8 are cut to 100; the grid's few distinct lags
    # leave most of 40 bins empty
    code = main([
        "validate", "--model", "nb", "--delta", "0.5",
        "--degree-dist", "geometric:0.2", "--L", "40", "--M", "200",
        "--grid", "latlon:4x8", "--bins", "40", "--max-pairs", "100", "--seed", "11",
    ])
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()
            if line[:1].isdigit()]
    assert code == 0
    empty = [row for row in rows if row[-1] == "empty"]
    assert len(empty) >= 20
    assert all(row[2:8] == ["0", "", "", "", "", ""] for row in empty)
    filled = {row[0]: int(row[2]) for row in rows if row[-1] != "empty"}
    assert len(filled) + len(empty) == 40
    assert sum(filled.values()) == 100


def test_validate_failure_exits_two(monkeypatch, capsys):
    # a model off by 1.0 everywhere puts every bin far outside 4 SE
    real = cli._theory_by_bin
    monkeypatch.setattr(cli, "_theory_by_bin", lambda *args: real(*args) + 1.0)
    code = main([
        "validate", "--model", "nb", "--delta", "0.5",
        "--degree-dist", "geometric:0.2", "--L", "40", "--M", "200",
        "--grid", "latlon:4x8", "--bins", "10", "--seed", "11",
    ])
    captured = capsys.readouterr()
    assert code == 2
    failures = int(re.search(r"failures = (\d+)$", captured.out, re.M).group(1))
    assert failures > 0
    assert captured.err == (f"validation failed: {failures} bin/component cells "
                            "beyond 4 standard errors\n")


@pytest.mark.parametrize("M", ["1", "-3"])
def test_validate_needs_two_realizations_before_it_simulates(monkeypatch, capsys, M):
    # --M 1 used to simulate every realization before the covariance
    # estimate rejected it, and --M -3 to exit 1 with numpy's "negative
    # dimensions are not allowed"; both are usage errors now, before any draw
    calls = []
    monkeypatch.setattr(cli, "simulate_ensemble", lambda *args: calls.append(args))
    code = main(["validate", "--model", "nb", "--delta", "0.5", "--degree-dist", "geometric:0.2",
                 "--L", "40", "--M", M, "--grid", "latlon:4x8"])
    assert code == cli.EXIT_USAGE and calls == []
    assert capsys.readouterr().err == (
        f"turnarcs: usage error: argument --M: must be at least 2, got {M}\n")


def test_validate_bivariate_model(tmp_path, capsys):
    # degree law with solid low-degree mass so every realization mixes the
    # dominant wave degrees and the 4-SE band is trustworthy at this M
    code = main([
        "validate", "--model", "nb", "--p", "2", "--delta", "0.2,0.2,0.7",
        "--rho", "0.6", "--degree-dist", "geometric:0.3", "--L", "40",
        "--M", "200", "--grid", "latlon:4x6", "--bins", "8", "--seed", "5",
    ])
    out = capsys.readouterr().out
    assert code == 0
    # all three component pairs appear
    assert ",1,1," in out and ",1,2," in out and ",2,2," in out


def test_simulate_slice3_schema(tmp_path):
    out = tmp_path / "s.csv"
    args = [
        "simulate", "--model", "f", "--d", "3", "--alpha", "1", "--nu", "3.5",
        "--tau", "2", "--degree-dist", "zeta:2", "--L", "5", "--seed", "1",
        "--grid", "slice3:0.25:3x4", "--out", str(out),
    ]
    assert main(args) == 0
    _, names, data = read_realization_csv(str(out))
    assert names == ["colat", "lon", "w", "z1"]
    assert_allclose(data[:, 2], 0.25)


def test_simulate_point_list_schema(tmp_path):
    pts = tmp_path / "pts.txt"
    pts.write_text("1 0 0\n0 1 0\n0 0 1\n")
    out = tmp_path / "p.csv"
    args = [
        "simulate", "--model", "nb", "--delta", "0.5",
        "--degree-dist", "geometric:0.1", "--L", "8", "--seed", "2",
        "--grid", f"points:{pts}", "--out", str(out),
    ]
    assert main(args) == 0
    _, names, data = read_realization_csv(str(out))
    assert names == ["x0", "x1", "x2", "z1"]
    assert_allclose(data[:, :3], np.eye(3))


# ------------------------------------------------------------------ CSV bytes

CSV_ROW_COUNTS = (1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 1)
# 0.0 and -0.0 compare equal but print differently; 5e-324 is subnormal
SIGNED_ZEROS = (0.0, -0.0, 5e-324, -5e-324, 1.0)


@st.composite
def csv_grids(draw, kind, rows):
    """A grid of `rows` points of the given kind, as the writer sees it."""
    if kind in ("latlon", "slice3", "section"):
        n_colat = draw(st.sampled_from([k for k in range(1, rows + 1) if rows % k == 0]))
        if kind == "latlon":
            return build_grid(LatLonGrid(n_colat, rows // n_colat))
        if kind == "slice3":
            w = draw(st.sampled_from([0.25, 0.0, -0.0])
                     | st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
            return build_grid(Slice3Grid(w, n_colat, rows // n_colat))
        return build_grid(SectionGrid(draw(st.integers(3, 6)), n_colat, rows // n_colat))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "points":
        # no coordinate repeats a value
        v = rng.normal(size=(rows, draw(st.integers(2, 4))))
        points = v / np.linalg.norm(v, axis=1)[:, None]
        return Grid(points.shape[1] - 1, points, points.copy(),
                    [f"x{i}" for i in range(points.shape[1])])
    # hand-built: signed zeros and subnormals repeated in one column, with a
    # value first seen in the last row, which may be past the first chunk;
    # the row index (no repeats) in the next
    signed = np.resize(rng.permutation(SIGNED_ZEROS), rows)
    signed[-1] = -2.5
    coords = np.column_stack([signed, np.arange(rows) * 0.1])
    return Grid(2, np.zeros((rows, 3)), coords, ["a", "b"])


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("rows", CSV_ROW_COUNTS)
@pytest.mark.parametrize("kind", ["latlon", "slice3", "section", "points", "hand"])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_csv_body_is_per_cell_17g(kind, rows, p, data):
    # the body after the header is byte for byte what formatting each cell
    # with '%.17g' gives, i.e. np.savetxt(fmt="%.17g", delimiter=",")
    grid = data.draw(csv_grids(kind, rows))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(rows, p)) * 10.0 ** rng.integers(-320, 300, size=(rows, p))
    values.flat[0] = -0.0
    metadata = {"model": "m", "d": grid.d, "p": p, "L": 1, "seed": 0, "degrees": "finite:1",
                "profile_error_bound": 0.0, "degree_sum": 0, "degree_max": 0,
                "profile_methods": {"affine": 1}}
    stream = io.StringIO()
    cli.write_realization(stream, grid, kind, Realization(grid.points, values, metadata))
    lines = stream.getvalue().splitlines(keepends=True)
    header = sum(line.startswith("#") for line in lines)
    assert lines[header] == ",".join(grid.coord_names + [f"z{i + 1}" for i in range(p)]) + "\n"
    table = np.column_stack([grid.coords, values])
    # compared as lists of rows: a failure names the first differing row
    # without diffing megabytes of text
    assert lines[header + 1:] == [",".join("%.17g" % v for v in row) + "\n"
                                  for row in table.tolist()]


# ------------------------------------------------------------------- failures

def test_unknown_flag_exits_one(capsys):
    assert main(["simulate", "--nonsense"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1  # single-line diagnostic


def test_invalid_parameter_exits_one(tmp_path, capsys):
    code = main([
        "simulate", "--model", "nb", "--delta", "1.0",
        "--degree-dist", "geometric:0.1", "--L", "5",
        "--grid", "latlon:2x2", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1
    assert "(0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("command, flags", [("simulate", ["--out", "x.csv"]),
                                            ("validate", ["--M", "4"])])
def test_degree_beyond_int64_exits_one(tmp_path, monkeypatch, capsys, command, flags):
    # geometric:1e-300 draws degrees near 1e300, which have no int64: a
    # one-line diagnostic naming the law, no traceback and no warning
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--model", "nb", "--delta", "0.5", "--degree-dist",
                     "geometric:1e-300", "--L", "5", "--grid", "latlon:2x3", *flags])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("turnarcs: invalid parameter: degree law geometric:1e-300 "
                            "drew a degree beyond int64\n")


@pytest.mark.parametrize("argv, flag", [
    (["validate", "--model", "nb", "--delta", "0.5", "--max-pairs", "0"], "--max-pairs"),
    (["validate", "--model", "nb", "--delta", "0.5", "--bins", "0"], "--bins"),
    (["coeffs", "--model", "nb", "--delta", "0.5", "--n-max", "-1"], "--n-max"),
    (["mu3", "--model", "nb", "--delta", "0.5", "--n-max", "-2"], "--n-max"),
    # numpy's default_rng used to reject it after the grid and model were built
    (["validate", "--model", "nb", "--delta", "0.5", "--seed", "-1"], "--seed"),
    # mu3 used to report L = 0 and exit 0
    (["simulate", "--model", "nb", "--delta", "0.5", "--L", "0"], "--L"),
    (["validate", "--model", "nb", "--delta", "0.5", "--L", "0"], "--L"),
    (["mu3", "--model", "nb", "--delta", "0.5", "--degree-dist", "geometric:0.9", "--L", "0"],
     "--L"),
])
def test_out_of_range_count_flag_exits_one(argv, flag, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least" in captured.err


USAGE_ERRORS = [
    (["--model", "nb"], "--delta is required for this model"),
    (["--model", "nb", "--delta", "0.5,0.6"], "--delta takes one value here, got 2"),
    (["--model", "nb", "--p", "2", "--delta", "0.5", "--rho", "0.1"],
     "--delta needs three values (11, 12, 22), got 1"),
    (["--model", "sm", "--alpha", "1"], "--nu is required for this model"),
    (["--model", "sm", "--nu", "0.75"], "--alpha is required for this model"),
    (["--model", "sm", "--alpha", "1", "--p", "2", "--nu", "1,2", "--rho", "0.1"],
     "--nu needs three values (11, 12, 22), got 2"),
    (["--model", "f", "--alpha", "1", "--nu", "3"], "--tau is required for this model"),
    (["--model", "f", "--alpha", "1", "--nu", "3", "--tau", "1,2"],
     "--tau takes one value here, got 2"),
    (["--model", "exponential"], "--nu is required for this model"),
    (["--model", "nb", "--p", "2", "--delta", "0.2,0.2,0.7"],
     "--rho is required for bivariate models"),
    (["--model", "sm", "--p", "2", "--alpha", "1", "--nu", "2,1.375,0.75"],
     "--rho is required for bivariate models"),
    (["--model", "f", "--p", "2", "--alpha", "1", "--nu", "3", "--tau", "1"],
     "the generalized-F model is univariate"),
    (["--model", "chentsov", "--p", "2"], "the chentsov model is univariate"),
    (["--model", "exponential", "--p", "2", "--nu", "1"], "the exponential model is univariate"),
    (["--model", "sequence", "--p", "2", "--coeffs", "1,2"],
     "sequence models are univariate on the CLI"),
    (["--model", "nb", "--p", "3", "--delta", "0.5"],
     "p must be 1 or 2 (matrix models can be supplied via the library)"),
    (["--model", "sequence"], "--coeffs is required for sequence models"),
    (["--model", "nb", "--delta", "0.1,x"], "expected comma-separated numbers, got '0.1,x'"),
]


@pytest.mark.parametrize("argv, message", [
    *((["recommend", *flags], message) for flags, message in USAGE_ERRORS),
    (["mu3", "--model", "nb", "--delta", "0.5", "--degree-dist", "zeta:abc"],
     "malformed degree law 'zeta:abc': could not convert string to float: 'abc'"),
    (["mu3", "--model", "nb", "--delta", "0.5", "--degree-dist", "poisson:1"],
     "unknown degree law 'poisson:1' (expected geometric:P, zeta:T, oddzeta:T, finite:P0,P1,...)"),
    (["coeffs", "--model", "nb", "--p", "2", "--delta", "0.2,0.2,0.7", "--rho", "0.6",
      "--n-max", "3"], "coefficient dumps are defined for univariate models"),
    (["validate", "--model", "nb", "--d", "3", "--delta", "0.5", "--grid", "latlon:2x2"],
     "grid is on the 2-sphere but the model has d=3"),
    (["recommend", "--model", "nb", "--p", "2", "--rho", "0.6"],
     "--delta is required for this model"),
])
def test_usage_error_exits_one_naming_the_flag_or_value(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"turnarcs: usage error: {message}\n"


NU_BOUND = ("turnarcs: nu must exceed (d-2)/2 = 0.5 for the coefficient series to converge, "
            "got nu = 0.25\n")


@pytest.mark.parametrize("command, flags, message", [
    pytest.param("simulate", ["--out", "x.csv"], NU_BOUND, id="simulate-flags0"),
    pytest.param("validate", ["--M", "4"], NU_BOUND, id="validate-flags1"),
    # just inside the bound the model builds, but its covariance series
    # cannot be summed: validate sums it before the ensemble
    pytest.param("validate", ["--nu", "0.75", "--L", "50", "--M", "20",
                              "--grid", "section:3:8x16"],
                 "turnarcs: covariance series truncation did not converge\n",
                 id="validate-near-bound"),
])
def test_divergent_sm_series_exits_one_before_any_wave(tmp_path, monkeypatch, capsys,
                                                       command, flags, message):
    # nu = 0.25 <= (d-2)/2 on the 3-sphere: the variance series diverges,
    # and simulate used to write a field of infinite variance
    def unreachable(*args, **kwargs):
        raise AssertionError("a wave was drawn")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "simulate", unreachable)
    monkeypatch.setattr(cli, "simulate_ensemble", unreachable)
    code = main([command, "--model", "sm", "--d", "3", "--alpha", "1", "--nu", "0.25",
                 "--degree-dist", "zeta:2", "--L", "10", "--grid", "section:3:2x4", *flags])
    assert code == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("npts, max_pairs, seed", [
    (1, 1, 0), (1, 20_000, 3), (2, 3, 0), (5, 15, 1), (5, 14, 1), (8, 1, 2), (40, 100, 7),
    (128, 20_000, 0), (300, 2000, 11), (301, 45_150, 5),
])
def test_validate_pairs_are_the_subsampled_upper_triangle(npts, max_pairs, seed):
    # the pairs are drawn as flat upper-triangle indices, with the draw the
    # all-pairs array used to be subsampled by
    pairs = np.column_stack(np.triu_indices(npts))
    if pairs.shape[0] > max_pairs:
        keep = np.random.default_rng(seed).choice(pairs.shape[0], size=max_pairs, replace=False)
        pairs = pairs[np.sort(keep)]
    got = cli._pair_indices(npts, max_pairs, seed)
    assert got.dtype == pairs.dtype
    assert_array_equal(got, pairs)


def test_grid_model_dimension_mismatch(tmp_path):
    code = main([
        "simulate", "--model", "nb", "--d", "3", "--delta", "0.5",
        "--degree-dist", "geometric:0.1", "--L", "5",
        "--grid", "latlon:2x2", "--out", str(tmp_path / "x.csv"),
    ])
    assert code == 1


def test_unwritable_output_exits_three(tmp_path):
    code = main(SIM_ARGS + ["--out", str(tmp_path / "no" / "dir" / "x.csv")])
    assert code == 3


VALIDATE_ARGS = ["validate", "--model", "nb", "--delta", "0.5",
                 "--degree-dist", "geometric:0.1", "--L", "5", "--M", "4"]
# each subcommand that writes --out after evaluating waves, with its wave entry
WAVE_RUNS = pytest.mark.parametrize("argv, entry", [
    (SIM_ARGS, "simulate"), (VALIDATE_ARGS, "simulate_ensemble"),
], ids=["simulate", "validate"])


@WAVE_RUNS
def test_unwritable_output_fails_before_any_wave(tmp_path, monkeypatch, argv, entry):
    calls = []
    monkeypatch.setattr(cli, entry, lambda *args, **kwargs: calls.append(args))
    assert main(argv + ["--out", str(tmp_path / "no" / "dir" / "x.csv")]) == 3
    assert calls == []


@WAVE_RUNS
def test_failed_run_leaves_output_as_it_was(tmp_path, monkeypatch, argv, entry):
    # exit 1 after the output check: no new file, and an existing one keeps
    # its bytes
    def fail(*args, **kwargs):
        raise simulator.SimulationError("no waves today")

    monkeypatch.setattr(cli, entry, fail)
    new = tmp_path / "new.csv"
    assert main(argv + ["--out", str(new)]) == 1
    assert not new.exists()
    old = tmp_path / "old.csv"
    old.write_bytes(b"earlier output\n")
    assert main(argv + ["--out", str(old)]) == 1
    assert old.read_bytes() == b"earlier output\n"


# -------------------------------------------------- published example blocks

def test_example_blocks_run_scaled_down(tmp_path):
    # each published configuration is a single CLI invocation; run them at
    # desk scale to keep the suite quick
    ex1 = main([
        "simulate", "--model", "nb", "--p", "2", "--d", "2",
        "--delta", "0.2,0.2,0.7", "--rho", "0.6",
        "--degree-dist", "geometric:0.01", "--L", "15", "--seed", "1",
        "--grid", "latlon:10x10", "--out", str(tmp_path / "ex1.csv"),
    ])
    assert ex1 == 0

    ex3 = main([
        "simulate", "--model", "f", "--d", "3",
        "--alpha", "1", "--nu", "3.5", "--tau", "2",
        "--degree-dist", "zeta:2", "--L", "15", "--seed", "3",
        "--grid", "slice3:0.75:10x10", "--out", str(tmp_path / "ex3.csv"),
    ])
    assert ex3 == 0

    ex4 = main([
        "simulate", "--model", "chentsov", "--d", "256",
        "--degree-dist", "oddzeta:2", "--L", "15", "--seed", "4",
        "--grid", "section:256:10x10", "--out", str(tmp_path / "ex4.csv"),
    ])
    assert ex4 == 0


def test_example2_as_printed_fails_on_indefinite_matrix(tmp_path, capsys):
    # the printed cross parameters break positive semidefiniteness from
    # degree 2 on; with a zeta law the simulation is certain to hit such a
    # degree and must stop with a model error naming it
    code = main([
        "simulate", "--model", "sm", "--p", "2", "--d", "2",
        "--alpha", "1", "--nu", "2,0.75,0.75", "--rho", "-0.6",
        "--allow-unverified-cross", "--degree-dist", "zeta:2",
        "--L", "50", "--seed", "2", "--grid", "latlon:4x4",
        "--out", str(tmp_path / "ex2.csv"),
    ])
    assert code == 1
    assert "not positive semidefinite" in capsys.readouterr().err


def test_example2_valid_variant_runs(tmp_path):
    code = main([
        "simulate", "--model", "sm", "--p", "2", "--d", "2",
        "--alpha", "1", "--nu", "2,1.375,0.75", "--rho", "-0.6",
        "--degree-dist", "zeta:2", "--L", "15", "--seed", "2",
        "--grid", "latlon:6x6", "--out", str(tmp_path / "ex2v.csv"),
    ])
    assert code == 0


def test_cli_import_leaves_out_scipy_integrate():
    # only the spectral-Matern normalizer integrates, and scipy.integrate is
    # about a third of the CLI's import time
    probe = "import sys, turnarcs.cli; print('scipy.integrate' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, timeout=120)
    assert result.stdout.strip() == "False"


def test_examples_script_is_shipped():
    from pathlib import Path

    script = Path(__file__).resolve().parents[1] / "scripts" / "examples.sh"
    text = script.read_text()
    assert text.count("turnarcs simulate") >= 4
