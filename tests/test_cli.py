"""Tests for the command line front end and SVG output."""

import json
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from elastica_fit.cli import main
from elastica_fit.curve import load_curve, sample
from elastica_fit.elastica import PARAM_NAMES, ElasticaCurve, ElasticaParams
from elastica_fit.fitting import FitProblem, _unit_problem, fit, \
    gradient_hessian, residual_r4
from elastica_fit.recovery import initial_guess
from elastica_fit.svg import render_svg

ARC_ASYM = Path(__file__).resolve().parent.parent / "corpus" / "arc_asym.json"

ELASTICA = ElasticaParams(k=0.8, s0=0.2, ell=3.0, w=1.5, phi=0.7,
                          x0=2.0, y0=-1.0)

S_CURVE = {"bezier": [[[0, 0], [1, 1.2], [2.2, 1.1], [3, 0.2]]]}


@pytest.fixture
def s_curve_file(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(S_CURVE))
    return str(path)


@pytest.fixture
def elastica_file(tmp_path):
    cur = ElasticaCurve(ELASTICA)
    pts = [list(cur.point(t)) for t in np.linspace(0, 1, 513)]
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"polyline": pts}))
    return str(path)


def test_guess_mode_exact_elastica(elastica_file, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main([elastica_file, "--mode", "guess", "--samples", "512",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["residuals"]["R4_init"] <= 1e-4
    assert rep["params"]["k"] == pytest.approx(0.8, abs=1e-3)
    assert rep["inflectional"] is True


def test_guess_grad_norm_scale_free(tmp_path):
    """Guess mode reports grad_norm on the unit-length problem, as fit mode
    does, so a curve and its 10x copy report the same value."""
    norms = []
    for c in (1, 10):
        path = tmp_path / f"s{c}.json"
        pieces = (c * np.array(S_CURVE["bezier"], dtype=float)).tolist()
        path.write_text(json.dumps({"bezier": pieces}))
        out = tmp_path / f"rep{c}.json"
        assert main([str(path), "--mode", "guess", "--samples", "256",
                     "--out", str(out)]) == 0
        norms.append(json.loads(out.read_text())["grad_norm"])
    assert norms[1] == pytest.approx(norms[0], rel=1e-6)


def test_fit_endpoints_gap(s_curve_file, tmp_path):
    out = tmp_path / "rep.json"
    code = main([s_curve_file, "--endpoints", "--samples", "256",
                 "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    p = ElasticaParams(**rep["params"])
    cur = ElasticaCurve(p)
    assert np.linalg.norm(cur.point(0.0) - np.array([0.0, 0.0])) <= 1e-10
    assert np.linalg.norm(cur.point(1.0) - np.array([3.0, 0.2])) <= 1e-10
    assert rep["residuals"]["R4_opt"] <= rep["residuals"]["R4_init"]


def test_malformed_json_no_partial_outputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bezier": nope}')
    out = tmp_path / "rep.json"
    svg = tmp_path / "plot.svg"
    code = main([str(bad), "--out", str(out), "--svg", str(svg)])
    assert code == 2
    assert not out.exists()
    assert not svg.exists()
    assert "error" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path):
    code = main([str(tmp_path / "nope.json")])
    assert code == 2


def test_degenerate_input_exit_code(tmp_path, capsys):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"polyline": [[1, 2], [1, 2], [1, 2]]}))
    assert main([str(path), "--mode", "guess"]) == 3


@pytest.mark.parametrize("mode", ["guess", "fit", "piecewise"])
@pytest.mark.parametrize("n", [2, 5])
def test_coincident_polyline_exit_code(n, mode, tmp_path, capsys):
    """A polyline whose points all coincide keeps two of them, so it is
    sampled and reported as zero length, not as a malformed polyline."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"polyline": [[1.5, -2.0]] * n}))
    assert main([str(path), "--mode", mode, "--samples", "64"]) == 3
    assert "zero length" in capsys.readouterr().err


def test_straight_input_is_line(tmp_path, capsys):
    path = tmp_path / "line.json"
    path.write_text(json.dumps({"polyline": [[0, 0], [1, 0], [2, 0]]}))
    assert main([str(path), "--mode", "guess"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["degenerate"] == "line"
    assert rep["params"]["k"] == 0.0
    assert rep["residuals"]["R4_init"] <= 1e-6


def test_report_determinism(s_curve_file, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["--mode", "guess", "--samples", "256"]
    assert main([s_curve_file, *args, "--out", str(a)]) == 0
    assert main([s_curve_file, *args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _bits(values):
    return [float(v).hex() for v in values]


def test_report_roundtrip_lossless(s_curve_file, tmp_path):
    """The written report parses back to the library's floats bit for
    bit."""
    out = tmp_path / "rep.json"
    main([s_curve_file, "--mode", "guess", "--samples", "256",
          "--out", str(out)])
    rep = json.loads(out.read_text())
    guess = initial_guess(sample(load_curve(s_curve_file), 256))
    assert list(rep["params"]) == list(PARAM_NAMES)
    assert _bits(rep["params"].values()) == _bits(guess.params.as_array())
    assert _bits(rep["residuals"].values()) == _bits(
        [guess.R1, guess.R2, guess.R3, guess.R4, guess.R4])


@pytest.mark.parametrize("mode", ["guess", "fit"])
def test_reversed_input_records(mode, tmp_path):
    """arc_asym is the corpus curve whose guess runs its segment backwards
    (ell < 0): guess and fit mode report initial_guess and fit on the
    samples as given, and the record has no reversed_input key."""
    out = tmp_path / "rep.json"
    assert main([str(ARC_ASYM), "--mode", mode, "--samples", "256",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    smp = sample(load_curve(str(ARC_ASYM)), 256)
    guess = initial_guess(smp)
    assert guess.params.ell < 0
    assert "reversed_input" not in rep
    assert rep["residuals"]["R4_init"] == guess.R4
    if mode == "guess":
        g, _ = gradient_hessian(*_unit_problem(guess.params, smp))
        params, r4 = guess.params, guess.R4
        assert rep["grad_norm"] == float(np.linalg.norm(g))
        assert (rep["iterations"], rep["converged"]) == (0, True)
    else:
        res = fit(FitProblem(target=smp, init=guess.params))
        params, r4 = res.params, residual_r4(res.params, smp)
        assert rep["grad_norm"] == res.grad_norm
        assert (rep["iterations"], rep["converged"]) == (res.iterations,
                                                          True)
    assert _bits(rep["params"].values()) == _bits(params.as_array())
    assert rep["residuals"]["R4_opt"] == pytest.approx(r4, rel=1e-12)


def _scaled_s_curve(tmp_path, scale):
    path = tmp_path / f"s{scale:g}.json"
    pieces = (scale * np.array(S_CURVE["bezier"], dtype=float)).tolist()
    path.write_text(json.dumps({"bezier": pieces}))
    return str(path)


def _fit_r4(path, tmp_path):
    out = tmp_path / "rep.json"
    assert main([path, "--samples", "256", "--out", str(out)]) == 0
    return json.loads(out.read_text())["residuals"]["R4_opt"]


@pytest.mark.parametrize("scale", [1e-120, 1e-100, 1e100, 1e103])
def test_far_scales_fit_as_scale_one(scale, tmp_path):
    """Copies of S_CURVE from 1e-120 to 1e103 fit to the scale-1 R4: it is
    taken on the unit-length problem, and no length is cubed on the way."""
    r4 = _fit_r4(_scaled_s_curve(tmp_path, 1.0), tmp_path)
    assert r4 == pytest.approx(2.0747e-4, rel=1e-4)
    assert _fit_r4(_scaled_s_curve(tmp_path, scale), tmp_path) == \
        pytest.approx(r4, rel=1e-13)


_MODE_ARGS = {"guess": ["--mode", "guess"], "fit": [],
              "tangents": ["--tangents"],
              "piecewise": ["--mode", "piecewise", "--max-iter", "200"]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", list(_MODE_ARGS))
def test_every_mode_at_far_scales(mode, tmp_path):
    """Every mode reports S_CURVE scaled by 1e-300, 1e-200, 1e154 and
    1e300 with the scale-1 R4 and no floating-point warning: sample's
    arithmetic runs on the points scaled to unit extent, and the fit's on
    the unit-length problem."""
    def r4s(scale):
        out = tmp_path / "rep.json"
        assert main([_scaled_s_curve(tmp_path, scale), "--samples", "256",
                     *_MODE_ARGS[mode], "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        return [seg["residuals"]["R4_opt"]
                for seg in rep.get("segments", [rep])]

    ref = r4s(1.0)
    for scale in (1e-300, 1e-200, 1e154, 1e300):
        assert r4s(scale) == pytest.approx(ref, rel=1e-12)


# a curve whose extent (the larger side of its bounding box) is subnormal
# or overflows is outside the numeric range; no numpy warning comes before
# the error that the exit code reports
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("doc", [
    {"bezier": (1e-310 * np.array(S_CURVE["bezier"])).tolist()},
    {"bezier": [[[-1e308, 0], [-0.3e308, 1e307], [0.3e308, 1e307],
                 [1e308, 0]]]},
    {"polyline": [[-1e308, 0], [1e308, 0], [1e308, 1]]}],
    ids=["subnormal", "overflow", "overflow-polyline"])
@pytest.mark.parametrize("mode", ["guess", "fit"])
def test_outside_numeric_range_exit_code(doc, mode, tmp_path, capsys):
    """Beyond the range that fits, the CLI exits 3 with one line."""
    out = tmp_path / "rep.json"
    assert main([json.dumps(doc), "--mode", mode, "--samples", "256",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: outside the numeric range: curve extent ")
    assert err.endswith(" is not a normal double\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_guess_mode_far_below_scale_one(tmp_path):
    """Guess mode reports S_CURVE scaled by 1e-110 with the scale-1
    residuals."""
    out = tmp_path / "rep.json"
    ref = tmp_path / "ref.json"
    for scale, path in ((1e-110, out), (1.0, ref)):
        assert main([_scaled_s_curve(tmp_path, scale), "--mode", "guess",
                     "--samples", "256", "--out", str(path)]) == 0
    got = json.loads(out.read_text())["residuals"]
    want = json.loads(ref.read_text())["residuals"]
    assert got == pytest.approx(want, rel=1e-13)


def test_piecewise_report_schema(tmp_path):
    path = tmp_path / "wavy.json"
    path.write_text(json.dumps({"bezier": [
        [[0, 0], [1, 2.5], [2, -2.5], [3, 0]],
        [[3, 0], [4, 2.5], [5, -0.5], [6, 1.5]],
    ]}))
    out = tmp_path / "rep.json"
    code = main([str(path), "--mode", "piecewise", "--samples", "256",
                 "--r4-threshold", "0.02", "--max-depth", "2",
                 "--max-iter", "200", "--out", str(out)])
    assert code in (0, 4)
    rep = json.loads(out.read_text())
    bps = rep["breakpoints"]
    assert bps[0] == 0.0 and bps[-1] == 1.0
    assert all(a < b for a, b in zip(bps, bps[1:]))
    assert len(rep["segments"]) == len(bps) - 1
    for seg in rep["segments"]:
        assert set(seg["params"]) == {"k", "s0", "ell", "w", "phi",
                                      "x0", "y0"}
        assert set(seg["residuals"]) == {"R1", "R2", "R3", "R4_init",
                                         "R4_opt"}
    for j in rep["join_continuity"]:
        assert j["position_gap"] <= 1e-10


def test_piecewise_without_svg_samples_nothing(s_curve_file, tmp_path,
                                              monkeypatch):
    """Without --svg no overlay is built: the CLI samples the curve only
    inside fit_piecewise."""
    from elastica_fit import cli
    calls = []
    real = cli.sample

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "sample", counted)
    out = tmp_path / "pw.json"
    code = main([s_curve_file, "--mode", "piecewise", "--max-depth", "1",
                 "--samples", "256", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["segments"]
    assert calls == []


def test_svg_output_minimal_subset(s_curve_file, tmp_path):
    svg = tmp_path / "plot.svg"
    code = main([s_curve_file, "--mode", "guess", "--samples", "256",
                 "--svg", str(svg), "--out", str(tmp_path / "r.json")])
    assert code == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert "viewBox" in root.attrib
    children = list(root)
    assert children
    for el in children:
        assert el.tag == "{http://www.w3.org/2000/svg}path"
        assert el.attrib["fill"] == "none"
        assert "stroke" in el.attrib
        assert el.attrib["d"].startswith("M ")


def test_svg_viewbox_margin():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0]])
    doc = render_svg([(pts, "target")])
    root = ET.fromstring(doc)
    x0, y0, w, h = (float(v) for v in root.attrib["viewBox"].split())
    assert x0 == pytest.approx(-0.1)
    assert w == pytest.approx(2.2)
    assert h == pytest.approx(1.2)
    # y axis flipped: top of the box is -(y_max + margin)
    assert y0 == pytest.approx(-1.1)
