import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy import special

import quadform as qf
from quadform import cli, ratio, select
from quadform.cli import main, parse_document


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def docs(tmp_path):
    paths = {}

    def write(name, payload):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        paths[name] = str(p)

    write("chisq2.json", {"kind": "reduced", "omega": [1.0], "nu": [2],
                          "delta2": [0.0], "sigma": 0.0, "const": 0.0})
    write("example1.json", {
        "kind": "raw",
        "a": (np.array([[-1, -1, 1, -1], [-1, -1, -1, 1], [1, -1, 1, 1],
                        [-1, 1, 1, 1]]) / 2.0).tolist(),
        "b": [0, 0, 0, 0], "c": 0.0, "mu": [0, 1, 0, 1],
        "sigma_mat": (np.array([[5, 5, 3, 3], [5, 5, 3, 3], [3, 3, 9, 1],
                                [3, 3, 1, 9]]) / 4.0).tolist(),
    })
    write("beta.json", {"kind": "ratio", "a": [[1, 0], [0, 0]],
                        "b": [[1, 0], [0, 1]], "mu": [0, 0],
                        "sigma_mat": [[1, 0], [0, 1]]})
    write("complex.json", {
        "kind": "raw_complex",
        "a": [[[1, 0], [0, -1]], [[0, 1], [1, 0]]],
        "b": [[1, 0], [1, 0]], "c": 0.0,
        "mu": [[1, 0], [1, 1]],
        "sigma_mat": [[[10, 0], [0, -6]], [[0, 6], [10, 0]]],
    })
    write("gauss_only.json", {"kind": "reduced", "omega": [], "nu": [],
                              "delta2": [], "sigma": 0.0, "const": 0.0})
    return paths


class TestCommands:
    def test_reduce_paper_example(self, capsys, docs):
        code, out, _ = run_cli(capsys, "reduce", docs["example1.json"])
        assert code == 0
        payload = json.loads(out)
        assert np.allclose(sorted(payload["omega"]), [-2.0, 2.0], atol=1e-9)
        assert np.allclose(payload["delta2"], [0.125, 0.125], atol=1e-9)
        assert abs(payload["sigma"] - 2.0) < 1e-9
        assert abs(payload["const"] - 1.0) < 1e-9
        assert payload["classification"]["definiteness"] == "indefinite"

    def test_reduce_complex(self, capsys, docs):
        code, out, _ = run_cli(capsys, "reduce", docs["complex.json"])
        assert code == 0
        payload = json.loads(out)
        assert np.allclose(payload["omega"], [16.0], atol=1e-9)
        assert payload["nu"] == [2]
        assert abs(payload["delta2"][0] - 53 / 128) < 1e-9

    def test_cdf_value(self, capsys, docs):
        code, out, _ = run_cli(capsys, "cdf", "--q", "2", docs["chisq2.json"])
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - (1 - math.exp(-1))) < 1e-9
        assert payload["method"] == "central_even"
        assert payload["error_bound"] == 0.0

    def test_quantile(self, capsys, docs):
        code, out, _ = run_cli(capsys, "quantile", "--p", "0.5", docs["chisq2.json"])
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["value"] - 2 * math.log(2)) < 1e-7

    @pytest.mark.parametrize("doc", [
        {"kind": "reduced", "omega": [1.0], "nu": [2], "delta2": [0.0]},
        {"kind": "reduced", "omega": [1.0, -0.6], "nu": [1, 3], "delta2": [0.5, 0.0]},
    ])
    def test_quantile_equals_library(self, capsys, tmp_path, doc):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "quantile", "--p", "0.3", str(path))
        assert code == 0
        assert json.loads(out)["value"] == qf.quantile(parse_document(doc), 0.3)

    def test_quantile_reports_its_search(self, capsys, tmp_path, monkeypatch):
        """cdf_at_value, its bound and method are the search's own evaluation
        at the printed value; cdf_calls counts the search's CDF calls."""
        path = tmp_path / "form.json"
        path.write_text(json.dumps({"kind": "reduced", "omega": [1.0, -0.6, 0.4],
                                    "nu": [2, 3, 2], "delta2": [0.3, 0.0, 0.5]}))
        real, seen = select.cdf, {}

        def recorded(red, q, *args, **kwargs):
            seen[q] = real(red, q, *args, **kwargs)
            return seen[q]

        monkeypatch.setattr(select, "cdf", recorded)
        code, out, _ = run_cli(capsys, "quantile", "--p", "0.9", "--tol", "1e-6", str(path))
        payload = json.loads(out)
        assert code == 0 and payload["cdf_calls"] == len(seen)
        res = seen[payload["value"]]
        assert (payload["cdf_at_value"], payload["cdf_error_bound"], payload["method"]) == (
            res.value, res.error_bound, res.method)
        assert abs(res.value - 0.9) <= 1e-9

    @pytest.mark.parametrize("method", ["imhof", "davies", "auto"])
    def test_ratio_cdf_equals_library(self, capsys, tmp_path, method):
        # F(3, 5): x'Ax / x'Bx with A, B disjoint scaled identities
        a, b = np.diag([1 / 3] * 3 + [0.0] * 5), np.diag([0.0] * 3 + [0.2] * 5)
        spec = qf.RatioSpec(a, b, np.zeros(8), np.eye(8))
        path = tmp_path / "f35.json"
        path.write_text(json.dumps({"kind": "ratio", "a": a.tolist(), "b": b.tolist(),
                                    "mu": [0.0] * 8, "sigma_mat": np.eye(8).tolist()}))
        code, out, _ = run_cli(capsys, "ratio-cdf", "--r", "1.3", "--method", method,
                               str(path))
        assert code == 0
        res = qf.cdf_ratio(spec, 1.3, method=method)
        payload = json.loads(out)
        assert (payload["value"], payload["error_bound"], payload["method"]) == \
            (res.value, res.error_bound, res.method)

    def test_ratio_cdf_takes_every_cdf_method(self, capsys, docs):
        code, out, _ = run_cli(capsys, "ratio-cdf", "--r", "0.3", "--method", "spa_lr",
                               docs["beta.json"])
        assert code == 0
        assert json.loads(out)["method"] == "ratio_spa_lr"

    @pytest.mark.parametrize("method", ["series", "integral"])
    def test_ratio_moment(self, capsys, docs, method):
        code, out, _ = run_cli(capsys, "ratio-moment", "--p", "1", "--ratio-method",
                               method, docs["beta.json"])
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["value"] - 0.5) < 1e-8
        assert payload["method"] == {"series": "bao_kan_series",
                                     "integral": "magnus_integral"}[method]

    def test_ratio_pdf_grid(self, capsys, docs):
        code, out, _ = run_cli(capsys, "ratio-pdf", "--grid", "0.1:0.9:5",
                               docs["beta.json"])
        assert code == 0
        grid = json.loads(out)
        for r, value in zip(grid["grid"], grid["values"]):
            code, out, _ = run_cli(capsys, "ratio-pdf", "--r", repr(r), docs["beta.json"])
            assert code == 0
            assert abs(json.loads(out)["value"] - value) <= 1e-12 * abs(value)
        code, out, _ = run_cli(capsys, "ratio-cdf", "--grid", "0.1:0.9:5",
                               docs["beta.json"])
        assert code == 0
        assert sorted(json.loads(out)) == sorted(grid)
        assert len(grid["values"]) == 5

    def test_grid_reuses_reduction(self, capsys, docs):
        code, out, _ = run_cli(capsys, "cdf", "--grid", "0:4:5", docs["chisq2.json"])
        payload = json.loads(out)
        assert code == 0
        assert payload["grid"] == [0.0, 1.0, 2.0, 3.0, 4.0]
        expect = [0.0] + [1 - math.exp(-q / 2) for q in (1.0, 2.0, 3.0, 4.0)]
        assert np.allclose(payload["values"], expect, atol=1e-12)

    def test_moments_and_cumulants(self, capsys, docs):
        code, out, _ = run_cli(capsys, "moments", "--order", "2", docs["chisq2.json"])
        assert json.loads(out)["values"] == [2.0, 8.0]
        code, out, _ = run_cli(capsys, "cumulants", "--order", "3", docs["chisq2.json"])
        assert json.loads(out)["values"] == [2.0, 4.0, 16.0]

    def test_mc_check(self, capsys, docs):
        code, out, _ = run_cli(capsys, "mc-check", "--q", "2", "--n", "200000",
                               "--seed", "11", docs["chisq2.json"])
        payload = json.loads(out)
        assert code == 0
        assert abs(payload["z_score"]) < 4.0
        assert payload["seed"] == 11

    def test_byte_identical_output(self, capsys, docs):
        _, out1, _ = run_cli(capsys, "cdf", "--q", "1.3", "--method", "davies",
                             "--tol", "1e-6", docs["chisq2.json"])
        _, out2, _ = run_cli(capsys, "cdf", "--q", "1.3", "--method", "davies",
                             "--tol", "1e-6", docs["chisq2.json"])
        assert out1 == out2

    def test_pretty_renders(self, capsys, docs):
        code, out, _ = run_cli(capsys, "cdf", "--q", "2", "--pretty",
                               docs["chisq2.json"])
        assert code == 0
        assert "value" in out and "{" not in out


class TestParserBuiltOnce:
    def test_one_build_across_calls(self, capsys, docs):
        cli.build_parser.cache_clear()
        for argv in (("cdf", "--q", "2"), ("pdf", "--q", "2"), ("quantile", "--p", "0.5")):
            assert run_cli(capsys, *argv, docs["chisq2.json"])[0] == 0
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_document_settings_do_not_leak(self, capsys, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps({**CHI2_DOC, "tol": 1e-3, "method": "davies"}))
        second.write_text(json.dumps(CHI2_DOC))
        for path, want in ((first, (1e-3, "davies")), (second, (1e-8, "central_even")),
                           (first, (1e-3, "davies"))):
            payload = json.loads(run_cli(capsys, "cdf", "--q", "2", str(path))[1])
            assert (payload["tol"], payload["method"]) == want

    def test_back_to_back_output_equals_fresh(self, capsys, docs):
        runs = [("cdf", "--grid=0:6:7", docs["chisq2.json"]),
                ("quantile", "--p", "0.9", "--tol", "1e-6", docs["example1.json"]),
                ("pdf", "--q", "1.5", "--pretty", docs["chisq2.json"]),
                ("reduce", docs["example1.json"])]
        back_to_back = [run_cli(capsys, *argv) for argv in runs]
        for argv, out in zip(runs, back_to_back):
            cli.build_parser.cache_clear()
            assert run_cli(capsys, *argv) == out


CHI2_DOC = {"kind": "reduced", "omega": [1.0], "nu": [2], "delta2": [0.0]}
BETA_DOC = {"kind": "ratio", "a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]], "mu": [0, 0],
            "sigma_mat": [[1, 0], [0, 1]]}
# every command that takes --tol, with the arguments it needs
TOL_COMMANDS = {
    "cdf": (CHI2_DOC, ("--q", "2")),
    "pdf": (CHI2_DOC, ("--q", "2")),
    "quantile": (CHI2_DOC, ("--p", "0.5")),
    "ratio-cdf": (BETA_DOC, ("--r", "0.3")),
    "ratio-moment": (BETA_DOC, ("--p", "1")),
    "mc-check": (CHI2_DOC, ("--q", "2", "--n", "1000")),
}


def exit_code(capsys, argv):
    """main's exit code, whether it returns it or argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    return code


class TestDocumentDefaults:
    def test_document_defaults_apply_without_flags(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**CHI2_DOC, "tol": 1e-3, "method": "davies"}))
        code, out, _ = run_cli(capsys, "cdf", "--q", "2", str(path))
        assert code == 0
        payload = json.loads(out)
        assert (payload["tol"], payload["method"]) == (1e-3, "davies")

    @pytest.mark.parametrize("flag,doc_key,doc_value,field,want", [
        ("--tol", "tol", 1e-3, "tol", 1e-8),
        ("--method", "method", "davies", "method", "central_even"),
    ])
    def test_explicit_flag_at_its_default_wins(self, capsys, tmp_path, flag, doc_key,
                                               doc_value, field, want):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({**CHI2_DOC, doc_key: doc_value}))
        value = {"--tol": "1e-8", "--method": "auto"}[flag]
        code, out, _ = run_cli(capsys, "cdf", "--q", "2", flag, value, str(path))
        assert code == 0
        assert json.loads(out)[field] == want

    @pytest.mark.parametrize("command,where,tol", [
        *((c, "flag", "0") for c in TOL_COMMANDS),
        *((c, "document", "abc") for c in TOL_COMMANDS),
        ("cdf", "flag", "-1"), ("cdf", "flag", "nan"), ("cdf", "flag", "inf"),
        ("cdf", "document", -1e-3), ("cdf", "document", math.inf), ("cdf", "document", None),
    ])
    def test_bad_tol_is_invalid_input(self, capsys, tmp_path, command, where, tol):
        doc, argv = TOL_COMMANDS[command]
        if where == "document":
            doc = {**doc, "tol": tol}
        else:
            argv = (*argv, "--tol", tol)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert exit_code(capsys, [command, *argv, str(path)]) == 2


class TestDensityMethods:
    """pdf's --method takes the density's names (select.PDF_METHODS), so the
    method a density result prints can be passed back."""

    GAUSS = {"kind": "reduced", "omega": [1.0, -0.5], "nu": [2, 1], "delta2": [0.0, 0.5],
             "sigma": 1.0}

    def test_pdf_methods(self):
        assert select.PDF_METHODS == ("auto", "central_even", "ruben", "kotz", "laguerre",
                                      "imhof", "spa", "spa_lr")

    @pytest.mark.parametrize("q", ["1", "-3", "12"])
    def test_printed_method_passes_back(self, capsys, tmp_path, q):
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(self.GAUSS))
        code, out, _ = run_cli(capsys, "pdf", "--q", q, str(path))
        assert code == 0
        auto = json.loads(out)
        code, out, _ = run_cli(capsys, "pdf", "--q", q, "--method", auto["method"], str(path))
        assert code == 0
        assert json.loads(out)["value"] == auto["value"]

    def test_spa(self, capsys, tmp_path):
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(self.GAUSS))
        code, out, _ = run_cli(capsys, "pdf", "--q", "1", "--method", "spa", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "spa" and payload["provenance"] == "approximate"
        path.write_text(json.dumps({**self.GAUSS, "method": "spa"}))
        code, out, _ = run_cli(capsys, "pdf", "--q", "1", str(path))
        assert code == 0 and json.loads(out)["method"] == "spa"

    @pytest.mark.parametrize("argv", [("pdf", "--method", "davies"),
                                      ("pdf", "--method", "spa_bn"),
                                      ("cdf", "--method", "spa")])
    def test_other_quantity_method_is_an_argparse_error(self, capsys, tmp_path, argv):
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps(self.GAUSS))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--q", "1", str(path)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_document_method_is_checked_per_quantity(self, capsys, tmp_path):
        path = tmp_path / "gauss.json"
        path.write_text(json.dumps({**self.GAUSS, "method": "davies"}))
        code, _, err = run_cli(capsys, "pdf", "--q", "1", str(path))
        assert code == 2 and "unknown document method" in err
        code, out, _ = run_cli(capsys, "cdf", "--q", "1", str(path))
        assert code == 0 and json.loads(out)["method"] == "davies"


class TestExitCodes:
    def test_invalid_input(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "nope"}')
        code, _, err = run_cli(capsys, "cdf", "--q", "1", str(p))
        assert code == 2 and "kind" in err

    def test_not_applicable(self, capsys, docs):
        code, _, err = run_cli(capsys, "cdf", "--q", "1", "--method",
                               "central_even", docs["example1.json"])
        assert code == 4 and "sigma" in err

    def test_convergence_failure(self, capsys, docs):
        # chi-square with one dof cannot honestly certify 1e-12 by lattice
        doc = {"kind": "reduced", "omega": [1.0], "nu": [1], "delta2": [0.0]}
        p = json.dumps(doc)
        import tempfile, os
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            fh.write(p)
            name = fh.name
        try:
            code, out, err = run_cli(capsys, "cdf", "--q", "1.0", "--method",
                                     "davies", "--tol", "1e-12", name)
        finally:
            os.unlink(name)
        assert code == 3
        assert "davies" in err

    @pytest.mark.parametrize("argv", [
        ("cdf", "--q", "1", "--seed", "1"),
        ("pdf", "--q", "1", "--max-terms", "10"),
        ("quantile", "--p", "0.5", "--quadrature-tol", "1e-9"),
        ("reduce", "--tol", "1e-6"),
        ("moments", "--tol", "1e-6"),
        ("ratio-pdf", "--r", "0.3", "--tol", "1e-6"),
        ("ratio-moment", "--p", "1", "--quadrature-tol", "1e-9"),
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, docs, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, docs["chisq2.json"]])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_ratio_method(self, capsys, docs):
        with pytest.raises(SystemExit) as exc:
            main(["ratio-moment", "--p", "1", "--ratio-method", "laplace",
                  docs["beta.json"]])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_ratio_density_names_itself_when_it_refuses(self, capsys, tmp_path):
        # mu outside the range of a singular Sigma
        path = tmp_path / "singular.json"
        path.write_text(json.dumps({
            "kind": "ratio", "a": [[0.4, 0.3, -0.2], [0.3, -0.6, 0.5], [-0.2, 0.5, 0.1]],
            "b": [[1, 0.2, 0], [0.2, 0.8, 0.1], [0, 0.1, 0.5]], "mu": [0.2, -0.1, 0.5],
            "sigma_mat": [[1, 0, 0], [0, 2, 0], [0, 0, 0]]}))
        code, _, err = run_cli(capsys, "ratio-pdf", "--r", "0.1", str(path))
        assert code == 2 and "saddlepoint density" in err
        code, _, err = run_cli(capsys, "ratio-moment", "--p", "1", str(path))
        assert code == 2 and "moment methods" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "cdf", "--q", "1", "/nonexistent.json")
        assert code == 2

    def test_degenerate_reduce_reports_constant(self, capsys, tmp_path):
        doc = {"kind": "raw", "a": [[1, 0], [0, 0]], "b": [0, 0], "c": 0.0,
               "mu": [1, 1], "sigma_mat": [[0, 0], [0, 1]]}
        p = tmp_path / "deg.json"
        p.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "reduce", str(p))
        assert code == 0
        payload = json.loads(out)
        assert payload == {"kind": "constant", "value": 1.0}


class TestNonFinitePoints:
    """A NaN point is invalid input (exit 2, one error line); an infinite
    ratio point has the exact CDF 1 or 0 and density 0."""

    FORMS = {
        "definite": {"kind": "reduced", "omega": [1.5, 0.7, 0.3], "nu": [1, 2, 3],
                     "delta2": [0.5, 0.0, 1.2]},
        "indefinite": {"kind": "reduced", "omega": [1.0, -0.6, 0.4], "nu": [2, 3, 2],
                       "delta2": [0.3, 0.0, 0.5]},
        "gaussian": {"kind": "reduced", "omega": [1.0, -0.5], "nu": [2, 1],
                     "delta2": [0.0, 0.5], "sigma": 1.0},
    }

    @staticmethod
    def _path(tmp_path, doc):
        path = tmp_path / "form.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @staticmethod
    def _rejected(capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "NaN" in err and "Traceback" not in err

    @pytest.mark.parametrize("form", list(FORMS))
    @pytest.mark.parametrize("argv", [("cdf", "--q", "nan"), ("pdf", "--q", "nan"),
                                      ("cdf", "--grid=nan:1:3"), ("pdf", "--grid=0:nan:5")])
    def test_nan_point(self, capsys, tmp_path, form, argv):
        self._rejected(capsys, *argv, self._path(tmp_path, self.FORMS[form]))

    @pytest.mark.parametrize("method", ["imhof", "davies", "spa_lr", "ruben", "satterthwaite"])
    def test_nan_point_every_method(self, capsys, tmp_path, method):
        path = self._path(tmp_path, self.FORMS["indefinite"])
        self._rejected(capsys, "cdf", "--q", "nan", "--method", method, path)
        with pytest.raises(qf.InvalidInputError, match="NaN"):
            select.cdf(parse_document(self.FORMS["indefinite"]), np.array([0.0, math.nan]),
                       method)

    @pytest.mark.parametrize("argv", [("ratio-cdf", "--r", "nan"), ("ratio-pdf", "--r", "nan"),
                                      ("ratio-cdf", "--grid=0:nan:3"),
                                      ("ratio-pdf", "--grid=nan:1:3")])
    def test_nan_ratio_point(self, capsys, docs, argv):
        self._rejected(capsys, *argv, docs["beta.json"])

    @pytest.mark.parametrize("argv,value", [(("ratio-cdf", "--r", "inf"), 1.0),
                                            (("ratio-cdf", "--r=-inf"), 0.0),
                                            (("ratio-pdf", "--r", "inf"), 0.0),
                                            (("ratio-pdf", "--r=-inf"), 0.0)])
    def test_infinite_ratio_point(self, capsys, docs, argv, value):
        code, out, _ = run_cli(capsys, *argv, docs["beta.json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == value and payload["provenance"] == "exact"
        assert payload["error_bound"] == 0.0

    @pytest.mark.parametrize("argv,form,value", [
        (("pdf", "--q", "inf", "--method", "imhof"), "indefinite", 0.0),
        (("cdf", "--q=-inf", "--method", "imhof"), "indefinite", 0.0),
        (("cdf", "--q", "inf", "--method", "davies"), "gaussian", 1.0),
        (("cdf", "--q", "inf", "--method", "central_even"), "central_even", 1.0),
        (("pdf", "--q", "inf", "--method", "central_even"), "central_even", 0.0),
        (("cdf", "--q", "inf", "--method", "ruben"), "definite", 1.0),
        (("pdf", "--q", "inf", "--method", "ruben"), "definite", 0.0),
        # the saddlepoint CDF, the saddlepoint density (pdf's spa_lr, also
        # named spa) and moment matching
        (("cdf", "--q", "inf", "--method", "spa_lr"), "indefinite", 1.0),
        (("cdf", "--q=-inf", "--method", "spa_lr"), "indefinite", 0.0),
        (("pdf", "--q", "inf", "--method", "spa_lr"), "indefinite", 0.0),
        (("pdf", "--q=-inf", "--method", "spa_lr"), "gaussian", 0.0),
        (("cdf", "--q", "inf", "--method", "satterthwaite"), "definite", 1.0),
        (("cdf", "--q=-inf", "--method", "satterthwaite"), "definite", 0.0)])
    def test_infinite_point_named_method(self, capsys, tmp_path, argv, form, value):
        doc = dict(self.FORMS.get(form, {"kind": "reduced", "omega": [1.5, -0.7],
                                         "nu": [2, 4], "delta2": [0.0, 0.0]}))
        code, out, _ = run_cli(capsys, *argv, self._path(tmp_path, doc))
        assert code == 0
        payload = json.loads(out)
        assert (payload["value"], payload["provenance"], payload["error_bound"]) == (
            value, "exact", 0.0)

    def test_infinite_ratio_points_in_a_density_grid(self, capsys, docs):
        spec = parse_document(json.loads(open(docs["beta.json"]).read()))
        grid = [-math.inf, 0.2, 0.5, math.inf]
        out = ratio.pdf_ratio_spa(spec, grid)
        assert [r.value for r in (out[0], out[3])] == [0.0, 0.0]
        for r, res in zip(grid[1:3], out[1:3]):
            assert res == ratio.pdf_ratio_spa(spec, r)


def test_quantile_search_failure_exits_3(capsys, tmp_path, monkeypatch):
    """A CDF with no crossing of p gives exit 3 with the search's closest
    evaluation, not a traceback."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps(TestNonFinitePoints.FORMS["indefinite"]))
    monkeypatch.setattr(select, "cdf", lambda red, x, *args, **kwargs: qf.MethodResult(
        0.3, 1e-12, "imhof", "rigorous"))
    code, out, err = run_cli(capsys, "quantile", "--p", "0.9", str(path))
    assert code == 3 and err.startswith("error: quantile search") and "Traceback" not in err
    payload = json.loads(out)
    assert (payload["value"], payload["method"]) == (0.3, "imhof")
    assert math.isfinite(payload["diagnostics"]["q"])


def test_quantile_that_misses_p_exits_3(capsys, tmp_path, monkeypatch):
    """A search that ends more than tol from p (here at a jump of F across
    p) exits 3 with its end point and F there."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps(TestNonFinitePoints.FORMS["indefinite"]))
    monkeypatch.setattr(select, "cdf", lambda red, x, *args, **kwargs: qf.MethodResult(
        0.3 if x < 1.0 else 0.9, 1e-12, "imhof", "rigorous"))
    code, out, err = run_cli(capsys, "quantile", "--p", "0.5", str(path))
    assert code == 3 and err.startswith("error: quantile search") and "tol" in err
    payload = json.loads(out)
    assert payload["value"] in (0.3, 0.9) and payload["method"] == "imhof"
    assert abs(payload["diagnostics"]["q"] - 1.0) <= 1e-9


def test_quantile_on_a_cdf_above_tol_exits_3(capsys, tmp_path, monkeypatch):
    """A search that meets p on a CDF whose bound is above tol exits 3 with
    its end point and F there."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps(TestNonFinitePoints.FORMS["indefinite"]))
    monkeypatch.setattr(select, "cdf", lambda red, x, *args, **kwargs: qf.MethodResult(
        float(special.ndtr(x)), 0.1, "imhof", "rigorous"))
    code, out, err = run_cli(capsys, "quantile", "--p", "0.3", str(path))
    assert code == 3 and err.startswith("error: quantile search") and "bound" in err
    payload = json.loads(out)
    assert abs(payload["value"] - 0.3) <= 1e-9 and payload["error_bound"] == 0.1
    assert abs(payload["diagnostics"]["q"] - special.ndtri(0.3)) <= 1e-6


def test_overflowing_variance(capsys, tmp_path):
    """A form whose variance overflows: no warning, and every command
    answers (exit 0)."""
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"kind": "reduced", "omega": [1e200, -5e199], "nu": [2, 1],
                                "delta2": [0, 0]}))
    for argv in (["cdf", "--q", "0.3"], ["pdf", "--q", "0.3"],
                 ["cdf", "--q", "0.3", "--method", "davies"], ["quantile", "--p", "0.5"],
                 ["quantile", "--p", "0.01"]):
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert (code, err) == (0, ""), argv
        assert math.isfinite(json.loads(out)["value"])


def test_commands_do_not_import_scipy_optimize(tmp_path):
    """No command loads scipy.optimize: the quantile search runs its own
    Brent.  The baseline is taken after scipy.special, which loads it
    itself on some scipy versions."""
    form = tmp_path / "form.json"
    form.write_text(json.dumps(TestNonFinitePoints.FORMS["indefinite"]))
    spec = tmp_path / "ratio.json"
    spec.write_text(json.dumps({"kind": "ratio", "a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]],
                                "mu": [0, 0], "sigma_mat": [[1, 0], [0, 1]]}))
    commands = [["cdf", str(form), "--grid=-8:12:41"], ["quantile", str(form), "--p", "0.9"],
                ["ratio-cdf", str(spec), "--grid=0.05:0.95:19"], ["ratio-pdf", str(spec), "--r=0.5"],
                ["ratio-moment", str(spec), "--p", "1"]]
    code = (
        "import contextlib, io, sys\n"
        "import scipy.special\n"
        "before = set(sys.modules)\n"
        "from quadform import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main(argv) for argv in {commands!r}]\n"
        "print(codes, sorted(m for m in set(sys.modules) - before\n"
        "                    if m == 'scipy.optimize' or m.startswith('scipy.optimize.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0] []"
