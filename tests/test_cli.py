import json
import math

import numpy as np
import pytest

import quadform as qf
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


CHI2_DOC = {"kind": "reduced", "omega": [1.0], "nu": [2], "delta2": [0.0]}
BETA_DOC = {"kind": "ratio", "a": [[1, 0], [0, 0]], "b": [[1, 0], [0, 1]], "mu": [0, 0],
            "sigma_mat": [[1, 0], [0, 1]]}
# every command that takes --tol, with the arguments it needs
TOL_COMMANDS = {
    "cdf": (CHI2_DOC, ("--q", "2")),
    "pdf": (CHI2_DOC, ("--q", "2")),
    "quantile": (CHI2_DOC, ("--p", "0.5")),
    "ratio-cdf": (BETA_DOC, ("--r", "0.3")),
    "ratio-pdf": (BETA_DOC, ("--r", "0.3")),
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
