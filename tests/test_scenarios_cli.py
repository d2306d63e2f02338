"""Scenario harness and CLI behavior: reports, determinism, exit codes."""

import json

import pytest

from hardylab.cli import main
from hardylab.errors import ParseError
from hardylab.scenarios import SCENARIOS, render_markdown, run_all, run_scenario

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _stripped(report_dict):
    out = dict(report_dict)
    out.pop("runtime_ms")
    return out


class TestScenarioRunner:
    def test_counterexample_report(self):
        rep = run_scenario("counterexample", {"m": 2})
        assert rep.passed
        assert rep.metrics["residual"] >= 0.9
        assert rep.parameters["m"] == 2

    def test_beurling_report(self):
        rep = run_scenario("beurling", {"N": 16})
        assert rep.passed
        assert rep.metrics["distance"] <= 1e-10

    def test_main_defectp_with_overrides(self):
        rep = run_scenario("main_defectp", {"r": 2, "p": 1, "N": 32})
        assert rep.passed
        assert rep.metrics["norm_gap"] <= 1e-6

    def test_unknown_scenario(self):
        with pytest.raises(ParseError):
            run_scenario("nonexistent")

    def test_unknown_parameter(self):
        with pytest.raises(ParseError):
            run_scenario("counterexample", {"bogus": 1})

    def test_all_scenarios_pass(self):
        reports = run_all()
        assert len(reports) == len(SCENARIOS) == 12
        assert [r.scenario_id for r in reports] == list(SCENARIOS)
        assert all(r.passed for r in reports)

    def test_determinism_modulo_runtime(self):
        for sid in ("duality", "section4"):
            a = json.dumps(_stripped(run_scenario(sid).to_dict()), sort_keys=True)
            b = json.dumps(_stripped(run_scenario(sid).to_dict()), sort_keys=True)
            assert a == b

    def test_seed_changes_draws_not_verdict(self):
        a = run_scenario("duality", {"seed": 0})
        b = run_scenario("duality", {"seed": 1})
        assert a.passed and b.passed

    def test_reports_echo_parameters(self):
        rep = run_scenario("lemma_nearly")
        for key in SCENARIOS["lemma_nearly"][1]:
            assert key in rep.parameters

    def test_markdown_table(self):
        text = render_markdown([run_scenario("corollary_almost")])
        assert "corollary_almost" in text and "PASS" in text
        assert text.startswith("| scenario |")


class TestCli:
    def test_scenario_all_json(self, capsys):
        assert main(["scenario", "all", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert len(reports) == 12
        assert all(r["passed"] for r in reports)

    def test_scenario_markdown(self, capsys):
        assert main(["scenario", "corollary_almost", "--markdown"]) == 0
        assert "| corollary_almost |" in capsys.readouterr().out

    def test_scenario_param_override(self, capsys):
        assert main(["scenario", "counterexample", "--param", "m=3", "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)[0]
        assert rep["parameters"]["m"] == 3

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert main(["scenario", "bogus"]) == 2

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["model-space", "--theta", "/nonexistent.json",
                     "--order", "4"]) == 2

    def test_bad_arguments(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_model_space_output(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps(
            {"kind": "diag", "deg": 2,
             "entries": [{"kind": "monomial", "k": 2},
                         {"kind": "monomial", "k": 1}]}
        ))
        assert main(["model-space", "--theta", str(theta), "--order", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dim"] == 3
        assert doc["band"] == 4

    def test_certify_pass_and_fail(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps(
            {"m": 1, "ambient_deg": 4,
             "spanning": [[[[1, 0]]], [[[0, 0]], [[1, 0]]]]}
        ))
        assert main(["certify", "--space", str(space), "--op", "S*"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["defect_dim"] == 0
        line = tmp_path / "line.json"
        line.write_text(json.dumps(
            {"m": 1, "ambient_deg": 4, "spanning": [[[[0, 0]], [[1, 0]]]]}
        ))
        assert main(["certify", "--space", str(line), "--op", "S*"]) == 1
        cert = json.loads(capsys.readouterr().out)
        assert cert["defect_dim"] == 1
        assert main(["certify", "--space", str(line), "--op", "S*", "--p", "1"]) == 0

    def test_decompose_success_and_refusal(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps(
            {"m": 1, "ambient_deg": 4,
             "spanning": [[[[1, 0]]], [[[0, 0]], [[1, 0]]]]}
        ))
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"m": 1, "coeffs": [[[0, 0]], [[1, 0]]]}))
        assert main(["decompose", "--space", str(space), "--function", str(fn)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] and doc["norm_gap"] <= 1e-12

        # complement of the doubled-shift range refuses to decompose z^2 e_1
        bad_space = tmp_path / "bad.json"
        spanning = [
            [[[1, 0], [0, 0]]],
            [[[0, 0], [1, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[1, 0], [0, 0]]],
            [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[0, 1], [0, 0]]],
        ]
        bad_space.write_text(json.dumps(
            {"m": 2, "ambient_deg": 3, "spanning": spanning}
        ))
        bad_fn = tmp_path / "f2.json"
        bad_fn.write_text(json.dumps(
            {"m": 2, "coeffs": [[[0, 0], [0, 0]], [[0, 0], [0, 0]], [[1, 0], [0, 0]]]}
        ))
        assert main(["decompose", "--space", str(bad_space),
                     "--function", str(bad_fn)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"] == "NOT-NEARLY-INVARIANT"
        assert doc["step"] == 1
        assert 0.99 <= doc["residual"] <= 1.01

    def test_global_tol_reaches_space_rank_cut(self, tmp_path, capsys):
        # span{1, 1 + 1e-8 z} is 2-dimensional at tol 1e-10 but 1-dimensional
        # at 1e-6, so z leaves the space only if --tol reaches the rank cut
        space = tmp_path / "M.json"
        space.write_text(json.dumps(
            {"m": 1, "ambient_deg": 4,
             "spanning": [[[[1, 0]]], [[[1, 0]], [[1e-8, 0]]]]}
        ))
        fn = tmp_path / "z.json"
        fn.write_text(json.dumps({"m": 1, "coeffs": [[[0, 0]], [[1, 0]]]}))
        assert main(["decompose", "--space", str(space), "--function", str(fn)]) == 0
        capsys.readouterr()
        assert main(["--tol", "1e-6", "decompose", "--space", str(space),
                     "--function", str(fn)]) == 2
        # span{1, 1 + 1e-8 z^2}: its vanishing part z^2 escapes under S* at
        # tol 1e-10; at 1e-6 the space is the constants and has no defect
        quad = tmp_path / "Q.json"
        quad.write_text(json.dumps(
            {"m": 1, "ambient_deg": 4,
             "spanning": [[[[1, 0]]], [[[1, 0]], [[0, 0]], [[1e-8, 0]]]]}
        ))
        assert main(["certify", "--space", str(quad)]) == 1
        capsys.readouterr()
        assert main(["--tol", "1e-6", "certify", "--space", str(quad)]) == 0
        assert json.loads(capsys.readouterr().out)["defect_dim"] == 0

    def test_certify_shift_defect(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps(
            {"m": 1, "ambient_deg": 4,
             "spanning": [[[[1, 0]]], [[[0, 0]], [[1, 0]]]]}
        ))
        assert main(["certify", "--space", str(space), "--op", "S"]) == 1
        cert = json.loads(capsys.readouterr().out)
        assert cert["defect_dim"] == 1
        assert main(["certify", "--space", str(space), "--op", "S", "--p", "1"]) == 0

    def test_markdown_renders_nested_metrics(self, capsys):
        assert main(["scenario", "all", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.count("| PASS |") == 12
        assert "config0_r1_p1" in out

    def test_decompose_with_defect_file(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps(
            {"m": 1, "ambient_deg": 4, "spanning": [[[[0, 0]], [[1, 0]]]]}
        ))
        defect = tmp_path / "defect.json"
        defect.write_text(json.dumps({"m": 1, "functions": [[[[1, 0]]]]}))
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"m": 1, "coeffs": [[[0, 0]], [[1, 0]]]}))
        assert main(["decompose", "--space", str(space), "--defect", str(defect),
                     "--function", str(fn)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["K0"] is None
        assert doc["kj"][0]["coeffs"] == [[[1.0, 0.0]]]

    def test_cli_json_determinism(self, capsys):
        assert main(["scenario", "duality", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["scenario", "duality", "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        strip = lambda docs: [
            {k: v for k, v in d.items() if k != "runtime_ms"} for d in docs
        ]
        assert json.dumps(strip(first), sort_keys=True) == \
            json.dumps(strip(second), sort_keys=True)
