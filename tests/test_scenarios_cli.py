"""Scenario harness and CLI behavior: reports, determinism, exit codes."""

import json
from pathlib import Path

import pytest

from hardylab import cli, errors
from hardylab.cli import main
from hardylab.errors import ParseError
from hardylab.funcs import basis_vector
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

    def test_one_parser_serves_every_call_unchanged(self, capsys):
        parser = cli._build_parser()
        assert main(["frobnicate"]) == 2
        refusal = capsys.readouterr().err
        assert "invalid choice: 'frobnicate'" in refusal
        # an appended --param does not carry over to the next call
        assert main(["scenario", "counterexample", "--param", "m=3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["parameters"]["m"] == 3
        assert main(["scenario", "counterexample", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["parameters"]["m"] != 3
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().err == refusal
        assert cli._build_parser() is parser

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

    def test_model_space_negative_headroom_is_usage_error(self, tmp_path, capsys):
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"kind": "monomial", "k": 2, "deg": 2}))
        assert main(["model-space", "--theta", str(theta), "--order", "6",
                     "--headroom", "-1"]) == 2
        assert "headroom" in capsys.readouterr().err

    def test_cut_monomial_entry_is_usage_error(self, tmp_path, capsys):
        # k = 5 above deg = 3 would leave a zero entry, refused as not inner
        theta = tmp_path / "theta.json"
        theta.write_text(json.dumps({"kind": "diag", "deg": 3, "entries": [
            {"kind": "monomial", "k": 5}, {"kind": "monomial", "k": 1}]}))
        assert main(["model-space", "--theta", str(theta), "--order", "8"]) == 2
        err = capsys.readouterr().err
        assert "entries[0].k" in err and "deg 3" in err

    def test_boolean_dimension_is_usage_error(self, tmp_path, capsys):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"m": True, "ambient_deg": 4,
                                     "spanning": [[[[1, 0]]]]}))
        assert main(["certify", "--space", str(space), "--op", "S*"]) == 2
        assert "m:" in capsys.readouterr().err

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


# span{1, z} at ambient degree 3: not S-invariant, so certifying it under S
# with no allowed defect must fail (exit 1), never pass as the zero space
_LINE_PAIR = {"m": 1, "ambient_deg": 3, "spanning": [[[[1, 0]]], [[[0, 0]], [[1, 0]]]]}


class TestInvalidNumbers:
    """An invalid tolerance, seed or eps is a usage error (exit 2)."""

    @pytest.mark.parametrize("argv", [
        pytest.param(["--tol", "nan", "certify", "--space", "{space}", "--op", "S"],
                     id="tol-nan-certify"),
        pytest.param(["--tol", "inf", "certify", "--space", "{space}", "--op", "S"],
                     id="tol-inf-certify"),
        pytest.param(["--tol", "0", "certify", "--space", "{space}"], id="tol-zero-certify"),
        pytest.param(["--tol", "-1", "model-space", "--theta", "{theta}", "--order", "6"],
                     id="tol-negative-model-space"),
        pytest.param(["--tol", "nan", "model-space", "--theta", "{theta}", "--order", "6"],
                     id="tol-nan-model-space"),
        pytest.param(["--tol", "-1", "scenario", "beurling"], id="tol-negative-scenario"),
        pytest.param(["--tol", "nan", "scenario", "beurling"], id="tol-nan-scenario"),
        pytest.param(["--seed", "-1", "scenario", "duality"], id="seed-negative"),
        pytest.param(["decompose", "--space", "{space}", "--function", "{fn}",
                      "--eps", "nan"], id="eps-nan"),
        pytest.param(["decompose", "--space", "{space}", "--function", "{fn}",
                      "--eps", "-1"], id="eps-negative"),
    ])
    def test_flag_is_usage_error(self, tmp_path, capsys, argv):
        files = {"space": tmp_path / "S.json", "theta": tmp_path / "theta.json",
                 "fn": tmp_path / "f.json"}
        files["space"].write_text(json.dumps(_LINE_PAIR))
        files["theta"].write_text(json.dumps({"kind": "monomial", "k": 2, "deg": 2}))
        files["fn"].write_text(json.dumps({"m": 1, "coeffs": [[[0, 0]], [[1, 0]]]}))
        flag = next(a for a in argv if a in ("--tol", "--seed", "--eps"))
        assert main([a.format(**files) for a in argv]) == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["NaN", "Infinity"])
    def test_non_finite_tol_in_space_file(self, tmp_path, capsys, tol):
        space = tmp_path / "S.json"
        space.write_text(json.dumps(_LINE_PAIR)[:-1] + f', "tol": {tol}}}')
        assert main(["certify", "--space", str(space), "--op", "S"]) == 2
        assert "tol" in capsys.readouterr().err

    def test_valid_flags_still_certify(self, tmp_path, capsys):
        space = tmp_path / "S.json"
        space.write_text(json.dumps(_LINE_PAIR))
        assert main(["--tol", "1e-9", "certify", "--space", str(space), "--op", "S"]) == 1
        assert json.loads(capsys.readouterr().out)["defect_dim"] == 1
        assert main(["--seed", "0", "scenario", "duality"]) == 0


class TestParamValues:
    """A --param tolerance must be finite and > 0, pairs, draws and m
    integers >= 1, r null or an integer >= 0, a key with an integer default (seed,
    sizes) an integer >= 0 and one with a float default a finite number;
    anything else is a usage error naming the key (exit 2)."""

    BAD = [
        ("beurling", "tol", -1),
        ("beurling", "tol", 0),
        ("beurling", "tol", float("nan")),
        ("beurling", "tol", float("inf")),
        ("beurling", "tol", "1e-9"),
        ("beurling", "tol", True),
        ("beurling", "distance_tol", -1e-3),
        ("duality", "residual_tol", float("nan")),
        ("section4", "membership_tol", 0.0),
        ("duality", "seed", -1),
        ("duality", "seed", 1.5),
        ("duality", "seed", True),
        ("section4", "seed", "0"),
        ("beurling", "N", "abc"),
        ("beurling", "N", -1),
        ("beurling", "N", 16.0),
        ("beurling", "N", True),
        ("main_defect1", "NK", None),
        ("main_defect1", "r", "abc"),
        ("main_defect1", "r", -1),
        ("main_defect1", "r", 1.0),
        ("main_defect1", "r", False),
        ("main_defectp", "p", -2),
        ("duality", "pairs", -3),
        ("duality", "pairs", 0),
        ("duality", "pairs", True),
        ("section4", "draws", 0),
        ("section4", "min_each_class", 2.5),
        ("lemma_nearly", "zero1", float("nan")),
        ("lemma_nearly", "zero1", "0.5"),
        ("lemma_orthocomplement", "psi_zero", True),
    ]

    @pytest.mark.parametrize("sid, key, val", BAD)
    def test_run_scenario_refuses(self, sid, key, val):
        with pytest.raises(ParseError, match=f"'{key}'"):
            run_scenario(sid, {key: val})

    @pytest.mark.parametrize("argv", [
        ["scenario", "beurling", "--param", "tol=-1"],
        ["scenario", "beurling", "--param", "tol=NaN"],
        ["scenario", "beurling", "--param", "tol=Infinity"],
        ["scenario", "beurling", "--param", "distance_tol=0"],
        ["scenario", "duality", "--param", "seed=-1"],
        ["scenario", "duality", "--param", "seed=0.5"],
        ["scenario", "all", "--param", "seed=-1"],
        ["scenario", "all", "--param", "tol=NaN", "--json"],
        ["scenario", "beurling", "--param", "N=abc"],
        ["scenario", "main_defect1", "--param", "r=abc"],
        ["scenario", "duality", "--param", "pairs=-3"],
        ["scenario", "section4", "--param", "draws=0"],
        ["scenario", "lemma_nearly", "--param", "zero2=Infinity"],
        ["scenario", "all", "--param", "N=abc", "--json"],
    ])
    def test_cli_refuses(self, capsys, argv):
        key = argv[3].split("=")[0]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"parameter '{key}'" in captured.err and captured.out == ""

    def test_valid_overrides_still_run(self, capsys):
        rep = run_scenario("duality", {"seed": 3, "tol": 1e-9, "residual_tol": 1e-8})
        assert rep.passed and rep.parameters["seed"] == 3
        assert run_scenario("beurling", {"tol": 1e-9, "distance_tol": 1e-9}).passed
        assert main(["scenario", "duality", "--param", "seed=2",
                     "--param", "residual_tol=1e-7"]) == 0
        assert main(["scenario", "beurling", "--param", "tol=1e-9"]) == 0

    def test_valid_size_overrides_still_run(self, capsys):
        assert run_scenario("beurling", {"N": 12}).passed
        assert run_scenario("main_defect1", {"r": None}).passed
        assert run_scenario("main_defect1", {"r": 0, "N": 10}).passed
        assert run_scenario("lemma_nearly", {"zero1": 0.25, "zero2": -0.5}).passed
        # an integer is a valid float value; a zero at the origin is a
        # mathematical failure, not a usage error
        assert not run_scenario("lemma_nearly", {"zero2": 0}).passed
        rep = run_scenario("duality", {"pairs": 24, "min_each_direction": 4})
        assert rep.passed and rep.metrics["pairs"] == 24
        assert main(["scenario", "main_defectp", "--param", "r=1", "--param", "p=1",
                     "--param", "N=8"]) == 0
        assert main(["scenario", "section4", "--param", "draws=60",
                     "--param", "min_each_class=10"]) == 0
        assert main(["scenario", "main_defect1", "--param", "r=null"]) == 0


class TestDegenerateParams:
    """A zero size, a truncation below the degree of a fixed entry, or a
    truncation whose derived threshold is >= 1 (a residual or distance of
    unit vectors is at most 1, so it certifies nothing), is a usage error
    naming the key (exit 2), not a crash or a vacuous pass."""

    REFUSED = [
        ("duality", {"m": 0}, "'m'"),
        ("counterexample", {"m": 0}, "'m'"),
        ("main_defectp", {"r": 0, "p": 0}, "'r' and 'p'"),
        ("lemma_nearly", {"blaschke_deg": 0}, "'blaschke_deg'"),
        ("lemma_nearly", {"blaschke_deg": 2}, "'blaschke_deg'"),
        ("lemma_orthocomplement", {"blaschke_deg": 3, "N": 12}, "'blaschke_deg'"),
        ("lemma_orthocomplement", {"blaschke_deg": 4, "N": 16}, "'blaschke_deg'"),
        ("lemma_orthocomplement", {"blaschke_deg": 0}, "'blaschke_deg'"),
        ("lemma_orthocomplement", {"blaschke_deg": 2}, "'blaschke_deg' = 2 is below 3"),
        ("lemma_orthocomplement", {"blaschke_deg": 5, "N": 9}, "'N' = 9 is below 10"),
        ("lemma_orthocomplement", {"blaschke_deg": 5, "N": 5}, "'N' = 5 is below 10"),
        ("lemma_orthocomplement", {"N": 47}, "'N' = 47 is below 48"),
    ]

    @pytest.mark.parametrize("sid, params, named", REFUSED)
    def test_run_scenario_refuses(self, sid, params, named):
        with pytest.raises(ParseError, match=named):
            run_scenario(sid, params)

    @pytest.mark.parametrize("sid, params, named", REFUSED)
    def test_cli_refuses(self, capsys, sid, params, named):
        argv = ["scenario", sid]
        for key, val in params.items():
            argv += ["--param", f"{key}={val}"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    def test_smallest_valid_values_still_run(self):
        assert run_scenario("duality", {"m": 1}).passed
        assert run_scenario("main_defectp", {"r": 0, "p": 1}).passed
        assert run_scenario("main_defectp", {"r": 1, "p": 0}).passed
        rep = run_scenario("lemma_nearly", {"blaschke_deg": 3})
        assert rep.passed and rep.metrics["threshold"] < 1
        rep = run_scenario("lemma_orthocomplement", {"blaschke_deg": 5, "N": 20})
        assert rep.passed and rep.metrics["threshold"] < 1
        # N = 2 * blaschke_deg: the comparison band is degree 0 alone
        rep = run_scenario("lemma_orthocomplement", {"blaschke_deg": 5, "N": 10})
        assert rep.passed and rep.metrics["comparison_band"] == 0


class TestScenarioAllKeys:
    def test_key_no_scenario_knows_is_usage_error(self, capsys):
        assert main(["scenario", "all", "--param", "foo=1"]) == 2
        captured = capsys.readouterr()
        assert "parameter 'foo'" in captured.err and captured.out == ""

    def test_known_key_goes_only_to_its_scenarios(self, capsys):
        assert main(["scenario", "all", "--param", "draws=60",
                     "--param", "min_each_class=10", "--json"]) == 0
        reports = {r["scenario_id"]: r for r in json.loads(capsys.readouterr().out)}
        assert len(reports) == len(SCENARIOS)
        assert reports["section4"]["parameters"]["draws"] == 60
        with_draws = [sid for sid, r in reports.items() if "draws" in r["parameters"]]
        assert with_draws == ["section4"]


class TestCertifyP:
    def test_negative_p_is_usage_error(self, tmp_path, capsys):
        space = tmp_path / "S.json"
        space.write_text(json.dumps(_LINE_PAIR))
        for p in ("-1", "1.5", "nan"):
            assert main(["certify", "--space", str(space), "--p", p]) == 2
            captured = capsys.readouterr()
            assert "argument --p:" in captured.err and captured.out == ""

    def test_valid_p_certifies(self, tmp_path, capsys):
        space = tmp_path / "S.json"
        space.write_text(json.dumps(_LINE_PAIR))
        assert main(["certify", "--space", str(space), "--op", "S", "--p", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["defect_dim"] == 1
        assert main(["certify", "--space", str(space), "--op", "S", "--p", "0"]) == 1


DATA = Path(__file__).parent / "data"


def _assert_report_matches(got, want, path="reports"):
    """Exact on integers, booleans and strings; floats within 1e-12 relative,
    or 1e-14 absolute for values below 1e-12."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_report_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_report_matches(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        if abs(want) < 1e-12:
            assert abs(got - want) <= 1e-14, path
        else:
            assert abs(got - want) <= 1e-12 * abs(want), path
    else:
        assert got == want, path


# every workbench error and its exit code: 2 for a usage error, 1 for a
# mathematical failure (the base class included)
EXIT_CODES = {
    "ParseError": 2,
    "DimensionMismatchError": 2,
    "DomainError": 2,
    "PreconditionError": 2,
    "TruncationOverflowError": 2,
    "NotInnerError": 1,
    "InvariantViolationError": 1,
    "CertificationError": 1,
    "NotNearlyInvariantError": 1,
    "WorkbenchError": 1,
}


class TestErrorExitCodes:
    def test_every_error_class_is_mapped(self):
        subclasses = {c.__name__ for c in errors.WorkbenchError.__subclasses__()}
        assert set(EXIT_CODES) == subclasses | {"WorkbenchError"}

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_error_raised_by_a_command(self, monkeypatch, capsys, name):
        cls = getattr(errors, name)
        exc = (cls(3, 0.5, basis_vector(1, 0)) if cls is errors.NotNearlyInvariantError
               else cls("planted failure"))

        def failing(path):
            raise exc

        monkeypatch.setattr(cli, "_read", failing)
        assert main(["model-space", "--theta", "theta.json", "--order", "4"]) == EXIT_CODES[name]
        out, err = capsys.readouterr()
        if cls is errors.NotNearlyInvariantError:
            # the refusal is a report on stdout, not a message
            doc = json.loads(out)
            assert (doc["error"], doc["step"], doc["residual"]) == ("NOT-NEARLY-INVARIANT", 3, 0.5)
            assert err == ""
        else:
            assert out == "" and err == "error: planted failure\n"


class TestGoldenReports:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_scenario_all_matches_golden(self, capsys, seed):
        # each golden file is `hardylab --seed S scenario all --json` with
        # runtime_ms removed; a performance change must keep the reports
        assert main(["--seed", str(seed), "scenario", "all", "--json"]) == 0
        reports = json.loads(capsys.readouterr().out)
        for rep in reports:
            rep.pop("runtime_ms")
        golden = DATA / f"scenarios_seed{seed}.json"
        _assert_report_matches(reports, json.loads(golden.read_text()))
