"""Scenario harness and CLI behavior: reports, determinism, exit codes."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from hardylab import cli, errors, nearly, scenarios
from hardylab.cli import main
from hardylab.errors import NotInnerError, ParseError
from hardylab.funcs import basis_vector, monomial_fn
from hardylab.inner import BlaschkeSpec, blaschke_scalar, diag_inner, monomial_inner
from hardylab.multipliers import compose
from hardylab.nearly import _apply_space, decompose
from hardylab.scenarios import SCENARIOS, _fmt, render_markdown, run_all, run_scenario
from hardylab.serialize import parse_symbol_spec
from hardylab.subspaces import (
    Subspace,
    _span_columns,
    beurling_space,
    complement,
    model_space,
    subspace_distance,
)

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

    def test_beurling_checks_a_unit_diagonal_not_led_by_one(self):
        # i z^2 beside z^3: both are unit entries, so the model space is
        # checked against the monomials below each entry's degree
        theta = {"kind": "diag", "deg": 3, "entries": [
            {"kind": "blaschke", "zeros": [[0, 0], [0, 0]], "rotation": [0, 1]},
            {"kind": "monomial", "k": 3}]}
        rep = run_scenario("beurling", {"theta": theta, "N": 16})
        assert rep.passed
        assert rep.metrics["distance"] <= rep.parameters["distance_tol"]
        assert rep.metrics["model_dim"] == 5

    def test_main_defectp_with_overrides(self):
        rep = run_scenario("main_defectp", {"r": 2, "p": 1, "N": 32})
        assert rep.passed
        assert rep.metrics["norm_gap"] <= 1e-6

    def test_each_roundtrip_config_peels_once(self, monkeypatch):
        # the extraction's peel also gives each basis vector's decomposition
        peeled = []
        peel = nearly._peel

        def counting(m, e, *args):
            peeled.append((m, list(e)))
            return peel(m, e, *args)

        monkeypatch.setattr(nearly, "_peel", counting)
        rep = run_scenario("main_defect1")
        runs = list(peeled)
        blocks = [blk for key, blk in rep.metrics.items() if key.startswith("config")]
        assert len(runs) == len(blocks) == 3
        assert len({id(space) for space, _ in runs}) == 3
        for (space, e), blk in zip(runs, blocks):
            alone = [decompose(space, e, f) for f in space.basis]
            assert blk["max_iterations"] == max(res.iterations for res in alone)
            assert abs(blk["max_norm_gap"] - max(res.norm_gap for res in alone)) <= 1e-12
            assert blk["gk_norm_sum"] == pytest.approx(
                sum(sum(res.gk_norms) for res in alone), rel=1e-12)

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

    def test_markdown_shows_every_metric_leaf(self):
        # a list prints inline, as key=[a, b]; a nested block's leaves
        # print after its key
        reports = run_all()
        rows = render_markdown(reports).splitlines()[2:]
        assert len(rows) == len(reports)
        for rep, row in zip(reports, rows):
            assert row.startswith(f"| {rep.scenario_id} |")
            for key, val in rep.metrics.items():
                for k, v in val.items() if isinstance(val, dict) else [(key, val)]:
                    assert not isinstance(v, dict)
                    assert f"{k}={_fmt(v)}" in row
        text = "\n".join(rows)
        assert "residual_window=[0.99, 1.01]" in text
        assert "model_dim_growth=[" in text


def _one_unit(rng, dim_m, deg):
    """One seeded flattened unit vector, drawn as the scenarios drew each
    vector on its own: real parts, then imaginary parts."""
    vec = (rng.standard_normal((deg + 1, dim_m))
           + 1j * rng.standard_normal((deg + 1, dim_m))).reshape(-1)
    return vec * (1.0 / np.linalg.norm(vec))


class TestSeededDraws:
    """One batched draw is the stream of one-vector draws."""

    @pytest.mark.parametrize("dim_m, deg, count", [(3, 8, 100), (2, 8, 4), (1, 0, 1)])
    def test_batch_is_the_sequential_stream(self, dim_m, deg, count):
        batch_rng, seq_rng = np.random.default_rng(5), np.random.default_rng(5)
        batch = scenarios._random_units(batch_rng, dim_m, deg, count)
        seq = np.column_stack([_one_unit(seq_rng, dim_m, deg) for _ in range(count)])
        assert batch.shape == (dim_m * (deg + 1), count)
        # only the normalisation's summation order differs
        assert np.abs(batch - seq).max() <= 1e-15
        # the generator is left where the one-vector draws leave it
        assert batch_rng.standard_normal() == seq_rng.standard_normal()

    def test_perpendicular_units(self):
        spaces = [model_space(diag_inner([monomial_inner(k, 3)], 3), 5) for k in (1, 2, 3)]
        units = scenarios._perp_units(np.random.default_rng(2), spaces, 5)
        assert np.allclose(np.linalg.norm(units, axis=1), 1.0, rtol=0, atol=1e-14)
        for unit, space in zip(units, spaces):
            assert np.abs(space.matrix.T @ unit).max() <= 1e-14

    def test_perpendicular_units_redraw_only_the_open_spaces(self):
        # the whole ambient leaves no unit orthogonal to it: its pair draws
        # again in each of the 16 rounds, the line's pair only in the first
        line = Subspace(1, 3, (monomial_fn(1, 0, 0),))
        whole = Subspace(1, 3, tuple(monomial_fn(1, 0, k) for k in range(4)))
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        with pytest.raises(RuntimeError, match="could not draw a vector orthogonal"):
            scenarios._perp_units(rng, [line, whole], 3)
        scenarios._random_units(ref, 1, 3, 2)
        for _ in range(15):
            scenarios._random_units(ref, 1, 3, 1)
        assert rng.standard_normal() == ref.standard_normal()

    @pytest.mark.parametrize("draws", [1, 2, 3])
    def test_section4_reports_every_kept_draw(self, draws):
        rep = run_scenario("section4", {"draws": draws, "min_each_class": 0})
        assert rep.passed
        # no random draw lies in M, so every draw is kept: the even ones are
        # projected off M (members), the odd ones are not members
        assert rep.metrics["draws"] == rep.metrics["agreements"] == draws
        assert rep.metrics["members"] == (draws + 1) // 2
        assert rep.metrics["nonmembers"] == draws // 2

    @pytest.mark.parametrize("draws", [1, 2, 3])
    def test_section4_drops_an_even_draw_in_m(self, monkeypatch, draws):
        residual = scenarios._residual

        def first_in_m(space, cols):
            # the first even draw lies in M: nothing is left off it
            out = residual(space, cols)
            out[:, 0] = 0
            return out

        monkeypatch.setattr(scenarios, "_residual", first_in_m)
        rep = run_scenario("section4", {"draws": draws, "min_each_class": 0})
        assert rep.passed
        assert rep.metrics["draws"] == rep.metrics["agreements"] == draws - 1
        assert rep.metrics["members"] == (draws + 1) // 2 - 1
        assert rep.metrics["nonmembers"] == draws // 2


# the keys of a roundtrip block, in report order, and those among them that
# are rows
BLOCK_KEYS = ["defect_dim", "roundtrip_distance", "max_norm_gap", "max_iterations",
              "iteration_bound", "gk_monotone_and_converged", "gk_norm_sum", "passed"]
BLOCK_ROWS = ["defect_dim", "roundtrip_distance", "max_norm_gap", "max_iterations",
              "gk_monotone_and_converged"]
# scenario -> its metric keys at the defaults, in report order (the order
# --markdown prints), each block's keys given by BLOCK_KEYS
METRIC_ORDER = {
    "beurling": ["shift_defect_dim", "shift_escape", "range_dim", "model_dim",
                 "dims_complementary", "range_model_overlap", "distance",
                 "distance_threshold"],
    "prop_F0K_almost": ["nearly_invariant_defect", "defect_dim", "expected_defect",
                        "defect_span_distance", "defect_span_threshold", "model_dim_growth",
                        "growth_strictly_increasing", "rational_model_dim_constant"],
    "lemma_orthocomplement": ["distance", "threshold", "combined_tail_bound",
                              "comparison_band", "poly_distance", "poly_threshold"],
    "lemma_nearly": ["defect_dim", "residual", "threshold", "tail_bound",
                     "vanishing_slice_dim"],
    "prop_perp_almost": ["defect_dim", "expected_defect", "defect_span_distance",
                         "defect_span_threshold"],
    "counterexample": ["certify_defect_dim", "raised_not_nearly_invariant", "step",
                       "residual", "residual_window"],
    "wandering_bound": ["scalar_model_wandering_dim", "blaschke_product_wandering_dim",
                        "vanishing_space_wandering_dim"],
    "main_defect1": ["config0_r1_p1", "config1_r1_p1", "config2_r2_p1",
                     "non_orthogonal_defect_dim", "norm_gap"],
    "main_defectp": ["config0_r1_p2", "config1_r2_p2", "config2_r0_p1", "norm_gap"],
    "corollary_almost": ["vacuous_nearly_defect", "residual_without_defect",
                         "expected_residual_without_defect", "residual_with_defect",
                         "invariant_model_residual", "closed_form_tol"],
    "duality": ["pairs", "agreements", "forward_true_pairs", "forward_false_pairs"],
    "section4": ["coordinate_complement_shift_defect", "draws", "agreements", "members",
                 "nonmembers", "min_each_class"],
}


def _blocks_rows(*blocks):
    return [f"{blk}.{key}" for blk in blocks for key in BLOCK_ROWS]


# scenario -> (the number of clauses of the verdict expression each
# scenario body wrote by hand before its claims became rows, its rows at
# the defaults): a clause that is dropped is a row that goes missing
ROWS = {
    "beurling": (4, ["shift_defect_dim", "dims_complementary", "range_model_overlap",
                     "distance"]),
    "prop_F0K_almost": (5, ["nearly_invariant_defect", "defect_dim", "defect_span_distance",
                            "growth_strictly_increasing", "rational_model_dim_constant"]),
    "lemma_orthocomplement": (2, ["distance", "poly_distance"]),
    "lemma_nearly": (2, ["defect_dim", "residual"]),
    "prop_perp_almost": (2, ["defect_dim", "defect_span_distance"]),
    "counterexample": (3, ["certify_defect_dim", "raised_not_nearly_invariant", "residual"]),
    "wandering_bound": (3, ["scalar_model_wandering_dim", "blaschke_product_wandering_dim",
                            "vanishing_space_wandering_dim"]),
    "main_defect1": (16, _blocks_rows("config0_r1_p1", "config1_r1_p1", "config2_r2_p1")
                     + ["non_orthogonal_defect_dim"]),
    "main_defectp": (15, _blocks_rows("config0_r1_p2", "config1_r2_p2", "config2_r0_p1")),
    # the three rows the report does not show are the library's own verdicts
    "corollary_almost": (7, ["vacuous_nearly_defect", "almost_without_defect",
                             "residual_without_defect", "almost_with_defect",
                             "residual_with_defect", "invariant_model_almost",
                             "invariant_model_residual"]),
    "duality": (3, ["agreements", "forward_true_pairs", "forward_false_pairs"]),
    "section4": (4, ["coordinate_complement_shift_defect", "agreements", "members",
                     "nonmembers"]),
}


def _unsettled(sid):
    """The metrics the scenario's runner returns at the defaults, rows unsettled."""
    runner, table, _ = SCENARIOS[sid]
    return runner(scenarios._merge(table, None)[1])


def _rows(metrics, block=None):
    """(block or None, key, row) of every row, blocks' rows in place."""
    for key, val in metrics.items():
        if isinstance(val, dict):
            yield from _rows(val, key)
        elif isinstance(val, scenarios._Check):
            yield block, key, val


class TestCheckRows:
    def test_every_scenario_is_listed(self):
        assert list(METRIC_ORDER) == list(ROWS) == list(SCENARIOS)

    @pytest.mark.parametrize("sid", list(SCENARIOS))
    def test_metric_order(self, sid):
        metrics = run_scenario(sid).metrics
        assert list(metrics) == METRIC_ORDER[sid]
        for val in metrics.values():
            if isinstance(val, dict):
                assert list(val) == BLOCK_KEYS

    @pytest.mark.parametrize("sid", list(SCENARIOS))
    def test_rows_are_the_verdict_clauses(self, sid):
        clauses, names = ROWS[sid]
        rows = list(_rows(_unsettled(sid)))
        assert [f"{blk}.{key}" if blk else key for blk, key, _ in rows] == names
        assert len(rows) == len(names) == clauses

    @pytest.mark.parametrize("sid", list(SCENARIOS))
    def test_every_row_decides_the_verdict(self, monkeypatch, sid):
        metrics = _unsettled(sid)
        rows = list(_rows(metrics))
        assert all(scenarios._holds(row) for _, _, row in rows)
        passed, settled = scenarios._settle(metrics)
        assert passed
        assert all(blk["passed"] for blk in settled.values() if isinstance(blk, dict))
        holds = scenarios._holds
        for block, key, planted in rows:
            monkeypatch.setattr(scenarios, "_holds",
                                lambda row, planted=planted: holds(row) and row is not planted)
            passed, out = scenarios._settle(metrics)
            assert passed is False, key
            for name, blk in out.items():
                if isinstance(blk, dict):
                    # the planted row's block fails, every other block passes
                    assert blk.pop("passed") is (name != block), (block, key)
                    assert blk | {"passed": True} == settled[name]
                else:
                    assert blk == settled[name]

    @pytest.mark.parametrize("row, holds", [
        # each op closed at its bound, as the verdict expressions were
        (scenarios._Check(2, "==", 2), True),
        (scenarios._Check(1e-8, "<=", 1e-8), True),
        (scenarios._Check(20, ">=", 20), True),
        (scenarios._Check(0.99, "within", (0.99, 1.01)), True),
        (scenarios._Check(1.01, "within", (0.99, 1.01)), True),
        (scenarios._Check(0.75, "near", (0.5, 0.25)), True),
        (scenarios._Check(0.25, "near", (0.5, 0.25)), True),
        (scenarios._Check(True, "true"), True),
        (scenarios._Check(False, "false"), True),
        # |v - c| <= t, not c - t <= v <= c + t: one step below 0.25, 0.5 - v
        # rounds to 0.25, which the window form would refuse
        (scenarios._Check(np.nextafter(0.25, 0), "near", (0.5, 0.25)), True),
        # and failing just past it
        (scenarios._Check(3, "==", 2), False),
        (scenarios._Check(np.nextafter(1e-8, 1), "<=", 1e-8), False),
        (scenarios._Check(19, ">=", 20), False),
        (scenarios._Check(np.nextafter(0.99, 0), "within", (0.99, 1.01)), False),
        (scenarios._Check(np.nextafter(1.01, 2), "within", (0.99, 1.01)), False),
        (scenarios._Check(np.nextafter(0.75, 1), "near", (0.5, 0.25)), False),
        (scenarios._Check(0.25 - 2 ** -53, "near", (0.5, 0.25)), False),
        (scenarios._Check(False, "true"), False),
        (scenarios._Check(True, "false"), False),
    ])
    def test_each_op_at_its_bound(self, row, holds):
        assert scenarios._holds(row) is holds

    def test_unshown_rows_decide_but_are_not_reported(self):
        metrics = {"a": 1, "b": scenarios._Check(False, "true", shown=False),
                   "c": {"d": scenarios._Check(0.5, "<=", 1.0)}}
        assert scenarios._settle(metrics) == (False, {"a": 1, "c": {"d": 0.5, "passed": True}})


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

    def test_symbol_kinds_are_exactly_the_inner_ones(self, tmp_path, capsys):
        # every accepted kind is inner, so the model space builds from it
        for spec in ({"kind": "monomial", "k": 1},
                     {"kind": "blaschke", "zeros": [[0.5, 0]], "deg": 4},
                     {"kind": "diag", "deg": 1, "entries": [{"kind": "monomial", "k": 1}]}):
            t = parse_symbol_spec(spec)
            assert t.claimed_inner
            assert model_space(t, t.deg + 2).dim >= 1
        # a kind never claimed inner is refused where it enters
        theta = tmp_path / "theta.json"
        for spec in ({"kind": "poly", "coeffs": [[1, 0]]},
                     {"kind": "matrix", "deg": 1, "rows": [[{"kind": "monomial", "k": 1}]]},
                     {"kind": "diag", "deg": 0,
                      "entries": [{"kind": "poly", "coeffs": [[1, 0]]}]}):
            with pytest.raises(ParseError, match="kind"):
                parse_symbol_spec(spec)
            theta.write_text(json.dumps(spec))
            assert main(["model-space", "--theta", str(theta), "--order", "4"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "kind" in err
            assert main(["scenario", "beurling", "--param",
                         f"theta={json.dumps(spec)}"]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "kind" in err

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
    integers >= 1, r null or an integer >= 0, growth_orders a list of at
    least two strictly increasing integers, a size (seed included) an
    integer >= 0 and a Blaschke zero a finite number of modulus < 1;
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
        ("prop_F0K_almost", "growth_orders", "x"),
        ("prop_F0K_almost", "growth_orders", True),
        ("prop_F0K_almost", "growth_orders", None),
        ("prop_F0K_almost", "growth_orders", 5),
        ("prop_F0K_almost", "growth_orders", {}),
        ("prop_F0K_almost", "growth_orders", [16.5, 32]),
        ("prop_F0K_almost", "growth_orders", [16, True]),
        ("prop_F0K_almost", "growth_orders", [48, 32]),
        ("prop_F0K_almost", "growth_orders", [16, 16]),
        # one order certifies no growth
        ("prop_F0K_almost", "growth_orders", [16]),
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
        # m (N + 1) <= 4: a drawn span of up to 4 functions can fill the ambient
        ("duality", {"m": 1, "N": 3}, "'N' = 3 is below 4"),
        ("duality", {"m": 2, "N": 1}, "'N' = 1 is below 3"),
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
        # every order >= max(3, growth_margin + 2): z^2 at order - margin, z^3 flat
        ("prop_F0K_almost", {"growth_orders": [5, 8]}, "'growth_orders'"),
        ("prop_F0K_almost", {"growth_orders": [5, 8]}, "'growth_margin'"),
        ("prop_F0K_almost", {"growth_orders": [2, 4], "growth_margin": 0},
         "starts at 2, below 3"),
        # the even pairs draw monomial powers up to 3
        ("duality", {"N": 2}, "'N' = 2 is below 3"),
        ("duality", {"m": 3, "N": 2, "seed": 5}, "'N' = 2 is below 3"),
        ("beurling", {"N": 2}, "'N' = 2 is below 3, the degree of 'theta'"),
        # the derived threshold is >= 1 because of the zero, not the degree
        ("lemma_nearly", {"zero1": 0.999999}, "'zero1' = 0.999999"),
        ("lemma_orthocomplement", {"psi_zero": 0.9999}, "'psi_zero' = 0.9999"),
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
        for params in ({"growth_orders": [6, 7]},
                       {"growth_orders": [3, 4], "growth_margin": 0},
                       {"growth_orders": [3, 4], "growth_margin": 1}):
            assert run_scenario("prop_F0K_almost", params).passed
        assert run_scenario("duality", {"N": 3}).passed
        assert run_scenario("beurling", {"N": 3}).passed


class TestEveryKeyIsChecked:
    """A value of the wrong kind for any default key of any scenario is a
    usage error (exit 2), never a crash: a key without a check fails here."""

    CASES = [
        pytest.param(sid, key, raw, id=f"{sid}-{key}-{raw}")
        for sid, (_, table, _) in SCENARIOS.items()
        for key, (_, kind, *_) in table.items()
        # null is a valid value of kind r
        for raw in ('"x"', "true", "null") if (kind, raw) != ("r", "null")
    ]

    @pytest.mark.parametrize("sid, key, raw", CASES)
    def test_wrong_kind_is_usage_error(self, capsys, sid, key, raw):
        assert main(["scenario", sid, "--param", f"{key}={raw}"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""


def _defaults(table: dict) -> dict:
    return {key: row[0] for key, row in table.items()}


def _values(table: dict) -> dict:
    """The defaults as a least value reads them, each symbol spec parsed."""
    return scenarios._merge(table, None)[1]


def _least(table: dict, key: str) -> int:
    """A size key's least value, the other keys at their defaults."""
    least = (table[key][2:] or (0,))[0]
    return least(_values(table)) if callable(least) else least


SIZE_KEYS = [
    pytest.param(sid, key, id=f"{sid}-{key}")
    for sid, (_, table, _) in SCENARIOS.items()
    for key, (_, kind, *_) in table.items() if kind == "size"
]

# at the default zeros the derived tail threshold, not the table, decides
# how low blaschke_deg may go: the table's least is refused by _certifying
DERIVED_LEAST = {("lemma_nearly", "blaschke_deg"), ("lemma_orthocomplement", "blaschke_deg")}


class TestParameterTable:
    """Every size key of every scenario, the other keys at their defaults:
    the table's least value runs, one below it is a usage error naming the
    key and the least value (exit 2), and every default satisfies its row."""

    # sizes that, unchecked, fail inside a builder with a message naming no key
    BUILDER_REFUSED = [
        ("prop_F0K_almost", "N", 2),
        ("lemma_orthocomplement", "poly_N", 4),
        ("lemma_nearly", "inner_N", 3),
        ("prop_perp_almost", "N", 4),
        ("counterexample", "N", 2),
        ("wandering_bound", "N", 2),
        ("wandering_bound", "inner_N", 1),
        ("main_defect1", "NK", 3),
        ("main_defectp", "NK", 3),
        ("corollary_almost", "N", 3),
        ("section4", "NK", 3),
    ]

    @pytest.mark.parametrize("sid, key, least", BUILDER_REFUSED)
    def test_builder_sizes_are_refused_by_name(self, sid, key, least):
        assert _least(SCENARIOS[sid][1], key) == least
        with pytest.raises(ParseError, match=f"parameter '{key}' = {least - 1} is below {least}"):
            run_scenario(sid, {key: least - 1})

    @pytest.mark.parametrize("sid, key", SIZE_KEYS)
    def test_least_value_runs(self, capsys, sid, key):
        least = _least(SCENARIOS[sid][1], key)
        code = main(["scenario", sid, "--param", f"{key}={least}"])
        err = capsys.readouterr().err
        if (sid, key) in DERIVED_LEAST:
            assert code == 2 and f"'{key}' = {least}," in err and "certifies nothing" in err
        else:
            assert code in (0, 1), err

    @pytest.mark.parametrize("sid, key", SIZE_KEYS)
    def test_one_below_least_is_refused(self, capsys, sid, key):
        least = _least(SCENARIOS[sid][1], key)
        named = f"parameter '{key}' = {least - 1} is below {least}, "
        with pytest.raises(ParseError, match=named):
            run_scenario(sid, {key: least - 1})
        assert main(["scenario", sid, "--param", f"{key}={least - 1}"]) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    @pytest.mark.parametrize("sid", list(SCENARIOS))
    def test_every_default_satisfies_its_row(self, sid):
        table = SCENARIOS[sid][1]
        assert scenarios._merge(table, None)[0] == _defaults(table)

    @pytest.mark.parametrize("sid, key, raw", [
        ("lemma_nearly", "zero1", "1.0"),
        ("lemma_nearly", "zero2", "-1.0"),
        ("lemma_orthocomplement", "psi_zero", "1.0"),
        ("lemma_orthocomplement", "theta_zero", "1.5"),
        ("beurling", "theta", "5"),
    ])
    def test_bad_zero_or_symbol_names_its_key(self, capsys, sid, key, raw):
        assert main(["scenario", sid, "--param", f"{key}={raw}"]) == 2
        captured = capsys.readouterr()
        assert f"parameter '{key}'" in captured.err and captured.out == ""


class TestCountLeastValues:
    """A count that its own bound reads, pairs against 2 * min_each_direction
    and draws against 2 * min_each_class: its least value passes at the
    default seed, and one less is a usage error naming the key, not a
    failed scenario."""

    @pytest.mark.parametrize("sid, key, least, bound", [
        ("duality", "pairs", 20, {}),
        ("duality", "pairs", 10, {"min_each_direction": 5}),
        ("section4", "draws", 40, {}),
        ("section4", "draws", 20, {"min_each_class": 10}),
    ])
    def test_least_passes_and_one_less_is_refused(self, capsys, sid, key, least, bound):
        extra = [arg for k, v in bound.items() for arg in ("--param", f"{k}={v}")]
        assert main(["scenario", sid, "--param", f"{key}={least}", *extra]) == 0
        capsys.readouterr()
        assert main(["scenario", sid, "--param", f"{key}={least - 1}", *extra]) == 2
        captured = capsys.readouterr()
        assert f"parameter '{key}' = {least - 1} is below {least}, " in captured.err
        assert "necessary, not sufficient" in captured.err and captured.out == ""


def _readme_rows():
    """README's parameter and kind table rows, rendered from SCENARIOS."""
    for sid, (_, table, _) in SCENARIOS.items():
        for key, (_, kind, *rest) in table.items():
            least, why = rest or ((0 if kind == "size" else ""), "")
            if callable(least):
                least = f"{least(_values(table))} at the defaults"
            yield f"| `{sid}` | `{key}` | {kind} | {least} | {why} |"
    for kind, (want, _) in scenarios._KINDS.items():
        yield f"| {kind} | {want} |"


def test_readme_parameter_table_matches_scenarios():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    missing = [row for row in _readme_rows() if row not in readme]
    assert not missing, "\n".join(missing)


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


class TestSymbolSpecFiles:
    # the specs whose `model-space --order 1024` output CI compares across
    # two processes: Theta_4 and Theta_2 of the large_n benchmark workload
    SPECS = {
        "theta4": lambda: diag_inner([monomial_inner(k, 3) for k in (1, 2, 3, 3)], 3),
        "theta2": lambda: diag_inner(
            [monomial_inner(2, 48), blaschke_scalar(BlaschkeSpec([0.5, -1 / 3]), 48)], 48),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_spec_file_parses_to_its_symbol(self, name):
        t = parse_symbol_spec((DATA / f"{name}.json").read_text())
        want = self.SPECS[name]()
        assert t.claimed_inner and t.mats.dtype == want.mats.dtype
        assert np.array_equal(t.mats, want.mats) and t.tail_bound == want.tail_bound


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


def _fat_ortho_distance(psi, theta, n, tol):
    """The orthocomplement lemma's distance with both sides formed fat: the
    full complement of Psi K_Theta against the span of Psi Theta H^2 and
    K_Psi.  The oracle for ``scenarios._ortho_distance``."""
    k_theta = model_space(theta, n - theta.deg, tol=tol)
    lhs = complement(_apply_space(psi, k_theta, n))
    rhs = _span_columns(
        np.hstack([beurling_space(compose(psi, theta), n, tol=tol).matrix,
                   model_space(psi, n, tol=tol).matrix]),
        psi.m_out, n, tol,
    )
    return subspace_distance(lhs, rhs, band=n - psi.deg - theta.deg)


def _lemma_pair(d, psi_zero, theta_zero):
    """(Psi, Theta) of the lemma_orthocomplement scenario."""
    psi = diag_inner([monomial_inner(3, d), blaschke_scalar(BlaschkeSpec([psi_zero]), d)], d)
    theta = diag_inner([monomial_inner(2, d), blaschke_scalar(BlaschkeSpec([theta_zero]), d)], d)
    return psi, theta


class TestLemmaOrthocomplement:
    """The thin-side distance against the fat oracle, and its sizes."""

    @pytest.mark.parametrize("zeros", list(itertools.product((0.5, -1 / 3, 0.8), repeat=2)),
                             ids=lambda z: f"{z[0]:.3g},{z[1]:.3g}")
    @pytest.mark.parametrize("d, n", [(d, n) for d in (3, 5, 24)
                                      for n in (2 * d, 2 * d + 1, 256)])
    def test_matches_the_fat_oracle(self, d, n, zeros):
        psi, theta = _lemma_pair(d, *zeros)
        try:
            want = _fat_ortho_distance(psi, theta, n, 1e-10)
        except NotInnerError as err:
            # a truncation too short for the zero: both sides refuse it
            with pytest.raises(NotInnerError) as got:
                scenarios._ortho_distance(psi, theta, n, 1e-10)
            assert str(got.value) == str(err)
            return
        got = scenarios._ortho_distance(psi, theta, n, 1e-10)
        assert got == pytest.approx(want, rel=0, abs=1e-13)

    @pytest.mark.parametrize("n", [4, 12, 64])
    def test_polynomial_pair_matches_the_fat_oracle(self, n):
        psi = diag_inner([monomial_inner(1, 2), monomial_inner(2, 2)], 2)
        theta = diag_inner([monomial_inner(2, 2), monomial_inner(1, 2)], 2)
        want = _fat_ortho_distance(psi, theta, n, 1e-10)
        got = scenarios._ortho_distance(psi, theta, n, 1e-10)
        assert got == pytest.approx(want, rel=0, abs=1e-13)

    def test_factors_nothing_wider_than_half_the_ambient(self, monkeypatch):
        # at N = 256 the ambient has n = 2 * 257 rows; the fat form took a
        # full n x n SVD for the complement of Psi K_Theta
        n = 2 * 257
        log = []
        svd, qr = np.linalg.svd, np.linalg.qr

        def recording_svd(a, full_matrices=True, *args, **kwargs):
            log.append(("svd", np.shape(a), full_matrices))
            return svd(a, full_matrices, *args, **kwargs)

        def recording_qr(a, *args, **kwargs):
            log.append(("qr", np.shape(a), False))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        assert run_scenario("lemma_orthocomplement", {"N": 256}).passed
        assert log
        assert all(shape[-1] <= n // 2 for _, shape, _ in log), log
        assert not any(label == "svd" and full and shape[-2] == n
                       for label, shape, full in log), log
