"""Round-trip and diagnostics tests for the JSON formats."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardylab.errors import DomainError, ParseError
from hardylab.funcs import make_fn
from hardylab.inner import BlaschkeSpec, blaschke_scalar
from hardylab.serialize import (
    parse_function_list,
    parse_function_spec,
    parse_space_spec,
    parse_symbol_spec,
    serialize_function,
)
from hardylab.subspaces import from_spanning, subspace_distance


@st.composite
def coeff_fns(draw):
    m = draw(st.integers(1, 3))
    deg = draw(st.integers(0, 5))
    finite = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
    rows = draw(
        st.lists(
            st.lists(st.tuples(finite, finite), min_size=m, max_size=m),
            min_size=deg + 1, max_size=deg + 1,
        )
    )
    return make_fn(m, [[complex(re, im) for re, im in row] for row in rows])


class TestFunctionFormat:
    def test_constant(self):
        f = parse_function_spec('{"m":1,"coeffs":[[[1,0]]]}')
        assert f.dim_m == 1 and f.deg == 0
        assert f.coeffs[0, 0] == 1.0

    def test_shifted_vector(self):
        f = parse_function_spec('{"m":2,"coeffs":[[[0,0],[0,0]],[[1,0],[0,0]]]}')
        assert f.deg == 1
        assert f.coeffs[1, 0] == 1.0

    @given(coeff_fns())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, f):
        back = parse_function_spec(json.dumps(serialize_function(f)))
        assert back.dim_m == f.dim_m
        assert np.allclose(back.coeffs, f.coeffs)

    def test_invalid_json_carries_location(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_function_spec('{"m":1,')

    def test_ragged_coeffs_carry_path(self):
        with pytest.raises(ParseError, match=r"coeffs\[1\]"):
            parse_function_spec('{"m":2,"coeffs":[[[1,0],[0,0]],[[1,0]]]}')

    def test_bad_pair_carries_path(self):
        with pytest.raises(ParseError, match=r"coeffs\[0\]\[0\]"):
            parse_function_spec('{"m":1,"coeffs":[[[1]]]}')

    def test_non_finite_rejected(self):
        with pytest.raises(ParseError, match="non-finite"):
            parse_function_spec('{"m":1,"coeffs":[[[1e999,0]]]}')

    def test_missing_m(self):
        with pytest.raises(ParseError, match="m:"):
            parse_function_spec('{"coeffs":[[[1,0]]]}')


class TestSymbolFormat:
    def test_diag_of_monomials(self):
        t = parse_symbol_spec(
            '{"kind":"diag","deg":1,"entries":[{"kind":"monomial","k":1},'
            '{"kind":"monomial","k":1}]}'
        )
        assert t.m_out == t.m_in == 2
        assert np.allclose(t.mats[1], np.eye(2))
        assert t.claimed_inner

    def test_blaschke_truncation(self):
        t = parse_symbol_spec('{"kind":"blaschke","zeros":[[0.5,0]],"deg":32}')
        direct = blaschke_scalar(BlaschkeSpec([0.5]), 32)
        assert np.allclose(t.mats, direct.mats)
        assert t.tail_bound == pytest.approx(direct.tail_bound)

    def test_poly_constant(self):
        t = parse_symbol_spec('{"kind":"poly","coeffs":[[1,0]]}')
        assert t.m_out == t.m_in == 1
        assert t.mats[0, 0, 0] == 1.0
        assert not t.claimed_inner

    def test_matrix_assembly(self):
        t = parse_symbol_spec(
            '{"kind":"matrix","deg":2,"rows":'
            '[[{"kind":"monomial","k":1},{"kind":"poly","coeffs":[[0,0]]}],'
            '[{"kind":"poly","coeffs":[[0,0]]},{"kind":"monomial","k":2}]]}'
        )
        assert t.m_out == t.m_in == 2
        assert t.mats[1, 0, 0] == 1.0
        assert t.mats[2, 1, 1] == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="unknown scalar kind"):
            parse_symbol_spec('{"kind":"outer","deg":2}')

    def test_zero_outside_disc(self):
        with pytest.raises(DomainError):
            parse_symbol_spec('{"kind":"blaschke","zeros":[[1.5,0]],"deg":4}')

    def test_ragged_matrix(self):
        with pytest.raises(ParseError, match=r"rows\[1\]"):
            parse_symbol_spec(
                '{"kind":"matrix","deg":1,"rows":[[{"kind":"monomial","k":0},'
                '{"kind":"monomial","k":0}],[{"kind":"monomial","k":0}]]}'
            )


class TestSpaceFormat:
    def test_roundtrip_projectors(self):
        fns = [make_fn(2, [[1, 0]]), make_fn(2, [[0, 0], [0, 1]]),
               make_fn(2, [[1, 1], [1, 0]])]
        space = from_spanning(fns, 4)
        doc = {"m": space.dim_m, "ambient_deg": space.ambient_deg, "tol": space.tol,
               "spanning": [serialize_function(b)["coeffs"] for b in space.basis]}
        back = parse_space_spec(json.dumps(doc))
        assert subspace_distance(space, back) <= 1e-12

    def test_function_list(self):
        doc = {"m": 1, "functions": [[[[1, 0]]], [[[0, 0]], [[1, 0]]]]}
        fns = parse_function_list(json.dumps(doc))
        assert len(fns) == 2
        assert fns[1].deg == 1

    def test_bad_tol(self):
        with pytest.raises(ParseError, match="tol"):
            parse_space_spec('{"m":1,"ambient_deg":2,"tol":0,"spanning":[]}')

    @pytest.mark.parametrize("tol", ["NaN", "Infinity"])
    def test_non_finite_tol(self, tol):
        # json.loads accepts these; NaN would compare False against 0 and
        # cut every direction, parsing span{1, z} as the zero space
        text = ('{"m":1,"ambient_deg":3,"spanning":[[[[1,0]]],[[[0,0]],[[1,0]]]],'
                f'"tol":{tol}}}')
        with pytest.raises(ParseError, match="tol"):
            parse_space_spec(text)


class TestBooleansAreNotNumbers:
    """JSON true/false never pass as a dimension, degree, tolerance or entry."""

    @pytest.mark.parametrize("parse, text, path", [
        (parse_function_spec, '{"m":true,"coeffs":[[[1,0]]]}', "m"),
        (parse_function_spec, '{"m":1,"coeffs":[[[true,false]]]}', r"coeffs\[0\]\[0\]"),
        (parse_function_list, '{"m":1,"functions":[[[[1,false]]]]}', r"functions\[0\]\[0\]\[0\]"),
        (parse_symbol_spec, '{"kind":"monomial","k":true}', r"\.k"),
        (parse_symbol_spec, '{"kind":"monomial","k":1,"deg":true}', "deg"),
        (parse_symbol_spec, '{"kind":"blaschke","zeros":[[0.5,0]],"rotation":[true,0],"deg":4}',
         "rotation"),
        (parse_symbol_spec, '{"kind":"poly","coeffs":[[1,0],[0,true]]}', r"coeffs\[1\]"),
        (parse_space_spec, '{"m":1,"ambient_deg":true,"spanning":[[[[1,0]]]]}', "ambient_deg"),
        (parse_space_spec, '{"m":1,"ambient_deg":2,"tol":true,"spanning":[[[[1,0]]]]}', "tol"),
    ])
    def test_refused_with_its_path(self, parse, text, path):
        with pytest.raises(ParseError, match=path):
            parse(text)


class TestEntryDegree:
    def test_monomial_entry_above_deg_is_refused(self):
        text = ('{"kind":"diag","entries":[{"kind":"monomial","k":5},'
                '{"kind":"monomial","k":1}],"deg":3}')
        with pytest.raises(ParseError, match=r"entries\[0\]\.k.*deg 3"):
            parse_symbol_spec(text)

    def test_matrix_entry_above_deg_is_refused(self):
        text = '{"kind":"matrix","rows":[[{"kind":"monomial","k":2}]],"deg":1}'
        with pytest.raises(ParseError, match=r"rows\[0\]\[0\]\.k.*deg 1"):
            parse_symbol_spec(text)

    def test_top_level_monomial_lifts_deg(self):
        t = parse_symbol_spec('{"kind":"monomial","k":5,"deg":3}')
        assert t.deg == 5 and t.mats[5, 0, 0] == 1.0

    def test_entry_that_is_not_an_object(self):
        with pytest.raises(ParseError, match=r"entries\[1\]"):
            parse_symbol_spec('{"kind":"diag","entries":[{"kind":"monomial","k":1},3],"deg":1}')
