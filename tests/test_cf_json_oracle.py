"""The `cf --output json` writer against the payload route it replaced.

``cli._write_cf_json`` writes the document straight from an expansion's
quotients and convergents.  The reference below is the earlier route: dict
builders for a polynomial, a convergent and an expansion, here reading the
``Fraction`` coefficients, and one ``json.JSONEncoder(indent=2)`` encoding of
the payload.  The writer must give the same bytes.
"""

import argparse
import contextlib
import io
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mahlercf import cli
from mahlercf.contfrac import CFExpansion, expand_family
from mahlercf.polys import RatPoly

TIMESTAMP = "2000-01-01T00:00:00Z"


# -- the reference -------------------------------------------------------------


def poly_json(poly: RatPoly) -> dict:
    return {"coeffs": {str(deg): str(c) for deg, c in sorted(poly.coeffs.items())}}


def convergent_json(conv) -> dict:
    return {"n": conv.index, "p": poly_json(conv.p), "q": poly_json(conv.q), "rate": conv.rate}


def cf_json(cf: CFExpansion, betas: bool) -> dict:
    data = {
        "a": [poly_json(a) for a in cf.partial_quotients],
        "convergents": [convergent_json(c) for c in cf.convergents],
    }
    if betas:
        data["betas"] = [str(cf.beta(n)) for n in range(2, cf.last_index + 1)]
    return data


def expected(cf: CFExpansion, kind: str, no_timestamp: bool) -> str:
    payload = cf_json(cf, betas=kind == "G")
    if not no_timestamp:
        payload["generated_at"] = TIMESTAMP
    return json.JSONEncoder(indent=2).encode(payload) + "\n"


def written(cf: CFExpansion, kind: str, no_timestamp: bool) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(cli, "_timestamp", lambda: TIMESTAMP):
        cli._write_cf_json(cf, argparse.Namespace(kind=kind, no_timestamp=no_timestamp))
    return out.getvalue()


# -- inputs ------------------------------------------------------------------

nonzero = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6).map(Fraction),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
).filter(bool)
coefficients = st.one_of(st.just(Fraction(0)), nonzero)


@st.composite
def polys(draw, min_degree):
    degree = draw(st.integers(min_value=min_degree, max_value=3))
    if degree < 0:
        return RatPoly.zero()
    coeffs = {deg: draw(coefficients) for deg in range(degree)}
    coeffs[degree] = draw(nonzero)
    return RatPoly(coeffs)


# a_0 may be zero or constant; a_1.. have degree >= 1, and the last
# convergent's rate is null
quotient_lists = st.builds(lambda a0, rest: [a0, *rest], polys(-1), st.lists(polys(1), max_size=8))


# -- the tests -------------------------------------------------------------------


@given(quotient_lists, st.sampled_from("GFHU"), st.booleans())
def test_random_quotients(quotients, kind, no_timestamp):
    cf = CFExpansion(quotients)
    assert written(cf, kind, no_timestamp) == expected(cf, kind, no_timestamp)


@pytest.mark.parametrize("no_timestamp", [True, False])
@pytest.mark.parametrize("kind", "GFHU")
@pytest.mark.parametrize("d", [2, 3])
def test_family_expansions(d, kind, no_timestamp):
    cf, _ = expand_family(d, kind, 40 if kind == "G" else 20)
    assert written(cf, kind, no_timestamp) == expected(cf, kind, no_timestamp)


@pytest.mark.parametrize("argv", [["--d", "2", "--n", "200"], ["--d", "3", "--n", "25", "--kind", "U"]])
def test_cf_command_writes_one_dumps_of_the_payload(capsys, argv):
    assert cli.main(["cf", *argv, "--output", "json", "--no-timestamp"]) == 0
    args = dict(zip(argv[::2], argv[1::2]))
    kind = args.get("--kind", "G")
    cf, _ = expand_family(int(args["--d"]), kind, int(args["--n"]))
    assert capsys.readouterr().out == expected(cf, kind, no_timestamp=True)
