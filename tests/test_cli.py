import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cobkit import cli, contfrac, twobridge
from cobkit.arith import DIGIT_LIMIT, check_digits, dec
from cobkit.cli import SCAN_CAP_ENV, _json_rows, _Quarters, main
from cobkit.contfrac import format_cf, parse_cf
from cobkit.errors import ResourceLimitError
from cobkit.lens import ORDER_ANNOTATIONS, CensusRow, LensSpace, census, classify_order, table1
from oracles import all_valid_triples, bounds_from_json_dict, fraction_fold

GOLDEN_TABLE_CSV = """\
alpha,beta,m_lower,mbar_upper,cf,order
3,1,0.5,4.5,[3],inf
5,3,-2.0,2.0,"[1,2,-2]",<=2
7,1,1.5,13.5,[7],inf
7,3,0.5,4.5,"[2,4,-1]",inf
9,1,2.0,18.0,[9],inf
9,5,-2.0,2.0,"[1,2,-1,-2,-1]",0
11,1,2.5,22.5,[11],inf
11,3,0.5,4.5,"[3,2,-2]",inf
11,5,0.5,4.5,"[2,6,-1]",inf
13,1,3.0,27.0,[13],inf
13,3,1.0,9.0,"[4,2,1]",inf
13,5,-2.0,2.0,"[2,2,-3]",<=2
13,7,-2.0,2.0,"[1,2,-1,-4,-1]",?
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestDec:
    def test_decimal_denominators(self):
        assert dec(Fraction(1, 2)) == "0.5"
        assert dec(Fraction(-3, 2)) == "-1.5"
        assert dec(Fraction(1, 4)) == "0.25"
        assert dec(Fraction(7, 20)) == "0.35"
        assert dec(Fraction(-2)) == "-2.0"
        assert dec(5) == "5.0"

    def test_other_denominators(self):
        assert dec(Fraction(1, 3)) == "1/3"
        assert dec(Fraction(-5, 6)) == "-5/6"


class TestTable:
    def test_golden_csv(self, capsys):
        code, out, err = run(capsys, "table1", "--csv")
        assert code == 0
        assert out == GOLDEN_TABLE_CSV

    def test_json_matches_csv(self, capsys):
        payload = run_json(capsys, "table1", "--json")
        rows = payload["rows"]
        assert len(rows) == 13
        assert rows[0]["alpha"] == 3 and rows[0]["order"] == "inf"
        assert rows[1]["bounds"]["m_lower"] == "-2"
        assert rows[12]["order"] == "?"

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        assert "alpha" in out and "13" in out


class TestLens:
    def test_json_series_member(self, capsys):
        payload = run_json(capsys, "lens", "39", "17", "--json")
        assert payload["alpha"] == 39
        assert payload["cf"] == "[2,4,-1,-2,2]"
        assert payload["bounds"]["m_lower"] == "-3/2"
        assert payload["bounds"]["rokhlin"] == 2
        assert payload["order"] == "?"

    def test_bounds_round_trip(self, capsys):
        payload = run_json(capsys, "lens", "13", "5", "--json")
        bounds = bounds_from_json_dict(payload["bounds"])
        assert bounds.m_lower == -2 and bounds.rokhlin.value == 0

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "lens", "3", "1")
        assert code == 0
        assert "L(3,1)" in out
        assert "order:      inf" in out
        assert "rokhlin:    2" in out

    def test_even_beta_mirror(self, capsys):
        payload = run_json(capsys, "lens", "5", "2", "--json")
        assert payload["cf"] == "[1,2,-2]"
        assert payload["bounds"]["rokhlin"] == 0
        assert "reversed mirror" in payload["bounds"]["provenance"][0]

    def test_supplied_cf(self, capsys):
        payload = run_json(capsys, "lens", "13", "5", "--cf", "[2,2,-3]", "--json")
        assert payload["cf"] == "[2,2,-3]"

    def test_long_euclid_chain(self, capsys):
        # F(2002)/F(2001): the even-beta mirror F(2002)/F(2000) takes about
        # 2,000 Euclid steps
        beta, alpha = 0, 1
        for _ in range(2001):
            beta, alpha = alpha, beta + alpha
        payload = run_json(capsys, "lens", str(alpha), str(beta), "--json")
        value = fraction_fold([int(t) for t in payload["cf"][1:-1].split(",")])
        assert value == Fraction(alpha, alpha - beta)

    def test_csv_single_row(self, capsys):
        code, out, _ = run(capsys, "lens", "3", "1", "--csv")
        assert code == 0
        assert out.splitlines()[1] == "3,1,0.5,4.5,[3],inf"

    @pytest.mark.parametrize("fmt", [(), ("--json",), ("--csv",)])
    def test_expansion_formatted_once(self, capsys, monkeypatch, fmt):
        # the report keeps the row classify_order built; nothing formats it again
        calls = []
        format_terms = contfrac._format_terms

        def counting(terms):
            calls.append(tuple(terms))
            return format_terms(terms)

        monkeypatch.setattr("cobkit.contfrac._format_terms", counting)
        monkeypatch.setattr("cobkit.lens._format_terms", counting)
        code, out, _ = run(capsys, "lens", "39", "22", *fmt)
        assert code == 0 and "[2,4,-1,-2,2]" in out
        assert calls == [(2, 4, -1, -2, 2)]

    def test_domain_errors(self, capsys):
        for argv in (("lens", "4", "1"), ("lens", "9", "3"), ("lens", "5", "5")):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "domain error" in err


class TestCf:
    def test_search(self, capsys):
        code, out, _ = run(capsys, "cf", "11", "9")
        assert code == 0 and out.strip() == "11/9 = [1,4,2]"

    def test_positive_json(self, capsys):
        payload = run_json(capsys, "cf", "21", "17", "--positive", "--json")
        assert payload["cf"] == "[1,4,4]"
        assert payload["a"] == [1, 4] and payload["b"] == [2]

    def test_positive_absent(self, capsys):
        code, out, _ = run(capsys, "cf", "5", "3", "--positive")
        assert code == 0 and "no greedy all-positive expansion" in out
        payload = run_json(capsys, "cf", "5", "3", "--positive", "--json")
        assert payload["cf"] is None

    def test_even_beta_rejected(self, capsys):
        code, _, err = run(capsys, "cf", "5", "2")
        assert code == 2 and "odd beta" in err

    @pytest.mark.parametrize(
        "alpha, beta, message",
        [
            ("8", "3", "requires odd alpha"),
            ("8", "4", "requires gcd(alpha, beta) = 1"),
            ("8", "9", "requires 0 < beta < alpha"),
        ],
    )
    def test_positive_refuses_before_the_walk(self, capsys, monkeypatch, alpha, beta, message):
        # the pair's refusals come first, in find_admissible_cf's order,
        # then the parity of alpha; no refused pair is walked
        walks = []
        monkeypatch.setattr("cobkit.contfrac._walk", lambda *pair: walks.append(pair))
        refused = (2, "", f"domain error: {message}\n")
        assert run(capsys, "cf", alpha, beta, "--positive") == refused
        assert walks == []


class TestTwobridge:
    def test_knot_json(self, capsys):
        payload = run_json(capsys, "twobridge", "[2,4,-1,-2,2]", "--json")
        assert payload["signature"] == 2
        assert payload["determinant"] == 39
        assert payload["is_knot"] is True
        assert payload["slice_genus_upper"]["value"] == 2

    def test_link_json(self, capsys):
        payload = run_json(capsys, "twobridge", "[2]", "--json")
        assert payload["is_knot"] is False
        assert payload["slice_genus_upper"] is None

    def test_text(self, capsys):
        code, out, _ = run(capsys, "twobridge", "[3]")
        assert code == 0
        assert "S(3,1)" in out and "signature:   2" in out

    def test_bad_cf(self, capsys):
        code, _, err = run(capsys, "twobridge", "[1,3,2]")
        assert code == 2

    @pytest.mark.parametrize("text, a", [("[2,4,-1,-2,2]", (2, -1, 2)), ("[2]", (2,))])
    def test_one_tally(self, capsys, monkeypatch, text, a):
        # the knot test, the signature, the odd counts and, for a knot, the
        # genus bound all come from one tally of the a-terms, and only a
        # knot's tally goes on to the genus bound
        tallied = []
        tally, tally_invariants = twobridge._tally, twobridge._tally_invariants

        def counting(terms):
            tallied.append(tuple(terms))
            return tally(terms)

        def bounding(*args):
            tallied.append(args)
            return tally_invariants(*args)

        monkeypatch.setattr("cobkit.twobridge._tally", counting)
        monkeypatch.setattr("cobkit.twobridge._tally_invariants", bounding)
        assert run(capsys, "twobridge", text)[0] == 0
        knot = sum(a) % 2
        assert tallied[0] == a and len(tallied) == 1 + knot


class TestPlumbing:
    def test_json(self, capsys):
        payload = run_json(capsys, "plumbing", "2", "3", "7", "--json")
        assert payload["rank"] == 10
        assert payload["signature"] == -8
        assert payload["determinant_abs"] == 1
        assert payload["bounds"]["m_exact"] == "-2"
        assert payload["bounds"]["rokhlin"] == 8

    def test_invalid_triple(self, capsys):
        code, _, err = run(capsys, "plumbing", "2", "3", "5")
        assert code == 2 and "domain error" in err

    def test_montesinos_json(self, capsys):
        payload = run_json(capsys, "montesinos", "2", "3", "7", "--json")
        assert payload["slice_genus"] == 5
        assert payload["unknotting_number"] == 5
        assert payload["signature"] == 8


class TestSurgeryCheck:
    def test_congruence_obstruction(self, capsys):
        payload = run_json(capsys, "surgery-check", "--h", "21", "--rokhlin", "8", "--json")
        assert payload["conclusion"] == "not_integral_surgery_on_knot"
        assert payload["tests"][0]["name"] == "congruence"

    def test_forced_sign_text(self, capsys):
        code, out, _ = run(capsys, "surgery-check", "--h", "3", "--rokhlin", "2")
        assert code == 0 and "framing_sign_forced:-" in out

    def test_lens_and_det(self, capsys):
        payload = run_json(
            capsys, "surgery-check", "--lens", "5", "2", "--det", "15", "--json"
        )
        assert payload["conclusion"] == "not_integral_surgery_on_knot"
        assert len(payload["tests"]) == 2

    def test_no_inputs(self, capsys):
        code, _, err = run(capsys, "surgery-check")
        assert code == 2


class TestGenusBound:
    def test_lens_input(self, capsys):
        payload = run_json(capsys, "genus-bound", "--lens", "39", "17", "--json")
        assert payload == {
            "h": 39,
            "rokhlin": 2,
            "m_lower": "-3/2",
            "genus_lower": "3",
        }

    def test_manual_input_agrees(self, capsys):
        payload = run_json(
            capsys, "genus-bound", "--h", "39", "--rokhlin", "2", "--m-lower=-3/2", "--json"
        )
        assert payload["genus_lower"] == "3"

    def test_conflicting_inputs(self, capsys):
        code, _, err = run(capsys, "genus-bound", "--lens", "39", "17", "--h", "5")
        assert code == 1 and "usage error" in err

    def test_missing_inputs(self, capsys):
        code, _, err = run(capsys, "genus-bound")
        assert code == 1

    def test_cf_needs_lens(self, capsys):
        code, out, err = run(
            capsys, "genus-bound", "--h", "39", "--rokhlin", "2", "--m-lower=-3/2", "--cf", "[3]"
        )
        assert (code, out, err) == (1, "", "usage error: --cf needs --lens\n")

    @pytest.mark.parametrize("value", ["abc", "1/0"])
    def test_bad_m_lower(self, capsys, value):
        code, _, err = run(
            capsys, "genus-bound", "--h", "39", "--rokhlin", "2", f"--m-lower={value}"
        )
        assert code == 1
        assert err.startswith("usage error: ") and "--m-lower" in err


# 3,001 terms: the value alpha/beta has more than 4,300 digits
LONG_CF = "[" + ",".join(map(str, [99, 98] * 1500 + [99])) + "]"
# 401 terms whose value has about 800 digits
LONG_CF_401 = "[" + ",".join(map(str, [99, 98] * 200 + [99])) + "]"
# h = 7 mod 8, as h - 1 = -R mod 8 asks for R = 2
H_4300 = "1" * 4300
H_4000 = "1" * 4000
CAP = f"exceeds the {DIGIT_LIMIT}-digit cap"


def _run_from_source(argv, env, launcher=(), **kwargs):
    """python -m cobkit argv from this tree's src, in the environment env,
    started through the launcher command if one is given."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [*launcher, sys.executable, "-m", "cobkit", *argv],
        env={**env, "PYTHONPATH": path}, text=True, **kwargs,
    )


def _block_buffered_env():
    """os.environ without PYTHONUNBUFFERED, so stdout on a file is block-buffered."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _run_at_the_minimum_limit(argv):
    """python -m cobkit argv with Python's minimum int-to-str limit, 640."""
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": "640"}
    return _run_from_source(argv, env, capture_output=True)


class TestDigitCap:
    @pytest.mark.parametrize("mode", [(), ("--json",)])
    @pytest.mark.parametrize("value", ["1e5000", "1e-5000", "0e4001", "1" * 4001])
    def test_long_rational_argument(self, capsys, mode, value):
        code, out, err = run(
            capsys, "genus-bound", "--h", "39", "--rokhlin", "2", f"--m-lower={value}", *mode
        )
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --m-lower: {CAP}\n"

    def test_long_integer_argument(self, capsys):
        code, out, err = run(
            capsys, "genus-bound", "--h", H_4300, "--rokhlin", "2", "--m-lower=1/4"
        )
        assert (code, out) == (1, "")
        assert err == f"usage error: argument --h: {CAP}\n"

    def test_integer_argument_at_the_cap(self, capsys):
        code, out, _ = run(capsys, "surgery-check", "--h", H_4000, "--rokhlin", "2")
        assert code == 0 and out.endswith("conclusion: framing_sign_forced:+\n")

    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_long_expansion_value(self, capsys, mode):
        code, out, err = run(capsys, "twobridge", LONG_CF, *mode)
        assert (code, out) == (2, "")
        assert err == f"domain error: a number {CAP}\n"

    def test_long_result(self, capsys):
        # h/8 - 1 printed as a decimal needs 4,003 digits; as p/q it fits
        code, out, err = run(
            capsys, "genus-bound", "--h", H_4000, "--rokhlin", "2", "--m-lower=1/4"
        )
        assert (code, out) == (2, "")
        assert err == f"domain error: a number {CAP}\n"
        payload = run_json(
            capsys, "genus-bound", "--h", H_4000, "--rokhlin", "2", "--m-lower=1/4", "--json"
        )
        assert Fraction(payload["genus_lower"]) == Fraction(int(H_4000), 8) - 1

    @pytest.mark.parametrize("mode", [(), ("--json",), ("--csv",)])
    def test_long_lens_bound(self, capsys, mode):
        # mbar_upper of L(a, 1) is 9(a - 1)/4: 4,001 digits for this
        # 4,000-digit a, and 4,000 for the one below it
        code, out, err = run(capsys, "lens", str(9 * 10 ** (DIGIT_LIMIT - 1) + 1), "1", *mode)
        assert (code, out, err) == (2, "", f"domain error: a number {CAP}\n")
        code, out, err = run(capsys, "lens", str(10 ** (DIGIT_LIMIT - 1) + 1), "1", *mode)
        assert (code, err) == (0, "")
        assert str(9 * 10 ** (DIGIT_LIMIT - 1) // 4) in out

    @pytest.mark.parametrize("mode", [(), ("--json",), ("--csv",)])
    def test_long_lens_bound_below_the_interpreter_limit(self, mode):
        # the same pair of cases at a 340-digit cap
        for alpha, code, err in (
            (9 * 10**339 + 1, 2, "domain error: a number exceeds the 340-digit cap\n"),
            (10**339 + 1, 0, ""),
        ):
            proc = _run_at_the_minimum_limit(["lens", str(alpha), "1", *mode])
            assert (proc.returncode, proc.stderr) == (code, err)
            assert (str(9 * 10**339 // 4) in proc.stdout) == (code == 0)

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["twobridge", LONG_CF_401], 2, "domain error: a number exceeds the 340-digit cap\n"),
            (["cf", "1" * 341, "1"], 1, "usage error: argument alpha: exceeds the 340-digit cap\n"),
            (["cf", "1" * 340, "1"], 0, ""),
        ],
    )
    def test_interpreter_limit_below_the_cap(self, argv, code, err):
        # Python's minimum int-to-str limit leaves a 340-digit cap
        proc = _run_at_the_minimum_limit(argv)
        assert (proc.returncode, proc.stderr) == (code, err)
        if code == 0:
            assert proc.stdout == f"{argv[1]}/1 = [{argv[1]}]\n"


def _digits(lead, zeros, tail):
    return f"{lead}{'0' * zeros}{tail}"


# digit counts on either side of the digit cap and of Python's 4,300-digit
# int-to-str limit
HUGE = st.one_of(st.integers(3990, 4010), st.integers(4290, 4310), st.just(4400))
NUMBER = st.one_of(
    st.integers(-3, 60).map(str),
    st.integers(-(10**30), 10**30).map(str),
    st.builds(_digits, st.integers(-9, 99), HUGE, st.integers(0, 9)),
)
RATIONAL = st.one_of(
    NUMBER,
    st.builds("{}/{}".format, NUMBER, NUMBER),
    # |exponent| <= 5000, which evaluates quickly everywhere
    st.builds(
        "{}e{}".format,
        st.integers(-99, 99),
        st.one_of(st.integers(-30, 30), HUGE, HUGE.map(int.__neg__), st.just(5000)),
    ),
    st.builds("{}.{}".format, st.integers(-99, 99), st.integers(0, 10**6)),
    st.sampled_from(["abc", "1/0", "", "1e", "-3/2", "0.25"]),
)
CF_TEXT = st.one_of(
    st.lists(st.integers(-99, 99), max_size=9).map(
        lambda terms: "[" + ",".join(map(str, terms)) + "]"
    ),
    st.text(max_size=10),
)
SMALL = st.integers(-3, 25).map(str)
MODULUS = st.integers(-(10**4), 10**4).map(str)
MODE = st.lists(st.sampled_from(["--json", "--csv", "--positive", "--help"]), max_size=2)


def _option(flag, *values):
    return st.tuples(*values).map(lambda drawn: [flag, *drawn])


@st.composite
def congruent_h(draw):
    """--h and --rokhlin with h - 1 = -R mod 8, which genus-bound needs."""
    r = draw(st.sampled_from([0, 2, 6, 8, 10, 14]))
    lead = draw(st.integers(0, 99))
    zeros = draw(st.one_of(st.integers(3, 30), HUGE))
    return ["--h", _digits(lead, zeros, (1 - r) % 8), "--rokhlin", str(r)]


VERB_ARGS = {
    "lens": st.tuples(NUMBER, NUMBER).map(list),
    "cf": st.tuples(NUMBER, NUMBER).map(list),
    "twobridge": CF_TEXT.map(lambda text: [text]),
    "plumbing": st.lists(SMALL, min_size=3, max_size=3),
    "montesinos": st.lists(SMALL, min_size=3, max_size=3),
    "surgery-check": st.just([]),
    "genus-bound": st.one_of(
        st.tuples(congruent_h(), RATIONAL).map(lambda t: [*t[0], f"--m-lower={t[1]}"]),
        st.tuples(NUMBER, NUMBER).map(lambda ab: ["--lens", *ab]),
    ),
    "table1": st.just([]),
    "scan": st.integers(-3, 51).map(lambda n: ["--alpha-max", str(n)]),
}
OPTIONS = st.lists(
    st.one_of(
        _option("--cf", CF_TEXT),
        _option("--h", NUMBER),
        _option("--rokhlin", SMALL),
        _option("--lens", MODULUS, MODULUS),
        _option("--lens", NUMBER, NUMBER),
        _option("--det", MODULUS),
        RATIONAL.map(lambda v: [f"--m-lower={v}"]),
    ),
    max_size=4,
).map(lambda groups: [arg for group in groups for arg in group])


@st.composite
def argvs(draw):
    verb = draw(st.sampled_from(sorted(VERB_ARGS) + ["bogus"]))
    positional = draw(VERB_ARGS.get(verb, st.just([])))
    return [verb, *positional, *draw(OPTIONS), *draw(MODE)]


class TestFuzz:
    """Random argv in process: every call returns an exit code, none raises."""

    @settings(max_examples=300, deadline=None)
    @given(argvs())
    @example(["genus-bound", "--h", "39", "--rokhlin", "2", "--m-lower=1e5000"])
    @example(["genus-bound", "--h", "39", "--rokhlin", "2", "--m-lower=1e5000", "--json"])
    @example(["twobridge", LONG_CF])
    @example(["genus-bound", "--h", H_4300, "--rokhlin", "2", "--m-lower=1/4"])
    def test_exit_code(self, argv):
        out, err = io.StringIO(), io.StringIO()
        # the cap keeps every scan small whatever --alpha-max is drawn
        with mock.patch.dict(os.environ, {SCAN_CAP_ENV: "51"}):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()


class TestScan:
    def test_deterministic(self, capsys):
        code, first, _ = run(capsys, "scan", "--alpha-max", "9")
        assert code == 0
        code, second, _ = run(capsys, "scan", "--alpha-max", "9")
        assert first == second
        lines = first.splitlines()
        assert lines[0] == "alpha,beta,m_lower,mbar_upper,cf,order"
        assert lines[1].startswith("3,1,")
        # odd beta only, one row per pair
        pairs = [tuple(map(int, l.split(",")[:2])) for l in lines[1:]]
        assert pairs == [
            (3, 1),
            (5, 1),
            (5, 3),
            (7, 1),
            (7, 3),
            (7, 5),
            (9, 1),
            (9, 5),
            (9, 7),
        ]

    def test_json_mode(self, capsys):
        payload = run_json(capsys, "scan", "--alpha-max", "5", "--json")
        assert [r["alpha"] for r in payload["rows"]] == [3, 5, 5]
        assert payload["rows"][0]["m_lower"] == "1/2"

    def test_default_cap(self, capsys):
        code, _, err = run(capsys, "scan", "--alpha-max", "2001")
        assert code == 2 and SCAN_CAP_ENV in err

    def test_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv(SCAN_CAP_ENV, "9")
        code, _, err = run(capsys, "scan", "--alpha-max", "11")
        assert code == 2 and SCAN_CAP_ENV in err
        code, out, _ = run(capsys, "scan", "--alpha-max", "9")
        assert code == 0

    def test_minimum(self, capsys):
        code, _, err = run(capsys, "scan", "--alpha-max", "2")
        assert code == 2

    def test_env_cap_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv(SCAN_CAP_ENV, "abc")
        code, out, err = run(capsys, "scan", "--alpha-max", "9")
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and SCAN_CAP_ENV in err

    def test_env_cap_too_long(self, capsys, monkeypatch):
        # int() would hit the interpreter's own digit limit first
        monkeypatch.setenv(SCAN_CAP_ENV, "1" * 5000)
        code, out, err = run(capsys, "scan", "--alpha-max", "9")
        assert (code, out) == (1, "")
        assert err == f"usage error: {SCAN_CAP_ENV} exceeds the {DIGIT_LIMIT}-digit cap\n"

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ((), "920cbbd365285225a459c242e8719e0448ad997ef4dddd421827b6f7012d52c6"),
            (("--json",), "ac222cbc6cc0944153431907983fd032f89c916a3b4a9743ebb3f7b01a4aa7fc"),
        ],
    )
    def test_output_pinned(self, capsys, mode, digest):
        code, out, _ = run(capsys, "scan", "--alpha-max", "99", *mode)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "mode, digest",
        [
            ((), "cb73a42d6670c56bdd3faade0bd300e167c6894626deb0106daa2b6abf54e3eb"),
            (("--json",), "72c19f28a3e258c76065cefe7a00a145bdc69561ab70991d681e8aa2a7876159"),
        ],
    )
    def test_census_399_pinned(self, capsys, mode, digest):
        # the benchmark's sweep, 16,182 rows
        start = time.perf_counter()
        code, out, _ = run(capsys, "scan", "--alpha-max", "399", *mode)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s, budget 10s"

    def test_json_pinned_without_c_encoder(self, capsys):
        with _c_encoder(None):
            code, out, _ = run(capsys, "scan", "--alpha-max", "99", "--json")
        assert code == 0
        assert (
            hashlib.sha256(out.encode()).hexdigest()
            == "ac222cbc6cc0944153431907983fd032f89c916a3b4a9743ebb3f7b01a4aa7fc"
        )

    def test_printers_agree_with_the_census_399(self, capsys):
        # every row's CSV decimals and JSON p/q strings read back as the
        # census row's exact bounds
        start = time.perf_counter()
        code, out, _ = run(capsys, "scan", "--alpha-max", "399")
        assert code == 0
        csv_rows = list(csv.reader(io.StringIO(out)))[1:]
        json_rows = run_json(capsys, "scan", "--alpha-max", "399", "--json")["rows"]
        rows = list(census(399))
        assert len(rows) == len(csv_rows) == len(json_rows) == 16182
        for row, line, doc in zip(rows, csv_rows, json_rows):
            assert (int(line[0]), int(line[1])) == (row.alpha, row.beta), line
            assert (doc["alpha"], doc["beta"]) == (row.alpha, row.beta), doc
            for decimal, ratio, exact in (
                (line[2], doc["m_lower"], row.m_lower),
                (line[3], doc["mbar_upper"], row.mbar_upper),
            ):
                assert re.fullmatch(r"-?\d+\.\d+", decimal), line
                assert re.fullmatch(r"-?\d+(/\d+)?", ratio), doc
                assert Fraction(decimal) == Fraction(ratio) == exact, (line, doc)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"sweeps took {elapsed:.2f}s, budget 10s"


def _count(n_digits):
    return st.builds(
        lambda sign, lead, zeros, tail: sign * (lead * 10**zeros + tail),
        st.sampled_from([1, -1]),
        st.integers(1, 99),
        n_digits,
        st.integers(0, 9),
    )


# quarter counts: small, and with digit counts on either side of the cap
QUARTER_COUNTS = st.one_of(
    st.integers(-1000, 1000),
    _count(HUGE),
    _count(st.integers(DIGIT_LIMIT - 3, DIGIT_LIMIT + 3)),
)
# a row's two counts: small, and with DIGIT_LIMIT +- 3 digits
ROW_COUNTS = st.one_of(
    st.integers(-1000, 1000),
    _count(st.integers(DIGIT_LIMIT - 3, DIGIT_LIMIT + 3)),
)


def _json_text(x):
    return str(check_digits(x))


class TestQuarterTexts:
    """The memo behind the CSV, text and scan JSON bounds prints each
    quarter count as the printers print its Fraction, cap included."""

    @settings(max_examples=200, deadline=None)
    @given(QUARTER_COUNTS)
    @example(10**DIGIT_LIMIT - 1)  # a JSON text, past the cap as a decimal
    @example(4 * (10**DIGIT_LIMIT - 1))  # both print
    @example(-4 * 10**DIGIT_LIMIT)  # neither prints
    def test_texts_match_the_printers(self, n):
        for as_json, reference in ((False, dec), (True, _json_text)):
            texts = _Quarters(as_json)
            try:
                want = reference(Fraction(n, 4))
            except ResourceLimitError as exc:
                for _ in range(2):  # a refused value is not kept
                    with pytest.raises(ResourceLimitError) as info:
                        texts[n]
                    assert str(info.value) == str(exc)
                assert n not in texts
            else:
                assert texts[n] == want
                assert texts[n] is texts[n]
                assert texts == {n: want}

    @pytest.mark.parametrize(
        "argv, printer, rows",
        [
            (["table1", "--csv"], "dec", lambda: [r.row for r in table1()]),
            (["table1"], "dec", lambda: [r.row for r in table1()]),
            (["scan", "--alpha-max", "99", "--json"], "check_digits", lambda: census(99)),
        ],
    )
    def test_each_render_prints_each_bound_once(self, capsys, monkeypatch, argv, printer, rows):
        printed = []
        original = getattr(cli, printer)

        def counted(x):
            printed.append(x)
            return original(x)

        monkeypatch.setattr(cli, printer, counted)
        outputs = [run(capsys, *argv) for _ in range(2)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0
        distinct = {q for row in rows() for q in (row.lower, row.upper)}
        # two renders share no memo: each prints every distinct bound once
        assert sorted(printed) == sorted(Fraction(q, 4) for q in distinct for _ in range(2))


def _c_encoder(factory):
    """json's C encoder factory replaced by this one; None stands for a
    Python without one."""
    return mock.patch.object(json.encoder, "c_make_encoder", factory)


# the expansion texts of census(49), and one of 401 terms
_CFS = [row.cf for row in census(49)] + [format_cf(parse_cf(LONG_CF_401))]
_ROWS = st.lists(
    st.builds(
        CensusRow,
        alpha=st.integers(3, 10**6),
        beta=st.integers(1, 10**6),
        lower=ROW_COUNTS,
        upper=ROW_COUNTS,
        rokhlin=st.sampled_from(range(0, 16, 2)),
        cf=st.sampled_from(_CFS),
        order=st.sampled_from(["inf", "<=2", "0", "?"]),
    ),
    max_size=5,
)


class TestJsonRows:
    """scan's row writer prints each row as text, with no JSON encoder;
    the text must be json.dumps(indent=2)'s, byte for byte, also where
    CPython has no C encoder factory, and a bound past the digit cap
    must be refused as _Quarters refuses it."""

    @staticmethod
    def check(rows):
        # the writer's blocks, joined, are the document
        try:
            want = json.dumps(
                {
                    "rows": [
                        {
                            "alpha": r.alpha,
                            "beta": r.beta,
                            "m_lower": _json_text(r.m_lower),
                            "mbar_upper": _json_text(r.mbar_upper),
                            "cf": r.cf,
                            "order": r.order,
                        }
                        for r in rows
                    ]
                },
                indent=2,
            )
        except ResourceLimitError as exc:
            with pytest.raises(ResourceLimitError) as info:
                "".join(_json_rows(rows))
            assert str(info.value) == str(exc)
        else:
            assert "".join(_json_rows(rows)) == want + "\n"

    @settings(max_examples=300, deadline=None)
    @given(_ROWS)
    @example([])
    @example([CensusRow(3, 1, 2, 18, 2, _CFS[0], "inf")])
    def test_matches_json_dumps(self, rows):
        self.check(rows)

    @settings(max_examples=300, deadline=None)
    @given(_ROWS)
    @example([])
    def test_matches_json_dumps_without_c_encoder(self, rows):
        with _c_encoder(None):
            self.check(rows)

    @pytest.mark.parametrize("label", ["inf", "?", *sorted(set(ORDER_ANNOTATIONS.values()))])
    def test_labels_need_no_escaping(self, label):
        # the writer quotes each order label as it is
        assert json.dumps(label) == f'"{label}"'


def _csv_writer_text(rows) -> str:
    """What csv.writer(lineterminator="\n") writes for the header and
    the cells of _csv_rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cli.CSV_HEADER)
    writer.writerows(cli._csv_rows(rows, _Quarters(as_json=False)))
    return buf.getvalue()


class TestCsvText:
    """The CSV mode joins the cells of _csv_rows with commas and quotes
    the expansion exactly when it holds a comma: byte for byte what
    csv.writer writes, since no cell holds a quote, CR or LF."""

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["scan", "--alpha-max", "399"], lambda: census(399)),
            (["table1", "--csv"], lambda: [r.row for r in table1()]),
            # a single-term expansion, [3], stays unquoted
            (["lens", "3", "1", "--csv"], lambda: [classify_order(LensSpace(3, 1)).row]),
        ],
        ids=["scan", "table1", "lens"],
    )
    def test_matches_csv_writer(self, capsys, argv, rows):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == _csv_writer_text(rows())

    @settings(max_examples=300, deadline=None)
    @given(_ROWS)
    @example([])
    def test_matches_csv_writer_on_any_rows(self, rows):
        render = Namespace(json=False, csv=True)
        try:
            want = _csv_writer_text(rows)
        except ResourceLimitError as exc:
            with pytest.raises(ResourceLimitError) as info:
                "".join(cli._render(render, cli.Output(None, None, rows)))
            assert str(info.value) == str(exc)
        else:
            assert "".join(cli._render(render, cli.Output(None, None, rows))) == want


class TestRenderPinned:
    """sha256 of stdout for every rendering of a lens record, recorded
    before the lens record and its renderers were unified, and for every
    other verb and mode, recorded before the verbs shared one renderer."""

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (("lens", "39", "17"), 0, "6c3ef607bb3c08fe984d5bd043ece16026caa8e4090629197835873ee1bb3604"),
            (("lens", "39", "17", "--json"), 0, "d108224ce3c0d43618ecd397512cce2942890e6c4cdd2699364c9afa1217b45d"),
            (("lens", "39", "17", "--csv"), 0, "17f3d5d6061371472a104c00c2bc0d5aff2c8968b56fe2679a9d634211b0b2db"),
            (("lens", "39", "22"), 0, "8489fc52b57684b415b898cba81feb19bf6ea1e0fbe83e06115852667dc6bd51"),
            (("lens", "39", "22", "--json"), 0, "b181455611d0432e3fb24ce10ebef15c0e07247dc47ba3f677b967c623b69ce8"),
            (("lens", "39", "22", "--csv"), 0, "dde37cee07e984b73098a8c6acc3aebdbd3f25aca1968f848ed760e6bfb11ab4"),
            (("lens", "5", "2"), 0, "1127ccf7ff661f58ba343c47620774abfe146960459388fd9c3a031714a5722b"),
            (("lens", "5", "2", "--json"), 0, "0ea285d7204053ea5e9d81dcb03b68bca9820b138c39e30a996c861f3ff14062"),
            (("lens", "5", "2", "--csv"), 0, "581fee25b030244ff4525b91f4fbb19d390aed2257f8c8f76dac3054e081d21c"),
            (("lens", "9", "5"), 0, "286c85bac707db6de1ec5a8c27bca1908aa811c189e3643d84c8e070f28df799"),
            (("lens", "9", "5", "--json"), 0, "27603e72fa3c0ec08e8680ec291428415550fca749841adc35b282320924b48d"),
            (("lens", "9", "5", "--csv"), 0, "a85009ef73ef44f4c7de53b1df96274b55b97575d5ba220a2e9bc944d713fa96"),
            (("lens", "13", "5", "--cf", "[2,2,-3]", "--json"), 0, "c241d9bf33a226fa908dce1a667c4a17327ce962191311d74456666c94923cac"),
            (("table1",), 0, "80a820b919016cff84befd2d4fe7103b2ccb4b6dacb51761aede5b9973572b26"),
            (("table1", "--json"), 0, "2ddc8d973e309a277623ed6816b8ee3654e4a1ec8b2907df96c6069ffadcf0ce"),
            (("table1", "--csv"), 0, "733940569a7915739e52b0b520bc0643247816885b0b723d900db68117102abc"),
            (("genus-bound", "--lens", "39", "17", "--json"), 0, "a0b1098e226953930c71a559a79b7c07466aac72fc75531959333ec8476294d3"),
            # R(L(39,22)) = 14 fails h - 1 = -R mod 8: a domain error, no stdout
            (("genus-bound", "--lens", "39", "22", "--json"), 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (("cf", "11", "9"), 0, "df8bd23a9ef5603a0921ec259602eee42a74c55552aa5e76580872004aa6b48b"),
            (("cf", "11", "9", "--json"), 0, "895ebbe5fa9b39463685b2bb733c6b2146873239c67ed08a27c7e198f13964e0"),
            (("cf", "21", "17", "--positive"), 0, "81db4a2d78317549eeeb08c22095d752adfbcd7a96eb0a45f24bcfa9f09fc8ec"),
            (("cf", "21", "17", "--positive", "--json"), 0, "1b92031860411f9698a1adb91fedca8d42620268a7cd86a40cb4c8edbf5516b8"),
            (("cf", "5", "3", "--positive"), 0, "c94303895d57db899fc515aa94797f00537815e12c90af214f9c5802451b222b"),
            (("cf", "5", "3", "--positive", "--json"), 0, "ec8d7ae378580abca4902453a463bb353cb249f941826c26b38cc182309d531b"),
            (("twobridge", "[2,4,-1,-2,2]"), 0, "b3b032fff31a1ef7ea22d05588c5808e37ab72299989ef0f847de6d95d07b068"),
            (("twobridge", "[2,4,-1,-2,2]", "--json"), 0, "fd87dd73d6b726e445b2fbe74735ec907b479706142e4153b97e457a125cbe21"),
            (("twobridge", "[2]"), 0, "7cb6e992d599b669a5e522b37f7b5cecb0b7c570f3cdd01a67daaf74064ed2e5"),
            (("twobridge", "[2]", "--json"), 0, "c8aa6ee3bea54fe4572ea305a1f84c18d1fae2f0a98ef1ed48911e6fc4828861"),
            (("plumbing", "2", "3", "7"), 0, "54faa0719632259995ddd4db6aa8009d0fbd4cc393355c0334054b5cc5388022"),
            (("plumbing", "2", "3", "7", "--json"), 0, "0b37ad89e43b59d5167376f5031181d74b6f933ad8926acf83e5080ffb15dd64"),
            (("montesinos", "2", "3", "7"), 0, "8ccf8eb222082ef01ace9e1e0f87f8c94169fecf5a17c9e84430bc19bf155ada"),
            (("montesinos", "2", "3", "7", "--json"), 0, "1a216b442423ec0216561f6cd55284819e56f41d79e87d197d152c7dde821d69"),
            (("surgery-check", "--h", "21", "--rokhlin", "8"), 0, "4d6de13893907a7fe6cd2916eca328522cd1b2d54ea757c266a1b9ab9cb21c22"),
            (("surgery-check", "--h", "21", "--rokhlin", "8", "--json"), 0, "2557f98c513239f0aa54d6092092aabc671e0f87c1ae3174c1ba99be396c4fa1"),
            (("surgery-check", "--h", "3", "--rokhlin", "2"), 0, "94d73f83d19b84b8164103dfd0921f9ef3526b15a20188b8942b8a208e00eee7"),
            (("surgery-check", "--h", "3", "--rokhlin", "2", "--json"), 0, "f0a5b0da400a61185547a0f19d12ad88ffabbdedfa0773a4a3b53982fc76c76d"),
            (("surgery-check", "--lens", "5", "2"), 0, "975871c892b0c031064ed2ca4f0b13a2d86510d5b031abee45b7e777718e3eca"),
            (("surgery-check", "--lens", "5", "2", "--json"), 0, "5b478bdd77c9a46c3c1c0b17b46c50b129f676d1e07d34e21a24bd7579ffa94c"),
            (("surgery-check", "--det", "15"), 0, "70c6deb1419708e705e207818ab6a18c38013443d1603ec88c5969b34aaf76cc"),
            (("surgery-check", "--det", "15", "--json"), 0, "8e068973a566d46c400d2e10239cad207bfab8c3775f8b497539b2370fb03c7d"),
            (("surgery-check", "--lens", "7", "2", "--det", "21"), 0, "e59f3dc3ca11db5042aef9339ab7e27371217b6dd96eab266e20a49cbaebdc88"),
            (("surgery-check", "--lens", "7", "2", "--det", "21", "--json"), 0, "a6f5dcf9153c4dfd78cd035a5f0fdd33410691e32c9cf1d3d4afc84c512249b1"),
            (("genus-bound", "--lens", "39", "17"), 0, "879a42920fa2dbd86c71d84120360b17394f16e4c009aaef61d2f8d6c3a74a45"),
            (("genus-bound", "--h", "39", "--rokhlin", "2", "--m-lower=-3/2"), 0, "879a42920fa2dbd86c71d84120360b17394f16e4c009aaef61d2f8d6c3a74a45"),
            (("genus-bound", "--h", "39", "--rokhlin", "2", "--m-lower=-3/2", "--json"), 0, "a0b1098e226953930c71a559a79b7c07466aac72fc75531959333ec8476294d3"),
        ],
    )
    def test_output_pinned(self, capsys, argv, code, digest):
        got, out, _ = run(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_every_admitted_triple_pinned(self, capsys):
        # plumbing, plumbing --json and montesinos on all 68 triples,
        # recorded while plumbing still eliminated its matrix
        digest = hashlib.sha256()
        for t in all_valid_triples():
            pqr = (str(t.p), str(t.q), str(t.r))
            for argv in (("plumbing", *pqr), ("plumbing", *pqr, "--json"), ("montesinos", *pqr)):
                code, out, _ = run(capsys, *argv)
                assert code == 0, argv
                digest.update(out.encode())
        assert digest.hexdigest() == "2dde21bbc7c7ac438beec03febf3abac59da043c38ea3f883f7ec65982c0bc51"

    @pytest.mark.parametrize(
        "verb, digest",
        [
            ("lens", "e33735bbc930d3f46453a262723011c81532724eaa8b2186f2eea59f7799c031"),
            ("cf", "9a5308f416b8f0d20387bfada568cd9352741e53478c5153ad9789c7803fd77f"),
            ("twobridge", "958059b4e2391e8741cd0551894172b11394148608806d803822b52bb1042d5d"),
            ("plumbing", "73cd47a1b9034c2c7ad5b1dea1e3b059a04c64ad354b9005fefb69e0f54ffe98"),
            ("montesinos", "6b832bb8675bb5ae6eba36ad6f458a487c35c684b466378ebfeb7f815d788014"),
            ("surgery-check", "8a6fb20ad0b31a9fdc8df9eab6855114f37617dd2a98558c8416a17c84dea13c"),
            ("genus-bound", "ed62e5b930aa41ab7cf70ed61641cb8b62a5ffb248a4c7c40dd8af0f2d6ad8be"),
            ("table1", "b25d615a040ac85c4a8ce1dfad589cdc5704e3acae0384d4b341d2d1a4d03134"),
            ("scan", "85e908bbd0abbc07da832722e5c4d52a8b749d7a58df5c53e4f3102137962e12"),
        ],
    )
    def test_help_pinned(self, capsys, monkeypatch, verb, digest):
        # argparse wraps help to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run(capsys, verb, "--help")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (("lens", "three", "1"), 1, "usage error: argument alpha: invalid int value: 'three'\n"),
            (("lens", "4", "1"), 2, "domain error: LensSpace requires odd alpha >= 1\n"),
            # an exponent that is not an integer: the size check counts the text
            (
                ("genus-bound", "--h", "39", "--rokhlin", "2", "--m-lower=1e1.5"),
                1,
                "usage error: argument --m-lower: not a rational number: '1e1.5'\n",
            ),
        ],
    )
    def test_stderr_pinned(self, capsys, argv, code, err):
        assert run(capsys, *argv) == (code, "", err)


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run(capsys, )[0] == 1
        assert run(capsys, "bogus")[0] == 1
        assert run(capsys, "lens")[0] == 1
        assert run(capsys, "lens", "three", "1")[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "cobkit" in out

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize(
        "error", [OSError(28, "No space left on device"), BrokenPipeError(32, "Broken pipe")]
    )
    @pytest.mark.parametrize("argv", [["lens", "9", "5"], ["scan", "--alpha-max", "99"]])
    def test_failed_write_is_one(self, argv, error, method):
        def refuse(*args):
            raise error

        out, err = io.StringIO(), io.StringIO()
        setattr(out, method, refuse)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, err.getvalue()) == (1, f"output error: {error}\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["lens", "9", "5"], ["scan", "--alpha-max", "99"]])
    def test_full_stdout_is_one_line(self, argv):
        # the bytes a failed flush keeps must not fail again at shutdown
        env = _block_buffered_env()
        with open("/dev/full", "w") as full:
            proc = _run_from_source(argv, env, stdout=full, stderr=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (
            1, "output error: [Errno 28] No space left on device\n"
        )

    @pytest.mark.skipif(
        not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
        reason="needs /dev/full and /proc/self/fd",
    )
    def test_failed_write_keeps_no_descriptor(self):
        # the null device replaces the stream's descriptor, and its own
        # descriptor is closed; closing the stream then flushes the kept
        # bytes into the null device
        with open("/dev/full", "w") as full, contextlib.redirect_stderr(io.StringIO()):
            before = len(os.listdir("/proc/self/fd"))
            with contextlib.redirect_stdout(full):
                assert main(["lens", "9", "5"]) == 1
            assert len(os.listdir("/proc/self/fd")) == before

    def test_broken_pipe_is_one_line(self):
        env = _block_buffered_env()
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _run_from_source(["lens", "9", "5"], env, stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "output error: [Errno 32] Broken pipe\n")

    def test_closed_stdout_is_one(self):
        err = io.StringIO()
        with mock.patch.object(sys, "stdout", None), contextlib.redirect_stderr(err):
            code = main(["lens", "9", "5"])
        assert (code, err.getvalue()) == (1, "output error: stdout is closed\n")

    @pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs /bin/sh")
    @pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"])
    @pytest.mark.parametrize("argv, code", [(["lens", "4", "1"], 2), (["lens", "x", "1"], 1)])
    def test_closed_stderr_keeps_the_code(self, redirect, argv, code):
        # closed, stderr is None; open for reading only, every write fails,
        # and the bytes it kept must not fail the shutdown flush (exit 120)
        launcher = ["/bin/sh", "-c", f'exec "$@" {redirect}', "sh"]
        proc = _run_from_source(argv, _block_buffered_env(), launcher, stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stdout) == (code, "")

    @pytest.mark.parametrize("stderr", ["missing", "closed", "failing"])
    @pytest.mark.parametrize(
        "argv, code", [(["lens", "three", "1"], 1), (["lens", "4", "1"], 2), (["table1"], 3)]
    )
    def test_lost_stderr_keeps_the_code(self, capsys, monkeypatch, stderr, argv, code):
        def boom():
            raise AssertionError("forced for the test")

        def refuse(text):
            raise OSError(9, "Bad file descriptor")

        monkeypatch.setattr("cobkit.lens.table1", boom)
        err = None if stderr == "missing" else io.StringIO()
        if stderr == "closed":
            err.close()
        elif stderr == "failing":
            err.write = refuse
        with mock.patch.object(sys, "stderr", err):
            got = main(argv)
        assert (got, capsys.readouterr().out) == (code, "")

    def test_internal_error_is_three(self, capsys, monkeypatch):
        def boom():
            raise AssertionError("forced for the test")

        monkeypatch.setattr("cobkit.lens.table1", boom)
        code, out, err = run(capsys, "table1")
        assert (code, out, err) == (3, "", "internal error: invariant failed (forced for the test)\n")

    def test_inadmissible_expansion_is_two(self, capsys):
        err = "domain error: not admissible: a_1 * b_1 > 0 violated\n"
        assert run(capsys, "twobridge", "[1,-2,3]") == (2, "", err)
        assert run(capsys, "lens", "7", "3", "--cf", "[1,-2,3]") == (2, "", err)

    def test_sign_rule_is_checked_before_the_fold(self, capsys):
        # folding [1,2,1,-2,1] meets a zero denominator; the sign rule names the fault
        err = "domain error: not admissible: a_2 * b_2 > 0 violated\n"
        assert run(capsys, "twobridge", "[1,2,1,-2,1]") == (2, "", err)
        assert run(capsys, "lens", "7", "3", "--cf", "[1,2,1,-2,1]") == (2, "", err)

    @pytest.mark.parametrize(
        "argv", [("lens", "3", "1"), ("genus-bound", "--lens", "3", "1"), ("genus-bound", "--lens", "39", "17")]
    )
    def test_empty_expansion_is_refused(self, capsys, argv):
        # an empty --cf is an expansion to parse, not a missing one
        err = "domain error: continued fraction text must look like [a1,2b1,...,an]\n"
        assert run(capsys, *argv, "--cf", "") == (2, "", err)

    def test_refused_expansion_is_three(self, capsys, monkeypatch):
        # a forced walk that fails its checks is an internal failure, on
        # every verb that walks: here each walk is made of the swapped pair
        walk = contfrac._walk

        def swapped(alpha, beta):
            return walk(beta, alpha)

        monkeypatch.setattr("cobkit.contfrac._walk", swapped)
        monkeypatch.setattr("cobkit.lens._walk", swapped)
        for argv in (["cf", "39", "17"], ["lens", "39", "17"], ["genus-bound", "--lens", "39", "22"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert "expansion invalid for 17/39: not admissible: all a_i must be nonzero" in err
        code, out, err = run(capsys, "scan", "--alpha-max", "9")
        assert (code, out) == (3, "")
        assert "expansion invalid for 1/3: not admissible: all a_i must be nonzero" in err


class TestBlocks:
    """main writes rows as CSV or as scan's JSON one alpha per block, so
    a sweep's memory does not grow with the output; the blocks join to
    the bytes a whole-document writer printed."""

    @pytest.mark.parametrize("as_json", [False, True])
    def test_one_block_per_alpha(self, as_json):
        mode = Namespace(json=as_json, csv=True)
        blocks = list(cli._render(mode, cli.Output(None, None, census(9))))
        alpha = r'"alpha": (\d+),' if as_json else r"^(\d+),"
        alphas = [set(re.findall(alpha, block, re.MULTILINE)) for block in blocks]
        each = [{"3"}, {"5"}, {"7"}, {"9"}]
        if as_json:
            # the frame opens with the first block and closes after the last
            assert blocks[0].startswith('{\n  "rows": [\n    {') and blocks[-1] == "\n  ]\n}\n"
            assert alphas == [*each, set()]
        else:
            assert blocks[0].startswith(",".join(cli.CSV_HEADER) + "\n3,1,")
            assert alphas == each

    def test_every_other_output_is_one_block(self):
        csv_mode, text_mode = Namespace(json=False, csv=True), Namespace(json=False, csv=False)
        rows = [r.row for r in table1()]
        assert len(list(cli._render(csv_mode, cli.Output(None, None, rows)))) == 6
        assert len(list(cli._render(text_mode, cli.Output(None, None, rows)))) == 1
        report = classify_order(LensSpace(9, 5))
        for mode in (text_mode, Namespace(json=True, csv=False)):
            out = cli._render(mode, cli.Output({"cf": report.row.cf}, "{cf}\n", [report.row]))
            assert len(list(out)) == 1

    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_sweep_memory_does_not_hold_the_output(self, mode):
        # written whole, the sweep peaked at 3.0 MB (CSV) and 8.6 MB (JSON)
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            assert main(["scan", "--alpha-max", "9", *mode]) == 0  # first-call state
            tracemalloc.start()
            try:
                code = main(["scan", "--alpha-max", "399", *mode])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak < 1_000_000, f"peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("mode", [(), ("--json",)])
    def test_failure_mid_sweep_keeps_the_blocks_written(self, capsys, monkeypatch, mode):
        # the walk fails from alpha = 9 on.  A block goes out once the first
        # row of the next alpha is read, and alpha = 7's next row is the
        # first that fails: stdout holds the blocks of alpha <= 5
        code, whole, _ = run(capsys, "scan", "--alpha-max", "7", *mode)
        assert code == 0
        walk = contfrac._walk

        def fails_from_nine(alpha, beta):
            return walk(beta, alpha) if alpha >= 9 else walk(alpha, beta)

        monkeypatch.setattr("cobkit.lens._walk", fails_from_nine)
        code, out, err = run(capsys, "scan", "--alpha-max", "11", *mode)
        assert (code, err.count("\n")) == (3, 1)
        assert err.startswith("internal error: invariant failed (expansion invalid for 1/9:")
        if mode:
            want = whole[: whole.index(',\n    {\n      "alpha": 7,')]
        else:
            want = "".join(line for line in whole.splitlines(True) if not line.startswith("7,"))
        assert out == want
