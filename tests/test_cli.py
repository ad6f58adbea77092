import hashlib
import json
from fractions import Fraction

import pytest

from cobkit.arith import dec
from cobkit.cli import SCAN_CAP_ENV, main
from cobkit.cobordism import MBounds
from cobkit.contfrac import eval_terms

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
        bounds = MBounds.from_json_dict(payload["bounds"])
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
        value = eval_terms([int(t) for t in payload["cf"][1:-1].split(",")])
        assert value == Fraction(alpha, alpha - beta)

    def test_csv_single_row(self, capsys):
        code, out, _ = run(capsys, "lens", "3", "1", "--csv")
        assert code == 0
        assert out.splitlines()[1] == "3,1,0.5,4.5,[3],inf"

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

    @pytest.mark.parametrize("value", ["abc", "1/0"])
    def test_bad_m_lower(self, capsys, value):
        code, _, err = run(
            capsys, "genus-bound", "--h", "39", "--rokhlin", "2", f"--m-lower={value}"
        )
        assert code == 1
        assert err.startswith("usage error: ") and "--m-lower" in err


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


class TestRenderPinned:
    """sha256 of stdout for every rendering of a lens record, recorded
    before the lens record and its renderers were unified."""

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
        ],
    )
    def test_output_pinned(self, capsys, argv, code, digest):
        got, out, _ = run(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExitCodes:
    def test_usage_errors(self, capsys):
        assert run(capsys, )[0] == 1
        assert run(capsys, "bogus")[0] == 1
        assert run(capsys, "lens")[0] == 1
        assert run(capsys, "lens", "three", "1")[0] == 1

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "cobkit" in out

    def test_internal_error_is_three(self, capsys, monkeypatch):
        def boom():
            raise AssertionError("forced for the test")

        monkeypatch.setattr("cobkit.lens.table1", boom)
        code, _, err = run(capsys, "table1")
        assert code == 3 and "internal error" in err
