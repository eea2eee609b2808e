import json

import pytest

from halfpoint.cli import _merge_negative_values, run

REF_CURVE = ["--e0", "0", "--e1", "6", "--e2", "-6"]
CODEC = ["--p", "10007", "--a4", "1", "--a6", "1", "--px", "1", "--py", "1477",
         "--order", "10065"]


def invoke(capsys, *argv):
    code = run(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_merge_negative_values():
    assert _merge_negative_values(["--y", "-35/8", "--x", "3"]) == \
        ["--y=-35/8", "--x", "3"]
    assert _merge_negative_values(["--a4", "-1.5e-3"]) == ["--a4=-1.5e-3"]
    # bare flags and positive values pass through untouched
    assert _merge_negative_values(["encode", "--x", "42", "-h"]) == \
        ["encode", "--x", "42", "-h"]


def test_halve_q_reference(capsys):
    code, out, _ = invoke(capsys, "halve-q", *REF_CURVE,
                          "--x", "25/4", "--y", "-35/8")
    assert code == 0
    doc = json.loads(out)
    assert {(d["x"], d["y"]) for d in doc} == {
        ("18", "-72"), ("-2", "-8"), ("-3", "9"), ("12", "36")}


def test_halve_q_unhalvable_gives_empty_list(capsys):
    code, out, _ = invoke(capsys, "halve-q", *REF_CURVE, "--x", "-3", "--y", "9")
    assert code == 0
    assert json.loads(out) == []


def test_double_round_trips_a_half(capsys):
    code, out, _ = invoke(capsys, "halve-q", *REF_CURVE,
                          "--x", "25/4", "--y", "-35/8")
    first = json.loads(out)[0]
    code, out, _ = invoke(capsys, "double", "--rational", "--a4", "-36",
                          "--x", first["x"], "--y", first["y"])
    assert code == 0
    assert json.loads(out) == {"x": "25/4", "y": "-35/8"}


def test_halve_fp_output_and_diagnostics(capsys):
    code, out, err = invoke(capsys, "halve-fp", "--p", "11", "--a4", "1",
                            "--a6", "2", "--x", "8", "--y", "4")
    assert code == 0
    doc = json.loads(out)
    assert {(d["x"], d["y"]) for d in doc} == {
        ("9", "5"), ("2", "1"), ("6", "2"), ("4", "2")}
    assert "cubic factor degrees" in err
    assert "splitting field degree" in err
    assert "candidate x-values in the base field: 4" in err


def test_halve_fp_point_with_no_half(capsys):
    # the differences of (1, 2) have no root in F_11: no candidates, no half
    code, out, err = invoke(capsys, "halve-fp", "--p", "11", "--a4", "1",
                            "--a6", "2", "--x", "1", "--y", "2")
    assert code == 0
    assert json.loads(out) == []
    assert "splitting field degree: 1" in err
    assert "candidate x-values" not in err
    assert "tower" not in err


def test_double_mod_p(capsys):
    code, out, _ = invoke(capsys, "double", "--p", "11", "--a4", "1",
                          "--a6", "2", "--x", "9", "--y", "5")
    assert code == 0
    assert json.loads(out) == {"x": "8", "y": "4"}


def test_double_rejects_fraction_mod_p(capsys):
    code, _, err = invoke(capsys, "double", "--p", "11", "--a4", "1/2",
                          "--a6", "2", "--x", "9", "--y", "5")
    assert code == 2
    assert "integer" in err


def test_halvable_q_witness(capsys):
    code, out, _ = invoke(capsys, "halvable-q", *REF_CURVE,
                          "--x", "25/4", "--y", "-35/8")
    assert code == 0
    doc = json.loads(out)
    assert doc["halvable"] is True
    assert doc["witness"] == {"gamma": "5/2", "alpha": "1/2", "beta": "7/2"}


def test_halvable_q_failing_root(capsys):
    code, out, _ = invoke(capsys, "halvable-q", *REF_CURVE, "--x", "-3", "--y", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["halvable"] is False
    assert doc["failing_root"] == "0"
    assert doc["failing_difference"] == "-3"


def test_congruent(capsys):
    code, out, _ = invoke(capsys, "congruent", "--n", "6",
                          "--x", "25/4", "--y", "-35/8")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == "6" and doc["halvable"] is True
    assert len(doc["halves"]) == 4


def test_codec_cli_round_trip(capsys):
    code, out, _ = invoke(capsys, "codec", "encode", *CODEC, "--message", "42")
    assert code == 0
    assert json.loads(out) == {"x": "4200", "y": "1903"}

    # the same key as a bit string and as a decimal integer
    for key in ("1011001110001111", "45967"):
        code, out, _ = invoke(capsys, "codec", "encrypt", *CODEC,
                              "--key", key, "--x", "4200", "--y", "1903")
        assert code == 0
        assert json.loads(out) == {"x": "5621", "y": "8106"}

        code, out, _ = invoke(capsys, "codec", "decrypt", *CODEC,
                              "--key", key, "--x", "5621", "--y", "8106")
        assert code == 0
        assert json.loads(out) == {"x": "4200", "y": "1903", "message": "42"}


@pytest.mark.parametrize("key", ["abc", "12x3"])
def test_codec_malformed_key_is_a_usage_error(capsys, key):
    code, out, err = invoke(capsys, "codec", "decrypt", *CODEC,
                            "--key", key, "--x", "5621", "--y", "8106")
    assert code == 2 and "--key" in err and out == ""


def test_codec_missing_pieces(capsys):
    code, _, err = invoke(capsys, "codec", "encode", *CODEC)
    assert code == 2 and "--message" in err
    code, _, err = invoke(capsys, "codec", "encrypt", *CODEC, "--x", "4200",
                          "--y", "1903")
    assert code == 2 and "--key" in err


def test_verify_complex(capsys):
    code, out, _ = invoke(capsys, "verify-complex", "--a4", "-36", "--a6", "0",
                          "--x", "6.25", "--y", "-4.375")
    assert code == 0
    assert float(json.loads(out)["max_residual"]) <= 1e-8


def test_pretty_renders_tables(capsys):
    code, out, _ = invoke(capsys, "double", "--pretty", "--rational",
                          "--a4", "-36", "--x", "-3", "--y", "9")
    assert code == 0
    assert "25/4" in out and "-35/8" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_pretty_after_subcommand(capsys):
    code, out, _ = invoke(capsys, "halve-q", *REF_CURVE,
                          "--x", "25/4", "--y", "-35/8", "--pretty")
    assert code == 0
    assert "18" in out and "-72" in out


def test_fixtures_pass(capsys):
    code, out, _ = invoke(capsys, "--fixtures")
    assert code == 0
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_usage_exit_codes(capsys):
    assert invoke(capsys, "no-such-command")[0] == 2
    assert invoke(capsys, "halve-q", "--e0", "banana", "--e1", "6", "--e2", "-6",
                  "--x", "0", "--y", "0")[0] == 2
    assert invoke(capsys, "halve-q", "--e0", "0")[0] == 2
    assert invoke(capsys)[0] == 2
    assert invoke(capsys, "--help")[0] == 0


def test_domain_exit_codes(capsys):
    # singular curve
    code, _, err = invoke(capsys, "double", "--rational", "--a4", "0", "--a6", "0",
                          "--x", "0", "--y", "0")
    assert code == 1 and "error:" in err
    # repeated roots make the split curve singular
    assert invoke(capsys, "halve-q", "--e0", "0", "--e1", "0", "--e2", "1",
                  "--x", "2", "--y", "2")[0] == 1
    # point off the curve
    assert invoke(capsys, "halve-fp", "--p", "11", "--a4", "1", "--a6", "2",
                  "--x", "8", "--y", "5")[0] == 1


def test_halve_fp_refuses_curve_singular_mod_p(capsys):
    # x^3 - 3x + 2 = (x - 1)^2 (x + 2); (2, 2) satisfies it mod 11
    code, out, err = invoke(capsys, "halve-fp", "--p", "11", "--a4", "-3", "--a6", "2",
                            "--x", "2", "--y", "2")
    assert code == 1 and "singular" in err and out == ""
