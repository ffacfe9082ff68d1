"""File format round-trips and the command-line contract."""

import json

import numpy as np
import pytest

from zpreal.cli import format_complex, main
from zpreal.errors import ParseError
from zpreal.serialize import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from zpreal.synthesis import random_instance
from zpreal.zero_pole import ZeroPoleData

from conftest import make_d1, make_d2, make_scalar_instance


# --- serialization ---------------------------------------------------------

def test_round_trip_is_bit_exact(tmp_path):
    d = random_instance(3, 5, seed=99).data
    path = tmp_path / "inst.json"
    save_instance(d, path, metadata={"note": "round trip"})
    loaded, meta = load_instance(path)
    np.testing.assert_array_equal(loaded.poles, d.poles)
    np.testing.assert_array_equal(loaded.zeros, d.zeros)
    np.testing.assert_array_equal(loaded.F_P, d.F_P)
    np.testing.assert_array_equal(loaded.G_P, d.G_P)
    np.testing.assert_array_equal(loaded.F_N, d.F_N)
    np.testing.assert_array_equal(loaded.G_N, d.G_N)
    assert meta == {"note": "round trip"}


def test_round_trip_empty_instance(tmp_path):
    d = random_instance(2, 0, seed=1).data
    path = tmp_path / "empty.json"
    save_instance(d, path)
    loaded, _ = load_instance(path)
    assert loaded.n == 0 and loaded.k == 2


def test_missing_field_named():
    obj = instance_to_dict(make_d1())
    del obj["G_N"]
    with pytest.raises(ParseError, match="G_N"):
        instance_from_dict(obj)


def test_wrong_format_version():
    obj = instance_to_dict(make_d1())
    obj["format_version"] = 2
    with pytest.raises(ParseError, match="format_version"):
        instance_from_dict(obj)


def test_malformed_pair_locates_entry():
    obj = instance_to_dict(make_d1())
    obj["F_P"][0][0] = [1.0]
    with pytest.raises(ParseError, match=r"F_P\[0\]\[0\]"):
        instance_from_dict(obj)


def test_bad_counts_rejected():
    obj = instance_to_dict(make_d1())
    obj["n"] = 2
    with pytest.raises(ParseError, match="poles"):
        instance_from_dict(obj)


# --- printing --------------------------------------------------------------

def test_format_complex_shapes():
    assert format_complex(0.5 + 0j) == "0.5 + 0i"
    assert format_complex(1.0 - 2.0j) == "1 - 2i"
    assert format_complex(complex(0.0, -0.0)) == "0 + 0i"
    assert format_complex(complex(1.0 / 3.0, 0)) == "0.333333333333333 + 0i"


# --- commands --------------------------------------------------------------

def _d1_path(tmp_path):
    path = tmp_path / "d1.json"
    save_instance(make_d1(), path)
    return str(path)


def test_generate_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "2", "3", "11", str(a)]) == 0
    assert main(["generate", "2", "3", "11", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta = json.loads(a.read_text())["metadata"]
    assert meta["seed"] == 11


def test_generate_rejects_zero_n(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "2", "0", "1", str(tmp_path / "x.json")])
    assert exc.value.code == 2


def test_generated_instance_verifies(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["generate", "3", "6", "5", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "FAIL" not in out


def test_verify_report_out(tmp_path, capsys):
    path = tmp_path / "g.json"
    main(["generate", "1", "2", "3", str(path)])
    report = tmp_path / "rep.json"
    assert main(["verify", str(path), "--report-out", str(report)]) == 0
    payload = json.loads(report.read_text())
    names = {c["name"] for c in payload["checks"]}
    assert "mutual_inverse" in names and "chain_identity" in names


def test_verify_names_broken_relation(tmp_path, capsys):
    obj = instance_to_dict(make_d2())
    obj["F_N"][0][0] = [7.5, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", str(bad)]) == 6
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "coupling_d" in out


VERIFY_CHECKS = [
    "mutual_inverse_at_samples", "annihilation_at_poles",
    "pole_residue_identity", "annihilation_at_zeros", "zero_residue_identity",
    "sylvester_r", "sylvester_l", "mutual_inverse",
    "coupling_a", "coupling_b", "coupling_c", "coupling_d",
    "chain_identity", "diagonal_unity",
]


def test_verify_prints_the_check_names_in_order(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["generate", "2", "4", "3", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == VERIFY_CHECKS
    assert lines[-1] == "OK    all checks passed"


def _overflowing_path(tmp_path):
    # every product of an F and a G overflows, so every diagnostic of
    # the build reads NaN
    d = random_instance(2, 4, 3).data
    big = ZeroPoleData(poles=d.poles, zeros=d.zeros,
                       F_P=d.F_P * 1e160, G_P=d.G_P * 1e160,
                       F_N=d.F_N * 1e160, G_N=d.G_N * 1e160)
    path = tmp_path / "big.json"
    save_instance(big, path)
    return str(path)


@pytest.mark.parametrize("argv", [
    ["verify", "{path}"],
    ["eval", "{path}", "R", "0.3", "0.1"],
    ["factorize", "{path}", "0", "0", "1", "{plus}", "{minus}"],
], ids=["verify", "eval", "factorize"])
def test_nan_diagnostics_fail_the_build(tmp_path, capsys, argv):
    fill = {"path": _overflowing_path(tmp_path),
            "plus": str(tmp_path / "p.json"),
            "minus": str(tmp_path / "m.json")}
    assert main([a.format(**fill) for a in argv]) == 6
    captured = capsys.readouterr()
    if argv[0] == "verify":
        checks = captured.out.splitlines()[:-1]
        assert len(checks) == 12
        assert all(line.startswith("FAIL") and "nan" in line
                   for line in checks)
    else:
        assert captured.err.startswith("error: data is not self-consistent")


def test_verify_malformed_file(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["verify", str(junk)]) == 3
    assert "line 1" in capsys.readouterr().err


def test_eval_golden_d1(tmp_path, capsys):
    path = _d1_path(tmp_path)
    assert main(["eval", path, "R", "2", "0"]) == 0
    assert capsys.readouterr().out == "0.5 + 0i\n"
    assert main(["eval", path, "Rinv", "2", "0"]) == 0
    assert capsys.readouterr().out == "2 + 0i\n"
    assert main(["eval", path, "jointR", "5", "0", "5", "0"]) == 0
    assert capsys.readouterr().out == "1 + 0i\n"


def test_eval_pole_hit(tmp_path, capsys):
    path = _d1_path(tmp_path)
    assert main(["eval", path, "R", "0", "0"]) == 4
    assert "singularity" in capsys.readouterr().err


def test_eval_joint_needs_second_point(tmp_path):
    path = _d1_path(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", path, "jointR", "2", "0"])
    assert exc.value.code == 2


def test_eval_single_point_rejects_second(tmp_path):
    path = _d1_path(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", path, "R", "2", "0", "3", "0"])
    assert exc.value.code == 2


def test_factorize_d2_round_trip(tmp_path, capsys):
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    plus, minus = tmp_path / "plus.json", tmp_path / "minus.json"
    assert main(["factorize", str(src), "0", "0", "1",
                 str(plus), str(minus)]) == 0
    capsys.readouterr()

    # both factor files are valid instances in their own right
    assert main(["verify", str(plus)]) == 0
    assert main(["verify", str(minus)]) == 0
    capsys.readouterr()

    # and evaluate to the closed scalar forms
    assert main(["eval", str(plus), "R", "0", "0"]) == 0
    got = capsys.readouterr().out.strip()
    value = float(got.split(" + ")[0])
    assert abs(value - 0.6) < 1e-12

    meta = json.loads(plus.read_text())["metadata"]
    assert meta["role"] == "plus_factor"
    assert meta["parent_pole_indices"] == [0]


def test_factorize_all_outside_writes_identity_plus(tmp_path, capsys):
    src = tmp_path / "far.json"
    save_instance(make_scalar_instance([3.0, 4.0], [5.0, 6.0]), src)
    plus, minus = tmp_path / "p.json", tmp_path / "m.json"
    assert main(["factorize", str(src), "0", "0", "1",
                 str(plus), str(minus)]) == 0
    loaded, _ = load_instance(plus)
    assert loaded.n == 0
    capsys.readouterr()
    assert main(["eval", str(plus), "R", "0.5", "0"]) == 0
    assert capsys.readouterr().out == "1 + 0i\n"


def test_factorize_cardinality_mismatch_exit(tmp_path, capsys):
    src = tmp_path / "mis.json"
    save_instance(make_scalar_instance([0.5, 0.6], [3.0, 4.0]), src)
    assert main(["factorize", str(src), "0", "0", "1",
                 str(tmp_path / "p.json"), str(tmp_path / "m.json")]) == 4
    assert "inside" in capsys.readouterr().err


def test_factorize_on_contour_exit(tmp_path, capsys):
    src = tmp_path / "onc.json"
    save_instance(make_scalar_instance([1.0, 3.0], [0.5, 4.0]), src)
    assert main(["factorize", str(src), "0", "0", "1",
                 str(tmp_path / "p.json"), str(tmp_path / "m.json")]) == 4


def test_cauchy_commands(capsys):
    assert main(["cauchy", "invert", "--poles", "0", "--zeros", "1"]) == 0
    assert capsys.readouterr().out == "1 + 0i\n"
    assert main(["cauchy", "matrix", "--poles", "0", "1",
                 "--zeros", "2", "3"]) == 0
    assert capsys.readouterr().out == (
        "0.5 + 0i  1 + 0i\n"
        "0.333333333333333 + 0i  0.5 + 0i\n")
    assert main(["cauchy", "detsq", "--poles", "0", "--zeros", "1"]) == 0
    assert capsys.readouterr().out == "1 + 0i\n"


def test_cauchy_collision_exit(capsys):
    assert main(["cauchy", "matrix", "--poles", "0",
                 "--zeros", "1e-13"]) == 4
    assert "apart" in capsys.readouterr().err


def test_cauchy_complex_point_parsing(capsys):
    assert main(["cauchy", "matrix", "--poles", "0,1",
                 "--zeros", "2,-1"]) == 0
    out = capsys.readouterr().out.strip()
    # 1/((2 - i) - i) = 1/(2 - 2i) = 0.25 + 0.25i
    assert out == "0.25 + 0.25i"


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
