"""File format round-trips and the command-line contract."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from zpreal import cli
from zpreal.cli import format_complex, main
from zpreal.errors import (
    InconsistentDataError,
    NoFactorizationError,
    ParseError,
    VerificationFailedError,
    ZprealError,
)
from zpreal.serialize import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from zpreal.synthesis import random_instance
from zpreal.zero_pole import ZeroPoleData

from conftest import make_d1, make_d2, make_scalar_instance
from helpers import balanced_instance


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


def test_generate_names_a_non_integer_count(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "2", "x", "1", str(tmp_path / "f.json")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument n: expected a positive integer, got 'x'\n")


def test_generate_refuses_a_negative_seed_as_ill_posed(tmp_path, capsys):
    path = tmp_path / "g.json"
    assert main(["generate", "1", "4", "-5", str(path)]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: seed must be a non-negative integer, got -5\n"
    assert not path.exists()


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
    "mutual_inverse",
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


def test_verify_refuses_nan_tol(tmp_path, capsys):
    # refused before the file is read: a missing file exits 4, not 3
    for path in (_d1_path(tmp_path), str(tmp_path / "missing.json")):
        assert main(["verify", path, "--tol", "nan"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: tol must not be NaN\n"


@pytest.mark.parametrize("tol", ["inf", "0", "-1"])
def test_verify_refuses_a_tolerance_outside_zero_to_inf(tmp_path, capsys,
                                                        tol):
    # inf passes every residual and a tolerance at or below 0 fails every
    # inexact one; refused before the file is read, like NaN
    for path in (_d1_path(tmp_path), str(tmp_path / "missing.json")):
        assert main(["verify", path, "--tol", tol]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: tol must be positive and finite, "
                                f"got {float(tol)!r}\n")


FACTORIZE_CHECKS = [
    "minus_coupling_inherited", "product_at_samples",
    "minus_formula_agreement",
]


def _factorize_d2_lines(tmp_path, capsys):
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    assert main(["factorize", str(src), "0", "0", "1",
                 str(tmp_path / "p.json"), str(tmp_path / "m.json")]) == 0
    return capsys.readouterr().out.splitlines()


def test_factorize_prints_the_check_names_in_order(tmp_path, capsys):
    lines = _factorize_d2_lines(tmp_path, capsys)
    assert [line.split()[1] for line in lines[:-2]] == FACTORIZE_CHECKS
    assert lines[-2] == "OK    split 1/1, cond S11 = 1"
    assert lines[-1].startswith("wrote ")


def test_readme_factorize_example_names_the_printed_checks(tmp_path,
                                                             capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("$ zpreal factorize d2.json", 1)[1]
    example = example.split("```", 1)[0]
    documented = [line.split()[1] for line in example.splitlines()
                  if line.startswith(("PASS", "FAIL"))]
    printed = [line.split()[1]
               for line in _factorize_d2_lines(tmp_path, capsys)[:-2]]
    assert documented == printed


@pytest.mark.parametrize("argv", [
    ["generate", "2", "3", "1", "{missing}/f.json"],
    ["verify", "{src}", "--report-out", "{missing}/r.json"],
    ["factorize", "{src}", "0", "0", "1", "{missing}/p.json", "{tmp}/m.json"],
    ["factorize", "{src}", "0", "0", "1", "{tmp}/p.json", "{missing}/m.json"],
    ["factorize", "{src}", "0", "0", "1", "{tmp}/p.json", "{tmp}/m.json",
     "--report-out", "{missing}/r.json"],
], ids=["generate", "verify-report", "factorize-plus", "factorize-minus",
        "factorize-report"])
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    missing = tmp_path / "no-such-dir"
    argv = [a.format(src=src, tmp=tmp_path, missing=missing) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    bad = next(a for a in argv if a.startswith(str(missing)))
    assert err == f"error: cannot write {bad}: No such file or directory\n"


@pytest.mark.parametrize("minus, report, bad, reason", [
    ("{missing}", None, "{missing}", "No such file or directory"),
    ("{old}", "{missing}", "{missing}", "No such file or directory"),
    ("{old}", "{dir}", "{dir}", "Is a directory"),
], ids=["minus", "report", "report-is-a-directory"])
def test_refused_factorize_writes_nothing(tmp_path, capsys, minus, report,
                                          bad, reason):
    # the plus factor's file would be new and the minus factor's may
    # exist already; a refusal must neither create the one nor change
    # the other
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    out = tmp_path / "out"
    (out / "dir").mkdir(parents=True)
    (out / "old.json").write_text("kept\n")
    fill = {"missing": str(tmp_path / "no-such-dir" / "x.json"),
            "old": str(out / "old.json"), "dir": str(out / "dir")}
    argv = ["factorize", str(src), "0", "0", "1", str(out / "p.json"),
            minus.format(**fill)]
    if report:
        argv += ["--report-out", report.format(**fill)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {bad.format(**fill)}: "
                            f"{reason}\n")
    assert sorted(os.listdir(out)) == ["dir", "old.json"]
    assert os.listdir(out / "dir") == []
    assert (out / "old.json").read_text() == "kept\n"


def test_an_existing_output_without_write_permission_is_refused(
        tmp_path, capsys, monkeypatch):
    # os.access stands in for a read-only file, which root could write
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    out = tmp_path / "out"
    out.mkdir()
    old = out / "m.json"
    old.write_text("kept\n")
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert main(["factorize", str(src), "0", "0", "1", str(out / "p.json"),
                 str(old)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {old}: Permission denied\n"
    assert os.listdir(out) == ["m.json"]
    assert old.read_text() == "kept\n"


def test_factorize_writes_existing_outputs_in_place(tmp_path, capsys):
    # an existing output is written through in place: a symlink stays a
    # link to its updated target, a hard link sees the new content, and
    # the file keeps its inode and mode
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    assert main(["factorize", str(src), "0", "0", "1", str(fresh / "p.json"),
                 str(fresh / "m.json")]) == 0
    out = tmp_path / "out"
    out.mkdir()
    (out / "p-target.json").write_text("old\n")
    (out / "p.json").symlink_to(out / "p-target.json")
    (out / "m.json").write_text("old\n")
    os.chmod(out / "m.json", 0o600)
    os.link(out / "m.json", out / "m-link.json")
    inode = os.stat(out / "m.json").st_ino
    (out / "r-target.json").symlink_to(out / "r.json")   # dangling
    assert main(["factorize", str(src), "0", "0", "1", str(out / "p.json"),
                 str(out / "m.json"), "--report-out",
                 str(out / "r-target.json")]) == 0
    capsys.readouterr()
    assert os.path.islink(out / "p.json")
    assert (out / "p-target.json").read_text() == \
        (fresh / "p.json").read_text()
    assert os.stat(out / "m.json").st_ino == inode
    assert os.stat(out / "m.json").st_mode & 0o777 == 0o600
    assert (out / "m-link.json").read_text() == (fresh / "m.json").read_text()
    assert os.path.islink(out / "r-target.json")
    assert json.loads((out / "r.json").read_text())["passed"] is True
    assert sorted(os.listdir(out)) == ["m-link.json", "m.json", "p-target.json",
                                       "p.json", "r-target.json", "r.json"]


# each command that writes files, with the files it writes; {src} is a
# saved d2 instance and {out} the directory the outputs go to
WRITING_COMMANDS = {
    "generate": (["generate", "2", "3", "1", "{out}/g.json"], ["g.json"]),
    "factorize": (["factorize", "{src}", "0", "0", "1", "{out}/p.json",
                   "{out}/m.json"], ["p.json", "m.json"]),
    "factorize-report": (["factorize", "{src}", "0", "0", "1", "{out}/p.json",
                          "{out}/m.json", "--report-out", "{out}/r.json"],
                         ["p.json", "m.json", "r.json"]),
    "verify-report": (["verify", "{src}", "--report-out", "{out}/r.json"],
                      ["r.json"]),
}


def _run_writing_command(tmp_path, capsys, name, out):
    """Run WRITING_COMMANDS[name] into the directory out; the bytes of
    each file it writes, by name."""
    src = tmp_path / "d2.json"
    if not src.exists():
        save_instance(make_d2(), src)
    argv, names = WRITING_COMMANDS[name]
    assert main([a.format(src=src, out=out) for a in argv]) == 0
    capsys.readouterr()
    return {n: (out / n).read_bytes() for n in names}


@pytest.mark.parametrize("old", ["longer", "shorter"])
@pytest.mark.parametrize("name", WRITING_COMMANDS)
def test_rewriting_an_existing_output_leaves_no_stale_tail(tmp_path, capsys,
                                                           name, old):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    want = _run_writing_command(tmp_path, capsys, name, fresh)
    out = tmp_path / "out"
    out.mkdir()
    for n, text in want.items():
        size = len(text) + 4096 if old == "longer" else len(text) // 3
        (out / n).write_bytes(b"x" * (size - 1) + b"\n")
    assert _run_writing_command(tmp_path, capsys, name, out) == want


@pytest.mark.parametrize("name", WRITING_COMMANDS)
def test_no_existing_output_is_emptied(tmp_path, capsys, monkeypatch, name):
    # every output, new or existing, is opened through os.open, and an
    # existing regular file never with O_TRUNC nor cut to length 0
    opened = []
    real_open, real_ftruncate = os.open, os.ftruncate

    def open_spy(path, flags, *args, **kwargs):
        if os.path.isfile(path):
            assert not flags & os.O_TRUNC, path
        opened.append(os.path.realpath(path))
        return real_open(path, flags, *args, **kwargs)

    def ftruncate_spy(fd, length):
        assert length > 0
        return real_ftruncate(fd, length)

    monkeypatch.setattr(os, "open", open_spy)
    monkeypatch.setattr(os, "ftruncate", ftruncate_spy)
    out = tmp_path / "out"
    out.mkdir()
    names = _run_writing_command(tmp_path, capsys, name, out)
    for n in names:
        (out / n).write_text("old\n" * 1000)
    opened.clear()
    _run_writing_command(tmp_path, capsys, name, out)
    assert sorted(opened) == sorted(str((out / n).resolve()) for n in names)


def test_generate_rewrites_an_existing_file_in_place(tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    assert main(["generate", "2", "3", "1", str(fresh)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    target = out / "g.json"
    target.write_text("old\n" * 1000)
    os.chmod(target, 0o600)
    os.link(target, out / "g-link.json")
    (out / "via-link.json").symlink_to(target)
    inode = os.stat(target).st_ino
    assert main(["generate", "2", "3", "1", str(target)]) == 0
    assert os.stat(target).st_ino == inode
    assert os.stat(target).st_mode & 0o777 == 0o600
    assert (out / "g-link.json").read_bytes() == fresh.read_bytes()
    target.write_text("old\n" * 1000)
    assert main(["generate", "2", "3", "1", str(out / "via-link.json")]) == 0
    capsys.readouterr()
    assert os.path.islink(out / "via-link.json")
    assert os.stat(target).st_ino == inode
    assert target.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(out)) == ["g-link.json", "g.json",
                                       "via-link.json"]


@pytest.mark.skipif(not os.path.exists(os.devnull) or os.name != "posix",
                    reason="needs the POSIX null device")
@pytest.mark.parametrize("argv", [
    ["generate", "2", "3", "1", os.devnull],
    ["factorize", "{src}", "0", "0", "1", os.devnull, os.devnull,
     "--report-out", os.devnull],
    ["verify", "{src}", "--report-out", os.devnull],
], ids=["generate", "factorize", "verify-report"])
def test_outputs_to_the_null_device_exit_0(tmp_path, capsys, argv):
    # a device is written to, never cut to length
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    assert main([a.format(src=src) for a in argv]) == 0
    assert capsys.readouterr().err == ""


def test_interrupted_factorize_leaves_no_temporary_file(tmp_path, capsys,
                                                        monkeypatch):
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    out = tmp_path / "out"
    out.mkdir()
    calls = []

    def save_then_interrupt(data, path, metadata=None):
        calls.append(path)
        if len(calls) == 2:
            raise KeyboardInterrupt
        save_instance(data, path, metadata)

    monkeypatch.setattr(cli, "save_instance", save_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["factorize", str(src), "0", "0", "1", str(out / "p.json"),
              str(out / "m.json")])
    assert capsys.readouterr().out == ""
    assert os.listdir(out) == []


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
        assert len(checks) == 10
        assert all(line.startswith("FAIL") and "nan" in line
                   for line in checks)
    else:
        assert captured.err.startswith("error: data is not self-consistent")


@pytest.mark.parametrize("argv", [
    ["verify", "{path}"],
    ["eval", "{path}", "R", "0.3", "0.1"],
], ids=["verify", "eval"])
def test_non_finite_semiresidual_exits_4(tmp_path, capsys, argv):
    obj = instance_to_dict(make_d2())
    obj["F_P"][0][0] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(obj))
    assert main([a.format(path=path) for a in argv]) == 4
    assert capsys.readouterr().err == (
        "error: matrix contains non-finite entries\n")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


# the exit codes of the cli module docstring; 4 for every other class
EXIT_CODES = {ParseError: 3, NoFactorizationError: 5,
              VerificationFailedError: 6, InconsistentDataError: 6}


@pytest.mark.parametrize("error", list(_subclasses(ZprealError)),
                         ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_documented_exit_code(
        monkeypatch, capsys, error):
    exc = error.__new__(error)
    Exception.__init__(exc, "raised on purpose")

    def raise_it(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_verify", raise_it)
    assert main(["verify", "any.json"]) == EXIT_CODES.get(error, 4)
    assert capsys.readouterr().err == "error: raised on purpose\n"


def test_verify_malformed_file(tmp_path, capsys):
    junk = tmp_path / "junk.json"
    junk.write_text("{not json")
    assert main(["verify", str(junk)]) == 3
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda o: o["zeros"].__setitem__(1, [10 ** 400, 0.0]),
     "zeros[1]: number does not fit a float"),
    (lambda o: o.__setitem__("k", True),
     "k/n: expected integers k >= 1, n >= 0, got True/2"),
], ids=["overflow", "boolean-k"])
def test_verify_refuses_what_json_reads_but_no_float_or_count_holds(
        tmp_path, capsys, edit, message):
    obj = instance_to_dict(make_d2())
    edit(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["verify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


@pytest.mark.parametrize("args", [
    ["R", "nan", "0"], ["R", "0", "inf"], ["Rinv", "inf", "0"],
    ["jointR", "1", "0", "inf", "0"], ["jointL", "nan", "0", "2", "0"],
    ["hybridR", "2", "0", "1", "nan"],
], ids=lambda args: "-".join(args))
def test_eval_refuses_non_finite_points(tmp_path, capsys, args):
    # the evaluators map such a point to NaN; the command prints no value
    path = _d1_path(tmp_path)
    assert main(["eval", path, *args]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: evaluation points must be finite\n"


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


def test_eval_single_point_rejects_a_stray_coordinate(tmp_path, capsys):
    # one coordinate of a second point is as wrong as a whole one
    path = _d1_path(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", path, "R", "2", "0", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, message", [
    (["R", "2", "0", "3", "0"], "R takes a single point"),
    (["Rinv", "2", "0", "3"], "Rinv takes a single point"),
    (["jointR", "2", "0"], "jointR needs both y_re and y_im"),
    (["hybridL", "2", "0", "3"], "hybridL needs both y_re and y_im"),
], ids=["R", "Rinv", "jointR", "hybridL"])
def test_eval_arity_errors_print_the_eval_usage(tmp_path, capsys, argv,
                                                message):
    # as argparse's own errors for the subcommand do
    path = _d1_path(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", path] + argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: zpreal eval ")
    assert captured.err.endswith(f"\nzpreal eval: error: {message}\n")


def test_verify_with_an_unwritable_report_prints_no_checks(tmp_path, capsys):
    # a caller reading stdout must not see a PASS list for a failed command
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    report = tmp_path / "no-such-dir" / "r.json"
    assert main(["verify", str(src), "--report-out", str(report)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {report}: "
                            f"No such file or directory\n")


@pytest.mark.parametrize("limit", ["0.5", "0", "-1"])
def test_factorize_refuses_a_cond_max_below_one(tmp_path, capsys, limit):
    # no split can pass such a limit, so exit 5 (a proven no) would be
    # wrong: the question is ill-posed
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    plus, minus = tmp_path / "p.json", tmp_path / "m.json"
    assert main(["factorize", str(src), "0", "0", "1", str(plus), str(minus),
                 "--cond-max", limit]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cond_max must be at least 1, "
                            f"got {float(limit):g}\n")
    assert not plus.exists() and not minus.exists()


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


@pytest.mark.parametrize("option, name", [("--tol", "fail_tol"),
                                          ("--cond-max", "cond_max")])
def test_factorize_refuses_nan_threshold(tmp_path, capsys, option, name):
    # a NaN tolerance or limit would let every residual or condition
    # number pass its gate
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    plus, minus = tmp_path / "p.json", tmp_path / "m.json"
    assert main(["factorize", str(src), "0", "0", "1", str(plus), str(minus),
                 option, "nan"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {name} must not be NaN\n"
    assert not plus.exists() and not minus.exists()


@pytest.mark.parametrize("tol", ["inf", "0", "-1"])
def test_factorize_refuses_a_tolerance_outside_zero_to_inf(tmp_path, capsys,
                                                           tol):
    # inf would waive product_at_samples; refused before the file is read
    src = tmp_path / "d2.json"
    save_instance(make_d2(), src)
    plus, minus = tmp_path / "p.json", tmp_path / "m.json"
    for path in (str(src), str(tmp_path / "missing.json")):
        assert main(["factorize", path, "0", "0", "1", str(plus), str(minus),
                     "--tol", tol]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: fail_tol must be positive and finite, "
                                f"got {float(tol)!r}\n")
        assert not plus.exists() and not minus.exists()


def test_factorize_cardinality_mismatch_exit(tmp_path, capsys):
    src = tmp_path / "mis.json"
    save_instance(make_scalar_instance([0.5, 0.6], [3.0, 4.0]), src)
    assert main(["factorize", str(src), "0", "0", "1",
                 str(tmp_path / "p.json"), str(tmp_path / "m.json")]) == 4
    assert "inside" in capsys.readouterr().err


def test_factorize_verification_failure_exits_6(tmp_path, capsys):
    # the two constructions of the outside factor disagree by 7.4e-9,
    # above AGREE_TOL, on this 16 + 16 split of the unit circle
    src = tmp_path / "b16.json"
    save_instance(balanced_instance(1, 16, 16, 3).data, src)
    plus, minus = tmp_path / "p.json", tmp_path / "m.json"
    assert main(["factorize", str(src), "0", "0", "1",
                 str(plus), str(minus)]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: two independent constructions of the outside factor "
        "disagree: residual ")
    assert not plus.exists() and not minus.exists()


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


@pytest.mark.parametrize("point", ["1,2,3", "abc", "1,x"])
def test_malformed_point_is_a_usage_error(capsys, point):
    with pytest.raises(SystemExit) as exc:
        main(["cauchy", "matrix", "--poles", point, "--zeros", "1"])
    assert exc.value.code == 2
    assert f"expected 're' or 're,im', got {point!r}" in capsys.readouterr().err


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


# --- one parser per process ------------------------------------------------

def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    cli.build_parser.cache_clear()
    path = _d1_path(tmp_path)
    for _ in range(3):
        assert main(["eval", path, "R", "2", "0"]) == 0
        assert main(["cauchy", "detsq", "--poles", "0", "--zeros", "1"]) == 0
        with pytest.raises(SystemExit):
            main(["nonsense"])
    # the root and one parser per subcommand, all built by the first call
    assert len(built) == 1 + 5


def _in_this_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return captured.out, captured.err, code


def _in_a_fresh_process(argv):
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "zpreal.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120)
    return proc.stdout, proc.stderr, proc.returncode


def test_reused_parser_carries_nothing_from_call_to_call(tmp_path, capsys,
                                                         monkeypatch):
    # usage lines wrap at the terminal width, which both processes read
    monkeypatch.setenv("COLUMNS", "80")
    path = str(tmp_path / "g.json")
    save_instance(random_instance(2, 4, 3).data, path)
    report = tmp_path / "r.json"

    def run(argv, code):
        got = _in_this_process(argv, capsys)
        assert got == _in_a_fresh_process(argv)
        assert got[2] == code
        return got[0]

    assert "1.0e-300" in run(["verify", path, "--tol", "1e-300"], 6)
    out = run(["verify", path], 0)
    assert "1.0e-300" not in out and "tol 1.0e-08" in out
    run(["verify", path, "--report-out", str(report)], 0)
    report.unlink()
    run(["verify", path], 0)
    assert not report.exists()
    run(["eval", path, "R", "2", "0", "3"], 2)
    run(["eval", path, "R", "2", "0"], 0)


def test_package_runs_as_a_module(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    bad = tmp_path / "bad.json"
    bad.write_text("not json")

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "zpreal", *argv],
            env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
            capture_output=True, text=True, timeout=120)

    ok = run("cauchy", "detsq", "--poles", "0", "--zeros", "1")
    assert (ok.returncode, ok.stdout, ok.stderr) == (0, "1 + 0i\n", "")
    refused = run("verify", str(bad))
    assert refused.returncode == 3
    assert refused.stderr.startswith("error: ")
