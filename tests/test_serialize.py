"""save_instance against json.dumps, and the loader's fast and checked paths."""

import json
import os
import threading

import numpy as np
import pytest

from zpreal.errors import ParseError
from zpreal.serialize import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from zpreal.zero_pole import ZeroPoleData

from helpers import random_complex

FIELDS = ("poles", "zeros", "F_P", "G_P", "F_N", "G_N")

METADATA = [
    None,
    {},
    {"seed": 7},
    {"description": "unicode é ✓ and a\nnewline", "cond_Sr": 1.5e-300,
     "generator": {"disk_radius": 2.0, "nested": [1, [2.5, None], True]},
     "empty": {}, "list": []},
]


def _instance(k, n, seed):
    """Unchecked but valid data: random draws with a few -0.0 parts."""
    rng = np.random.default_rng(seed)
    pts = 3.0 * random_complex(rng, 2 * n)
    d = {"poles": pts[:n], "zeros": pts[n:],
         "F_P": random_complex(rng, k, n), "G_P": random_complex(rng, n, k),
         "F_N": random_complex(rng, k, n), "G_N": random_complex(rng, n, k)}
    if n:
        d["poles"][0] = complex(-0.0, 1.25)
        d["F_P"][0, 0] = complex(0.5, -0.0)
        d["G_N"][n - 1, k - 1] = complex(-0.0, -0.0) + 1e-300
    return ZeroPoleData(**d)


def _bits(a):
    return a.shape, a.dtype, a.tobytes()


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n", [0, 1, 8, 32, 128])
def test_save_instance_is_json_dumps_byte_for_byte(tmp_path, k, n):
    d = _instance(k, n, seed=10 * k + n)
    for i, meta in enumerate(METADATA):
        path = tmp_path / f"inst{i}.json"
        save_instance(d, path, meta)
        want = json.dumps(instance_to_dict(d, meta), indent=2) + "\n"
        assert path.read_bytes() == want.encode("utf-8")


@pytest.mark.parametrize("old_size", [0, 1, "one-short", "same", "one-long",
                                      "ten-times"])
def test_save_instance_rewrites_an_existing_file_exactly(tmp_path, old_size):
    # the file is rewritten in place, then cut to the new length: the
    # bytes are a fresh file's, with no tail of the old text left over
    d = _instance(4, 8, seed=3)
    fresh = tmp_path / "fresh.json"
    save_instance(d, fresh, METADATA[-1])
    want = fresh.read_bytes()
    size = {"one-short": len(want) - 1, "same": len(want),
            "one-long": len(want) + 1,
            "ten-times": 10 * len(want)}.get(old_size, old_size)
    path = tmp_path / "old.json"
    path.write_bytes(b"x" * size)
    inode = os.stat(path).st_ino
    save_instance(d, path, METADATA[-1])
    assert path.read_bytes() == want
    assert os.stat(path).st_ino == inode


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a FIFO")
def test_save_instance_writes_through_a_fifo(tmp_path):
    # a FIFO cannot be cut to length, and is only written to
    d = _instance(2, 4, seed=5)
    fresh = tmp_path / "fresh.json"
    save_instance(d, fresh)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    save_instance(d, fifo)
    reader.join(timeout=10)
    assert got == [fresh.read_bytes()]


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("n", [0, 1, 8, 32])
def test_loaded_arrays_are_bitwise_equal(tmp_path, k, n):
    d = _instance(k, n, seed=n)
    path = tmp_path / "inst.json"
    save_instance(d, path, METADATA[-1])
    loaded, meta = load_instance(path)
    for name in FIELDS:
        assert _bits(getattr(loaded, name)) == _bits(getattr(d, name)), name
    assert meta == METADATA[-1]


def test_signed_zeros_survive_the_round_trip(tmp_path):
    d = _instance(2, 3, seed=4)
    path = tmp_path / "inst.json"
    save_instance(d, path)
    loaded, _ = load_instance(path)
    assert np.signbit(loaded.poles[0].real)
    assert np.signbit(loaded.F_P[0, 0].imag)


def _obj():
    return instance_to_dict(_instance(2, 3, seed=5))


# Each edit breaks one field; the message names its first bad entry.
# _obj() has k = 2 and n = 3.
MALFORMED = [
    (lambda o: o["poles"].__setitem__(1, ["1.0", 2.0]),
     "poles[1]: expected a [re, im] pair, got ['1.0', 2.0]"),
    (lambda o: o["zeros"].__setitem__(2, [1.0, 2.0, 3.0]),
     "zeros[2]: expected a [re, im] pair, got [1.0, 2.0, 3.0]"),
    (lambda o: o["zeros"].__setitem__(0, None),
     "zeros[0]: expected a [re, im] pair, got None"),
    (lambda o: o["poles"].__setitem__(0, [None, 1.0]),
     "poles[0]: expected a [re, im] pair, got [None, 1.0]"),
    (lambda o: o["poles"].append([0.0, 9.0]),
     "poles: expected 3 entries"),
    (lambda o: o["F_P"][1].__setitem__(2, ["0.5", "1"]),
     "F_P[1][2]: expected a [re, im] pair, got ['0.5', '1']"),
    (lambda o: o["G_P"][0].__setitem__(1, [1.0, 2.0, 0.0]),
     "G_P[0][1]: expected a [re, im] pair, got [1.0, 2.0, 0.0]"),
    (lambda o: o["F_N"][0].pop(),
     "F_N[0]: expected 3 entries"),
    (lambda o: o["G_N"][2].append([1.0, 1.0]),
     "G_N[2]: expected 2 entries"),
    (lambda o: o["G_N"].__setitem__(1, None),
     "G_N[1]: expected 2 entries"),
    (lambda o: o["F_P"][0].__setitem__(0, [[1.0, 2.0], 3.0]),
     "F_P[0][0]: expected a [re, im] pair, got [[1.0, 2.0], 3.0]"),
    (lambda o: o["F_N"].__setitem__(0, [[1.0, 2.0]] * 2 + [[1.0]]),
     "F_N[0][2]: expected a [re, im] pair, got [1.0]"),
    (lambda o: o["G_P"].__setitem__(2, [{"re": 1.0}, [0.0, 1.0]]),
     "G_P[2][0]: expected a [re, im] pair, got {'re': 1.0}"),
    (lambda o: o["F_P"].__setitem__(1, "row"),
     "F_P[1]: expected 3 entries"),
    (lambda o: o.__setitem__("poles", None),
     "poles: expected 3 entries"),
    (lambda o: o["zeros"].__setitem__(1, [10 ** 400, 0.0]),
     "zeros[1]: number does not fit a float"),
    (lambda o: o["F_P"].append(o["F_P"][0]),
     "F_P: expected 2 rows"),
    (lambda o: o["G_N"].__setitem__(0, [[0.0, 1.0], [-10 ** 400, 0.0]]),
     "G_N[0][1]: number does not fit a float"),
    (lambda o: o.__setitem__("k", True),
     "k/n: expected integers k >= 1, n >= 0, got True/3"),
    (lambda o: o.__setitem__("n", False),
     "k/n: expected integers k >= 1, n >= 0, got 2/False"),
    (lambda o: o.__setitem__("k", 0),
     "k/n: expected integers k >= 1, n >= 0, got 0/3"),
    (lambda o: o.__setitem__("n", -1),
     "k/n: expected integers k >= 1, n >= 0, got 2/-1"),
    (lambda o: o.__setitem__("k", 2.0),
     "k/n: expected integers k >= 1, n >= 0, got 2.0/3"),
    (lambda o: o.__setitem__("metadata", [1]),
     "metadata: expected an object"),
]


@pytest.mark.parametrize("edit, message", MALFORMED)
def test_malformed_fields_raise_the_checked_loops_message(tmp_path, edit,
                                                          message):
    obj = _obj()
    edit(obj)
    with pytest.raises(ParseError) as exc:
        instance_from_dict(obj)
    assert str(exc.value) == message
    # the same text through a file, where json.load makes the lists
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(ParseError) as exc:
        load_instance(path)
    assert str(exc.value) == message


def test_bools_and_ints_read_as_numbers_as_before():
    obj = _obj()
    obj["poles"][0] = [True, False]
    obj["poles"][1] = [True, 2.5]
    obj["zeros"][0] = [3, -4]
    obj["F_P"][0] = [[1, 0], [0, 1], [True, True]]
    d, _ = instance_from_dict(obj)
    assert d.poles[0] == 1 and d.poles[1] == 1 + 2.5j and d.zeros[0] == 3 - 4j
    np.testing.assert_array_equal(d.F_P[0], [1, 1j, 1 + 1j])
    assert d.F_P.dtype == np.complex128


def test_top_level_must_be_an_object(tmp_path):
    with pytest.raises(ParseError) as exc:
        instance_from_dict([_obj()])
    assert str(exc.value) == "top level: expected a JSON object"
    path = tmp_path / "list.json"
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ParseError, match="^top level: expected a JSON object$"):
        load_instance(path)


@pytest.mark.parametrize("name, reason", [
    ("absent.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unreadable_path_is_a_parse_error(tmp_path, name, reason):
    path = tmp_path / name
    with pytest.raises(ParseError) as exc:
        load_instance(path)
    assert str(exc.value) == f"{path}: {reason}"


@pytest.mark.parametrize("k, n", [(1, 1), (2, 4), (4, 8)])
def test_checked_walk_reads_the_saved_bits(k, n):
    # 2**64 fits a float but not an int64, so numpy reads every field
    # that holds it as objects, and the checked walk reads it instead
    d = _instance(k, n, seed=k + n)
    obj = instance_to_dict(d)
    for i, name in enumerate(FIELDS, 1):
        entries = obj[name] if name in ("poles", "zeros") else obj[name][-1]
        entries[-1] = [i * 2 ** 64, -0.0]
    loaded, _ = instance_from_dict(obj)
    for i, name in enumerate(FIELDS, 1):
        want = getattr(d, name).copy()
        want.reshape(-1)[-1] = complex(i * 2.0 ** 64, -0.0)
        assert _bits(getattr(loaded, name)) == _bits(want), name
