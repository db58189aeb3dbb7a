"""Tests for the binary container shared by checkpoints, sample files and
group files, and for the text report writers, which every report goes
through."""

import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from damage import set_last_value
from swhnet import cli, container, training
from swhnet.errors import ContractError, FormatError
from swhnet.metrics import METRIC_NAMES, MetricsReport, export_bias_grid, export_scatter
from swhnet.training import HISTORY_FIELDS, ModelDataset


def test_roundtrip_and_trailing_bytes(tmp_path):
    path = tmp_path / "c.bin"
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([True, False]), "i": np.array([-1, 2**40]),
              "empty": np.zeros((0, 4)), "scalar": np.array(0.5)}
    container.write(str(path), "demo", 7, {"note": "x"}, arrays)
    header, back = container.read(str(path), "demo", 7)
    assert header["note"] == "x"
    assert header["arrays"] == {"a": {"dtype": "<f8", "shape": [2, 3]}, "b": {"dtype": "|b1", "shape": [2]},
                                "i": {"dtype": "<i8", "shape": [2]}, "empty": {"dtype": "<f8", "shape": [0, 4]},
                                "scalar": {"dtype": "<f8", "shape": []}}
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype and back[name].shape == arr.shape
        assert back[name].tobytes() == arr.tobytes()
    # The header line, then the raw bytes of each array in order.
    line = json.dumps(header).encode() + b"\n"
    assert path.read_bytes() == line + b"".join(arr.tobytes() for arr in arrays.values())
    with pytest.raises(FormatError, match="not a other file"):
        container.read(str(path), "other", 7)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="has 1 bytes after its last array"):
        container.read(str(path), "demo", 7)


def test_an_array_of_another_dtype_is_refused_before_anything_is_written(tmp_path):
    path = tmp_path / "c.bin"
    container.write(str(path), "demo", 1, {}, {"a": np.ones(3)})
    before = path.read_bytes()
    for arr in (np.array([object()]), np.zeros(2, dtype=np.float32), np.zeros(2, dtype=">f8")):
        with pytest.raises(ContractError, match="array 'b' has dtype"):
            container.write(str(path), "demo", 1, {}, {"a": np.zeros(3), "b": arr})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "c.bin"
    container.write(str(path), "demo", 1, {}, {"a": np.ones(3)})
    before = path.read_bytes()
    # The write fails after the header line.
    monkeypatch.setattr(container.np, "ascontiguousarray", lambda arr: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        container.write(str(path), "demo", 1, {}, {"a": np.zeros(3)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]


def test_read_into_the_destinations_the_header_asks_for(tmp_path):
    path = tmp_path / "c.bin"
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([1, 2])}
    container.write(str(path), "demo", 1, {}, arrays)
    buffer = np.zeros(8)
    headers = []

    def into(header):
        headers.append(header["arrays"])
        return {"a": buffer[1:7].reshape(2, 3)}

    _, back = container.read(str(path), "demo", 1, into=into)
    assert headers == [{"a": {"dtype": "<f8", "shape": [2, 3]}, "b": {"dtype": "<i8", "shape": [2]}}]
    assert back["a"].base is buffer and buffer.tolist() == [0, 0, 1, 2, 3, 4, 5, 0]
    assert back["b"].dtype == np.int64 and back["b"].tolist() == [1, 2]
    # Every destination is checked before any is written.
    for dests, message in (({"a": np.full((2, 3), 9.0), "b": np.zeros(2)}, "'b' is int64 .* does not fit"),
                           ({"a": np.full((3, 2), 9.0)}, r"'a' is float64 \(2, 3\), which does not fit"),
                           ({"a": np.full((3, 2), 9.0).T}, r"'a' is float64 \(2, 3\), which does not fit")):
        with pytest.raises(FormatError, match=message):
            container.read(str(path), "demo", 1, into=lambda header: dests)
        assert all((arr == 9.0).all() for name, arr in dests.items() if name == "a")


def test_fortran_ordered_arrays_are_written_in_c_order(tmp_path):
    path = tmp_path / "c.bin"
    arr = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    container.write(str(path), "demo", 1, {}, {"a": arr})
    back = container.read(str(path), "demo", 1)[1]["a"]
    assert back.flags.c_contiguous and np.array_equal(back, arr)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_float_array_is_refused_before_anything_is_written(tmp_path, value):
    path = tmp_path / "c.bin"
    container.write(str(path), "demo", 1, {}, {"a": np.ones(3)})
    before = path.read_bytes()
    bad = np.arange(6.0).reshape(2, 3)
    bad[1, 0] = value
    message = f"{re.escape(str(path))}: demo array 'b' holds a non-finite value; not written"
    with pytest.raises(ContractError, match=message):
        container.write(str(path), "demo", 1, {}, {"a": np.zeros(3), "b": bad, "c": np.ones(2)})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.bin"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_float_array_is_rejected_on_read(tmp_path, value):
    path = tmp_path / "c.bin"
    # Integer, boolean and empty arrays have no non-finite values to hold.
    container.write(str(path), "demo", 1, {}, {"i": np.array([1, 2]), "b": np.array([True]),
                                               "empty": np.zeros((0, 3)), "a": np.ones(3)})
    assert container.read(str(path), "demo", 1)[1]["empty"].shape == (0, 3)
    set_last_value(path, "demo", 1, "a", value)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: demo array 'a' holds a non-finite value"):
        container.read(str(path), "demo", 1)


def test_a_header_line_at_the_cap_is_read_and_one_past_it_is_rejected(tmp_path):
    path = tmp_path / "c.bin"
    container.write(str(path), "demo", 1, {"pad": ""}, {"a": np.ones(3)})
    pad = "x" * (container.HEADER_MAX_BYTES - len(path.read_bytes().partition(b"\n")[0]) - 1)
    container.write(str(path), "demo", 1, {"pad": pad}, {"a": np.ones(3)})
    assert len(path.read_bytes().partition(b"\n")[0]) + 1 == container.HEADER_MAX_BYTES
    assert container.read(str(path), "demo", 1)[0]["pad"] == pad
    container.write(str(path), "demo", 1, {"pad": pad + "x"}, {"a": np.ones(3)})
    with pytest.raises(FormatError, match="has no header line within its first 1048576 bytes"):
        container.read(str(path), "demo", 1)


def test_a_file_without_a_newline_is_refused_after_the_header_cap(tmp_path):
    # A wrong path to a large binary file is not read whole into memory.
    path = tmp_path / "big.bin"
    path.write_bytes(b"\1" * (4 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"{re.escape(str(path))} has no header line within its first 1048576 "):
            container.read(str(path), "demo", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 20)


F8 = {"dtype": "<f8", "shape": [4]}


@pytest.mark.parametrize("arrays, data, message", [
    ({"a": {"dtype": "<f8", "shape": [-1]}}, bytes(8), r"'a' has shape \[-1\], not a list of non-negative"),
    ({"a": {"dtype": "<f8", "shape": "4"}}, bytes(32), "'a' has shape '4', not a list"),
    ({"a": {"dtype": "<f8", "shape": [True, 4]}}, bytes(32), r"'a' has shape \[True, 4\], not a list"),
    ({"a": {"dtype": "<f8", "shape": [4.0]}}, bytes(32), r"'a' has shape \[4.0\], not a list"),
    ({"a": {"dtype": "<f4", "shape": [4]}}, bytes(16), "'a' has dtype '<f4', not one of <f8, <i8, |b1"),
    ({"a": {"dtype": "|O", "shape": [4]}}, bytes(32), "'a' has dtype '|O', not one of"),
    ({"a": {"dtype": ["<f8"], "shape": [4]}}, bytes(32), r"'a' has dtype \['<f8'\], not one of"),
    ({"a": [4]}, bytes(32), r"'a' is described by \[4\], not by a dtype and a shape"),
    ({"a": {"shape": [4]}}, bytes(32), "'a' is described by .*, not by a dtype and a shape"),
    ({"a": F8}, bytes(31), "'a' is truncated: 32 bytes declared, 31 left"),
    ({"a": F8, "b": F8}, bytes(40), "'b' is truncated: 32 bytes declared, 8 left"),
    ({"a": {"dtype": "<f8", "shape": [400000000000]}}, bytes(32),
     "'a' is truncated: 3200000000000 bytes declared, 32 left"),
    ({"a": F8}, bytes(33), "has 1 bytes after its last array"),
], ids=["negative-dim", "shape-not-a-list", "bool-dim", "float-dim", "unknown-dtype", "object-dtype",
        "dtype-not-a-string", "shape-only", "no-dtype", "truncated", "second-truncated", "huge-shape",
        "trailing-bytes"])
def test_a_bad_record_is_a_format_error_before_anything_is_allocated(tmp_path, arrays, data, message):
    """Each fault is refused, naming the file and the array, before `into`
    is called or any array is allocated."""
    path = tmp_path / "c.bin"
    header = {"kind": "demo", "format_version": 1, "arrays": arrays}
    path.write_bytes(json.dumps(header).encode() + b"\n" + data)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=message) as info:
            container.read(str(path), "demo", 1, into=lambda header: pytest.fail("into was called"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value).startswith(str(path))
    assert peak < 1 << 16


# ---------------------------------------------------------------------------
# text report writers
# ---------------------------------------------------------------------------

# Doubles whose repr is easy to get wrong: negative zero, the least
# subnormal and one near the top of the range, besides any float at all.
SPECIAL = [-0.0, 5e-324, 1e300]
any_float = st.one_of(st.floats(), st.sampled_from(SPECIAL))
finite_float = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIAL))


def written(write, tmp_path_factory) -> dict:
    """{name: bytes} of the files `write(directory)` leaves in a fresh directory,
    with the message of the ContractError it raised, if any."""
    out = tmp_path_factory.mktemp("report")
    try:
        with np.errstate(all="ignore"):
            write(out)
        error = None
    except ContractError as exc:
        error = str(exc)
    return {"error": error, **{p.name: p.read_bytes() for p in out.iterdir()}}


def same_bytes(tmp_path_factory, new, old) -> None:
    assert written(new, tmp_path_factory) == written(old, tmp_path_factory)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 75), *[any_float] * 6), max_size=4),
       st.lists(st.lists(any_float, min_size=17, max_size=17), max_size=3))
def test_history_and_predictions_give_the_oracles_bytes(tmp_path_factory, history, samples):
    rows = [dict(zip(HISTORY_FIELDS, row)) for row in history]
    same_bytes(tmp_path_factory, lambda out: training.write_history(str(out / "h.csv"), rows),
               lambda out: oracles.write_history(str(out / "h.csv"), rows))
    # numpy floats are written as the Python floats of the same value
    numpy_rows = [{k: np.float64(v) if isinstance(v, float) else v for k, v in row.items()} for row in rows]
    same_bytes(tmp_path_factory, lambda out: training.write_history(str(out / "h.csv"), numpy_rows),
               lambda out: oracles.write_history(str(out / "h.csv"), rows))
    a = np.array(samples, dtype=np.float64).reshape(len(samples), 17)
    dataset = ModelDataset(ddms=np.zeros((len(a), 4, 3, 1, 1)), aps=np.zeros((len(a), 4, 1)),
                           refs=a[:, 0:4], timestamps=a[:, 4], lats=a[:, 5:9], lons=a[:, 9:13])
    preds = a[:, 13:17]
    same_bytes(tmp_path_factory, lambda out: cli._write_predictions(str(out / "p.csv"), dataset, preds, "c0ffee"),
               lambda out: oracles.write_predictions(str(out / "p.csv"), dataset, preds, "c0ffee"))


cells = st.fixed_dictionaries({"n": st.integers(0, 10 ** 6), "mape_excluded": st.integers(0, 10),
                               **{m: st.none() | any_float for m in METRIC_NAMES}})
# Integer edges, as a config file may give them, must stay integers.
edges = st.one_of(st.integers(-10, 10), finite_float)
bins = st.fixed_dictionaries({"lo": edges, "hi": edges, "average": cells,
                              "per_channel": st.dictionaries(st.integers(1, 4), cells, max_size=4)})


@settings(max_examples=100, deadline=None)
@given(st.lists(cells, min_size=5, max_size=5), st.lists(bins, max_size=3))
def test_metrics_report_writers_give_the_oracles_bytes(tmp_path_factory, cell_list, bin_list):
    rep = MetricsReport(config_hash="c0ffee", n=cell_list[4]["n"], average=cell_list[4],
                        per_channel=dict(enumerate(cell_list[:4], start=1)), bins=bin_list)
    oracle = oracles.MetricsReportWriters(rep)
    for new, old in ((rep.write_json, oracle.write_json), (rep.write_csv, oracle.write_csv),
                     (rep.write_binned_csv, oracle.write_binned_csv)):
        same_bytes(tmp_path_factory, lambda out: new(str(out / "m")), lambda out: old(str(out / "m")))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.floats(-1, 9), st.sampled_from(SPECIAL + [8.0])), finite_float,
                          st.floats(-90, 90), st.floats(-180, 180)), min_size=1, max_size=12),
       st.sampled_from([0.1, 0.25, 0.5, 1, 2.0, 8.0]), st.sampled_from([0.25, 1.0, 2, 45.0]))
def test_plot_exports_give_the_oracles_bytes(tmp_path_factory, rows, width, cell):
    """At scatter widths that divide 8 m, where the bin count is unchanged."""
    ref, pred, lats, lons = (np.array(col) for col in zip(*rows))
    same_bytes(tmp_path_factory,
               lambda out: export_scatter(pred, ref, str(out / "s"), bin_width=width, config_hash="h"),
               lambda out: oracles.export_scatter(pred, ref, str(out / "s"), bin_width=width, config_hash="h"))
    same_bytes(tmp_path_factory,
               lambda out: export_bias_grid(lats, lons, pred, ref, str(out / "g.csv"), cell_deg=cell),
               lambda out: oracles.export_bias_grid(lats, lons, pred, ref, str(out / "g.csv"), cell_deg=cell))
