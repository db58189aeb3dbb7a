"""Tests for the binary container shared by checkpoints, sample files and
group files, and for the text report writers, which every report goes
through."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from damage import record_shape
from swhnet import cli, container, training
from swhnet.errors import ContractError, FormatError
from swhnet.metrics import METRIC_NAMES, MetricsReport, export_bias_grid, export_scatter
from swhnet.training import HISTORY_FIELDS, ModelDataset


def test_roundtrip_and_trailing_bytes(tmp_path):
    path = tmp_path / "c.bin"
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.array([True, False]), "empty": np.zeros((0, 4))}
    container.write(str(path), "demo", 7, {"note": "x"}, arrays)
    header, back = container.read(str(path), "demo", 7)
    assert header["note"] == "x"
    assert header["arrays"] == {"a": [2, 3], "b": [2], "empty": [0, 4]}
    for name, arr in arrays.items():
        assert back[name].dtype == arr.dtype and back[name].tobytes() == arr.tobytes()
    with pytest.raises(FormatError, match="not a other file"):
        container.read(str(path), "other", 7)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(FormatError, match="after its last array"):
        container.read(str(path), "demo", 7)


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "c.bin"
    container.write(str(path), "demo", 1, {}, {"a": np.ones(3)})
    before = path.read_bytes()
    # object arrays cannot be written without pickling: the write fails after the first array
    with pytest.raises(ValueError):
        container.write(str(path), "demo", 1, {}, {"a": np.zeros(3), "b": np.array([object()])})
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
    assert headers == [{"a": [2, 3], "b": [2]}]
    assert back["a"].base is buffer and buffer.tolist() == [0, 0, 1, 2, 3, 4, 5, 0]
    assert back["b"].dtype == np.int64 and back["b"].tolist() == [1, 2]
    with pytest.raises(FormatError, match="'b' is int64 .* does not fit its destination"):
        container.read(str(path), "demo", 1, into=lambda header: {"b": np.zeros(2)})


def test_fortran_ordered_arrays_are_written_in_c_order(tmp_path):
    path = tmp_path / "c.bin"
    arr = np.asfortranarray(np.arange(6.0).reshape(2, 3))
    container.write(str(path), "demo", 1, {}, {"a": arr})
    back = container.read(str(path), "demo", 1)[1]["a"]
    assert back.flags.c_contiguous and np.array_equal(back, arr)


def npy(arr, **kw) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr, **kw)
    return buf.getvalue()


@pytest.mark.parametrize("shapes, record, message", [
    ({"a": [-1]}, npy(np.zeros(1)), "not a demo file"),
    ({"a": "4"}, npy(np.zeros(4)), "not a demo file"),
    ({"a": [1]}, b"garbage", "'a' is truncated or corrupt"),
    ({"a": [1]}, npy(np.array([None]), allow_pickle=True), "'a' holds Python objects"),
    ({"a": [2, 3]}, npy(np.zeros((2, 3), order="F")), "'a' is not in C order"),
    ({"a": [4]}, npy(np.zeros(3)), r"'a' has shape \[3\], header says \[4\]"),
    ({"a": [4]}, npy(np.zeros(4))[:-1], "'a' is truncated: 32 bytes declared, 31 left"),
    ({"a": [400000000000]}, record_shape(npy(np.zeros(4)), (4,), (400000000000,)),
     "'a' is truncated: 3200000000000 bytes declared, 32 left"),
], ids=["negative-dim", "shape-not-a-list", "bad-magic", "object-dtype", "fortran-order", "shape-mismatch",
        "truncated", "huge-shape"])
def test_a_bad_record_is_a_format_error_before_anything_is_allocated(tmp_path, shapes, record, message):
    path = tmp_path / "c.bin"
    header = {"kind": "demo", "format_version": 1, "arrays": shapes}
    path.write_bytes(json.dumps(header).encode() + b"\n" + record)
    with pytest.raises(FormatError, match=message):
        container.read(str(path), "demo", 1)


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
