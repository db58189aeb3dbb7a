"""The ingest input generators: determinism and the planted mix."""

import numpy as np
import pytest

import inputs
import workloads
from swhnet import pipeline

N, SHARDS = 120, 3


def write(tmp_path, seed, tag):
    work = tmp_path / tag
    work.mkdir()
    planted = inputs.write_ingest_inputs(seed, str(work), n_timestamps=N, n_shards=SHARDS)
    paths = [inputs.l1_path(str(work), i) for i in range(SHARDS)]
    return paths + [inputs.grid_path(str(work)), inputs.buoy_path(str(work))], planted


def test_equal_seeds_give_identical_bytes(tmp_path):
    a, planted_a = write(tmp_path, 5, "a")
    b, planted_b = write(tmp_path, 5, "b")
    c, _ = write(tmp_path, 6, "c")
    assert len(a) == SHARDS + 2
    for pa, pb, pc in zip(a, b, c):
        with open(pa, "rb") as fa, open(pb, "rb") as fb, open(pc, "rb") as fc:
            da, db, dc = fa.read(), fb.read(), fc.read()
        assert da == db
        assert da != dc
    assert planted_a == planted_b


@pytest.fixture(scope="module")
def ingest(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ingest")
    paths, planted = write(tmp, 3, "x")
    docs = [pipeline.read_l1_records(p) for p in paths[:SHARDS]]
    tallies = [pipeline.quality_control(d) for d in docs]
    kept = [r for k, _ in tallies for r in k]
    groups, align = pipeline.align_channels(kept)
    return (planted, docs, [qc for _, qc in tallies], groups, align,
            pipeline.read_era5_grid(paths[-2]), pipeline.read_buoys(paths[-1]))


def test_files_split_the_timestamps_in_time_order(ingest):
    planted, docs, *_ = ingest
    assert [len(d) for d in docs] == [s["records"] for s in planted["shards"]]
    assert sum(len(d) for d in docs) == planted["records"]
    stamps = [sorted({d["timestamp"] for d in shard}) for shard in docs]
    assert all(len(s) == N // SHARDS for s in stamps)
    assert all(a[-1] < b[0] for a, b in zip(stamps, stamps[1:]))


def test_records_hit_every_qc_rule_in_planted_numbers(ingest):
    planted, _, qcs, *_ = ingest
    for shard, qc in zip(planted["shards"], qcs):
        assert {rule: qc[rule] for rule in pipeline.QC_RULES} == shard["qc_planted"]
        assert qc["malformed"] == 0
    assert all(sum(s["qc_planted"][rule] for s in planted["shards"]) > 0 for rule in pipeline.QC_RULES)


def test_incomplete_and_duplicated_timestamps_present(ingest):
    _, _, _, _, align, _, _ = ingest
    assert align["incomplete_channels"] > 0
    assert align["duplicate_channel"] > 0
    assert align["groups"] > 0


def test_grid_is_global_in_longitude(ingest):
    grid = ingest[5]
    assert grid.lons[0] == -180.0 and grid.lons[-1] == 179.5
    assert np.all(np.diff(grid.lons) == 0.5)


def test_buoys_match_a_share_of_groups_and_grid_matches_most(ingest):
    _, _, _, groups, _, grid, buoys = ingest
    _, tally = pipeline.match_buoy_groups(groups, buoys)
    assert 0 < tally["matched"] < len(groups)
    _, era5 = pipeline.match_era5_groups(groups, grid)
    assert era5["matched"] > len(groups) // 2
    assert era5["masked_node"] > 0


def test_tallies_of_the_files_add_up_to_the_whole(ingest):
    _, docs, qcs, *_ = ingest
    _, whole = pipeline.quality_control([d for shard in docs for d in shard])
    assert workloads.add_tallies(*({"qc": qc} for qc in qcs)) == {"qc": whole}
