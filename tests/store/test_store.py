"""Sharded columnar store: round-trips, corruption detection, compaction.

The store's contract is that the on-disk representation is a faithful,
verifiable encoding: decoding returns bit-identical scenarios, every
torn or tampered artefact is detected rather than silently decoded, and
compaction changes physical layout only.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster import ScenarioDataset, ScenarioSource, run_simulation
from repro.cluster.simulation import DatacenterConfig
from repro.store import (
    ShardedScenarioStore,
    StoreCorruptionError,
    StoreError,
    StoreWriter,
    compact_store,
    open_store,
    write_store,
)


def assert_scenarios_identical(left, right) -> None:
    """Field-by-field scenario equality, floats compared bitwise."""
    assert left.scenario_id == right.scenario_id
    assert left.key == right.key
    assert left.n_occurrences == right.n_occurrences
    assert left.total_duration_s == right.total_duration_s
    assert len(left.instances) == len(right.instances)
    for a, b in zip(left.instances, right.instances):
        assert a.signature == b.signature
        assert a.load == b.load


class TestRoundTrip:
    def test_every_scenario_bit_identical(self, store_dataset, shared_store):
        reopened = open_store(shared_store.path)
        assert len(reopened) == len(store_dataset)
        for i in range(len(store_dataset)):
            assert_scenarios_identical(store_dataset[i], reopened[i])

    def test_to_dataset_round_trip(self, store_dataset, shared_store):
        back = shared_store.to_dataset()
        assert isinstance(back, ScenarioDataset)
        assert back.shape == store_dataset.shape
        np.testing.assert_array_equal(
            back.weights(), store_dataset.weights()
        )
        for a, b in zip(store_dataset.scenarios, back.scenarios):
            assert_scenarios_identical(a, b)

    def test_digest_matches_source_dataset(self, store_dataset, shared_store):
        assert shared_store.digest() == store_dataset.digest()

    def test_iter_batches_in_order_and_shard_bounded(self, shared_store):
        seen = []
        for batch in shared_store.iter_batches():
            assert len(batch) <= shared_store.shard_size
            seen.extend(s.scenario_id for s in batch.scenarios)
        assert seen == [
            shared_store[i].scenario_id for i in range(len(shared_store))
        ]

    def test_satisfies_scenario_source(self, store_dataset, shared_store):
        assert isinstance(shared_store, ScenarioSource)
        assert isinstance(store_dataset, ScenarioSource)

    def test_signatures_and_weights_survive(self, store_dataset, shared_store):
        assert set(shared_store.signatures) == set(store_dataset.signatures)
        np.testing.assert_array_equal(
            shared_store.weights(), store_dataset.weights()
        )

    def test_schema_matches_dataset_schema(self, store_dataset, shared_store):
        assert shared_store.schema() == store_dataset.schema()
        assert shared_store.manifest["total_rows"] == len(shared_store)


class TestStreamingSink:
    def test_sink_write_equals_materialised_write(self, tmp_path):
        config = DatacenterConfig(seed=11, target_unique_scenarios=30)
        with StoreWriter(
            tmp_path / "streamed", config.shape, shard_size=8
        ) as writer:
            result = run_simulation(config, sink=writer)
        assert result.dataset is None
        assert result.n_unique_scenarios == len(writer.store)

        resident = run_simulation(config).dataset
        direct = write_store(resident, tmp_path / "direct", shard_size=8)
        assert writer.store.digest() == direct.digest()

    def test_aborted_write_leaves_no_store(self, tmp_path, store_dataset):
        path = tmp_path / "torn"
        with pytest.raises(RuntimeError, match="mid-write"):
            with StoreWriter(path, store_dataset.shape, shard_size=8) as w:
                w.extend(store_dataset.scenarios[:20])
                raise RuntimeError("simulated crash mid-write")
        # Shards may exist, but without a manifest there is no store.
        with pytest.raises(StoreError, match="manifest"):
            open_store(path)

    def test_overwrite_guard(self, tmp_path, store_dataset):
        path = tmp_path / "once"
        write_store(store_dataset, path, shard_size=16)
        with pytest.raises(StoreError, match="overwrite"):
            write_store(store_dataset, path, shard_size=16)
        again = write_store(
            store_dataset, path, shard_size=16, overwrite=True
        )
        assert again.digest() == store_dataset.digest()


class TestCorruptionDetection:
    def _copy(self, store, tmp_path) -> ShardedScenarioStore:
        return write_store(store, tmp_path / "victim", shard_size=16)

    def test_flipped_byte_in_shard_detected(self, shared_store, tmp_path):
        victim = self._copy(shared_store, tmp_path)
        shard_file = sorted(victim.path.glob("*.scenarios.npy"))[1]
        raw = bytearray(shard_file.read_bytes())
        raw[-1] ^= 0xFF
        shard_file.write_bytes(bytes(raw))
        with pytest.raises(StoreCorruptionError, match="digest"):
            open_store(victim.path).verify()

    def test_truncated_shard_detected(self, shared_store, tmp_path):
        victim = self._copy(shared_store, tmp_path)
        shard_file = sorted(victim.path.glob("*.instances.npy"))[0]
        shard_file.write_bytes(shard_file.read_bytes()[:-40])
        with pytest.raises((StoreCorruptionError, ValueError)):
            open_store(victim.path).verify()

    def test_stale_manifest_row_count_detected(self, shared_store, tmp_path):
        victim = self._copy(shared_store, tmp_path)
        manifest_path = victim.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["total_rows"] += 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptionError, match="total_rows"):
            open_store(victim.path)

    def test_stale_manifest_content_digest_detected(
        self, shared_store, tmp_path
    ):
        victim = self._copy(shared_store, tmp_path)
        manifest_path = victim.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["content_digest"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreCorruptionError, match="digest"):
            open_store(victim.path).verify()

    def test_unknown_format_version_rejected(self, shared_store, tmp_path):
        victim = self._copy(shared_store, tmp_path)
        manifest_path = victim.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreError, match="version"):
            open_store(victim.path)

    def test_missing_manifest_is_not_a_store(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(StoreError, match="manifest"):
            open_store(tmp_path / "empty")


class TestCompaction:
    def test_compaction_preserves_content(self, shared_store, tmp_path):
        compacted = compact_store(
            shared_store, tmp_path / "bigger", shard_size=32
        )
        assert compacted.digest() == shared_store.digest()
        assert compacted.n_shards < shared_store.n_shards
        for i in range(len(shared_store)):
            assert_scenarios_identical(shared_store[i], compacted[i])

    def test_compaction_to_smaller_shards(self, shared_store, tmp_path):
        compacted = compact_store(
            shared_store, tmp_path / "smaller", shard_size=4
        )
        assert compacted.digest() == shared_store.digest()
        assert compacted.n_shards > shared_store.n_shards


class TestCompression:
    def test_zlib_round_trip_bit_identical(self, store_dataset, tmp_path):
        store = write_store(
            store_dataset, tmp_path / "z", shard_size=16, compression="zlib"
        )
        for i in range(len(store_dataset)):
            assert_scenarios_identical(store_dataset[i], store[i])

    def test_digest_is_codec_independent(
        self, store_dataset, shared_store, tmp_path
    ):
        # Shard digests cover the *uncompressed* array bytes, so the
        # logical content digest cannot depend on the codec.
        compressed = write_store(
            store_dataset, tmp_path / "z", shard_size=16, compression="zlib"
        )
        assert compressed.digest() == shared_store.digest()
        assert compressed.digest() == store_dataset.digest()
        compressed.verify()

    def test_manifest_records_compression(self, store_dataset, tmp_path):
        store = write_store(
            store_dataset, tmp_path / "z", shard_size=16, compression="zlib"
        )
        manifest = json.loads((store.path / "manifest.json").read_text())
        assert manifest["compression"] == "zlib"
        assert all(
            shard["compression"] == "zlib" for shard in manifest["shards"]
        )

    def test_compressed_store_yields_the_same_tables(
        self, store_dataset, shared_store, tmp_path
    ):
        # Compressed shards take the same table path as raw ones:
        # decompressed, digest-verified, byte-equal arrays.
        compressed = write_store(
            store_dataset, tmp_path / "z", shard_size=16, compression="zlib"
        )
        pairs = list(zip(compressed.iter_tables(), shared_store.iter_tables()))
        assert len(pairs) == shared_store.n_shards
        for got, want in pairs:
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    def test_corrupt_compressed_shard_detected(self, store_dataset, tmp_path):
        store = write_store(
            store_dataset, tmp_path / "z", shard_size=16, compression="zlib"
        )
        shard = sorted(store.path.glob("*.scenarios.npy"))[0]
        blob = bytearray(shard.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        shard.write_bytes(bytes(blob))
        with pytest.raises(StoreCorruptionError):
            open_store(store.path).verify()

    def test_unknown_compression_rejected(self, store_dataset, tmp_path):
        with pytest.raises(StoreError, match="compression"):
            write_store(
                store_dataset, tmp_path / "x", compression="snappy"
            )

    def test_compaction_can_change_codec(
        self, store_dataset, shared_store, tmp_path
    ):
        compressed = compact_store(
            shared_store, tmp_path / "z", shard_size=16, compression="zlib"
        )
        assert compressed.digest() == shared_store.digest()
        back = compact_store(compressed, tmp_path / "raw", shard_size=16)
        assert back.manifest["compression"] is None
        assert back.digest() == shared_store.digest()


class TestWriteDurability:
    def test_no_temp_files_survive_a_finished_write(self, store_dataset, tmp_path):
        store = write_store(store_dataset, tmp_path / "s", shard_size=16)
        leftovers = [
            p for p in store.path.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_manifest_is_written_last(self, store_dataset, tmp_path):
        # The writer defers per-shard fsync to finalize(), which is only
        # safe because nothing references the shards until the manifest
        # lands: an interrupted write must not look like a store.
        writer = StoreWriter(
            tmp_path / "s", shape=store_dataset.shape, shard_size=16
        )
        writer.extend(store_dataset.scenarios)
        assert not (writer.path / "manifest.json").exists()
        assert any(writer.path.glob("*.npy"))
        writer.finalize()
        assert (writer.path / "manifest.json").exists()
