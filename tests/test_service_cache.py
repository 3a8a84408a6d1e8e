"""Tests for the content-addressed artifact cache and the options key
scheme (repro.service.cache + BDSOptions.cache_key)."""

import hashlib
import json
import os
import random

import pytest

from repro.bds.flow import BDSOptions, bds_optimize
from repro.circuits import build_circuit
from repro.circuits.randlogic import random_logic
from repro.decomp.engine import DecompOptions
from repro.network.blif import write_blif
from repro.service import OptimizationService, ServiceRequest
from repro.service.cache import Artifact, ArtifactCache, canonical_blif
from repro.verify import verify_networks


class TestCacheKey:
    def test_stable_across_field_order_permutations(self):
        base = BDSOptions(balance_trees=True, use_sdc=True,
                          verify="cec").to_dict()
        reference = BDSOptions.from_dict(base).cache_key()
        rng = random.Random(7)
        for _ in range(5):
            items = list(base.items())
            rng.shuffle(items)
            shuffled = dict(items)
            decomp_items = list(shuffled["decomp"].items())
            rng.shuffle(decomp_items)
            shuffled["decomp"] = dict(decomp_items)
            assert BDSOptions.from_dict(shuffled).cache_key() == reference

    def test_key_changes_when_any_semantic_field_changes(self):
        reference = BDSOptions().cache_key()
        semantic = [
            ("balance_trees", True),
            ("use_sdc", True),
            ("verify", "cec"),
            ("verify_budget", 1.5),
        ]
        seen = {reference}
        for name, value in semantic:
            key = BDSOptions(**{name: value}).cache_key()
            assert key != reference, name
            seen.add(key)
        key = BDSOptions(decomp=DecompOptions(enable_mux=False)).cache_key()
        assert key != reference
        seen.add(key)
        # Every variation keys distinctly, not just differently from base.
        assert len(seen) == len(semantic) + 2

    def test_non_semantic_fields_do_not_change_the_key(self):
        reference = BDSOptions().cache_key()
        # Snapshots from revisions that had a ``jobs`` option, dynamic
        # reordering, or a setting for a step the flow now fixes still
        # load, and key like the defaults.
        old = {"jobs": 4, "autoreorder": 500, "autoreorder_method": "window3",
               "eliminate_threshold": 3, "eliminate_size_cap": 77,
               "use_bdd_mapping": False, "reorder": False,
               "sift_size_limit": 123, "sharing": False,
               "final_sweep": False, "sweep_merge_equivalent": False,
               "verify_size_cap": 999, "verify_seed": 2,
               "decomp": {"verify": False, "max_xnor_candidates": 3,
                          "min_gain": 1.5, "xnor_slack": 0}}
        assert BDSOptions.from_dict(old).cache_key() == reference
        assert BDSOptions(check_level="full").cache_key() == reference

    def test_roundtrip_through_dict(self):
        opts = BDSOptions(balance_trees=True, verify="full",
                          decomp=DecompOptions(enable_generalized=False))
        again = BDSOptions.from_dict(opts.to_dict())
        assert again == opts
        assert again.cache_key() == opts.cache_key()

    def test_canonical_blif_ignores_textual_variation(self):
        net = build_circuit("add4")
        text = write_blif(net)
        noisy = "# a comment\n" + text.replace("\n.end", "\n# x\n.end")
        assert canonical_blif(noisy) == canonical_blif(text)


class TestArtifactStore:
    def test_store_lookup_roundtrip(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        net = build_circuit("cmp8")
        opts = BDSOptions()
        key = cache.key_for(net, opts)
        assert cache.lookup(key) is None and cache.misses == 1
        result = bds_optimize(net, opts)
        cache.store(key, Artifact(network_blif=write_blif(result.network),
                                  perf=result.perf))
        artifact = cache.lookup(key)
        assert artifact is not None and cache.hits == 1
        assert artifact.network_blif == write_blif(result.network)
        assert artifact.perf == result.perf

    def test_object_with_extra_payload_keys_still_hits(self, tmp_path):
        # Objects written before the decomposition stats, timings and
        # counts were dropped from the payload carry four more keys.
        cache = ArtifactCache(str(tmp_path))
        result = bds_optimize(build_circuit("add4"), BDSOptions())
        blif = write_blif(result.network)
        payload = {
            "version": 1,
            "network_blif": blif,
            "perf": result.perf,
            "decomp_stats": result.decomp_stats.as_dict(),
            "timings": result.timings,
            "supernodes": result.supernodes,
            "mapping_count": result.mapping_count,
            "verify_mode": "off",
            "verify_unknown_outputs": [],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        key = "ef" * 32
        os.makedirs(os.path.join(str(tmp_path), "objects", key[:2]))
        with open(os.path.join(str(tmp_path), "objects", key[:2],
                               key + ".json"), "w") as fh:
            json.dump({"sha256": hashlib.sha256(
                text.encode("utf-8")).hexdigest(), "payload": payload}, fh)
        artifact = cache.lookup(key)
        assert artifact is not None
        assert cache.hits == 1 and cache.corrupt == 0
        assert artifact.network_blif == blif
        assert artifact.perf == result.perf

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_roundtrip_structurally_equal_and_equivalent(self, tmp_path, seed):
        """load(store(net)) is structurally equal and CEC-equivalent."""
        cache = ArtifactCache(str(tmp_path))
        net = random_logic(8, 24, 4, seed=seed, xor_fraction=0.2,
                           name="rt%d" % seed)
        artifact = Artifact(network_blif=write_blif(net))
        key = "%064x" % seed
        cache.store(key, artifact)
        loaded = cache.lookup(key).network()
        assert write_blif(loaded) == write_blif(net)
        assert loaded.stats() == net.stats()
        assert verify_networks(net, loaded, mode="cec").equivalent

    def test_truncated_entry_is_a_clean_miss(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        key = cache.key_for(build_circuit("add4"), BDSOptions())
        path = cache.store(key, Artifact(network_blif=".model t\n.end\n"))
        with open(path) as fh:
            text = fh.read()
        with open(path, "w") as fh:
            fh.write(text[:len(text) // 2])
        assert cache.lookup(key) is None
        assert cache.corrupt == 1 and cache.misses == 1
        # The damaged object was dropped; a re-store works again.
        cache.store(key, Artifact(network_blif=".model t\n.end\n"))
        assert cache.lookup(key) is not None

    def test_bitflipped_entry_is_a_clean_miss(self, tmp_path):
        rng = random.Random(1355)
        cache = ArtifactCache(str(tmp_path))
        key = "ab" * 32
        result = bds_optimize(build_circuit("add4"), BDSOptions())
        path = cache.store(key, Artifact(
            network_blif=write_blif(result.network), perf=result.perf))
        raw = bytearray(open(path, "rb").read())
        # Flip a bit inside the payload body (past the checksum header).
        pos = rng.randrange(len(raw) // 2, len(raw) - 2)
        raw[pos] ^= 0x20
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        assert cache.lookup(key) is None
        assert cache.corrupt == 1

    def test_corrupt_index_is_rebuilt(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.store("cd" * 32, Artifact(network_blif=".model t\n.end\n"))
        with open(os.path.join(str(tmp_path), "index.json"), "w") as fh:
            fh.write("{nope")
        again = ArtifactCache(str(tmp_path))
        assert len(again) == 1
        assert again.lookup("cd" * 32) is not None

    def test_lru_eviction_is_size_bounded(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_entries=2)
        keys = ["%064d" % i for i in range(3)]
        for key in keys:
            cache.store(key, Artifact(network_blif=".model t\n.end\n"))
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.lookup(keys[0]) is None       # oldest was evicted
        assert cache.lookup(keys[2]) is not None
        # A lookup refreshes recency: key 1 was touched by the (missed)
        # lookup order above?  No -- only hits refresh.  Touch key 1, then
        # store a new key; key 2 is now the LRU victim.
        assert cache.lookup(keys[1]) is not None
        cache.store("%064d" % 9, Artifact(network_blif=".model t\n.end\n"))
        assert cache.lookup(keys[2]) is None
        assert cache.lookup(keys[1]) is not None

    def test_atomic_store_leaves_no_temp_debris(self, tmp_path):
        cache = ArtifactCache(str(tmp_path))
        cache.store("ef" * 32, Artifact(network_blif=".model t\n.end\n"))
        for dirpath, _dirs, files in os.walk(str(tmp_path)):
            for name in files:
                assert not name.startswith(".tmp-"), os.path.join(dirpath,
                                                                  name)


class TestFlowShortCircuit:
    """A service cache hit answers without running the flow; the options
    key decides which requests share an artifact."""

    def _service(self, tmp_path):
        return OptimizationService(cache=ArtifactCache(str(tmp_path)))

    def _request(self, options):
        return ServiceRequest(blif=write_blif(build_circuit("add4")),
                              options=options)

    def test_semantically_different_options_do_not_share(self, tmp_path):
        service = self._service(tmp_path)
        service.optimize_one(self._request(BDSOptions()))
        other = service.optimize_one(
            self._request(BDSOptions(balance_trees=True)))
        assert other.ok and not other.cached
        assert other.perf["artifact_cache_misses"] == 1

    def test_non_semantic_options_do_share(self, tmp_path):
        service = self._service(tmp_path)
        service.optimize_one(self._request(BDSOptions()))
        warm = service.optimize_one(
            self._request(BDSOptions(check_level="cheap")))
        assert warm.cached
        assert warm.perf["artifact_cache_hits"] == 1


class TestCorruptDumpLoads:
    """repro.bdd.serialize.loads rejects damage with ValueError only."""

    def _dump(self):
        from repro.bdd.manager import BDD
        from repro.bdd.serialize import dumps

        mgr = BDD()
        a, b, c = (mgr.var_ref(mgr.new_var(n)) for n in "abc")
        f = mgr.ite(a, mgr.xor_(b, c), mgr.and_(b, c))
        return dumps(mgr, [f])

    @pytest.mark.parametrize("mangle", [
        lambda t: t[: len(t) // 2],                       # truncation
        lambda t: t.replace(".bdd", ".nope", 1),          # bad magic
        lambda t: t.replace("\n.roots", "\njunk line\n.roots", 1),
        lambda t: "\n".join(
            line + " 9" if line and line[0].isdigit() else line
            for line in t.splitlines()),                  # field count
        lambda t: t.replace(".roots ", ".roots 999998 ", 1),  # dangling root
    ])
    def test_mangled_dump_raises_value_error(self, mangle):
        from repro.bdd.serialize import loads

        text = mangle(self._dump())
        with pytest.raises(ValueError):
            loads(text)

    def test_clean_dump_still_loads(self):
        from repro.bdd.serialize import loads

        mgr, roots = loads(self._dump())
        assert len(roots) == 1


def test_artifact_payload_versioning(tmp_path):
    cache = ArtifactCache(str(tmp_path))
    path = cache.store("12" * 32, Artifact(network_blif=".model t\n.end\n"))
    wrapper = json.load(open(path))
    wrapper["payload"]["version"] = 999
    with open(path, "w") as fh:
        json.dump(wrapper, fh)
    # Version mismatch *with a stale checksum* is corruption; with a
    # recomputed checksum it is schema drift -- either way a clean miss.
    assert cache.lookup("12" * 32) is None


def _hammer_index(root, prefix, count, barrier):
    """One writer process: store ``count`` artifacts with distinct keys."""
    import hashlib

    cache = ArtifactCache(root)
    barrier.wait()            # maximize read-modify-write interleaving
    for i in range(count):
        key = hashlib.sha256(
            ("%s-%d" % (prefix, i)).encode("utf-8")).hexdigest()
        cache.store(key, Artifact(network_blif=".model t\n.end\n"))


class TestConcurrentWriters:
    """Satellite fix: two processes sharing one cache dir used to lose
    each other's index entries (read-modify-write of index.json without
    a lock); the fcntl advisory lock makes every store stick."""

    def test_two_process_hammer_loses_no_entries(self, tmp_path):
        import multiprocessing

        count = 20
        ctx = multiprocessing.get_context()
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_hammer_index,
                             args=(str(tmp_path), prefix, count, barrier))
                 for prefix in ("a", "b")]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
        assert all(p.exitcode == 0 for p in procs)
        # A fresh reader sees every store from both writers -- in the
        # index (not just via the objects/ rescan fallback).
        reader = ArtifactCache(str(tmp_path))
        assert reader.corrupt == 0            # index parsed, not rebuilt
        assert len(reader) == 2 * count
        # ...and the index agrees with the objects on disk.
        objects = sum(
            name.endswith(".json") and not name.startswith(".tmp-")
            for _dir, _sub, files in os.walk(str(tmp_path / "objects"))
            for name in files)
        assert objects == 2 * count

    def test_single_process_semantics_unchanged(self, tmp_path):
        cache = ArtifactCache(str(tmp_path), max_entries=2)
        for i in range(3):
            cache.store(("%02d" % i) * 32,
                        Artifact(network_blif=".model t\n.end\n"))
        assert len(cache) == 2                # LRU bound still enforced
        assert cache.evictions == 1
        assert cache.lookup("00" * 32) is None     # the evicted one
        assert cache.lookup("02" * 32) is not None
