"""Tests for the persistent (cross-run) cone cache.

The contract: a run with ``cache_dir`` set snapshots every replayable cone
entry to ``<cache_dir>/cone_cache.json``; a later run over the same
(operator, engine set, options fingerprint) context warms its in-memory
cache from the snapshot, replays those searches and produces a
fingerprint-identical :class:`CircuitReport`.  A corrupted or missing
snapshot is treated as empty, never as an error.
"""

import json
import multiprocessing
import os

import pytest

from repro.aig import signature
from repro.aig.aig import AIG
from repro.aig.signature import ConeCache, PersistentConeCache
from repro.api import Budgets, CachePolicy, DecompositionRequest, Parallelism, Session
from repro.circuits.generators import decomposable_by_construction
from repro.core.engine import BiDecomposer, EngineOptions
from repro.core.scheduler import PERSISTENT_CACHE_FILENAME
from repro.core.spec import ENGINE_LJH, ENGINE_STEP_MG, ENGINE_STEP_QD
from repro.errors import ReproError


def build_circuit(copies=3, seed=11):
    """One decomposable cone driving ``copies`` primary outputs."""
    aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=seed)
    root = aig.outputs[0][1]
    for k in range(1, copies):
        aig.add_output(f"f{k}", root)
    return aig


def synthetic_entry(name):
    """A replayable ``(input_names, OutputResult)`` cache value, no search."""
    from repro.core.result import BiDecResult, OutputResult

    record = OutputResult(circuit="c", output_name=name, num_support=2)
    record.results["STEP-MG"] = BiDecResult(
        engine="STEP-MG", operator="or", decomposed=False
    )
    return (("a", "b"), record)


def run(aig, cache_dir, engines=(ENGINE_STEP_MG,), jobs=1, dedup=True, **kwargs):
    request = DecompositionRequest(
        circuit=aig,
        operator="or",
        engines=tuple(engines),
        parallelism=Parallelism(jobs=jobs, dedup=dedup),
        cache=CachePolicy(directory=str(cache_dir)),
        **kwargs,
    )
    return Session().run(request)


class TestColdWarmRoundTrip:
    def test_second_run_is_warm_and_fingerprint_identical(self, tmp_path):
        aig = build_circuit()
        cold = run(aig, tmp_path)
        assert cold.schedule["persistent_loaded"] == 0
        assert cold.schedule["persistent_hits"] == 0
        assert cold.schedule["persistent_saved"] == 1
        assert os.path.exists(tmp_path / PERSISTENT_CACHE_FILENAME)

        warm = run(aig, tmp_path)
        assert warm.schedule["persistent_loaded"] == 1
        assert warm.schedule["persistent_hits"] >= 1
        assert warm.schedule["unique_cones"] == 1
        assert warm.fingerprint() == cold.fingerprint()

    def test_fully_warm_run_does_not_rewrite_snapshot(self, tmp_path):
        aig = build_circuit()
        run(aig, tmp_path)
        path = tmp_path / PERSISTENT_CACHE_FILENAME
        before = path.stat().st_mtime_ns
        warm = run(aig, tmp_path)
        # Nothing new was computed: no entries absorbed, file untouched.
        assert warm.schedule["persistent_saved"] == 0
        assert path.stat().st_mtime_ns == before

    def test_warm_run_skips_every_search(self, tmp_path):
        aig = build_circuit(copies=4)
        cold = run(aig, tmp_path)
        assert cold.schedule["cache_misses"] == 1  # one unique cone searched
        warm = run(aig, tmp_path)
        # Every output replays: no fresh search at all on the warm run.
        assert warm.schedule["cache_misses"] == 0
        assert warm.schedule["cache_hits"] == 4
        assert warm.fingerprint() == cold.fingerprint()

    def test_warm_parallel_run_reports_warm_cache_fallback(self, tmp_path):
        aig = build_circuit(copies=4)
        cold = run(aig, tmp_path)
        warm = run(aig, tmp_path, jobs=4)
        # All cones answer from the snapshot: forking a pool would be pure
        # overhead, and the schedule says exactly that.
        assert warm.schedule["fallback"] == "warm-cache"
        assert warm.schedule["jobs"] == 1
        assert warm.fingerprint() == cold.fingerprint()

    def test_run_that_dispatches_nothing_starts_no_pool(self, tmp_path):
        aig = build_circuit(copies=4)
        run(aig, tmp_path)
        session = Session()
        warm = session.run(
            DecompositionRequest(
                circuit=aig,
                operator="or",
                engines=(ENGINE_STEP_MG,),
                parallelism=Parallelism(jobs=4),
                cache=CachePolicy(directory=str(tmp_path)),
            )
        )
        assert warm.schedule["fallback"] == "warm-cache"
        assert session.stats["pools_created"] == 0

    def test_serial_suite_warms_each_circuit_from_the_previous_one(self, tmp_path):
        """jobs=1: a circuit is planned after the previous one finalized,
        so its twin cone replays from the snapshot — a persistent hit, and
        no fallback to report for a request that asked for one job."""
        first, second = build_circuit(copies=1), build_circuit(copies=1)
        first.name, second.name = "twin_a", "twin_b"
        cache = CachePolicy(directory=str(tmp_path))
        reports = Session().run_suite(
            [
                DecompositionRequest(
                    circuit=aig, operator="or", engines=(ENGINE_STEP_MG,), cache=cache
                )
                for aig in (first, second)
            ]
        )
        assert reports[0].schedule["persistent_hits"] == 0
        assert reports[1].schedule["persistent_hits"] == 1
        assert [report.schedule["fallback"] for report in reports] == [None, None]

    def test_multi_engine_round_trip(self, tmp_path):
        aig = build_circuit()
        engines = (ENGINE_STEP_MG, ENGINE_STEP_QD, ENGINE_LJH)
        cold = run(aig, tmp_path, engines=engines)
        warm = run(aig, tmp_path, engines=engines)
        assert warm.schedule["persistent_hits"] >= 1
        assert warm.fingerprint() == cold.fingerprint()
        for output in warm.outputs:
            assert set(output.results) == set(engines)

    def test_extraction_reruns_on_warm_replay(self, tmp_path):
        """fA/fB are not persisted; replay re-extracts and re-verifies."""
        aig = build_circuit()
        run(aig, tmp_path)
        warm = run(aig, tmp_path, verify=True)
        result = warm.outputs[0].results[ENGINE_STEP_MG]
        assert result.decomposed
        assert result.fa is not None and result.fb is not None


class TestContextIsolation:
    def test_different_options_do_not_share_entries(self, tmp_path):
        aig = build_circuit()
        run(aig, tmp_path)
        other = run(aig, tmp_path, budgets=Budgets(per_call=2.5))
        # Same circuit, different search budget: different context, no reuse.
        assert other.schedule["persistent_hits"] == 0

    def test_different_engine_sets_do_not_share_entries(self, tmp_path):
        aig = build_circuit()
        run(aig, tmp_path, engines=(ENGINE_STEP_MG,))
        other = run(aig, tmp_path, engines=(ENGINE_STEP_MG, ENGINE_STEP_QD))
        assert other.schedule["persistent_hits"] == 0

    def test_engine_order_is_irrelevant(self, tmp_path):
        aig = build_circuit()
        cold = run(aig, tmp_path, engines=(ENGINE_STEP_MG, ENGINE_STEP_QD))
        warm = run(aig, tmp_path, engines=(ENGINE_STEP_QD, ENGINE_STEP_MG))
        assert warm.schedule["persistent_hits"] >= 1
        assert warm.fingerprint() == cold.fingerprint()

    def test_no_dedup_disables_persistence(self, tmp_path):
        aig = build_circuit()
        # The snapshot rides on the dedup cache: a request asking for one
        # without the other is rejected before anything runs.
        with pytest.raises(ReproError, match="requires cone dedup"):
            run(aig, tmp_path, dedup=False)
        assert not os.path.exists(tmp_path / PERSISTENT_CACHE_FILENAME)


class TestCorruption:
    def test_corrupted_snapshot_is_ignored(self, tmp_path):
        aig = build_circuit()
        path = tmp_path / PERSISTENT_CACHE_FILENAME
        path.write_text("{ this is not json")
        report = run(aig, tmp_path)
        assert report.schedule["persistent_loaded"] == 0
        assert report.schedule["persistent_hits"] == 0
        # The run rewrote a valid snapshot over the corrupted one ...
        payload = json.loads(path.read_text())
        assert payload["version"] == PersistentConeCache.VERSION
        # ... which the next run warms from normally.
        warm = run(aig, tmp_path)
        assert warm.schedule["persistent_hits"] >= 1

    def test_wrong_version_is_ignored(self, tmp_path):
        path = tmp_path / PERSISTENT_CACHE_FILENAME
        path.write_text(json.dumps({"version": 999, "contexts": {"c": {}}}))
        cache = PersistentConeCache(str(path))
        assert cache.loaded_entries == 0

    def test_missing_file_is_empty(self, tmp_path):
        cache = PersistentConeCache(str(tmp_path / "nope" / "cone_cache.json"))
        assert cache.loaded_entries == 0
        assert cache.warm(ConeCache(), "any-context") == 0

    def test_malformed_context_value_is_dropped_not_fatal(self, tmp_path):
        """A context whose value is not a dict must not crash warm/absorb."""
        aig = build_circuit()
        cold = run(aig, tmp_path)
        path = tmp_path / PERSISTENT_CACHE_FILENAME
        payload = json.loads(path.read_text())
        (context,) = payload["contexts"]
        payload["contexts"]["other-context"] = ["junk"]
        payload["contexts"][context] = "not-a-dict"
        path.write_text(json.dumps(payload))
        report = run(aig, tmp_path)  # would raise AttributeError before
        assert report.schedule["persistent_loaded"] == 0
        assert report.fingerprint() == cold.fingerprint()

    def test_undecodable_entry_skipped_without_poisoning_rest(self, tmp_path):
        aig = build_circuit()
        run(aig, tmp_path)
        path = tmp_path / PERSISTENT_CACHE_FILENAME
        payload = json.loads(path.read_text())
        (context,) = payload["contexts"]
        payload["contexts"][context]['["bogus",[0]]'] = {"inputs": "garbage"}
        path.write_text(json.dumps(payload))
        warm = run(aig, tmp_path)
        assert warm.schedule["persistent_loaded"] == 1  # the good entry
        assert warm.schedule["persistent_hits"] >= 1


class TestSnapshotFormat:
    def test_snapshot_is_replayable_json(self, tmp_path):
        aig = build_circuit()
        run(aig, tmp_path, engines=(ENGINE_STEP_MG, ENGINE_STEP_QD))
        payload = json.loads((tmp_path / PERSISTENT_CACHE_FILENAME).read_text())
        assert payload["version"] == PersistentConeCache.VERSION
        (context,) = payload["contexts"]
        assert context.startswith("op=or|engines=STEP-MG,STEP-QD|")
        (entry,) = payload["contexts"][context].values()
        assert set(entry["results"][0]) >= {
            "engine",
            "operator",
            "decomposed",
            "partition",
            "optimum_proven",
            "stats",
        }

    def test_snapshot_bytes_are_canonical(self, tmp_path):
        """Same entries, any absorption order -> byte-identical snapshots.

        Two fresh cache directories populated by identical runs must end
        up with byte-identical ``cone_cache.json`` files (CI's warm-cache
        job diffs them directly), and a snapshot whose contexts/entries
        arrive in a different order must serialise identically too.
        """
        aig = build_circuit()
        run(aig, tmp_path / "a", engines=(ENGINE_STEP_MG, ENGINE_STEP_QD))
        run(aig, tmp_path / "b", engines=(ENGINE_STEP_MG, ENGINE_STEP_QD))
        first = (tmp_path / "a" / PERSISTENT_CACHE_FILENAME).read_bytes()
        second = (tmp_path / "b" / PERSISTENT_CACHE_FILENAME).read_bytes()
        assert first == second

        # Different in-memory insertion order, same serialised bytes.
        forward = PersistentConeCache(str(tmp_path / "fwd.json"))
        backward = PersistentConeCache(str(tmp_path / "bwd.json"))
        entries = [("ctx-a", '["k1"]'), ("ctx-b", '["k2"]')]
        for context, key in entries:
            forward._contexts.setdefault(context, {})[key] = {"inputs": []}
        for context, key in reversed(entries):
            backward._contexts.setdefault(context, {})[key] = {"inputs": []}
        forward.save()
        backward.save()
        assert (tmp_path / "fwd.json").read_bytes() == (
            tmp_path / "bwd.json"
        ).read_bytes()

    def test_absorb_then_warm_round_trip(self, tmp_path):
        """Direct ConeCache -> snapshot -> ConeCache interchange."""
        aig = build_circuit()
        path = str(tmp_path / "c.json")
        source = ConeCache()
        from repro.core.scheduler import BatchScheduler

        scheduler = BatchScheduler(BiDecomposer(EngineOptions()))
        jobs = scheduler.plan(aig)
        record = scheduler._execute_job(
            aig, jobs[0], "or", [ENGINE_STEP_MG], "c", source
        )
        assert record.results[ENGINE_STEP_MG].decomposed
        snapshot = PersistentConeCache(path)
        assert snapshot.absorb(source, "ctx") == 1
        snapshot.save()

        target = ConeCache()
        assert PersistentConeCache(path).warm(target, "ctx") == 1
        (key, value) = next(iter(target.items()))
        (source_key, source_value) = next(iter(source.items()))
        assert key == source_key
        names, restored = value
        source_names, original = source_value
        assert names == source_names
        restored_result = restored.results[ENGINE_STEP_MG]
        original_result = original.results[ENGINE_STEP_MG]
        assert restored_result.fingerprint()[:6] == original_result.fingerprint()[:6]


class TestConcurrentSaves:
    """save() must merge with the on-disk snapshot, not clobber it."""

    def test_two_processes_sharing_a_directory_accumulate(self, tmp_path):
        """Simulate the racy flow: both instances load the (empty) snapshot,
        each absorbs a different circuit's entries, both save.  Before the
        merge-on-save fix the second save dropped the first one's entries
        (last-writer-wins); now the file holds the union."""
        aig_a = build_circuit(seed=11)
        aig_b = build_circuit(seed=12)
        path = str(tmp_path / "shared.json")

        from repro.core.scheduler import BatchScheduler

        scheduler = BatchScheduler(BiDecomposer(EngineOptions()))
        caches = []
        for aig in (aig_a, aig_b):
            cache = ConeCache()
            job = scheduler.plan(aig)[0]
            scheduler._execute_job(aig, job, "or", [ENGINE_STEP_MG], aig.name, cache)
            caches.append(cache)

        # Both "processes" open the snapshot before either saved.
        first, second = PersistentConeCache(path), PersistentConeCache(path)
        assert first.absorb(caches[0], "ctx") == 1
        assert second.absorb(caches[1], "ctx") == 1
        first.save()
        second.save()  # re-reads the file first: must keep first's entry

        final = PersistentConeCache(path)
        assert final.loaded_entries == 2
        target = ConeCache()
        assert final.warm(target, "ctx") == 2

    def test_merge_spans_distinct_contexts(self, tmp_path):
        aig = build_circuit(seed=13)
        path = str(tmp_path / "ctx.json")
        from repro.core.scheduler import BatchScheduler

        scheduler = BatchScheduler(BiDecomposer(EngineOptions()))
        cache = ConeCache()
        job = scheduler.plan(aig)[0]
        scheduler._execute_job(aig, job, "or", [ENGINE_STEP_MG], aig.name, cache)

        first, second = PersistentConeCache(path), PersistentConeCache(path)
        first.absorb(cache, "ctx-one")
        second.absorb(cache, "ctx-two")
        first.save()
        second.save()
        payload = json.loads(open(path).read())
        assert set(payload["contexts"]) == {"ctx-one", "ctx-two"}

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        aig = build_circuit(seed=14)
        run(aig, tmp_path)
        leftovers = [
            name
            for name in os.listdir(tmp_path)
            if name.startswith(PERSISTENT_CACHE_FILENAME) and name != PERSISTENT_CACHE_FILENAME
        ]
        assert leftovers == []


class TestCompaction:
    """max_entries: LRU-by-last-hit eviction at save time (PR 2 follow-up)."""

    def _entry(self, name):
        return synthetic_entry(name)

    def _absorbed(self, path, keys, max_entries=None, hit=()):
        cache = ConeCache()
        for key in keys:
            cache.store(key, self._entry(str(key)))
        cache.hit_keys.update(hit)
        persistent = PersistentConeCache(path, max_entries=max_entries)
        persistent.absorb(cache, "ctx")
        persistent.save()
        return persistent

    @staticmethod
    def _stored(path):
        with open(path) as handle:
            payload = json.load(handle)
        return {
            key
            for entries in payload["contexts"].values()
            for key in entries
        }

    def test_save_evicts_down_to_the_bound(self, tmp_path):
        path = str(tmp_path / "cone_cache.json")
        persistent = self._absorbed(path, [(1,), (2,), (3,), (4,)], max_entries=2)
        assert persistent.evicted_entries == 2
        assert len(self._stored(path)) == 2

    def test_unbounded_snapshots_are_untouched(self, tmp_path):
        path = str(tmp_path / "cone_cache.json")
        self._absorbed(path, [(1,), (2,), (3,)])
        assert len(self._stored(path)) == 3

    def test_recently_hit_entries_survive_eviction(self, tmp_path):
        path = str(tmp_path / "cone_cache.json")
        # Run 1: three entries stored, bound 2 -> one evicted (all equal
        # recency, deterministic tie-break).
        self._absorbed(path, [(1,), (2,), (3,)], max_entries=2)
        survivors = self._stored(path)
        assert len(survivors) == 2
        # Run 2: warm both survivors, HIT only one of them, and absorb a
        # new entry; the un-hit survivor is the eviction victim.
        persistent = PersistentConeCache(path, max_entries=2)
        cache = ConeCache()
        persistent.warm(cache, "ctx")
        warmed = sorted(cache.items(), key=lambda item: str(item[0]))
        hit_key = warmed[0][0]
        assert cache.lookup(hit_key) is not None  # marks recency
        cache.store((9, 9), self._entry("new"))
        persistent.absorb(cache, "ctx")
        persistent.save()
        stored = self._stored(path)
        assert len(stored) == 2
        # The hit key is still present; the un-hit one is gone.
        hit_json = json.dumps(hit_key, separators=(",", ":"))
        unhit_json = json.dumps(warmed[1][0], separators=(",", ":"))
        assert hit_json in stored
        assert unhit_json not in stored

    def test_recency_bumps_alone_mark_the_snapshot_dirty(self, tmp_path):
        path = str(tmp_path / "cone_cache.json")
        self._absorbed(path, [(1,)], max_entries=5)
        persistent = PersistentConeCache(path, max_entries=5)
        cache = ConeCache()
        persistent.warm(cache, "ctx")
        (key, _value), = list(cache.items())
        cache.lookup(key)
        assert persistent.absorb(cache, "ctx") == 0  # nothing new
        assert persistent.dirty  # but recency moved
        persistent.save()
        assert not persistent.dirty

    def test_fully_warm_unbounded_run_stays_rewrite_free(self, tmp_path):
        """The PR 2 optimisation must survive: without a bound, a warm
        run neither dirties nor rewrites the snapshot."""
        path = str(tmp_path / "cone_cache.json")
        self._absorbed(path, [(1,)])
        before = os.stat(path).st_mtime_ns
        persistent = PersistentConeCache(path)
        cache = ConeCache()
        persistent.warm(cache, "ctx")
        (key, _value), = list(cache.items())
        cache.lookup(key)
        assert persistent.absorb(cache, "ctx") == 0
        assert not persistent.dirty
        assert os.stat(path).st_mtime_ns == before

    def test_generation_clock_survives_reload(self, tmp_path):
        path = str(tmp_path / "cone_cache.json")
        self._absorbed(path, [(1,)], max_entries=5)
        second = self._absorbed(path, [(2,)], max_entries=5)
        with open(path) as handle:
            payload = json.load(handle)
        generations = {
            entry["g"]
            for entries in payload["contexts"].values()
            for entry in entries.values()
        }
        assert len(generations) == 2  # run 2's entry is newer than run 1's
        assert second.max_entries == 5

    def test_bad_max_entries_rejected(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="max_entries"):
            PersistentConeCache(str(tmp_path / "x.json"), max_entries=0)

    def test_end_to_end_bound_via_cache_policy(self, tmp_path):
        """Session + CachePolicy(max_entries): the snapshot never exceeds
        the bound across many distinct circuits."""
        from repro.api import CachePolicy, DecompositionRequest, Session

        policy = CachePolicy(directory=str(tmp_path), max_entries=2)
        with Session() as session:
            for seed in (21, 22, 23, 24, 25):
                aig, *_ = decomposable_by_construction("or", 3, 3, 1, seed=seed)
                session.run(
                    DecompositionRequest(
                        circuit=aig,
                        operator="or",
                        engines=(ENGINE_STEP_MG,),
                        cache=policy,
                    )
                )
        path = tmp_path / PERSISTENT_CACHE_FILENAME
        with open(path) as handle:
            payload = json.load(handle)
        assert sum(len(v) for v in payload["contexts"].values()) <= 2


def absorb_and_save(path, keys, max_entries=None):
    """One run: store ``keys`` as computed entries, absorb them and save."""
    cache = ConeCache()
    for key in keys:
        cache.store(key, synthetic_entry(str(key)))
    persistent = PersistentConeCache(path, max_entries=max_entries)
    persistent.absorb(cache, "ctx")
    persistent.save()
    return persistent


class TestCostModel:
    """A run pays for what it touches, not for the whole snapshot."""

    @staticmethod
    def count_decodes(monkeypatch):
        calls = []
        original = signature._decode_entry

        def counting(entry):
            calls.append(entry)
            return original(entry)

        monkeypatch.setattr(signature, "_decode_entry", counting)
        return calls

    @staticmethod
    def count_reads(monkeypatch):
        calls = []
        original = PersistentConeCache._read

        def counting(cls, path):
            calls.append(path)
            return original(path)

        monkeypatch.setattr(PersistentConeCache, "_read", classmethod(counting))
        return calls

    def test_second_warm_of_an_unchanged_snapshot_decodes_nothing(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "cone_cache.json")
        absorb_and_save(path, [(1,), (2,), (3,)])
        persistent = PersistentConeCache(path)
        decodes = self.count_decodes(monkeypatch)
        first, second = ConeCache(), ConeCache()
        assert persistent.warm(first, "ctx") == 3
        assert len(decodes) == 3
        assert persistent.warm(second, "ctx") == 3
        assert len(decodes) == 3  # every entry served from the memo
        assert dict(second.items()) == dict(first.items())

    def test_fully_warm_run_absorbs_without_encoding(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cone_cache.json")
        absorb_and_save(path, [(1,), (2,)])
        persistent = PersistentConeCache(path)
        cache = ConeCache()
        persistent.warm(cache, "ctx")
        for key, _value in list(cache.items()):
            assert cache.lookup(key) is not None
        encoded = []
        original_dumps = json.dumps

        def counting_dumps(value, *args, **kwargs):
            encoded.append(value)
            return original_dumps(value, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        monkeypatch.setattr(
            signature, "_encode_entry", lambda value: encoded.append(value)
        )
        assert persistent.absorb(cache, "ctx") == 0
        assert encoded == []
        assert not persistent.dirty

    def test_save_after_own_save_skips_the_reread(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cone_cache.json")
        absorb_and_save(path, [(1,)])
        reads = self.count_reads(monkeypatch)
        mine = PersistentConeCache(path)
        assert len(reads) == 1  # the load
        cache = ConeCache()
        cache.store((2,), synthetic_entry("2"))
        mine.absorb(cache, "ctx")
        mine.save()
        cache = ConeCache()
        cache.store((3,), synthetic_entry("3"))
        mine.absorb(cache, "ctx")
        mine.save()
        assert len(reads) == 1  # nobody else wrote: no re-read

    def test_save_after_another_writer_rereads_and_merges(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "cone_cache.json")
        mine = PersistentConeCache(path)
        absorb_and_save(path, [(1,)])  # another writer, after our load
        reads = self.count_reads(monkeypatch)
        cache = ConeCache()
        cache.store((2,), synthetic_entry("2"))
        mine.absorb(cache, "ctx")
        mine.save()
        assert reads == [path]
        with open(path) as handle:
            stored = json.load(handle)["contexts"]["ctx"]
        assert set(stored) == {"[1]", "[2]"}

    def test_without_file_locks_every_save_rereads(self, tmp_path, monkeypatch):
        path = str(tmp_path / "cone_cache.json")
        monkeypatch.setattr(signature, "fcntl", None)
        mine = absorb_and_save(path, [(1,)])
        reads = self.count_reads(monkeypatch)
        cache = ConeCache()
        cache.store((2,), synthetic_entry("2"))
        mine.absorb(cache, "ctx")
        mine.save()
        assert reads == [path]
        assert not os.path.exists(tmp_path / signature.LOCK_FILENAME)

    def test_entry_replaced_by_another_writer_is_decoded_again(self, tmp_path):
        """The memo follows the stored entry: once this instance evicted an
        entry and a merge brought back another writer's version of it, the
        next warm decodes that version instead of replaying the old one."""
        path = str(tmp_path / "cone_cache.json")
        absorb_and_save(path, [(1,)])
        mine = PersistentConeCache(path, max_entries=2)
        cache = ConeCache()
        mine.warm(cache, "ctx")
        assert dict(cache.items())[(1,)][1].output_name == "(1,)"
        cache.store((2,), synthetic_entry("2"))
        cache.store((3,), synthetic_entry("3"))
        mine.absorb(cache, "ctx")
        mine.save()  # evicts (1,): the oldest entry
        assert mine.evicted_entries == 1

        other = PersistentConeCache(path, max_entries=5)
        rewritten = ConeCache()
        rewritten.store((1,), synthetic_entry("rewritten"))
        other.absorb(rewritten, "ctx")
        other.save()

        mine.save()  # merges the other writer's (1,) back in
        target = ConeCache()
        mine.warm(target, "ctx")
        assert dict(target.items())[(1,)][1].output_name == "rewritten"


def save_disjoint_entries(path, worker, rounds, start=None):
    """A writer process: one run per round, each saving one fresh entry.

    Every run opens its own instance, so an entry a racing save dropped
    would stay lost instead of being re-saved by a later round.
    """
    if start is not None:
        start.wait()  # both writers begin together
    for round_index in range(rounds):
        absorb_and_save(path, [(worker, round_index)])


@pytest.mark.skipif(signature.fcntl is None, reason="needs fcntl advisory locks")
class TestLockedSaves:
    def test_concurrent_processes_keep_the_union_canonically(self, tmp_path):
        rounds = 100
        shared = str(tmp_path / "shared" / PERSISTENT_CACHE_FILENAME)
        fork = multiprocessing.get_context("fork")
        start = fork.Barrier(2)
        writers = [
            fork.Process(
                target=save_disjoint_entries, args=(shared, worker, rounds, start)
            )
            for worker in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0

        sequential = str(tmp_path / "sequential" / PERSISTENT_CACHE_FILENAME)
        for worker in range(2):
            save_disjoint_entries(sequential, worker, rounds)
        with open(shared, "rb") as handle:
            shared_bytes = handle.read()
        with open(sequential, "rb") as handle:
            assert shared_bytes == handle.read()
        stored = json.loads(shared_bytes)["contexts"]["ctx"]
        assert len(stored) == 2 * rounds
        assert sorted(os.listdir(tmp_path / "shared")) == [
            "cone_cache.json",
            signature.LOCK_FILENAME,
        ]
