"""Campaign journal: identity, torn tails, engine integration, resume."""

from __future__ import annotations

import json

import pytest

from repro.parallel import (
    CampaignJournal,
    JournalError,
    ResultCache,
    assert_trace_equal,
    campaign_id,
    cell_key,
    execute_cells,
    execute_cells_report,
)
from repro.parallel.chaos import ChaosPolicy
from repro.parallel.retry import RetryPolicy
from repro.obs import BufferRecorder

from tests.chaos.helpers import small_grid


def grid_keys(tasks):
    return [
        cell_key(t.cell, t.cfg, t.workload, t.factory, t.sim_kwargs)
        for t in tasks
    ]


class TestJournalFile:
    def test_campaign_id_is_content_addressed(self):
        keys = ["a" * 64, "b" * 64]
        assert campaign_id(keys) == campaign_id(list(keys))
        assert campaign_id(keys) != campaign_id(keys[::-1])

    def test_begin_records_head_and_resume_reads_it(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        cid = campaign_id(["a" * 64, "b" * 64])
        with CampaignJournal(path) as journal:
            assert journal.begin(cid, 2) == set()
            journal.record_done(0, "a" * 64)
        with CampaignJournal(path) as journal:
            assert journal.begin(cid, 2) == {"a" * 64}

    def test_mismatched_campaign_is_refused(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path) as journal:
            journal.begin(campaign_id(["a" * 64]), 1)
        with CampaignJournal(path) as journal:
            with pytest.raises(JournalError, match="refusing to mix"):
                journal.begin(campaign_id(["b" * 64]), 1)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        cid = campaign_id(["a" * 64, "b" * 64])
        with CampaignJournal(path) as journal:
            journal.begin(cid, 2)
            journal.record_done(0, "a" * 64)
            journal.record_done(1, "b" * 64)
        # Tear the tail mid-record, as a kill mid-write would.
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 20])
        with CampaignJournal(path) as journal:
            completed = journal.begin(cid, 2)
        assert completed == {"a" * 64}  # torn record dropped, not fatal

    def test_malformed_interior_record_is_an_error(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        cid = campaign_id(["a" * 64])
        with CampaignJournal(path) as journal:
            journal.begin(cid, 1)
            journal.record_done(0, "a" * 64)
        lines = path.read_text().splitlines()
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with CampaignJournal(path) as journal:
            with pytest.raises(JournalError, match="malformed"):
                journal.begin(cid, 1)

    def test_failed_cells_stay_pending(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        cid = campaign_id(["a" * 64])
        with CampaignJournal(path) as journal:
            journal.begin(cid, 1)
            journal.record_failed(0, "a" * 64, "ValueError", 1)
        with CampaignJournal(path) as journal:
            assert journal.begin(cid, 1) == set()  # failure never blocks re-run

    def test_records_carry_no_timestamps(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path) as journal:
            journal.begin(campaign_id(["a" * 64]), 1)
            journal.record_done(0, "a" * 64)
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert "time" not in record and "timestamp" not in record


class TestEngineIntegration:
    def test_journal_checkpoints_every_cell(self, tmp_path):
        tasks = small_grid(4)
        path = tmp_path / "campaign.jsonl"
        execute_cells(tasks, jobs=1, cache=tmp_path / "cache", journal=path)
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert records[0]["kind"] == "campaign_start"
        assert records[0]["campaign"] == campaign_id(grid_keys(tasks))
        done = [r for r in records if r["kind"] == "cell_done"]
        assert len(done) == 4

    def test_journal_without_cache_derives_a_sibling_store(self, tmp_path):
        tasks = small_grid(2)
        path = tmp_path / "campaign.jsonl"
        execute_cells(tasks, jobs=1, journal=path)
        derived = tmp_path / "campaign.jsonl.cache"
        assert derived.is_dir()
        assert len(ResultCache(derived)) == 2

    def test_resume_completes_only_missing_cells(self, tmp_path):
        # Phase 1: a chaos storm with no retry budget fails some cells.
        tasks = small_grid(6)
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "campaign.jsonl"
        chaos = ChaosPolicy(seed=3, transient_rate=0.5, max_attempt=1)
        policy = RetryPolicy(retries=0, base_delay=0.0, max_delay=0.0, jitter=0.0)
        first = execute_cells_report(
            tasks, jobs=1, cache=cache, journal=path, chaos=chaos,
            retry_policy=policy,
        )
        n_failed = len(first.failures)
        n_done = len(first.completed())
        assert 0 < n_failed < 6  # the storm must bite but not kill everything

        # Phase 2: resume with chaos off.  Only the missing cells run; the
        # survivors replay from the cache (hit accounting proves it).
        rec = BufferRecorder()
        second = execute_cells_report(
            tasks, jobs=1, cache=cache, journal=path, recorder=rec,
        )
        assert second.ok
        assert second.resumed == n_done
        assert second.counters["engine.cells_cached"] == n_done
        assert second.counters["engine.cells_run"] == n_failed
        assert second.counters["cache.hits"] == n_done

        resume_events = [e for e in rec.events if e["type"] == "campaign_resume"]
        assert len(resume_events) == 1
        assert resume_events[0]["completed"] == n_done
        assert resume_events[0]["pending"] == n_failed

        # Bit-identity: the interrupted-then-resumed campaign equals an
        # uninterrupted clean run.
        clean = execute_cells(tasks, jobs=1)
        for got, want in zip(second.completed(), clean):
            assert_trace_equal(got, want)

    def test_resumed_results_come_from_cache_not_journal(self, tmp_path):
        # Wipe the cache but keep the journal: "done" entries are advisory,
        # so the cells are simply recomputed (journal loss costs time only).
        tasks = small_grid(3)
        cache_dir = tmp_path / "cache"
        path = tmp_path / "campaign.jsonl"
        execute_cells(tasks, jobs=1, cache=cache_dir, journal=path)
        import shutil

        shutil.rmtree(cache_dir)
        report = execute_cells_report(
            tasks, jobs=1, cache=cache_dir, journal=path
        )
        assert report.ok
        assert report.counters["engine.cells_run"] == 3  # recomputed
        assert report.resumed == 3  # journal said done, cache disagreed

    def test_stacked_cells_are_journaled_as_they_settle(
        self, tmp_path, monkeypatch
    ):
        # Two stacks of two; the second stack is interrupted (Ctrl-C).  The
        # first stack's cells must already be checkpointed, so the resume
        # counts every cell the cache serves as resumed.
        import repro.batch

        tasks = small_grid(4)
        keys = grid_keys(tasks)
        cache = ResultCache(tmp_path / "cache")
        path = tmp_path / "campaign.jsonl"
        real = repro.batch.simulate_batch
        calls = []

        def interrupt_second_stack(group):
            calls.append(len(group))
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(group)

        monkeypatch.setattr("repro.batch.simulate_batch", interrupt_second_stack)
        with pytest.raises(KeyboardInterrupt):
            execute_cells(tasks, jobs=1, cache=cache, journal=path, batch=2)
        assert calls == [2, 2]
        records = [json.loads(l) for l in path.read_text().splitlines()]
        done = {r["key"] for r in records if r["kind"] == "cell_done"}
        assert done == set(keys[:2])
        assert len(cache) == 2

        monkeypatch.setattr("repro.batch.simulate_batch", real)
        rec = BufferRecorder()
        report = execute_cells_report(
            tasks, jobs=1, cache=cache, journal=path, batch=2, recorder=rec,
        )
        assert report.ok
        assert report.counters["cache.hits"] == 2
        assert report.resumed == report.counters["cache.hits"]
        resume_events = [e for e in rec.events if e["type"] == "campaign_resume"]
        assert len(resume_events) == 1
        assert resume_events[0]["completed"] == 2
        clean = execute_cells(tasks, jobs=1)
        for got, want in zip(report.completed(), clean):
            assert_trace_equal(got, want)
