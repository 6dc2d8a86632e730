"""The on-disk job journal: atomic creation, state machine, recovery."""

from __future__ import annotations

import json
import os
import stat

import pytest

from repro.service import jobs as jobs_mod
from repro.service.jobs import JobStore, TransitionError
from repro.service.payload import canonical_bytes, canonical_spec, job_key


def tiny_spec(**run):
    return {
        "trees": [
            {
                "name": "t0",
                "parent": [-1, 0, 0],
                "w": [1.0, 2.0, 3.0],
                "f": [0.0, 1.0, 1.0],
                "sizes": [1.0, 1.0, 1.0],
            }
        ],
        "campaign": {"algorithms": ["ParSubtrees"], "processor_counts": [2]},
        "run": run,
    }


@pytest.fixture
def store(tmp_path):
    return JobStore(str(tmp_path / "svc"))


class TestCreate:
    def test_create_is_idempotent(self, store):
        a, created_a = store.create(tiny_spec())
        b, created_b = store.create(tiny_spec())
        assert created_a and not created_b
        assert a.id == b.id
        assert a.state == "queued"
        with open(a.spec_path) as fh:
            assert json.load(fh)["campaign"]["algorithms"] == ["ParSubtrees"]

    def test_distinct_work_distinct_jobs(self, store):
        a, _ = store.create(tiny_spec())
        b, _ = store.create(tiny_spec(retries=7))
        assert a.id != b.id
        assert sorted(store.ids()) == sorted([a.id, b.id])

    def test_no_stage_dirs_leak(self, store):
        store.create(tiny_spec())
        leftovers = [d for d in os.listdir(store.jobs_dir) if d.startswith(".")]
        assert leftovers == []


def count_fsyncs(monkeypatch, fail_at: int | None = None) -> list:
    """Patch ``os.fsync`` to record its calls (and raise at call
    number ``fail_at``, counting from 1)."""
    calls: list = []
    real = os.fsync

    def fsync(fd):
        calls.append(fd)
        if len(calls) == fail_at:
            raise OSError("injected fsync failure")
        return real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


class TestJournalContract:
    def test_spec_bytes_and_id_are_the_canonical_ones(self, store):
        spec = tiny_spec(retries=3)
        job, created = store.create(spec)
        assert created
        with open(job.spec_path, "rb") as fh:
            assert fh.read() == canonical_bytes(spec)
        assert job.id == job_key(spec)

    def test_returned_jobs_equal_what_is_on_disk(self, store):
        job, _ = store.create(tiny_spec())
        assert job == store.get(job.id)
        job = store.transition(job.id, "running", detail={"k": 1})
        assert job == store.get(job.id)

    def test_directory_written_by_json_dump_is_adopted(self, store):
        """A job journaled with the streaming encoder (``json.dump`` to
        the file) is the same job: a resubmit adopts it."""
        spec = tiny_spec(retries=4)
        jid = job_key(spec)
        path = os.path.join(store.jobs_dir, jid)
        os.mkdir(path)
        with open(os.path.join(path, "spec.json"), "w") as fh:
            json.dump(canonical_spec(spec), fh, sort_keys=True,
                      separators=(",", ":"))
        with open(os.path.join(path, "state.json"), "w") as fh:
            json.dump({"state": "done", "created": 1.0, "updated": 2.0,
                       "error": "", "detail": {"scenarios": 1}}, fh)
        job, created = store.create(spec)
        assert not created
        assert (job.id, job.state, job.created) == (jid, "done", 1.0)
        with open(job.spec_path, "rb") as fh:
            assert fh.read() == canonical_bytes(spec)
        assert store.ids() == [jid]

    def test_fsyncs_per_create_and_transition(self, store, monkeypatch):
        calls = count_fsyncs(monkeypatch)
        job, _ = store.create(tiny_spec())
        assert len(calls) == 4  # spec, state, stage dir, jobs dir
        del calls[:]
        store.transition(job.id, "running")
        assert len(calls) == 2  # temp state file, job dir
        del calls[:]
        store.create(tiny_spec())  # adopt: nothing written
        assert calls == []

    def test_file_modes(self, store, tmp_path):
        """``spec.json`` gets the mode of any new file, ``state.json``
        that of a temp file (0o600) from creation on."""
        def mode(path):
            return stat.S_IMODE(os.stat(path).st_mode)

        probe = tmp_path / "probe"
        probe.write_bytes(b"")
        job, _ = store.create(tiny_spec())
        state = os.path.join(job.path, "state.json")
        assert mode(job.spec_path) == mode(probe)
        assert mode(state) == 0o600
        store.transition(job.id, "running")
        assert mode(state) == 0o600

    def test_no_temp_residue(self, store):
        job, _ = store.create(tiny_spec())
        store.transition(job.id, "running")
        store.transition(job.id, "done")
        residue = [
            os.path.join(d, name)
            for d, dirs, files in os.walk(store.jobs_dir)
            for name in dirs + files
            if name.startswith((".new-", ".state-"))
        ]
        assert residue == []
        assert sorted(os.listdir(job.path)) == ["spec.json", "state.json"]

    def test_failed_create_publishes_nothing(self, store, monkeypatch):
        count_fsyncs(monkeypatch, fail_at=2)  # the state file's fsync
        with pytest.raises(OSError, match="injected"):
            store.create(tiny_spec())
        assert os.listdir(store.jobs_dir) == []
        monkeypatch.undo()
        job, created = store.create(tiny_spec())  # and a retry lands
        assert created and store.ids() == [job.id]


CHUNK = jobs_mod._CHUNK


class TestRecordFiles:
    """``record_count`` and ``records_length`` read the file in chunks;
    the reference reads it whole."""

    @pytest.mark.parametrize(
        "lines, tail",
        [
            (0, 0),
            (0, 5),
            (0, 2 * CHUNK + 3),  # a torn line only, longer than two chunks
            (1, 0),
            (1, CHUNK - 1),  # the last newline is a chunk's first byte
            (1, CHUNK),  # ... the last byte of the chunk before
            (1, CHUNK + 1),
            (20000, 7),  # records over several chunks
            (20000, CHUNK + 10),
        ],
    )
    def test_torn_tails_and_chunk_boundaries(self, store, lines, tail):
        job, _ = store.create(tiny_spec())
        data = b"".join(b'{"r":%d}\n' % k for k in range(lines)) + b"x" * tail
        with open(job.records_path, "wb") as fh:
            fh.write(data)
        assert job.record_count() == data.count(b"\n")
        assert job.records_length() == data.rfind(b"\n") + 1

    def test_empty_and_missing_files(self, store):
        job, _ = store.create(tiny_spec())
        assert (job.record_count(), job.records_length()) == (0, 0)
        open(job.records_path, "wb").close()
        assert (job.record_count(), job.records_length()) == (0, 0)


class TestStateMachine:
    def test_happy_path(self, store):
        job, _ = store.create(tiny_spec())
        job = store.transition(job.id, "running", expect="queued")
        assert job.state == "running"
        job = store.transition(job.id, "done", detail={"scenarios": 4})
        assert job.state == "done"
        assert job.detail["scenarios"] == 4

    def test_done_is_terminal(self, store):
        job, _ = store.create(tiny_spec())
        store.transition(job.id, "running")
        store.transition(job.id, "done")
        for bad in ("running", "queued", "cancelled", "failed"):
            with pytest.raises(TransitionError):
                store.transition(job.id, bad)

    def test_expect_guards_races(self, store):
        job, _ = store.create(tiny_spec())
        store.transition(job.id, "cancelled")
        with pytest.raises(TransitionError, match="expected queued"):
            store.transition(job.id, "running", expect="queued")

    def test_failed_and_cancelled_can_requeue(self, store):
        job, _ = store.create(tiny_spec())
        store.transition(job.id, "running")
        store.transition(job.id, "failed", error="boom")
        job = store.transition(job.id, "queued")
        assert job.state == "queued" and job.error == ""

    def test_state_file_is_replaced_atomically(self, store):
        job, _ = store.create(tiny_spec())
        store.transition(job.id, "running")
        names = os.listdir(job.path)
        assert "state.json" in names
        assert not [n for n in names if n.endswith(".tmp")]


class TestRecovery:
    def test_running_jobs_flip_back_to_queued_in_order(self, store):
        a, _ = store.create(tiny_spec())
        b, _ = store.create(tiny_spec(retries=9))
        store.transition(b.id, "running")
        queued = store.recover()
        assert [j.state for j in queued] == ["queued", "queued"]
        assert store.get(b.id).detail.get("recovered") is True
        # submit order: creation time then id
        assert [j.id for j in queued] == sorted(
            [a.id, b.id], key=lambda i: (store.get(i).created, i)
        )

    def test_settled_jobs_left_alone(self, store):
        job, _ = store.create(tiny_spec())
        store.transition(job.id, "running")
        store.transition(job.id, "done")
        assert store.recover() == []
        assert store.get(job.id).state == "done"

    def test_record_count_counts_complete_lines(self, store):
        job, _ = store.create(tiny_spec())
        assert job.record_count() == 0
        with open(job.records_path, "wb") as fh:
            fh.write(b'{"a":1}\n{"b":2}\n{"torn')
        assert store.get(job.id).to_dict()["records"] == 2
