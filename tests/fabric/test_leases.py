"""LeaseStore: the claim/renew/release lifecycle, expiry-based work
stealing, journal replay and crash repair.  Every test drives time with
explicit ``now`` values -- nothing here sleeps."""

import json
import time

import pytest

from repro.fabric.leases import LEASES_FILE, Lease, LeaseStore, \
    LeaseStoreWarning


@pytest.fixture
def store(tmp_path):
    return LeaseStore(str(tmp_path))


def holder_of(store, key, now=None):
    """The valid (unexpired) lease on ``key`` in the lease table, if any."""
    for lease in store.active_leases():
        if lease.key == key and not lease.expired(now):
            return lease
    return None


def claimable(store, key, now=None):
    """True when ``key`` has no valid lease (free or expired)."""
    return holder_of(store, key, now) is None


class TestLifecycle:
    def test_claim_grants_until_the_deadline(self, store):
        lease = store.claim("e::f1", "e", "w1", duration=10.0, now=100.0)
        assert lease is not None
        assert lease.deadline == 110.0
        assert holder_of(store, "e::f1", now=105.0) == lease
        assert not claimable(store, "e::f1", now=105.0)

    def test_valid_lease_blocks_a_second_claim(self, store):
        store.claim("e::f1", "e", "w1", duration=10.0, now=100.0)
        assert store.claim("e::f1", "e", "w2", duration=10.0,
                           now=105.0) is None
        assert store.reclaimed == 0

    def test_expired_lease_is_stolen_and_counted(self, store):
        first = store.claim("e::f1", "e", "w1", duration=10.0, now=100.0)
        stolen = store.claim("e::f1", "e", "w2", duration=10.0,
                             now=111.0)
        assert stolen is not None and stolen.holder == "w2"
        assert stolen.token != first.token
        assert store.reclaimed == 1

    def test_renew_extends_the_deadline(self, store):
        lease = store.claim("e::f1", "e", "w1", duration=10.0, now=100.0)
        renewed = store.renew(lease, duration=10.0, now=108.0)
        assert renewed.deadline == 118.0
        assert holder_of(store, "e::f1", now=115.0) == renewed

    def test_renew_of_a_superseded_lease_fails(self, store):
        old = store.claim("e::f1", "e", "w1", duration=10.0, now=100.0)
        store.claim("e::f1", "e", "w2", duration=10.0, now=111.0)
        assert store.renew(old, duration=10.0, now=112.0) is None

    def test_renew_of_an_expired_lease_fails(self, store):
        lease = store.claim("e::f1", "e", "w1", duration=10.0, now=100.0)
        assert store.renew(lease, duration=10.0, now=111.0) is None

    def test_release_frees_the_entry(self, store):
        lease = store.claim("e::f1", "e", "w1", duration=10.0, now=100.0)
        assert store.release(lease, "ok", now=105.0)
        assert claimable(store, "e::f1", now=105.0)
        assert len(store) == 0

    def test_stale_release_is_rejected(self, store):
        old = store.claim("e::f1", "e", "w1", duration=10.0, now=100.0)
        new = store.claim("e::f1", "e", "w2", duration=10.0, now=111.0)
        # w1 comes back from the dead: its token was superseded.
        assert not store.release(old, "ok", now=112.0)
        assert holder_of(store, "e::f1", now=112.0) == new

    def test_expired_release_is_rejected_and_frees_the_entry(self, store):
        lease = store.claim("e::f1", "e", "w1", duration=10.0, now=100.0)
        assert not store.release(lease, "ok", now=111.0)
        # The dead lease is dropped, so the entry is immediately
        # claimable rather than waiting for the next expiry scan.
        assert claimable(store, "e::f1", now=111.0)

    def test_expired_leases_listing(self, store):
        store.claim("a::f", "a", "w1", duration=10.0, now=100.0)
        store.claim("b::f", "b", "w1", duration=30.0, now=100.0)
        expired = [lease for lease in store.active_leases()
                   if lease.expired(120.0)]
        assert [lease.key for lease in expired] == ["a::f"]
        assert len(store.active_leases()) == 2


class TestJournalReplay:
    def test_replay_reconstructs_the_active_table(self, store, tmp_path):
        kept = store.claim("a::f", "a", "w1", duration=10.0, now=100.0)
        done = store.claim("b::f", "b", "w1", duration=10.0, now=100.0)
        store.release(done, "ok", now=105.0)
        reloaded = LeaseStore(str(tmp_path))
        assert len(reloaded) == 1
        assert reloaded.active_leases()[0] == kept

    def test_replay_resumes_the_token_sequence(self, store, tmp_path):
        lease = store.claim("a::f", "a", "w1", duration=10.0, now=100.0)
        reloaded = LeaseStore(str(tmp_path))
        fresh = reloaded.claim("b::f", "b", "w2", duration=10.0,
                               now=100.0)
        assert fresh.token > lease.token

    def test_corrupt_trailing_line_is_skipped_with_a_warning(
            self, store, tmp_path):
        store.claim("a::f", "a", "w1", duration=10.0, now=100.0)
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "b::f", "name": "b", "hol')
        with pytest.warns(LeaseStoreWarning):
            reloaded = LeaseStore(str(tmp_path))
        assert reloaded.skipped_lines == 1
        assert len(reloaded) == 1

    def test_compact_repairs_the_journal(self, store, tmp_path):
        store.claim("a::f", "a", "w1", duration=10.0, now=100.0)
        done = store.claim("b::f", "b", "w1", duration=10.0, now=100.0)
        store.release(done, "ok", now=101.0)
        with open(store.path, "a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.warns(LeaseStoreWarning):
            reloaded = LeaseStore(str(tmp_path))
        reloaded.compact()
        lines = [json.loads(line) for line in
                 open(tmp_path / LEASES_FILE, encoding="utf-8")]
        claims = [line for line in lines if line["op"] == "claim"]
        assert [line["key"] for line in claims] == ["a::f"]
        # The released newest lease survives as one release record: it
        # carries the highest token, so tokens never repeat.
        assert [(line["op"], line["token"]) for line in lines
                if line["op"] != "claim"] == [("release", done.token)]
        assert reloaded.skipped_lines == 0
        # And the compacted journal replays clean.
        assert len(LeaseStore(str(tmp_path))) == 1

    def test_monotonic_deadlines_of_old_journals_read_as_expired(
            self, tmp_path):
        # Journals written before deadlines became wall-clock instants
        # hold time.monotonic() values: seconds since boot, long past
        # as time.time() instants, so their entries are claimable.
        old = Lease(key="a::f", name="a", holder="w1", token=7,
                    deadline=time.monotonic() + 3600.0)
        with open(tmp_path / LEASES_FILE, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(old.to_dict(), op="claim")) + "\n")
        store = LeaseStore(str(tmp_path))
        assert store.active_leases() == [old]
        assert claimable(store, "a::f")
        stolen = store.claim("a::f", "a", "w2", duration=10.0)
        assert stolen.token == 8
        assert store.reclaimed == 1

    def test_lease_dict_round_trip(self):
        lease = Lease(key="a::f", name="a", holder="w1", token=3,
                      deadline=110.0)
        assert Lease.from_dict(lease.to_dict()) == lease
