//! Property-based recovery test for ledger close semantics under the 3/3/2
//! scheme (Table 1): after a crash leaves a *minority-acked* tail — entries
//! durable on fewer than `ack_quorum` bookies — recovery must
//!
//! 1. keep every entry that reached the ack quorum (acked entries form a
//!    prefix; none may be cut),
//! 2. close at an offset that repeated recoveries, over any reachable
//!    subset of the ensemble, agree on, and
//! 3. never resurrect a sub-quorum tail once a higher-token close excluded
//!    it — even when the bookie holding the tail comes back afterwards.

use std::sync::Arc;

use bytes::Bytes;
use pravega_coordination::CoordinationService;
use pravega_wal::bookie::{Bookie, JournalBookie};
use pravega_wal::error::WalError;
use pravega_wal::journal::JournalConfig;
use pravega_wal::ledger::{
    BookiePool, LedgerManager, LedgerState, LedgerWriter, ReplicationConfig,
};
use proptest::prelude::*;

const WRITER_TOKEN: u64 = 1;

struct Fixture {
    bookies: Vec<Arc<JournalBookie>>,
    mgr: LedgerManager,
    writer: LedgerWriter,
}

/// Three bookies, a 3/3/2 ledger with `n_acked` quorum-acked entries
/// (payload `acked-{i}`) and `tail_len` minority entries (payload
/// `tail-{i}`) durable on `tail_bookie` only — the state an abrupt crash
/// leaves when the writer died before the tail reached its ack quorum.
fn fixture(n_acked: usize, tail_len: usize, tail_bookie: usize) -> Fixture {
    let bookies: Vec<Arc<JournalBookie>> = (0..3)
        .map(|i| Arc::new(JournalBookie::new(&format!("b{i}"), JournalConfig::default()).unwrap()))
        .collect();
    let pool = BookiePool::new(
        bookies
            .iter()
            .map(|b| b.clone() as Arc<dyn Bookie>)
            .collect(),
    );
    let coord = CoordinationService::new();
    let mgr = LedgerManager::new(&coord, &pool);
    let writer = mgr
        .create(ReplicationConfig::default(), WRITER_TOKEN)
        .unwrap();
    let promises: Vec<_> = (0..n_acked)
        .map(|i| writer.append(Bytes::from(format!("acked-{i}"))))
        .collect();
    for p in promises {
        p.wait().unwrap().unwrap();
    }
    // The sub-quorum tail bypasses the writer: it exists on one bookie only,
    // stored as a writer would have stored it — wrapped in the checksummed
    // entry envelope (a crashed writer wraps before replication).
    let id = writer.metadata().id;
    for t in 0..tail_len {
        bookies[tail_bookie]
            .add_entry(
                id,
                (n_acked + t) as u64,
                WRITER_TOKEN,
                pravega_wal::bookie::encode_entry_envelope(format!("tail-{t}").as_bytes()),
            )
            .unwrap();
    }
    Fixture {
        bookies,
        mgr,
        writer,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // The tail's bookie is down at recovery time: the close must land
    // exactly at the acked prefix, the zombie writer must be fenced, and
    // when the tail's bookie returns, later (higher-token) recoveries —
    // over any reachable subset — return the same close, never the tail.
    #[test]
    fn sub_quorum_tail_never_resurrects_after_a_higher_token_close(
        n_acked in 0usize..20,
        tail_len in 0usize..3,
        tail_bookie in 0usize..3,
        second_kill in 0usize..3,
    ) {
        let f = fixture(n_acked, tail_len, tail_bookie);
        let id = f.writer.metadata().id;

        f.bookies[tail_bookie].set_available(false);
        let closed = f.mgr.recover_and_close(id, 2).unwrap();
        let expected_last = n_acked.checked_sub(1).map(|e| e as u64);
        prop_assert_eq!(closed.state, LedgerState::Closed { last_entry: expected_last });

        // The old writer is a zombie now: fenced out by the recovery token.
        let r = f.writer.append(Bytes::from_static(b"zombie")).wait().unwrap();
        prop_assert!(
            matches!(r, Err(WalError::Fenced) | Err(WalError::QuorumLost)),
            "zombie append must fail, got {:?}", r
        );

        // The tail's bookie comes back (possibly trading places with another
        // dead one): the first close wins, byte for byte.
        f.bookies[tail_bookie].set_available(true);
        if second_kill != tail_bookie {
            f.bookies[second_kill].set_available(false);
        }
        let again = f.mgr.recover_and_close(id, 3).unwrap();
        prop_assert_eq!(again.state, closed.state);
        f.bookies[second_kill].set_available(true);

        // Every acked entry reads back intact, in order — and nothing more.
        let entries = f.mgr.read_all(&closed).unwrap();
        prop_assert_eq!(entries.len(), n_acked);
        for (i, e) in entries.iter().enumerate() {
            prop_assert_eq!(e.as_ref(), format!("acked-{i}").as_bytes());
        }
    }

    // The tail's bookie is reachable at recovery time: recovery may adopt
    // the readable tail (BookKeeper semantics — unacked entries *may*
    // survive, acked entries *must*), but whatever it closes at is
    // re-replicated to a full ack quorum: the ledger stays readable even
    // after the only original tail holder dies.
    #[test]
    fn adopted_tail_is_restored_to_quorum(
        n_acked in 0usize..20,
        tail_len in 0usize..3,
        tail_bookie in 0usize..3,
    ) {
        let f = fixture(n_acked, tail_len, tail_bookie);
        let id = f.writer.metadata().id;

        let closed = f.mgr.recover_and_close(id, 2).unwrap();
        let LedgerState::Closed { last_entry } = closed.state else {
            panic!("recovery must close the ledger, got {:?}", closed.state);
        };
        // All bookies reachable: the contiguous readable log is the acked
        // prefix plus the whole tail.
        let expected_last = (n_acked + tail_len).checked_sub(1).map(|e| e as u64);
        prop_assert_eq!(last_entry, expected_last);

        // The original tail holder dies: adoption must have re-replicated
        // the tail, so everything up to the close still reads back.
        f.bookies[tail_bookie].set_available(false);
        let entries = f.mgr.read_all(&closed).unwrap();
        prop_assert_eq!(entries.len(), n_acked + tail_len);
        for (i, e) in entries.iter().enumerate() {
            let want = if i < n_acked {
                format!("acked-{i}")
            } else {
                format!("tail-{}", i - n_acked)
            };
            prop_assert_eq!(e.as_ref(), want.as_bytes());
        }
    }

    // With too few reachable ensemble members to prove what was acked
    // (`reachable < max(ack, ensemble − ack + 1)`), recovery refuses to
    // close rather than guessing; once enough bookies return it closes
    // with every acked entry intact.
    #[test]
    fn recovery_refuses_to_close_without_a_provable_quorum(
        n_acked in 1usize..10,
        kill_a in 0usize..3,
        kill_off in 1usize..3,
    ) {
        let kill_b = (kill_a + kill_off) % 3;
        let f = fixture(n_acked, 0, 0);
        let id = f.writer.metadata().id;

        f.bookies[kill_a].set_available(false);
        f.bookies[kill_b].set_available(false);
        prop_assert_eq!(
            f.mgr.recover_and_close(id, 2),
            Err(WalError::QuorumLost)
        );
        // The refusal must not have closed the ledger.
        prop_assert_eq!(f.mgr.metadata(id).unwrap().state, LedgerState::Open);

        f.bookies[kill_a].set_available(true);
        f.bookies[kill_b].set_available(true);
        let closed = f.mgr.recover_and_close(id, 3).unwrap();
        prop_assert_eq!(
            closed.state,
            LedgerState::Closed { last_entry: Some((n_acked - 1) as u64) }
        );
        prop_assert_eq!(f.mgr.read_all(&closed).unwrap().len(), n_acked);
    }
}
