//! Property test for end-to-end WAL entry integrity: any single bit flip
//! in any replica's stored copy of an acked entry is detected on read. The
//! reader gets either the acked payload (healed from a healthy replica) or
//! a typed [`BookieError::EntryCorrupt`] — never silently wrong bytes —
//! and one scrub pass returns the ensemble to fully healthy.

use std::sync::Arc;

use bytes::Bytes;
use pravega_coordination::CoordinationService;
use pravega_wal::bookie::{Bookie, JournalBookie};
use pravega_wal::error::{BookieError, WalError};
use pravega_wal::journal::JournalConfig;
use pravega_wal::ledger::{BookiePool, LedgerManager, ReplicationConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_single_bit_flip_in_a_stored_entry_is_detected(
        sizes in prop::collection::vec(1usize..200, 1..12),
        entry_pick in any::<u16>(),
        replica_pick in 0usize..3,
        bit_pick in any::<u32>(),
        corrupt_all in any::<bool>(),
    ) {
        let bookies: Vec<Arc<JournalBookie>> = (0..3)
            .map(|i| Arc::new(JournalBookie::new(&format!("b{i}"), JournalConfig::default()).unwrap()))
            .collect();
        let pool = BookiePool::new(
            bookies.iter().map(|b| b.clone() as Arc<dyn Bookie>).collect(),
        );
        let coord = CoordinationService::new();
        let mgr = LedgerManager::new(&coord, &pool);
        let writer = mgr.create(ReplicationConfig::default(), 1).unwrap();

        let payloads: Vec<Vec<u8>> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| (0..n).map(|j| ((i * 31 + j) % 251) as u8).collect())
            .collect();
        let promises: Vec<_> = payloads
            .iter()
            .map(|p| writer.append(Bytes::from(p.clone())))
            .collect();
        for p in promises {
            p.wait().unwrap().unwrap();
        }
        let md = writer.metadata().clone();

        // Acks land at the 2-of-3 quorum; wait for the straggler replica so
        // the injection below always has stored bytes to flip.
        let deadline = pravega_common::clock::monotonic_now()
            + std::time::Duration::from_secs(5);
        let all_stored = || {
            (0..payloads.len() as u64)
                .all(|e| bookies.iter().all(|b| b.raw_entry(md.id, e).is_some()))
        };
        while !all_stored() && pravega_common::clock::monotonic_now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        prop_assert!(all_stored(), "replicas never converged to full replication");

        let entry = entry_pick as u64 % payloads.len() as u64;
        let stored_len = bookies[replica_pick].raw_entry(md.id, entry).unwrap().len() as u64;
        let bit = bit_pick as u64 % (stored_len * 8);
        let (offset, mask) = (bit / 8, 1u8 << (bit % 8));

        if corrupt_all {
            // Every replica rotten: the read must fail typed, never return
            // bytes differing from what was acked.
            for b in &bookies {
                prop_assert!(b.flip_entry_bit(md.id, entry, offset, mask));
            }
            let r = mgr.read_entry(&md, entry);
            prop_assert!(
                matches!(r, Err(WalError::Bookie(BookieError::EntryCorrupt { .. }))),
                "expected typed EntryCorrupt, got {:?}", r
            );
        } else {
            // One rotten replica: the read serves the acked bytes from a
            // healthy peer.
            prop_assert!(bookies[replica_pick].flip_entry_bit(md.id, entry, offset, mask));
            let got = mgr.read_entry(&md, entry).unwrap();
            prop_assert_eq!(got.as_ref(), payloads[entry as usize].as_slice());
            // One scrub pass heals whatever the read path didn't already
            // re-replicate; after it, a second pass finds a fully healthy
            // ensemble.
            let _ = mgr.scrub_ledger(&md);
            let clean = mgr.scrub_ledger(&md);
            prop_assert_eq!(clean.corrupt, 0);
            prop_assert_eq!(clean.repaired, 0);
            prop_assert_eq!(clean.replicas_checked, 3 * payloads.len() as u64);
        }
    }
}
