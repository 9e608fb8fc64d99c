//! A commit manager that cannot be told how a transaction ended must not
//! leave the transaction layer half-closed: the outcome is still counted
//! and the trace still unpinned before the error reaches the caller.
//!
//! Its own test binary, so the process-global counters it compares move
//! only with this test's transactions.

use std::sync::Arc;

use bytes::Bytes;
use tell_commitmgr::{CommitParticipant, CommitService, TxnStart};
use tell_common::{Error, IsolationLevel, Result, TxnId};
use tell_core::database::IndexSpec;
use tell_core::{Database, TellConfig};
use tell_netsim::NetMeter;
use tell_obs::Counter;

/// A participant whose commit manager is unreachable.
struct Unreachable;

impl CommitParticipant for Unreachable {
    fn set_committed(&self, _: TxnId, _: &NetMeter) -> Result<()> {
        Err(Error::Unavailable("commit manager unreachable".into()))
    }

    fn set_aborted(&self, _: TxnId, _: &NetMeter) -> Result<()> {
        Err(Error::Unavailable("commit manager unreachable".into()))
    }
}

/// Starts transactions on a real commit manager, then loses it.
struct LosesParticipants(Arc<dyn CommitService>);

impl CommitService for LosesParticipants {
    fn start_pinned(
        &self,
        hint: usize,
        level: IsolationLevel,
        meter: &NetMeter,
    ) -> Result<(TxnStart, Arc<dyn CommitParticipant>)> {
        let (start, _) = self.0.start_pinned(hint, level, meter)?;
        Ok((start, Arc::new(Unreachable)))
    }

    fn current_lav(&self) -> Result<u64> {
        self.0.current_lav()
    }

    fn force_resolve(&self, tid: TxnId, committed: bool) -> Result<()> {
        self.0.force_resolve(tid, committed)
    }

    fn sync_all(&self, meter: &NetMeter) -> Result<()> {
        self.0.sync_all(meter)
    }
}

#[test]
fn failed_cm_calls_still_close_the_transaction() {
    let local = Database::create(TellConfig::default());
    let cm = LosesParticipants(Arc::clone(local.commit_service()));
    let db = Database::open(Arc::clone(local.endpoint()), Arc::new(cm), TellConfig::default());
    let pk = IndexSpec::new("pk", true, |r: &[u8]| r.get(..8).map(Bytes::copy_from_slice));
    let table = db.create_table("t", vec![pk]).unwrap();
    let rid = db.bulk_load(&table, vec![Bytes::from(vec![7u8; 16])]).unwrap()[0];
    let counter = |c| tell_obs::global().counter(c);
    let before = [Counter::TxnBegun, Counter::TxnCommitted, Counter::TxnAborted].map(counter);
    let pn = db.processing_node();

    // A manual abort nobody hears about.
    let mut txn = pn.begin().unwrap();
    assert!(txn.get(&table, rid).unwrap().is_some());
    assert!(matches!(txn.abort(), Err(Error::Unavailable(_))));
    assert_eq!(tell_obs::current_trace(), None, "a failed abort leaves its trace pinned");
    drop(txn);

    // A read-only commit nobody hears about.
    let mut txn = pn.begin().unwrap();
    assert!(txn.get(&table, rid).unwrap().is_some());
    assert!(matches!(txn.commit(), Err(Error::Unavailable(_))));
    assert_eq!(tell_obs::current_trace(), None, "a failed commit leaves its trace pinned");
    drop(txn);

    let [begun, committed, aborted] =
        [Counter::TxnBegun, Counter::TxnCommitted, Counter::TxnAborted].map(counter);
    assert_eq!(begun - before[0], 2);
    assert_eq!((committed - before[1]) + (aborted - before[2]), begun - before[0]);
    assert_eq!(pn.metrics().committed() + pn.metrics().aborted(), 2);
}
