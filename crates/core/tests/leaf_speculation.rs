//! An index lookup whose cached leaf went stale reads the records its cached
//! copy predicted in the same frame as the leaf, then learns from the fresh
//! leaf that the prediction was wrong. Those records must not join the read
//! set: under Serializable every record read is promoted into the commit's
//! conditional writes, so a record the lookup never returned would turn an
//! unrelated concurrent write into a spurious abort.

use std::sync::Arc;

use bytes::Bytes;
use tell_common::{IsolationLevel, Rid};
use tell_core::catalog::TableDef;
use tell_core::database::IndexSpec;
use tell_core::gc::run_gc;
use tell_core::{Database, TellConfig};

/// Test rows: `[pk: u64 BE][group: u8][payload...]`.
fn row(pk: u64, group: u8, payload: &str) -> Bytes {
    let mut r = pk.to_be_bytes().to_vec();
    r.push(group);
    r.extend_from_slice(payload.as_bytes());
    Bytes::from(r)
}

fn make_db() -> (Arc<Database>, Arc<TableDef>) {
    let db = Database::create(TellConfig::default());
    let table = db
        .create_table(
            "items",
            vec![
                IndexSpec::new("pk", true, |r: &[u8]| r.get(..8).map(Bytes::copy_from_slice)),
                IndexSpec::new("by_group", false, |r: &[u8]| {
                    r.get(8..9).map(Bytes::copy_from_slice)
                }),
            ],
        )
        .unwrap();
    (db, table)
}

/// The schedule, with the reader's cached leaf stale (`warm`) or its cache
/// emptied just before it reads. Returns whether the Serializable reader
/// committed and the rids its lookup returned.
fn run_schedule(warm: bool) -> (bool, Vec<Rid>) {
    let (db, table) = make_db();
    let rids = db.bulk_load(&table, vec![row(1, 10, "a"), row(2, 20, "b")]).unwrap();
    let (a, b) = (rids[0], rids[1]);
    let group = table.index("by_group").unwrap().id;
    let group_10 = Bytes::from_static(&[10]);

    // The reader caches the group-10 leaf, which names `a`.
    let reader = db.processing_node();
    reader
        .run(10, |t| {
            assert_eq!(t.index_lookup(&table, group, &group_10)?.len(), 1);
            Ok(())
        })
        .unwrap();

    // Another worker swaps the rows' groups; GC drops the dead entries, so
    // the group-10 leaf now names `b` and no longer `a`.
    let writer = db.processing_node();
    writer
        .run(10, |t| {
            t.update(&table, a, row(1, 20, "a"))?;
            t.update(&table, b, row(2, 10, "b"))
        })
        .unwrap();
    run_gc(&db).unwrap();
    if !warm {
        reader.tree(group).unwrap().cache().clear();
    }

    let mut txn = reader.begin_at(IsolationLevel::Serializable).unwrap();
    let found: Vec<Rid> =
        txn.index_lookup(&table, group, &group_10).unwrap().into_iter().map(|(r, _)| r).collect();
    // A concurrent write to `a`, which the lookup did not return. Had the
    // mis-predicted read of `a` joined the read set, this would abort it.
    writer.run(10, |t| t.update(&table, a, row(1, 20, "a2"))).unwrap();
    (txn.commit().is_ok(), found)
}

#[test]
fn mis_speculated_lookup_promotes_only_what_the_fresh_leaf_names() {
    let (cold_committed, cold_found) = run_schedule(false);
    let (warm_committed, warm_found) = run_schedule(true);
    assert!(cold_committed, "the uncached reader read only `b`, which nobody wrote");
    assert_eq!(warm_found, cold_found);
    assert_eq!(warm_committed, cold_committed, "a stale cached leaf changed the outcome");
}
