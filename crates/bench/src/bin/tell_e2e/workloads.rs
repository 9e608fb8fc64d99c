//! The four workloads: schema, load, transaction bodies and correctness
//! checks, written against the generic `Transaction<E>` API so the same
//! code runs with and without the tracing wrappers.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use tell_common::{Error, IsolationLevel, Result, Rid};
use tell_core::database::IndexSpec;
use tell_core::{Database, TableDef, Transaction, VersionedRecord};
use tell_store::{keys, StoreClient, StoreCluster, StoreEndpoint};

use crate::gen::{Params, RANGE_LEN};
use crate::trace::span;

pub const ACCOUNT_ROWS: u32 = 20_000;
pub const DISTRICT_ROWS: u32 = 128;
pub const STOCK_ROWS: u32 = 10_000;
/// Sixteen times the issue's 256, for four times its clients: with 256 rows
/// and eight clients over half of the attempts abort, mutual aborts come in
/// storms, and about one 10-s run in a hundred has a transaction that loses
/// 100 times in a row and fails. With 4096 a third of attempts abort and the
/// unluckiest of 100 000 transactions needs about 30.
pub const HOT_ROWS: u32 = 4096;
pub const ROW_LEN: usize = 100;
const INITIAL_BALANCE: u32 = 1_000_000;
const LINES_PER_ORDER: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PointRw,
    BatchRead,
    NewOrderDurable,
    HotSerializable,
}

impl Schema {
    /// Tables in creation order (see [`load`]).
    pub fn table(&self, i: usize) -> &Arc<TableDef> {
        &self.tables[i]
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PointRw,
        Workload::BatchRead,
        Workload::NewOrderDurable,
        Workload::HotSerializable,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PointRw => "point_rw",
            Workload::BatchRead => "batch_read",
            Workload::NewOrderDurable => "neworder_durable",
            Workload::HotSerializable => "hot_serializable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn isolation(self) -> IsolationLevel {
        match self {
            Workload::HotSerializable => IsolationLevel::Serializable,
            _ => IsolationLevel::Si,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::NewOrderDurable
    }

    /// Row bytes one committed transaction writes.
    pub fn user_bytes_per_commit(self) -> u64 {
        let rows = match self {
            Workload::PointRw => 2,
            Workload::BatchRead => 0,
            Workload::NewOrderDurable => 2 + 2 * LINES_PER_ORDER,
            Workload::HotSerializable => 1,
        };
        (rows * ROW_LEN) as u64
    }
}

/// A row is big-endian `u32` words followed by filler up to [`ROW_LEN`];
/// word 0 is always the first primary-key component.
fn row(words: &[u32]) -> Bytes {
    let mut out = Vec::with_capacity(ROW_LEN);
    for w in words {
        out.extend_from_slice(&w.to_be_bytes());
    }
    out.resize(ROW_LEN, words[0] as u8);
    Bytes::from(out)
}

fn word(row: &[u8], i: usize) -> u32 {
    u32::from_be_bytes(row[4 * i..4 * i + 4].try_into().expect("four bytes"))
}

fn with_word(old: &[u8], i: usize, value: u32) -> Bytes {
    let mut out = old.to_vec();
    out[4 * i..4 * i + 4].copy_from_slice(&value.to_be_bytes());
    Bytes::from(out)
}

/// Primary key of `n` leading words; big-endian, so byte order is numeric.
pub fn pk_key(words: &[u32]) -> Bytes {
    Bytes::from(words.iter().flat_map(|w| w.to_be_bytes()).collect::<Vec<u8>>())
}

fn pk_index(words: usize) -> Vec<IndexSpec> {
    vec![IndexSpec::new("pk", true, move |r: &[u8]| r.get(..4 * words).map(Bytes::copy_from_slice))]
}

fn checksum(pk: u32) -> u32 {
    pk.wrapping_mul(0x9E37_79B1) ^ 0x5BD1_E995
}

/// What a loaded database looks like to the transaction bodies.
pub struct Schema {
    /// In creation order; see each workload's `load` arm.
    tables: Vec<Arc<TableDef>>,
    /// `hot` rows are addressed by pre-resolved rid.
    hot_rids: Vec<Rid>,
    /// Row bytes loaded.
    pub loaded_bytes: u64,
}

/// Create and populate the workload's tables through `db`'s endpoint.
pub fn load<E: StoreEndpoint>(workload: Workload, db: &Arc<Database<E>>) -> Result<Schema> {
    let mut schema = Schema { tables: Vec::new(), hot_rids: Vec::new(), loaded_bytes: 0 };
    let mut table = |name: &str, pk_words: usize, rows: Vec<Bytes>| -> Result<Vec<Rid>> {
        let def = db.create_table(name, pk_index(pk_words))?;
        schema.loaded_bytes += (rows.len() * ROW_LEN) as u64;
        let rids = db.bulk_load(&def, rows)?;
        schema.tables.push(def);
        Ok(rids)
    };
    match workload {
        Workload::PointRw | Workload::BatchRead => {
            let rows = (0..ACCOUNT_ROWS).map(|pk| row(&[pk, INITIAL_BALANCE, checksum(pk)]));
            table("account", 1, rows.collect())?;
        }
        Workload::NewOrderDurable => {
            table("district", 1, (0..DISTRICT_ROWS).map(|d| row(&[d, 0])).collect())?;
            table("stock", 1, (0..STOCK_ROWS).map(|s| row(&[s, 0])).collect())?;
            table("orders", 2, Vec::new())?;
            table("order_line", 3, Vec::new())?;
        }
        Workload::HotSerializable => {
            let rids = table("hot", 1, (0..HOT_ROWS).map(|h| row(&[h, 0])).collect())?;
            schema.hot_rids = rids;
        }
    }
    Ok(schema)
}

/// Exactly one row under a unique key, or a non-retryable error.
fn one(mut hits: Vec<(Rid, Bytes)>) -> Result<(Rid, Bytes)> {
    match (hits.pop(), hits.is_empty()) {
        (Some(hit), true) => Ok(hit),
        _ => Err(Error::invalid("unique key did not resolve to exactly one row")),
    }
}

fn lookup<E: StoreEndpoint>(
    txn: &mut Transaction<'_, E>,
    table: &Arc<TableDef>,
    pk: &[u32],
) -> Result<(Rid, Bytes)> {
    one(span("core.read", || txn.index_lookup(table, table.primary_index().id, &pk_key(pk)))?)
}

fn update<E: StoreEndpoint>(
    txn: &mut Transaction<'_, E>,
    table: &Arc<TableDef>,
    rid: Rid,
    new_row: Bytes,
) -> Result<()> {
    span("core.write", || txn.update(table, rid, new_row))
}

/// Run one transaction's operations (everything but the commit). Returns
/// the order id a `neworder_durable` transaction will have created.
pub fn body<E: StoreEndpoint>(
    txn: &mut Transaction<'_, E>,
    schema: &Schema,
    params: &Params,
) -> Result<Option<(u32, u32)>> {
    let t = &schema.tables;
    match params {
        Params::PointRw { from, to } => {
            let (from_rid, from_row) = lookup(txn, &t[0], &[*from])?;
            let (to_rid, to_row) = lookup(txn, &t[0], &[*to])?;
            update(txn, &t[0], from_rid, with_word(&from_row, 1, word(&from_row, 1) - 1))?;
            update(txn, &t[0], to_rid, with_word(&to_row, 1, word(&to_row, 1) + 1))?;
            Ok(None)
        }
        Params::BatchRead { keys, range_start } => {
            let intact = |pk: u32, r: &[u8]| word(r, 0) == pk && word(r, 2) == checksum(pk);
            for pk in keys {
                let (_, r) = lookup(txn, &t[0], &[*pk])?;
                if !intact(*pk, &r) {
                    return Err(Error::corrupt(format!("account {pk} read back damaged")));
                }
            }
            let pk_index = t[0].primary_index().id;
            let (start, end) = (pk_key(&[*range_start]), pk_key(&[range_start + RANGE_LEN]));
            let rows = span("core.read", || {
                txn.index_range(&t[0], pk_index, &start, Some(&end), RANGE_LEN as usize)
            })?;
            let in_order = rows.iter().zip(*range_start..).all(|((_, _, r), pk)| intact(pk, r));
            if rows.len() != RANGE_LEN as usize || !in_order {
                return Err(Error::corrupt(format!("range at {range_start} read back damaged")));
            }
            Ok(None)
        }
        Params::NewOrder { district, stock } => {
            let (d_rid, d_row) = lookup(txn, &t[0], &[*district])?;
            let order = word(&d_row, 1);
            update(txn, &t[0], d_rid, with_word(&d_row, 1, order + 1))?;
            span("core.write", || txn.insert(&t[2], row(&[*district, order])))?;
            for (line, item) in stock.iter().enumerate() {
                let (s_rid, s_row) = lookup(txn, &t[1], &[*item])?;
                update(txn, &t[1], s_rid, with_word(&s_row, 1, word(&s_row, 1) + 1))?;
                let line_row = row(&[*district, order, line as u32, *item]);
                span("core.write", || txn.insert(&t[3], line_row))?;
            }
            Ok(Some((*district, order)))
        }
        Params::HotSerializable { rows } => {
            let mut first = None;
            for r in rows {
                let rid = schema.hot_rids[*r as usize];
                let got = span("core.read", || txn.get(&t[0], rid))?.ok_or(Error::NotFound)?;
                first.get_or_insert((rid, got));
            }
            let (rid, old) = first.expect("four rows were read");
            update(txn, &t[0], rid, with_word(&old, 1, word(&old, 1) + 1))?;
            Ok(None)
        }
    }
}

/// The invariant each in-memory workload must hold after `commits`
/// acknowledged transactions (checked on the live database).
pub fn check_live<E: StoreEndpoint>(
    workload: Workload,
    db: &Arc<Database<E>>,
    schema: &Schema,
    commits: u64,
) -> Result<bool> {
    let pn = db.processing_node();
    let mut txn = pn.begin()?;
    let column_sum = |txn: &mut Transaction<'_, E>| -> Result<u64> {
        let rows = txn.scan_table(&schema.tables[0], usize::MAX)?;
        Ok(rows.iter().map(|(_, r)| u64::from(word(r, 1))).sum())
    };
    let ok = match workload {
        // Transfers conserve money.
        Workload::PointRw => {
            column_sum(&mut txn)? == u64::from(ACCOUNT_ROWS) * u64::from(INITIAL_BALANCE)
        }
        // Every read was verified in the transaction body.
        Workload::BatchRead => true,
        // Every acknowledged commit incremented exactly one counter.
        Workload::HotSerializable => column_sum(&mut txn)? == commits,
        Workload::NewOrderDurable => unreachable!("checked after reopening, see check_recovered"),
    };
    txn.commit()?;
    Ok(ok)
}

/// `neworder_durable`: every acknowledged order and its eight lines must
/// be readable from a store recovered from the data directory alone. Reads
/// the raw records (newest version): the recovered store has no commit
/// manager, and an acknowledged order's versions are committed by
/// definition.
pub fn check_recovered(
    store: &Arc<StoreCluster>,
    schema: &Schema,
    acked: &[(u32, u32)],
) -> Result<bool> {
    let client = StoreClient::unmetered(Arc::clone(store));
    let newest_rows = |table: &Arc<TableDef>| -> Result<Vec<Bytes>> {
        let mut out = Vec::new();
        for (_, _, raw) in client.scan_prefix(&keys::record_prefix(table.id), usize::MAX)? {
            let record = VersionedRecord::decode(&raw)?;
            out.extend(record.versions().last().and_then(|v| v.payload.clone()));
        }
        Ok(out)
    };
    let mut lines: HashMap<(u32, u32), usize> = HashMap::new();
    for r in newest_rows(&schema.tables[3])? {
        *lines.entry((word(&r, 0), word(&r, 1))).or_default() += 1;
    }
    let orders: std::collections::HashSet<(u32, u32)> =
        newest_rows(&schema.tables[2])?.iter().map(|r| (word(r, 0), word(r, 1))).collect();
    Ok(acked.iter().all(|o| orders.contains(o) && lines.get(o) == Some(&LINES_PER_ORDER)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_fixed_width_and_words_round_trip() {
        let r = row(&[7, 1_000_000, checksum(7)]);
        assert_eq!(r.len(), ROW_LEN);
        assert_eq!((word(&r, 0), word(&r, 1), word(&r, 2)), (7, 1_000_000, checksum(7)));
        let r2 = with_word(&r, 1, 5);
        assert_eq!((word(&r2, 0), word(&r2, 1), r2.len()), (7, 5, ROW_LEN));
        // Key order is numeric order, which the range scan relies on.
        assert!(pk_key(&[255]) < pk_key(&[256]) && pk_key(&[1, 9]) < pk_key(&[2, 0]));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
