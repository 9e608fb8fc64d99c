//! B+tree node representation and its store encoding.

use bytes::Bytes;
use tell_common::codec::{Reader, Writer};
use tell_common::{Error, Result};

/// Composite entry key: the indexed attribute bytes plus the record id.
/// Ordering duplicates by rid lets a key with many matching records span
/// node boundaries cleanly.
pub type EntryKey = (Bytes, u64);

/// Compare composite keys.
#[inline]
pub fn cmp_entry(a: &EntryKey, b: &EntryKey) -> std::cmp::Ordering {
    a.0.cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The smallest possible entry key (low fence of the leftmost node).
pub fn min_key() -> EntryKey {
    (Bytes::new(), 0)
}

/// One B+tree node, as stored in a single store cell.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeData {
    /// Leaf or inner?
    pub is_leaf: bool,
    /// Inclusive lower bound of the node's key range.
    pub low: EntryKey,
    /// Exclusive upper bound; `None` means +infinity.
    pub high: Option<EntryKey>,
    /// Right sibling (B-link pointer). `Some` whenever `high` is `Some`.
    pub right: Option<u64>,
    /// Sorted entries. In a leaf, `(key, rid)` index entries. In an inner
    /// node, `(separator, child)`: child `i` covers keys in
    /// `[entries[i].key, entries[i+1].key)`; `entries[0].key == low`.
    pub entries: Vec<(EntryKey, u64)>,
}

impl NodeData {
    /// A fresh empty leaf covering the whole key space.
    pub fn empty_root_leaf() -> Self {
        NodeData { is_leaf: true, low: min_key(), high: None, right: None, entries: Vec::new() }
    }

    /// Does `k` fall inside this node's fences?
    pub fn covers(&self, k: &EntryKey) -> bool {
        cmp_entry(k, &self.low) != std::cmp::Ordering::Less
            && match &self.high {
                Some(h) => cmp_entry(k, h) == std::cmp::Ordering::Less,
                None => true,
            }
    }

    /// Is `k` at or beyond the high fence (reader must hop right)?
    pub fn beyond_high(&self, k: &EntryKey) -> bool {
        match &self.high {
            Some(h) => cmp_entry(k, h) != std::cmp::Ordering::Less,
            None => false,
        }
    }

    /// Position of `k` in `entries` (Ok = exact hit, Err = insert point).
    pub fn search(&self, k: &EntryKey) -> std::result::Result<usize, usize> {
        self.entries.binary_search_by(|(ek, _)| cmp_entry(ek, k))
    }

    /// Route a key through an inner node: the child whose range contains
    /// `k`. Callers must have handled `beyond_high` already.
    pub fn route(&self, k: &EntryKey) -> u64 {
        debug_assert!(!self.is_leaf);
        debug_assert!(!self.entries.is_empty(), "inner nodes are never empty");
        match self.search(k) {
            Ok(i) => self.entries[i].1,
            Err(0) => self.entries[0].1, // k < first separator: leftmost child
            Err(i) => self.entries[i - 1].1,
        }
    }

    /// Split in half. Returns `(separator, right_node)` and truncates `self`
    /// to the lower half with its high fence / right pointer re-targeted to
    /// `right_id`.
    pub fn split(&mut self, right_id: u64) -> (EntryKey, NodeData) {
        debug_assert!(self.entries.len() >= 2);
        self.split_at(self.entries.len() / 2, right_id)
    }

    /// Split into `ids.len() + 1` nodes of near-equal size, chained left to
    /// right: `self` keeps the first part and node `ids[i]` takes part
    /// `i + 1`. Returns the new nodes in chain order, each with its low
    /// fence (its separator in the parent) and id.
    pub fn split_many(&mut self, ids: &[u64]) -> Vec<(EntryKey, u64, NodeData)> {
        let (n, parts) = (self.entries.len(), ids.len() + 1);
        debug_assert!(n >= parts);
        // Peel parts off the right end, so each new node inherits the high
        // fence and right pointer of the part split off before it.
        let mut out: Vec<_> = (0..ids.len())
            .rev()
            .map(|i| {
                let (sep, node) = self.split_at(n * (i + 1) / parts, ids[i]);
                (sep, ids[i], node)
            })
            .collect();
        out.reverse();
        out
    }

    /// Move the entries from `at` on into a new right sibling `right_id`.
    fn split_at(&mut self, at: usize, right_id: u64) -> (EntryKey, NodeData) {
        let upper: Vec<(EntryKey, u64)> = self.entries.split_off(at);
        let sep = upper[0].0.clone();
        let right = NodeData {
            is_leaf: self.is_leaf,
            low: sep.clone(),
            high: self.high.take(),
            right: self.right.take(),
            entries: upper,
        };
        self.high = Some(sep.clone());
        self.right = Some(right_id);
        (sep, right)
    }

    /// Serialized size estimate (drives node-split thresholds and network
    /// cost accounting).
    pub fn encoded_len(&self) -> usize {
        let fence = |k: &EntryKey| 4 + k.0.len() + 8;
        1 + fence(&self.low)
            + 1
            + self.high.as_ref().map(&fence).unwrap_or(0)
            + 9
            + 4
            + self.entries.iter().map(|(k, _)| fence(k) + 8).sum::<usize>()
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Bytes {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.put_u8(if self.is_leaf { 1 } else { 0 });
        out.put_bytes(&self.low.0);
        out.put_u64(self.low.1);
        match &self.high {
            Some(h) => {
                out.put_u8(1);
                out.put_bytes(&h.0);
                out.put_u64(h.1);
            }
            None => out.put_u8(0),
        }
        match self.right {
            Some(r) => {
                out.put_u8(1);
                out.put_u64(r);
            }
            None => out.put_u8(0),
        }
        out.put_u32(self.entries.len() as u32);
        for ((k, rid), v) in &self.entries {
            out.put_bytes(k);
            out.put_u64(*rid);
            out.put_u64(*v);
        }
        Bytes::from(out)
    }

    /// Decode from bytes.
    pub fn decode(buf: &[u8]) -> Result<NodeData> {
        let mut r = Reader::new(buf);
        let is_leaf = r.u8()? == 1;
        let low = (Bytes::copy_from_slice(r.bytes()?), r.u64()?);
        let high =
            if r.u8()? == 1 { Some((Bytes::copy_from_slice(r.bytes()?), r.u64()?)) } else { None };
        let right = if r.u8()? == 1 { Some(r.u64()?) } else { None };
        let n = r.u32()? as usize;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let k = Bytes::copy_from_slice(r.bytes()?);
            let rid = r.u64()?;
            let v = r.u64()?;
            entries.push(((k, rid), v));
        }
        if !r.is_exhausted() {
            return Err(Error::corrupt("trailing bytes in index node"));
        }
        Ok(NodeData { is_leaf, low, high, right, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str, rid: u64) -> EntryKey {
        (Bytes::copy_from_slice(s.as_bytes()), rid)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let node = NodeData {
            is_leaf: false,
            low: k("aaa", 0),
            high: Some(k("zzz", 7)),
            right: Some(42),
            entries: vec![(k("aaa", 0), 1), (k("mmm", 3), 2)],
        };
        let bytes = node.encode();
        assert_eq!(bytes.len(), node.encoded_len());
        assert_eq!(NodeData::decode(&bytes).unwrap(), node);
        let leaf = NodeData::empty_root_leaf();
        assert_eq!(NodeData::decode(&leaf.encode()).unwrap(), leaf);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(NodeData::decode(&[9, 9]).is_err());
        let node = NodeData::empty_root_leaf();
        let mut bytes = node.encode().to_vec();
        bytes.push(0); // trailing byte
        assert!(NodeData::decode(&bytes).is_err());
    }

    #[test]
    fn covers_and_beyond() {
        let node = NodeData {
            is_leaf: true,
            low: k("b", 0),
            high: Some(k("m", 0)),
            right: Some(9),
            entries: vec![],
        };
        assert!(node.covers(&k("b", 0)));
        assert!(node.covers(&k("c", 5)));
        assert!(!node.covers(&k("a", 0)));
        assert!(!node.covers(&k("m", 0)));
        assert!(node.beyond_high(&k("m", 0)));
        assert!(node.beyond_high(&k("z", 0)));
        assert!(!node.beyond_high(&k("l", u64::MAX)));
        let open = NodeData::empty_root_leaf();
        assert!(open.covers(&k("anything", 99)));
        assert!(!open.beyond_high(&k("anything", 99)));
    }

    #[test]
    fn route_picks_correct_child() {
        let inner = NodeData {
            is_leaf: false,
            low: min_key(),
            high: None,
            right: None,
            entries: vec![((Bytes::new(), 0), 10), (k("h", 0), 20), (k("p", 0), 30)],
        };
        assert_eq!(inner.route(&k("a", 0)), 10);
        assert_eq!(inner.route(&k("h", 0)), 20);
        assert_eq!(inner.route(&k("o", 9)), 20);
        assert_eq!(inner.route(&k("p", 0)), 30);
        assert_eq!(inner.route(&k("z", 0)), 30);
    }

    #[test]
    fn split_halves_and_links() {
        let mut node = NodeData {
            is_leaf: true,
            low: min_key(),
            high: Some(k("zz", 0)),
            right: Some(77),
            entries: (0..6).map(|i| (k(&format!("k{i}"), 0), i)).collect(),
        };
        let (sep, right) = node.split(100);
        assert_eq!(sep, k("k3", 0));
        assert_eq!(node.entries.len(), 3);
        assert_eq!(right.entries.len(), 3);
        assert_eq!(node.high.as_ref(), Some(&sep));
        assert_eq!(node.right, Some(100));
        assert_eq!(right.low, sep);
        assert_eq!(right.high, Some(k("zz", 0)));
        assert_eq!(right.right, Some(77));
        // No entry lost, ranges partition cleanly.
        for (ek, _) in &node.entries {
            assert!(cmp_entry(ek, &sep) == std::cmp::Ordering::Less);
        }
        for (ek, _) in &right.entries {
            assert!(cmp_entry(ek, &sep) != std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn split_many_chains_near_equal_parts() {
        let mut node = NodeData {
            is_leaf: true,
            low: k("a", 0),
            high: Some(k("zz", 0)),
            right: Some(77),
            entries: (0..11).map(|i| (k(&format!("k{i:02}"), 0), i)).collect(),
        };
        let parts = node.split_many(&[100, 101]);
        let sizes: Vec<usize> = parts.iter().map(|(_, _, n)| n.entries.len()).collect();
        assert_eq!((node.entries.len(), sizes), (3, vec![4, 4]));
        assert_eq!((node.high.as_ref(), node.right), (Some(&parts[0].0), Some(100)));
        assert_eq!(
            (parts[0].1, parts[0].2.right, parts[0].2.high.as_ref()),
            (100, Some(101), Some(&parts[1].0))
        );
        assert_eq!(
            (parts[1].1, parts[1].2.right, parts[1].2.high.clone()),
            (101, Some(77), Some(k("zz", 0)))
        );
        for (sep, _, part) in &parts {
            assert_eq!((&part.low, &part.entries[0].0), (sep, sep));
        }
        // A two-way split_many is split.
        let mut a = NodeData { right: None, high: None, ..parts[0].2.clone() };
        let mut b = a.clone();
        let (sep, right) = a.split(9);
        assert_eq!(b.split_many(&[9]), vec![(sep, 9, right)]);
        assert_eq!(a, b);
    }

    #[test]
    fn search_duplicates_ordered_by_rid() {
        let node = NodeData {
            is_leaf: true,
            low: min_key(),
            high: None,
            right: None,
            entries: vec![(k("a", 1), 1), (k("a", 5), 5), (k("b", 2), 2)],
        };
        assert_eq!(node.search(&k("a", 5)), Ok(1));
        assert_eq!(node.search(&k("a", 0)), Err(0));
        assert_eq!(node.search(&k("a", 9)), Err(2));
    }
}
