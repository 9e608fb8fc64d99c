//! Serializable scan predicates for §5.2 selection pushdown.
//!
//! The paper names "executing simple operations such as selection or
//! projection in the SN" as the way to shrink result sets before they cross
//! the network. A closure cannot travel in a frame, so the pushed-down
//! filter is this small expression tree: byte-level comparisons composable
//! with and/or/not. Both the in-process client and the remote storage node
//! evaluate the *same* [`Predicate::matches`], which is what makes the
//! bandwidth accounting symmetric between the two transports.
//!
//! Predicates operate on raw key and value bytes — the store knows nothing
//! about record versioning or row layouts (those live in `tell-core` /
//! `tell-sql` above). Layers with richer schemas compile their filters down
//! to byte comparisons, or post-filter client-side.

use bytes::Bytes;
use tell_common::codec::{Reader, Writer};
use tell_common::{Error, Result};

/// Comparison operator for [`Predicate::ValueCompare`], byte-wise
/// lexicographic. Order-preserving encodings (`tell_common::codec::
/// orderpreserving`) make lexicographic compare equal numeric compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CmpOp {
    fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    fn tag(self) -> u8 {
        match self {
            CmpOp::Eq => 0,
            CmpOp::Ne => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        }
    }

    fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => CmpOp::Eq,
            1 => CmpOp::Ne,
            2 => CmpOp::Lt,
            3 => CmpOp::Le,
            4 => CmpOp::Gt,
            5 => CmpOp::Ge,
            other => return Err(Error::corrupt(format!("unknown CmpOp tag {other}"))),
        })
    }
}

/// Maximum nesting depth accepted when decoding (and enforced on encode for
/// symmetry): deep enough for any realistic filter, shallow enough that a
/// hostile frame cannot blow the decoder's stack.
pub const MAX_PREDICATE_DEPTH: usize = 32;

/// A serializable filter over `(key, value)` byte slices, shipped inside
/// `Scan` frames and evaluated on the storage node.
#[derive(Clone, Debug, PartialEq)]
pub enum Predicate {
    /// Matches every row (pushdown degenerates to a plain prefix scan).
    True,
    /// Key starts with these bytes.
    KeyPrefix(Bytes),
    /// Value starts with these bytes.
    ValuePrefix(Bytes),
    /// Compare `value[offset .. offset + literal.len()]` with `literal`,
    /// byte-wise lexicographically. A value too short to cover the window
    /// never matches (regardless of operator — even `Ne`), so short rows
    /// cannot satisfy a filter vacuously.
    ValueCompare {
        /// Byte offset of the compared window in the value.
        offset: usize,
        /// Comparison operator.
        op: CmpOp,
        /// Literal to compare against; its length is the window length.
        literal: Bytes,
    },
    /// Every child matches (empty ⇒ true).
    All(Vec<Predicate>),
    /// At least one child matches (empty ⇒ false).
    Any(Vec<Predicate>),
    /// Child does not match.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `value[offset..][..literal.len()] op literal`.
    pub fn value_compare(offset: usize, op: CmpOp, literal: impl Into<Bytes>) -> Self {
        Predicate::ValueCompare { offset, op, literal: literal.into() }
    }

    /// `value[offset..] == literal` at the window, shorthand for the common
    /// equality probe.
    pub fn value_eq(offset: usize, literal: impl Into<Bytes>) -> Self {
        Predicate::value_compare(offset, CmpOp::Eq, literal)
    }

    /// Evaluate against one row. This is the single source of truth: the
    /// local client, the remote server and any test call the same code.
    pub fn matches(&self, key: &[u8], value: &[u8]) -> bool {
        match self {
            Predicate::True => true,
            Predicate::KeyPrefix(p) => key.starts_with(p),
            Predicate::ValuePrefix(p) => value.starts_with(p),
            Predicate::ValueCompare { offset, op, literal } => {
                match value.get(*offset..*offset + literal.len()) {
                    Some(window) => op.eval(window.cmp(literal)),
                    None => false,
                }
            }
            Predicate::All(children) => children.iter().all(|c| c.matches(key, value)),
            Predicate::Any(children) => children.iter().any(|c| c.matches(key, value)),
            Predicate::Not(child) => !child.matches(key, value),
        }
    }

    /// Serialize into `buf` using the workspace codec. Fails on trees
    /// deeper than [`MAX_PREDICATE_DEPTH`] so that anything we encode is
    /// guaranteed decodable.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> Result<()> {
        self.encode_at(buf, 0)
    }

    fn encode_at(&self, buf: &mut Vec<u8>, depth: usize) -> Result<()> {
        if depth >= MAX_PREDICATE_DEPTH {
            return Err(Error::invalid(format!(
                "predicate deeper than {MAX_PREDICATE_DEPTH} levels"
            )));
        }
        match self {
            Predicate::True => buf.put_u8(0),
            Predicate::KeyPrefix(p) => {
                buf.put_u8(1);
                buf.put_bytes(p);
            }
            Predicate::ValuePrefix(p) => {
                buf.put_u8(2);
                buf.put_bytes(p);
            }
            Predicate::ValueCompare { offset, op, literal } => {
                buf.put_u8(3);
                buf.put_u64(*offset as u64);
                buf.put_u8(op.tag());
                buf.put_bytes(literal);
            }
            Predicate::All(children) | Predicate::Any(children) => {
                buf.put_u8(if matches!(self, Predicate::All(_)) { 4 } else { 5 });
                buf.put_u32(children.len() as u32);
                for child in children {
                    child.encode_at(buf, depth + 1)?;
                }
            }
            Predicate::Not(child) => {
                buf.put_u8(6);
                child.encode_at(buf, depth + 1)?;
            }
        }
        Ok(())
    }

    /// Inverse of [`Predicate::encode_into`]; rejects unknown tags and
    /// trees deeper than [`MAX_PREDICATE_DEPTH`].
    pub fn decode_from(reader: &mut Reader<'_>) -> Result<Self> {
        Self::decode_at(reader, 0)
    }

    fn decode_at(reader: &mut Reader<'_>, depth: usize) -> Result<Self> {
        if depth >= MAX_PREDICATE_DEPTH {
            return Err(Error::corrupt(format!(
                "predicate deeper than {MAX_PREDICATE_DEPTH} levels"
            )));
        }
        Ok(match reader.u8()? {
            0 => Predicate::True,
            1 => Predicate::KeyPrefix(Bytes::copy_from_slice(reader.bytes()?)),
            2 => Predicate::ValuePrefix(Bytes::copy_from_slice(reader.bytes()?)),
            3 => {
                let offset = usize::try_from(reader.u64()?)
                    .map_err(|_| Error::corrupt("predicate offset overflows usize"))?;
                let op = CmpOp::from_tag(reader.u8()?)?;
                let literal = Bytes::copy_from_slice(reader.bytes()?);
                Predicate::ValueCompare { offset, op, literal }
            }
            tag @ (4 | 5) => {
                let count = reader.u32()? as usize;
                if count > reader.remaining() {
                    // Each child needs at least its one tag byte; a count
                    // beyond that is a lie, refuse before allocating.
                    return Err(Error::corrupt("predicate child count exceeds input"));
                }
                let mut children = Vec::with_capacity(count);
                for _ in 0..count {
                    children.push(Self::decode_at(reader, depth + 1)?);
                }
                if tag == 4 {
                    Predicate::All(children)
                } else {
                    Predicate::Any(children)
                }
            }
            6 => Predicate::Not(Box::new(Self::decode_at(reader, depth + 1)?)),
            other => return Err(Error::corrupt(format!("unknown Predicate tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: &Predicate) -> Predicate {
        let mut buf = Vec::new();
        p.encode_into(&mut buf).unwrap();
        let mut r = Reader::new(&buf);
        let out = Predicate::decode_from(&mut r).unwrap();
        assert!(r.is_exhausted(), "predicate decode must consume exactly its bytes");
        out
    }

    #[test]
    fn matches_semantics() {
        assert!(Predicate::True.matches(b"k", b"v"));
        assert!(Predicate::KeyPrefix(Bytes::from_static(b"or/")).matches(b"or/42", b""));
        assert!(!Predicate::KeyPrefix(Bytes::from_static(b"or/")).matches(b"st/42", b""));
        assert!(Predicate::ValuePrefix(Bytes::from_static(b"ab")).matches(b"", b"abc"));
        let ge = Predicate::value_compare(2, CmpOp::Ge, vec![0x10]);
        assert!(ge.matches(b"", &[0, 0, 0x10]));
        assert!(ge.matches(b"", &[0, 0, 0x11]));
        assert!(!ge.matches(b"", &[0, 0, 0x0f]));
        // Window past the end of the value: never a match, even for Ne.
        assert!(!Predicate::value_compare(2, CmpOp::Ne, vec![1]).matches(b"", &[0, 0]));
        let both = Predicate::All(vec![
            Predicate::KeyPrefix(Bytes::from_static(b"a")),
            Predicate::value_eq(0, vec![9]),
        ]);
        assert!(both.matches(b"ax", &[9]));
        assert!(!both.matches(b"bx", &[9]));
        assert!(!Predicate::Any(vec![]).matches(b"", b""));
        assert!(Predicate::All(vec![]).matches(b"", b""));
        assert!(!Predicate::Not(Box::new(Predicate::True)).matches(b"", b""));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let cases = [
            Predicate::True,
            Predicate::KeyPrefix(Bytes::from_static(b"tbl/")),
            Predicate::ValuePrefix(Bytes::new()),
            Predicate::value_compare(17, CmpOp::Le, vec![1, 2, 3]),
            Predicate::All(vec![
                Predicate::value_eq(0, vec![0]),
                Predicate::Any(vec![Predicate::True, Predicate::Not(Box::new(Predicate::True))]),
            ]),
        ];
        for p in &cases {
            assert_eq!(&roundtrip(p), p);
        }
    }

    #[test]
    fn decode_rejects_garbage_and_depth_bombs() {
        let mut r = Reader::new(&[99]);
        assert!(Predicate::decode_from(&mut r).is_err());

        // MAX_PREDICATE_DEPTH nested Nots: one too deep to decode, and
        // encode refuses to produce it in the first place.
        let mut deep = Predicate::True;
        for _ in 0..MAX_PREDICATE_DEPTH {
            deep = Predicate::Not(Box::new(deep));
        }
        let mut buf = Vec::new();
        assert!(deep.encode_into(&mut buf).is_err());
        let raw: Vec<u8> = std::iter::repeat_n(6u8, MAX_PREDICATE_DEPTH).chain([0u8]).collect();
        let mut r = Reader::new(&raw);
        assert!(Predicate::decode_from(&mut r).is_err());

        // A child count larger than the remaining input is refused early.
        let mut buf = Vec::new();
        buf.put_u8(4);
        buf.put_u32(u32::MAX);
        let mut r = Reader::new(&buf);
        assert!(matches!(Predicate::decode_from(&mut r), Err(Error::Corrupt(_))));
    }
}
