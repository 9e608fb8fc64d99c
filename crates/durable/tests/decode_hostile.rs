//! The durable tier's decoders against arbitrary bytes: reading a corrupt
//! segment, checkpoint or manifest never panics, and no decoder reserves
//! memory the input does not pay for — a lying frame length must not
//! zero-fill `MAX_PAYLOAD` at open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use proptest::prelude::*;
use tell_durable::segment::{
    decode_header, encode_header, frame_record, read_frames, HEADER_LEN, SEG_MAGIC,
};
use tell_durable::{LogRecord, Manifest};

/// Slack for an error message and a decoded record's bookkeeping.
const SLACK: usize = 1024;

fn record_strategy() -> impl Strategy<Value = LogRecord> {
    let bytes = || prop::collection::vec(any::<u8>(), 0..64).prop_map(Bytes::from);
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u64>(), bytes(), bytes()).prop_map(
            |(pid, seq, token, key, value)| LogRecord::Put {
                pid,
                seq,
                key,
                cell: tell_store::Cell { token, value },
            }
        ),
        (any::<u32>(), any::<u64>(), bytes()).prop_map(|(pid, seq, key)| LogRecord::Delete {
            pid,
            seq,
            key
        }),
        (any::<u64>(), prop::collection::vec((any::<u32>(), any::<u64>(), any::<u64>()), 0..8))
            .prop_map(|(covered_seg_seq, partitions)| LogRecord::CheckpointTrailer {
                covered_seg_seq,
                partitions
            }),
    ]
}

/// Random bytes, plus a valid segment (header and frames) with four bytes
/// replaced by a huge little-endian `u32` — the shape of a lying frame
/// length or element count.
fn hostile_input_strategy() -> impl Strategy<Value = Vec<u8>> {
    let huge = prop_oneof![Just(u32::MAX), Just((64u32 << 20) - 1), 1u32 << 20..u32::MAX];
    let segment = (any::<u64>(), prop::collection::vec(record_strategy(), 1..4)).prop_map(
        |(seq, records)| {
            let mut out = encode_header(SEG_MAGIC, seq).to_vec();
            for rec in &records {
                frame_record(&mut out, rec);
            }
            out
        },
    );
    let offset = prop_oneof![Just(HEADER_LEN as usize), any::<usize>()];
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..256),
        (segment, offset, huge).prop_map(|(mut bytes, at, huge)| {
            let at = at % (bytes.len() - 3);
            bytes[at..at + 4].copy_from_slice(&huge.to_le_bytes());
            bytes
        }),
    ]
}

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh data dir holding `bytes` as its `MANIFEST`.
fn manifest_dir(bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tell-durable-hostile-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join("MANIFEST"), bytes).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoders_survive_arbitrary_bytes(input in hostile_input_strategy()) {
        let bound = input.len() + SLACK;
        let largest = largest_allocation_during(|| {
            // A byte slice is its own `BufRead`: no reader buffer to count.
            let mut body = input.get(HEADER_LEN as usize..).unwrap_or_default();
            let _ = read_frames(&mut body, HEADER_LEN, |payload| {
                LogRecord::decode(payload).map(drop)
            });
        });
        prop_assert!(largest <= bound, "read_frames reserved {} bytes", largest);
        let largest = largest_allocation_during(|| drop(LogRecord::decode(&input)));
        prop_assert!(largest <= bound, "LogRecord::decode reserved {} bytes", largest);
        let largest = largest_allocation_during(|| drop(decode_header(&input, SEG_MAGIC)));
        prop_assert!(largest <= bound, "decode_header reserved {} bytes", largest);
        let dir = manifest_dir(&input);
        let largest = largest_allocation_during(|| drop(Manifest::load(&dir)));
        fs::remove_dir_all(&dir).unwrap();
        prop_assert!(largest <= bound, "Manifest::load reserved {} bytes", largest);
    }
}

/// Records the largest single allocation made on the current thread, so a
/// test can bound what a decoder reserves.
struct LargestAllocation;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_allocation(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees carry over; the only addition updates a
// thread-local `Cell` with a const initializer, which never allocates.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

fn largest_allocation_during(f: impl FnOnce()) -> usize {
    LARGEST.with(|largest| largest.set(0));
    f();
    LARGEST.with(Cell::get)
}
