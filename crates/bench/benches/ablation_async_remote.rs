//! Ablation (§5.1, over real TCP): cross-operation request batching in the
//! asynchronous store API. A remote client that blocks on every `get` pays
//! one wire frame per operation; submitting the same operations as
//! `StoreOp::Get` coalesces each window into a single batch frame. Frames are
//! counted twice — on the client's meter and on the server — and the two
//! must agree.

use tell_bench::*;
use tell_netsim::NetMeter;
use tell_rpc::{RemoteEndpoint, RpcServer};
use tell_store::{keys, OpResult, StoreApi, StoreCluster, StoreConfig, StoreEndpoint, StoreOp};

/// Operations per round = the submission-window size being amortized.
const WINDOW: usize = 16;
/// Rounds per mode; enough to dwarf any setup frames.
const ROUNDS: usize = 50;

fn main() {
    section(
        "Ablation — async submission + batching over TCP (1 SN, window of 16)",
        "N outstanding ops cross the wire as one frame instead of N",
    );

    let store = StoreCluster::new(StoreConfig::new(1));
    let server = RpcServer::serve_store("127.0.0.1:0", store).expect("serve");
    let endpoint = RemoteEndpoint::connect(server.local_addr().to_string(), 1);

    let admin = endpoint.unmetered_client();
    let record_keys: Vec<_> =
        (0..WINDOW as u64).map(|i| keys::counter(&format!("k/{i}"))).collect();
    for (i, key) in record_keys.iter().enumerate() {
        admin.put(key, bytes::Bytes::from(vec![i as u8; 64])).expect("load");
    }

    table_header(&["mode", "frames", "frames/op", "server frames"]);
    let mut frames = Vec::new();
    let mut results: Vec<Vec<u8>> = Vec::new();
    for async_mode in [false, true] {
        let meter = NetMeter::free();
        let client = endpoint.client(meter.clone());
        let server_before = server.frames_served();
        let mut values = Vec::new();
        for _ in 0..ROUNDS {
            if async_mode {
                // Submit the whole window, then wait: one frame round trip.
                let handles: Vec<_> = record_keys
                    .iter()
                    .map(|k| client.submit(StoreOp::Get { key: k.clone() }))
                    .collect();
                for handle in handles {
                    let cell = handle.wait().and_then(OpResult::into_cell).expect("get");
                    let (_, raw) = cell.expect("present");
                    values.push(raw[0]);
                }
            } else {
                // Blocking calls: nothing else is outstanding, so each op
                // is its own frame round trip.
                for key in &record_keys {
                    let (_, raw) = client.get(key).expect("get").expect("present");
                    values.push(raw[0]);
                }
            }
        }
        let client_frames = meter.stats().request_count();
        let server_frames = server.frames_served() - server_before;
        assert_eq!(client_frames, server_frames, "client and server count the same frames");
        table_row(&[
            if async_mode { "async (batched)".into() } else { "blocking".to_string() },
            format!("{client_frames}"),
            format!("{:.2}", client_frames as f64 / (ROUNDS * WINDOW) as f64),
            format!("{server_frames}"),
        ]);
        frames.push(client_frames);
        results.push(values);
    }

    assert_eq!(results[0], results[1], "both modes read identical values");
    assert_eq!(frames[0], (ROUNDS * WINDOW) as u64, "blocking: one frame per op");
    assert_eq!(frames[1], ROUNDS as u64, "async: one frame per window");
    assert!(frames[1] < frames[0], "batching must shrink wire traffic");
    println!("\nshape ok: {}x fewer frames with async submission", frames[0] / frames[1].max(1));
}
