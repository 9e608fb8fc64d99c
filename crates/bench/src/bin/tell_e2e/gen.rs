//! Seeded input generation. The program under test sees only the calls
//! these parameter streams turn into; the same `--seed` gives the same
//! per-client stream, and [`input_digest`] is the printed proof of that.

use crate::workloads::{Workload, ACCOUNT_ROWS, DISTRICT_ROWS, HOT_ROWS, STOCK_ROWS};

/// Closed-loop client threads of an untraced run: four per core of the
/// 2-core reference host, so the cores stay busy. With one client per core
/// the vCPUs idle between replies and run-to-run spread is the hypervisor's
/// wake-up latency (see README, "Noise").
pub const CLIENTS: usize = 8;

/// Client threads of a traced run: one per core, the issue's count. A
/// client's call then waits for the wire and the server, not for its turn
/// on a core, so call time minus serve time is transport and the per-layer
/// shares are the layers' own. A traced run drives the first streams of the
/// same seed.
pub const TRACED_CLIENTS: usize = 2;

/// xorshift64* — small, fast, and good enough for key choice.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 step, so neighbouring seeds give unrelated streams and
        // the state can never be the all-zero fixed point.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf over `0..n` by inverse CDF; `n` is a few thousand here, so the
/// table is cheap and the draw is one binary search.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u32, theta: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|rank| f64::from(rank).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Rank 0 is the hottest.
    pub fn draw(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1) as u32
    }
}

/// The parameters of one generated transaction.
#[derive(Clone, Debug, PartialEq)]
pub enum Params {
    /// Move one unit from account `from` to account `to`.
    PointRw { from: u32, to: u32 },
    /// 16 point lookups and one 64-key range starting at `range_start`.
    BatchRead { keys: [u32; 16], range_start: u32 },
    /// One order in `district` with a line per stock row.
    NewOrder { district: u32, stock: [u32; 8] },
    /// Read four hot rows, increment the first.
    HotSerializable { rows: [u32; 4] },
}

impl Params {
    fn words(&self) -> Vec<u32> {
        match self {
            Params::PointRw { from, to } => vec![*from, *to],
            Params::BatchRead { keys, range_start } => {
                keys.iter().copied().chain([*range_start]).collect()
            }
            Params::NewOrder { district, stock } => {
                [*district].into_iter().chain(stock.iter().copied()).collect()
            }
            Params::HotSerializable { rows } => rows.to_vec(),
        }
    }
}

/// Width of the `batch_read` range scan.
pub const RANGE_LEN: u32 = 64;

/// One client's transaction parameters, in order.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    zipf: Zipf,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64, client: usize) -> Stream {
        let rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
        Stream { workload, rng, zipf: Zipf::new(HOT_ROWS, 0.9) }
    }

    pub fn next_params(&mut self) -> Params {
        let rng = &mut self.rng;
        match self.workload {
            Workload::PointRw => {
                let [from, to] = distinct(|| rng.below(ACCOUNT_ROWS));
                Params::PointRw { from, to }
            }
            Workload::BatchRead => Params::BatchRead {
                keys: std::array::from_fn(|_| rng.below(ACCOUNT_ROWS)),
                range_start: rng.below(ACCOUNT_ROWS - RANGE_LEN),
            },
            Workload::NewOrderDurable => Params::NewOrder {
                district: rng.below(DISTRICT_ROWS),
                stock: distinct(|| rng.below(STOCK_ROWS)),
            },
            Workload::HotSerializable => {
                let zipf = &self.zipf;
                Params::HotSerializable { rows: distinct(|| zipf.draw(rng)) }
            }
        }
    }
}

/// `N` distinct draws, redrawing duplicates (deterministic given the rng).
fn distinct<const N: usize>(mut draw: impl FnMut() -> u32) -> [u32; N] {
    let mut out = [u32::MAX; N];
    for i in 0..N {
        out[i] = loop {
            let v = draw();
            if !out[..i].contains(&v) {
                break v;
            }
        };
    }
    out
}

/// FNV-1a over the first 10 000 generated transactions (1 250 per client).
pub fn input_digest(workload: Workload, seed: u64) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for client in 0..CLIENTS {
        let mut stream = Stream::new(workload, seed, client);
        for _ in 0..10_000 / CLIENTS {
            for word in stream.next_params().words() {
                for byte in word.to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
        }
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_clients_differ() {
        for workload in Workload::ALL {
            let take = |seed, client| {
                let mut s = Stream::new(workload, seed, client);
                (0..50).map(|_| s.next_params()).collect::<Vec<_>>()
            };
            assert_eq!(take(7, 0), take(7, 0));
            assert_ne!(take(7, 0), take(7, 1));
            assert_ne!(take(7, 0), take(8, 0));
        }
    }

    #[test]
    fn input_digest_is_pinned() {
        // A change here means every committed baseline number was taken on
        // different inputs: re-measure, do not just update the constant.
        assert_eq!(input_digest(Workload::PointRw, 1), 0x1636_2BFF_1E4A_27A1);
        assert_eq!(input_digest(Workload::HotSerializable, 1), 0x094E_47DF_1FE0_4049);
        assert_ne!(input_digest(Workload::PointRw, 1), input_digest(Workload::PointRw, 2));
    }

    #[test]
    fn draws_stay_in_range_and_distinct() {
        let mut s = Stream::new(Workload::NewOrderDurable, 3, 0);
        for _ in 0..1000 {
            let Params::NewOrder { district, stock } = s.next_params() else { panic!() };
            assert!(district < DISTRICT_ROWS);
            assert!(stock.iter().all(|&k| k < STOCK_ROWS));
            let mut sorted = stock;
            sorted.sort_unstable();
            assert!(sorted.windows(2).all(|w| w[0] != w[1]));
        }
        let mut s = Stream::new(Workload::BatchRead, 3, 1);
        for _ in 0..1000 {
            let Params::BatchRead { keys, range_start } = s.next_params() else { panic!() };
            assert!(keys.iter().all(|&k| k < ACCOUNT_ROWS));
            assert!(range_start + RANGE_LEN <= ACCOUNT_ROWS);
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let zipf = Zipf::new(256, 0.9);
        let mut rng = Rng::new(11);
        let mut counts = [0u32; 256];
        for _ in 0..100_000 {
            counts[zipf.draw(&mut rng) as usize] += 1;
        }
        // Rank 0 carries 1/H(256, 0.9) of the mass, about 12.6 %; the top 16
        // ranks about 47 %; every rank is reachable.
        let share = |n: usize| f64::from(counts[..n].iter().sum::<u32>()) / 100_000.0;
        assert!((0.11..0.14).contains(&share(1)), "rank 0 share {}", share(1));
        assert!((0.43..0.51).contains(&share(16)), "top-16 share {}", share(16));
        assert!(counts[0] > 4 * counts[15] && counts[15] > counts[255]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
