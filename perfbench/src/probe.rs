//! Unit-cost probes: each times one public function of a layer a fixed
//! number of times after a warm-up and reports nanoseconds per call.
//! The traced run multiplies these by exact operation counts to
//! estimate how much of the handler time each layer accounts for.

use std::hint::black_box;
use std::time::Instant;

use gkap_bignum::{RandomSource, SplitMix64};
use gkap_core::experiment::SuiteKind;
use gkap_crypto::dh::DhGroup;
use gkap_gcs::fec;
use gkap_sim::{Duration, EventQueue, SimTime};

use crate::stats::median;

/// Timed batches per probe; the reported cost is their median.
const BATCHES: usize = 5;

/// Bytes signed and verified per call: about one protocol message.
const SIGN_PAYLOAD: usize = 256;

/// Events pending in the queue probe, near a busy engine's queue depth.
const QUEUE_DEPTH: usize = 256;

/// Per-call costs of each layer's public functions, in nanoseconds.
#[derive(Clone, Debug)]
pub struct UnitCosts {
    /// `DhGroup::test_256().exp` with a random base and exponent.
    pub modexp_ns: f64,
    /// `DhGroup::test_256().exp_g` with a random exponent.
    pub fixed_base_exp_ns: f64,
    /// `CryptoSuite::sign` of [`SIGN_PAYLOAD`] bytes (simulation suite).
    pub sign_ns: f64,
    /// `CryptoSuite::verify` of the same.
    pub verify_ns: f64,
    /// One `EventQueue::schedule_at` plus one `pop`.
    pub queue_ns_per_event: f64,
    /// `gcs::fec::encode` of 8 data shards of 64 bytes into 4 parity.
    pub fec_encode_ns: f64,
    /// `gcs::fec::decode` of the same generation with 3 data shards lost.
    pub fec_decode_ns: f64,
}

impl UnitCosts {
    /// Field-wise mean of two probe runs.
    pub fn mean(&self, other: &UnitCosts) -> UnitCosts {
        let m = |a: f64, b: f64| (a + b) / 2.0;
        UnitCosts {
            modexp_ns: m(self.modexp_ns, other.modexp_ns),
            fixed_base_exp_ns: m(self.fixed_base_exp_ns, other.fixed_base_exp_ns),
            sign_ns: m(self.sign_ns, other.sign_ns),
            verify_ns: m(self.verify_ns, other.verify_ns),
            queue_ns_per_event: m(self.queue_ns_per_event, other.queue_ns_per_event),
            fec_encode_ns: m(self.fec_encode_ns, other.fec_encode_ns),
            fec_decode_ns: m(self.fec_decode_ns, other.fec_decode_ns),
        }
    }
}

/// Median over [`BATCHES`] timed batches of `calls` calls each, after
/// one untimed batch, in nanoseconds per call.
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    for i in 0..calls {
        f(i);
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&samples)
}

/// Runs every probe with inputs drawn from `seed`.
pub fn unit_costs(seed: u64) -> UnitCosts {
    let mut rng = SplitMix64::new(seed ^ 0x70be_5eed);
    let group = DhGroup::test_256();
    let exps: Vec<_> = (0..64).map(|_| group.random_exponent(&mut rng)).collect();
    let bases: Vec<_> = exps.iter().rev().map(|e| group.exp_g(e)).collect();
    let modexp_ns = per_call_ns(400, |i| {
        black_box(group.exp(black_box(&bases[i % 64]), black_box(&exps[i % 64])));
    });
    let fixed_base_exp_ns = per_call_ns(1000, |i| {
        black_box(group.exp_g(black_box(&exps[i % 64])));
    });

    let suite = SuiteKind::Sim512.shared();
    let payloads: Vec<Vec<u8>> = (0..16)
        .map(|_| (0..SIGN_PAYLOAD).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let sigs: Vec<Vec<u8>> = payloads.iter().map(|p| suite.sign(p)).collect();
    let sign_ns = per_call_ns(5000, |i| {
        black_box(suite.sign(black_box(&payloads[i % 16])));
    });
    let verify_ns = per_call_ns(5000, |i| {
        let ok = suite.verify(black_box(&payloads[i % 16]), black_box(&sigs[i % 16]));
        assert!(ok.is_ok(), "a signature the suite made must verify");
    });

    let delays: Vec<u64> = (0..1024).map(|_| rng.next_u64() % 1_000_000).collect();
    let mut queue: EventQueue<u64> = EventQueue::new();
    for (i, &d) in delays.iter().take(QUEUE_DEPTH).enumerate() {
        queue.schedule_at(SimTime::ZERO + Duration::from_nanos(d), i as u64);
    }
    let queue_ns_per_event = per_call_ns(20_000, |i| {
        let (at, ev) = queue.pop().expect("the queue stays at its depth");
        queue.schedule_at(at + Duration::from_nanos(delays[i % 1024]), black_box(ev));
    });

    let data: Vec<Vec<u8>> = (0..8)
        .map(|_| (0..64).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let parity = fec::encode(&data, 4).expect("8 + 4 shards fit a generation");
    let fec_encode_ns = per_call_ns(2000, |_| {
        black_box(fec::encode(black_box(&data), 4));
    });
    let have: Vec<(usize, &[u8])> = (0..8)
        .filter(|i| ![1, 4, 6].contains(i))
        .map(|i| (i, data[i].as_slice()))
        .chain((0..3).map(|j| (8 + j, parity[j].as_slice())))
        .collect();
    let fec_decode_ns = per_call_ns(2000, |_| {
        let out = fec::decode(8, black_box(&have));
        assert!(out.is_some(), "8 of 12 shards decode a generation");
        black_box(out);
    });

    UnitCosts {
        modexp_ns,
        fixed_base_exp_ns,
        sign_ns,
        verify_ns,
        queue_ns_per_event,
        fec_encode_ns,
        fec_decode_ns,
    }
}
