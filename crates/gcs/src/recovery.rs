//! Loss and loss recovery, behind one narrow API.
//!
//! [`Recovery`] owns the loss process (Bernoulli base rate,
//! Gilbert–Elliott chain, fault-plan bursts), the wire-cost model, the
//! FEC parity policy with its loss estimator and shard buffers, the
//! retransmission request policy with its backoff, and the open
//! loss-recovery windows. Its policies are resolved once from
//! [`GcsConfig`] when the world is built; the engine then only asks:
//! is this copy lost, what does it cost on the wire, how much parity
//! protects a generation, what does an arriving copy or parity shard
//! repair, should this token visit request retransmission, and is an
//! idle visit a no-op. Backoff jitter has its own seeded stream, so
//! arming backoff never perturbs the per-copy loss draws.

use std::collections::BTreeMap;
use std::rc::Rc;

use bytes::Bytes;
use gkap_sim::{Duration, RandomSource, SimTime, SplitMix64};

use crate::config::{GcsConfig, WireGranularity};
use crate::engine::WireMsg;
use crate::loss::GeChain;
use crate::message::Dest;
use crate::{ClientId, DaemonId};

/// Maximum missing sequence numbers a daemon requests per token visit
/// during gap recovery (Spread caps the per-visit retransmission batch
/// so one lossy link cannot monopolise the token). Larger gaps recover
/// over several token rotations; `WorldStats::retransmission_rounds`
/// counts them.
const RECOVERY_BATCH: usize = 32;

/// Smoothing factor of the adaptive per-origin loss estimator (larger
/// = more reactive).
const LOSS_EWMA_ALPHA: f64 = 0.2;

/// One daemon-to-daemon copy.
pub(crate) enum Transfer {
    /// The first transmission of a sequenced message.
    Data(Rc<WireMsg>),
    /// A retransmitted copy of a sequenced message.
    Resend(Rc<WireMsg>),
    /// A parity shard of a fan-out generation.
    Parity(Rc<ParityShard>),
}

/// One parity shard of a FEC-coded fan-out generation in flight
/// between daemons (the messages a daemon sequences within one token
/// visit form one erasure-coding generation; see [`crate::fec`]).
#[derive(Debug)]
pub(crate) struct ParityShard {
    /// First sequence number of the generation.
    first_seq: u64,
    /// Number of data messages in the generation.
    k: usize,
    /// Global shard index within the generation (`k..k + r` for the
    /// parity rows, as [`crate::fec::encode`] numbers them).
    index: usize,
    /// Coded bytes (the generation's maximum record length).
    pub(crate) body: Vec<u8>,
}

/// What one daemon holds of the global sequence: everything up to
/// `contiguous`, plus the out-of-order copies in `received`.
pub(crate) struct Held<'a> {
    pub(crate) contiguous: u64,
    pub(crate) received: &'a BTreeMap<u64, Rc<WireMsg>>,
}

impl Held<'_> {
    fn has(&self, seq: u64) -> bool {
        seq <= self.contiguous || self.received.contains_key(&seq)
    }

    /// The sequence numbers below `next_seq` the daemon is missing, in
    /// order.
    fn missing(&self, next_seq: u64) -> impl Iterator<Item = u64> + '_ {
        ((self.contiguous + 1)..next_seq).filter(|s| !self.received.contains_key(s))
    }

    /// The missing sequence numbers one request round asks for: the
    /// first [`RECOVERY_BATCH`] below `next_seq`.
    pub(crate) fn request_batch(&self, next_seq: u64) -> Vec<u64> {
        self.missing(next_seq).take(RECOVERY_BATCH).collect()
    }
}

/// How many parity shards protect each generation.
#[derive(Clone, Copy, Debug)]
enum Parity {
    /// The same budget for every generation; `0` turns FEC off.
    Fixed(usize),
    /// The worst per-origin loss estimate sets the budget between
    /// `floor` and `ceiling`.
    Adaptive {
        floor: usize,
        ceiling: usize,
        /// A sample above the estimate replaces it instead of blending.
        fast_attack: bool,
    },
}

/// Exponential retransmission backoff with jitter.
struct Backoff {
    base: Duration,
    max: Duration,
    jitter: SplitMix64,
    daemons: Vec<BackoffState>,
}

/// One daemon's backoff state.
#[derive(Default)]
struct BackoffState {
    /// Earliest instant the next request round may fire.
    next_at: SimTime,
    /// Backoff exponent: consecutive request rounds without progress.
    level: u32,
    /// `contiguous` as of the last request round (`None` when no round
    /// is outstanding); progress past it resets the backoff.
    awaiting_since: Option<u64>,
}

/// Parity shards a daemon has buffered for one generation it has not
/// yet fully received.
struct FecGenBuf {
    k: usize,
    shards: BTreeMap<usize, Rc<ParityShard>>,
}

/// The loss process and every loss-recovery mechanism of one world.
pub(crate) struct Recovery {
    /// Bernoulli per-copy loss probability.
    base_rate: f64,
    /// Deterministic per-copy loss stream.
    loss_rng: SplitMix64,
    /// Gilbert–Elliott burst chain (when configured).
    ge_chain: Option<GeChain>,
    /// Temporary loss-rate override from a fault plan: `(rate, until)`.
    loss_burst: Option<(f64, SimTime)>,
    wire_granularity: WireGranularity,
    per_kb: Duration,
    parity: Parity,
    /// `None`: a daemon with a gap requests on every token visit.
    backoff: Option<Backoff>,
    /// Sticky flag: set the first time a data copy is lost or a daemon
    /// crashes, and the arming condition for retransmission requests.
    /// A token-visit gap with no loss ever observed is merely in-flight
    /// traffic and must not trigger spurious requests; a gap after a
    /// loss burst has *ended* must still be recovered.
    losses_observed: bool,
    /// Per-origin EWMA loss estimates over the gaps each daemon
    /// observes at its token visits (updated only under adaptive
    /// parity). The budget follows the *worst* estimate among live
    /// daemons: parity fans out to every peer, so one lossy link must
    /// raise the budget even when seven clean peers observe nothing.
    loss_ewma: BTreeMap<DaemonId, f64>,
    /// Loss instants of copies not yet recovered, keyed by
    /// `(destination daemon, seq)`. First loss wins (a re-lost
    /// retransmission keeps the original instant); the entry is
    /// removed when the daemon finally obtains the message.
    lost_at: BTreeMap<(DaemonId, u64), SimTime>,
    /// Buffered parity shards per incomplete generation, keyed by
    /// `(daemon, first seq of the generation)`. Empty whenever FEC is
    /// off.
    fec_buf: BTreeMap<(DaemonId, u64), FecGenBuf>,
}

impl Recovery {
    /// Resolves the loss and recovery policy of a validated `cfg` for a
    /// ring of `daemons` daemons.
    pub(crate) fn new(cfg: &GcsConfig, daemons: usize) -> Self {
        let parity = if cfg.fec_adaptive {
            Parity::Adaptive {
                floor: cfg.fec_parity,
                ceiling: cfg.fec_parity_max,
                fast_attack: cfg.fec_fast_attack,
            }
        } else {
            Parity::Fixed(cfg.fec_parity)
        };
        let backoff = (cfg.retrans_backoff > Duration::ZERO).then(|| Backoff {
            base: cfg.retrans_backoff,
            max: cfg.retrans_backoff_max,
            // Golden-ratio tweak: a fixed, documented offset giving the
            // jitter stream its own deterministic seed.
            jitter: SplitMix64::new(cfg.loss_seed ^ 0x9E37_79B9_7F4A_7C15),
            daemons: (0..daemons).map(|_| BackoffState::default()).collect(),
        });
        Recovery {
            base_rate: cfg.loss_rate,
            loss_rng: SplitMix64::new(cfg.loss_seed),
            ge_chain: cfg.gilbert.as_ref().map(GeChain::new),
            loss_burst: None,
            wire_granularity: cfg.wire_granularity,
            per_kb: cfg.per_kb,
            parity,
            backoff,
            losses_observed: false,
            loss_ewma: BTreeMap::new(),
            lost_at: BTreeMap::new(),
            fec_buf: BTreeMap::new(),
        }
    }

    /// Overrides the loss probability with `rate` until `until` (see
    /// `SimWorld::set_loss_burst`); replaces any burst in force.
    pub(crate) fn set_loss_burst(&mut self, rate: f64, until: SimTime) {
        self.loss_burst = Some((rate, until));
    }

    /// The loss probability in force at instant `now`.
    ///
    /// Three processes combine via `max`: the Bernoulli base rate, the
    /// Gilbert–Elliott chain's per-state rate (when configured), and a
    /// fault-plan burst while its half-open window
    /// `[start, start + duration)` lasts — at the exact expiry instant
    /// the burst no longer applies. An expired burst is cleared here
    /// (lazily, on the first draw at or past its boundary) so
    /// `loss_burst` never reports a stale window. The chain advances
    /// on its own RNG stream, so configuring it never perturbs the
    /// per-copy loss draws.
    fn loss_rate_at(&mut self, now: SimTime) -> f64 {
        let mut rate = self.base_rate;
        if let Some(ge) = &mut self.ge_chain {
            rate = rate.max(ge.rate_at(now));
        }
        match self.loss_burst {
            Some((burst, until)) if now < until => rate.max(burst),
            Some(_) => {
                self.loss_burst = None;
                rate
            }
            None => rate,
        }
    }

    /// Whether `copy`, sent to daemon `to` at `now`, is lost: one
    /// deterministic draw whenever the rate in force is positive. A
    /// lost data copy opens a recovery window for `(to, seq)`; a lost
    /// data or re-sent copy arms retransmission requests. A lost
    /// parity shard is simply gone: parity is never retransmitted and
    /// never opens a window.
    pub(crate) fn copy_lost(&mut self, now: SimTime, to: DaemonId, copy: &Transfer) -> bool {
        let rate = self.loss_rate_at(now);
        if rate <= 0.0 {
            return false;
        }
        let x = (self.loss_rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if x >= rate {
            return false;
        }
        match copy {
            Transfer::Data(msg) => {
                self.losses_observed = true;
                self.lost_at.entry((to, msg.seq)).or_insert(now);
            }
            Transfer::Resend(_) => self.losses_observed = true,
            Transfer::Parity(_) => {}
        }
        true
    }

    /// Wire time for `len` bytes of payload on any hop. Shared by
    /// data, parity and FIFO paths so coded and plain traffic are
    /// charged identically. At [`WireGranularity::WholeKb`] every
    /// payload rounds up to a whole kilobyte (the historical model,
    /// pinned by the engine goldens); [`WireGranularity::Byte`] charges
    /// `per_kb · len / 1024` rounded up to a nanosecond, so a 40-byte
    /// parity shard costs ~4% of a 1 KB data message instead of 100%.
    pub(crate) fn wire_cost(&self, len: usize) -> Duration {
        match self.wire_granularity {
            WireGranularity::WholeKb => self.per_kb * (len as u64).div_ceil(1024),
            WireGranularity::Byte => Duration::from_nanos(
                self.per_kb
                    .as_nanos()
                    .saturating_mul(len as u64)
                    .div_ceil(1024),
            ),
        }
    }

    /// A crashed daemon leaves recovery: its parity buffers are dropped,
    /// its open windows will never close (only completed recoveries are
    /// attributed), and a crash may have eaten copies, which arms
    /// retransmission requests.
    pub(crate) fn on_crash(&mut self, daemon: DaemonId) {
        self.fec_buf.retain(|&(d, _), _| d != daemon);
        self.lost_at.retain(|&(d, _), _| d != daemon);
        self.losses_observed = true;
    }

    /// `daemon` obtained `seq`: closes its open recovery window, if
    /// one is open, and returns how long it was open. Every lost
    /// copy's window is closed exactly once, by the mechanism that
    /// obtained it.
    pub(crate) fn settle(&mut self, daemon: DaemonId, seq: u64, now: SimTime) -> Option<Duration> {
        self.lost_at.remove(&(daemon, seq)).map(|t0| now.since(t0))
    }

    /// Parity shards to append to a generation of `k` data messages:
    /// the fixed budget, or — under the adaptive policy — the worst
    /// per-origin loss estimate among `alive` daemons, scaled to the
    /// expected losses per generation (doubled for headroom) and
    /// clamped to `[floor, ceiling]`. The worst origin governs because
    /// parity fans out to every peer: covering the lossiest link covers
    /// them all. Always capped so `k + r` fits the code's field.
    pub(crate) fn parity_budget(&self, k: usize, alive: impl Fn(DaemonId) -> bool) -> usize {
        let r = match self.parity {
            Parity::Fixed(r) => r,
            Parity::Adaptive { floor, ceiling, .. } => {
                let worst = self
                    .loss_ewma
                    .iter()
                    .filter(|(&d, _)| alive(d))
                    .map(|(_, &e)| e)
                    .fold(0.0_f64, f64::max);
                let want = (worst * 2.0 * k as f64).ceil() as usize;
                // `GcsConfig::validate` guarantees floor <= ceiling.
                want.clamp(floor, ceiling)
            }
        };
        r.min(crate::fec::MAX_SHARDS.saturating_sub(k))
    }

    /// A parity shard reached `daemon`, which holds `held`. A shard of
    /// a generation the daemon already holds whole is dropped; any
    /// other is buffered. Returns the messages the shard lets the
    /// daemon rebuild (none until the generation decodes).
    pub(crate) fn parity_arrived(
        &mut self,
        daemon: DaemonId,
        shard: Rc<ParityShard>,
        held: &Held<'_>,
        sent: &BTreeMap<u64, Rc<WireMsg>>,
    ) -> Vec<WireMsg> {
        let first = shard.first_seq;
        let k = shard.k;
        if (first..first + k as u64).all(|s| held.has(s)) {
            return Vec::new(); // nothing to repair; drop the shard
        }
        self.fec_buf
            .entry((daemon, first))
            .or_insert_with(|| FecGenBuf {
                k,
                shards: BTreeMap::new(),
            })
            .shards
            .insert(shard.index, shard);
        self.try_repair(daemon, first, held, sent)
    }

    /// A data copy of `seq` reached `daemon` and is already stored in
    /// `held`. A late copy can complete a generation that buffered
    /// parity, so that generation's repair is retried; returns what it
    /// rebuilds.
    pub(crate) fn copy_arrived(
        &mut self,
        daemon: DaemonId,
        seq: u64,
        held: &Held<'_>,
        sent: &BTreeMap<u64, Rc<WireMsg>>,
    ) -> Vec<WireMsg> {
        // Generations are disjoint sequence ranges, so the only one
        // that can contain `seq` is the last to start at or before it.
        let Some((&(_, first), _)) = self
            .fec_buf
            .range((daemon, 0)..=(daemon, seq))
            .next_back()
            .filter(|(&(_, first), buf)| seq < first + buf.k as u64)
        else {
            return Vec::new();
        };
        self.try_repair(daemon, first, held, sent)
    }

    /// Attempts to decode generation `first` at `daemon` from the data
    /// messages it holds plus its buffered parity shards. On success
    /// returns every missing message of the generation and drops the
    /// buffer; a generation already complete is dropped with nothing
    /// to return; otherwise the buffer stays for a later shard or
    /// copy.
    fn try_repair(
        &mut self,
        daemon: DaemonId,
        first: u64,
        held: &Held<'_>,
        sent: &BTreeMap<u64, Rc<WireMsg>>,
    ) -> Vec<WireMsg> {
        let Some(buf) = self.fec_buf.get(&(daemon, first)) else {
            return Vec::new();
        };
        let k = buf.k;
        let missing: Vec<u64> = (first..first + k as u64)
            .filter(|&s| !held.has(s))
            .collect();
        let repaired = if missing.is_empty() {
            Vec::new() // generation complete: drop the buffer below
        } else if buf.shards.len() < missing.len() {
            return Vec::new(); // not yet decodable; keep buffering
        } else {
            match decode_generation(buf, first, &missing, held, sent) {
                Some(out) => out,
                None => return Vec::new(), // leave the buffer for retransmission
            }
        };
        self.fec_buf.remove(&(daemon, first));
        repaired
    }

    /// A token visit at `daemon`, which holds `held` while the ring has
    /// sequenced everything below `next_seq`. Folds the visit into the
    /// loss estimator (adaptive parity only) and returns whether the
    /// daemon requests retransmission of its gap now.
    ///
    /// Requests are armed only once a data copy has actually been
    /// dropped or a daemon has crashed — never by the mere
    /// *possibility* of loss, so runs where every copy happens to
    /// arrive issue no spurious requests for messages in flight.
    /// Without backoff an armed daemon with a gap requests on every
    /// visit; with backoff see [`Backoff::visit`].
    pub(crate) fn visit_requests(
        &mut self,
        daemon: DaemonId,
        now: SimTime,
        held: &Held<'_>,
        next_seq: u64,
    ) -> bool {
        if let Parity::Adaptive { fast_attack, .. } = self.parity {
            self.observe_gap(daemon, held, next_seq, fast_attack);
        }
        if !self.losses_observed || held.contiguous >= next_seq - 1 {
            return false;
        }
        match &mut self.backoff {
            None => true,
            Some(backoff) => backoff.visit(daemon, now, held.contiguous),
        }
    }

    /// Whether an idle token visit (nothing sequenced, no gap) leaves
    /// recovery state unchanged. It decays the visiting daemon's loss
    /// estimate, which is a no-op only while every estimate is zero.
    pub(crate) fn idle_visit_is_noop(&self) -> bool {
        self.loss_ewma.values().all(|&e| e == 0.0)
    }

    /// Folds the gap `daemon` observes at a token visit into *its own*
    /// EWMA loss estimate (the adaptive parity budget follows the worst
    /// estimate; see [`Recovery::parity_budget`]). The per-visit sample
    /// is the missing fraction of the sequence span the token proves to
    /// exist (zero over an empty span). In-flight messages count as
    /// missing, which makes the estimator conservative — it
    /// over-provisions parity rather than under.
    ///
    /// With `fast_attack`, a sample that *raises* the estimate replaces
    /// it outright instead of blending: the very first token visit
    /// inside a burst pushes the estimate to the observed loss
    /// fraction, so the parity budget reacts within one rotation.
    /// Decay back down still follows the EWMA, keeping parity raised
    /// across the quiet gaps inside a burst.
    fn observe_gap(&mut self, daemon: DaemonId, held: &Held<'_>, next_seq: u64, fast_attack: bool) {
        let span = (next_seq - 1).saturating_sub(held.contiguous);
        let sample = if span == 0 {
            0.0
        } else {
            held.missing(next_seq).count() as f64 / span as f64
        };
        let a = LOSS_EWMA_ALPHA;
        let prev = self.loss_ewma.get(&daemon).copied().unwrap_or(0.0);
        let blended = a * sample + (1.0 - a) * prev;
        let next = if fast_attack {
            blended.max(sample)
        } else {
            blended
        };
        self.loss_ewma.insert(daemon, next);
    }
}

impl Backoff {
    /// Whether an armed `daemon` with a gap, at `contiguous`, spends a
    /// request round at `now`.
    ///
    /// A *fresh* gap first arms one backoff window without requesting:
    /// in-flight parity shards (or late copies) get that window to
    /// close the gap locally, so a run whose parity budget covers its
    /// losses spends **zero** request rounds. Only a gap that survives
    /// the window costs a round, and every further no-progress round
    /// doubles the window (capped).
    fn visit(&mut self, daemon: DaemonId, now: SimTime, contiguous: u64) -> bool {
        let Some(st) = self.daemons.get_mut(daemon) else {
            return false;
        };
        if st.awaiting_since.is_some_and(|prev| contiguous > prev) {
            // Progress since the last arm/request: that episode is
            // over. The still-open gap (residual or newly lost) is a
            // fresh episode and re-arms below.
            st.level = 0;
            st.awaiting_since = None;
        }
        let level = if st.awaiting_since.is_none() {
            0 // fresh gap: arm the window, don't spend a round yet
        } else if now < st.next_at {
            return false;
        } else {
            // A full window elapsed with no progress: spend a round.
            st.level = (st.level + 1).min(16);
            st.level
        };
        st.awaiting_since = Some(contiguous);
        st.next_at = now + window(self.base, self.max, &mut self.jitter, level);
        level > 0
    }
}

/// One backoff window at the given exponential level: the full window
/// is `base << level` capped at `max`, then deterministic jitter into
/// `[full/2, full]` from the dedicated stream (decorrelates the ring's
/// request rounds without touching the loss draws).
fn window(base: Duration, max: Duration, jitter: &mut SplitMix64, level: u32) -> Duration {
    let full = base
        .as_nanos()
        .saturating_mul(1u64 << level.min(63))
        .min(max.as_nanos())
        .max(1);
    let u = (jitter.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let half = full / 2;
    Duration::from_nanos(half + ((full - half) as f64 * u) as u64)
}

/// The parity shards of one generation under a budget of `r`: the
/// generation's records erasure-coded into `r` parity rows (none at
/// `r = 0` or for an empty generation).
pub(crate) fn parity_shards(
    generation: &[Rc<WireMsg>],
    r: usize,
) -> impl Iterator<Item = Rc<ParityShard>> {
    let k = generation.len();
    let first_seq = generation.first().map_or(0, |m| m.seq);
    let parity = if r == 0 || k == 0 {
        None
    } else {
        let records: Vec<Vec<u8>> = generation.iter().map(|m| encode_record(m)).collect();
        crate::fec::encode(&records, r)
    };
    parity
        .into_iter()
        .flatten()
        .enumerate()
        .map(move |(j, body)| {
            Rc::new(ParityShard {
                first_seq,
                k,
                index: k + j,
                body,
            })
        })
}

/// Decodes the `missing` messages of generation `first` from what the
/// daemon holds plus `buf`'s parity shards: the held data records are
/// re-serialized (their content is identical to the origin's encoding
/// input), padded to the generation's record length, and the missing
/// points interpolated. `None` if decoding fails or yields a record
/// that is malformed or out of place.
fn decode_generation(
    buf: &FecGenBuf,
    first: u64,
    missing: &[u64],
    held: &Held<'_>,
    sent: &BTreeMap<u64, Rc<WireMsg>>,
) -> Option<Vec<WireMsg>> {
    let k = buf.k;
    let body_len = buf.shards.values().map(|s| s.body.len()).max().unwrap_or(0);
    let mut have: Vec<(usize, Vec<u8>)> = Vec::new();
    for (i, s) in (first..first + k as u64).enumerate() {
        if !held.has(s) {
            continue;
        }
        let Some(msg) = sent.get(&s) else {
            continue;
        };
        let mut rec = encode_record(msg);
        if rec.len() < body_len {
            rec.resize(body_len, 0);
        }
        have.push((i, rec));
    }
    for (&idx, shard) in &buf.shards {
        have.push((idx, shard.body.clone()));
    }
    let refs: Vec<(usize, &[u8])> = have.iter().map(|(i, b)| (*i, b.as_slice())).collect();
    let data = crate::fec::decode(k, &refs)?;
    let mut out = Vec::new();
    for &s in missing {
        let msg = decode_record(data.get((s - first) as usize)?)?;
        if msg.seq != s {
            return None;
        }
        out.push(msg);
    }
    Some(out)
}

/// Serializes a sequenced message into a FEC record. The layout is
/// fixed little-endian so encoding is a pure, deterministic function
/// of the message: seq (8) | sender (8) | view_id (8) | origin (8) |
/// dest tag (1) | dest target (8) | payload_len (8) | payload, where
/// `Dest::All` is tag 0, target 0 and `Dest::One(c)` is tag 1, target `c`.
/// Trailing zero-padding (from the erasure code's common shard
/// length) is ignored by [`decode_record`] via the embedded
/// `payload_len`.
fn encode_record(msg: &WireMsg) -> Vec<u8> {
    let mut rec = Vec::with_capacity(49 + msg.payload.len());
    rec.extend_from_slice(&msg.seq.to_le_bytes());
    rec.extend_from_slice(&(msg.sender as u64).to_le_bytes());
    rec.extend_from_slice(&msg.view_id.to_le_bytes());
    rec.extend_from_slice(&(msg.origin as u64).to_le_bytes());
    let (tag, target) = match msg.dest {
        Dest::All => (0, 0),
        Dest::One(c) => (1, c as u64),
    };
    rec.push(tag);
    rec.extend_from_slice(&target.to_le_bytes());
    rec.extend_from_slice(&(msg.payload.len() as u64).to_le_bytes());
    rec.extend_from_slice(&msg.payload);
    rec
}

/// Reverses [`encode_record`]. `None` on any malformed or truncated
/// record (an interpolation fed bad shards) — the caller falls back
/// to retransmission rather than panicking.
fn decode_record(rec: &[u8]) -> Option<WireMsg> {
    let u64_at = |off: usize| -> Option<u64> {
        rec.get(off..off + 8)?
            .try_into()
            .ok()
            .map(u64::from_le_bytes)
    };
    let seq = u64_at(0)?;
    let sender = u64_at(8)? as ClientId;
    let view_id = u64_at(16)?;
    let origin = u64_at(24)? as DaemonId;
    let dest = match *rec.get(32)? {
        0 => Dest::All,
        1 => Dest::One(u64_at(33)? as ClientId),
        _ => return None,
    };
    let payload_len = u64_at(41)? as usize;
    let payload = rec.get(49..49 + payload_len)?;
    Some(WireMsg {
        seq,
        sender,
        dest,
        view_id,
        payload: Bytes::copy_from_slice(payload),
        origin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;

    fn at_ms(ms: u64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    /// What a daemon that has received nothing holds.
    fn nothing(received: &BTreeMap<u64, Rc<WireMsg>>) -> Held<'_> {
        Held {
            contiguous: 0,
            received,
        }
    }

    #[test]
    fn record_codec_roundtrip() {
        for dest in [Dest::All, Dest::One(0), Dest::One(42)] {
            let msg = WireMsg {
                seq: 42,
                sender: 3,
                dest,
                view_id: 7,
                payload: Bytes::from(vec![9u8, 8, 7, 6, 5]),
                origin: 11,
            };
            let mut rec = encode_record(&msg);
            // Erasure-coded records carry trailing zero-padding up to
            // the generation's common shard length; the codec must see
            // through it.
            rec.resize(rec.len() + 13, 0);
            let back = decode_record(&rec).expect("roundtrip");
            assert_eq!(back.seq, msg.seq);
            assert_eq!(back.sender, msg.sender);
            assert_eq!(back.dest, msg.dest);
            assert_eq!(back.view_id, msg.view_id);
            assert_eq!(back.payload, msg.payload);
            assert_eq!(back.origin, msg.origin);
            rec[32] = 2;
            assert!(decode_record(&rec).is_none(), "unknown dest tag");
        }
        assert!(decode_record(&[1, 2, 3]).is_none(), "truncated record");
    }

    #[test]
    fn burst_window_is_half_open_and_clears_on_expiry() {
        let mut cfg = testbed::lan();
        cfg.loss_rate = 0.0;
        let mut r = Recovery::new(&cfg, 13);
        let until = at_ms(10);
        r.set_loss_burst(0.5, until);
        // One nanosecond before expiry the burst rate applies...
        let just_before = SimTime::from_nanos(until.as_nanos() - 1);
        assert_eq!(r.loss_rate_at(just_before), 0.5);
        assert!(r.loss_burst.is_some(), "burst still active");
        // ...at the exact expiry instant it no longer does (half-open
        // window), and the expired burst is cleared.
        assert_eq!(r.loss_rate_at(until), 0.0);
        assert!(r.loss_burst.is_none(), "expired burst must be cleared");
        // Cleared state is stable: later draws stay on the base rate.
        assert_eq!(r.loss_rate_at(until + Duration::from_millis(1)), 0.0);
    }

    #[test]
    fn burst_combines_with_base_rate_via_max() {
        let mut cfg = testbed::lan();
        cfg.loss_rate = 0.3;
        let mut r = Recovery::new(&cfg, 13);
        // A 0.0-rate burst cannot suppress the configured base rate.
        r.set_loss_burst(0.0, at_ms(5));
        assert_eq!(r.loss_rate_at(SimTime::ZERO), 0.3);
        // A burst above the base rate overrides it while it lasts.
        r.set_loss_burst(0.9, at_ms(5));
        assert_eq!(r.loss_rate_at(SimTime::ZERO), 0.9);
        assert_eq!(r.loss_rate_at(at_ms(5)), 0.3);
    }

    #[test]
    fn overlapping_bursts_last_writer_wins() {
        let mut r = Recovery::new(&testbed::lan(), 13);
        r.set_loss_burst(0.8, at_ms(100));
        // A shorter, milder burst set while the first is active
        // replaces it entirely — including cutting the window short.
        r.set_loss_burst(0.2, at_ms(1));
        assert_eq!(r.loss_rate_at(SimTime::ZERO), 0.2);
        assert_eq!(
            r.loss_rate_at(at_ms(2)),
            0.0,
            "the replaced burst's longer window must not survive"
        );
    }

    #[test]
    fn edge_burst_rates_are_accepted() {
        let mut r = Recovery::new(&testbed::lan(), 13);
        r.set_loss_burst(0.0, at_ms(1));
        assert_eq!(r.loss_rate_at(SimTime::ZERO), 0.0);
        r.set_loss_burst(1.0, at_ms(1));
        assert_eq!(r.loss_rate_at(SimTime::ZERO), 1.0);
    }

    #[test]
    fn parity_budget_respects_floor_ceiling_and_field() {
        let mut cfg = testbed::lan();
        cfg.fec_parity = 2;
        cfg.fec_parity_max = 6;
        cfg.fec_adaptive = true;
        let mut r = Recovery::new(&cfg, 13);
        let all = |_| true;
        // No losses observed yet: the floor applies.
        assert_eq!(r.parity_budget(10, all), 2);
        // A high loss estimate pushes the budget up to the ceiling.
        r.loss_ewma.insert(3, 0.9);
        assert_eq!(r.parity_budget(10, all), 6);
        // A moderate estimate lands between floor and ceiling:
        // ceil(0.2 * 2 * 10) = 4.
        r.loss_ewma.insert(3, 0.2);
        assert_eq!(r.parity_budget(10, all), 4);
        // The field size always caps the total shard count.
        assert_eq!(r.parity_budget(255, all), 1);
    }

    #[test]
    fn parity_budget_follows_worst_live_origin_not_the_average() {
        // Regression: the estimator used to be one global scalar, so a
        // single lossy link among clean peers diluted the sample 8×
        // and starved the budget. The worst live origin must govern.
        let mut cfg = testbed::lan();
        cfg.fec_parity = 0;
        cfg.fec_parity_max = 8;
        cfg.fec_adaptive = true;
        let mut r = Recovery::new(&cfg, 13);
        for clean in 0..7 {
            r.loss_ewma.insert(clean, 0.0);
        }
        r.loss_ewma.insert(7, 0.4);
        // ceil(0.4 * 2 * 10) = 8 — the lossy origin alone sets the
        // budget; the seven clean estimates must not average it down
        // (the old global-scalar fold would have seen ~0.05).
        assert_eq!(r.parity_budget(10, |_| true), 8);
        // A dead daemon's estimate is no longer relevant.
        assert_eq!(r.parity_budget(10, |d| d != 7), 0);
    }

    #[test]
    fn fast_attack_jumps_to_the_sample_within_one_update() {
        // One token visit inside a burst must push the estimate to the
        // observed loss fraction — not alpha-blend its way up.
        let mut cfg = testbed::lan();
        cfg.fec_adaptive = true;
        cfg.fec_fast_attack = true;
        cfg.fec_parity = 0;
        cfg.fec_parity_max = 16;
        let mut r = Recovery::new(&cfg, 13);
        let received = BTreeMap::new();
        // Daemon 3 has seen nothing of a 10-message span.
        r.visit_requests(3, SimTime::ZERO, &nothing(&received), 11);
        assert_eq!(r.loss_ewma.get(&3).copied(), Some(1.0));
        // The very next parity budget reflects the burst: one visit,
        // full reaction (ceil(1.0 * 2 * 5) = 10, inside the ceiling).
        assert_eq!(r.parity_budget(5, |_| true), 10);
        // Decay back down is still gradual (slow-decay EWMA): a clean
        // visit after recovery blends, it does not snap to zero.
        let caught_up = Held {
            contiguous: 10,
            received: &received,
        };
        r.visit_requests(3, SimTime::ZERO, &caught_up, 11);
        let decayed = r.loss_ewma.get(&3).copied().unwrap();
        assert!(
            (decayed - 0.8).abs() < 1e-12,
            "slow decay expected, got {decayed}"
        );
    }

    #[test]
    fn without_fast_attack_the_estimate_blends() {
        let mut cfg = testbed::lan();
        cfg.fec_adaptive = true;
        let mut r = Recovery::new(&cfg, 13);
        let received = BTreeMap::new();
        r.visit_requests(3, SimTime::ZERO, &nothing(&received), 11);
        let e = r.loss_ewma.get(&3).copied().unwrap();
        assert!(
            (e - 0.2).abs() < 1e-12,
            "plain EWMA first sample is alpha * 1.0, got {e}"
        );
    }

    #[test]
    fn gilbert_chain_combines_with_burst_window_via_max() {
        // A fault-plan burst window layered over an active
        // Gilbert–Elliott chain must max-combine while it lasts and, on
        // expiry, fall back to the *chain's* rate at that instant — not
        // to the Bernoulli base.
        let mut cfg = testbed::lan();
        cfg.loss_rate = 0.0;
        cfg.gilbert = Some(crate::GilbertElliott {
            good_loss: 0.05,
            bad_loss: 0.9,
            // Dwells far longer than the probe horizon: the chain is
            // pinned in its good state for the whole test.
            good_dwell: Duration::from_millis(100_000),
            bad_dwell: Duration::from_millis(1),
            seed: 7,
        });
        let mut r = Recovery::new(&cfg, 13);
        assert_eq!(r.loss_rate_at(SimTime::ZERO), 0.05);
        r.set_loss_burst(0.5, at_ms(10));
        // Inside the window the burst dominates the good-state rate.
        assert_eq!(r.loss_rate_at(SimTime::ZERO), 0.5);
        // A burst below the chain's rate cannot suppress it.
        r.set_loss_burst(0.01, at_ms(10));
        assert_eq!(r.loss_rate_at(SimTime::ZERO), 0.05);
        // At expiry the window clears and the chain's rate remains.
        r.set_loss_burst(0.5, at_ms(10));
        assert_eq!(r.loss_rate_at(at_ms(10)), 0.05);
        assert!(r.loss_burst.is_none(), "expired burst must be cleared");
    }

    #[test]
    fn byte_granularity_charges_exact_sizes() {
        let mut cfg = testbed::lan();
        assert_eq!(cfg.per_kb, Duration::from_micros(15));
        let r = Recovery::new(&cfg, 13);
        // Historical default: everything rounds up to a whole KB.
        assert_eq!(r.wire_cost(40), Duration::from_micros(15));
        assert_eq!(r.wire_cost(1024), Duration::from_micros(15));
        assert_eq!(r.wire_cost(1025), Duration::from_micros(30));
        cfg.wire_granularity = WireGranularity::Byte;
        let r = Recovery::new(&cfg, 13);
        // Byte mode: proportional, rounded up to a nanosecond.
        assert_eq!(
            r.wire_cost(40),
            Duration::from_nanos((15_000u64 * 40).div_ceil(1024))
        );
        assert_eq!(r.wire_cost(1024), Duration::from_micros(15));
        assert_eq!(r.wire_cost(0), Duration::ZERO);
        // 2048 bytes costs exactly two KB worth in both modes.
        assert_eq!(r.wire_cost(2048), Duration::from_micros(30));
    }
}
