//! Cross-layer telemetry for the simulated group key agreement stack.
//!
//! Every quantity in this crate is keyed by **virtual** time
//! ([`gkap_sim::SimTime`]): recording an event never advances the
//! simulation clock, so an instrumented run produces bit-identical
//! results to an uninstrumented one. The paper's analysis (§6)
//! repeatedly decomposes total join/leave latency into membership
//! time, key-agreement rounds and cryptographic compute; the
//! [`Event`] stream captured here is exactly the evidence needed to
//! reproduce that decomposition for any simulated run.
//!
//! # Architecture
//!
//! * [`Telemetry`] is a cheaply-cloneable handle that is **disabled by
//!   default**. When disabled, every record call is a single `Option`
//!   check on a `None` — no event is constructed (all recording APIs
//!   take closures), no allocation happens, and virtual time is
//!   untouched.
//! * When enabled, the handle shares a [`Recorder`] holding the event
//!   log and a typed [`metrics::MetricsHub`] (counters, gauges and
//!   log-linear histograms keyed by [`metrics::Key`]).
//! * [`jsonl`] renders the captured stream as one JSON object per line
//!   — the schema is documented on [`jsonl::event_to_json`].
//!
//! The simulation is single-threaded (a discrete-event loop), so the
//! shared state is `Rc<RefCell<…>>`, not a lock.
//!
//! # Span taxonomy
//!
//! | kind | layer | meaning |
//! |------|-------|---------|
//! | `MembershipEvent` | harness | membership change injected / completed |
//! | `ProtocolRound` | protocol driver | a numbered round of a GKA protocol started by a member |
//! | `CryptoOp` | crypto suite | one charged primitive (modexp, sign, …) with its virtual duration |
//! | `TokenRotation` | GCS engine | the ring token completed a full rotation |
//! | `Retransmit` | GCS engine | a daemon answered a missed-sequence retransmission request |
//! | `FecRepair` | GCS engine | a daemon reconstructed a missing message from FEC parity shards |
//! | `Sequenced` | GCS engine | a message obtained its Agreed-order sequence number |
//! | `Delivered` | GCS engine | a payload was delivered to a client |
//! | `ViewInstalled` | GCS engine | a daemon installed a membership view |
//! | `HandlerSpan` | CPU model | a client handler occupied a core (`dur`), after queueing (`wait`) |
//! | `MessageSend` | protocol driver | a protocol message entered the transport |
//! | `Fault` | chaos layer | a fault-injection or recovery action (crash, heal, restart, abort) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::RefCell;
use std::rc::Rc;

use gkap_sim::{Duration, SimTime};

pub mod jsonl;
pub mod metrics;

use metrics::{Key, Layer, MetricsHub};

/// Which component produced an event. Plain indices (not the `gkap-gcs`
/// id aliases) so this crate stays at the bottom of the dependency
/// stack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Actor {
    /// The experiment harness itself.
    World,
    /// A client (group member process), by client id.
    Client(usize),
    /// A GCS daemon, by daemon id.
    Daemon(usize),
    /// A machine (CPU model), by machine id.
    Machine(usize),
}

/// The cryptographic primitive charged by the cost model. Mirrors the
/// fields of `OpCounts` in `gkap-core` one-to-one so telemetry tallies
/// can be reconciled against the paper's Table 1 operation counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum CryptoOpKind {
    /// Full-width modular exponentiation.
    Exp,
    /// Short-exponent modular exponentiation (e.g. RSA verify).
    SmallExp,
    /// Modular multiplication.
    ModMul,
    /// Modular inversion of an exponent.
    Inverse,
    /// Digital signature generation.
    Sign,
    /// Signature verification.
    Verify,
    /// Symmetric crypto / hashing work, per block.
    Symmetric,
    /// Per-message receive bookkeeping charged by the session layer.
    RecvOverhead,
}

impl CryptoOpKind {
    /// Stable lowercase name used in JSONL output and metric keys.
    pub fn as_str(self) -> &'static str {
        match self {
            CryptoOpKind::Exp => "exp",
            CryptoOpKind::SmallExp => "small_exp",
            CryptoOpKind::ModMul => "modmul",
            CryptoOpKind::Inverse => "inverse",
            CryptoOpKind::Sign => "sign",
            CryptoOpKind::Verify => "verify",
            CryptoOpKind::Symmetric => "symmetric",
            CryptoOpKind::RecvOverhead => "recv_overhead",
        }
    }
}

/// Transport class of a protocol message send (reconciles against the
/// `multicast`/`unicast` message counts of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendClass {
    /// Agreed- or FIFO-ordered multicast to the group.
    Multicast,
    /// Point-to-point message.
    Unicast,
}

impl SendClass {
    /// Stable lowercase name used in JSONL output and metric keys.
    pub fn as_str(self) -> &'static str {
        match self {
            SendClass::Multicast => "multicast",
            SendClass::Unicast => "unicast",
        }
    }
}

/// Structured payload of one telemetry event. See the module docs for
/// the taxonomy table.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// A membership change: `action` is e.g. `"inject_join"`,
    /// `"key_established"`; `group_size` the resulting group size.
    MembershipEvent {
        /// What happened (stable snake_case label).
        action: &'static str,
        /// Group size after the change.
        group_size: usize,
    },
    /// A member started round `round` of `protocol`.
    ProtocolRound {
        /// Protocol name (`"GDH"`, `"TGDH"`, …).
        protocol: &'static str,
        /// 1-based round number within the current membership event.
        round: u32,
    },
    /// A charged cryptographic primitive; the event's `dur` is the
    /// virtual CPU time the cost model charged for it.
    CryptoOp {
        /// Which primitive.
        op: CryptoOpKind,
        /// Modulus size in bits (0 where not applicable).
        bits: u32,
    },
    /// The ring token completed a full rotation.
    TokenRotation {
        /// Rotation ordinal since simulation start.
        rotation: u64,
    },
    /// A retransmission of sequence `seq` was sent to a daemon that
    /// missed it.
    Retransmit {
        /// The Agreed sequence number being retransmitted.
        seq: u64,
    },
    /// A daemon reconstructed a missing message locally from the
    /// parity shards of its FEC-coded fan-out generation, without a
    /// retransmission round trip.
    FecRepair {
        /// The Agreed sequence number reconstructed.
        seq: u64,
    },
    /// A message obtained Agreed sequence number `seq`.
    Sequenced {
        /// The assigned sequence number.
        seq: u64,
        /// The sending client.
        sender: usize,
    },
    /// A payload was delivered to the actor client.
    Delivered {
        /// The original sender.
        sender: usize,
        /// Service class name (`"agreed"`, `"fifo"`, …).
        service: &'static str,
    },
    /// A daemon installed a view.
    ViewInstalled {
        /// Monotonic view identifier.
        view_id: u64,
    },
    /// A client handler occupied a CPU core for `dur`, having waited
    /// `wait` in the scheduler queue after becoming ready.
    HandlerSpan {
        /// Time spent queued behind other work on the machine.
        wait: Duration,
    },
    /// A protocol message entered the transport.
    MessageSend {
        /// Multicast or unicast.
        class: SendClass,
    },
    /// A fault-injection or recovery action from the chaos layer.
    ///
    /// `action` is a stable snake_case label: `"crash"` (a daemon
    /// died), `"crash_detected"` (ring reformed, token regenerated),
    /// `"loss_burst"` (temporary loss-rate override began), `"heal"`
    /// (partitioned members rejoined), `"restart"` (a member restarted
    /// an aborted agreement), `"abort"` (a view superseded an
    /// in-flight agreement), `"give_up"` (restart budget exhausted).
    Fault {
        /// What happened (stable snake_case label).
        action: &'static str,
        /// The affected entity (daemon id, client id, or group size —
        /// whichever the action concerns).
        target: usize,
    },
}

impl EventKind {
    /// Stable snake_case discriminant name (JSONL `kind` field).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::MembershipEvent { .. } => "membership",
            EventKind::ProtocolRound { .. } => "protocol_round",
            EventKind::CryptoOp { .. } => "crypto_op",
            EventKind::TokenRotation { .. } => "token_rotation",
            EventKind::Retransmit { .. } => "retransmit",
            EventKind::FecRepair { .. } => "fec_repair",
            EventKind::Sequenced { .. } => "sequenced",
            EventKind::Delivered { .. } => "delivered",
            EventKind::ViewInstalled { .. } => "view_installed",
            EventKind::HandlerSpan { .. } => "handler_span",
            EventKind::MessageSend { .. } => "message_send",
            EventKind::Fault { .. } => "fault",
        }
    }
}

/// One recorded event/span. `dur` is zero for instantaneous events; for
/// spans (`CryptoOp`, `HandlerSpan`) `at` is the span start and
/// `at + dur` the end, all in virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Virtual start time.
    pub at: SimTime,
    /// Virtual duration (zero for point events).
    pub dur: Duration,
    /// Producing component.
    pub actor: Actor,
    /// Structured payload.
    pub kind: EventKind,
}

/// Owner of the captured event log and metrics. Usually accessed
/// through a [`Telemetry`] handle.
#[derive(Clone, Debug, Default)]
pub struct Recorder {
    events: Vec<Event>,
    hub: MetricsHub,
}

impl Recorder {
    /// Appends an event and bumps the per-kind counters and
    /// histograms that every event maintains automatically in the
    /// [`metrics::MetricsHub`] (run manifests, `bench-diff`).
    pub fn push(&mut self, ev: Event) {
        match &ev.kind {
            EventKind::CryptoOp { op, .. } => {
                let key = Key::new(Layer::Crypto, op.as_str());
                self.hub.inc(key, 1);
                self.hub.observe(key, ev.dur.as_millis_f64());
            }
            EventKind::MessageSend { class } => {
                self.hub.inc(Key::new(Layer::Protocol, class.as_str()), 1);
            }
            EventKind::ProtocolRound { protocol, .. } => {
                self.hub
                    .inc(Key::new(Layer::Protocol, "rounds").protocol(protocol), 1);
            }
            EventKind::TokenRotation { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "token_rotation"), 1);
            }
            EventKind::Retransmit { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "retransmit"), 1);
            }
            EventKind::FecRepair { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "fec_repair"), 1);
            }
            EventKind::Sequenced { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "sequenced"), 1);
            }
            EventKind::Delivered { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "delivered"), 1);
            }
            EventKind::ViewInstalled { .. } => {
                self.hub.inc(Key::new(Layer::Gcs, "view_installed"), 1);
            }
            EventKind::HandlerSpan { wait } => {
                self.hub
                    .observe(Key::new(Layer::Sim, "busy_ms"), ev.dur.as_millis_f64());
                self.hub
                    .observe(Key::new(Layer::Sim, "wait_ms"), wait.as_millis_f64());
            }
            EventKind::MembershipEvent { action, .. } => {
                let key = Key::new(Layer::Harness, action);
                self.hub.inc(key, 1);
                if ev.dur > Duration::ZERO {
                    self.hub.observe(key, ev.dur.as_millis_f64());
                }
            }
            EventKind::Fault { action, .. } => {
                self.hub.inc(Key::new(Layer::Gcs, action), 1);
            }
        }
        self.events.push(ev);
    }

    /// The captured events, in recording order (which is nondecreasing
    /// in `at` because the simulation processes events in time order).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The typed metrics hub.
    pub fn hub(&self) -> &MetricsHub {
        &self.hub
    }

    /// Mutable access to the typed metrics hub.
    pub fn hub_mut(&mut self) -> &mut MetricsHub {
        &mut self.hub
    }
}

/// Cheap handle to a shared [`Recorder`]; `None` means disabled.
///
/// All recording goes through closures so that a disabled handle does
/// no work beyond one branch:
///
/// ```
/// use gkap_telemetry::{Actor, Event, EventKind, Telemetry};
/// use gkap_sim::{Duration, SimTime};
///
/// let off = Telemetry::disabled();
/// off.record(|| unreachable!("closure never runs when disabled"));
///
/// let on = Telemetry::enabled();
/// on.record(|| Event {
///     at: SimTime::ZERO,
///     dur: Duration::ZERO,
///     actor: Actor::World,
///     kind: EventKind::TokenRotation { rotation: 1 },
/// });
/// assert_eq!(on.with(|r| r.events().len()), Some(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Rc<RefCell<Recorder>>>,
}

impl Telemetry {
    /// A disabled handle (the default): recording is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A fresh enabled handle with an empty recorder.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Rc::new(RefCell::new(Recorder::default()))),
        }
    }

    /// Whether events are being captured.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the event produced by `f` — `f` only runs when enabled.
    #[inline]
    pub fn record(&self, f: impl FnOnce() -> Event) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().push(f());
        }
    }

    /// Runs `f` against the recorder when enabled, returning its result.
    pub fn with<R>(&self, f: impl FnOnce(&Recorder) -> R) -> Option<R> {
        self.inner.as_ref().map(|rec| f(&rec.borrow()))
    }

    /// Runs `f` with mutable recorder access when enabled.
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
        self.inner.as_ref().map(|rec| f(&mut rec.borrow_mut()))
    }

    /// Clones the captured events (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.with(|r| r.events().to_vec()).unwrap_or_default()
    }

    /// Adds `by` to a typed counter. [`Key`] construction is
    /// allocation-free, so callers build keys unconditionally; a
    /// disabled handle pays one branch.
    #[inline]
    pub fn metric_inc(&self, key: Key, by: u64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().hub.inc(key, by);
        }
    }

    /// Records the sample produced by `f` into a typed histogram —
    /// `f` only runs when enabled.
    #[inline]
    pub fn metric_observe(&self, key: Key, f: impl FnOnce() -> f64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().hub.observe(key, f());
        }
    }

    /// Raises a typed gauge to the value produced by `f` (peak
    /// tracking) — `f` only runs when enabled.
    #[inline]
    pub fn gauge_max(&self, key: Key, f: impl FnOnce() -> f64) {
        if let Some(rec) = &self.inner {
            rec.borrow_mut().hub.gauge_max(key, f());
        }
    }

    /// Current value of a typed counter (zero when disabled or absent).
    pub fn counter(&self, key: Key) -> u64 {
        self.with(|r| r.hub.counter(key)).unwrap_or(0)
    }

    /// Clones the typed metrics hub (empty when disabled).
    pub fn hub_snapshot(&self) -> MetricsHub {
        self.with(|r| r.hub.clone()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ms: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::ZERO + Duration::from_millis(at_ms),
            dur: Duration::from_micros(250),
            actor: Actor::Client(3),
            kind,
        }
    }

    #[test]
    fn disabled_handle_never_runs_closures() {
        let t = Telemetry::disabled();
        t.record(|| panic!("must not run"));
        assert!(!t.is_enabled());
        assert!(t.events().is_empty());
        assert_eq!(t.counter(Key::new(Layer::Crypto, "exp")), 0);
    }

    #[test]
    fn enabled_handle_shares_one_recorder() {
        let t = Telemetry::enabled();
        let clone = t.clone();
        clone.record(|| {
            ev(
                1,
                EventKind::CryptoOp {
                    op: CryptoOpKind::Exp,
                    bits: 512,
                },
            )
        });
        t.record(|| {
            ev(
                2,
                EventKind::CryptoOp {
                    op: CryptoOpKind::Exp,
                    bits: 512,
                },
            )
        });
        let exp = Key::new(Layer::Crypto, "exp");
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.counter(exp), 2);
        // The auto-histogram observed both durations.
        t.with(|r| {
            let h = r.hub().histogram(exp).expect("histogram");
            assert_eq!(h.count(), 2);
        })
        .unwrap();
    }

    #[test]
    fn per_kind_counters_accumulate() {
        let t = Telemetry::enabled();
        t.record(|| ev(0, EventKind::TokenRotation { rotation: 1 }));
        t.record(|| ev(1, EventKind::Retransmit { seq: 9 }));
        t.record(|| ev(1, EventKind::FecRepair { seq: 10 }));
        t.record(|| ev(1, EventKind::Sequenced { seq: 9, sender: 0 }));
        t.record(|| {
            ev(
                2,
                EventKind::MessageSend {
                    class: SendClass::Unicast,
                },
            )
        });
        assert_eq!(t.counter(Key::new(Layer::Gcs, "token_rotation")), 1);
        assert_eq!(t.counter(Key::new(Layer::Gcs, "retransmit")), 1);
        assert_eq!(t.counter(Key::new(Layer::Gcs, "fec_repair")), 1);
        assert_eq!(t.counter(Key::new(Layer::Gcs, "sequenced")), 1);
        assert_eq!(t.counter(Key::new(Layer::Protocol, "unicast")), 1);
        assert_eq!(t.counter(Key::new(Layer::Protocol, "multicast")), 0);
    }
}
