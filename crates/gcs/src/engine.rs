//! The discrete-event engine: daemons, the token ring, membership, and
//! client scheduling.
//!
//! ## Total order (Agreed service)
//!
//! Daemons form a logical ring ordered by site. A token circulates
//! permanently. On each visit a daemon:
//!
//! 1. sequences and broadcasts up to `flow_control_max_msgs` of its
//!    clients' pending Agreed messages,
//! 2. delivers to its local clients every message proven *stable* —
//!    sequence numbers at or below the all-received-up-to (aru) bound
//!    the token carries from the previous full rotation,
//! 3. folds its own contiguously-received high-water mark into the
//!    token's running minimum, and
//! 4. forwards the token.
//!
//! A message therefore becomes deliverable roughly one-and-a-half token
//! rotations after submission — about 1.3 ms on the paper's LAN and
//! about 310 ms on its WAN, matching §6.1.1/§6.2.1. A sender that just
//! misses the token waits a full rotation (footnote 10 of the paper).
//!
//! ## Membership
//!
//! A membership change (join/leave/partition/merge) runs for
//! `membership_rounds` full token rotations (gathering + agreement);
//! during the following rotation each daemon installs the new view as
//! the token passes it and notifies its local clients. Changes queue
//! FIFO if injected while another is in progress.
//!
//! A world carries exactly one group: every workload builds one world
//! per group, so no group's results depend on another group's traffic.
//!
//! ## Loss and recovery
//!
//! Loss, FEC repair, retransmission backoff and the loss estimator live
//! in [`crate::recovery`]. Every daemon-to-daemon copy — data fan-out,
//! parity fan-out, retransmission — goes through
//! [`SimWorld::send_copy`], which asks that module whether the copy is
//! lost and what it costs on the wire.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use gkap_sim::{CpuScheduler, Duration, EventQueue, SimTime};
use gkap_telemetry::metrics::{Key, Layer};
use gkap_telemetry::{Actor, Event, EventKind, Telemetry};

use crate::client::{Client, ClientCtx, Outgoing};
use crate::config::GcsConfig;
use crate::message::{Delivery, Dest, Service, View, ViewId};
use crate::recovery::{self, Held, ParityShard, Recovery, Transfer};
use crate::{ClientId, DaemonId, GroupId, MachineId};

/// Counters the engine accumulates across a run.
#[derive(Clone, Debug, Default)]
pub struct WorldStats {
    /// Agreed messages sequenced through the token ring.
    pub agreed_messages: u64,
    /// FIFO unicasts sent outside the ring.
    pub fifo_messages: u64,
    /// Completed token rotations.
    pub token_rotations: u64,
    /// Views installed (cluster-wide installs, not per daemon).
    pub views_installed: u64,
    /// Total payload bytes submitted.
    pub payload_bytes: u64,
    /// Daemon-to-daemon message copies lost in transit.
    pub messages_lost: u64,
    /// Retransmissions performed to recover losses.
    pub retransmissions: u64,
    /// Token visits on which a daemon issued at least one
    /// retransmission request (a gap wider than the 32-message
    /// per-visit recovery batch needs several rounds).
    pub retransmission_rounds: u64,
    /// Daemons crashed via fault injection.
    pub daemon_crashes: u64,
    /// Ring reformations performed after crash detection.
    pub ring_reformations: u64,
    /// Parity shard copies dispatched by FEC-coded fan-out generations
    /// (`per-shard × per-peer`, counted whether or not the copy
    /// survives the loss process).
    pub parity_shards_sent: u64,
    /// Data messages reconstructed locally from parity shards by the
    /// FEC layer, without a retransmission round trip.
    pub fec_repairs: u64,
    /// Virtual nanoseconds of completed loss-recovery windows closed
    /// by FEC repair: for every lost copy later reconstructed from
    /// parity, the span from the loss instant to the reconstruction.
    pub fec_repair_recovery_ns: u64,
    /// Virtual nanoseconds of completed loss-recovery windows closed
    /// by retransmission: for every lost copy later recovered by a
    /// re-sent copy, the span from the loss instant to the arrival.
    pub retransmission_recovery_ns: u64,
    /// Parity payload bytes dispatched by FEC-coded fan-out
    /// (`per-shard body × per-peer`, counted whether or not the copy
    /// survives the loss process): the FEC layer's bandwidth overhead,
    /// distinct from the shard *count* in
    /// [`WorldStats::parity_shards_sent`].
    pub parity_bytes_sent: u64,
}

impl WorldStats {
    /// Total completed loss-recovery time in virtual nanoseconds. By
    /// construction exactly the sum of the FEC-repair and
    /// retransmission attributions: every lost copy's recovery window
    /// is closed by exactly one of the two mechanisms.
    pub fn recovery_ns(&self) -> u64 {
        self.fec_repair_recovery_ns + self.retransmission_recovery_ns
    }
}

/// A sequenced Agreed message in flight between daemons.
#[derive(Debug)]
pub(crate) struct WireMsg {
    pub(crate) seq: u64,
    pub(crate) sender: ClientId,
    pub(crate) dest: Dest,
    pub(crate) view_id: ViewId,
    pub(crate) payload: Bytes,
    /// The daemon that sequenced the message (retransmission source).
    pub(crate) origin: DaemonId,
}

/// A client submission waiting at its daemon for the token.
#[derive(Debug)]
struct Submission {
    sender: ClientId,
    dest: Dest,
    view_id: ViewId,
    payload: Bytes,
}

/// Which mechanism closed a loss-recovery window (drives the split
/// attribution in [`WorldStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RecoveryPath {
    FecRepair,
    Retransmission,
}

#[derive(Debug)]
enum Ev {
    /// The token of generation `gen` arrives at `daemon`. Stale
    /// generations (superseded by a ring reformation) are ignored.
    Token { daemon: DaemonId, gen: u64 },
    /// A sequenced Agreed message reaches a daemon.
    DaemonRecv { daemon: DaemonId, msg: Rc<WireMsg> },
    /// A client's send reaches its local daemon.
    ClientSubmit { client: ClientId, out: Outgoing },
    /// A FIFO unicast reaches the daemon of its destination `client`,
    /// ready for local delivery.
    FifoArrive {
        client: ClientId,
        delivery: Delivery,
    },
    /// A message is handed to a client.
    ClientDeliver {
        client: ClientId,
        delivery: Delivery,
    },
    /// A view change is handed to a client.
    ViewDeliver { client: ClientId, view: Rc<View> },
    /// A retransmission request for `seq` reaches `from` (an alive
    /// daemon holding the message), which re-sends it to `to`.
    Retransmit {
        seq: u64,
        to: DaemonId,
        from: DaemonId,
    },
    /// A parity shard of a FEC-coded fan-out generation reaches a
    /// daemon.
    ParityRecv {
        daemon: DaemonId,
        shard: Rc<ParityShard>,
    },
    /// The surviving daemons detect that `daemon` crashed: the ring
    /// reforms, the token regenerates, the dead machine's members are
    /// evicted via a view change.
    CrashDetect { daemon: DaemonId },
    /// A scheduled fault from a [`FaultPlan`] fires.
    Fault { fault: crate::fault::Fault },
}

/// One daemon; daemon `m` runs on machine `m`.
struct DaemonState {
    /// False once the daemon has crashed: it stops sequencing,
    /// delivering and forwarding the token, and the ring reforms
    /// without it after the detection timeout.
    alive: bool,
    pending: VecDeque<Submission>,
    received: BTreeMap<u64, Rc<WireMsg>>,
    /// Highest seq such that this daemon holds all messages `1..=seq`.
    contiguous: u64,
    /// `contiguous` as of this daemon's most recent token visit (the
    /// value it last reported into the token's aru computation).
    reported: u64,
    /// Highest seq delivered to local clients.
    delivered: u64,
}

impl DaemonState {
    /// What this daemon holds of the sequence, as recovery sees it.
    fn held(&self) -> Held<'_> {
        Held {
            contiguous: self.contiguous,
            received: &self.received,
        }
    }
}

struct ClientSlot {
    machine: MachineId,
    handler: Option<Box<dyn Client>>,
    busy_until: SimTime,
    alive: bool,
}

struct PendingChange {
    joined: Vec<ClientId>,
    left: Vec<ClientId>,
}

struct ActiveMembership {
    new_view: Rc<View>,
    /// Ring-head passes remaining before daemons may install.
    rounds_left: u32,
    /// Set once `rounds_left` hits zero: daemons install on token visit.
    installing: bool,
    installed: Vec<bool>,
}

/// The simulated world: topology, daemons, clients, token and clock.
pub struct SimWorld {
    cfg: GcsConfig,
    queue: EventQueue<Ev>,
    daemons: Vec<DaemonState>,
    machines: Vec<CpuScheduler>,
    clients: Vec<ClientSlot>,
    ring: Vec<DaemonId>,
    next_seq: u64,
    /// aru carried by the token: the minimum, over all daemons, of the
    /// contiguous high-water mark each reported at its latest token
    /// visit. Messages at or below it are held by every daemon.
    token_aru: u64,
    /// The one group's currently installed view (its `group` names the
    /// world's group).
    view: Option<Rc<View>>,
    view_history: BTreeMap<ViewId, Rc<View>>,
    next_view_id: ViewId,
    /// Queued membership changes, FIFO.
    pending_changes: VecDeque<PendingChange>,
    /// The in-progress membership protocol.
    active: Option<ActiveMembership>,
    /// Non-token events in flight (quiescence detection).
    outstanding: u64,
    stats: WorldStats,
    /// Every sequenced message (the origin daemons' retransmission
    /// buffers, kept globally for simulation convenience).
    sent_msgs: BTreeMap<u64, Rc<WireMsg>>,
    /// The loss process and every loss-recovery mechanism.
    recovery: Recovery,
    /// Token generation: bumped on every ring reformation so tokens
    /// already in flight at crash detection are invalidated (exactly
    /// one token survives a reformation).
    token_gen: u64,
    /// Virtual instant of the previous completed token rotation, for
    /// the rotation-interval histogram.
    last_rotation_at: Option<SimTime>,
    /// When `true` (the default), [`SimWorld::run_until`] skips whole
    /// idle token rotations analytically instead of dispatching each
    /// hop as an event. Observable state is identical either way; see
    /// [`SimWorld::set_idle_fast_forward`].
    idle_fast_forward: bool,
    /// Telemetry sink (disabled by default; recording never advances
    /// virtual time, so enabling it cannot change simulation results).
    telemetry: Telemetry,
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("now", &self.now())
            .field("clients", &self.clients.len())
            .field("daemons", &self.daemons.len())
            .field("group", &self.view.as_ref().map(|v| v.group))
            .field("view", &self.view.as_ref().map(|v| v.id))
            .finish()
    }
}

impl SimWorld {
    /// Creates a world over the given configuration with no clients.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`GcsConfig::validate`]).
    pub fn new(cfg: GcsConfig) -> Self {
        cfg.validate();
        let machine_count = cfg.topology.machine_count();
        let daemons = (0..machine_count)
            .map(|_| DaemonState {
                alive: true,
                pending: VecDeque::new(),
                received: BTreeMap::new(),
                contiguous: 0,
                reported: 0,
                delivered: 0,
            })
            .collect();
        let machines = (0..machine_count)
            .map(|m| CpuScheduler::new(cfg.topology.machine(m).cores))
            .collect();
        SimWorld {
            ring: (0..machine_count).collect(),
            queue: EventQueue::new(),
            daemons,
            machines,
            clients: Vec::new(),
            next_seq: 1,
            token_aru: 0,
            view: None,
            view_history: BTreeMap::new(),
            next_view_id: 1,
            pending_changes: VecDeque::new(),
            active: None,
            outstanding: 0,
            stats: WorldStats::default(),
            sent_msgs: BTreeMap::new(),
            recovery: Recovery::new(&cfg, machine_count),
            token_gen: 0,
            last_rotation_at: None,
            idle_fast_forward: true,
            telemetry: Telemetry::disabled(),
            cfg,
        }
    }

    /// Attaches an externally-owned telemetry sink (shared with other
    /// layers, e.g. the protocol drivers) so all events land in one
    /// stream.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry sink (disabled unless [`SimWorld::set_telemetry`]
    /// attached an enabled one).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    // ------------------------------------------------------------------
    // Setup and injection API
    // ------------------------------------------------------------------

    /// Adds a client process, assigning it to a machine round-robin
    /// (the paper distributes members uniformly over the 13 machines).
    /// The client is not yet a member of any view.
    pub fn add_client(&mut self, handler: Box<dyn Client>) -> ClientId {
        let machine = self.clients.len() % self.cfg.topology.machine_count();
        self.add_client_on(handler, machine)
    }

    /// Adds a client on a specific machine.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is out of range.
    pub fn add_client_on(&mut self, handler: Box<dyn Client>, machine: MachineId) -> ClientId {
        assert!(
            machine < self.cfg.topology.machine_count(),
            "unknown machine"
        );
        let id = self.clients.len();
        self.clients.push(ClientSlot {
            machine,
            handler: Some(handler),
            busy_until: SimTime::ZERO,
            alive: true,
        });
        id
    }

    /// Installs the initial view containing every added client, at the
    /// current instant and free of membership cost (the group's
    /// bootstrap, which no experiment measures), and starts the token.
    pub fn install_initial_view(&mut self) {
        let members: Vec<ClientId> = (0..self.clients.len()).collect();
        self.install_initial_view_of(members);
    }

    /// Installs an initial view over a subset of clients (group `0`).
    ///
    /// # Panics
    ///
    /// Panics if a view is already installed or `members` is empty.
    pub fn install_initial_view_of(&mut self, members: Vec<ClientId>) {
        self.install_initial_view_in(0, members);
    }

    /// Installs the initial view over a subset of clients, naming the
    /// world's one group `group` (the id its views carry).
    ///
    /// # Panics
    ///
    /// Panics if a view is already installed or `members` is empty.
    pub fn install_initial_view_in(&mut self, group: GroupId, members: Vec<ClientId>) {
        assert!(self.view.is_none(), "initial view already installed");
        assert!(!members.is_empty(), "initial view cannot be empty");
        let view = Rc::new(View {
            id: self.next_view_id,
            group,
            joined: members.clone(),
            members,
            left: Vec::new(),
        });
        self.next_view_id += 1;
        self.adopt_view(&view);
        for &c in &view.members {
            self.schedule(
                self.cfg.client_daemon_delay,
                Ev::ViewDeliver {
                    client: c,
                    view: Rc::clone(&view),
                },
            );
        }
        let gen = self.token_gen;
        self.queue.schedule(
            Duration::ZERO,
            Ev::Token {
                daemon: self.ring[0],
                gen,
            },
        );
    }

    /// Injects a membership change: `joined` clients enter the view,
    /// `left` members leave it. The new view installs after the
    /// membership protocol completes (several token rotations);
    /// changes injected meanwhile queue FIFO.
    ///
    /// # Panics
    ///
    /// Panics if no initial view exists, a joining client is unknown or
    /// already a member, a leaving client is not a member, or a client
    /// is listed twice in `joined` or in `left`.
    pub fn inject_change(&mut self, joined: Vec<ClientId>, left: Vec<ClientId>) {
        // Validate against the membership as it will stand once every
        // queued change has installed.
        assert!(self.view.is_some(), "no initial view installed");
        let members = self.projected_members();
        for (i, &j) in joined.iter().enumerate() {
            assert!(j < self.clients.len(), "unknown client {j}");
            assert!(!members.contains(&j), "client {j} already a member");
            assert!(!joined[..i].contains(&j), "client {j} joins twice");
        }
        for (i, &l) in left.iter().enumerate() {
            assert!(members.contains(&l), "client {l} is not a member");
            assert!(!left[..i].contains(&l), "client {l} leaves twice");
        }
        self.pending_changes
            .push_back(PendingChange { joined, left });
        self.maybe_start_membership();
    }

    /// [`SimWorld::inject_change`] for callers that name the group.
    ///
    /// # Panics
    ///
    /// Panics if `group` is not the world's group, or as
    /// [`SimWorld::inject_change`] does.
    pub fn inject_change_in(&mut self, group: GroupId, joined: Vec<ClientId>, left: Vec<ClientId>) {
        let own = self.view.as_ref().expect("no initial view installed").group;
        assert!(
            group == own,
            "this world carries group {own}, not group {group}"
        );
        self.inject_change(joined, left);
    }

    /// Convenience: one client joins.
    pub fn inject_join(&mut self, client: ClientId) {
        self.inject_change(vec![client], vec![]);
    }

    /// Convenience: one member leaves.
    pub fn inject_leave(&mut self, client: ClientId) {
        self.inject_change(vec![], vec![client]);
    }

    /// Convenience: a partition removes several members at once.
    pub fn inject_partition(&mut self, leaving: Vec<ClientId>) {
        self.inject_change(vec![], leaving);
    }

    /// Convenience: a merge adds several members at once.
    pub fn inject_merge(&mut self, joining: Vec<ClientId>) {
        self.inject_change(joining, vec![]);
    }

    /// The membership as it will stand once the active and every
    /// queued change has installed (empty before any initial view).
    /// Fault injectors consult this to aim joins/leaves at clients
    /// whose membership status is already settled in-flight.
    pub fn projected_members(&self) -> Vec<ClientId> {
        let latest = self
            .active
            .as_ref()
            .map(|a| &a.new_view)
            .or(self.view.as_ref());
        let mut members = latest.map(|v| v.members.clone()).unwrap_or_default();
        for ch in &self.pending_changes {
            members.retain(|m| !ch.left.contains(m));
            members.extend_from_slice(&ch.joined);
        }
        members
    }

    /// Crashes a daemon mid-token-rotation: it stops sequencing and
    /// delivering instantly (pending submissions die with it, and a
    /// token in flight towards it is lost), and its local clients die
    /// with the machine. After
    /// [`GcsConfig::crash_detection_timeout`] the surviving daemons
    /// reform the ring, regenerate the token, and evict the dead
    /// machine's members via a membership change — in-flight messages
    /// that only the dead daemon held are recovered from the
    /// retransmission buffers during subsequent token rotations.
    ///
    /// # Panics
    ///
    /// Panics if `daemon` is out of range or has already crashed.
    pub fn inject_crash(&mut self, daemon: DaemonId) {
        assert!(daemon < self.daemons.len(), "unknown daemon {daemon}");
        assert!(
            self.daemons[daemon].alive,
            "daemon {daemon} already crashed"
        );
        self.daemons[daemon].alive = false;
        self.daemons[daemon].pending.clear();
        self.recovery.on_crash(daemon);
        self.stats.daemon_crashes += 1;
        self.record_fault(Actor::Daemon(daemon), "crash", daemon);
        // The machine died: its client processes die with it.
        for c in 0..self.clients.len() {
            if self.clients[c].machine == daemon {
                self.clients[c].alive = false;
            }
        }
        self.schedule(self.cfg.crash_detection_timeout, Ev::CrashDetect { daemon });
    }

    /// Overrides the copy-loss probability with `rate` for `duration`
    /// of virtual time (the configured `loss_rate` resumes afterwards).
    /// Gaps opened by the burst are recovered by token-driven
    /// retransmission once it ends.
    ///
    /// The burst window is half-open: copies sent in `[now, now +
    /// duration)` see `max(loss_rate, rate)`; a copy sent at exactly
    /// `now + duration` is already back on the base rate. The
    /// effective rate is the *maximum* of burst and base rate, so a
    /// `rate` of `0.0` cannot suppress a configured base loss rate.
    /// Bursts do not stack: setting a new burst while one is active
    /// replaces it entirely — last writer wins, including a shorter or
    /// milder burst cutting a longer one short.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn set_loss_burst(&mut self, rate: f64, duration: Duration) {
        assert!(
            (0.0..=1.0).contains(&rate),
            "burst loss rate must be in [0, 1]"
        );
        let until = self.queue.now() + duration;
        self.recovery.set_loss_burst(rate, until);
        self.record_fault(Actor::World, "loss_burst", (rate * 100.0) as usize);
    }

    /// Schedules every fault in `plan` as a simulation event at its
    /// virtual-time offset from now. Deterministic: the same plan
    /// applied to the same world yields the same run.
    pub fn apply_fault_plan(&mut self, plan: crate::fault::FaultPlan) {
        for planned in plan.faults {
            self.schedule(
                planned.after,
                Ev::Fault {
                    fault: planned.fault,
                },
            );
        }
    }

    /// Whether a daemon is still alive (has not crashed).
    pub fn daemon_alive(&self, daemon: DaemonId) -> bool {
        daemon < self.daemons.len() && self.daemons[daemon].alive
    }

    /// Whether a client process is still alive (its machine has not
    /// crashed).
    pub fn client_alive(&self, client: ClientId) -> bool {
        client < self.clients.len() && self.clients[client].alive
    }

    /// Number of daemons that have not crashed.
    pub fn alive_daemon_count(&self) -> usize {
        self.daemons.iter().filter(|d| d.alive).count()
    }

    /// Current size of the token ring (shrinks on reformation).
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The currently installed view, if any.
    pub fn view(&self) -> Option<&View> {
        self.view.as_deref()
    }

    /// Every view `group` has installed or begun installing, in id
    /// (installation) order — index 0 is the initial view, index `k`
    /// the view produced by the `k`-th membership change. Empty for
    /// any group but the world's own.
    pub fn views_of(&self, group: GroupId) -> Vec<Rc<View>> {
        self.view_history
            .values()
            .filter(|v| v.group == group)
            .cloned()
            .collect()
    }

    /// Whether a membership change is in progress or queued.
    pub fn membership_busy(&self) -> bool {
        self.active.is_some() || !self.pending_changes.is_empty()
    }

    /// Engine counters.
    pub fn stats(&self) -> &WorldStats {
        &self.stats
    }

    /// The machine a client runs on.
    pub fn client_machine(&self, c: ClientId) -> MachineId {
        self.clients[c].machine
    }

    /// The configuration in use.
    pub fn config(&self) -> &GcsConfig {
        &self.cfg
    }

    /// Borrows a client handler, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    pub fn client<T: Client>(&self, id: ClientId) -> &T {
        let handler = self.clients[id]
            .handler
            .as_ref()
            .expect("client handler taken (re-entrant access?)");
        (handler.as_ref() as &dyn std::any::Any)
            .downcast_ref::<T>()
            .expect("client type mismatch")
    }

    /// Mutably borrows a client handler, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the type does not match.
    pub fn client_mut<T: Client>(&mut self, id: ClientId) -> &mut T {
        let handler = self.clients[id]
            .handler
            .as_mut()
            .expect("client handler taken (re-entrant access?)");
        (handler.as_mut() as &mut dyn std::any::Any)
            .downcast_mut::<T>()
            .expect("client type mismatch")
    }

    // ------------------------------------------------------------------
    // Run loop
    // ------------------------------------------------------------------

    /// Processes one event. Returns `false` when the world is
    /// quiescent (only the idle token remains).
    pub fn step(&mut self) -> bool {
        if self.quiescent() {
            return false;
        }
        let Some((_, ev)) = self.queue.pop() else {
            return false;
        };
        if !matches!(ev, Ev::Token { .. }) {
            self.outstanding -= 1;
        }
        self.dispatch(ev);
        true
    }

    /// Runs until no work remains (the token keeps circulating but
    /// nothing else is pending).
    pub fn run_until_quiescent(&mut self) {
        while self.step() {}
    }

    /// Advances virtual time to `t`, processing every event scheduled
    /// at or before it — including idle token circulation, which
    /// [`SimWorld::step`] skips once the world is quiescent. Used by
    /// workload drivers to reach a scheduled injection instant. A `t`
    /// in the past is a no-op.
    ///
    /// Every quiescent stretch the call crosses is fast-forwarded (see
    /// [`SimWorld::set_idle_fast_forward`]), not just one the call
    /// starts in: a driver that injects a change and then runs to a
    /// far target steps the change's drain and skips the idle tail.
    pub fn run_until(&mut self, t: SimTime) {
        loop {
            // `outstanding == 0` is the O(1) half of `quiescent()`.
            if self.outstanding == 0 {
                self.try_fast_forward_idle(t);
            }
            if self.queue.peek_time().is_none_or(|pt| pt > t) {
                break;
            }
            let Some((_, ev)) = self.queue.pop() else {
                break;
            };
            if !matches!(ev, Ev::Token { .. }) {
                self.outstanding -= 1;
            }
            self.dispatch(ev);
        }
    }

    /// Enables or disables the idle-token fast-forward (on by
    /// default). When the world is quiescent, an idle token visit only
    /// performs ring-head bookkeeping and forwards itself, so
    /// [`SimWorld::run_until`] can skip whole rotations analytically
    /// across every quiescent stretch it crosses — the final partial
    /// rotation of each stretch is always stepped, which makes the
    /// clock, stats, and every future event instant identical to the
    /// fully stepped execution. Stretches stay stepped while
    /// telemetry is enabled, and under [`GcsConfig::fec_adaptive`]
    /// while any loss estimate is non-zero (each idle visit decays
    /// it). Disable to force stepping (e.g. when comparing the two
    /// paths).
    pub fn set_idle_fast_forward(&mut self, on: bool) {
        self.idle_fast_forward = on;
    }

    /// Skips whole idle token rotations up to (but never beyond) `t`.
    ///
    /// Applies only in the strictly idle regime: the world is
    /// quiescent, telemetry is off (an enabled sink counts per-event
    /// dispatches, which skipping would under-report), and the queue
    /// holds exactly the one live token. [`SimWorld::run_until`] tries
    /// it whenever nothing but the token is outstanding, so it skips
    /// every quiescent stretch inside the call. A full rotation then
    /// costs `sum(hop + token_processing)` around the ring and its
    /// only effects are `token_rotations` and `last_rotation_at`,
    /// which are replayed analytically; the token event is moved
    /// forward by a whole number of periods so the stepped tail
    /// reproduces the exact event instants of a fully stepped run.
    /// Recovery must agree that an idle visit is a no-op (under
    /// adaptive parity it decays a loss estimate).
    fn try_fast_forward_idle(&mut self, t: SimTime) {
        if !self.idle_fast_forward
            || self.telemetry.is_enabled()
            || !self.recovery.idle_visit_is_noop()
        {
            return;
        }
        if self.queue.len() != 1 || !self.quiescent() {
            return;
        }
        if self.queue.peek_time().is_none_or(|pt| pt > t) {
            return;
        }
        let Some((a0, ev)) = self.queue.pop() else {
            return;
        };
        let Ev::Token { daemon, gen } = ev else {
            self.queue.schedule_at(a0, ev);
            return;
        };
        let put_back = Ev::Token { daemon, gen };
        if gen != self.token_gen || !self.daemons[daemon].alive {
            self.queue.schedule_at(a0, put_back);
            return;
        }
        let Some(pos0) = self.ring.iter().position(|&d| d == daemon) else {
            self.queue.schedule_at(a0, put_back);
            return;
        };
        // One idle rotation starting from `pos0`: per hop the token is
        // held for `token_processing` (nothing is sequenced) and then
        // travels the inter-machine latency. `offset` is the delay
        // from `a0` until the ring head's arrival (zero when the token
        // is already at the head: that arrival is `a0` itself).
        let n = self.ring.len();
        let mut period = Duration::ZERO;
        let mut offset = Duration::ZERO;
        for i in 0..n {
            let p = self.ring[(pos0 + i) % n];
            let q = self.ring[(pos0 + i + 1) % n];
            let hop = self.cfg.topology.machine_latency(p, q);
            period = period + hop + self.cfg.token_processing;
            if (pos0 + i + 1) % n == 0 && pos0 != 0 {
                offset = period;
            }
        }
        if period.as_nanos() == 0 {
            self.queue.schedule_at(a0, put_back);
            return;
        }
        let k = t.since(a0).as_nanos() / period.as_nanos();
        if k == 0 {
            self.queue.schedule_at(a0, put_back);
            return;
        }
        // Head arrivals in `[a0, a0 + k*period)`: exactly `k` of them,
        // at `a0 + offset + j*period` for `j` in `0..k`.
        self.stats.token_rotations += k;
        self.last_rotation_at =
            Some(a0 + offset + Duration::from_nanos((k - 1) * period.as_nanos()));
        self.queue
            .schedule_at(a0 + Duration::from_nanos(k * period.as_nanos()), put_back);
    }

    /// Runs while `pred` returns `true` and work remains. Returns
    /// `true` if the run stopped because the predicate turned false
    /// (as opposed to quiescence).
    pub fn run_while(&mut self, mut pred: impl FnMut(&SimWorld) -> bool) -> bool {
        loop {
            if !pred(self) {
                return true;
            }
            if !self.step() {
                return false;
            }
        }
    }

    /// `true` when nothing but the idle token remains. Crashed daemons
    /// are excluded: they will never deliver again, and the reformed
    /// ring no longer waits on them.
    pub fn quiescent(&self) -> bool {
        self.outstanding == 0 && !self.membership_busy() && self.daemons_drained()
    }

    /// `true` when every alive daemon has sequenced its submissions and
    /// delivered every sequenced message.
    fn daemons_drained(&self) -> bool {
        self.daemons
            .iter()
            .filter(|d| d.alive)
            .all(|d| d.pending.is_empty() && d.delivered == self.next_seq - 1)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Records a fault event at the current instant.
    fn record_fault(&self, actor: Actor, action: &'static str, target: usize) {
        let at = self.queue.now();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor,
            kind: EventKind::Fault { action, target },
        });
    }

    fn schedule(&mut self, delay: Duration, ev: Ev) {
        if !matches!(ev, Ev::Token { .. }) {
            self.outstanding += 1;
        }
        self.queue.schedule(delay, ev);
    }

    fn adopt_view(&mut self, view: &Rc<View>) {
        self.view = Some(Rc::clone(view));
        self.view_history.insert(view.id, Rc::clone(view));
        self.stats.views_installed += 1;
    }

    fn maybe_start_membership(&mut self) {
        if self.active.is_some() {
            return;
        }
        let Some(view) = self.view.clone() else {
            return;
        };
        let Some(change) = self.pending_changes.pop_front() else {
            return;
        };
        let mut members: Vec<ClientId> = view
            .members
            .iter()
            .copied()
            .filter(|m| !change.left.contains(m))
            .collect();
        members.extend_from_slice(&change.joined);
        let new_view = Rc::new(View {
            id: self.next_view_id,
            group: view.group,
            members,
            joined: change.joined,
            left: change.left,
        });
        self.next_view_id += 1;
        self.view_history.insert(new_view.id, Rc::clone(&new_view));
        self.active = Some(ActiveMembership {
            new_view,
            rounds_left: self.cfg.membership_rounds,
            installing: false,
            installed: vec![false; self.daemons.len()],
        });
    }

    /// Stable metric name of an event variant (the sim event loop's
    /// per-kind dispatch counters).
    fn ev_metric_name(ev: &Ev) -> &'static str {
        match ev {
            Ev::Token { .. } => "ev_token",
            Ev::DaemonRecv { .. } => "ev_daemon_recv",
            Ev::ClientSubmit { .. } => "ev_client_submit",
            Ev::FifoArrive { .. } => "ev_fifo_arrive",
            Ev::ClientDeliver { .. } => "ev_client_deliver",
            Ev::ViewDeliver { .. } => "ev_view_deliver",
            Ev::Retransmit { .. } => "ev_retransmit",
            Ev::ParityRecv { .. } => "ev_parity_recv",
            Ev::CrashDetect { .. } => "ev_crash_detect",
            Ev::Fault { .. } => "ev_fault",
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        // Sim-layer event-loop metrics: total dispatches, per-kind
        // dispatches, and the peak of in-flight (non-token) events.
        self.telemetry
            .metric_inc(Key::new(Layer::Sim, "events_dispatched"), 1);
        self.telemetry
            .metric_inc(Key::new(Layer::Sim, Self::ev_metric_name(&ev)), 1);
        let outstanding = self.outstanding;
        self.telemetry
            .gauge_max(Key::new(Layer::Sim, "outstanding_peak"), || {
                outstanding as f64
            });
        match ev {
            Ev::Token { daemon, gen } => self.on_token(daemon, gen),
            Ev::DaemonRecv { daemon, msg } => self.on_daemon_recv(daemon, msg),
            Ev::ClientSubmit { client, out } => self.on_client_submit(client, out),
            Ev::FifoArrive { client, delivery } => self.on_fifo_arrive(client, delivery),
            Ev::ClientDeliver { client, delivery } => self.deliver_to_client(client, delivery),
            Ev::ViewDeliver { client, view } => self.deliver_view_to_client(client, &view),
            Ev::Retransmit { seq, to, from } => self.on_retransmit(seq, to, from),
            Ev::ParityRecv { daemon, shard } => self.on_parity_recv(daemon, shard),
            Ev::CrashDetect { daemon } => self.on_crash_detect(daemon),
            Ev::Fault { fault } => self.on_fault(fault),
        }
    }

    /// Ring reformation, `crash_detection_timeout` after a crash: the
    /// dead daemon leaves the ring, the token regenerates at the ring
    /// head (invalidating any token still in flight), and the dead
    /// machine's members are evicted via a membership change.
    fn on_crash_detect(&mut self, daemon: DaemonId) {
        self.ring.retain(|&d| d != daemon);
        self.stats.ring_reformations += 1;
        self.record_fault(Actor::Daemon(daemon), "crash_detected", daemon);
        self.token_gen += 1;
        if let Some(&head) = self.ring.first() {
            let gen = self.token_gen;
            self.queue
                .schedule(Duration::ZERO, Ev::Token { daemon: head, gen });
        }
        // The dead daemon can never install a pending view; a
        // membership waiting only on it completes now.
        self.check_membership_complete();
        // Its members leave via a view change (if a view exists yet).
        let lost: Vec<ClientId> = self
            .projected_members()
            .into_iter()
            .filter(|&c| self.clients[c].machine == daemon)
            .collect();
        if !lost.is_empty() {
            self.inject_change(vec![], lost);
        }
    }

    /// Executes one scheduled fault from a [`crate::FaultPlan`]. Faults
    /// that no longer apply (daemon already dead, members already
    /// gone/present) degrade to no-ops so randomized plans stay valid;
    /// a member listed twice moves once.
    fn on_fault(&mut self, fault: crate::fault::Fault) {
        use crate::fault::Fault;
        match fault {
            Fault::Crash { daemon } => {
                if daemon < self.daemons.len() && self.daemons[daemon].alive {
                    self.inject_crash(daemon);
                }
            }
            Fault::LossBurst { rate, duration } => self.set_loss_burst(rate, duration),
            Fault::Partition { members } => {
                let current = self.projected_members();
                let leaving =
                    first_occurrences(members.into_iter().filter(|m| current.contains(m)));
                if !leaving.is_empty() {
                    self.record_fault(Actor::World, "partition", leaving.len());
                    self.inject_partition(leaving);
                }
            }
            Fault::Heal { members } => {
                let current = self.projected_members();
                let joining = first_occurrences(members.into_iter().filter(|&m| {
                    m < self.clients.len()
                        && !current.contains(&m)
                        && self.daemons[self.clients[m].machine].alive
                }));
                if !joining.is_empty() {
                    self.record_fault(Actor::World, "heal", joining.len());
                    self.inject_merge(joining);
                }
            }
        }
    }

    fn on_token(&mut self, daemon_id: DaemonId, gen: u64) {
        // A stale token (superseded by a ring reformation) or a token
        // reaching a crashed daemon vanishes; crash detection
        // regenerates exactly one replacement.
        if gen != self.token_gen || !self.daemons[daemon_id].alive {
            return;
        }

        // Rotation boundary bookkeeping at the ring head.
        if self.ring.first() == Some(&daemon_id) {
            self.stats.token_rotations += 1;
            let rotation = self.stats.token_rotations;
            let at = self.queue.now();
            self.telemetry.record(|| Event {
                at,
                dur: Duration::ZERO,
                actor: Actor::Daemon(daemon_id),
                kind: EventKind::TokenRotation { rotation },
            });
            if let Some(prev) = self.last_rotation_at {
                self.telemetry
                    .metric_observe(Key::new(Layer::Gcs, "token_rotation_ms"), || {
                        at.since(prev).as_millis_f64()
                    });
            }
            self.last_rotation_at = Some(at);
            // View-synchrony flush: the new view may only install once
            // every message sent in the old view has been delivered
            // everywhere (Spread flushes before installing a view).
            // Without this, a message of epoch E could arrive after a
            // member entered epoch E+1 and be discarded — breaking
            // cascaded membership changes.
            let flushed = self.outstanding == 0 && self.daemons_drained();
            // The membership protocol's rounds are token rotations:
            // each ring-head pass advances it by one.
            if let Some(active) = &mut self.active {
                if !active.installing {
                    if active.rounds_left > 0 {
                        active.rounds_left -= 1;
                    }
                    if active.rounds_left == 0 && flushed {
                        active.installing = true;
                    }
                }
            }
        }

        // 1. Sequence and broadcast pending submissions (flow control).
        //    The messages sequenced in one visit form one FEC
        //    generation (step 1a fans out its parity shards).
        let mut sent = 0usize;
        let mut generation: Vec<Rc<WireMsg>> = Vec::new();
        while sent < self.cfg.flow_control_max_msgs {
            let Some(sub) = self.daemons[daemon_id].pending.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            let msg = Rc::new(WireMsg {
                seq,
                sender: sub.sender,
                dest: sub.dest,
                view_id: sub.view_id,
                payload: sub.payload,
                origin: daemon_id,
            });
            self.stats.agreed_messages += 1;
            let at = self.queue.now();
            let sender = msg.sender;
            self.telemetry.record(|| Event {
                at,
                dur: Duration::ZERO,
                actor: Actor::Daemon(daemon_id),
                kind: EventKind::Sequenced { seq, sender },
            });
            self.sent_msgs.insert(seq, Rc::clone(&msg));
            // The sender's daemon holds its own message instantly.
            self.store_at_daemon(daemon_id, Rc::clone(&msg));
            for peer in 0..self.daemons.len() {
                if peer != daemon_id && self.daemons[peer].alive {
                    self.send_copy(daemon_id, peer, Transfer::Data(Rc::clone(&msg)));
                }
            }
            generation.push(msg);
            sent += 1;
        }

        // 1a. FEC parity fan-out over this visit's generation: with a
        //     parity budget of `r`, every peer can reconstruct up to
        //     `r` lost data messages locally instead of waiting whole
        //     token rotations for retransmission. Skipped entirely at
        //     budget 0 (no extra RNG draws, no extra events — the
        //     `r = 0` engine is byte-identical to the pre-FEC one).
        if !generation.is_empty() {
            let daemons = &self.daemons;
            let r = self
                .recovery
                .parity_budget(generation.len(), |d| daemons[d].alive);
            for shard in recovery::parity_shards(&generation, r) {
                self.fan_out_parity(daemon_id, &shard);
            }
        }
        // Flow-control metrics: how much this token visit sequenced,
        // and how much the budget deferred to the next rotation (the
        // paper's footnote-10 wait is exactly this backlog).
        if sent > 0 {
            self.telemetry
                .metric_inc(Key::new(Layer::Gcs, "flow_sequenced"), sent as u64);
            self.telemetry
                .metric_observe(Key::new(Layer::Gcs, "flow_sent_per_visit"), || sent as f64);
        }
        let backlog = self.daemons[daemon_id].pending.len();
        if backlog > 0 {
            self.telemetry
                .metric_inc(Key::new(Layer::Gcs, "flow_deferred"), backlog as u64);
            self.telemetry
                .gauge_max(Key::new(Layer::Gcs, "flow_backlog_peak"), || backlog as f64);
        }

        // 1b. Request retransmission of any gap this daemon observes
        //     (the token reveals that higher sequence numbers exist —
        //     Totem-style negative acknowledgement), when recovery's
        //     request policy says so.
        let now = self.queue.now();
        let held = self.daemons[daemon_id].held();
        if self
            .recovery
            .visit_requests(daemon_id, now, &held, self.next_seq)
        {
            self.request_missing(daemon_id);
        }

        // 2. Report our contiguous mark and recompute the aru (the
        //    minimum over every alive daemon's latest report).
        self.daemons[daemon_id].reported = self.daemons[daemon_id].contiguous;
        self.recompute_aru();

        // 3. Deliver stable messages to local clients.
        self.deliver_stable(daemon_id);

        // 4. Install the pending view once its membership protocol is
        //    done.
        if let Some(active) = &mut self.active {
            if active.installing && !active.installed[daemon_id] {
                active.installed[daemon_id] = true;
                let view = Rc::clone(&active.new_view);
                self.install_view_at_daemon(daemon_id, &view);
            }
        }

        // 5. Forward the token to the ring successor. (A daemon that
        //    crashed between dispatch and here has already returned
        //    above; one removed from the ring at detection no longer
        //    receives tokens of the current generation.)
        let Some(pos) = self.ring.iter().position(|&d| d == daemon_id) else {
            return;
        };
        let next = self.ring[(pos + 1) % self.ring.len()];
        let hop = self.cfg.topology.machine_latency(daemon_id, next);
        let hold = self.cfg.token_processing + self.cfg.per_message_processing * sent as u64;
        self.queue
            .schedule(hop + hold, Ev::Token { daemon: next, gen });
    }

    /// Recomputes the token's aru over the alive daemons. When every
    /// daemon has crashed there is no ring left to agree on stability:
    /// the aru is left untouched — a graceful no-op instead of a panic
    /// on the empty minimum.
    fn recompute_aru(&mut self) {
        if let Some(min) = self
            .daemons
            .iter()
            .filter(|d| d.alive)
            .map(|d| d.reported)
            .min()
        {
            self.token_aru = min;
        }
    }

    /// Sends one daemon-to-daemon copy. Recovery draws whether it is
    /// lost; a surviving copy arrives after the hop latency, its wire
    /// time and the receiver's per-message processing. Lost data and
    /// re-sent copies count in [`WorldStats::messages_lost`]; a lost
    /// parity shard is simply gone.
    fn send_copy(&mut self, from: DaemonId, to: DaemonId, copy: Transfer) {
        if self.recovery.copy_lost(self.queue.now(), to, &copy) {
            if !matches!(copy, Transfer::Parity(_)) {
                self.stats.messages_lost += 1;
            }
            return;
        }
        let (len, ev) = match copy {
            Transfer::Data(msg) | Transfer::Resend(msg) => {
                (msg.payload.len(), Ev::DaemonRecv { daemon: to, msg })
            }
            Transfer::Parity(shard) => (shard.body.len(), Ev::ParityRecv { daemon: to, shard }),
        };
        let delay = self.cfg.topology.machine_latency(from, to)
            + self.recovery.wire_cost(len)
            + self.cfg.per_message_processing;
        self.schedule(delay, ev);
    }

    /// An alive daemon able to re-send `seq` to `requester`: the origin
    /// if it survives, otherwise any other surviving ring member (the
    /// retransmission buffers are global — every daemon that received
    /// the message can source it).
    fn retransmit_source(&self, origin: DaemonId, requester: DaemonId) -> Option<DaemonId> {
        if self.daemons[origin].alive {
            return Some(origin);
        }
        self.ring
            .iter()
            .copied()
            .find(|&d| d != requester && self.daemons[d].alive)
    }

    /// Ask retransmission sources to re-send one request batch of the
    /// messages this daemon is missing below the global high-water
    /// mark. Wider gaps recover over several token visits; each visit
    /// that issues at least one request counts as one retransmission
    /// round.
    fn request_missing(&mut self, daemon: DaemonId) {
        let missing = self.daemons[daemon].held().request_batch(self.next_seq);
        let mut requested = 0u64;
        for seq in missing {
            let Some(msg) = self.sent_msgs.get(&seq).map(Rc::clone) else {
                continue;
            };
            if msg.origin == daemon {
                continue;
            }
            let Some(source) = self.retransmit_source(msg.origin, daemon) else {
                // Sole survivor: nobody is left to recover from, so
                // synthesize the copy from the global buffer (in a
                // real deployment the reformation would drop the
                // message from the order; the simulation keeps the
                // order intact for determinism).
                self.settle_recovery(daemon, seq, RecoveryPath::Retransmission);
                self.store_at_daemon(daemon, msg);
                requested += 1;
                continue;
            };
            // Request travels to the source; it re-sends from there.
            let latency = self.cfg.topology.machine_latency(daemon, source);
            self.schedule(
                latency + self.cfg.per_message_processing,
                Ev::Retransmit {
                    seq,
                    to: daemon,
                    from: source,
                },
            );
            requested += 1;
        }
        if requested > 0 {
            self.stats.retransmission_rounds += 1;
        }
    }

    fn on_retransmit(&mut self, seq: u64, to: DaemonId, from: DaemonId) {
        if self.daemons[to].received.contains_key(&seq) {
            return; // already recovered meanwhile
        }
        if !self.daemons[to].alive {
            return; // requester crashed while the request was in flight
        }
        if !self.daemons[from].alive {
            return; // source crashed; the next token visit re-requests
        }
        let Some(msg) = self.sent_msgs.get(&seq).cloned() else {
            return;
        };
        self.stats.retransmissions += 1;
        let at = self.queue.now();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::Daemon(to),
            kind: EventKind::Retransmit { seq },
        });
        // The re-sent copy can be lost as well; the next token visit
        // re-requests it. The recovery window keeps running from the
        // *first* loss of the copy.
        self.send_copy(from, to, Transfer::Resend(msg));
    }

    /// Closes the open loss-recovery window of `(daemon, seq)` — if
    /// one is open — attributing the elapsed virtual time to `path`.
    /// Every lost copy's window is closed by exactly one path, so the
    /// two attribution buckets sum exactly to the total recovery time
    /// ([`WorldStats::recovery_ns`]).
    fn settle_recovery(&mut self, daemon: DaemonId, seq: u64, path: RecoveryPath) {
        let Some(dt) = self.recovery.settle(daemon, seq, self.queue.now()) else {
            return;
        };
        match path {
            RecoveryPath::FecRepair => {
                self.stats.fec_repair_recovery_ns += dt.as_nanos();
                self.telemetry
                    .metric_observe(Key::new(Layer::Gcs, "fec_repair_ms"), || dt.as_millis_f64());
            }
            RecoveryPath::Retransmission => {
                self.stats.retransmission_recovery_ns += dt.as_nanos();
                self.telemetry
                    .metric_observe(Key::new(Layer::Gcs, "retransmission_ms"), || {
                        dt.as_millis_f64()
                    });
            }
        }
    }

    /// Broadcasts one parity shard of this token visit's generation to
    /// every other alive daemon. Parity copies ride the same loss
    /// process as data copies and count as sent whether or not they
    /// survive it.
    fn fan_out_parity(&mut self, origin: DaemonId, shard: &Rc<ParityShard>) {
        let len = shard.body.len() as u64;
        for peer in 0..self.daemons.len() {
            if peer == origin || !self.daemons[peer].alive {
                continue;
            }
            self.stats.parity_shards_sent += 1;
            self.stats.parity_bytes_sent += len;
            self.telemetry
                .metric_inc(Key::new(Layer::Gcs, "parity_bytes_sent"), len);
            self.send_copy(origin, peer, Transfer::Parity(Rc::clone(shard)));
        }
    }

    fn on_parity_recv(&mut self, daemon: DaemonId, shard: Rc<ParityShard>) {
        if !self.daemons[daemon].alive {
            return; // the shard arrived at a crashed daemon
        }
        let held = self.daemons[daemon].held();
        let repaired = self
            .recovery
            .parity_arrived(daemon, shard, &held, &self.sent_msgs);
        self.store_repaired(daemon, repaired);
    }

    /// Stores the messages FEC rebuilt at `daemon`, attributing each
    /// one's recovery window to FEC repair.
    fn store_repaired(&mut self, daemon: DaemonId, repaired: Vec<WireMsg>) {
        let at = self.queue.now();
        for msg in repaired {
            self.stats.fec_repairs += 1;
            let seq = msg.seq;
            self.telemetry.record(|| Event {
                at,
                dur: Duration::ZERO,
                actor: Actor::Daemon(daemon),
                kind: EventKind::FecRepair { seq },
            });
            self.settle_recovery(daemon, seq, RecoveryPath::FecRepair);
            self.store_at_daemon(daemon, Rc::new(msg));
        }
    }

    fn store_at_daemon(&mut self, daemon: DaemonId, msg: Rc<WireMsg>) {
        let d = &mut self.daemons[daemon];
        d.received.insert(msg.seq, msg);
        while d.received.contains_key(&(d.contiguous + 1)) {
            d.contiguous += 1;
        }
    }

    fn on_daemon_recv(&mut self, daemon: DaemonId, msg: Rc<WireMsg>) {
        if !self.daemons[daemon].alive {
            return; // the copy arrived at a crashed daemon
        }
        let seq = msg.seq;
        // A copy whose first transmission was lost arrives here only
        // via retransmission — close the recovery window into the
        // retransmission bucket.
        self.settle_recovery(daemon, seq, RecoveryPath::Retransmission);
        self.store_at_daemon(daemon, msg);
        // A late-arriving data copy can complete a generation that
        // already buffered parity: re-try the repair so the buffer
        // drains as soon as it becomes decodable.
        let held = self.daemons[daemon].held();
        let repaired = self
            .recovery
            .copy_arrived(daemon, seq, &held, &self.sent_msgs);
        self.store_repaired(daemon, repaired);
    }

    /// Delivers every received message with `seq <= token_aru` to this
    /// daemon's local clients.
    fn deliver_stable(&mut self, daemon: DaemonId) {
        let upto = self.token_aru.min(self.daemons[daemon].contiguous);
        while self.daemons[daemon].delivered < upto {
            let seq = self.daemons[daemon].delivered + 1;
            let Some(msg) = self.daemons[daemon].received.remove(&seq) else {
                break;
            };
            self.daemons[daemon].delivered = seq;
            self.deliver_wire_msg(daemon, &msg);
        }
    }

    fn deliver_wire_msg(&mut self, daemon: DaemonId, msg: &WireMsg) {
        let Some(view) = self.view_history.get(&msg.view_id) else {
            return;
        };
        let members = view.members.clone();
        let targets: Vec<ClientId> = members
            .into_iter()
            .filter(|&c| self.clients[c].machine == daemon && self.clients[c].alive)
            .filter(|&c| match msg.dest {
                Dest::All => true,
                Dest::One(t) => t == c,
            })
            .collect();
        for c in targets {
            let delivery = Delivery {
                sender: msg.sender,
                service: Service::Agreed,
                dest: msg.dest,
                view_id: msg.view_id,
                payload: msg.payload.clone(),
            };
            self.schedule(
                self.cfg.client_daemon_delay,
                Ev::ClientDeliver {
                    client: c,
                    delivery,
                },
            );
        }
    }

    fn on_client_submit(&mut self, client: ClientId, out: Outgoing) {
        let machine = self.clients[client].machine;
        if !self.clients[client].alive || !self.daemons[machine].alive {
            return; // the client or its daemon died while this was in flight
        }
        // View-synchrony: the message belongs to the view its sender
        // had installed at send time (not the engine's global view,
        // which flips only once every daemon has installed).
        let view_id = out.view_id;
        self.stats.payload_bytes += out.payload.len() as u64;
        match out.service {
            Service::Agreed => {
                self.daemons[machine].pending.push_back(Submission {
                    sender: client,
                    dest: out.dest,
                    view_id,
                    payload: out.payload,
                });
            }
            Service::Fifo => {
                // FIFO is unicast only: `unicast_fifo` is its one sender.
                let Dest::One(target) = out.dest else {
                    return;
                };
                self.stats.fifo_messages += 1;
                let latency = self
                    .cfg
                    .topology
                    .machine_latency(machine, self.clients[target].machine)
                    + self.recovery.wire_cost(out.payload.len())
                    + self.cfg.per_message_processing;
                let delivery = Delivery {
                    sender: client,
                    service: Service::Fifo,
                    dest: out.dest,
                    view_id,
                    payload: out.payload,
                };
                self.schedule(
                    latency,
                    Ev::FifoArrive {
                        client: target,
                        delivery,
                    },
                );
            }
        }
    }

    fn on_fifo_arrive(&mut self, client: ClientId, delivery: Delivery) {
        if self.clients[client].alive {
            self.schedule(
                self.cfg.client_daemon_delay,
                Ev::ClientDeliver { client, delivery },
            );
        }
    }

    fn install_view_at_daemon(&mut self, daemon: DaemonId, view: &Rc<View>) {
        let at = self.queue.now();
        let view_id = view.id;
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::Daemon(daemon),
            kind: EventKind::ViewInstalled { view_id },
        });
        // Per-member installation processing at the daemon.
        let install_cost = self.cfg.membership_per_member * view.members.len() as u64;
        // Members on this machine receive the view.
        let locals: Vec<ClientId> = view
            .members
            .iter()
            .copied()
            .filter(|&c| self.clients[c].machine == daemon)
            .collect();
        for c in locals {
            self.clients[c].alive = true;
            self.schedule(
                install_cost + self.cfg.client_daemon_delay,
                Ev::ViewDeliver {
                    client: c,
                    view: Rc::clone(view),
                },
            );
        }
        // Members that left and live on this machine go silent.
        for &l in &view.left {
            if self.clients[l].machine == daemon {
                self.clients[l].alive = false;
            }
        }
        self.check_membership_complete();
    }

    /// Cluster-wide membership completion: the new view is adopted
    /// once every *alive* daemon has installed it (a crashed daemon
    /// never will, and the reformed ring does not wait on it).
    fn check_membership_complete(&mut self) {
        let daemons = &self.daemons;
        let done = self.active.take_if(|a| {
            a.installed
                .iter()
                .zip(daemons)
                .all(|(&installed, d)| installed || !d.alive)
        });
        if let Some(active) = done {
            self.adopt_view(&active.new_view);
            self.maybe_start_membership();
        }
    }

    fn deliver_view_to_client(&mut self, client: ClientId, view: &Rc<View>) {
        if self.clients[client].alive {
            self.run_handler(client, view.id, |h, ctx| h.on_view(ctx, view));
        }
    }

    fn deliver_to_client(&mut self, client: ClientId, delivery: Delivery) {
        if !self.clients[client].alive {
            return;
        }
        let at = self.queue.now();
        let sender = delivery.sender;
        let service = delivery.service.as_str();
        self.telemetry.record(|| Event {
            at,
            dur: Duration::ZERO,
            actor: Actor::Client(client),
            kind: EventKind::Delivered { sender, service },
        });
        self.run_handler(client, delivery.view_id, |h, ctx| {
            h.on_message(ctx, &delivery)
        });
    }

    /// Runs one handler of `client` in view `view_id`, starting once
    /// the client's previous handler is done; applies its CPU charge,
    /// reports the true completion instant back to the client, and
    /// schedules its sends.
    fn run_handler(
        &mut self,
        client: ClientId,
        view_id: ViewId,
        handle: impl FnOnce(&mut dyn Client, &mut ClientCtx<'_>),
    ) {
        let Some(mut handler) = self.clients[client].handler.take() else {
            return;
        };
        let machine = self.clients[client].machine;
        let start = self.queue.now().max(self.clients[client].busy_until);
        let speed = self.cfg.topology.machine(machine).speed;
        let mut ctx = ClientCtx::new(client, start, view_id, speed);
        handle(handler.as_mut(), &mut ctx);
        let run = self.machines[machine].run_detailed(start, ctx.charged);
        let end = run.end;
        if ctx.charged > Duration::ZERO {
            self.telemetry.record(|| Event {
                at: run.begin,
                dur: run.end.since(run.begin),
                actor: Actor::Client(client),
                kind: EventKind::HandlerSpan {
                    wait: run.begin.since(start),
                },
            });
        }
        self.clients[client].busy_until = end;
        handler.on_cpu_complete(end);
        self.clients[client].handler = Some(handler);
        let submit_delay = end.since(self.queue.now()) + self.cfg.client_daemon_delay;
        for out in ctx.outgoing {
            self.schedule(submit_delay, Ev::ClientSubmit { client, out });
        }
    }
}

/// `ids` without repeats: each id stays at its first occurrence.
fn first_occurrences(ids: impl Iterator<Item = ClientId>) -> Vec<ClientId> {
    let mut out = Vec::new();
    for id in ids {
        if !out.contains(&id) {
            out.push(id);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed;

    /// Multicasts one Agreed message per view install.
    struct Chatty;

    impl Client for Chatty {
        fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
            ctx.multicast_agreed(vec![1u8, 2, 3]);
        }

        fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {}
    }

    #[test]
    fn run_until_skips_the_idle_stretch_after_a_change_drains() {
        // The workload-driver pattern: inject a change, then run far
        // past its drain. Stepped, the 10 s stretch is ~15k lan
        // rotations of 13 token hops each; fast-forwarded, only the
        // drain and one partial rotation are dispatched.
        let run = |fast_forward: bool| {
            let mut w = SimWorld::new(testbed::lan());
            w.set_idle_fast_forward(fast_forward);
            for _ in 0..6 {
                w.add_client(Box::new(Chatty));
            }
            w.install_initial_view_of((0..5).collect());
            w.run_until_quiescent();
            let t0 = w.now();
            w.inject_change(vec![5], vec![]);
            let before = w.queue.delivered();
            w.run_until(t0 + Duration::from_millis(10_000));
            assert!(w.quiescent());
            (
                w.queue.delivered() - before,
                w.stats.token_rotations,
                w.last_rotation_at,
                w.now(),
            )
        };
        let (fast_events, fast_rotations, fast_last, fast_now) = run(true);
        let (slow_events, slow_rotations, slow_last, slow_now) = run(false);
        assert_eq!(fast_rotations, slow_rotations, "rotation count is exact");
        assert_eq!(fast_last, slow_last, "last rotation instant is exact");
        assert_eq!(fast_now, slow_now, "clock is exact");
        assert!(
            slow_events > 150_000,
            "stepping dispatches every hop: {slow_events}"
        );
        assert!(
            fast_events < 500,
            "the idle stretch must be skipped: {fast_events} events"
        );
    }

    #[test]
    #[should_panic(expected = "burst loss rate")]
    fn out_of_range_burst_rate_rejected() {
        let mut w = SimWorld::new(testbed::lan());
        w.set_loss_burst(1.5, Duration::from_millis(1));
    }
}
