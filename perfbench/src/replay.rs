//! The traced replay: every unit re-run through the public `SimWorld`
//! and `SecureMember` API, each member wrapped in a [`Timed`] client,
//! with host time taken at the calls into each layer.
//!
//! A replay mirrors the library function it stands for step by step,
//! and must return the very output that function returns; the caller
//! compares the two before it reports a single number.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use gkap_bench::loss_sweep::{self, BurstRow, SweepMode, SweepRow, BURST_BAD_PCTS, BURST_ROTS};
use gkap_bignum::stats::{self as kernel_stats, KernelOps};
use gkap_core::batch::MembershipBatch;
use gkap_core::experiment::{EventOutcome, SuiteKind};
use gkap_core::protocols::ProtocolKind;
use gkap_core::scale::GroupOutcome;
use gkap_core::{AgreementPhase, OpCounts, SecureMember};
use gkap_gcs::{
    testbed, Client, ClientCtx, ClientId, Delivery, GcsConfig, GilbertElliott, SimWorld, View,
    WireGranularity, WorldStats,
};
use gkap_sim::{Duration, SimTime};
use gkap_telemetry::metrics::MetricsHub;
use gkap_telemetry::Telemetry;

use crate::workload::{Output, ScaleInput, Setup, Sweep, Units};

/// Host-time accumulators of one traced pass, in nanoseconds.
#[derive(Debug, Default)]
pub struct Clock {
    /// Inclusive time inside `SecureMember::on_view`/`on_message`.
    pub handler_ns: Cell<u64>,
    /// Handler invocations.
    pub handler_calls: Cell<u64>,
    /// Time inside the engine's run calls, net of handler time.
    pub engine_self_ns: Cell<u64>,
    /// Time building worlds (`SimWorld::new`, members, initial view),
    /// net of handler time.
    pub world_build_ns: Cell<u64>,
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

/// Times the calls a replay makes into each layer. An untimed tracer
/// runs the same code with no clock reads.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    clock: Option<Rc<Clock>>,
}

impl Tracer {
    /// A tracer that takes host time at every layer boundary.
    pub fn timed() -> Tracer {
        Tracer {
            clock: Some(Rc::new(Clock::default())),
        }
    }

    /// A tracer that only replays.
    pub fn untimed() -> Tracer {
        Tracer { clock: None }
    }

    /// The accumulated times (zero for an untimed tracer).
    pub fn clock(&self) -> Rc<Clock> {
        self.clock.clone().unwrap_or_default()
    }

    fn wrap(&self, inner: SecureMember) -> Box<dyn Client> {
        Box::new(Timed {
            inner,
            clock: self.clock.clone(),
        })
    }

    fn engine<R>(&self, f: impl FnOnce() -> R) -> R {
        self.bracket(f, |c| &c.engine_self_ns)
    }

    fn build<R>(&self, f: impl FnOnce() -> R) -> R {
        self.bracket(f, |c| &c.world_build_ns)
    }

    /// Runs `f`, charging its host time net of the handler time inside
    /// it to `slot`.
    fn bracket<R>(&self, f: impl FnOnce() -> R, slot: impl Fn(&Clock) -> &Cell<u64>) -> R {
        let Some(clock) = &self.clock else {
            return f();
        };
        let inside = clock.handler_ns.get();
        let t = Instant::now();
        let r = f();
        let total = t.elapsed().as_nanos() as u64;
        let handlers = clock.handler_ns.get() - inside;
        add(slot(clock), total.saturating_sub(handlers));
        r
    }
}

/// A member wrapped so that host time inside its handlers is measured.
/// The engine sees an ordinary [`Client`]; the simulation is unchanged.
#[derive(Debug)]
pub struct Timed {
    /// The wrapped member.
    pub inner: SecureMember,
    clock: Option<Rc<Clock>>,
}

impl Timed {
    fn handle(&mut self, f: impl FnOnce(&mut SecureMember)) {
        match &self.clock {
            Some(clock) => {
                let t = Instant::now();
                f(&mut self.inner);
                add(&clock.handler_ns, t.elapsed().as_nanos() as u64);
                add(&clock.handler_calls, 1);
            }
            None => f(&mut self.inner),
        }
    }
}

impl Client for Timed {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.handle(|m| m.on_view(ctx, view));
    }

    fn on_message(&mut self, ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        self.handle(|m| m.on_message(ctx, msg));
    }

    fn on_cpu_complete(&mut self, end: SimTime) {
        self.inner.on_cpu_complete(end);
    }
}

fn member(world: &SimWorld, c: ClientId) -> &SecureMember {
    &world.client::<Timed>(c).inner
}

/// Deterministic work one replayed unit did, summed over its world.
#[derive(Debug, Default, Clone)]
pub struct UnitWork {
    /// Member operation counts, formation included.
    pub ops: OpCounts,
    /// Engine counters.
    pub stats: WorldStats,
    /// Virtual nanoseconds the world simulated.
    pub virtual_ns: u64,
    /// Telemetry events recorded (zero with telemetry off).
    pub events: u64,
}

impl UnitWork {
    fn of(world: &SimWorld, clients: impl Iterator<Item = ClientId>) -> UnitWork {
        let mut ops = OpCounts::default();
        for c in clients {
            ops.add(member(world, c).counts());
        }
        UnitWork {
            ops,
            stats: world.stats().clone(),
            virtual_ns: world.now().as_nanos(),
            events: world
                .telemetry()
                .with(|r| r.events().len() as u64)
                .unwrap_or(0),
        }
    }
}

/// Replays unit `i` of `setup`. `telemetry` switches the event
/// recorder on; only the loss sweep, which has no telemetry option of
/// its own, is replayed that way.
pub fn replay(setup: &Setup, i: usize, tr: &Tracer, telemetry: bool) -> (Output, Vec<UnitWork>) {
    match &setup.units {
        Units::Join(cells) => {
            let (p, size, seed) = cells[i];
            let (out, work) = replay_join(p, seed, size, tr);
            (Output::Join(out), vec![work])
        }
        Units::Scale { opts, inputs } => {
            let (out, work) = replay_group(&inputs[i / opts.groups], i % opts.groups, tr);
            (Output::Group(out), vec![work])
        }
        Units::Lossy(units) => {
            let (seed, p, sweep) = units[i];
            replay_sweep(seed, p, sweep, tr, telemetry)
        }
    }
}

/// `experiment::run_join`: a group of `n - 1` admits one more member.
fn replay_join(p: ProtocolKind, seed: u64, n: usize, tr: &Tracer) -> (EventOutcome, UnitWork) {
    let cfg = Setup::join_config(p, seed);
    let suite = cfg.suite.shared();
    let mut world = tr.build(|| {
        let mut world = SimWorld::new(cfg.gcs.clone());
        world.set_telemetry(Telemetry::disabled());
        for i in 0..n {
            let mut m = SecureMember::new(
                cfg.protocol,
                Rc::clone(&suite),
                cfg.seed ^ ((i as u64 + 1) * 0x9e37_79b9),
                Some(cfg.seed),
            );
            m.set_key_confirmation(cfg.confirm_keys);
            world.add_client(tr.wrap(m));
        }
        world.install_initial_view_of((0..n - 1).collect());
        world
    });
    tr.engine(|| world.run_until_quiescent());

    let wait_for: Vec<ClientId> = (0..n).collect();
    let target = world.view().expect("initial view installed").id + 1;
    let before: Vec<OpCounts> = wait_for
        .iter()
        .map(|&c| *member(&world, c).counts())
        .collect();
    let inject = world.now();
    let complete = |w: &SimWorld| {
        wait_for
            .iter()
            .all(|&c| member(w, c).completion(target).is_some())
    };
    tr.engine(|| {
        world.inject_change(vec![n - 1], vec![]);
        world.run_while(|w| !complete(w));
    });
    let done = complete(&world);

    let mut counts = OpCounts::default();
    for (k, &c) in wait_for.iter().enumerate() {
        counts.add(&member(&world, c).counts().since(&before[k]));
    }
    let mut last_key = SimTime::ZERO;
    let mut last_view = SimTime::ZERO;
    let mut agree = done;
    let mut secret = None;
    for &c in &wait_for {
        let m = member(&world, c);
        agree &= m.protocol_error().is_none();
        if let Some(t) = m.completion(target) {
            last_key = last_key.max(t);
        }
        if let Some(t) = m.view_time(target) {
            last_view = last_view.max(t);
        }
        match (m.secret(target), &secret) {
            (Some(s), None) => secret = Some(s.clone()),
            (Some(s), Some(prev)) => agree &= s == prev,
            (None, _) => agree = false,
        }
    }
    let out = EventOutcome {
        ok: agree,
        elapsed_ms: last_key.as_millis_f64() - inject.as_millis_f64(),
        membership_ms: last_view.as_millis_f64() - inject.as_millis_f64(),
        counts,
        size_after: wait_for.len(),
    };
    let work = UnitWork::of(&world, 0..n);
    (out, work)
}

/// `scale::run_shard` for a single group on its own ring.
fn replay_group(input: &ScaleInput, group: usize, tr: &Tracer) -> (GroupOutcome, UnitWork) {
    let cfg = &input.cfg;
    let clients: Vec<ClientId> = (0..input.schedule.client_group.len())
        .filter(|&c| input.schedule.client_group[c] == group)
        .collect();
    let batches: Vec<&MembershipBatch> =
        input.batches.iter().filter(|b| b.group == group).collect();

    let suite = cfg.suite.shared();
    let kernel_before = kernel_stats::snapshot();
    let telemetry = Telemetry::disabled();
    let machines = cfg.gcs.topology.machine_count();
    let local = |c: ClientId| clients.binary_search(&c).ok();
    let to_local = |ids: &[ClientId]| ids.iter().filter_map(|&c| local(c)).collect::<Vec<_>>();
    let mut world = tr.build(|| {
        let mut world = SimWorld::new(cfg.gcs.clone());
        world.set_telemetry(telemetry.clone());
        for &c in &clients {
            let mut m = SecureMember::new(
                cfg.protocol,
                Rc::clone(&suite),
                cfg.seed ^ ((c as u64 + 1).wrapping_mul(0x9e37_79b9)),
                Some(cfg.seed ^ ((group as u64 + 1).wrapping_mul(0xa5a5_a5a5))),
            );
            m.set_telemetry(telemetry.clone());
            world.add_client_on(tr.wrap(m), c % machines);
        }
        let base: Vec<ClientId> = (group * cfg.group_size..(group + 1) * cfg.group_size)
            .filter_map(local)
            .collect();
        world.install_initial_view_in(group, base);
        world
    });
    tr.engine(|| world.run_until_quiescent());
    let t0 = world.now();

    let mut injected_at = Vec::with_capacity(batches.len());
    for batch in &batches {
        tr.engine(|| {
            world.run_until(t0 + batch.flush_at);
            injected_at.push(world.now());
            world.inject_change_in(group, to_local(&batch.joined), to_local(&batch.left));
        });
    }
    tr.engine(|| world.run_until_quiescent());
    let elapsed = world.now().since(t0);

    let mut out = GroupOutcome {
        group,
        t0,
        elapsed,
        rekeys: 0,
        superseded: 0,
        rekey_ms: Vec::new(),
        transport_ms: Vec::new(),
        agreement_ms: Vec::new(),
        ok: true,
        kernel_ops: KernelOps::default(),
        hub: MetricsHub::new(),
        events: Vec::new(),
    };
    let views = world.views_of(group);
    for (k, at) in injected_at.iter().enumerate() {
        let Some(view) = views.get(k + 1) else {
            out.superseded += 1;
            continue;
        };
        let mut last_view = SimTime::ZERO;
        let mut last_key = SimTime::ZERO;
        let mut complete = true;
        for &m in &view.members {
            let m = member(&world, m);
            match m.completion(view.id) {
                Some(t) => last_key = last_key.max(t),
                None => complete = false,
            }
            if let Some(t) = m.view_time(view.id) {
                last_view = last_view.max(t);
            }
        }
        if !complete {
            out.superseded += 1;
            continue;
        }
        out.rekeys += 1;
        out.rekey_ms.push(last_key.since(*at).as_millis_f64());
        out.transport_ms.push(last_view.since(*at).as_millis_f64());
        out.agreement_ms
            .push(last_key.since(last_view).as_millis_f64());
    }
    match views.last() {
        Some(view) => {
            for &m in &view.members {
                let m = member(&world, m);
                if m.completion(view.id).is_none() || m.protocol_error().is_some() {
                    out.ok = false;
                }
            }
        }
        None => out.ok = false,
    }
    out.kernel_ops = kernel_stats::snapshot().since(&kernel_before);
    out.hub = telemetry.hub_snapshot();
    out.events = telemetry.events();
    let work = UnitWork::of(&world, 0..clients.len());
    (out, work)
}

/// The cells of one protocol's sweep, in the library's row order.
fn sweep_cells(sweep: Sweep) -> Vec<(&'static str, u32, u32, SweepMode)> {
    let mut cells = Vec::new();
    for net in ["lan", "wan"] {
        match sweep {
            Sweep::Bernoulli => {
                for pct in loss_sweep::LOSS_PCTS {
                    for mode in [SweepMode::Retrans, SweepMode::Fec] {
                        cells.push((net, 0, pct, mode));
                    }
                }
            }
            Sweep::Burst => {
                for rot in BURST_ROTS {
                    for pct in BURST_BAD_PCTS {
                        for mode in [SweepMode::Retrans, SweepMode::Fec] {
                            cells.push((net, rot, pct, mode));
                        }
                    }
                }
            }
        }
    }
    cells
}

/// The engine configuration of a sweep cell, as `loss_sweep` builds it.
fn cell_config(
    net: &str,
    rot: u32,
    pct: u32,
    mode: SweepMode,
    p: ProtocolKind,
    seed: u64,
    sweep: Sweep,
) -> GcsConfig {
    let mut cfg = if net == "lan" {
        testbed::lan()
    } else {
        testbed::wan()
    };
    let net_salt = if net == "lan" {
        0
    } else {
        0x57a4_17ab_1e55_ed01
    };
    let proto_salt = (p as u64).wrapping_mul(0x85eb_ca6b_c2b2_ae35);
    match sweep {
        Sweep::Bernoulli => {
            cfg.loss_rate = f64::from(pct) / 100.0;
            cfg.loss_seed =
                seed ^ (pct as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ proto_salt ^ net_salt;
            if mode == SweepMode::Fec {
                cfg.fec_parity = loss_sweep::parity_for(pct);
                cfg.fec_parity_max = 16;
            }
        }
        Sweep::Burst => {
            cfg.loss_rate = 0.0;
            cfg.loss_seed = seed
                ^ ((u64::from(rot) << 32) | u64::from(pct)).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ proto_salt
                ^ net_salt;
            let unit = if net == "lan" {
                Duration::from_micros(650)
            } else {
                Duration::from_millis(120)
            };
            let bad_dwell = unit * u64::from(rot);
            cfg.gilbert = Some(GilbertElliott {
                good_loss: 0.0,
                bad_loss: f64::from(pct) / 100.0,
                good_dwell: bad_dwell * 3,
                bad_dwell,
                seed: cfg.loss_seed ^ 0xc2b2_ae3d_27d4_eb4f,
            });
            cfg.wire_granularity = WireGranularity::Byte;
            if mode == SweepMode::Fec {
                cfg.fec_parity = 2;
                cfg.fec_parity_max = 16;
                cfg.fec_adaptive = true;
                cfg.fec_fast_attack = true;
            }
        }
    }
    if mode == SweepMode::Fec {
        let (base, max) = if net == "lan" {
            (Duration::from_millis(10), Duration::from_millis(80))
        } else {
            (Duration::from_millis(2_000), Duration::from_millis(16_000))
        };
        cfg.retrans_backoff = base;
        cfg.retrans_backoff_max = max;
    }
    cfg
}

/// One protocol's `run_sweep`/`run_burst_sweep`: every cell keys up six
/// members, admits a seventh, loses one, and must converge.
fn replay_sweep(
    seed: u64,
    p: ProtocolKind,
    sweep: Sweep,
    tr: &Tracer,
    telemetry: bool,
) -> (Output, Vec<UnitWork>) {
    let mut sweep_rows = Vec::new();
    let mut burst_rows = Vec::new();
    let mut work = Vec::new();
    for (net, rot, pct, mode) in sweep_cells(sweep) {
        let cfg = cell_config(net, rot, pct, mode, p, seed, sweep);
        let (stats, elapsed_ms, converged, w) = replay_cell(cfg, p, tr, telemetry);
        work.push(w);
        let s = &stats;
        match sweep {
            Sweep::Bernoulli => sweep_rows.push(SweepRow {
                net,
                loss_pct: pct,
                mode,
                protocol: p.name(),
                lost: s.messages_lost,
                retransmissions: s.retransmissions,
                retrans_rounds: s.retransmission_rounds,
                fec_repairs: s.fec_repairs,
                parity_sent: s.parity_shards_sent,
                parity_bytes: s.parity_bytes_sent,
                fec_repair_ns: s.fec_repair_recovery_ns,
                retransmission_ns: s.retransmission_recovery_ns,
                elapsed_ms,
                converged,
            }),
            Sweep::Burst => burst_rows.push(BurstRow {
                net,
                burst_rot: rot,
                bad_pct: pct,
                mode,
                protocol: p.name(),
                lost: s.messages_lost,
                retransmissions: s.retransmissions,
                retrans_rounds: s.retransmission_rounds,
                fec_repairs: s.fec_repairs,
                parity_sent: s.parity_shards_sent,
                parity_bytes: s.parity_bytes_sent,
                fec_repair_ns: s.fec_repair_recovery_ns,
                retransmission_ns: s.retransmission_recovery_ns,
                elapsed_ms,
                converged,
            }),
        }
    }
    let out = match sweep {
        Sweep::Bernoulli => Output::Sweep(sweep_rows),
        Sweep::Burst => Output::Burst(burst_rows),
    };
    (out, work)
}

/// One sweep cell's workload, as `loss_sweep` runs it.
fn replay_cell(
    cfg: GcsConfig,
    p: ProtocolKind,
    tr: &Tracer,
    telemetry: bool,
) -> (WorldStats, f64, bool, UnitWork) {
    let suite = SuiteKind::Sim512.shared();
    let telemetry = if telemetry {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut world = tr.build(|| {
        let mut world = SimWorld::new(cfg);
        world.set_telemetry(telemetry.clone());
        for i in 0..8u64 {
            let mut m = SecureMember::new(p, Rc::clone(&suite), 900 + i, Some(17));
            m.set_telemetry(telemetry.clone());
            world.add_client(tr.wrap(m));
        }
        world.install_initial_view_of((0..6).collect());
        world
    });
    tr.engine(|| {
        world.run_until_quiescent();
        world.inject_join(6);
        world.run_until_quiescent();
        world.inject_leave(1);
        world.run_until_quiescent();
    });

    let mut converged = world.quiescent();
    match world.view().cloned() {
        Some(view) => {
            let members: Vec<ClientId> = view
                .members
                .iter()
                .copied()
                .filter(|&c| world.client_alive(c))
                .collect();
            converged &= !members.is_empty();
            let mut key = None;
            for &c in &members {
                let m = member(&world, c);
                converged &= m.last_view_epoch() == Some(view.id);
                converged &= m.phase() != AgreementPhase::GivenUp;
                match (m.secret(view.id), &key) {
                    (None, _) => converged = false,
                    (Some(s), None) => key = Some(s.clone()),
                    (Some(s), Some(k)) => converged &= s == k,
                }
            }
        }
        None => converged = false,
    }
    let work = UnitWork::of(&world, 0..8);
    (
        world.stats().clone(),
        world.now().as_millis_f64(),
        converged,
        work,
    )
}
