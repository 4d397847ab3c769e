//! The idle-token fast-forward must be invisible: a `run_until` over a
//! long idle stretch — whether it starts idle or first drains pending
//! work — produces exactly the same clock, stats, and future event
//! timing as stepping every token hop.

use gkap_gcs::{testbed, Client, ClientCtx, Delivery, GcsConfig, SimWorld, View};
use gkap_sim::{Duration, SimTime};

/// Records view installs and deliveries with their exact instants.
#[derive(Default)]
struct Witness {
    views: Vec<(SimTime, Vec<usize>)>,
    deliveries: Vec<(SimTime, usize)>,
    /// Agreed multicasts sent on every view install.
    send_on_view: Vec<Vec<u8>>,
}

impl Client for Witness {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, view: &View) {
        self.views.push((ctx.now(), view.members.clone()));
        for payload in &self.send_on_view {
            ctx.multicast_agreed(payload.clone());
        }
    }

    fn on_message(&mut self, ctx: &mut ClientCtx<'_>, msg: &Delivery) {
        self.deliveries.push((ctx.now(), msg.sender));
    }
}

fn build_world(fast_forward: bool) -> SimWorld {
    build_world_with(testbed::lan(), fast_forward, |i| {
        if i % 2 == 0 {
            vec![vec![1u8, 2, 3]]
        } else {
            Vec::new()
        }
    })
}

/// Eight witnesses, the first six in the initial view; client `i`
/// multicasts `sends(i)` on every view it sees.
fn build_world_with(
    cfg: GcsConfig,
    fast_forward: bool,
    sends: impl Fn(usize) -> Vec<Vec<u8>>,
) -> SimWorld {
    let mut world = SimWorld::new(cfg);
    world.set_idle_fast_forward(fast_forward);
    for i in 0..8 {
        let w = Witness {
            send_on_view: sends(i),
            ..Witness::default()
        };
        world.add_client(Box::new(w));
    }
    world.install_initial_view_of((0..6).collect());
    world
}

/// Everything a run lets an observer see: the clock, the engine's
/// counters, and every view install and delivery with its instant.
struct Trace {
    now: SimTime,
    token_rotations: u64,
    agreed_messages: u64,
    stats: String,
    views: Vec<(SimTime, Vec<usize>)>,
    deliveries: Vec<(SimTime, usize)>,
}

fn trace(world: &mut SimWorld) -> Trace {
    let mut views = Vec::new();
    let mut deliveries = Vec::new();
    for c in 0..8 {
        let w = world.client::<Witness>(c);
        views.extend(w.views.iter().cloned());
        deliveries.extend(w.deliveries.iter().cloned());
    }
    Trace {
        now: world.now(),
        token_rotations: world.stats().token_rotations,
        agreed_messages: world.stats().agreed_messages,
        stats: format!("{:?}", world.stats()),
        views,
        deliveries,
    }
}

/// Asserts two traces agree field by field (a named failure beats one
/// giant struct diff).
fn assert_same(fast: &Trace, slow: &Trace) {
    assert_eq!(fast.now, slow.now, "clock must agree");
    assert_eq!(
        fast.token_rotations, slow.token_rotations,
        "token rotations must agree"
    );
    assert_eq!(
        fast.agreed_messages, slow.agreed_messages,
        "sequenced message count must agree"
    );
    assert_eq!(fast.stats, slow.stats, "every engine counter must agree");
    assert_eq!(fast.views, slow.views, "view installs must agree exactly");
    assert_eq!(
        fast.deliveries, slow.deliveries,
        "deliveries must agree exactly"
    );
}

/// Drives one world through idle stretches punctuated by membership
/// churn, returning the full observable trace. Every `run_until` here
/// starts on a quiescent world.
fn drive(mut world: SimWorld) -> Trace {
    world.run_until_quiescent();
    let t0 = world.now();
    // A long idle stretch (hundreds of token rotations), then churn.
    world.run_until(t0 + Duration::from_millis(500));
    world.inject_change(vec![6], vec![0]);
    world.run_until_quiescent();
    // Another idle stretch that ends mid-rotation (odd offset).
    let t1 = world.now();
    world.run_until(t1 + Duration::from_nanos(123_456_789));
    world.inject_change(vec![7], vec![]);
    world.run_until_quiescent();
    let t2 = world.now();
    world.run_until(t2 + Duration::from_millis(50));
    trace(&mut world)
}

#[test]
fn fast_forward_is_equivalent_to_stepping() {
    let fast = drive(build_world(true));
    let slow = drive(build_world(false));
    assert_same(&fast, &slow);
}

/// The workload-driver pattern (`core::scale`): inject a change, then
/// `run_until` a target far past the change's drain, so the call
/// starts busy and crosses into an idle stretch part-way through.
fn drive_busy_entry(mut world: SimWorld) -> Trace {
    world.run_until_quiescent();
    let t0 = world.now();
    world.inject_change(vec![6], vec![0]);
    world.run_until(t0 + Duration::from_millis(800));
    assert!(world.quiescent(), "the change drained inside the stretch");
    // Land mid-rotation after the next change, then drain.
    let t1 = world.now();
    world.inject_change(vec![7], vec![1]);
    world.run_until(t1 + Duration::from_nanos(301_234_567));
    world.inject_change(vec![0], vec![]);
    world.run_until_quiescent();
    trace(&mut world)
}

#[test]
fn fast_forward_inside_a_busy_run_until_is_equivalent_to_stepping() {
    let fast = drive_busy_entry(build_world(true));
    let slow = drive_busy_entry(build_world(false));
    assert_same(&fast, &slow);
    assert!(
        fast.token_rotations > 1_000,
        "the stretches span many rotations: {}",
        fast.token_rotations
    );
}

/// A lossy ring with the adaptive parity controller: after the initial
/// traffic every daemon's loss estimate is non-zero, and each idle
/// token visit decays it. Skipping those visits would leave the
/// estimate stale and inflate the next generation's parity budget.
/// Sixteen sends per client load the ring enough that, at the engine's
/// fixed α of 0.2, a stale estimate still changes the run (four do not).
fn drive_adaptive_fec(fast_forward: bool) -> Trace {
    let mut cfg = testbed::lan();
    cfg.loss_rate = 0.4;
    cfg.fec_parity = 1;
    cfg.fec_parity_max = 16;
    cfg.fec_adaptive = true;
    cfg.fec_fast_attack = true;
    let mut world = build_world_with(cfg, fast_forward, |_| vec![vec![7u8; 64]; 16]);
    world.run_until_quiescent();
    let t0 = world.now();
    world.run_until(t0 + Duration::from_millis(2_000));
    world.inject_change(vec![6], vec![]);
    world.run_until_quiescent();
    trace(&mut world)
}

#[test]
fn adaptive_fec_fast_forward_is_equivalent_to_stepping() {
    let fast = drive_adaptive_fec(true);
    let slow = drive_adaptive_fec(false);
    assert_same(&fast, &slow);
}

#[test]
fn fast_forward_skips_are_cheap_and_exact_over_long_horizons() {
    // A 10 s idle horizon at a ~650 us rotation period is ~15k
    // rotations; fast-forwarded, the clock and rotation count still
    // match the analytic expectation derived from a stepped short run.
    let mut world = build_world(true);
    world.run_until_quiescent();
    let t0 = world.now();
    let r0 = world.stats().token_rotations;
    world.run_until(t0 + Duration::from_millis(10_000));
    let elapsed = world.now().since(t0);
    assert!(elapsed <= Duration::from_millis(10_000));
    // The world kept rotating the whole time.
    let rotations = world.stats().token_rotations - r0;
    assert!(
        rotations > 10_000,
        "rotations skipped analytically: {rotations}"
    );
    // And it is still live: churn after the skip completes normally.
    world.inject_change(vec![6], vec![]);
    world.run_until_quiescent();
    assert_eq!(world.view().map(|v| v.members.len()), Some(7));
}
