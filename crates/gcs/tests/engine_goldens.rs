//! Pinned golden runs: with FEC disabled (`fec_parity = 0`) and the
//! legacy retransmission policy (`retrans_backoff = ZERO`, the preset
//! defaults) the engine must produce *exactly* the pre-FEC numbers —
//! virtual end time, message counts, loss/retransmission counts — on
//! the LAN and WAN testbeds, clean and lossy. The FEC/backoff layers
//! draw no randomness and schedule no events when disabled, so any
//! drift here means the new code leaked into the baseline path.
//!
//! Two armed-recovery runs pin the other side: fixed parity with
//! retransmission backoff over Bernoulli loss, and adaptive parity
//! with fast attack over a Gilbert–Elliott chain at byte wire
//! granularity. Each pins the clock and every `WorldStats` field.

use gkap_gcs::{
    testbed, Client, ClientCtx, Delivery, GcsConfig, GilbertElliott, SimWorld, View,
    WireGranularity,
};
use gkap_sim::Duration;

#[derive(Default)]
struct Chatty {
    send_count: u8,
}

impl Client for Chatty {
    fn on_view(&mut self, ctx: &mut ClientCtx<'_>, _view: &View) {
        for i in 0..self.send_count {
            ctx.multicast_agreed(vec![i]);
        }
    }
    fn on_message(&mut self, _ctx: &mut ClientCtx<'_>, _msg: &Delivery) {}
}

fn run_lan(loss: f64, seed: u64, members: usize, per_member: u8) -> SimWorld {
    let mut cfg = testbed::lan();
    cfg.loss_rate = loss;
    cfg.loss_seed = seed;
    run(cfg, members, per_member)
}

fn run(cfg: GcsConfig, members: usize, per_member: u8) -> SimWorld {
    let mut world = SimWorld::new(cfg);
    for _ in 0..members {
        world.add_client(Box::new(Chatty {
            send_count: per_member,
        }));
    }
    world.install_initial_view();
    world.run_until_quiescent();
    world
}

#[test]
fn clean_lan_run_matches_pre_fec_engine() {
    let w = run_lan(0.0, 7, 8, 3);
    let s = w.stats();
    assert_eq!(w.now().as_nanos(), 2_610_000);
    assert_eq!(s.agreed_messages, 24);
    assert_eq!(s.token_rotations, 4);
    assert_eq!(s.messages_lost, 0);
    assert_eq!(s.retransmissions, 0);
    assert_eq!(s.retransmission_rounds, 0);
    assert_eq!(s.views_installed, 1);
    // The FEC layer is fully dormant at parity 0.
    assert_eq!(s.parity_shards_sent, 0);
    assert_eq!(s.fec_repairs, 0);
    assert_eq!(s.recovery_ns(), 0);
}

#[test]
fn lossy_lan_run_matches_pre_fec_engine() {
    let w = run_lan(0.25, 7, 8, 3);
    let s = w.stats();
    assert_eq!(w.now().as_nanos(), 4_710_000);
    assert_eq!(s.agreed_messages, 24);
    assert_eq!(s.token_rotations, 7);
    assert_eq!(s.messages_lost, 85);
    assert_eq!(s.retransmissions, 85);
    assert_eq!(s.retransmission_rounds, 36);
    assert_eq!(s.views_installed, 1);
    assert_eq!(s.parity_shards_sent, 0);
    assert_eq!(s.fec_repairs, 0);
    // Every recovered loss is attributed to retransmission, none to
    // FEC; the split sums exactly into the total by construction.
    assert_eq!(s.fec_repair_recovery_ns, 0);
    assert!(s.retransmission_recovery_ns > 0);
    assert_eq!(
        s.recovery_ns(),
        s.fec_repair_recovery_ns + s.retransmission_recovery_ns
    );
}

#[test]
fn clean_wan_run_matches_pre_fec_engine() {
    let mut cfg = testbed::wan();
    cfg.loss_rate = 0.0;
    let mut w = SimWorld::new(cfg);
    for _ in 0..6 {
        w.add_client(Box::new(Chatty { send_count: 2 }));
    }
    w.install_initial_view();
    w.run_until_quiescent();
    let s = w.stats();
    assert_eq!(w.now().as_nanos(), 481_950_000);
    assert_eq!(s.agreed_messages, 12);
    assert_eq!(s.token_rotations, 4);
    assert_eq!(s.messages_lost, 0);
    assert_eq!(s.parity_shards_sent, 0);
}

#[test]
fn lossy_runs_are_reproducible() {
    let a = run_lan(0.25, 11, 8, 3);
    let b = run_lan(0.25, 11, 8, 3);
    assert_eq!(a.now(), b.now());
    assert_eq!(a.stats().messages_lost, b.stats().messages_lost);
    assert_eq!(a.stats().retransmissions, b.stats().retransmissions);
    assert_eq!(a.stats().recovery_ns(), b.stats().recovery_ns());
}

/// LAN with the 10 ms / 80 ms retransmission backoff both armed runs
/// share.
fn lan_with_backoff(seed: u64) -> GcsConfig {
    let mut cfg = testbed::lan();
    cfg.loss_seed = seed;
    cfg.retrans_backoff = Duration::from_millis(10);
    cfg.retrans_backoff_max = Duration::from_millis(80);
    cfg
}

#[test]
fn fixed_parity_with_backoff_lan_run_is_pinned() {
    let mut cfg = lan_with_backoff(7);
    cfg.loss_rate = 0.2;
    cfg.fec_parity = 4;
    let w = run(cfg, 8, 6);
    assert_eq!(w.now().as_nanos(), 13_910_000);
    // The Debug rendering pins every `WorldStats` field at once.
    assert_eq!(
        format!("{:?}", w.stats()),
        "WorldStats { agreed_messages: 48, fifo_messages: 0, token_rotations: 20, \
         views_installed: 1, payload_bytes: 48, messages_lost: 118, retransmissions: 8, \
         retransmission_rounds: 2, daemon_crashes: 0, ring_reformations: 0, \
         parity_shards_sent: 384, fec_repairs: 113, fec_repair_recovery_ns: 53450000, \
         retransmission_recovery_ns: 44680000, parity_bytes_sent: 19200 }"
    );
}

#[test]
fn adaptive_parity_over_gilbert_chain_lan_run_is_pinned() {
    let mut cfg = lan_with_backoff(7);
    cfg.loss_rate = 0.0;
    cfg.gilbert = Some(GilbertElliott {
        good_loss: 0.0,
        bad_loss: 0.6,
        good_dwell: Duration::from_micros(1500),
        bad_dwell: Duration::from_millis(1),
        seed: 11,
    });
    cfg.wire_granularity = WireGranularity::Byte;
    cfg.fec_parity = 2;
    cfg.fec_parity_max = 16;
    cfg.fec_adaptive = true;
    cfg.fec_fast_attack = true;
    let w = run(cfg, 8, 6);
    assert_eq!(w.now().as_nanos(), 54_560_000);
    assert_eq!(
        format!("{:?}", w.stats()),
        "WorldStats { agreed_messages: 48, fifo_messages: 0, token_rotations: 83, \
         views_installed: 1, payload_bytes: 48, messages_lost: 197, retransmissions: 87, \
         retransmission_rounds: 20, daemon_crashes: 0, ring_reformations: 0, \
         parity_shards_sent: 552, fec_repairs: 126, fec_repair_recovery_ns: 264289408, \
         retransmission_recovery_ns: 572170660, parity_bytes_sent: 27600 }"
    );
}
