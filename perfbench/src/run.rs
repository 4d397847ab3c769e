//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics), and the report both print.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use gkap_bignum::stats::{self as kernel_stats, KernelOps};
use gkap_core::experiment::run_join_traced;
use gkap_core::scale::{run_shard, ScaleConfig};
use gkap_core::{CryptoSuite, OpCounts};

use crate::probe;
use crate::replay::{replay, Tracer, UnitWork};
use crate::speed::{SpeedTrack, REFERENCE_MS};
use crate::stats::{median, tail_percentile};
use crate::workload::{Output, Setup, Units, Workload};
use gkap_core::scale::percentile;

/// Timed set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 51;

/// The end-to-end metrics as `BENCHMARK.json` lists them: (name, unit).
pub const END_TO_END: [(&str, &str); 5] = [
    ("units_per_s", "1/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics as `BENCHMARK.json` lists them: (name, unit).
pub const PER_LAYER: [(&str, &str); 48] = [
    ("core.handler_s", "s"),
    ("core.handler_calls", "count"),
    ("core.handler_us_per_call", "us"),
    ("core.handler_share", "ratio"),
    ("core.self_est_s", "s"),
    ("core.exp", "count"),
    ("core.sign", "count"),
    ("core.verify", "count"),
    ("core.multicast", "count"),
    ("core.unicast", "count"),
    ("core.schedule_s", "s"),
    ("core.suite_build_s", "s"),
    ("bignum.mont_mul", "count"),
    ("bignum.mont_sqr", "count"),
    ("bignum.modexp", "count"),
    ("bignum.fixed_base_exp", "count"),
    ("bignum.modexp_ns", "ns"),
    ("bignum.fixed_base_exp_ns", "ns"),
    ("bignum.est_s", "s"),
    ("crypto.sign_ns", "ns"),
    ("crypto.verify_ns", "ns"),
    ("crypto.est_s", "s"),
    ("gcs.engine_self_s", "s"),
    ("gcs.engine_self_share", "ratio"),
    ("gcs.engine_ns_per_handler_call", "ns"),
    ("gcs.world_build_s", "s"),
    ("gcs.token_rotations", "count"),
    ("gcs.agreed_messages", "count"),
    ("gcs.fifo_messages", "count"),
    ("gcs.payload_bytes", "bytes"),
    ("gcs.views_installed", "count"),
    ("gcs.messages_lost", "count"),
    ("gcs.retransmissions", "count"),
    ("gcs.retransmission_rounds", "count"),
    ("gcs.fec_repairs", "count"),
    ("gcs.parity_shards_sent", "count"),
    ("gcs.fec_repair_ratio", "ratio"),
    ("gcs.fec_encode_ns", "ns"),
    ("gcs.fec_decode_ns", "ns"),
    ("sim.queue_ns_per_event", "ns"),
    ("sim.virtual_s_per_host_s", "s/s"),
    ("telemetry.on_overhead_ratio", "ratio"),
    ("telemetry.events", "count"),
    ("bench.output_s", "s"),
    ("bench.untraced_s", "s"),
    ("bench.traced_s", "s"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.layer_sum_ratio", "ratio"),
];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run: work attempted, work that failed a check,
/// the metrics, and human-readable notes printed before them.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Units run.
    pub attempted: u64,
    /// Units whose output failed a check.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Lines that qualify the metrics.
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Panics unless exactly the metrics of `spec` were pushed, in order.
    fn assert_matches(&self, spec: &[(&str, &str)]) {
        let pushed: Vec<(&str, &str)> = self.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(pushed, spec, "metrics differ from BENCHMARK.json");
    }

    /// Failed units over attempted units.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read peak memory: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Untraced run: times every unit through the library in whole passes,
/// as many as fit `seconds` at the workload's nominal pass time (at least
/// one), and reports the end-to-end metrics at the reference host speed
/// (see [`crate::speed`]). The first pass is checked against the
/// references and invariants; every later pass must reproduce it exactly.
///
/// # Errors
///
/// Returns a message if the workload cannot be set up.
pub fn measure(workload: Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    // The first set-up fills this thread's suite cache; each timed one
    // then builds the suite itself (as the first `SuiteKind::shared`
    // call does) before the rest of the set-up. The reference kernel
    // runs before each, on a track of its own: set-ups are normalised
    // by set-up-phase samples only.
    let mut setup = Setup::new(workload, seed)?;
    let mut setup_track = SpeedTrack::new();
    let mut setup_runs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        setup_track.sample();
        let at = setup_track.now();
        let t = Instant::now();
        black_box(CryptoSuite::sim_512());
        let fresh = Setup::new(workload, seed)?;
        setup_runs.push((at, t.elapsed().as_secs_f64()));
        setup = fresh;
    }

    let mut track = SpeedTrack::new();
    let n = setup.len();
    let passes = ((seconds / workload.pass_seconds()).round() as usize).max(1);
    let mut unit_runs: Vec<(f64, f64)> = Vec::with_capacity(n * passes);
    let mut pass_s = Vec::with_capacity(passes);
    let mut first: Vec<String> = Vec::new();
    let mut unit_ok: Vec<bool> = Vec::new();
    let mut report = Report::default();
    for pass in 0..passes {
        let mut pass_busy = 0.0;
        let mut outputs = Vec::with_capacity(if pass == 0 { n } else { 0 });
        for i in 0..n {
            track.sample_if_due();
            let at = track.now();
            let t = Instant::now();
            let out = setup.run_unit(i);
            let took = t.elapsed().as_secs_f64();
            pass_busy += took;
            unit_runs.push((at, took * 1e3));
            report.attempted += 1;
            if pass == 0 {
                outputs.push(out);
            } else if !unit_ok[i] || out.fingerprint() != first[i] {
                report.failed += 1;
            }
        }
        pass_s.push(pass_busy);
        if pass == 0 {
            unit_ok = setup.check_pass(&outputs);
            report.failed += unit_ok.iter().filter(|ok| !**ok).count() as u64;
            first = outputs.iter().map(Output::fingerprint).collect();
        }
    }
    track.sample();

    // Raw host times, and the same at the reference host's speed.
    let raw_ms: Vec<f64> = unit_runs.iter().map(|r| r.1).collect();
    let unit_ms: Vec<f64> = unit_runs
        .iter()
        .map(|&(at, ms)| track.at_reference(at, ms))
        .collect();
    let raw_setup: Vec<f64> = setup_runs.iter().map(|r| r.1).collect();
    let setup_s: Vec<f64> = setup_runs
        .iter()
        .map(|&(at, s)| setup_track.at_reference(at, s))
        .collect();
    let p = tail_percentile(n);
    let q = f64::from(p) / 100.0;
    let per_s = |ms: &[f64]| ratio(ms.len() as f64 * 1e3, ms.iter().sum());

    report.notes.push(format!(
        "{}: seed {seed}, {n} units x {passes} passes, {:.2} s timed ({pass_s:.3?} s per pass)",
        workload.name(),
        pass_s.iter().sum::<f64>(),
    ));
    report.notes.push(format!(
        "unit_ms_p50 and unit_ms_tail are over all {} unit runs; unit_ms_tail is p{p} \
         (at least 10 of the {n} units beyond it)",
        unit_ms.len()
    ));
    report.notes.push(format!(
        "times are at the reference host speed: reference kernel {:.4} ms here (median), \
         {REFERENCE_MS} ms there; raw: units_per_s {:.4}, unit_ms_p50 {:.4}, \
         unit_ms_tail {:.4}, setup_s {:.6}",
        track.median_ms(),
        per_s(&raw_ms),
        median(&raw_ms),
        percentile(&raw_ms, q),
        median(&raw_setup),
    ));
    report.notes.push(format!(
        "fail_ratio {} ({} of {} unit runs failed)",
        report.fail_ratio(),
        report.failed,
        report.attempted
    ));
    report.push("units_per_s", per_s(&unit_ms), "1/s");
    report.push("unit_ms_p50", median(&unit_ms), "ms");
    report.push("unit_ms_tail", percentile(&unit_ms, q), "ms");
    report.push("setup_s", median(&setup_s), "s");
    report.push("peak_rss_mb", peak_rss_mb()?, "MiB");
    report.assert_matches(&END_TO_END);
    Ok(report)
}

/// Work summed over a replayed pass.
#[derive(Default)]
struct Totals {
    ops: OpCounts,
    token_rotations: u64,
    agreed_messages: u64,
    fifo_messages: u64,
    payload_bytes: u64,
    views_installed: u64,
    messages_lost: u64,
    retransmissions: u64,
    retransmission_rounds: u64,
    fec_repairs: u64,
    parity_shards_sent: u64,
    virtual_ns: u64,
    events: u64,
}

impl Totals {
    fn add(&mut self, w: &UnitWork) {
        let s = &w.stats;
        self.ops.add(&w.ops);
        self.token_rotations += s.token_rotations;
        self.agreed_messages += s.agreed_messages;
        self.fifo_messages += s.fifo_messages;
        self.payload_bytes += s.payload_bytes;
        self.views_installed += s.views_installed;
        self.messages_lost += s.messages_lost;
        self.retransmissions += s.retransmissions;
        self.retransmission_rounds += s.retransmission_rounds;
        self.fec_repairs += s.fec_repairs;
        self.parity_shards_sent += s.parity_shards_sent;
        self.virtual_ns += w.virtual_ns;
        self.events += w.events;
    }
}

/// Per protocol, the scale config with telemetry on (empty for the
/// other workloads).
fn telemetry_configs(setup: &Setup) -> Vec<ScaleConfig> {
    match &setup.units {
        Units::Scale { inputs, .. } => inputs
            .iter()
            .map(|input| ScaleConfig {
                telemetry: true,
                ..input.cfg.clone()
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Re-runs unit `i` with telemetry recording on, as `repro trace`
/// would: through the library's telemetry option where the workload
/// has one, else through the replay. Returns the events recorded.
fn run_with_telemetry(
    setup: &Setup,
    scale_cfgs: &[ScaleConfig],
    untimed: &Tracer,
    i: usize,
) -> u64 {
    match &setup.units {
        Units::Join(cells) => {
            let (p, size, seed) = cells[i];
            run_join_traced(&Setup::join_config(p, seed), size)
                .events
                .len() as u64
        }
        Units::Scale { opts, inputs } => {
            let input = &inputs[i / opts.groups];
            let cfg = &scale_cfgs[i / opts.groups];
            run_shard(
                cfg,
                &input.schedule,
                &input.batches,
                opts.groups,
                i % opts.groups,
            )
            .iter()
            .map(|g| g.events.len() as u64)
            .sum()
        }
        Units::Lossy(_) => replay(setup, i, untimed, true)
            .1
            .iter()
            .map(|w| w.events)
            .sum(),
    }
}

/// Traced run: every unit three times — through the library untraced,
/// through the traced replay, and with telemetry on — between two runs
/// of the unit-cost probes, whose mean is reported. A unit whose replay
/// differs from the library's output is a failed unit.
///
/// # Errors
///
/// Returns a message if the workload cannot be set up.
pub fn trace(workload: Workload, seed: u64) -> Result<Report, String> {
    let setup = Setup::new(workload, seed)?;
    let costs_before = probe::unit_costs(seed);
    let n = setup.len();

    // The three passes are interleaved unit by unit so that each sees
    // the same cache and clock-frequency conditions.
    let tracer = Tracer::timed();
    let untimed = Tracer::untimed();
    let telemetry_cfgs = telemetry_configs(&setup);
    let mut kernel = KernelOps::default();
    let mut totals = Totals::default();
    let mut library = Vec::with_capacity(n);
    let mut replayed: Vec<Output> = Vec::with_capacity(n);
    let (mut untraced_s, mut replay_s, mut telemetry_s) = (0.0, 0.0, 0.0);
    let mut events = 0u64;
    for i in 0..n {
        let t = Instant::now();
        library.push(setup.run_unit(i));
        untraced_s += t.elapsed().as_secs_f64();

        let before = kernel_stats::snapshot();
        let t = Instant::now();
        let (out, work) = replay(&setup, i, &tracer, false);
        replay_s += t.elapsed().as_secs_f64();
        kernel.merge(&kernel_stats::snapshot().since(&before));
        work.iter().for_each(|w| totals.add(w));
        replayed.push(out);

        let t = Instant::now();
        events += run_with_telemetry(&setup, &telemetry_cfgs, &untimed, i);
        telemetry_s += t.elapsed().as_secs_f64();
    }
    let t = Instant::now();
    let rendered = setup.render(&replayed);
    let output_s = t.elapsed().as_secs_f64();
    black_box(rendered);
    let traced_s = replay_s + output_s;

    let mut ok = setup.check_pass(&library);
    let mut diverged = 0u64;
    for (i, (lib, rep)) in library.iter().zip(&replayed).enumerate() {
        if lib.fingerprint() != rep.fingerprint() {
            ok[i] = false;
            diverged += 1;
        }
    }

    let costs = costs_before.mean(&probe::unit_costs(seed));
    let clock = tracer.clock();
    let handler_s = clock.handler_ns.get() as f64 / 1e9;
    let calls = clock.handler_calls.get() as f64;
    let engine_self_s = clock.engine_self_ns.get() as f64 / 1e9;
    let world_build_s = clock.world_build_ns.get() as f64 / 1e9;
    let bignum_est_s = (kernel.modexp as f64 * costs.modexp_ns
        + kernel.fixed_base_exp as f64 * costs.fixed_base_exp_ns)
        / 1e9;
    let crypto_est_s =
        (totals.ops.sign as f64 * costs.sign_ns + totals.ops.verify as f64 * costs.verify_ns) / 1e9;
    let core_self_s = handler_s - bignum_est_s - crypto_est_s;
    let layer_sum_s =
        core_self_s + bignum_est_s + crypto_est_s + engine_self_s + world_build_s + output_s;

    let mut r = Report {
        attempted: n as u64,
        failed: ok.iter().filter(|ok| !**ok).count() as u64,
        ..Report::default()
    };
    r.notes.push(format!(
        "{}: seed {seed}, {n} units; replay diverged from the library on {diverged}",
        workload.name()
    ));
    r.notes.push(format!(
        "traced host time {traced_s:.3} s: core handlers {:.1} %, gcs engine self {:.1} %, \
         world build {:.1} %, output {:.1} %; layer self-times sum to {:.1} % of it",
        100.0 * ratio(handler_s, traced_s),
        100.0 * ratio(engine_self_s, traced_s),
        100.0 * ratio(world_build_s, traced_s),
        100.0 * ratio(output_s, traced_s),
        100.0 * ratio(layer_sum_s, traced_s),
    ));

    r.notes.push(format!(
        "inside handlers, estimated from unit costs: bignum {:.1} %, crypto {:.1} %, core self {:.1} %",
        100.0 * ratio(bignum_est_s, handler_s),
        100.0 * ratio(crypto_est_s, handler_s),
        100.0 * ratio(core_self_s, handler_s),
    ));

    r.push("core.handler_s", handler_s, "s");
    r.push("core.handler_calls", calls, "count");
    r.push(
        "core.handler_us_per_call",
        ratio(handler_s * 1e6, calls),
        "us",
    );
    r.push("core.handler_share", ratio(handler_s, traced_s), "ratio");
    r.push("core.self_est_s", core_self_s, "s");
    r.push("core.exp", totals.ops.exp as f64, "count");
    r.push("core.sign", totals.ops.sign as f64, "count");
    r.push("core.verify", totals.ops.verify as f64, "count");
    r.push("core.multicast", totals.ops.multicast as f64, "count");
    r.push("core.unicast", totals.ops.unicast as f64, "count");
    r.push("core.schedule_s", setup.schedule_s, "s");
    r.push("core.suite_build_s", setup.suite_build_s, "s");

    r.push("bignum.mont_mul", kernel.mont_mul as f64, "count");
    r.push("bignum.mont_sqr", kernel.mont_sqr as f64, "count");
    r.push("bignum.modexp", kernel.modexp as f64, "count");
    r.push(
        "bignum.fixed_base_exp",
        kernel.fixed_base_exp as f64,
        "count",
    );
    r.push("bignum.modexp_ns", costs.modexp_ns, "ns");
    r.push("bignum.fixed_base_exp_ns", costs.fixed_base_exp_ns, "ns");
    r.push("bignum.est_s", bignum_est_s, "s");

    r.push("crypto.sign_ns", costs.sign_ns, "ns");
    r.push("crypto.verify_ns", costs.verify_ns, "ns");
    r.push("crypto.est_s", crypto_est_s, "s");

    r.push("gcs.engine_self_s", engine_self_s, "s");
    r.push(
        "gcs.engine_self_share",
        ratio(engine_self_s, traced_s),
        "ratio",
    );
    r.push(
        "gcs.engine_ns_per_handler_call",
        ratio(engine_self_s * 1e9, calls),
        "ns",
    );
    r.push("gcs.world_build_s", world_build_s, "s");
    r.push(
        "gcs.token_rotations",
        totals.token_rotations as f64,
        "count",
    );
    r.push(
        "gcs.agreed_messages",
        totals.agreed_messages as f64,
        "count",
    );
    r.push("gcs.fifo_messages", totals.fifo_messages as f64, "count");
    r.push("gcs.payload_bytes", totals.payload_bytes as f64, "bytes");
    r.push(
        "gcs.views_installed",
        totals.views_installed as f64,
        "count",
    );
    r.push("gcs.messages_lost", totals.messages_lost as f64, "count");
    r.push(
        "gcs.retransmissions",
        totals.retransmissions as f64,
        "count",
    );
    r.push(
        "gcs.retransmission_rounds",
        totals.retransmission_rounds as f64,
        "count",
    );
    r.push("gcs.fec_repairs", totals.fec_repairs as f64, "count");
    r.push(
        "gcs.parity_shards_sent",
        totals.parity_shards_sent as f64,
        "count",
    );
    r.push(
        "gcs.fec_repair_ratio",
        ratio(totals.fec_repairs as f64, totals.messages_lost as f64),
        "ratio",
    );
    r.push("gcs.fec_encode_ns", costs.fec_encode_ns, "ns");
    r.push("gcs.fec_decode_ns", costs.fec_decode_ns, "ns");

    r.push("sim.queue_ns_per_event", costs.queue_ns_per_event, "ns");
    r.push(
        "sim.virtual_s_per_host_s",
        ratio(totals.virtual_ns as f64 / 1e9, untraced_s),
        "s/s",
    );

    r.push(
        "telemetry.on_overhead_ratio",
        ratio(telemetry_s, untraced_s),
        "ratio",
    );
    r.push("telemetry.events", events as f64, "count");

    r.push("bench.output_s", output_s, "s");
    r.push("bench.untraced_s", untraced_s, "s");
    r.push("bench.traced_s", traced_s, "s");
    r.push(
        "bench.trace_overhead_ratio",
        ratio(traced_s, untraced_s),
        "ratio",
    );
    r.push(
        "bench.layer_sum_ratio",
        ratio(layer_sum_s, traced_s),
        "ratio",
    );
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` are the same, in
    /// the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = json[start..].find(']').expect("section closed") + start;
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|entry| {
                    let name = &entry[..entry.find('"').expect("name closed")];
                    let unit = entry
                        .split("\"unit\": \"")
                        .nth(1)
                        .and_then(|u| u.split('"').next())
                        .expect("unit present");
                    (name.to_string(), unit.to_string())
                })
                .collect::<Vec<_>>()
        };
        let own = |spec: &[(&str, &str)]| {
            spec.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        r.push("units_per_s", 12.5, "1/s");
        r.push("setup_s", f64::NAN, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"units_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
