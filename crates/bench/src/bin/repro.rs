//! `repro` — regenerates every table and figure of the paper (plus the
//! extension studies) from the simulation.
//!
//! ```text
//! cargo run --release -p gkap-bench --bin repro -- all
//! cargo run --release -p gkap-bench --bin repro -- fig11 --jobs 8
//! cargo run --release -p gkap-bench --bin repro -- trace-summary fig14
//! cargo run --release -p gkap-bench --bin repro -- trace fig14 --folded
//! cargo run --release -p gkap-bench --bin repro -- scale --groups 1000 --churn 0.05
//! cargo run --release -p gkap-bench --bin repro -- bench-diff base.json candidate.json
//! ```
//!
//! Output: aligned tables on stdout and CSV files under `results/`;
//! `--quiet` silences the tables (files are still written). `--jobs N`
//! fans the experiment grids across N worker threads (default: all
//! cores) — figure output is bit-identical to a serial run.
//!
//! Every command additionally writes a versioned **run manifest**
//! `results/RUN_<cmd>_<tag>.json` — git revision, full configuration,
//! wall vs virtual time, deterministic op counts and per-phase latency
//! histograms. `bench-diff` compares two manifests with per-class
//! thresholds and exits non-zero on regression; `trace --folded` adds
//! collapsed-stack (flamegraph) output.
//!
//! Failures (an unwritable `results/` directory, a malformed flag, an
//! unknown protocol) exit non-zero with a one-line diagnostic — never
//! a panic.

use std::path::{Path, PathBuf};

use gkap_bench::{
    chaos, cli, diff, emit, figure_sizes, figures, loss_sweep, manifest::Manifest, micro, scale,
    trace, wan_sizes, write_output, Console,
};
use gkap_core::costs_table::render_table1;
use gkap_core::experiment::SuiteKind;
use gkap_gcs::testbed;
use gkap_telemetry::metrics::LogHistogram;

fn out_dir() -> PathBuf {
    PathBuf::from("results")
}

fn cmd_table1(con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    for (n, m, p) in [(20usize, 5usize, 5usize), (50, 10, 10)] {
        con.say(render_table1(n, m, p));
        man.add_count("harness/table1/tables", 1);
    }
    write_output(&out_dir(), "table1.txt", &render_table1(50, 10, 10))?;
    con.say("[written: results/table1.txt]");
    Ok(())
}

fn cmd_testbed(con: &mut Console) {
    let wan = testbed::wan();
    con.say("# Figure 13 — WAN testbed");
    for s in 0..wan.topology.site_count() {
        let machines = (0..wan.topology.machine_count())
            .filter(|&m| wan.topology.machine(m).site == s)
            .count();
        con.say(format!(
            "site {} = {:>4}: {machines} machines",
            s,
            wan.topology.site_name(s)
        ));
    }
    for (a, b) in [(0usize, 1usize), (1, 2), (2, 0)] {
        con.say(format!(
            "RTT {} – {}: {:.0} ms",
            wan.topology.site_name(a),
            wan.topology.site_name(b),
            wan.topology.site_latency(a, b).as_millis_f64() * 2.0
        ));
    }
}

fn cmd_microlan(con: &mut Console) {
    con.say("# §6.1.1 micro-parameters (LAN)");
    con.say(micro::render(&micro::lan_micro()));
}

fn cmd_microwan(con: &mut Console) {
    con.say("# §6.2.1 micro-parameters (WAN)");
    con.say(micro::render(&micro::wan_micro()));
}

fn cmd_fig11(reps: u32, jobs: usize, con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    let sizes = figure_sizes();
    for suite in [SuiteKind::Sim512, SuiteKind::Sim1024] {
        let fig = figures::fig11_join_lan(suite, &sizes, reps, jobs);
        let stem = match suite {
            SuiteKind::Sim512 => "fig11_join_lan_512",
            _ => "fig11_join_lan_1024",
        };
        emit(&fig, &out_dir(), stem, con, man)?;
    }
    Ok(())
}

fn cmd_fig12(reps: u32, jobs: usize, con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    let sizes = figure_sizes();
    for suite in [SuiteKind::Sim512, SuiteKind::Sim1024] {
        let fig = figures::fig12_leave_lan(suite, &sizes, reps, jobs);
        let stem = match suite {
            SuiteKind::Sim512 => "fig12_leave_lan_512",
            _ => "fig12_leave_lan_1024",
        };
        emit(&fig, &out_dir(), stem, con, man)?;
    }
    Ok(())
}

fn cmd_fig14(reps: u32, jobs: usize, con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    let sizes = wan_sizes();
    emit(
        &figures::fig14_join_wan(&sizes, reps, jobs),
        &out_dir(),
        "fig14_join_wan_512",
        con,
        man,
    )?;
    emit(
        &figures::fig14_leave_wan(&sizes, reps, jobs),
        &out_dir(),
        "fig14_leave_wan_512",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_partition_merge(
    reps: u32,
    jobs: usize,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    let sizes: Vec<usize> = vec![4, 8, 12, 20, 30, 40, 50];
    emit(
        &figures::partition_figure(
            &testbed::lan(),
            "Extension — Partition (half the group), LAN, DH 512",
            &sizes,
            reps,
            jobs,
        ),
        &out_dir(),
        "ext_partition_lan_512",
        con,
        man,
    )?;
    emit(
        &figures::merge_figure(
            &testbed::lan(),
            "Extension — Merge (two halves), LAN, DH 512",
            &sizes,
            reps,
            jobs,
        ),
        &out_dir(),
        "ext_merge_lan_512",
        con,
        man,
    )?;
    let wan_sizes: Vec<usize> = vec![4, 8, 14, 26, 40];
    emit(
        &figures::partition_figure(
            &testbed::wan(),
            "Extension — Partition (half the group), WAN, DH 512",
            &wan_sizes,
            reps,
            jobs,
        ),
        &out_dir(),
        "ext_partition_wan_512",
        con,
        man,
    )?;
    emit(
        &figures::merge_figure(
            &testbed::wan(),
            "Extension — Merge (two halves), WAN, DH 512",
            &wan_sizes,
            reps,
            jobs,
        ),
        &out_dir(),
        "ext_merge_wan_512",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_crossover(
    reps: u32,
    jobs: usize,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    let delays: Vec<u64> = vec![0, 5, 10, 20, 35, 50, 75, 100, 150, 200];
    emit(
        &figures::crossover_figure(20, &delays, reps, jobs),
        &out_dir(),
        "ext_crossover_join_n20",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_ablate_flow(
    reps: u32,
    jobs: usize,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    let budgets: Vec<usize> = vec![1, 2, 5, 10, 20, 50];
    emit(
        &figures::flow_control_ablation(50, &budgets, reps, jobs),
        &out_dir(),
        "ablate_flow_bd_wan_n50",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_ablate_sponsor(con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    emit(
        &figures::sponsor_location_ablation(26),
        &out_dir(),
        "ablate_sponsor_wan_n26",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_ablate_tree(con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    emit(
        &figures::tree_shape_ablation(24, 30),
        &out_dir(),
        "ablate_tree_shape_n24",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_ablate_sig(
    reps: u32,
    jobs: usize,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    emit(
        &figures::signature_scheme_ablation(26, reps, jobs),
        &out_dir(),
        "ablate_sig_join_n26",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_ablate_confirm(
    reps: u32,
    jobs: usize,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    emit(
        &figures::key_confirmation_ablation(20, reps, jobs),
        &out_dir(),
        "ablate_confirm_join_n20",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_ablate_avl(con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    emit(
        &figures::avl_policy_ablation(20, 25),
        &out_dir(),
        "ablate_avl_policy_n20",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_ablate_hetero(
    reps: u32,
    jobs: usize,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    emit(
        &figures::hetero_machine_ablation(26, reps, jobs),
        &out_dir(),
        "ablate_hetero_join_n26",
        con,
        man,
    )?;
    Ok(())
}

fn cmd_ika(reps: u32, jobs: usize, con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    let sizes: Vec<usize> = vec![2, 4, 8, 13, 20, 30, 40, 50];
    emit(
        &figures::ika_figure(
            &testbed::lan(),
            "Extension — real initial key agreement, LAN, DH 512",
            &sizes,
            reps,
            jobs,
        ),
        &out_dir(),
        "ext_ika_lan_512",
        con,
        man,
    )?;
    let wan_sizes: Vec<usize> = vec![2, 4, 8, 14, 26];
    emit(
        &figures::ika_figure(
            &testbed::wan(),
            "Extension — real initial key agreement, WAN, DH 512",
            &wan_sizes,
            reps,
            jobs,
        ),
        &out_dir(),
        "ext_ika_wan_512",
        con,
        man,
    )?;
    Ok(())
}

/// `ext-scale`: the single-group size sweep (one group of up to 100
/// members). The multi-group workload lives under `scale`.
fn cmd_ext_scale(
    reps: u32,
    jobs: usize,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    let sizes: Vec<usize> = vec![10, 25, 50, 75, 100];
    emit(
        &figures::scale_figure(&sizes, reps, jobs),
        &out_dir(),
        "ext_scale_join_lan_512",
        con,
        man,
    )?;
    Ok(())
}

/// `scale`: the multi-group workload — N concurrent groups
/// partitioned over `--shards` independent rings, batched membership
/// churn, throughput/latency CSV per protocol. Bit-identical across
/// every `--jobs` x `--shards` combination, manifest body included;
/// per-shard busy and barrier-wait times land in the manifest
/// environment block.
fn cmd_scale(opts: &cli::CliOptions, con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    let protocol = match opts.protocol.as_deref() {
        Some(name) => Some(scale::parse_protocol(name).ok_or_else(|| {
            format!("unknown protocol: {name} (expected gdh, tgdh, str, bd or ckd)")
        })?),
        None => None,
    };
    let sopts = scale::ScaleOptions {
        groups: opts.groups,
        churn: opts.churn,
        window_ms: opts.window_ms,
        protocol,
        seed: opts.seed,
        jobs: opts.jobs,
        shards: opts.shards,
    };
    let outcome = scale::run_all_timed(&sopts);
    let rows = outcome.rows;
    man.set_shard_timing(sopts.shards.max(1), &outcome.shard_busy_ns);
    con.say(scale::scale_table(&sopts, &rows));
    let csv_name = format!("scale_g{}_s{}.csv", sopts.groups, sopts.seed);
    let path = write_output(&out_dir(), &csv_name, &scale::scale_csv(&sopts, &rows))?;
    con.say(format!("[written: {}]", path.display()));
    man.absorb(&scale::scale_manifest(&sopts, &rows));
    if let Some(row) = rows.iter().find(|r| !r.run.ok) {
        return Err(format!(
            "scale: {} left a group unkeyed or in error (see table)",
            row.protocol.name()
        ));
    }
    Ok(())
}

fn cmd_lossy(reps: u32, jobs: usize, con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    let pcts: Vec<u32> = vec![0, 1, 2, 5, 10, 20];
    emit(
        &figures::lossy_links_figure(20, &pcts, reps, jobs),
        &out_dir(),
        "ext_lossy_wan_join_n20",
        con,
        man,
    )?;
    Ok(())
}

/// `trace <figure>` / `trace-summary <figure>`: traced runs with the
/// per-protocol latency breakdown. `full` additionally writes one
/// JSONL event log per protocol × event; `folded` writes collapsed
/// stacks for flamegraph rendering.
fn cmd_trace(
    figure: &str,
    full: bool,
    folded: bool,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    let n = 50;
    let Some(rows) = trace::trace_figure(figure, n) else {
        // A usage error, not a runtime failure: exit 2 like unknown
        // commands and malformed flags do.
        eprintln!(
            "repro: unknown figure for trace: {figure} (expected fig11, fig12, fig14 or crash)"
        );
        std::process::exit(2);
    };
    if full {
        for row in &rows {
            let name = format!(
                "trace_{figure}_{}_{}.jsonl",
                row.protocol.to_lowercase(),
                row.event
            );
            let jsonl = gkap_telemetry::jsonl::render_events(&row.run.events);
            let path = write_output(&out_dir(), &name, &jsonl)?;
            con.say(format!(
                "[written: {} ({} events)]",
                path.display(),
                row.run.events.len()
            ));
        }
    }
    if folded {
        let name = format!("trace_{figure}.folded");
        let path = write_output(&out_dir(), &name, &trace::folded_stacks(&rows))?;
        con.say(format!("[written: {} (collapsed stacks)]", path.display()));
    }
    // Manifest: replay each row's event log through a fresh recorder to
    // rebuild its typed hub, then label every path with protocol and
    // event so the cells stay distinct (`crypto/GDH/join/exp`).
    for row in &rows {
        let mut rec = gkap_telemetry::Recorder::default();
        for e in &row.run.events {
            rec.push(e.clone());
        }
        let cell = |name: &str| format!("{}/{}/{name}", row.protocol, row.event);
        for (k, v) in rec.hub().counters() {
            man.add_count(&format!("{}/{}", k.layer.as_str(), cell(k.name)), v);
        }
        for (k, h) in rec.hub().histograms() {
            man.put_histogram(
                &format!("{}/{}", k.layer.as_str(), cell(k.name)),
                h.summary(),
            );
        }
        let b = &row.run.breakdown;
        for (name, v) in [
            ("elapsed_ms", b.elapsed_ms),
            ("membership_ms", b.membership_ms),
            ("rounds_ms", b.rounds_ms),
            ("crypto_ms", b.crypto_ms),
            ("network_ms", b.network_ms),
            (
                "recovery_ms",
                trace::recovery_ms(&row.run.events).min(b.elapsed_ms),
            ),
        ] {
            man.gauge_max(&format!("harness/{}", cell(name)), v);
        }
        man.add_count(
            &format!("harness/{}", cell("events")),
            row.run.events.len() as u64,
        );
        man.virtual_ms += b.elapsed_ms;
    }
    con.say(trace::summary_table(figure, &rows));
    let csv_name = format!("trace_summary_{figure}.csv");
    let path = write_output(&out_dir(), &csv_name, &trace::summary_csv(figure, &rows))?;
    con.say(format!("[written: {}]", path.display()));
    Ok(())
}

/// `chaos`: a seeded randomized fault campaign across all five
/// protocols. Exits non-zero when any invariant is violated, printing
/// the minimized failing schedule so CI logs carry the reproduction.
fn cmd_chaos(seed: u64, runs: u32, con: &mut Console, man: &mut Manifest) -> Result<(), String> {
    let cfg = chaos::ChaosConfig::default();
    let factory = chaos::default_factory();
    let report = chaos::run_campaign(seed, runs, &cfg, &factory, con);
    con.say(chaos::render_summary(&report));
    let csv_name = format!("chaos_seed{seed}.csv");
    let path = write_output(&out_dir(), &csv_name, &chaos::campaign_csv(&report))?;
    con.say(format!("[written: {}]", path.display()));
    man.set_config("chaos_seed", seed);
    man.set_config("chaos_runs", runs);
    man.add_count("harness/chaos/rows", report.rows.len() as u64);
    man.add_count("harness/chaos/failures", report.failures.len() as u64);
    let mut recovery = LogHistogram::default();
    let mut elapsed = LogHistogram::default();
    for row in &report.rows {
        man.add_count(
            &format!("harness/chaos/{}/faults", row.protocol),
            row.faults as u64,
        );
        recovery.record(row.recovery_ms);
        elapsed.record(row.elapsed_ms);
        man.virtual_ms += row.elapsed_ms;
    }
    man.put_histogram("harness/chaos/recovery_ms", recovery.summary());
    man.put_histogram("harness/chaos/elapsed_ms", elapsed.summary());
    if !report.passed() {
        for f in &report.failures {
            con.say(chaos::render_failure(f));
        }
        con.say(format!(
            "chaos: {} failing run(s) — replay with `repro chaos --seed {seed} --runs {runs}`",
            report.failures.len()
        ));
        std::process::exit(1);
    }
    Ok(())
}

/// `chaos --loss-sweep`: loss rates × {FEC, retransmission-only} ×
/// protocols on both testbeds. Exits non-zero when any cell misses an
/// invariant (liveness, view synchrony, key convergence).
fn cmd_loss_sweep(
    opts: &cli::CliOptions,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    let protocol = match opts.protocol.as_deref() {
        Some(name) => Some(scale::parse_protocol(name).ok_or_else(|| {
            format!("unknown protocol: {name} (expected gdh, tgdh, str, bd or ckd)")
        })?),
        None => None,
    };
    let sopts = loss_sweep::SweepOptions {
        seed: opts.seed,
        jobs: opts.jobs,
        protocol,
    };
    let rows = loss_sweep::run_sweep(&sopts);
    con.say(loss_sweep::sweep_table(sopts.seed, &rows));
    let csv_name = format!("chaos_loss_s{}.csv", sopts.seed);
    let path = write_output(
        &out_dir(),
        &csv_name,
        &loss_sweep::sweep_csv(sopts.seed, &rows),
    )?;
    con.say(format!("[written: {}]", path.display()));
    man.absorb(&loss_sweep::sweep_manifest(&sopts, &rows));
    let failed: Vec<&loss_sweep::SweepRow> = rows.iter().filter(|r| !r.converged).collect();
    if !failed.is_empty() {
        for r in &failed {
            con.say(format!(
                "FAILED: {} {}% {} {} — invariant violated (replay with \
                 `repro chaos --loss-sweep --seed {}`)",
                r.net,
                r.loss_pct,
                r.mode.name(),
                r.protocol,
                sopts.seed
            ));
        }
        std::process::exit(1);
    }
    Ok(())
}

/// `chaos --loss-sweep --burst`: Gilbert–Elliott burst cells
/// ({burst length in rotations} × {bad-state rate}) × {FEC,
/// retransmission-only} × protocols on both testbeds, wire charged at
/// byte granularity. Exits non-zero when any cell misses an
/// invariant.
fn cmd_burst_sweep(
    opts: &cli::CliOptions,
    con: &mut Console,
    man: &mut Manifest,
) -> Result<(), String> {
    let protocol = match opts.protocol.as_deref() {
        Some(name) => Some(scale::parse_protocol(name).ok_or_else(|| {
            format!("unknown protocol: {name} (expected gdh, tgdh, str, bd or ckd)")
        })?),
        None => None,
    };
    let sopts = loss_sweep::SweepOptions {
        seed: opts.seed,
        jobs: opts.jobs,
        protocol,
    };
    let rows = loss_sweep::run_burst_sweep(&sopts);
    con.say(loss_sweep::burst_table(sopts.seed, &rows));
    let csv_name = format!("chaos_burst_s{}.csv", sopts.seed);
    let path = write_output(
        &out_dir(),
        &csv_name,
        &loss_sweep::burst_csv(sopts.seed, &rows),
    )?;
    con.say(format!("[written: {}]", path.display()));
    man.absorb(&loss_sweep::burst_manifest(&sopts, &rows));
    let failed: Vec<&loss_sweep::BurstRow> = rows.iter().filter(|r| !r.converged).collect();
    if !failed.is_empty() {
        for r in &failed {
            con.say(format!(
                "FAILED: {} burst={} bad={}% {} {} — invariant violated (replay \
                 with `repro chaos --loss-sweep --burst --seed {}`)",
                r.net,
                r.burst_rot,
                r.bad_pct,
                r.mode.name(),
                r.protocol,
                sopts.seed
            ));
        }
        std::process::exit(1);
    }
    Ok(())
}

/// `bench-diff <baseline> <candidate>`: the perf-regression gate.
/// Exit codes: 0 pass, 1 regression(s), 2 usage/IO error.
fn cmd_bench_diff(opts: &cli::CliOptions, con: &mut Console) -> Result<bool, String> {
    let (Some(base_path), Some(cand_path)) = (opts.figure.as_deref(), opts.arg2.as_deref()) else {
        return Err(
            "bench-diff needs two manifest paths: bench-diff <baseline.json> <candidate.json>"
                .to_string(),
        );
    };
    let base = Manifest::read_from(Path::new(base_path))?;
    let cand = Manifest::read_from(Path::new(cand_path))?;
    let report = diff::diff(&base, &cand, &diff::Thresholds::default());
    con.say(diff::render(base_path, cand_path, &report));
    Ok(report.passed())
}

/// The sub-steps `all` runs, in order.
const ALL_STEPS: [&str; 20] = [
    "table1",
    "testbed",
    "microlan",
    "microwan",
    "fig11",
    "fig12",
    "fig14",
    "partition-merge",
    "crossover",
    "ablate-flow",
    "ablate-sponsor",
    "ablate-tree",
    "ablate-sig",
    "ablate-avl",
    "lossy",
    "ablate-hetero",
    "ablate-confirm",
    "ika",
    "ext-scale",
    "scale",
];

/// The manifest tag for a command: the workload parameters that
/// distinguish runs of the same command.
fn manifest_tag(cmd: &str, opts: &cli::CliOptions) -> String {
    match cmd {
        "scale" => format!("g{}_s{}", opts.groups, opts.seed),
        "chaos" if opts.loss_sweep && opts.burst => format!("burst_s{}", opts.seed),
        "chaos" if opts.loss_sweep => format!("loss_s{}", opts.seed),
        "chaos" => format!("s{}_r{}", opts.seed, opts.runs),
        "trace" | "trace-summary" => opts.figure.clone().unwrap_or_else(|| "fig14".into()),
        _ => format!("r{}", opts.reps),
    }
}

/// Runs one command, timing it and writing its run manifest. Returns `Ok(false)` for unknown commands,
/// `Err` with a one-line diagnostic on failure.
fn run_step(cmd: &str, opts: &cli::CliOptions, con: &mut Console) -> Result<bool, String> {
    let (reps, jobs) = (opts.reps, opts.jobs);
    gkap_core::par::take_busy_nanos(); // reset the busy-time counter
    let mut man = Manifest::new(cmd, &manifest_tag(cmd, opts));
    man.set_config("reps", reps);
    let man = &mut man;
    let t0 = std::time::Instant::now();
    match cmd {
        "table1" => cmd_table1(con, man)?,
        "testbed" => cmd_testbed(con),
        "microlan" => cmd_microlan(con),
        "microwan" => cmd_microwan(con),
        "fig11" => cmd_fig11(reps, jobs, con, man)?,
        "fig12" => cmd_fig12(reps, jobs, con, man)?,
        "fig14" => cmd_fig14(reps, jobs, con, man)?,
        "partition-merge" => cmd_partition_merge(reps, jobs, con, man)?,
        "crossover" => cmd_crossover(reps, jobs, con, man)?,
        "ablate-flow" => cmd_ablate_flow(reps, jobs, con, man)?,
        "ablate-sponsor" => cmd_ablate_sponsor(con, man)?,
        "ablate-tree" => cmd_ablate_tree(con, man)?,
        "ablate-sig" => cmd_ablate_sig(reps, jobs, con, man)?,
        "ablate-avl" => cmd_ablate_avl(con, man)?,
        "ablate-confirm" => cmd_ablate_confirm(reps, jobs, con, man)?,
        "lossy" => cmd_lossy(reps, jobs, con, man)?,
        "ika" => cmd_ika(reps, jobs, con, man)?,
        "ext-scale" => cmd_ext_scale(reps, jobs, con, man)?,
        "scale" => cmd_scale(opts, con, man)?,
        "ablate-hetero" => cmd_ablate_hetero(reps, jobs, con, man)?,
        "trace" | "trace-summary" => {
            let figure = opts.figure.as_deref().unwrap_or("fig14");
            cmd_trace(figure, cmd == "trace", opts.folded, con, man)?;
        }
        "chaos" if opts.loss_sweep && opts.burst => cmd_burst_sweep(opts, con, man)?,
        "chaos" if opts.loss_sweep => cmd_loss_sweep(opts, con, man)?,
        "chaos" => cmd_chaos(opts.seed, opts.runs, con, man)?,
        _ => return Ok(false),
    }
    let wall_s = t0.elapsed().as_secs_f64();
    // Wall-clock busy time, not CPU time: `run_indexed` brackets each
    // cell with `Instant`, so this is the serial-equivalent cost only
    // while workers hold their own core. With `--jobs` now clamped to
    // the hardware the usual overstatement (oversubscription) cannot
    // happen, but other processes competing for the machine can still
    // inflate it — treat it as an upper bound on compute.
    let serial_equivalent_s = gkap_core::par::take_busy_nanos() as f64 / 1e9;
    man.fill_environment(jobs, wall_s);
    let man_path = man.write_to(&out_dir())?;
    con.note(format!("[manifest: {}]", man_path.display()));
    con.note(format!(
        "[{cmd}: wall {wall_s:.1}s, serial-equivalent {serial_equivalent_s:.1}s]"
    ));
    Ok(true)
}

const USAGE: &str = "commands: all table1 testbed microlan microwan fig11 fig12 fig14 \
     partition-merge crossover ablate-flow ablate-sponsor ablate-tree ablate-sig ablate-avl \
     ablate-hetero ablate-confirm lossy ika ext-scale trace <figure> [--folded] \
     trace-summary <figure> chaos [--seed N] [--runs N] [--loss-sweep [--burst] [--protocol NAME]] \
     scale [--groups N] [--churn R] [--window MS] [--protocol NAME] [--seed N] [--shards N] \
     bench-diff <baseline.json> <candidate.json> \
     [--reps N] [--jobs N] [--quiet]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cli::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("repro: {msg}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let mut con = if opts.quiet {
        Console::quiet()
    } else {
        Console::stdio()
    };
    let con = &mut con;

    // bench-diff is a pure comparison — no workload, no run manifest.
    if opts.cmd == "bench-diff" {
        match cmd_bench_diff(&opts, con) {
            Ok(true) => return,
            Ok(false) => std::process::exit(1),
            Err(msg) => {
                eprintln!("repro: {msg}");
                std::process::exit(2);
            }
        }
    }

    let t0 = std::time::Instant::now();
    let outcome = if opts.cmd == "all" {
        let mut res = Ok(true);
        for cmd in ALL_STEPS {
            res = run_step(cmd, &opts, con);
            if res.is_err() {
                break;
            }
        }
        res
    } else {
        run_step(&opts.cmd, &opts, con)
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => {
            con.note(format!("unknown command: {}", opts.cmd));
            con.note(USAGE);
            std::process::exit(2);
        }
        Err(msg) => {
            eprintln!("repro: {msg}");
            std::process::exit(1);
        }
    }
    let total_wall_s = t0.elapsed().as_secs_f64();
    con.note(format!(
        "[repro {} done in {total_wall_s:.1}s with --jobs {}]",
        opts.cmd, opts.jobs
    ));
}
