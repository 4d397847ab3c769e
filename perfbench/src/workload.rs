//! The four workloads: their units, the library call that runs one
//! unit, and the checks that decide whether a unit's output is right.
//!
//! A *unit* is the smallest piece the benchmark times separately. Each
//! workload is built from its seed alone; at [`DEFAULT_SEED`] every
//! workload reproduces a committed output byte for byte.

use std::path::Path;
use std::time::Instant;

use gkap_bench::loss_sweep::{self, BurstRow, SweepOptions, SweepRow};
use gkap_bench::scale::{scale_csv, ScaleOptions, ScaleRow};
use gkap_core::batch::{EventBatcher, MembershipBatch};
use gkap_core::experiment::{run_join, EventOutcome, ExperimentConfig, SuiteKind};
use gkap_core::protocols::ProtocolKind;
use gkap_core::scale::{
    assemble, generate_schedule, run_shard, GroupOutcome, ScaleConfig, ScaleSchedule,
};
use gkap_sim::stats::{Figure, Series, Summary};
use gkap_sim::Duration;

/// The seed at which every workload reproduces its committed output.
pub const DEFAULT_SEED: u64 = 7;

/// Repetitions per (protocol, size) cell of Fig. 11, as `repro fig11`.
const FIG11_REPS: u64 = 3;

/// Consecutive sweep seeds one `lossy_sweep` run covers.
const LOSSY_SEEDS: u64 = 10;

/// Committed outputs, by the name [`Setup::render`] gives them, with
/// their paths from the repository root.
const REFERENCES: [(&str, &str); 5] = [
    (
        "fig11_join_lan_512_s7.csv",
        "results/fig11_join_lan_512.csv",
    ),
    ("scale_g1000_c0.05_s7.csv", "results/scale_g1000_s7.csv"),
    (
        "scale_g100_c3_s7.csv",
        "perfbench/reference/scale_g100_c3_s7.csv",
    ),
    ("chaos_loss_s7.csv", "results/chaos_loss_s7.csv"),
    ("chaos_burst_s7.csv", "results/chaos_burst_s7.csv"),
];

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 11: join on the LAN, DH 512, five protocols.
    PaperLan,
    /// `scale`: 1000 three-member groups, churn 0.05.
    ScaleSparse,
    /// `scale`: 100 groups, churn 3.
    ScaleChurn,
    /// Both loss sweeps over ten consecutive seeds.
    LossySweep,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PaperLan,
        Workload::ScaleSparse,
        Workload::ScaleChurn,
        Workload::LossySweep,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLan => "paper_lan",
            Workload::ScaleSparse => "scale_sparse",
            Workload::ScaleChurn => "scale_churn",
            Workload::LossySweep => "lossy_sweep",
        }
    }

    /// Host seconds one pass over the units takes on the reference host
    /// (see README.md). An untraced run makes `seconds / pass_seconds`
    /// passes, so the pass count depends on the arguments alone.
    pub fn pass_seconds(self) -> f64 {
        match self {
            Workload::PaperLan => 7.0,
            Workload::ScaleSparse => 1.8,
            Workload::ScaleChurn => 4.5,
            Workload::LossySweep => 4.5,
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which of the two loss sweeps a `lossy_sweep` unit runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// Bernoulli loss rates (`run_sweep`).
    Bernoulli,
    /// Gilbert–Elliott bursts (`run_burst_sweep`).
    Burst,
}

/// One protocol's scale inputs: config, schedule and its batches.
#[derive(Clone, Debug)]
pub struct ScaleInput {
    /// The run configuration.
    pub cfg: ScaleConfig,
    /// The generated churn schedule.
    pub schedule: ScaleSchedule,
    /// The schedule coalesced by the batcher.
    pub batches: Vec<MembershipBatch>,
}

/// The units of a workload, in the order the library folds them.
#[derive(Clone, Debug)]
pub enum Units {
    /// One `run_join` cell each, protocol-major, then size, then rep.
    Join(Vec<(ProtocolKind, usize, u64)>),
    /// One group each: unit `i` is group `i % groups` of protocol
    /// `i / groups`.
    Scale {
        /// Options as `repro scale` would take them (CSV header).
        opts: ScaleOptions,
        /// Per protocol, in Table 1 order.
        inputs: Vec<ScaleInput>,
    },
    /// One sweep call for one protocol at one seed each.
    Lossy(Vec<(u64, ProtocolKind, Sweep)>),
}

/// What one unit produced.
#[derive(Clone, Debug)]
pub enum Output {
    /// A `run_join` outcome.
    Join(EventOutcome),
    /// One group's scale outcome.
    Group(GroupOutcome),
    /// One protocol's Bernoulli sweep rows.
    Sweep(Vec<SweepRow>),
    /// One protocol's burst sweep rows.
    Burst(Vec<BurstRow>),
}

impl Output {
    /// Every field, rendered: two outputs are the same exactly when
    /// their fingerprints are.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// An assembled output file and the units it is built from.
#[derive(Clone, Debug)]
pub struct Rendered {
    /// File name; matches [`REFERENCES`] at the default seed.
    pub name: String,
    /// CSV bytes as the library renders them.
    pub csv: String,
    /// Indices of the units folded into it.
    pub units: Vec<usize>,
}

/// A workload's inputs and reference outputs, ready to run.
#[derive(Clone, Debug)]
pub struct Setup {
    /// The workload seed.
    pub seed: u64,
    /// The units to run.
    pub units: Units,
    /// Committed outputs to compare against: (rendered name, bytes).
    pub references: Vec<(String, String)>,
    /// Host seconds spent building the crypto suite (first
    /// `SuiteKind::shared` call on this thread).
    pub suite_build_s: f64,
    /// Host seconds spent generating and batching churn schedules.
    pub schedule_s: f64,
}

/// The `run_join` seed of a Fig. 11 cell, as `build_figure_jobs` derives
/// it, moved off the committed cell seeds at any non-default workload
/// seed.
fn join_cell_seed(seed: u64, size: usize, rep: u64) -> u64 {
    let shift = (seed ^ DEFAULT_SEED).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    0x5eed ^ ((rep + 1) << 32) ^ size as u64 ^ shift
}

impl Setup {
    /// Builds a workload's full input set and reads its references.
    ///
    /// # Errors
    ///
    /// Returns a message if a committed reference cannot be read.
    pub fn new(workload: Workload, seed: u64) -> Result<Setup, String> {
        match workload {
            Workload::PaperLan => Setup::paper_lan(seed),
            Workload::ScaleSparse => Setup::scale(seed, 1000, 0.05),
            Workload::ScaleChurn => Setup::scale(seed, 100, 3.0),
            Workload::LossySweep => Setup::lossy(seed, LOSSY_SEEDS),
        }
    }

    /// Fig. 11 at 512 bits.
    pub fn paper_lan(seed: u64) -> Result<Setup, String> {
        let suite_build_s = build_suite();
        let mut cells = Vec::new();
        for p in ProtocolKind::all() {
            for size in gkap_bench::figure_sizes() {
                for rep in 0..FIG11_REPS {
                    cells.push((p, size, join_cell_seed(seed, size, rep)));
                }
            }
        }
        Setup::finish(seed, Units::Join(cells), suite_build_s, 0.0)
    }

    /// `scale` with `groups` groups and `churn` events per group, for
    /// all five protocols.
    pub fn scale(seed: u64, groups: usize, churn: f64) -> Result<Setup, String> {
        let suite_build_s = build_suite();
        let opts = ScaleOptions {
            groups,
            churn,
            window_ms: 5.0,
            protocol: None,
            seed,
            jobs: 1,
            shards: 1,
        };
        let t = Instant::now();
        let inputs = ProtocolKind::all()
            .into_iter()
            .map(|p| {
                let mut cfg = ScaleConfig::lan(p, groups);
                cfg.churn = churn;
                cfg.window = Duration::from_millis_f64(opts.window_ms);
                cfg.seed = seed;
                let schedule = generate_schedule(&cfg);
                let batches = EventBatcher::new(cfg.window).coalesce(&schedule.events);
                ScaleInput {
                    cfg,
                    schedule,
                    batches,
                }
            })
            .collect();
        let schedule_s = t.elapsed().as_secs_f64();
        Setup::finish(
            seed,
            Units::Scale { opts, inputs },
            suite_build_s,
            schedule_s,
        )
    }

    /// Both loss sweeps for `seeds` consecutive seeds from `seed`.
    pub fn lossy(seed: u64, seeds: u64) -> Result<Setup, String> {
        let suite_build_s = build_suite();
        let mut units = Vec::new();
        for s in seed..seed + seeds {
            for sweep in [Sweep::Bernoulli, Sweep::Burst] {
                for p in ProtocolKind::all() {
                    units.push((s, p, sweep));
                }
            }
        }
        Setup::finish(seed, Units::Lossy(units), suite_build_s, 0.0)
    }

    fn finish(
        seed: u64,
        units: Units,
        suite_build_s: f64,
        schedule_s: f64,
    ) -> Result<Setup, String> {
        let mut setup = Setup {
            seed,
            units,
            references: Vec::new(),
            suite_build_s,
            schedule_s,
        };
        for (name, _) in setup.files() {
            if let Some((_, path)) = REFERENCES.iter().find(|(n, _)| *n == name) {
                let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(path);
                let bytes = std::fs::read_to_string(&file)
                    .map_err(|e| format!("cannot read reference {path}: {e}"))?;
                setup.references.push((name, bytes));
            }
        }
        Ok(setup)
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        match &self.units {
            Units::Join(cells) => cells.len(),
            Units::Scale { opts, inputs } => opts.groups * inputs.len(),
            Units::Lossy(units) => units.len(),
        }
    }

    /// `true` when the workload has no units.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The experiment config of a Fig. 11 cell.
    pub fn join_config(protocol: ProtocolKind, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            seed,
            ..ExperimentConfig::lan(protocol, SuiteKind::Sim512)
        }
    }

    /// Runs unit `i` through the library's public entry point.
    pub fn run_unit(&self, i: usize) -> Output {
        match &self.units {
            Units::Join(cells) => {
                let (p, size, seed) = cells[i];
                Output::Join(run_join(&Setup::join_config(p, seed), size))
            }
            Units::Scale { opts, inputs } => {
                let input = &inputs[i / opts.groups];
                let group = i % opts.groups;
                let mut out = run_shard(
                    &input.cfg,
                    &input.schedule,
                    &input.batches,
                    opts.groups,
                    group,
                );
                Output::Group(out.pop().expect("one group per shard"))
            }
            Units::Lossy(units) => {
                let (seed, p, sweep) = units[i];
                let opts = SweepOptions {
                    seed,
                    jobs: 1,
                    protocol: Some(p),
                };
                match sweep {
                    Sweep::Bernoulli => Output::Sweep(loss_sweep::run_sweep(&opts)),
                    Sweep::Burst => Output::Burst(loss_sweep::run_burst_sweep(&opts)),
                }
            }
        }
    }

    /// The invariants every unit must hold at any seed: key agreement
    /// succeeded, every group ends keyed with `rekeys + superseded ==
    /// batches`, every sweep cell converged.
    pub fn unit_ok(&self, i: usize, out: &Output) -> bool {
        match (out, &self.units) {
            (Output::Join(o), Units::Join(_)) => o.ok,
            (Output::Group(o), Units::Scale { opts, inputs }) => {
                let batches = inputs[i / opts.groups]
                    .batches
                    .iter()
                    .filter(|b| b.group == o.group)
                    .count();
                o.ok && o.group == i % opts.groups && o.rekeys + o.superseded == batches
            }
            (Output::Sweep(rows), Units::Lossy(_)) => {
                rows.len() == 16 && rows.iter().all(|r| r.converged)
            }
            (Output::Burst(rows), Units::Lossy(_)) => {
                rows.len() == 16 && rows.iter().all(|r| r.converged)
            }
            _ => false,
        }
    }

    /// The files a pass folds into: each file's name and the units
    /// folded into it.
    fn files(&self) -> Vec<(String, Vec<usize>)> {
        let all = (0..self.len()).collect();
        match &self.units {
            Units::Join(_) => vec![(format!("fig11_join_lan_512_s{}.csv", self.seed), all)],
            Units::Scale { opts, .. } => vec![(
                format!("scale_g{}_c{}_s{}.csv", opts.groups, opts.churn, self.seed),
                all,
            )],
            Units::Lossy(units) => {
                let mut files: Vec<(String, Vec<usize>)> = Vec::new();
                for (i, &(seed, _, sweep)) in units.iter().enumerate() {
                    let name = match sweep {
                        Sweep::Bernoulli => format!("chaos_loss_s{seed}.csv"),
                        Sweep::Burst => format!("chaos_burst_s{seed}.csv"),
                    };
                    match files.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, idx)) => idx.push(i),
                        None => files.push((name, vec![i])),
                    }
                }
                files
            }
        }
    }

    /// Folds one output per unit (in unit order) into the CSV files the
    /// library's harness would write, named as [`REFERENCES`] names
    /// them.
    pub fn render(&self, outputs: &[Output]) -> Vec<Rendered> {
        self.files()
            .into_iter()
            .map(|(name, units)| {
                let csv = match &self.units {
                    Units::Join(cells) => fold_fig11(cells, outputs).to_csv(),
                    Units::Scale { opts, inputs } => {
                        scale_csv(opts, &fold_scale(opts, inputs, outputs))
                    }
                    Units::Lossy(lossy) => {
                        let (seed, _, sweep) = lossy[units[0]];
                        let picked = units.iter().map(|&i| &outputs[i]);
                        match sweep {
                            Sweep::Bernoulli => loss_sweep::sweep_csv(
                                seed,
                                &interleave(picked.map(|o| match o {
                                    Output::Sweep(rows) => rows.clone(),
                                    _ => Vec::new(),
                                })),
                            ),
                            Sweep::Burst => loss_sweep::burst_csv(
                                seed,
                                &interleave(picked.map(|o| match o {
                                    Output::Burst(rows) => rows.clone(),
                                    _ => Vec::new(),
                                })),
                            ),
                        }
                    }
                };
                Rendered { name, csv, units }
            })
            .collect()
    }

    /// Checks one full pass: every unit's invariants, and every
    /// rendered file against its committed reference when there is
    /// one. Returns whether each unit passed.
    pub fn check_pass(&self, outputs: &[Output]) -> Vec<bool> {
        let mut ok: Vec<bool> = outputs
            .iter()
            .enumerate()
            .map(|(i, o)| self.unit_ok(i, o))
            .collect();
        for file in self.render(outputs) {
            let matches = self
                .references
                .iter()
                .find(|(name, _)| *name == file.name)
                .is_none_or(|(_, bytes)| *bytes == file.csv);
            if !matches {
                for &i in &file.units {
                    ok[i] = false;
                }
            }
        }
        ok
    }
}

/// Builds (and caches on this thread) the suite every workload computes
/// with; returns the host seconds it took.
fn build_suite() -> f64 {
    let t = Instant::now();
    let _ = SuiteKind::Sim512.shared();
    t.elapsed().as_secs_f64()
}

/// Folds group outcomes into one `ScaleRow` per protocol, as
/// `bench::scale::run_all` does.
fn fold_scale(opts: &ScaleOptions, inputs: &[ScaleInput], outputs: &[Output]) -> Vec<ScaleRow> {
    inputs
        .iter()
        .zip(outputs.chunks(opts.groups))
        .map(|(input, chunk)| ScaleRow {
            protocol: input.cfg.protocol,
            run: assemble(
                &input.cfg,
                &input.schedule,
                &input.batches,
                chunk
                    .iter()
                    .filter_map(|o| match o {
                        Output::Group(g) => Some(g.clone()),
                        _ => None,
                    })
                    .collect(),
            ),
        })
        .collect()
}

/// Folds Fig. 11 cell outcomes exactly as `build_figure_jobs` does.
fn fold_fig11(cells: &[(ProtocolKind, usize, u64)], outputs: &[Output]) -> Figure {
    let mut fig = Figure::new("Figure 11 — Join, LAN, DH 512 bits");
    let mut sizes: Vec<usize> = Vec::new();
    for &(_, size, _) in cells {
        if !sizes.contains(&size) {
            sizes.push(size);
        }
    }
    let mut membership: Vec<Summary> = sizes.iter().map(|_| Summary::new()).collect();
    let mut i = 0;
    for p in ProtocolKind::all() {
        let mut series = Series::new(p.name());
        for (si, &size) in sizes.iter().enumerate() {
            let mut summary = Summary::new();
            while i < cells.len() && cells[i].0 == p && cells[i].1 == size {
                if let Output::Join(o) = &outputs[i] {
                    summary.add(o.elapsed_ms);
                    membership[si].add(o.membership_ms);
                }
                i += 1;
            }
            series.push(size as f64, summary);
        }
        fig.push(series);
    }
    let mut series = Series::new("Membership");
    for (&size, summary) in sizes.iter().zip(membership) {
        series.push(size as f64, summary);
    }
    fig.push(series);
    fig
}

/// Re-interleaves per-protocol sweep rows into the library's
/// (cell, protocol) order: row `j` of every protocol, then row `j + 1`.
fn interleave<R>(per_protocol: impl Iterator<Item = Vec<R>>) -> Vec<R> {
    let mut columns: Vec<std::vec::IntoIter<R>> =
        per_protocol.map(|rows| rows.into_iter()).collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for col in &mut columns {
            out.extend(col.next());
        }
        if out.len() == before {
            return out;
        }
    }
}
