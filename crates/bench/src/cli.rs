//! Argument parsing for the `repro` binary.
//!
//! Kept out of `bin/repro.rs` so the accepted grammar is unit-testable:
//! flags and positionals may be interleaved in any order
//! (`--quiet trace fig11`, `fig11 --jobs 4 --reps 5` and
//! `--jobs 4 fig11` are all equivalent spellings).

use gkap_core::par;

/// Parsed `repro` invocation.
#[derive(Clone, Debug, PartialEq)]
pub struct CliOptions {
    /// The command (first positional; defaults to `all`).
    pub cmd: String,
    /// The optional figure argument (second positional, used by
    /// `trace`/`trace-summary`; the baseline manifest path for
    /// `bench-diff`).
    pub figure: Option<String>,
    /// Third positional: the candidate manifest path for `bench-diff`.
    pub arg2: Option<String>,
    /// Also write collapsed-stack (flamegraph) output for `trace`
    /// (`--folded`).
    pub folded: bool,
    /// Repetitions per figure point (`--reps N`, default 3).
    pub reps: u32,
    /// Worker threads for the experiment grids (`--jobs N` / `-j N`,
    /// default: the host's available parallelism).
    pub jobs: usize,
    /// Silence tables and notes (`--quiet` / `-q`).
    pub quiet: bool,
    /// Campaign seed for `chaos` (`--seed N`, default 7).
    pub seed: u64,
    /// Number of chaos schedules per campaign (`--runs N`, default 8).
    pub runs: u32,
    /// Concurrent groups for `scale` (`--groups N`, default 64).
    pub groups: usize,
    /// Expected churn events per group for `scale` (`--churn R`,
    /// default 0.1).
    pub churn: f64,
    /// Batching window in milliseconds for `scale` (`--window MS`,
    /// default 5; 0 disables batching).
    pub window_ms: f64,
    /// Restrict `scale` to one protocol (`--protocol NAME`; all five
    /// when absent).
    pub protocol: Option<String>,
    /// Independent ring shards for `scale` (`--shards N`, default 1).
    /// A pure execution knob: output is bit-identical for any value.
    pub shards: usize,
    /// Run the loss-rate sweep variant of `chaos` (`--loss-sweep`):
    /// loss rates × {FEC, retransmission-only} on the LAN and WAN
    /// testbeds instead of the randomized fault campaign.
    pub loss_sweep: bool,
    /// With `--loss-sweep`, sweep Gilbert–Elliott burst cells
    /// ({burst length} × {bad-state rate}) instead of Bernoulli
    /// rates (`--burst`).
    pub burst: bool,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            cmd: "all".into(),
            figure: None,
            arg2: None,
            folded: false,
            reps: 3,
            jobs: par::default_jobs(),
            quiet: false,
            seed: 7,
            runs: 8,
            groups: 64,
            churn: 0.1,
            window_ms: 5.0,
            protocol: None,
            shards: 1,
            loss_sweep: false,
            burst: false,
        }
    }
}

/// Parses the argument list (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for malformed flags — notably
/// `--jobs 0`, which is rejected rather than silently treated as
/// serial (`--jobs 1` is the explicit serial spelling), and `--reps 0`.
pub fn parse(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut positional: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quiet" | "-q" => opts.quiet = true,
            "--folded" => opts.folded = true,
            "--loss-sweep" => opts.loss_sweep = true,
            "--burst" => opts.burst = true,
            "--reps" => {
                i += 1;
                let v = args.get(i).ok_or("--reps requires a value")?;
                let reps: u32 = v
                    .parse()
                    .map_err(|_| format!("invalid --reps value: {v}"))?;
                // Zero repetitions would write all-zero figure rows over
                // the committed CSVs.
                if reps == 0 {
                    return Err("--reps must be at least 1".into());
                }
                opts.reps = reps;
            }
            "--jobs" | "-j" => {
                i += 1;
                let v = args.get(i).ok_or("--jobs requires a value")?;
                let jobs: usize = v
                    .parse()
                    .map_err(|_| format!("invalid --jobs value: {v}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1 (use --jobs 1 for a serial run)".into());
                }
                opts.jobs = jobs;
            }
            "--seed" => {
                i += 1;
                let v = args.get(i).ok_or("--seed requires a value")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("invalid --seed value: {v}"))?;
            }
            "--runs" => {
                i += 1;
                let v = args.get(i).ok_or("--runs requires a value")?;
                let runs: u32 = v
                    .parse()
                    .map_err(|_| format!("invalid --runs value: {v}"))?;
                if runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
                opts.runs = runs;
            }
            "--groups" => {
                i += 1;
                let v = args.get(i).ok_or("--groups requires a value")?;
                let groups: usize = v
                    .parse()
                    .map_err(|_| format!("invalid --groups value: {v}"))?;
                if groups == 0 {
                    return Err("--groups must be at least 1".into());
                }
                opts.groups = groups;
            }
            "--churn" => {
                i += 1;
                let v = args.get(i).ok_or("--churn requires a value")?;
                let churn: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid --churn value: {v}"))?;
                if !churn.is_finite() || churn < 0.0 {
                    return Err(format!("--churn must be a finite non-negative rate: {v}"));
                }
                opts.churn = churn;
            }
            "--window" => {
                i += 1;
                let v = args.get(i).ok_or("--window requires a value (ms)")?;
                let window: f64 = v
                    .parse()
                    .map_err(|_| format!("invalid --window value: {v}"))?;
                if !window.is_finite() || window < 0.0 {
                    return Err(format!(
                        "--window must be a finite non-negative ms value: {v}"
                    ));
                }
                opts.window_ms = window;
            }
            "--protocol" => {
                i += 1;
                let v = args.get(i).ok_or("--protocol requires a name")?;
                opts.protocol = Some(v.clone());
            }
            "--shards" => {
                i += 1;
                let v = args.get(i).ok_or("--shards requires a value")?;
                let shards: usize = v
                    .parse()
                    .map_err(|_| format!("invalid --shards value: {v}"))?;
                if shards == 0 {
                    return Err(
                        "--shards must be at least 1 (use --shards 1 for a single ring)".into(),
                    );
                }
                opts.shards = shards;
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag: {flag}")),
            pos => positional.push(pos),
        }
        i += 1;
    }
    if let Some(cmd) = positional.first() {
        opts.cmd = (*cmd).to_string();
    }
    opts.figure = positional.get(1).map(|s| (*s).to_string());
    opts.arg2 = positional.get(2).map(|s| (*s).to_string());
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.cmd, "all");
        assert_eq!(o.figure, None);
        assert_eq!(o.reps, 3);
        assert!(o.jobs >= 1);
        assert!(!o.quiet);
    }

    #[test]
    fn jobs_accepted_in_any_position() {
        for argv in [
            ["--jobs", "4", "fig11"],
            ["fig11", "--jobs", "4"],
            ["fig11", "-j", "4"],
        ] {
            let o = parse(&args(&argv)).unwrap();
            assert_eq!(o.cmd, "fig11", "{argv:?}");
            assert_eq!(o.jobs, 4, "{argv:?}");
        }
        let o = parse(&args(&["--quiet", "fig11", "--jobs", "2", "--reps", "5"])).unwrap();
        assert_eq!(
            (o.cmd.as_str(), o.jobs, o.reps, o.quiet),
            ("fig11", 2, 5, true)
        );
    }

    #[test]
    fn jobs_zero_rejected_with_clear_error() {
        let err = parse(&args(&["fig11", "--jobs", "0"])).unwrap_err();
        assert!(err.contains("--jobs must be at least 1"), "{err}");
    }

    #[test]
    fn malformed_flag_values_rejected() {
        assert!(parse(&args(&["--jobs"])).is_err());
        assert!(parse(&args(&["--jobs", "many"])).is_err());
        assert!(parse(&args(&["--reps", "-1"])).is_err());
        assert!(parse(&args(&["--frobnicate"])).is_err());
        let err = parse(&args(&["fig14", "--reps", "0", "--jobs", "1"])).unwrap_err();
        assert!(err.contains("--reps must be at least 1"), "{err}");
    }

    #[test]
    fn chaos_seed_and_runs_parse_in_any_position() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.seed, o.runs), (7, 8));
        for argv in [
            ["chaos", "--seed", "42", "--runs", "3"],
            ["--runs", "3", "chaos", "--seed", "42"],
        ] {
            let o = parse(&args(&argv)).unwrap();
            assert_eq!(o.cmd, "chaos", "{argv:?}");
            assert_eq!((o.seed, o.runs), (42, 3), "{argv:?}");
        }
        assert!(parse(&args(&["--seed"])).is_err());
        assert!(parse(&args(&["--seed", "many"])).is_err());
        let err = parse(&args(&["chaos", "--runs", "0"])).unwrap_err();
        assert!(err.contains("--runs must be at least 1"), "{err}");
    }

    #[test]
    fn scale_flags_parse_and_validate() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.groups, o.churn, o.window_ms), (64, 0.1, 5.0));
        assert_eq!(o.protocol, None);
        let o = parse(&args(&[
            "scale",
            "--groups",
            "1000",
            "--churn",
            "0.05",
            "--window",
            "2.5",
            "--protocol",
            "tgdh",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(o.cmd, "scale");
        assert_eq!((o.groups, o.churn, o.window_ms), (1000, 0.05, 2.5));
        assert_eq!(o.protocol.as_deref(), Some("tgdh"));
        assert_eq!(o.seed, 9);
        assert!(parse(&args(&["--groups", "0"])).is_err());
        assert!(parse(&args(&["--groups", "many"])).is_err());
        assert!(parse(&args(&["--churn", "-1"])).is_err());
        assert!(parse(&args(&["--churn", "NaN"])).is_err());
        assert!(parse(&args(&["--window", "-2"])).is_err());
        assert!(parse(&args(&["--protocol"])).is_err());
    }

    #[test]
    fn shards_flag_parses_and_rejects_zero() {
        assert_eq!(parse(&[]).unwrap().shards, 1, "single ring by default");
        for argv in [["scale", "--shards", "4"], ["--shards", "4", "scale"]] {
            let o = parse(&args(&argv)).unwrap();
            assert_eq!((o.cmd.as_str(), o.shards), ("scale", 4), "{argv:?}");
        }
        let err = parse(&args(&["scale", "--shards", "0"])).unwrap_err();
        assert!(err.contains("--shards must be at least 1"), "{err}");
        assert!(parse(&args(&["--shards"])).is_err());
        assert!(parse(&args(&["--shards", "many"])).is_err());
    }

    #[test]
    fn loss_sweep_flag_parses_in_any_position() {
        assert!(!parse(&[]).unwrap().loss_sweep, "off by default");
        for argv in [
            ["chaos", "--loss-sweep", "--seed", "7"],
            ["--loss-sweep", "chaos", "--seed", "7"],
        ] {
            let o = parse(&args(&argv)).unwrap();
            assert_eq!(o.cmd, "chaos", "{argv:?}");
            assert!(o.loss_sweep, "{argv:?}");
            assert_eq!(o.seed, 7, "{argv:?}");
        }
    }

    #[test]
    fn burst_flag_parses_in_any_position() {
        assert!(!parse(&[]).unwrap().burst, "off by default");
        for argv in [
            ["chaos", "--loss-sweep", "--burst"],
            ["--burst", "chaos", "--loss-sweep"],
        ] {
            let o = parse(&args(&argv)).unwrap();
            assert_eq!(o.cmd, "chaos", "{argv:?}");
            assert!(o.loss_sweep && o.burst, "{argv:?}");
        }
    }

    #[test]
    fn gkap_jobs_env_is_the_default_and_the_flag_wins() {
        // One test owns the variable end to end, so the parallel test
        // runner never sees it set outside this scope.
        std::env::set_var("GKAP_JOBS", "3");
        let o = parse(&[]).unwrap();
        assert_eq!(o.jobs, 3, "GKAP_JOBS sets the default worker count");
        let o = parse(&args(&["scale", "--jobs", "5"])).unwrap();
        assert_eq!(o.jobs, 5, "an explicit --jobs beats the environment");
        std::env::set_var("GKAP_JOBS", "0");
        let o = parse(&[]).unwrap();
        assert!(o.jobs >= 1, "a nonsense GKAP_JOBS falls back to hardware");
        std::env::remove_var("GKAP_JOBS");
    }

    #[test]
    fn positionals_interleave_with_flags() {
        let o = parse(&args(&["--quiet", "trace", "--jobs", "3", "fig14"])).unwrap();
        assert_eq!(o.cmd, "trace");
        assert_eq!(o.figure.as_deref(), Some("fig14"));
        assert!(o.quiet);
        assert_eq!(o.jobs, 3);
    }

    #[test]
    fn folded_flag_and_bench_diff_positionals() {
        let o = parse(&args(&["trace", "fig14", "--folded"])).unwrap();
        assert!(o.folded);
        assert_eq!(o.figure.as_deref(), Some("fig14"));
        assert!(!parse(&[]).unwrap().folded);
        let o = parse(&args(&[
            "bench-diff",
            "results/baselines/a.json",
            "results/RUN_b.json",
        ]))
        .unwrap();
        assert_eq!(o.cmd, "bench-diff");
        assert_eq!(o.figure.as_deref(), Some("results/baselines/a.json"));
        assert_eq!(o.arg2.as_deref(), Some("results/RUN_b.json"));
    }
}
