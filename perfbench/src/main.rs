//! `gkap-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints its metrics, one per line, then the
//! result as one JSON object on the last line. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer split. `--workload all`
//! runs every workload both ways, each in its own process so that peak
//! memory is per workload.

use std::process::{Command, ExitCode};

use gkap_perfbench::run::{measure, trace, Report};
use gkap_perfbench::workload::{Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: gkap-perfbench --workload <paper_lan|scale_sparse|scale_churn|lossy_sweep|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut saw_workload = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                saw_workload = true;
                parsed.workload = match value.as_str() {
                    "all" => None,
                    name => Some(Workload::parse(name).ok_or_else(bad)?),
                };
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if saw_workload {
        Ok(parsed)
    } else {
        Err("--workload is required".to_string())
    }
}

fn print(report: &Report) {
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report.json());
}

/// Runs every workload untraced and traced, each in a child process.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut all_ok = true;
    for w in Workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
            print!("{}", String::from_utf8_lossy(&out.stdout));
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let correct = String::from_utf8_lossy(&out.stdout)
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\": true"));
            all_ok &= out.status.success() && correct;
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gkap-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        None => run_all(&args).map(|ok| {
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }),
        Some(w) => {
            let report = if args.trace {
                trace(w, args.seed)
            } else {
                measure(w, args.seed, args.seconds)
            };
            report.map(|r| {
                print(&r);
                ExitCode::SUCCESS
            })
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("gkap-perfbench: {e}");
        ExitCode::FAILURE
    })
}
