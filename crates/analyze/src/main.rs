//! CLI for the workspace static analyzer.
//!
//! ```text
//! gkap-analyze --workspace [--deny-all] [--rule PREFIX] [--cache FILE]
//!              [--baseline FILE] [--write-baseline FILE]
//!              [--format human|json|sarif] [--output FILE]
//! gkap-analyze --root DIR [--config FILE] [--allow FILE] [...]
//! ```
//!
//! Exit codes: `0` clean, `1` findings or stale allowlist entries
//! reported, `2` usage or configuration error.
//!
//! With `--baseline`, findings whose fingerprint appears in the
//! baseline file are reported informally but do not fail the run —
//! only *new* findings (and stale allow entries) do. `--write-baseline`
//! captures the current findings as the new baseline and exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

use gkap_analyze::{analyze_report, fingerprint, output, Config, EngineOpts, Report};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Sarif,
}

struct Args {
    root: Option<PathBuf>,
    workspace: bool,
    config: Option<PathBuf>,
    allow: Option<PathBuf>,
    rule: Option<String>,
    quiet: bool,
    format: Format,
    output: Option<PathBuf>,
    cache: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: gkap-analyze (--workspace | --root DIR) [--config FILE] [--allow FILE] \
     [--rule PREFIX] [--format human|json|sarif] [--output FILE] [--cache FILE] \
     [--baseline FILE] [--write-baseline FILE] [--deny-all] [--quiet]"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        workspace: false,
        config: None,
        allow: None,
        rule: None,
        quiet: false,
        format: Format::Human,
        output: None,
        cache: None,
        baseline: None,
        write_baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => {
                args.root = Some(PathBuf::from(it.next().ok_or("--root needs a directory")?))
            }
            "--config" => {
                args.config = Some(PathBuf::from(it.next().ok_or("--config needs a file")?))
            }
            "--allow" => args.allow = Some(PathBuf::from(it.next().ok_or("--allow needs a file")?)),
            "--rule" => args.rule = Some(it.next().ok_or("--rule needs a prefix")?),
            "--format" => {
                args.format = match it.next().as_deref() {
                    Some("human") => Format::Human,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        return Err(format!(
                            "--format needs human|json|sarif, got `{}`",
                            other.unwrap_or("")
                        ))
                    }
                }
            }
            "--output" => {
                args.output = Some(PathBuf::from(it.next().ok_or("--output needs a file")?))
            }
            "--cache" => args.cache = Some(PathBuf::from(it.next().ok_or("--cache needs a file")?)),
            "--baseline" => {
                args.baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a file")?))
            }
            "--write-baseline" => {
                args.write_baseline = Some(PathBuf::from(
                    it.next().ok_or("--write-baseline needs a file")?,
                ))
            }
            // Findings always fail the run; the flag is accepted so CI
            // invocations read explicitly.
            "--deny-all" => {}
            "--quiet" | "-q" => args.quiet = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if !args.workspace && args.root.is_none() {
        return Err(usage().to_string());
    }
    Ok(args)
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring a `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace root found above the current directory".to_string());
        }
    }
}

fn emit(args: &Args, report: &Report, root: &std::path::Path) -> Result<(), String> {
    let rendered = match args.format {
        Format::Json => output::render_json(report),
        Format::Sarif => output::render_sarif(report),
        Format::Human => {
            let mut s = String::new();
            for f in &report.findings {
                s.push_str(&format!("{f}\n"));
            }
            for f in &report.baselined {
                s.push_str(&format!("{f} (baselined)\n"));
            }
            for stale in &report.stale_allows {
                s.push_str(&format!(
                    "analyze.allow: stale entry `{stale}` matches no current finding — remove it\n"
                ));
            }
            if report.findings.is_empty() && report.stale_allows.is_empty() {
                s.push_str(&format!(
                    "gkap-analyze: clean (root {}, {} files, {} cached)\n",
                    root.display(),
                    report.files,
                    report.cache_hits
                ));
            } else {
                s.push_str(&format!(
                    "gkap-analyze: {} finding(s), {} stale allow entr(y/ies)\n",
                    report.findings.len(),
                    report.stale_allows.len()
                ));
            }
            s
        }
    };
    match &args.output {
        Some(path) => {
            std::fs::write(path, rendered).map_err(|e| format!("{}: {e}", path.display()))
        }
        None => {
            if !args.quiet || args.format != Format::Human {
                print!("{rendered}");
            } else {
                // Quiet human mode still reports the failure line.
                if !report.findings.is_empty() || !report.stale_allows.is_empty() {
                    println!(
                        "gkap-analyze: {} finding(s), {} stale allow entr(y/ies)",
                        report.findings.len(),
                        report.stale_allows.len()
                    );
                }
            }
            Ok(())
        }
    }
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let root = match (&args.root, args.workspace) {
        (Some(r), _) => r.clone(),
        _ => find_workspace_root()?,
    };

    let mut cfg = match &args.config {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Config::parse_conf(&text)?
        }
        None => {
            // `--root DIR` with an `analyze.conf` in DIR picks it up;
            // otherwise the embedded workspace scopes apply.
            let default = root.join("analyze.conf");
            if args.root.is_some() && default.is_file() {
                let text = std::fs::read_to_string(&default)
                    .map_err(|e| format!("{}: {e}", default.display()))?;
                Config::parse_conf(&text)?
            } else {
                Config::workspace_default()
            }
        }
    };

    let allow_path = args
        .allow
        .clone()
        .unwrap_or_else(|| root.join("analyze.allow"));
    if allow_path.is_file() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("{}: {e}", allow_path.display()))?;
        cfg.parse_allowlist(&text)?;
    }

    let baseline = match &args.baseline {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Some(fingerprint::parse_baseline(&text))
        }
        None => None,
    };

    let opts = EngineOpts {
        cache_path: args.cache.clone(),
        baseline: if args.write_baseline.is_some() {
            // Capture mode sees every finding, baselined or not.
            None
        } else {
            baseline
        },
    };

    let mut report = analyze_report(&root, &cfg, &opts)?;
    if let Some(prefix) = &args.rule {
        report
            .findings
            .retain(|f| f.rule.starts_with(prefix.as_str()));
        report
            .baselined
            .retain(|f| f.rule.starts_with(prefix.as_str()));
    }

    if let Some(path) = &args.write_baseline {
        let text = fingerprint::render_baseline(&report.findings);
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        if !args.quiet {
            println!(
                "gkap-analyze: wrote {} fingerprint(s) to {}",
                report.findings.len(),
                path.display()
            );
        }
        // Stale allow entries still fail capture runs so the allowlist
        // cannot rot behind a baseline refresh.
        return Ok(report.stale_allows.is_empty());
    }

    emit(&args, &report, &root)?;
    Ok(report.findings.is_empty() && report.stale_allows.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("gkap-analyze: {msg}");
            ExitCode::from(2)
        }
    }
}
