//! `gkap-analyze` — the workspace static analyzer.
//!
//! Parses every in-scope Rust source file in the workspace (own lexer +
//! item parser; the build environment is offline so there is no `syn`),
//! builds a per-function call graph, and enforces six rule families:
//!
//! * **L1 panic-freedom** — no `unwrap`/`expect`/`panic!`/raw indexing
//!   in protocol drivers, the secure session layer or the GCS engine.
//! * **L2 secret hygiene** — DH exponents, RSA private keys and group
//!   keys live in `Secret<T>`, never derive `Debug`, and never flow
//!   into formatting / serialization sinks. `L2-FLOW` runs a
//!   field-sensitive interprocedural taint fixpoint (see `taint`).
//! * **L3 constant-time discipline** — verification paths compare with
//!   `ct_eq`; `ct_*` kernels have no early exits or data-dependent
//!   indexing.
//! * **L4 sim determinism** — no wall-clock time, ambient RNG or
//!   hash-order iteration in event-ordering paths.
//! * **L5 arithmetic soundness** — unchecked `+`/`-`/`*`/`<<`,
//!   truncating `as` casts and mixed-width comparisons in the bignum /
//!   FEC kernels, with a bounded-operand suppression lattice (`arith`).
//! * **L6 parallel determinism** — `static mut`, `Ordering::Relaxed`
//!   counters, unbracketed `KernelOps` reads and arrival-order result
//!   folds in the `--jobs` execution paths (`rules::check_l6`).
//!
//! Diagnostics are rustc-style `file:line:col: error[RULE]: message`.
//! Each finding carries a stable fingerprint (`fingerprint`), so CI can
//! gate on *new* findings against a committed `analyze.baseline`. An
//! incremental per-file cache (`cache`) keyed by content hash keeps
//! repeat runs fast. See `DESIGN.md` §11/§16.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

pub mod arith;
pub mod cache;
pub mod callgraph;
pub mod config;
pub mod fingerprint;
pub mod lexer;
pub mod output;
pub mod parse;
pub mod rules;
pub mod taint;

pub use config::Config;

/// One diagnostic.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule id (`"L1-PANIC"`, …).
    pub rule: String,
    /// Root-relative `/`-separated path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based UTF-8 character column (1 when the finding is
    /// item-level rather than token-level).
    pub col: u32,
    /// Enclosing function name (empty for item-level findings).
    pub func: String,
    /// Human-readable explanation.
    pub msg: String,
    /// Stable identity across unrelated edits; see `fingerprint`.
    pub fingerprint: String,
}

impl Finding {
    /// A finding with no function / fingerprint assigned yet (both are
    /// filled by post-passes).
    pub fn new(rule: &str, file: &str, line: u32, col: u32, msg: impl Into<String>) -> Self {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            col,
            func: String::new(),
            msg: msg.into(),
            fingerprint: String::new(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.msg
        )
    }
}

/// Directories never descended into during discovery.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "fixtures", "node_modules"];

/// Engine options for [`analyze_report`].
#[derive(Debug, Default)]
pub struct EngineOpts {
    /// Incremental cache file (loaded if present, rewritten after).
    pub cache_path: Option<PathBuf>,
    /// Accepted fingerprints: findings in this set are reported under
    /// `Report::baselined` instead of `Report::findings`.
    pub baseline: Option<BTreeSet<String>>,
}

/// The full result of an analyzer run.
#[derive(Debug, Default)]
pub struct Report {
    /// New findings: not allowlisted, not in the baseline.
    pub findings: Vec<Finding>,
    /// Findings suppressed by the fingerprint baseline.
    pub baselined: Vec<Finding>,
    /// Allowlist entries (rendered `RULE glob [fn=name]`) that matched
    /// no current finding — stale entries fail the run.
    pub stale_allows: Vec<String>,
    /// Files analyzed.
    pub files: usize,
    /// Files whose local findings were served from the cache.
    pub cache_hits: usize,
}

/// Recursively collects `.rs` files under `root` whose root-relative
/// path is matched by at least one scope glob. Paths come back sorted
/// so runs are deterministic.
pub fn discover_files(root: &Path, cfg: &Config) -> Result<Vec<(String, String)>, String> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, &mut paths)?;
    paths.sort();
    let mut out = Vec::new();
    for p in paths {
        let rel = config::rel_path(root, &p);
        if !cfg.is_interesting(&rel) {
            continue;
        }
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        out.push((rel, text));
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes every in-scope file under `root` and returns the surviving
/// findings, sorted by `(file, line, rule)`. Thin wrapper over
/// [`analyze_report`] with no cache and no baseline.
pub fn analyze_root(root: &Path, cfg: &Config) -> Result<Vec<Finding>, String> {
    let report = analyze_report(root, cfg, &EngineOpts::default())?;
    Ok(report.findings)
}

/// Analyzes pre-loaded `(rel_path, contents)` pairs. Split out so the
/// fixture tests can drive the analyzer without touching the real
/// filesystem layout. Runs the taint-mode flow engine and the full
/// post-processing (function attribution, fingerprints, allowlist).
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    let files: Vec<(String, parse::ParsedFile)> = sources
        .iter()
        .map(|(rel, text)| (rel.clone(), parse::parse(text)))
        .collect();
    let graph = callgraph::CallGraph::build(&files);
    let mut raw = Vec::new();
    for (path, pf) in &files {
        rules::check_file_local(path, pf, cfg, &mut raw);
    }
    taint::check(&files, &graph, cfg, &mut raw);
    let mut all = dedup_sort(raw);
    rules::fill_funcs(&files, &mut all);
    assign_fingerprints(sources, &mut all);
    let mut used = vec![false; cfg.allows.len()];
    all.retain(|f| !mark_allowed(cfg, f, &mut used));
    all
}

/// The full engine: discovery, incremental cache, local + flow rules,
/// function attribution, fingerprints, allowlist with stale tracking,
/// baseline split.
pub fn analyze_report(root: &Path, cfg: &Config, opts: &EngineOpts) -> Result<Report, String> {
    let sources = discover_files(root, cfg)?;
    let cfg_digest = cache::config_digest(cfg);
    let mut store = match &opts.cache_path {
        Some(p) => cache::Cache::load(p, cfg_digest),
        None => cache::Cache::empty(cfg_digest),
    };

    let hashes: Vec<u64> = sources
        .iter()
        .map(|(_, text)| cache::content_hash(text))
        .collect();
    let ws_digest = cache::workspace_digest(
        sources
            .iter()
            .map(|(rel, _)| rel.as_str())
            .zip(hashes.iter().copied()),
    );

    // Per-file local findings: serve unchanged files from the cache.
    let mut cache_hits = 0usize;
    let mut local: Vec<Option<Vec<Finding>>> = Vec::with_capacity(sources.len());
    for (i, (rel, _)) in sources.iter().enumerate() {
        match store.lookup_file(rel, hashes[i]) {
            Some(cached) => {
                cache_hits += 1;
                local.push(Some(cached));
            }
            None => local.push(None),
        }
    }
    let global_cached = store.lookup_global(ws_digest);

    // Parse what the run needs: everything when the flow fixpoint must
    // rerun (any content change), otherwise only the local misses.
    let need_all = global_cached.is_none();
    let parsed: Vec<Option<parse::ParsedFile>> = sources
        .iter()
        .enumerate()
        .map(|(i, (_, text))| (need_all || local[i].is_none()).then(|| parse::parse(text)))
        .collect();

    for (i, slot) in local.iter_mut().enumerate() {
        if slot.is_some() {
            continue;
        }
        let (rel, _) = &sources[i];
        let pf = parsed[i].as_ref().ok_or("internal: missing parse")?;
        let mut raw = Vec::new();
        rules::check_file_local(rel, pf, cfg, &mut raw);
        let mut batch = dedup_sort(raw);
        let one = [(rel.clone(), pf.clone())];
        rules::fill_funcs(&one, &mut batch);
        assign_fingerprints(&sources[i..=i], &mut batch);
        store.store_file(rel, hashes[i], &batch);
        *slot = Some(batch);
    }

    let global = match global_cached {
        Some(g) => g,
        None => {
            let files: Vec<(String, parse::ParsedFile)> = sources
                .iter()
                .zip(&parsed)
                .filter_map(|((rel, _), pf)| pf.clone().map(|pf| (rel.clone(), pf)))
                .collect();
            let graph = callgraph::CallGraph::build(&files);
            let mut raw = Vec::new();
            taint::check(&files, &graph, cfg, &mut raw);
            let mut batch = dedup_sort(raw);
            rules::fill_funcs(&files, &mut batch);
            assign_fingerprints(&sources, &mut batch);
            store.store_global(ws_digest, &batch);
            batch
        }
    };

    if let Some(p) = &opts.cache_path {
        // Cache write failures are non-fatal: the run is still correct,
        // just cold next time.
        let _ = store.save(p);
    }

    let mut all: Vec<Finding> = local.into_iter().flatten().flatten().collect();
    all.extend(global);
    let mut all = dedup_sort(all);

    let mut used = vec![false; cfg.allows.len()];
    all.retain(|f| !mark_allowed(cfg, f, &mut used));
    let stale_allows: Vec<String> = cfg
        .allows
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(a, _)| a.render())
        .collect();

    let (baselined, findings) = match &opts.baseline {
        Some(base) => all.into_iter().partition(|f| base.contains(&f.fingerprint)),
        None => (Vec::new(), all),
    };

    Ok(Report {
        findings,
        baselined,
        stale_allows,
        files: sources.len(),
        cache_hits,
    })
}

/// Dedups per `(rule, file, line)` and sorts by `(file, line, rule)`.
fn dedup_sort(raw: Vec<Finding>) -> Vec<Finding> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    let mut sorted = raw;
    sorted.sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    for f in sorted {
        if seen.insert((f.rule.clone(), f.file.clone(), f.line)) {
            out.push(f);
        }
    }
    out
}

/// Marks every allowlist entry matching `f` as used; returns whether
/// any matched.
fn mark_allowed(cfg: &Config, f: &Finding, used: &mut [bool]) -> bool {
    let mut hit = false;
    for (i, a) in cfg.allows.iter().enumerate() {
        if a.matches(&f.rule, &f.file, &f.func) {
            used[i] = true;
            hit = true;
        }
    }
    hit
}

/// Computes fingerprints for `findings`, resolving source lines from
/// the in-memory `sources`.
fn assign_fingerprints(sources: &[(String, String)], findings: &mut [Finding]) {
    let lines: BTreeMap<&str, Vec<&str>> = sources
        .iter()
        .map(|(rel, text)| (rel.as_str(), text.lines().collect()))
        .collect();
    fingerprint::assign(findings, |file, line| {
        lines
            .get(file)
            .and_then(|ls| ls.get(line.checked_sub(1)? as usize))
            .copied()
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_display_is_rustc_style() {
        let f = Finding::new(
            "L1-PANIC",
            "crates/core/src/session.rs",
            83,
            12,
            "`.expect()` in protocol path",
        );
        assert_eq!(
            f.to_string(),
            "crates/core/src/session.rs:83:12: error[L1-PANIC]: `.expect()` in protocol path"
        );
    }

    #[test]
    fn analyze_sources_end_to_end() {
        let cfg = Config::parse_conf("scope L1 src/**").unwrap();
        let sources = vec![(
            "src/driver.rs".to_string(),
            "fn step(v: Option<u8>) -> u8 { v.unwrap() }".to_string(),
        )];
        let findings = analyze_sources(&sources, &cfg);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "L1-PANIC");
        assert_eq!(findings[0].file, "src/driver.rs");
        assert_eq!(findings[0].func, "step");
        assert!(!findings[0].fingerprint.is_empty());
    }

    #[test]
    fn function_scoped_allow_entries() {
        let mut cfg = Config::parse_conf("scope L1 src/**").unwrap();
        cfg.parse_allowlist("L1-PANIC src/driver.rs fn=step # audited\n")
            .unwrap();
        let sources = vec![(
            "src/driver.rs".to_string(),
            "fn step(v: Option<u8>) -> u8 { v.unwrap() }\nfn other(v: Option<u8>) -> u8 { v.unwrap() }".to_string(),
        )];
        let findings = analyze_sources(&sources, &cfg);
        // Only `other`'s unwrap survives: the allow is pinned to `step`.
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].func, "other");
    }
}
