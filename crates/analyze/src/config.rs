//! Analyzer configuration: rule scopes (which files each rule family
//! inspects), the allowlist, and the embedded workspace defaults.
//!
//! # Scope file format
//!
//! A config file is line-based; `#` starts a comment. Each scope line:
//!
//! ```text
//! scope <RULE-PREFIX> <glob> [<glob>…]
//! ```
//!
//! A rule applies to a file when any glob for a prefix of its id
//! matches the file's root-relative path (`/`-separated). Globs
//! support `*` (within one path segment) and `**` (any number of
//! segments).
//!
//! # Allowlist format (`analyze.allow`)
//!
//! ```text
//! <RULE-ID> <glob> [fn=<name>] # reason (required)
//! ```
//!
//! Allowlist entries suppress findings of exactly that rule id in
//! matching files; the optional `fn=<name>` field narrows the entry to
//! one enclosing function, which is how arithmetic proof obligations
//! are recorded per kernel. Every entry must carry a reason after `#`
//! — an entry without one is itself reported as a configuration
//! error, and an entry matching no current finding is *stale* and
//! fails the run (see `Report::stale_allows`).

use std::path::Path;

/// One scope entry: rule-id prefix plus path glob.
#[derive(Clone, Debug)]
pub struct Scope {
    /// Rule id prefix (`"L1"` covers `L1-PANIC` and `L1-INDEX`).
    pub rule_prefix: String,
    /// Root-relative glob.
    pub glob: String,
}

/// One allowlist entry.
#[derive(Clone, Debug)]
pub struct Allow {
    /// Exact rule id (or prefix) to suppress.
    pub rule: String,
    /// Root-relative glob of files it applies to.
    pub glob: String,
    /// When set, the entry only covers findings inside this function.
    pub func: Option<String>,
    /// Mandatory justification.
    pub reason: String,
}

impl Allow {
    /// Whether this entry suppresses a finding of `rule` in `rel_path`
    /// whose enclosing function is `func`.
    pub fn matches(&self, rule: &str, rel_path: &str, func: &str) -> bool {
        rule.starts_with(self.rule.as_str())
            && glob_match(&self.glob, rel_path)
            && self.func.as_deref().is_none_or(|f| f == func)
    }

    /// The entry as written (sans reason), for stale-entry reports.
    pub fn render(&self) -> String {
        match &self.func {
            Some(f) => format!("{} {} fn={f}", self.rule, self.glob),
            None => format!("{} {}", self.rule, self.glob),
        }
    }
}

/// Full analyzer configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Rule scopes.
    pub scopes: Vec<Scope>,
    /// Allowlist entries.
    pub allows: Vec<Allow>,
}

impl Config {
    /// The embedded default scopes for this workspace (see DESIGN.md
    /// §11 for the rationale behind each scope).
    pub fn workspace_default() -> Self {
        let mut cfg = Config::default();
        let scopes: &[(&str, &[&str])] = &[
            // L1 panic-freedom: protocol drivers, the secure session
            // layer and the GCS engine. Harness/experiment code and
            // shared data structures (tree.rs documents its arena
            // invariants with `# Panics`) are out of scope.
            (
                "L1",
                &[
                    "crates/core/src/protocols/**",
                    "crates/core/src/session.rs",
                    "crates/core/src/member.rs",
                    "crates/core/src/envelope.rs",
                    "crates/gcs/src/engine.rs",
                ],
            ),
            // The FEC codec sits on the engine's delivery path: decode
            // runs on every parity-repaired gap, so it must degrade to
            // `None`, never panic. Indexing stays out — the GF(256)
            // tables are fixed-size and the shard loops are
            // length-checked (same rationale as the figure builders).
            ("L1-PANIC", &["crates/gcs/src/fec.rs"]),
            // The Gilbert–Elliott loss chain advances on the engine's
            // per-copy delivery path (every `lose_copy` consults it),
            // so it carries the same contract as the FEC codec: no
            // panics, and — being pure integer dwell arithmetic — no
            // unchecked overflow either (L5; L4 already covers it via
            // the gcs-wide determinism scope).
            ("L1-PANIC", &["crates/gcs/src/loss.rs"]),
            ("L5", &["crates/gcs/src/loss.rs"]),
            // The repro surface must degrade to error returns, never
            // panic — so the panic rule (and only it: indexing over
            // static tables is idiomatic in figure builders, so
            // L1-INDEX stays out) extends to the whole bench crate,
            // including `bin/repro.rs` and the manifest writer/parser
            // (`manifest.rs` must survive arbitrary JSON input), plus
            // the typed metrics layer that every workload records into.
            (
                "L1-PANIC",
                &["crates/bench/src/**", "crates/telemetry/src/metrics*.rs"],
            ),
            // L2 secret hygiene: everywhere secrets or telemetry live.
            (
                "L2",
                &[
                    "crates/crypto/src/**",
                    "crates/core/src/**",
                    "crates/telemetry/src/**",
                ],
            ),
            // L3 constant-time discipline: the bignum substrate and the
            // crypto crate's verification paths.
            ("L3", &["crates/bignum/src/**", "crates/crypto/src/**"]),
            // L4 determinism: the simulator and the GCS engine — every
            // path that can influence event or message ordering — plus
            // the typed metrics layer and the run-manifest writer, whose
            // rendered bytes must be a pure function of the run
            // (bit-identical across `--jobs`; no wall-clock, no
            // unordered maps, no platform-dependent float formatting).
            (
                "L4",
                &[
                    "crates/sim/src/**",
                    "crates/gcs/src/**",
                    "crates/telemetry/src/metrics*.rs",
                    "crates/bench/src/manifest.rs",
                ],
            ),
            // L5 arithmetic soundness: the hand-rolled big-integer
            // kernels (Montgomery, Knuth division, fixed-base tables)
            // and the GF(256) Reed–Solomon codec — the hot paths where
            // a silent overflow or truncating cast corrupts figures
            // without failing a test.
            ("L5", &["crates/bignum/src/**", "crates/gcs/src/fec.rs"]),
            // L6 parallel determinism: every `--jobs` execution path —
            // the sharded scale engine, the worker pool, and the bench
            // harness that folds their outputs.
            (
                "L6",
                &[
                    "crates/core/src/scale.rs",
                    "crates/core/src/par.rs",
                    "crates/bench/src/**",
                ],
            ),
            // Self-analysis: the analyzer is a CI gate, so it must be
            // panic-free on arbitrary source input and deterministic
            // in its output ordering. (L1-INDEX stays out: token-slice
            // indexing against checked bounds is the lexer/parser
            // idiom throughout.)
            ("L1-PANIC", &["crates/analyze/src/**"]),
            ("L4", &["crates/analyze/src/**"]),
        ];
        for (prefix, globs) in scopes {
            for g in *globs {
                cfg.scopes.push(Scope {
                    rule_prefix: prefix.to_string(),
                    glob: g.to_string(),
                });
            }
        }
        cfg
    }

    /// Parses a config file (scope lines). Returns `Err` with a
    /// message on malformed lines.
    pub fn parse_conf(text: &str) -> Result<Self, String> {
        let mut cfg = Config::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("scope") => {
                    let prefix = parts
                        .next()
                        .ok_or_else(|| format!("line {}: scope needs a rule prefix", lineno + 1))?;
                    let globs: Vec<&str> = parts.collect();
                    if globs.is_empty() {
                        return Err(format!(
                            "line {}: scope needs at least one glob",
                            lineno + 1
                        ));
                    }
                    for g in globs {
                        cfg.scopes.push(Scope {
                            rule_prefix: prefix.to_string(),
                            glob: g.to_string(),
                        });
                    }
                }
                Some(other) => {
                    return Err(format!("line {}: unknown directive `{other}`", lineno + 1))
                }
                None => {}
            }
        }
        Ok(cfg)
    }

    /// Parses an allowlist file. Entries without a reason are errors.
    pub fn parse_allowlist(&mut self, text: &str) -> Result<(), String> {
        for (lineno, raw) in text.lines().enumerate() {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let (entry, reason) = match trimmed.split_once('#') {
                Some((e, r)) if !r.trim().is_empty() => (e.trim(), r.trim().to_string()),
                _ => {
                    return Err(format!(
                        "analyze.allow line {}: every entry needs a `# reason`",
                        lineno + 1
                    ))
                }
            };
            let mut parts = entry.split_whitespace();
            let (rule, glob) = match (parts.next(), parts.next()) {
                (Some(r), Some(g)) => (r, g),
                _ => {
                    return Err(format!(
                        "analyze.allow line {}: expected `<RULE> <glob> [fn=<name>] # reason`",
                        lineno + 1
                    ))
                }
            };
            let func = match parts.next() {
                Some(f) => match f.strip_prefix("fn=") {
                    Some(name) if !name.is_empty() => Some(name.to_string()),
                    _ => {
                        return Err(format!(
                            "analyze.allow line {}: third field must be `fn=<name>`, got `{f}`",
                            lineno + 1
                        ))
                    }
                },
                None => None,
            };
            self.allows.push(Allow {
                rule: rule.to_string(),
                glob: glob.to_string(),
                func,
                reason,
            });
        }
        Ok(())
    }

    /// Whether `rule` applies to `rel_path` under the configured scopes.
    pub fn in_scope(&self, rule: &str, rel_path: &str) -> bool {
        self.scopes
            .iter()
            .any(|s| rule.starts_with(s.rule_prefix.as_str()) && glob_match(&s.glob, rel_path))
    }

    /// Whether a finding of `rule` in `rel_path` is allowlisted,
    /// ignoring function-scoped entries (kept for callers with no
    /// function attribution).
    pub fn allowed(&self, rule: &str, rel_path: &str) -> bool {
        self.allows
            .iter()
            .any(|a| a.func.is_none() && a.matches(rule, rel_path, ""))
    }

    /// Whether a fully attributed finding is allowlisted.
    pub fn allowed_finding(&self, rule: &str, rel_path: &str, func: &str) -> bool {
        self.allows.iter().any(|a| a.matches(rule, rel_path, func))
    }

    /// Every path prefix mentioned by any scope — used to prune the
    /// file walk.
    pub fn is_interesting(&self, rel_path: &str) -> bool {
        self.scopes.iter().any(|s| glob_match(&s.glob, rel_path))
    }
}

/// Matches `path` (`/`-separated, relative) against `glob` with `*`
/// (one segment) and `**` (any depth) support.
pub fn glob_match(glob: &str, path: &str) -> bool {
    let g: Vec<&str> = glob.split('/').collect();
    let p: Vec<&str> = path.split('/').collect();
    seg_match(&g, &p)
}

fn seg_match(g: &[&str], p: &[&str]) -> bool {
    match (g.first(), p.first()) {
        (None, None) => true,
        (Some(&"**"), _) => {
            // `**` matches zero or more segments.
            if seg_match(&g[1..], p) {
                return true;
            }
            match p.first() {
                Some(_) => seg_match(g, &p[1..]),
                None => false,
            }
        }
        (Some(gs), Some(ps)) => segment_match(gs, ps) && seg_match(&g[1..], &p[1..]),
        _ => false,
    }
}

/// One-segment match with `*` wildcards.
fn segment_match(pat: &str, s: &str) -> bool {
    let pats: Vec<&str> = pat.split('*').collect();
    if pats.len() == 1 {
        return pat == s;
    }
    let mut rest = s;
    for (i, piece) in pats.iter().enumerate() {
        if piece.is_empty() {
            continue;
        }
        match rest.find(piece) {
            Some(at) => {
                // First piece must anchor at the start.
                if i == 0 && at != 0 {
                    return false;
                }
                rest = &rest[at + piece.len()..];
            }
            None => return false,
        }
    }
    // Last piece must anchor at the end unless the pattern ends with *.
    if let Some(last) = pats.last() {
        if !last.is_empty() && !s.ends_with(last) {
            return false;
        }
    }
    true
}

/// Normalizes a path to `/`-separated relative form.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glob_basics() {
        assert!(glob_match(
            "crates/core/src/protocols/**",
            "crates/core/src/protocols/gdh.rs"
        ));
        assert!(glob_match(
            "crates/core/src/protocols/**",
            "crates/core/src/protocols/sub/deep.rs"
        ));
        assert!(!glob_match(
            "crates/core/src/protocols/**",
            "crates/core/src/tree.rs"
        ));
        assert!(glob_match("crates/*/src/**", "crates/gcs/src/engine.rs"));
        assert!(glob_match("src/l1_*.rs", "src/l1_panics.rs"));
        assert!(!glob_match("src/l1_*.rs", "src/l2_panics.rs"));
        assert!(glob_match("**", "anything/at/all.rs"));
    }

    #[test]
    fn scope_lookup() {
        let cfg = Config::workspace_default();
        assert!(cfg.in_scope("L1-PANIC", "crates/core/src/protocols/gdh.rs"));
        assert!(cfg.in_scope("L1-INDEX", "crates/gcs/src/engine.rs"));
        assert!(!cfg.in_scope("L1-PANIC", "crates/core/src/tree.rs"));
        assert!(cfg.in_scope("L4-HASH", "crates/sim/src/queue.rs"));
        assert!(!cfg.in_scope("L4-HASH", "crates/core/src/session.rs"));
        // The FEC codec: panic-free (it feeds the delivery path) and
        // deterministic, but not under the indexing rule.
        assert!(cfg.in_scope("L1-PANIC", "crates/gcs/src/fec.rs"));
        assert!(!cfg.in_scope("L1-INDEX", "crates/gcs/src/fec.rs"));
        assert!(cfg.in_scope("L4-HASH", "crates/gcs/src/fec.rs"));
        // The bench crate is in scope for the panic rule only.
        assert!(cfg.in_scope("L1-PANIC", "crates/bench/src/bin/repro.rs"));
        assert!(cfg.in_scope("L1-PANIC", "crates/bench/src/figures.rs"));
        assert!(!cfg.in_scope("L1-INDEX", "crates/bench/src/figures.rs"));
        // The typed metrics layer: panic-free and deterministic, but not
        // under the indexing rule (its bucket tables are static).
        assert!(cfg.in_scope("L1-PANIC", "crates/telemetry/src/metrics.rs"));
        assert!(!cfg.in_scope("L1-INDEX", "crates/telemetry/src/metrics.rs"));
        assert!(cfg.in_scope("L4-HASH", "crates/telemetry/src/metrics.rs"));
        // The manifest writer renders bytes that must not depend on
        // wall time or map iteration order.
        assert!(cfg.in_scope("L4-TIME", "crates/bench/src/manifest.rs"));
        assert!(!cfg.in_scope("L4-TIME", "crates/bench/src/figures.rs"));
        assert!(!cfg.in_scope("L2", "crates/bench/src/manifest.rs"));
    }

    #[test]
    fn config_parse_roundtrip() {
        let cfg = Config::parse_conf(
            "# comment\nscope L1 src/l1_*.rs src/other/**\nscope L4 src/sim.rs\n",
        )
        .unwrap();
        assert_eq!(cfg.scopes.len(), 3);
        assert!(cfg.in_scope("L1-PANIC", "src/l1_driver.rs"));
        assert!(cfg.in_scope("L4-TIME", "src/sim.rs"));
        assert!(Config::parse_conf("bogus L1 x").is_err());
        assert!(Config::parse_conf("scope L1").is_err());
    }

    #[test]
    fn allowlist_requires_reason() {
        let mut cfg = Config::default();
        assert!(cfg.parse_allowlist("L1-INDEX src/x.rs").is_err());
        cfg.parse_allowlist("L1-INDEX src/x.rs # audited 2026-08-07\n")
            .unwrap();
        assert!(cfg.allowed("L1-INDEX", "src/x.rs"));
        assert!(!cfg.allowed("L1-PANIC", "src/x.rs"));
    }
}
