//! Field-sensitive interprocedural secret taint (the L2-FLOW engine).
//!
//! The lattice is a binary secret/not-secret tag over three kinds of
//! facts, iterated to a global fixpoint:
//!
//! * **local taint** — per function, the set of binding names holding
//!   secret material. Seeds: parameters typed `Secret<..>` or named in
//!   `SECRET_NAMES`, any `SECRET_NAMES` binding, `.expose()` results,
//!   and projections of *secret fields*. Propagates through `let`
//!   initializers (a binding whose right-hand side mentions a tainted
//!   value is tainted).
//! * **secret fields** — a global set of field names. Seeds: fields
//!   that are secret by declaration (name or `Secret<T>` type).
//!   Grows: a struct literal `S { f: expr }` whose `expr` is tainted
//!   marks `f` secret — so wrapping a key in a helper struct carries
//!   the taint across the crate boundary to wherever the field is
//!   projected again.
//! * **function summaries** — which parameters reach a sink inside the
//!   callee (reusing the callgraph's signature fixpoint), so passing a
//!   tainted argument into a helper that logs it is flagged at the
//!   call site even when helper and caller live in different crates.
//!
//! Sinks are the callgraph's format/serialize/log macros and calls.
//! The fixpoint runs at most [`MAX_ROUNDS`] rounds; the secret-field
//! set grows monotonically, so termination is by saturation.

use std::collections::BTreeSet;

use crate::callgraph::{split_args, token_mentions, CallGraph, SINK_CALLS, SINK_MACROS};
use crate::config::Config;
use crate::lexer::TokKind;
use crate::parse::{FnItem, ParsedFile};
use crate::rules::{finding_at, SECRET_NAMES};
use crate::Finding;

/// Fixpoint round cap (each round can only add secret fields, and
/// field names are finite, so this is a safety margin, not a limit
/// reached in practice).
const MAX_ROUNDS: usize = 10;

/// Runs the taint engine and appends L2-FLOW findings.
pub fn check(
    files: &[(String, ParsedFile)],
    graph: &CallGraph,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    // Seed secret fields from struct declarations (by name or type),
    // across *all* files — a helper struct is a laundering vector even
    // when its own file is out of L2 scope.
    let mut secret_fields: BTreeSet<String> = BTreeSet::new();
    for (_, pf) in files {
        for s in &pf.structs {
            for (fname, fty) in &s.fields {
                if crate::rules::field_is_secret(fname, fty) {
                    secret_fields.insert(fname.clone());
                }
            }
        }
    }

    // Signature-level sink reachability doubles as the call summary:
    // which parameter *names* of each fn reach a sink.
    let sink_params = graph.sink_reaching_params(files);

    // Grow the secret-field set to fixpoint.
    for _ in 0..MAX_ROUNDS {
        let mut grew = false;
        for (_, pf) in files {
            for f in &pf.fns {
                if f.is_test {
                    continue;
                }
                let tainted = local_taint(pf, f, &secret_fields);
                for nf in struct_literal_secret_fields(pf, f, &tainted, &secret_fields) {
                    grew |= secret_fields.insert(nf);
                }
            }
        }
        if !grew {
            break;
        }
    }

    // Final pass: emit findings.
    for (fi, (path, pf)) in files.iter().enumerate() {
        if !cfg.in_scope("L2-FLOW", path) {
            continue;
        }
        for (fj, f) in pf.fns.iter().enumerate() {
            if f.is_test {
                continue;
            }
            let tainted = local_taint(pf, f, &secret_fields);

            // Secret-typed/named parameters that reach a sink
            // (directly or through callees) — attributed to the fn
            // declaration line, like the legacy engine.
            if let Some(params) = sink_params.get(&(fi, fj)) {
                for p in &f.params {
                    if params.contains(&p.name)
                        && (p.ty.contains("Secret") || SECRET_NAMES.contains(&p.name.as_str()))
                    {
                        out.push(Finding::new(
                            "L2-FLOW",
                            path,
                            f.line,
                            1,
                            format!(
                                "secret parameter `{}` of `{}` flows into a formatting/serialization sink",
                                p.name, f.name
                            ),
                        ));
                    }
                }
            }

            let Some(sites) = graph.calls.get(&(fi, fj)) else {
                continue;
            };
            for site in sites {
                let span = site.args.clone();
                let is_sink = SINK_MACROS.contains(&site.callee.as_str())
                    || SINK_CALLS.contains(&site.callee.as_str());
                if is_sink {
                    // Direct leak: a tainted value (binding, secret
                    // field projection, or `.expose()`) in the args.
                    if let Some(what) = span_taint_witness(pf, &span, &tainted, &secret_fields) {
                        out.push(site_finding(
                            path,
                            pf,
                            site,
                            &f.name,
                            format!("secret value `{what}` passed to sink `{}`", site.callee),
                        ));
                    }
                    continue;
                }
                // Laundered leak: a tainted argument in a position the
                // callee forwards to a sink. Only uniquely-defined
                // callees are charged — with name-based resolution an
                // ambiguous `push`/`insert` would attribute another
                // type's formatting to this call site.
                let Some(defs) = graph.defs.get(&site.callee).filter(|d| d.len() == 1) else {
                    continue;
                };
                let arg_spans = split_args(&pf.tokens, &span);
                for &(di, dj) in defs {
                    let callee = &files[di].1.fns[dj];
                    let Some(reach) = sink_params.get(&(di, dj)) else {
                        continue;
                    };
                    let skip = usize::from(
                        site.is_method && callee.params.first().is_some_and(|p| p.name == "self"),
                    );
                    for (pos, aspan) in arg_spans.iter().enumerate() {
                        let Some(cp) = callee.params.get(pos + skip) else {
                            continue;
                        };
                        if !reach.contains(&cp.name) {
                            continue;
                        }
                        if let Some(what) = span_taint_witness(pf, aspan, &tainted, &secret_fields)
                        {
                            out.push(site_finding(path, pf, site, &f.name, format!(
                                "secret value `{what}` reaches a sink through `{}` (parameter `{}`)",
                                site.callee, cp.name
                            )));
                        }
                    }
                }
            }
        }
    }
}

/// Builds a finding at a call site, anchored at the first token of the
/// callee span for a real column.
fn site_finding(
    path: &str,
    pf: &ParsedFile,
    site: &crate::callgraph::CallSite,
    func: &str,
    msg: String,
) -> Finding {
    let anchor = site
        .args
        .start
        .saturating_sub(2)
        .min(pf.tokens.len().saturating_sub(1));
    let t = &pf.tokens[anchor];
    if t.line == site.line {
        finding_at("L2-FLOW", path, t, func, msg)
    } else {
        let mut f = Finding::new("L2-FLOW", path, site.line, 1, msg);
        f.func = func.to_string();
        f
    }
}

/// The set of tainted binding names inside one function.
fn local_taint(pf: &ParsedFile, f: &FnItem, secret_fields: &BTreeSet<String>) -> BTreeSet<String> {
    let toks = &pf.tokens;
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    for p in &f.params {
        if p.ty.contains("Secret") || SECRET_NAMES.contains(&p.name.as_str()) {
            tainted.insert(p.name.clone());
        }
    }
    // Any SECRET_NAMES identifier used in the body is a source by
    // naming convention.
    for i in f.body.clone() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && SECRET_NAMES.contains(&t.text.as_str()) {
            tainted.insert(t.text.clone());
        }
    }
    // Propagate through `let` initializers until stable. Bodies are
    // small; the binding set grows monotonically.
    for _ in 0..6 {
        let mut changed = false;
        let mut i = f.body.start;
        while i < f.body.end {
            if toks[i].is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name_tok) = toks.get(j).filter(|t| t.kind == TokKind::Ident) {
                    let name = name_tok.text.clone();
                    // Skip to `=`, then take the initializer span.
                    let mut k = j + 1;
                    let mut depth = 0isize;
                    while k < f.body.end && !(depth <= 0 && toks[k].is_punct("=")) {
                        match toks[k].text.as_str() {
                            "(" | "[" | "{" | "<" => depth += 1,
                            ")" | "]" | "}" | ">" => depth -= 1,
                            ">>" => depth -= 2,
                            ";" if depth <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    if toks.get(k).is_some_and(|t| t.is_punct("=")) {
                        let start = k + 1;
                        let mut depth = 0isize;
                        let mut e = start;
                        while e < f.body.end {
                            match toks[e].text.as_str() {
                                "(" | "[" | "{" => depth += 1,
                                ")" | "]" | "}" => depth -= 1,
                                ";" if depth <= 0 => break,
                                _ => {}
                            }
                            e += 1;
                        }
                        if span_taint_witness(pf, &(start..e), &tainted, secret_fields).is_some()
                            && tainted.insert(name)
                        {
                            changed = true;
                        }
                        i = e;
                        continue;
                    }
                }
            }
            i += 1;
        }
        if !changed {
            break;
        }
    }
    tainted
}

/// Whether a token span carries taint; returns the witness name for
/// the diagnostic. Taint witnesses, in order of preference:
/// a tainted binding mention (identifier or `{name}` format capture),
/// a secret-field projection (`.field`), or an `.expose()` call.
fn span_taint_witness(
    pf: &ParsedFile,
    span: &std::ops::Range<usize>,
    tainted: &BTreeSet<String>,
    secret_fields: &BTreeSet<String>,
) -> Option<String> {
    let toks = &pf.tokens;
    let s = span.start.min(toks.len());
    let e = span.end.min(toks.len());
    for name in tainted {
        if toks[s..e].iter().any(|t| token_mentions(t, name)) {
            return Some(name.clone());
        }
    }
    for (k, t) in toks[s..e].iter().enumerate() {
        let idx = s + k;
        if t.kind == TokKind::Ident
            && idx > 0
            && toks[idx - 1].is_punct(".")
            && secret_fields.contains(&t.text)
            // Projection read, not a struct-literal key or method call
            // (methods are followed by `(`).
            && !toks.get(idx + 1).is_some_and(|n| n.is_punct("("))
        {
            return Some(format!(".{}", t.text));
        }
        if t.is_ident("expose") && toks.get(idx + 1).is_some_and(|n| n.is_punct("(")) {
            return Some("expose".to_string());
        }
    }
    None
}

/// Field names assigned tainted values in struct literals inside `f`.
fn struct_literal_secret_fields(
    pf: &ParsedFile,
    f: &FnItem,
    tainted: &BTreeSet<String>,
    secret_fields: &BTreeSet<String>,
) -> Vec<String> {
    let toks = &pf.tokens;
    let mut out = Vec::new();
    for i in f.body.clone() {
        let t = &toks[i];
        // `TypeName {` — struct literal (capitalized head, not a
        // control-flow block).
        if t.kind != TokKind::Ident
            || !t
                .text
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_uppercase())
            || !toks.get(i + 1).is_some_and(|n| n.is_punct("{"))
        {
            continue;
        }
        // `match X {` / `if let X {` guards: preceding keyword means
        // this brace is a block, not a literal.
        if i > 0
            && matches!(
                toks[i - 1].text.as_str(),
                "match"
                    | "if"
                    | "while"
                    | "for"
                    | "in"
                    | "impl"
                    | "struct"
                    | "enum"
                    | "trait"
                    | "mod"
                    | "fn"
            )
        {
            continue;
        }
        let open = i + 1;
        let mut depth = 0usize;
        let mut j = open;
        while j < f.body.end {
            if toks[j].is_punct("{") {
                depth += 1;
            } else if toks[j].is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        // Fields at depth 1: `name : value` or shorthand `name`.
        let mut k = open + 1;
        let mut d = 1usize;
        while k < j {
            match toks[k].text.as_str() {
                "{" | "(" | "[" => d += 1,
                "}" | ")" | "]" => d = d.saturating_sub(1),
                _ => {}
            }
            if d == 1 && toks[k].kind == TokKind::Ident {
                let fname = &toks[k].text;
                if toks.get(k + 1).is_some_and(|n| n.is_punct(":")) {
                    // Value span: to the next top-level `,` or the
                    // closing brace.
                    let vstart = k + 2;
                    let mut vd = 1usize;
                    let mut ve = vstart;
                    while ve < j {
                        match toks[ve].text.as_str() {
                            "{" | "(" | "[" => vd += 1,
                            "}" | ")" | "]" => vd -= 1,
                            "," if vd == 1 => break,
                            _ => {}
                        }
                        ve += 1;
                    }
                    if !secret_fields.contains(fname)
                        && span_taint_witness(pf, &(vstart..ve), tainted, secret_fields).is_some()
                    {
                        out.push(fname.clone());
                    }
                    k = ve;
                    continue;
                }
                // Shorthand `S { group_key }`.
                if toks
                    .get(k + 1)
                    .is_some_and(|n| n.is_punct(",") || n.is_punct("}"))
                    && tainted.contains(fname)
                    && !secret_fields.contains(fname)
                {
                    out.push(fname.clone());
                }
            }
            k += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::parse::parse;
    use crate::Config;

    fn run(sources: &[(&str, &str)]) -> Vec<Finding> {
        let cfg = Config::parse_conf("scope L2 src/**").unwrap();
        let files: Vec<(String, ParsedFile)> = sources
            .iter()
            .map(|(p, s)| (p.to_string(), parse(s)))
            .collect();
        let graph = CallGraph::build(&files);
        let mut out = Vec::new();
        check(&files, &graph, &cfg, &mut out);
        out
    }

    /// A secret laundered through a helper struct in another crate.
    /// The leaking fn's parameter is named `w`, not a secret name, so
    /// only the taint fixpoint, which carries the tag through the
    /// struct field, can flag the sink.
    #[test]
    fn cross_crate_struct_laundering_caught() {
        let sources = [
            (
                "src/a.rs",
                "pub struct Carrier { pub inner: Vec<u8> }\n\
                 pub fn pack(group_key: &[u8]) -> Carrier {\n\
                 \x20   Carrier { inner: group_key.to_vec() }\n\
                 }\n",
            ),
            (
                "src/b.rs",
                "use crate::a::Carrier;\n\
                 pub fn dump(w: &Carrier) {\n\
                 \x20   println!(\"{:?}\", w.inner);\n\
                 }\n",
            ),
        ];
        let found = run(&sources);
        let hit = found
            .iter()
            .find(|f| f.file == "src/b.rs" && f.rule == "L2-FLOW")
            .unwrap_or_else(|| panic!("taint pass should catch the laundered leak: {found:?}"));
        assert_eq!(hit.line, 3);
        assert!(hit.msg.contains(".inner"), "{}", hit.msg);
    }

    /// A tainted argument passed into a helper (possibly in another
    /// crate) whose parameter reaches a sink is flagged at the call
    /// site.
    #[test]
    fn laundered_through_helper_call() {
        let sources = [
            (
                "src/a.rs",
                "pub fn announce(session_key: &[u8]) {\n\
                 \x20   emit_line(session_key);\n\
                 }\n",
            ),
            (
                "src/util.rs",
                "pub fn emit_line(data: &[u8]) {\n\
                 \x20   println!(\"{:?}\", data);\n\
                 }\n",
            ),
        ];
        let found = run(&sources);
        assert!(
            found.iter().any(|f| f.file == "src/a.rs"
                && f.line == 2
                && f.msg.contains("through `emit_line`")),
            "{found:?}"
        );
    }

    /// Taint propagates through `let` rebinding: the leaked name is
    /// no longer a SECRET_NAME at the sink.
    #[test]
    fn let_rebinding_keeps_taint() {
        let sources = [(
            "src/a.rs",
            "pub fn show(enc_key: &[u8]) {\n\
             \x20   let buf = enc_key.to_vec();\n\
             \x20   let rendered = buf;\n\
             \x20   println!(\"{:?}\", rendered);\n\
             }\n",
        )];
        let found = run(&sources);
        assert!(
            found
                .iter()
                .any(|f| f.line == 4 && f.msg.contains("rendered")),
            "{found:?}"
        );
    }

    /// Clean code stays clean: non-secret data through the same shapes.
    #[test]
    fn no_false_positive_on_clean_flow() {
        let sources = [(
            "src/a.rs",
            "pub struct Report { pub count: usize }\n\
             pub fn tally(n: usize) -> Report { Report { count: n } }\n\
             pub fn print_report(r: &Report) { println!(\"{}\", r.count); }\n",
        )];
        let found = run(&sources);
        assert!(found.is_empty(), "{found:?}");
    }
}
