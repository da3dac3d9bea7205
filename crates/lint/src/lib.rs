//! # tempograph-lint — workspace invariant checker
//!
//! A from-scratch, dependency-free static analyzer that enforces the
//! repo-specific invariants the compiler can't:
//!
//! * **D01** — no `HashMap`/`HashSet` iteration on determinism-critical
//!   paths (use `BTreeMap` or sort explicitly);
//! * **D02** — no `Instant::now`/`SystemTime::now` outside the trace
//!   crate's `Clock` abstraction;
//! * **D03** — no unseeded randomness;
//! * **P01** — no `unwrap`/`expect`/`panic!` in the engine worker hot path
//!   (superstep loop, message decode) — typed errors only;
//! * **A01** — no `Ordering::Relaxed` on sync-critical atomics;
//! * **W01** — wire-format `decode` matches may not use `_` wildcard arms;
//! * **F01** — every crate root carries `#![forbid(unsafe_code)]`;
//! * **U01** — every `pub`/`pub(crate)` fn of a library crate is named by
//!   some non-test code (examples and the benchmark included).
//!
//! Since v2 the analyzer is workspace-transitive: an item/extent parser
//! ([`parser`]) and a conservative name-resolution call graph
//! ([`callgraph`]) let P01 and D02 — plus the new **H01** (no heap
//! allocation in instrumentation code on the disabled path) — hold over
//! the entire call closure rooted at the executor superstep loop, the
//! transport's entry points, and the codec entry points, with findings
//! reported as root→violation call chains.
//!
//! Wire and storage layouts are checked outside this crate: their bytes
//! are pinned by hex goldens in the owning crates' tests
//! (`tempograph_gofs::codec::assert_hex_golden`), which refuse a byte
//! change that comes without a version bump.
//!
//! Justified exceptions live in the committed `lint-allow.toml`; stale
//! entries are an error, so suppressions cannot outlive the code they
//! excuse. Run with `cargo run -p tempograph-lint` or `./ci.sh --lint`.

#![forbid(unsafe_code)]

pub mod allowlist;
pub mod callgraph;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod walk;

pub use allowlist::{apply, parse, AllowEntry};
pub use rules::{analyze, analyze_all_rules, Finding};

use std::path::Path;

/// Outcome of a full workspace lint run.
pub struct Report {
    /// Findings that survived the allowlist, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Allowlist entries that suppressed nothing (stale); non-empty ⇒
    /// exit 2.
    pub stale: Vec<AllowEntry>,
    /// Number of files scanned.
    pub files: usize,
}

/// Parse files into the item-level AST the workspace passes consume.
fn parse_files(root: &Path, files: &[std::path::PathBuf]) -> Result<Vec<parser::FileAst>, String> {
    let mut asts = Vec::with_capacity(files.len());
    for file in files {
        let src = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
        asts.push(parser::parse(&walk::rel_path(root, file), &src));
    }
    Ok(asts)
}

/// Lint the workspace rooted at `root`, applying `root/lint-allow.toml`
/// when present. Errors on I/O or allowlist syntax problems.
///
/// Runs three layers: the transitive call-graph pass (P01/D02/H01 over
/// the hot-path closure, findings with root→violation chains), the
/// dead-surface pass (U01, which also reads [`walk::READ_ONLY_DIRS`] for
/// uses) and the per-file token pass (D01/D02/D03/P01/A01/W01/F01).
/// Where the first and last flag the same (rule, path, line), the
/// transitive finding wins — it carries the call chain.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let asts = parse_files(root, &walk::workspace_files(root)?)?;
    let readers = parse_files(root, &walk::read_only_files(root)?)?;
    let file_count = asts.len();

    // Transitive pass.
    let graph = callgraph::CallGraph::build(asts);
    let mut findings = rules::analyze_transitive(&graph);
    findings.extend(rules::analyze_dead_surface(&graph.files, &readers));
    let seen: std::collections::BTreeSet<(&'static str, String, u32)> = findings
        .iter()
        .map(|f| (f.rule, f.path.clone(), f.line))
        .collect();

    // Per-file pass, deduplicated against the transitive findings.
    for ast in &graph.files {
        findings.extend(
            rules::analyze(&ast.path, &ast.src)
                .into_iter()
                .filter(|f| !seen.contains(&(f.rule, f.path.clone(), f.line))),
        );
    }

    let allow_path = root.join("lint-allow.toml");
    let entries = if allow_path.is_file() {
        let src = std::fs::read_to_string(&allow_path)
            .map_err(|e| format!("{}: {e}", allow_path.display()))?;
        allowlist::parse(&src)?
    } else {
        Vec::new()
    };
    let (mut kept, used) = allowlist::apply(findings, &entries);
    kept.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    let stale = entries
        .iter()
        .zip(&used)
        .filter(|(_, &u)| !u)
        .map(|(e, _)| e.clone())
        .collect();
    Ok(Report {
        findings: kept,
        stale,
        files: file_count,
    })
}
