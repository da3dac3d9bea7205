//! `tempograph-lint` — lint the workspace (or explicit files).
//!
//! ```text
//! tempograph-lint                 # lint the whole workspace
//! tempograph-lint --root DIR      # lint a different workspace root
//! tempograph-lint path/to/file.rs # lint specific files (fixtures get
//!                                 # every rule applied)
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` configuration error (bad
//! allowlist syntax, stale allowlist entry, I/O failure).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use tempograph_lint::{lint_workspace, rules, Finding};

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return config_error("--root needs a directory"),
            },
            "--help" | "-h" => {
                println!("usage: tempograph-lint [--root DIR] [FILES…]");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return config_error(&format!("unknown flag `{other}`"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }

    if !files.is_empty() {
        return lint_files(&files);
    }

    // Default root: the workspace containing this crate.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| PathBuf::from("."))
    });

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => return config_error(&e),
    };
    for f in &report.findings {
        print_finding(f);
    }
    for e in &report.stale {
        eprintln!(
            "error: stale allowlist entry lint-allow.toml:{} ({} {}) — it suppresses nothing; \
             remove it",
            e.line, e.rule, e.path
        );
    }
    if !report.stale.is_empty() {
        return ExitCode::from(2);
    }
    if report.findings.is_empty() {
        println!("tempograph-lint: {} files clean", report.files);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "tempograph-lint: {} finding(s) in {} files",
            report.findings.len(),
            report.files
        );
        ExitCode::FAILURE
    }
}

/// Explicit file mode: no allowlist, and fixture files get every rule.
fn lint_files(files: &[PathBuf]) -> ExitCode {
    let mut findings = Vec::new();
    for file in files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => return config_error(&format!("{}: {e}", file.display())),
        };
        let rel = file.to_string_lossy().replace('\\', "/");
        if rel.contains("fixtures") {
            findings.extend(rules::analyze_all_rules(&rel, &src));
        } else {
            findings.extend(rules::analyze(&rel, &src));
        }
    }
    for f in &findings {
        print_finding(f);
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_finding(f: &Finding) {
    println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.msg);
    if !f.line_text.is_empty() {
        println!("    {}", f.line_text);
    }
}

fn config_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}
