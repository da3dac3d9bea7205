//! Workspace file discovery.
//!
//! The lint surface is first-party library and binary source only:
//! `src/**/*.rs` and `crates/*/src/**/*.rs` under the workspace root.
//! `tests/`, `benches/`, `examples/`, `vendor/`, and the lint fixture
//! corpus are deliberately out of scope — they may panic, time, and
//! allocate however they like.
//!
//! Rule U01 (dead public surface) also reads [`READ_ONLY_DIRS`] —
//! `examples/`, `perfbench/src` (the benchmark) and
//! `crates/bench/benches` — for uses only: a name they mention keeps an
//! item alive, but nothing in them is linted.

use std::path::{Path, PathBuf};

/// Collect every in-scope `.rs` file under `root`, workspace-relative with
/// forward slashes, sorted for deterministic report order.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = vec![root.join("src")];
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut kids: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("{}: {e}", crates.display()))?
            .filter_map(|r| r.ok().map(|d| d.path()))
            .collect();
        kids.sort();
        for kid in kids {
            let src = kid.join("src");
            if src.is_dir() {
                dirs.push(src);
            }
        }
    }
    let mut files = Vec::new();
    for dir in dirs {
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

/// Non-test code outside the lint surface that still counts as a caller
/// for U01.
pub const READ_ONLY_DIRS: &[&str] = &["examples", "perfbench/src", "crates/bench/benches"];

/// Every `.rs` file under [`READ_ONLY_DIRS`], sorted.
pub fn read_only_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for dir in READ_ONLY_DIRS {
        let dir = root.join(dir);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let mut kids: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|r| r.ok().map(|d| d.path()))
        .collect();
    kids.sort();
    for kid in kids {
        if kid.is_dir() {
            collect_rs(&kid, out)?;
        } else if kid.extension().is_some_and(|e| e == "rs") {
            out.push(kid);
        }
    }
    Ok(())
}

/// Workspace-relative display path with forward slashes.
pub fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}
