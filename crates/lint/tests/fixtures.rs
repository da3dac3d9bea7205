//! Self-test corpus: every rule has a bad fixture that fires exactly that
//! rule and a good fixture that fires nothing; plus allowlist suppression,
//! stale-entry detection, and a full clean-workspace run.
//!
//! The `ws_*` fixture directories are mini-workspaces for the v2 passes:
//! `ws_transitive_{bad,good}` exercise the call-graph rules (indirect
//! panics, trait dispatch, use-aliases, cfg(test) masking, H01 guards,
//! indexing) end to end through [`lint_workspace`] and drive the binary's
//! exit-code matrix; `ws_dead_surface` holds one public fn per U01 case.

use std::path::{Path, PathBuf};
use std::process::Command;
use tempograph_lint::{allowlist, analyze_all_rules, lint_workspace, Finding};

const RULES: &[&str] = &["D01", "D02", "D03", "P01", "A01", "W01", "F01"];

fn fixture(name: &str) -> (String, String) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    let src =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"));
    (format!("crates/lint/fixtures/{name}"), src)
}

fn findings_for(name: &str) -> Vec<Finding> {
    let (path, src) = fixture(name);
    analyze_all_rules(&path, &src)
}

#[test]
fn every_bad_fixture_fires_exactly_its_rule() {
    for rule in RULES {
        let name = format!("{}_bad.rs", rule.to_lowercase());
        let findings = findings_for(&name);
        assert!(
            !findings.is_empty(),
            "{name} must produce at least one finding"
        );
        for f in &findings {
            assert_eq!(
                f.rule, *rule,
                "{name} fired {} at line {} — bad fixtures must isolate their rule: {}",
                f.rule, f.line, f.msg
            );
        }
    }
}

#[test]
fn every_good_fixture_is_clean() {
    for rule in RULES {
        let name = format!("{}_good.rs", rule.to_lowercase());
        let findings = findings_for(&name);
        assert!(
            findings.is_empty(),
            "{name} must be clean, got: {findings:#?}"
        );
    }
}

/// P01's unchecked-getter check: every `Buf` getter in method form fires,
/// except in the codec vocabulary's home, whose checked reads wrap them.
#[test]
fn buf_getter_fixtures_fire_p01_outside_the_wire_home() {
    let bad = findings_for("p01_buf_getter_bad.rs");
    assert_eq!(bad.len(), 2, "{bad:#?}");
    for f in &bad {
        assert_eq!(f.rule, "P01");
        assert!(f.msg.contains("unchecked `Buf` getter"), "{}", f.msg);
    }
    assert!(findings_for("p01_buf_getter_good.rs").is_empty());
    let (_, src) = fixture("p01_buf_getter_bad.rs");
    assert!(analyze_all_rules("crates/core/src/wire.rs", &src).is_empty());
}

#[test]
fn bad_fixture_findings_carry_source_lines() {
    for f in findings_for("p01_bad.rs") {
        assert!(
            !f.line_text.is_empty(),
            "finding at line {} lost its source text",
            f.line
        );
    }
}

#[test]
fn allowlist_suppresses_matching_findings() {
    let findings = findings_for("p01_bad.rs");
    let n = findings.len();
    assert!(n >= 3, "p01_bad should have unwrap + panic + expect");
    let allow = r#"
[[allow]]
rule = "P01"
path = "crates/lint/fixtures/p01_bad.rs"
contains = "unwrap"
reason = "exercising suppression in a test"
"#;
    let entries = allowlist::parse(allow).expect("allowlist parses");
    let (kept, used) = allowlist::apply(findings, &entries);
    assert_eq!(
        kept.len(),
        n - 1,
        "exactly the unwrap finding is suppressed"
    );
    assert!(kept.iter().all(|f| !f.line_text.contains("unwrap()")));
    assert_eq!(used, vec![true]);
}

#[test]
fn stale_allowlist_entry_is_detected() {
    let findings = findings_for("p01_bad.rs");
    let allow = r#"
[[allow]]
rule = "P01"
path = "crates/lint/fixtures/p01_bad.rs"
contains = "this substring appears nowhere"
reason = "stale on purpose"
"#;
    let entries = allowlist::parse(allow).expect("allowlist parses");
    let n = findings.len();
    let (kept, used) = allowlist::apply(findings, &entries);
    assert_eq!(kept.len(), n, "nothing suppressed");
    assert_eq!(used, vec![false], "the entry must be reported stale");
}

// ---- v2: transitive call-graph fixtures -----------------------------------

fn ws_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

/// Copy a `ws_*` fixture into a fresh temp dir (`tag` keeps concurrent
/// tests apart) so a test can mutate it freely.
fn temp_copy(name: &str, tag: &str) -> PathBuf {
    fn copy_dir(src: &Path, dst: &Path) {
        std::fs::create_dir_all(dst).expect("create temp fixture dir");
        for e in std::fs::read_dir(src).expect("read fixture dir") {
            let e = e.expect("fixture dir entry");
            let to = dst.join(e.file_name());
            if e.path().is_dir() {
                copy_dir(&e.path(), &to);
            } else {
                std::fs::copy(e.path(), &to).expect("copy fixture file");
            }
        }
    }
    let dst = std::env::temp_dir().join(format!(
        "tempograph-lint-{name}-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dst);
    copy_dir(&ws_root(name), &dst);
    dst
}

#[test]
fn transitive_bad_workspace_reports_chained_findings() {
    let report = lint_workspace(&ws_root("ws_transitive_bad")).expect("lint runs");
    let has = |rule: &str, path_frag: &str, msg_frag: &str| {
        report
            .findings
            .iter()
            .any(|f| f.rule == rule && f.path.contains(path_frag) && f.msg.contains(msg_frag))
    };
    // Two-hop bare-call panic, with the full chain in the message.
    assert!(
        has("P01", "util/src/lib.rs", "run_timestep_loop → step → apply"),
        "{:#?}",
        report.findings
    );
    // Trait dispatch through the bodyless `Provider` declaration.
    assert!(
        has("P01", "util/src/lib.rs", "DiskProvider::fetch"),
        "{:#?}",
        report.findings
    );
    // Use-alias: `advance(…)` resolved to `step`; covered by the chain
    // above naming `step`, not the alias.
    assert!(!report.findings.iter().any(|f| f.msg.contains("advance")));
    // Two-hop clock read.
    assert!(
        has("D02", "util/src/lib.rs", "stamp → wall_clock"),
        "{:#?}",
        report.findings
    );
    // Unguarded instrumentation allocation.
    assert!(
        has("H01", "trace/src/lib.rs", "TraceSink::record"),
        "{:#?}",
        report.findings
    );
    // A program's checkpoint decoder is a root past the algos boundary;
    // its compute is not.
    assert!(
        has("P01", "algos/src/meme.rs", "get_u32_le"),
        "{:#?}",
        report.findings
    );
    assert!(!report
        .findings
        .iter()
        .any(|f| f.path.contains("algos") && f.line_text.contains("get_u8")));
    // Indexing rooted directly at a transport entry point.
    assert!(
        has("P01", "engine/src/transport.rs", "Mesh::send"),
        "{:#?}",
        report.findings
    );
    // The cfg(test)-masked callee and the guarded record path contribute
    // nothing.
    assert!(!report
        .findings
        .iter()
        .any(|f| f.msg.contains("debug_probe")));
    assert!(!report
        .findings
        .iter()
        .any(|f| f.msg.contains("record_guarded")));
    // Every transitive finding explains itself with a chain.
    for f in report.findings.iter().filter(|f| f.rule != "F01") {
        assert!(f.msg.contains("via "), "chainless finding: {f:#?}");
    }
}

#[test]
fn transitive_good_workspace_is_clean() {
    let report = lint_workspace(&ws_root("ws_transitive_good")).expect("lint runs");
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert!(report.stale.is_empty());
}

/// `0` clean, `1` findings, `2` configuration error — here a stale
/// allowlist entry, which must fail the run rather than linger.
#[test]
fn binary_exit_codes_cover_clean_findings_and_drift() {
    let bin = env!("CARGO_BIN_EXE_tempograph-lint");
    let run = |root: &Path| {
        Command::new(bin)
            .arg("--root")
            .arg(root)
            .output()
            .expect("run tempograph-lint")
            .status
            .code()
    };
    assert_eq!(run(&ws_root("ws_transitive_good")), Some(0), "clean → 0");
    assert_eq!(run(&ws_root("ws_transitive_bad")), Some(1), "findings → 1");
    let tmp = temp_copy("ws_transitive_good", "exit2");
    std::fs::write(
        tmp.join("lint-allow.toml"),
        "[[allow]]\nrule = \"P01\"\npath = \"crates/util/src/lib.rs\"\n\
         reason = \"suppresses nothing\"\n",
    )
    .expect("write stale allowlist");
    assert_eq!(run(&tmp), Some(2), "stale allowlist entry → 2");
    let _ = std::fs::remove_dir_all(&tmp);
}

// ---- U01: dead public surface ---------------------------------------------

#[test]
fn dead_surface_workspace_flags_exactly_the_dead_items() {
    let report = lint_workspace(&ws_root("ws_dead_surface")).expect("lint runs");
    for f in &report.findings {
        assert_eq!(f.rule, "U01", "only U01 fires here: {f:#?}");
    }
    let flagged: Vec<&str> = report
        .findings
        .iter()
        .map(|f| f.line_text.as_str())
        .collect();
    // No use; a use only under `#[cfg(test)]` or in `tests/`; a use only
    // through a `pub use` re-export. The other cases (perfbench, example,
    // trait, macro body, a `use … as` alias in the same file or renamed on
    // re-export, a call below a `#[cfg(test)]` field) are clean.
    assert_eq!(
        flagged,
        [
            "pub fn reexported() {}",
            "pub fn never_called() {}",
            "pub fn test_only_call() {}",
        ],
        "{:#?}",
        report.findings
    );
}

#[test]
fn stale_u01_allowlist_entry_fails_the_run() {
    let bin = env!("CARGO_BIN_EXE_tempograph-lint");
    let tmp = temp_copy("ws_dead_surface", "stale-u01");
    std::fs::write(
        tmp.join("lint-allow.toml"),
        "[[allow]]\nrule = \"U01\"\npath = \"crates/core/src/lib.rs\"\n\
         contains = \"fn perf_only\"\nreason = \"perf_only is live\"\n",
    )
    .expect("write stale allowlist");
    let code = Command::new(bin)
        .arg("--root")
        .arg(&tmp)
        .output()
        .expect("run tempograph-lint")
        .status
        .code();
    assert_eq!(code, Some(2), "stale U01 entry → 2");
    let _ = std::fs::remove_dir_all(&tmp);
}

#[test]
fn workspace_is_clean_under_committed_allowlist() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("workspace root resolves");
    assert!(
        Path::new(&root).join("lint-allow.toml").is_file(),
        "committed allowlist present"
    );
    let report = lint_workspace(&root).expect("lint run succeeds");
    assert!(report.files > 50, "walk found the workspace sources");
    assert!(
        report.findings.is_empty(),
        "workspace must lint clean: {:#?}",
        report.findings
    );
    assert!(
        report.stale.is_empty(),
        "no stale allowlist entries: {:#?}",
        report.stale
    );
}
