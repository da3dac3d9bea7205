//! W02 — wire-schema locking.
//!
//! The byte layouts of the TGFR frame, the message envelope/batch, worker
//! checkpoints, and ledger run records are load-bearing: PR 7/8 made them
//! durable and cross-process, so a reordered field is silent data
//! corruption for every reader built from an older commit. This pass
//! extracts field names/types/order (and enum variants with their explicit
//! discriminants) for every wire-format type into a canonical textual
//! fingerprint, compared byte-for-byte against committed golden files
//! under `schemas/`. A group may lock types declared outside the file
//! that owns its version constant: records that travel inside a frame are
//! locked where they are declared. The fingerprints cover declarations,
//! not bytes; the engine's payload bytes are pinned by its hex goldens.
//!
//! Workflow: an *intentional* layout change bumps the governing version
//! constant (`FRAME_VERSION` for the frame family, gofs `FORMAT_VERSION`
//! for framed records) and regenerates goldens with
//! `tempograph-lint --write-schemas`. The writer refuses to overwrite a
//! golden whose shape changed while the recorded version value did not —
//! so drift without a version bump always exits 2, in CI and locally.

use crate::lexer;
use crate::parser::FileAst;
use std::path::Path;

/// One family of wire types sharing a golden file and a version constant.
pub struct SchemaGroup {
    /// Golden file stem: `schemas/<name>.schema`.
    pub name: &'static str,
    /// Path suffixes of the files declaring this group's types.
    pub files: &'static [&'static str],
    /// Type names to fingerprint, in golden-file order.
    pub types: &'static [&'static str],
    /// `(file suffix, const name)` of the governing version constant.
    pub version: (&'static str, &'static str),
}

/// Every locked wire format in the workspace. A group whose files are all
/// absent under the lint root is skipped, so fixture mini-workspaces lock
/// only the formats they mirror.
pub const GROUPS: &[SchemaGroup] = &[
    SchemaGroup {
        name: "wire",
        files: &["crates/engine/src/wire.rs"],
        types: &["Envelope"],
        version: ("crates/engine/src/net.rs", "FRAME_VERSION"),
    },
    SchemaGroup {
        name: "batch",
        files: &["crates/engine/src/batch.rs"],
        types: &["MessageBatch"],
        version: ("crates/engine/src/net.rs", "FRAME_VERSION"),
    },
    SchemaGroup {
        name: "net",
        // The Output frame encodes the engine's own records, so their
        // declarations are locked where they live.
        files: &[
            "crates/engine/src/net.rs",
            "crates/engine/src/metrics.rs",
            "crates/trace/src/sink.rs",
            "crates/metrics/src/histogram.rs",
        ],
        types: &[
            "FrameKind",
            "Frame",
            "HelloMsg",
            "StartMsg",
            "AbortMsg",
            "TelemetryMsg",
            "TraceEvent",
            "Histogram",
            "MetricsShard",
            "AttributionRow",
            "WorkerStatusWire",
            "StatusReplyMsg",
            "TimestepMetrics",
            "Emit",
        ],
        version: ("crates/engine/src/net.rs", "FRAME_VERSION"),
    },
    SchemaGroup {
        name: "sync",
        files: &["crates/engine/src/sync.rs"],
        types: &["Contribution", "Aggregate"],
        version: ("crates/engine/src/net.rs", "FRAME_VERSION"),
    },
    SchemaGroup {
        name: "checkpoint",
        files: &["crates/engine/src/checkpoint.rs"],
        types: &["SubgraphCheckpoint", "WorkerCheckpoint", "Manifest"],
        version: ("crates/gofs/src/codec.rs", "FORMAT_VERSION"),
    },
    SchemaGroup {
        name: "ledger",
        files: &["crates/ledger/src/record.rs"],
        types: &[
            "ConfigFingerprint",
            "RunAggregates",
            "WorkerTiming",
            "AttributionEntry",
            "RunRecord",
        ],
        version: ("crates/gofs/src/codec.rs", "FORMAT_VERSION"),
    },
];

/// Outcome of the schema check.
pub struct SchemaReport {
    /// Human-readable drift diagnostics; non-empty ⇒ exit 2.
    pub drift: Vec<String>,
    /// Number of groups actually checked (present in this workspace).
    pub checked: usize,
}

/// Render the current fingerprints for every group present in `files`.
/// Returns `(group name, canonical content)` pairs.
pub fn render(files: &[FileAst]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for group in GROUPS {
        let present: Vec<&FileAst> = group
            .files
            .iter()
            .filter_map(|suf| files.iter().find(|f| f.path.ends_with(suf)))
            .collect();
        if present.is_empty() {
            continue;
        }
        let mut body = String::new();
        body.push_str("# tempograph-lint wire-schema fingerprint. Do not edit by hand;\n");
        body.push_str("# regenerate with `cargo run -p tempograph-lint -- --write-schemas`\n");
        body.push_str("# after bumping the governing version constant.\n");
        body.push_str(&format!("group {}\n", group.name));
        body.push_str(&format!("{}\n", version_line(files, group)));
        for ty in group.types {
            match find_type(&present, ty) {
                Some((file, text)) => {
                    body.push_str(&format!("{} @ {}\n", text.0, file));
                    for line in &text.1 {
                        body.push_str(&format!("  {line}\n"));
                    }
                }
                None => {
                    body.push_str(&format!(
                        "type {ty} NOT FOUND — renamed or moved without updating schema groups\n"
                    ));
                }
            }
        }
        out.push((group.name.to_string(), body));
    }
    out
}

/// Compare current fingerprints against `root/schemas/*.schema`.
pub fn check(root: &Path, files: &[FileAst]) -> SchemaReport {
    let rendered = render(files);
    let mut drift = Vec::new();
    for (name, current) in &rendered {
        let golden_path = root.join("schemas").join(format!("{name}.schema"));
        match std::fs::read_to_string(&golden_path) {
            Ok(golden) => {
                if golden != *current {
                    let detail = first_diff(&golden, current);
                    drift.push(format!(
                        "schemas/{name}.schema: wire-schema drift — {detail}\n        \
                         if intentional: bump the governing version constant, then \
                         `cargo run -p tempograph-lint -- --write-schemas`"
                    ));
                }
            }
            Err(_) => drift.push(format!(
                "schemas/{name}.schema: golden file missing — run \
                 `cargo run -p tempograph-lint -- --write-schemas` and commit it"
            )),
        }
    }
    SchemaReport {
        drift,
        checked: rendered.len(),
    }
}

/// Regenerate goldens. Refuses any group whose type shapes changed while
/// the recorded version value did not — the whole point of the lock.
/// Returns the relative paths written.
pub fn write(root: &Path, files: &[FileAst]) -> Result<Vec<String>, String> {
    let rendered = render(files);
    let dir = root.join("schemas");
    let mut written = Vec::new();
    for (name, current) in &rendered {
        let golden_path = dir.join(format!("{name}.schema"));
        if let Ok(golden) = std::fs::read_to_string(&golden_path) {
            if golden == *current {
                continue; // up to date
            }
            let old_version = version_value_of(&golden);
            let new_version = version_value_of(current);
            let shape_changed = strip_version(&golden) != strip_version(current);
            if shape_changed && old_version == new_version {
                return Err(format!(
                    "schemas/{name}.schema: refusing to regenerate — type shapes changed but \
                     the governing version constant is still {}; bump it first",
                    new_version.unwrap_or_else(|| "?".into())
                ));
            }
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        std::fs::write(&golden_path, current)
            .map_err(|e| format!("{}: {e}", golden_path.display()))?;
        written.push(format!("schemas/{name}.schema"));
    }
    Ok(written)
}

/// `version FRAME_VERSION = 1 @ crates/engine/src/net.rs`
fn version_line(files: &[FileAst], group: &SchemaGroup) -> String {
    let (suffix, konst) = group.version;
    let value = files
        .iter()
        .find(|f| f.path.ends_with(suffix))
        .and_then(|f| const_value(f, konst));
    match value {
        Some(v) => format!("version {konst} = {v} @ {suffix}"),
        None => format!("version {konst} = ? @ {suffix} (constant not found)"),
    }
}

/// Value tokens of `const NAME … = <value> ;` in a file, joined.
fn const_value(file: &FileAst, name: &str) -> Option<String> {
    let toks = &file.toks;
    for i in 0..toks.len() {
        if toks[i].text == "const" && toks.get(i + 1).is_some_and(|t| t.text == name) {
            let mut j = i + 2;
            while j < toks.len() && toks[j].text != "=" && toks[j].text != ";" {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.text == "=") {
                let start = j + 1;
                let mut end = start;
                while end < toks.len() && toks[end].text != ";" {
                    end += 1;
                }
                return Some(join_tokens(
                    toks[start..end].iter().map(|t| t.text.as_str()),
                ));
            }
        }
    }
    None
}

fn version_value_of(content: &str) -> Option<String> {
    content
        .lines()
        .find(|l| l.starts_with("version "))
        .map(|l| l.to_string())
}

fn strip_version(content: &str) -> String {
    content
        .lines()
        .filter(|l| !l.starts_with("version ") && !l.starts_with('#'))
        .collect::<Vec<_>>()
        .join("\n")
}

fn first_diff(golden: &str, current: &str) -> String {
    for (n, (g, c)) in golden.lines().zip(current.lines()).enumerate() {
        if g != c {
            return format!("golden line {}: `{}` → now `{}`", n + 1, g, c);
        }
    }
    let (gl, cl) = (golden.lines().count(), current.lines().count());
    format!("golden has {gl} lines, current has {cl}")
}

/// Locate `struct T` / `enum T` in the group's files and fingerprint it.
/// Returns `(file path, (header line, body lines))`.
fn find_type<'a>(files: &[&'a FileAst], name: &str) -> Option<(&'a str, (String, Vec<String>))> {
    for file in files {
        let toks = &file.toks;
        let mask = lexer::test_mask(toks);
        for i in 0..toks.len() {
            if mask[i] {
                continue;
            }
            let kw = toks[i].text.as_str();
            if (kw == "struct" || kw == "enum") && toks.get(i + 1).is_some_and(|t| t.text == name) {
                let fp = if kw == "struct" {
                    fingerprint_struct(toks, i + 2, name)
                } else {
                    fingerprint_enum(toks, i + 2, name)
                };
                return Some((file.path.as_str(), fp));
            }
        }
    }
    None
}

fn texts_of(toks: &[lexer::Tok]) -> Vec<&str> {
    toks.iter().map(|t| t.text.as_str()).collect()
}

fn fingerprint_struct(toks: &[lexer::Tok], mut j: usize, name: &str) -> (String, Vec<String>) {
    let texts = texts_of(toks);
    let end = texts.len();
    if texts.get(j) == Some(&"<") {
        j = close_angle(&texts, j, end) + 1;
    }
    // `where` clauses sit between generics and the body.
    while j < end && !matches!(texts[j], "{" | "(" | ";") {
        j += 1;
    }
    match texts.get(j) {
        Some(&"{") => {
            let close = close_delim(&texts, j, "{", "}", end);
            let mut fields = Vec::new();
            let mut k = j + 1;
            while k < close {
                k = skip_field_prefix(&texts, k, close);
                if k >= close {
                    break;
                }
                if is_ident(texts[k]) && texts.get(k + 1) == Some(&":") {
                    let fname = texts[k];
                    let (ty, next) = take_until_comma(&texts, k + 2, close);
                    fields.push(format!("{fname}: {ty}"));
                    k = next;
                } else {
                    k += 1;
                }
            }
            (format!("struct {name}"), fields)
        }
        Some(&"(") => {
            let close = close_delim(&texts, j, "(", ")", end);
            let mut fields = Vec::new();
            let mut k = j + 1;
            let mut idx = 0usize;
            while k < close {
                k = skip_field_prefix(&texts, k, close);
                if k >= close {
                    break;
                }
                let (ty, next) = take_until_comma(&texts, k, close);
                if !ty.is_empty() {
                    fields.push(format!("{idx}: {ty}"));
                    idx += 1;
                }
                k = next;
            }
            (format!("struct {name} (tuple)"), fields)
        }
        _ => (format!("struct {name} (unit)"), Vec::new()),
    }
}

fn fingerprint_enum(toks: &[lexer::Tok], mut j: usize, name: &str) -> (String, Vec<String>) {
    let texts = texts_of(toks);
    let end = texts.len();
    if texts.get(j) == Some(&"<") {
        j = close_angle(&texts, j, end) + 1;
    }
    while j < end && texts[j] != "{" {
        j += 1;
    }
    let close = close_delim(&texts, j, "{", "}", end);
    let mut variants = Vec::new();
    let mut k = j + 1;
    while k < close {
        k = skip_field_prefix(&texts, k, close);
        if k >= close || !is_ident(texts[k]) {
            k += 1;
            continue;
        }
        let vname = texts[k];
        let mut line = vname.to_string();
        k += 1;
        match texts.get(k) {
            Some(&"(") => {
                let c = close_delim(&texts, k, "(", ")", close);
                line.push_str(&format!(
                    "({})",
                    join_tokens(texts[k + 1..c].iter().copied())
                ));
                k = c + 1;
            }
            Some(&"{") => {
                let c = close_delim(&texts, k, "{", "}", close);
                line.push_str(&format!(
                    " {{ {} }}",
                    join_tokens(texts[k + 1..c].iter().copied())
                ));
                k = c + 1;
            }
            _ => {}
        }
        if texts.get(k) == Some(&"=") {
            let (v, next) = take_until_comma(&texts, k + 1, close);
            line.push_str(&format!(" = {v}"));
            k = next;
            variants.push(line);
            continue;
        }
        // Skip to the separating comma.
        while k < close && texts[k] != "," {
            k += 1;
        }
        k += 1;
        variants.push(line);
    }
    (format!("enum {name}"), variants)
}

/// Skip visibility and attributes before a field/variant.
fn skip_field_prefix(texts: &[&str], mut k: usize, end: usize) -> usize {
    loop {
        match texts.get(k.min(end)) {
            Some(&"pub") => {
                k += 1;
                if texts.get(k) == Some(&"(") {
                    k = close_delim(texts, k, "(", ")", end) + 1;
                }
            }
            Some(&"#") if texts.get(k + 1) == Some(&"[") => {
                k = close_delim(texts, k + 1, "[", "]", end) + 1;
            }
            Some(&",") => k += 1,
            _ => return k,
        }
    }
}

/// Collect tokens up to a depth-0 comma (or `end`), returning the joined
/// text and the index past the comma.
fn take_until_comma(texts: &[&str], start: usize, end: usize) -> (String, usize) {
    let mut depth = 0i32;
    let mut k = start;
    while k < end {
        match texts[k] {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 0 => break,
            _ => {}
        }
        k += 1;
    }
    (join_tokens(texts[start..k.min(end)].iter().copied()), k + 1)
}

/// Join tokens compactly: a space only between two word-like tokens.
fn join_tokens<'a>(toks: impl Iterator<Item = &'a str>) -> String {
    let mut out = String::new();
    let mut prev_word = false;
    for t in toks {
        let word = is_ident(t) || t.chars().next().is_some_and(|c| c.is_ascii_digit());
        if word && prev_word {
            out.push(' ');
        }
        out.push_str(t);
        prev_word = word;
    }
    out
}

fn close_delim(texts: &[&str], i: usize, open: &str, close: &str, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        if texts[j] == open {
            depth += 1;
        } else if texts[j] == close {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    end.saturating_sub(1)
}

fn close_angle(texts: &[&str], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < end {
        match texts[j] {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            "(" | "{" | ";" => return j,
            _ => {}
        }
        j += 1;
    }
    end.saturating_sub(1)
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn fp(src: &str, name: &str) -> (String, Vec<String>) {
        let ast = parser::parse("x.rs", src);
        let files = [&ast];
        find_type(&files, name).expect("type present").1
    }

    #[test]
    fn struct_fields_in_declaration_order() {
        let (hdr, fields) = fp(
            "#[derive(Debug)]\npub struct Envelope<M: WireMsg> {\n\
               pub from: SubgraphId,\n pub to: SubgraphId,\n pub seq: u32,\n pub payload: M,\n}",
            "Envelope",
        );
        assert_eq!(hdr, "struct Envelope");
        assert_eq!(
            fields,
            vec![
                "from: SubgraphId",
                "to: SubgraphId",
                "seq: u32",
                "payload: M"
            ]
        );
    }

    #[test]
    fn generic_field_types_are_canonicalised() {
        let (_, fields) = fp(
            "pub struct R { pub timings: Vec<WorkerTiming>, pub extra: Option<Box<u64>> }",
            "R",
        );
        assert_eq!(
            fields,
            vec!["timings: Vec<WorkerTiming>", "extra: Option<Box<u64>>"]
        );
    }

    #[test]
    fn enum_variants_keep_explicit_discriminants() {
        let (hdr, variants) = fp(
            "pub enum FrameKind { Hello = 1, Data(u32) = 2, Done { code: u8 } = 3, Plain }",
            "FrameKind",
        );
        assert_eq!(hdr, "enum FrameKind");
        assert_eq!(
            variants,
            vec![
                "Hello = 1",
                "Data(u32) = 2",
                "Done { code:u8 } = 3",
                "Plain"
            ]
        );
    }

    #[test]
    fn reordering_fields_changes_the_fingerprint() {
        let a = fp("struct S { a: u32, b: u64 }", "S");
        let b = fp("struct S { b: u64, a: u32 }", "S");
        assert_ne!(a, b);
    }

    #[test]
    fn renaming_a_type_reports_not_found_in_render() {
        let ast = parser::parse(
            "crates/engine/src/wire.rs",
            "pub struct Envelop2 { a: u32 }",
        );
        let rendered = render(&[ast]);
        let wire = &rendered.iter().find(|(n, _)| n == "wire").unwrap().1;
        assert!(wire.contains("type Envelope NOT FOUND"), "{wire}");
    }

    #[test]
    fn absent_groups_are_skipped() {
        let ast = parser::parse(
            "crates/engine/src/wire.rs",
            "pub struct Envelope { a: u32 }",
        );
        let rendered = render(&[ast]);
        assert_eq!(rendered.len(), 1, "only the wire group is present");
    }
}
