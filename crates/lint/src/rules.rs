//! The lint rules.
//!
//! | rule | invariant |
//! |------|-----------|
//! | D01  | no `HashMap`/`HashSet` iteration on determinism-critical paths without an explicit sort |
//! | D02  | no `Instant::now`/`SystemTime::now` outside the trace crate's `Clock` abstraction |
//! | D03  | no unseeded randomness (`thread_rng`, `from_entropy`, `OsRng`, `rand::random`) |
//! | P01  | no `unwrap`/`expect`/`panic!` or unchecked `bytes::Buf` getter in the engine worker hot path (superstep loop, message decode, checkpoint restore) |
//! | A01  | no `Ordering::Relaxed` on sync-critical atomics |
//! | W01  | wire-format `decode` matches may not use `_` wildcard arms |
//! | F01  | every crate root carries `#![forbid(unsafe_code)]` |
//! | U01  | every `pub`/`pub(crate)` fn or inherent method of a library crate is named by non-test code |
//!
//! Rules run over the token stream from [`crate::lexer`], with
//! `#[cfg(test)]` items masked out. Scoping is path-based (see
//! [`analyze`]); fixture self-tests use [`analyze_all_rules`], which treats
//! the whole file as in scope for every rule.
//!
//! On top of the per-file pass, [`analyze_transitive`] re-expresses P01 and
//! D02 — and adds **H01** (no heap allocation in instrumentation code on
//! the disabled path) — as reachability properties over the workspace call
//! graph, rooted at the executor superstep loop, the transport's
//! entry points, and the wire/frame/checkpoint/ledger codecs. Transitive
//! findings carry a root→violation call chain in their message.
//!
//! [`analyze_dead_surface`] (U01) is the third, workspace-wide pass: a
//! public fn whose name no non-test token mentions is dead surface.

use crate::callgraph::{CallGraph, FnId};
use crate::lexer::{self, Tok};
use crate::parser::{FileAst, FnItem};
use std::collections::BTreeSet;

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule ID, e.g. `"D01"`.
    pub rule: &'static str,
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human explanation of the violation.
    pub msg: String,
    /// The source line text (allowlist `contains` matches against this).
    pub line_text: String,
}

/// Hash collection type names whose iteration order is nondeterministic.
const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
/// Methods that observe a collection's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];
/// Calls that impose a deterministic order on iterated elements: an
/// iteration immediately followed (within a short window) by one of these
/// is considered sorted and therefore fine.
const SORT_CALLS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];
/// Order-insensitive reductions: consuming an unordered iterator with one
/// of these is deterministic regardless of visit order.
const ORDER_FREE: &[&str] = &["count", "sum", "any", "all", "len", "min", "max"];

/// Hot-path function names in the executor for rule P01: the worker's
/// timestep/superstep loop, compute phase, the message decode/route path,
/// and the checkpoint restore, which reads a file. Checkpoint writes and
/// driver-side assembly are deliberately outside — they may fail loudly.
const HOT_FNS: &[&str] = &[
    "restore_from",
    "run_timestep_loop",
    "run_bsp",
    "run_merge",
    "close_phase",
    "route",
    "stage",
    "drain",
    "deliver_staged",
];

/// Files whose `fn decode` bodies are wire/storage codecs (rule W01).
const CODEC_FILES: &[&str] = &[
    "crates/core/src/wire.rs",
    "crates/partition/src/subgraphs.rs",
    "crates/trace/src/sink.rs",
    "crates/metrics/src/histogram.rs",
    "crates/engine/src/wire.rs",
    "crates/engine/src/batch.rs",
    "crates/engine/src/checkpoint.rs",
    "crates/engine/src/net.rs",
    "crates/engine/src/cluster.rs",
    "crates/gofs/src/codec.rs",
    "crates/gofs/src/slice.rs",
    "crates/gofs/src/store.rs",
    "crates/gofs/src/view.rs",
    "crates/ledger/src/record.rs",
    "crates/algos/src/community.rs",
    "crates/algos/src/tdsp.rs",
    "crates/algos/src/meme.rs",
    "crates/algos/src/sssp.rs",
    "crates/algos/src/wcc.rs",
    "crates/algos/src/reachability.rs",
];

/// The codec vocabulary's home: its checked reads are the one place the
/// panicking `bytes::Buf` getters may be called (rule P01).
const WIRE_HOME: &str = "crates/core/src/wire.rs";

/// The types of the `bytes::Buf` fixed-width getters (`get_u8`,
/// `get_u32_le`, `get_f64`, …), each of which panics on a short buffer.
const BUF_GETTER_TYPES: &[&str] = &[
    "u8", "i8", "u16", "i16", "u32", "i32", "u64", "i64", "u128", "i128", "f32", "f64", "uint",
    "int",
];

fn is_buf_getter(name: &str) -> bool {
    let Some(ty) = name.strip_prefix("get_") else {
        return false;
    };
    let endian = ["_le", "_be", "_ne"]
        .iter()
        .find_map(|s| ty.strip_suffix(s));
    BUF_GETTER_TYPES.contains(&endian.unwrap_or(ty))
}

/// What P01 finds at token `t`, between the tokens `prev` and `next`:
/// `.unwrap()`, `.expect()`, `panic!`/`todo!`/`unimplemented!`, or, in any
/// file but [`WIRE_HOME`], a `bytes::Buf` getter in method form.
fn p01_token(path: &str, prev: Option<&str>, t: &str, next: Option<&str>) -> Option<String> {
    match (prev, t, next) {
        (Some("."), "unwrap" | "expect", Some("(")) => Some(format!("`.{t}()`")),
        (_, "panic" | "todo" | "unimplemented", Some("!")) => Some(format!("`{t}!`")),
        (Some("."), _, Some("(")) if is_buf_getter(t) && !path.ends_with(WIRE_HOME) => Some(
            format!("`.{t}()`, an unchecked `Buf` getter (read through `tempograph_core::wire`)"),
        ),
        _ => None,
    }
}

/// What parts of a file each rule applies to.
struct Scope {
    /// D01/D03/A01 apply (everywhere except fixtures in normal mode).
    core: bool,
    /// D02 applies (everywhere outside `crates/trace/src`).
    d02: bool,
    /// P01: `None` = not in scope, `Some(None)` = whole file,
    /// `Some(Some(fns))` = only those function bodies.
    p01: Option<Option<&'static [&'static str]>>,
    /// W01 applies to `fn decode` bodies in this file.
    w01: bool,
    /// F01 applies (crate roots).
    f01: bool,
}

fn scope_for(path: &str) -> Scope {
    let p01 = if path.ends_with(WIRE_HOME)
        || path.ends_with("crates/engine/src/wire.rs")
        || path.ends_with("crates/engine/src/batch.rs")
    {
        Some(None)
    } else if path.ends_with("crates/engine/src/executor.rs") {
        Some(Some(HOT_FNS))
    } else {
        None
    };
    Scope {
        core: true,
        d02: !path.contains("crates/trace/src"),
        p01,
        w01: CODEC_FILES.iter().any(|f| path.ends_with(f)),
        f01: path.ends_with("src/lib.rs"),
    }
}

fn scope_all() -> Scope {
    Scope {
        core: true,
        d02: true,
        p01: Some(None),
        w01: true,
        f01: true,
    }
}

/// Analyze one file with path-based rule scoping (the workspace walk).
pub fn analyze(path: &str, src: &str) -> Vec<Finding> {
    run(path, src, scope_for(path))
}

/// Analyze with every rule in scope over the whole file (fixture corpus
/// and rule self-tests).
pub fn analyze_all_rules(path: &str, src: &str) -> Vec<Finding> {
    run(path, src, scope_all())
}

fn run(path: &str, src: &str, scope: Scope) -> Vec<Finding> {
    let toks = lexer::lex(src);
    let mask = lexer::test_mask(&toks);
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    let push = |rule: &'static str, line: u32, msg: String, out: &mut Vec<Finding>| {
        out.push(Finding {
            rule,
            path: path.to_string(),
            line,
            msg,
            line_text: lines
                .get(line.saturating_sub(1) as usize)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        });
    };

    if scope.core {
        d01(&toks, &texts, &mask, &mut out, path, &lines);
        d03(&toks, &texts, &mask, &mut out, path, &lines);
        a01(&toks, &texts, &mask, &mut out, path, &lines);
    }
    if scope.d02 {
        for i in 0..texts.len() {
            if mask[i] {
                continue;
            }
            if (texts[i] == "Instant" || texts[i] == "SystemTime")
                && texts.get(i + 1) == Some(&"::")
                && texts.get(i + 2) == Some(&"now")
                && texts.get(i + 3) == Some(&"(")
            {
                push(
                    "D02",
                    toks[i].line,
                    format!(
                        "`{}::now()` outside the trace crate — use `tempograph_trace::Clock`",
                        texts[i]
                    ),
                    &mut out,
                );
            }
        }
    }
    if let Some(fns) = scope.p01 {
        let ranges: Vec<(usize, usize)> = match fns {
            None => vec![(0, toks.len())],
            Some(names) => names
                .iter()
                .flat_map(|n| lexer::fn_extents(&toks, n))
                .collect(),
        };
        for (s, e) in ranges {
            for i in s..e.min(texts.len()) {
                if mask[i] {
                    continue;
                }
                let prev = i.checked_sub(1).map(|j| texts[j]);
                if let Some(what) = p01_token(path, prev, texts[i], texts.get(i + 1).copied()) {
                    push(
                        "P01",
                        toks[i].line,
                        format!(
                            "{what} in the engine worker hot path — return a typed error instead"
                        ),
                        &mut out,
                    );
                }
            }
        }
    }
    if scope.w01 {
        for (s, e) in lexer::fn_extents(&toks, "decode") {
            for i in s..e.min(texts.len()) {
                if mask[i] {
                    continue;
                }
                if texts[i] == "_" && texts.get(i + 1) == Some(&"=>") {
                    push(
                        "W01",
                        toks[i].line,
                        "wildcard `_` arm in a wire-format `decode` match — bind the tag and \
                         return a typed error so new variants cannot be silently swallowed"
                            .to_string(),
                        &mut out,
                    );
                }
            }
        }
    }
    if scope.f01 {
        let has = texts.windows(6).any(|w| {
            w[0] == "!" && w[1] == "[" && w[2] == "forbid" && w[3] == "(" && w[4] == "unsafe_code"
        });
        if !has {
            push(
                "F01",
                1,
                "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
                &mut out,
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Transitive reachability rules (workspace call-graph pass)
// ---------------------------------------------------------------------------

/// Executor fns that root the hot-path closure: the timestep/superstep
/// drivers. Everything they transitively call runs once per superstep per
/// subgraph and must be panic-free, clock-free, and (for instrumentation)
/// allocation-free when disabled.
pub const HOT_ROOTS_EXECUTOR: &[&str] = &["run_timestep_loop", "run_bsp", "run_merge"];

/// The worker transport's entry points (`WorkerLinks`). `telemetry` is
/// the per-round observability flush: it runs on the barrier path
/// whenever any instrumentation is armed, so its closure obeys the same
/// rules.
pub const HOT_ROOTS_TRANSPORT: &[&str] = &["send", "close_phase", "barrier", "telemetry"];

/// Where the superstep loop's roots live: the executor drivers and the
/// transport's entry points.
const LOOP_ROOT_FILES: &[(&str, &[&str])] = &[
    ("crates/engine/src/executor.rs", HOT_ROOTS_EXECUTOR),
    ("crates/engine/src/transport.rs", HOT_ROOTS_TRANSPORT),
];

/// Codec entry-point names: any fn with one of these names in a
/// `CODEC_FILES` file roots the wire/frame/checkpoint/ledger closure.
/// `restore_state` is a program's checkpoint decoder: it reads a blob
/// from disk, so it is a codec even in `crates/algos`.
pub const HOT_ROOTS_CODEC: &[&str] = &[
    "encode",
    "decode",
    "restore_state",
    "encode_into",
    "decode_from",
    "read_frame",
    "write_frame",
];

/// Files where slice/array indexing panics on wire- or state-derived
/// indices (the P01 indexing sub-check). The executor is deliberately NOT
/// here: its dense per-partition arrays are sized once at init and indexed
/// by partition/subgraph ids that are structurally in-range — flagging
/// every `self.inbox[i]` would bury the signal. gofs columnar reads are
/// directory-vetted at decode (PR 6) and carry their own bounds checks.
const INDEX_CHECK_FILES: &[&str] = &[
    "crates/core/src/wire.rs",
    "crates/engine/src/wire.rs",
    "crates/engine/src/batch.rs",
    "crates/engine/src/net.rs",
    "crates/engine/src/transport.rs",
    "crates/engine/src/cluster.rs",
    "crates/engine/src/checkpoint.rs",
    "crates/ledger/src/record.rs",
];

/// Instrumentation crates rule H01 polices: code here that is reachable
/// from a hot root *without an intervening disabled-guard* must not
/// allocate — when tracing/metrics/the ledger are off, the hot path must
/// be zero-alloc (backed dynamically by the counting-allocator smoke
/// tests; H01 is the static side of that contract).
const H01_FILES: &[&str] = &[
    "crates/trace/src/",
    "crates/metrics/src/",
    "crates/ledger/src/",
];

/// Allocating calls/macros H01 looks for (token-pattern, rendered name).
const ALLOC_PATTERNS: &[(&[&str], &str)] = &[
    (&["Box", "::", "new", "("], "Box::new"),
    (&["String", "::", "from", "("], "String::from"),
    (&["format", "!"], "format!"),
    (&["vec", "!"], "vec!"),
    (&[".", "to_string", "("], ".to_string()"),
    (&[".", "to_owned", "("], ".to_owned()"),
    (&[".", "to_vec", "("], ".to_vec()"),
    (&[".", "push", "("], ".push()"),
    (&[".", "extend", "("], ".extend()"),
    (&[".", "reserve", "("], ".reserve()"),
    (&["::", "with_capacity", "("], "::with_capacity()"),
];

/// Is this fn outside the transitive analysis boundary? `crates/algos`
/// and `crates/pregel` hold `SubgraphProgram` user code (the latter hosts
/// vertex programs) — its compute panics are recovered by the
/// checkpoint/retry machinery, so traversal stops there, EXCEPT for codec
/// entry points (algo message types cross the wire and their decode runs
/// on the worker hot path; `restore_state` decodes a checkpoint blob).
fn outside_boundary(path: &str, f: &FnItem) -> bool {
    (path.contains("crates/algos/") || path.contains("crates/pregel/"))
        && !HOT_ROOTS_CODEC.contains(&f.name.as_str())
}

/// The superstep-loop root set: executor drivers plus the transport's
/// entry points (`LOOP_ROOT_FILES`). This is the per-superstep
/// steady-state path — also the root set for H01 (allocations here happen
/// every superstep).
pub fn loop_roots(graph: &CallGraph) -> Vec<FnId> {
    let mut roots = Vec::new();
    for (file, names) in LOOP_ROOT_FILES {
        roots.extend(graph.roots_in(file, |f| names.contains(&f.name.as_str())));
    }
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Collect the full hot-path root set for a workspace call graph: the
/// superstep loop plus every codec entry point. P01/D02 run over this
/// closure; H01 runs over [`loop_roots`] only, because decode
/// reconstructs owned records — it is inherently allocating and runs in
/// tooling and crash recovery, not the per-superstep loop.
pub fn hot_roots(graph: &CallGraph) -> Vec<FnId> {
    let mut roots = loop_roots(graph);
    for file in CODEC_FILES {
        roots.extend(graph.roots_in(file, |f| HOT_ROOTS_CODEC.contains(&f.name.as_str())));
    }
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Run the transitive P01/D02/H01 passes over a workspace call graph.
/// Findings carry the root→violation chain in `msg`.
pub fn analyze_transitive(graph: &CallGraph) -> Vec<Finding> {
    let roots = hot_roots(graph);
    let mut out = Vec::new();

    // P01 + D02 share one closure: full traversal, stopping only at the
    // algos program boundary.
    let reach = graph.closure(&roots, |id, f| outside_boundary(&graph.files[id.0].path, f));
    for (&id, parent) in &reach {
        let file = &graph.files[id.0];
        let f = &file.fns[id.1];
        if outside_boundary(&file.path, f) && parent.is_some() {
            // Boundary fn reached from inside the closure (not a root):
            // traversal stopped here and its body is out of scope.
            continue;
        }
        let Some((bs, be)) = f.body else { continue };
        let chain = graph.chain(&reach, id);
        scan_p01_body(file, bs, be, &chain, &mut out);
        scan_d02_body(file, bs, be, &chain, &mut out);
    }

    // H01: superstep-loop roots only, and guarded fns are boundaries —
    // the guard proves everything past it runs only when the subsystem
    // is enabled.
    let h01_roots = loop_roots(graph);
    let h01_reach = graph.closure(&h01_roots, |id, f| {
        f.guarded || outside_boundary(&graph.files[id.0].path, f)
    });
    for &id in h01_reach.keys() {
        let file = &graph.files[id.0];
        let f = &file.fns[id.1];
        if f.guarded || outside_boundary(&file.path, f) {
            continue;
        }
        if !H01_FILES.iter().any(|p| file.path.contains(p)) {
            continue;
        }
        let Some((bs, be)) = f.body else { continue };
        let chain = graph.chain(&h01_reach, id);
        scan_h01_body(file, bs, be, &chain, &mut out);
    }

    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out.dedup_by(|a, b| (a.rule, &a.path, a.line) == (b.rule, &b.path, b.line));
    out
}

fn finding_at(rule: &'static str, file: &FileAst, line: u32, msg: String) -> Finding {
    Finding {
        rule,
        path: file.path.clone(),
        line,
        msg,
        line_text: file
            .src
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .map(|l| l.trim().to_string())
            .unwrap_or_default(),
    }
}

fn scan_p01_body(
    file: &crate::parser::FileAst,
    bs: usize,
    be: usize,
    chain: &str,
    out: &mut Vec<Finding>,
) {
    let toks = &file.toks;
    let check_index = INDEX_CHECK_FILES.iter().any(|p| file.path.ends_with(p));
    let mut i = bs;
    while i < be.min(toks.len()) {
        let t = toks[i].text.as_str();
        let next = |k: usize| toks.get(i + k).map(|t| t.text.as_str());
        let prev = |k: usize| i.checked_sub(k).map(|j| toks[j].text.as_str());
        let hit = p01_token(&file.path, prev(1), t, next(1)).or_else(|| {
            (check_index && t == "[" && can_panic_index(toks, i, be))
                .then(|| "slice indexing on a non-literal index".to_string())
        });
        if let Some(what) = hit {
            out.push(finding_at(
                "P01",
                file,
                toks[i].line,
                format!(
                    "{what} reachable from a hot-path root — return a typed error instead\n        \
                     via {chain}"
                ),
            ));
            // One finding per line per cause is enough; skip to line end.
            let line = toks[i].line;
            while i < be.min(toks.len()) && toks[i].line == line {
                i += 1;
            }
            continue;
        }
        i += 1;
    }
}

/// Is `toks[i] == "["` an indexing expression that can panic? True when
/// the bracket follows a value (ident, `)`, or `]`) and its contents name
/// at least one identifier — `buf[pos]`, `&frame[a..b]`. Literal-only
/// indices (`hdr[0]`) address fixed layouts and are exempt, as are
/// attribute/array-type/slice-pattern brackets (no value before them).
fn can_panic_index(toks: &[Tok], i: usize, be: usize) -> bool {
    let Some(prev) = i.checked_sub(1).map(|j| toks[j].text.as_str()) else {
        return false;
    };
    let value_before = prev == ")"
        || prev == "]"
        || (prev
            .chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
            && !matches!(
                prev,
                "mut" | "ref" | "return" | "in" | "as" | "dyn" | "else" | "match"
            ));
    if !value_before {
        return false;
    }
    let mut depth = 0i32;
    let mut j = i;
    while j < be.min(toks.len()) {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return false;
                }
            }
            s if depth >= 1
                && s.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                && !matches!(s, "as" | "usize" | "u8" | "u16" | "u32" | "u64" | "mut") =>
            {
                return true;
            }
            _ => {}
        }
        j += 1;
    }
    false
}

fn scan_d02_body(
    file: &crate::parser::FileAst,
    bs: usize,
    be: usize,
    chain: &str,
    out: &mut Vec<Finding>,
) {
    if file.path.contains("crates/trace/src") {
        return; // the Clock abstraction itself
    }
    let toks = &file.toks;
    for i in bs..be.min(toks.len()) {
        let t = toks[i].text.as_str();
        if (t == "Instant" || t == "SystemTime")
            && toks.get(i + 1).is_some_and(|t| t.text == "::")
            && toks.get(i + 2).is_some_and(|t| t.text == "now")
            && toks.get(i + 3).is_some_and(|t| t.text == "(")
        {
            out.push(finding_at(
                "D02",
                file,
                toks[i].line,
                format!(
                    "`{t}::now()` reachable from a hot-path root — use `tempograph_trace::Clock`\n        \
                     via {chain}"
                ),
            ));
        }
    }
}

fn scan_h01_body(
    file: &crate::parser::FileAst,
    bs: usize,
    be: usize,
    chain: &str,
    out: &mut Vec<Finding>,
) {
    let toks = &file.toks;
    let mut i = bs;
    'outer: while i < be.min(toks.len()) {
        for (pat, name) in ALLOC_PATTERNS {
            if pat
                .iter()
                .enumerate()
                .all(|(k, want)| toks.get(i + k).is_some_and(|t| t.text == *want))
            {
                out.push(finding_at(
                    "H01",
                    file,
                    toks[i].line,
                    format!(
                        "`{name}` allocates in instrumentation code reachable from a hot-path \
                         root with no disabled-guard — hoist behind `if !self.on() {{ return }}` \
                         or preallocate\n        via {chain}"
                    ),
                ));
                let line = toks[i].line;
                while i < be.min(toks.len()) && toks[i].line == line {
                    i += 1;
                }
                continue 'outer;
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Dead public surface (U01)
// ---------------------------------------------------------------------------

/// Rule U01 over the lint surface `files`, with `readers` (examples, the
/// benchmark, bench targets) read for uses only.
///
/// A `pub`/`pub(crate)` free fn or inherent method of a library crate is
/// dead when no non-test token names it. Name resolution is deliberately
/// blind: any identifier equal to the name counts as a use (macro bodies
/// included), and so does an identifier that a `use … as` rename maps to
/// it. Tokens inside `#[cfg(test)]` items, `use` declarations (so a bare
/// `pub use` re-export keeps nothing alive) and the `fn` name slot do not.
/// Trait methods, trait-impl methods and `main` are exempt. The rule can
/// therefore miss a dead item that shares a live name, but never flags a
/// named one.
pub fn analyze_dead_surface(files: &[FileAst], readers: &[FileAst]) -> Vec<Finding> {
    let all = || files.iter().chain(readers);
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for ast in all() {
        collect_uses(ast, &mut used);
    }
    // A rename counts wherever it is declared: a `pub use a as b`
    // re-export is used as `b` in other files, even other crates.
    loop {
        let before = used.len();
        for (alias, orig) in all().flat_map(|ast| &ast.aliases) {
            if used.contains(alias.as_str()) {
                used.insert(orig.as_str());
            }
        }
        if used.len() == before {
            break;
        }
    }
    let mut out = Vec::new();
    for ast in files {
        if ast.path.ends_with("src/main.rs") || ast.path.contains("/src/bin/") {
            continue;
        }
        for f in &ast.fns {
            let exempt = !f.is_pub
                || f.test_only
                || f.in_trait
                || f.trait_impl.is_some()
                || f.name == "main";
            if exempt || used.contains(f.name.as_str()) {
                continue;
            }
            out.push(finding_at(
                "U01",
                ast,
                f.line,
                format!(
                    "`{}` is public but no non-test code names it — delete it, or allowlist \
                     it with the reason it stays",
                    f.display()
                ),
            ));
        }
    }
    out
}

/// Add every identifier `ast` uses outside test code to `used`.
fn collect_uses<'a>(ast: &'a FileAst, used: &mut BTreeSet<&'a str>) {
    let toks = &ast.toks;
    let mask = lexer::test_mask(toks);
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i].text.as_str();
        if mask[i] {
            i += 1;
        } else if t == "use" && toks.get(i + 1).is_some_and(|n| n.text != "<") {
            while i < toks.len() && toks[i].text != ";" {
                i += 1;
            }
        } else {
            let is_def = i > 0 && toks[i - 1].text == "fn";
            if !is_def
                && t.chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
            {
                used.insert(t);
            }
            i += 1;
        }
    }
}

/// Collect identifiers bound with a hash-collection type in this file:
/// `x: HashMap<…>` (lets, fields, params) and `x = HashMap::new()`-style
/// constructor bindings, with optional `std::collections::` paths.
fn hash_idents(texts: &[&str], mask: &[bool]) -> Vec<String> {
    let is_ident = |s: &str| {
        s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
            && s != "_"
    };
    let mut names: Vec<String> = Vec::new();
    for i in 0..texts.len() {
        if mask[i] || !HASH_TYPES.contains(&texts[i]) {
            continue;
        }
        // Walk back over a `seg::seg::` path prefix to the head of the type
        // expression.
        let mut j = i;
        while j >= 2 && texts[j - 1] == "::" && is_ident(texts[j - 2]) {
            j -= 2;
        }
        // `name : [&|mut]* Type` — let bindings, struct fields, fn params.
        let mut k = j;
        while k >= 1 && (texts[k - 1] == "&" || texts[k - 1] == "mut") {
            k -= 1;
        }
        if k >= 2 && texts[k - 1] == ":" && is_ident(texts[k - 2]) {
            names.push(texts[k - 2].to_string());
            continue;
        }
        // `name = Type::new()` / `with_capacity` / `default`.
        if texts.get(i + 1) == Some(&"::")
            && matches!(
                texts.get(i + 2),
                Some(&"new") | Some(&"with_capacity") | Some(&"default")
            )
            && j >= 2
            && texts[j - 1] == "="
            && is_ident(texts[j - 2])
        {
            names.push(texts[j - 2].to_string());
        }
    }
    names.sort_unstable();
    names.dedup();
    names
}

fn d01(
    toks: &[Tok],
    texts: &[&str],
    mask: &[bool],
    out: &mut Vec<Finding>,
    path: &str,
    lines: &[&str],
) {
    let tracked = hash_idents(texts, mask);
    if tracked.is_empty() {
        return;
    }
    let tracked = |name: &str| tracked.iter().any(|t| t == name);
    // An iteration is fine if a sort or an order-free reduction appears
    // shortly after — "collect then sort" is the sanctioned idiom.
    let escapes = |from: usize| {
        texts[from..texts.len().min(from + 48)]
            .iter()
            .any(|t| SORT_CALLS.contains(t) || ORDER_FREE.contains(t))
    };
    let mut hit = |i: usize, what: String| {
        out.push(Finding {
            rule: "D01",
            path: path.to_string(),
            line: toks[i].line,
            msg: format!(
                "{what} iterates a hash collection on a determinism-critical path — \
                 use BTreeMap/BTreeSet or sort explicitly"
            ),
            line_text: lines
                .get(toks[i].line.saturating_sub(1) as usize)
                .map(|l| l.trim().to_string())
                .unwrap_or_default(),
        });
    };
    for i in 0..texts.len() {
        if mask[i] {
            continue;
        }
        // `name.iter()` / `.keys()` / `.drain()` / …
        if texts[i] == "."
            && i > 0
            && tracked(texts[i - 1])
            && texts.get(i + 1).is_some_and(|m| ITER_METHODS.contains(m))
            && texts.get(i + 2) == Some(&"(")
            && !escapes(i + 3)
        {
            // Anchor on the receiver ident: multi-line method chains put
            // the `.` on its own line, which reads poorly in reports.
            hit(i - 1, format!("`{}.{}()`", texts[i - 1], texts[i + 1]));
        }
        // `for pat in [&][mut] name {`
        if texts[i] == "in" {
            let mut j = i + 1;
            while matches!(texts.get(j), Some(&"&") | Some(&"mut")) {
                j += 1;
            }
            if texts.get(j).is_some_and(|n| tracked(n)) && texts.get(j + 1) == Some(&"{") {
                hit(i, format!("`for … in {}`", texts[j]));
            }
        }
    }
}

fn d03(
    toks: &[Tok],
    texts: &[&str],
    mask: &[bool],
    out: &mut Vec<Finding>,
    path: &str,
    lines: &[&str],
) {
    for i in 0..texts.len() {
        if mask[i] {
            continue;
        }
        let what = if matches!(
            texts[i],
            "thread_rng" | "from_entropy" | "OsRng" | "getrandom"
        ) {
            Some(texts[i])
        } else if texts[i] == "random" && i >= 2 && texts[i - 1] == "::" && texts[i - 2] == "rand" {
            Some("rand::random")
        } else {
            None
        };
        if let Some(w) = what {
            out.push(Finding {
                rule: "D03",
                path: path.to_string(),
                line: toks[i].line,
                msg: format!("`{w}` draws unseeded randomness — use a seeded RNG"),
                line_text: lines
                    .get(toks[i].line.saturating_sub(1) as usize)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
            });
        }
    }
}

fn a01(
    toks: &[Tok],
    texts: &[&str],
    mask: &[bool],
    out: &mut Vec<Finding>,
    path: &str,
    lines: &[&str],
) {
    for i in 0..texts.len() {
        if mask[i] {
            continue;
        }
        if texts[i] == "Ordering"
            && texts.get(i + 1) == Some(&"::")
            && texts.get(i + 2) == Some(&"Relaxed")
        {
            out.push(Finding {
                rule: "A01",
                path: path.to_string(),
                line: toks[i].line,
                msg: "`Ordering::Relaxed` on a sync-critical atomic — use Acquire/Release \
                      (or allowlist a justified counter)"
                    .to_string(),
                line_text: lines
                    .get(toks[i].line.saturating_sub(1) as usize)
                    .map(|l| l.trim().to_string())
                    .unwrap_or_default(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    /// The codec vocabulary's home keeps the strictest scope: W01 over its
    /// decoders, P01 over the whole file and the indexing sub-check. A
    /// move of the module must carry all three.
    #[test]
    fn codec_vocabulary_keeps_w01_and_whole_file_p01() {
        let home = WIRE_HOME;
        let scope = scope_for(home);
        assert!(scope.w01, "W01 must cover {home}");
        assert_eq!(scope.p01, Some(None), "P01 must cover all of {home}");
        assert!(INDEX_CHECK_FILES.contains(&home));
    }

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// A rule keyed on a file that no longer exists checks nothing, and
    /// says nothing about it: every file and directory a rule names must
    /// be in this workspace.
    #[test]
    fn every_path_a_rule_names_exists() {
        let root = workspace_root();
        let loop_files = LOOP_ROOT_FILES.iter().map(|(file, _)| *file);
        for file in CODEC_FILES
            .iter()
            .chain(INDEX_CHECK_FILES)
            .copied()
            .chain(loop_files)
        {
            assert!(
                root.join(file).is_file(),
                "a rule names missing file {file}"
            );
        }
        for dir in H01_FILES {
            assert!(root.join(dir).is_dir(), "H01 names missing directory {dir}");
        }
    }

    /// On the real workspace, every loop-root name is found in its file:
    /// the executor drivers and the transport's `send`, `close_phase`,
    /// `barrier` and `telemetry`.
    #[test]
    fn loop_roots_find_every_named_entry_point() {
        let root = workspace_root();
        let files = crate::walk::workspace_files(&root).expect("workspace walk");
        let asts = files
            .iter()
            .map(|f| {
                let src = std::fs::read_to_string(f).expect("readable source");
                crate::parser::parse(&crate::walk::rel_path(&root, f), &src)
            })
            .collect();
        let graph = CallGraph::build(asts);
        let found: BTreeSet<(&str, &str)> = loop_roots(&graph)
            .into_iter()
            .map(|id| {
                (
                    graph.files[id.0].path.as_str(),
                    graph.item(id).name.as_str(),
                )
            })
            .collect();
        for (file, names) in LOOP_ROOT_FILES {
            for name in *names {
                assert!(
                    found.contains(&(*file, *name)),
                    "no loop root `{name}` in {file}; found {found:?}"
                );
            }
        }
    }

    fn rules_of(src: &str) -> Vec<&'static str> {
        let mut r: Vec<_> = analyze_all_rules("fixture.rs", src)
            .into_iter()
            .map(|f| f.rule)
            .collect();
        r.sort_unstable();
        r.dedup();
        r
    }

    const FORBID: &str = "#![forbid(unsafe_code)]\n";

    #[test]
    fn d01_iteration_flagged_sorted_allowed() {
        let bad = format!(
            "{FORBID}fn f() {{ let m: std::collections::HashMap<u32, u32> = Default::default(); \
             for (k, v) in &m {{ use_it(k, v); }} }}"
        );
        assert_eq!(rules_of(&bad), ["D01"]);
        let sorted = format!(
            "{FORBID}fn f() {{ let m: HashMap<u32, u32> = Default::default(); \
             let mut v: Vec<_> = m.into_iter().collect(); v.sort_unstable(); }}"
        );
        assert_eq!(rules_of(&sorted), Vec::<&str>::new());
        let btree = format!(
            "{FORBID}fn f() {{ let m: BTreeMap<u32, u32> = Default::default(); \
             for (k, v) in &m {{ use_it(k, v); }} }}"
        );
        assert_eq!(rules_of(&btree), Vec::<&str>::new());
    }

    #[test]
    fn d01_lookup_only_is_fine() {
        let src = format!(
            "{FORBID}fn f() {{ let m: HashMap<u32, u32> = Default::default(); \
             let x = m.get(&1); m.insert(2, 3); }}"
        );
        assert_eq!(rules_of(&src), Vec::<&str>::new());
    }

    #[test]
    fn d02_clock_calls() {
        let bad = format!("{FORBID}fn f() {{ let t = std::time::Instant::now(); }}");
        assert_eq!(rules_of(&bad), ["D02"]);
        let good = format!("{FORBID}fn f() {{ let t = Clock::start(); }}");
        assert_eq!(rules_of(&good), Vec::<&str>::new());
    }

    #[test]
    fn d02_exempt_in_trace_crate() {
        let src = "#![forbid(unsafe_code)]\nfn f() { let t = Instant::now(); }";
        let findings = analyze("crates/trace/src/clock.rs", src);
        assert!(findings.iter().all(|f| f.rule != "D02"), "{findings:?}");
    }

    #[test]
    fn d03_unseeded_randomness() {
        let bad = format!("{FORBID}fn f() {{ let mut rng = rand::thread_rng(); }}");
        assert_eq!(rules_of(&bad), ["D03"]);
        let good = format!("{FORBID}fn f() {{ let mut rng = StdRng::seed_from_u64(42); }}");
        assert_eq!(rules_of(&good), Vec::<&str>::new());
    }

    #[test]
    fn p01_panics_in_hot_path() {
        let bad = format!("{FORBID}fn f() {{ let x = maybe().unwrap(); panic!(\"no\"); }}");
        assert_eq!(rules_of(&bad), ["P01"]);
    }

    #[test]
    fn p01_scoped_to_hot_fns_in_executor() {
        let src = "#![forbid(unsafe_code)]\n\
                   fn run_bsp() { x.unwrap(); }\n\
                   fn cold_path() { y.unwrap(); }";
        let findings = analyze("crates/engine/src/executor.rs", src);
        let p01: Vec<_> = findings.iter().filter(|f| f.rule == "P01").collect();
        assert_eq!(p01.len(), 1);
        assert_eq!(p01[0].line, 2);
    }

    #[test]
    fn p01_ignores_test_mod() {
        let src = format!(
            "{FORBID}fn live() -> Result<(), E> {{ fallible()?; Ok(()) }}\n\
             #[cfg(test)]\nmod tests {{ fn t() {{ x.unwrap(); }} }}"
        );
        assert_eq!(rules_of(&src), Vec::<&str>::new());
    }

    #[test]
    fn w01_wildcard_decode_arm() {
        let bad = format!(
            "{FORBID}fn decode(buf: &mut Bytes) -> Result<Self, WireError> {{ \
             match get_u8(buf)? {{ 0 => Ok(Self::A), _ => Ok(Self::B) }} }}"
        );
        assert_eq!(rules_of(&bad), ["W01"]);
        let good = format!(
            "{FORBID}fn decode(buf: &mut Bytes) -> Result<Self, WireError> {{ \
             match get_u8(buf)? {{ 0 => Ok(Self::A), tag => Err(err(tag)) }} }}"
        );
        assert_eq!(rules_of(&good), Vec::<&str>::new());
    }

    #[test]
    fn w01_only_inside_decode() {
        let src = format!("{FORBID}fn merge(x: u8) -> u8 {{ match x {{ 0 => 1, _ => 2 }} }}");
        assert_eq!(rules_of(&src), Vec::<&str>::new());
    }

    #[test]
    fn a01_relaxed_ordering() {
        let bad = format!("{FORBID}fn f() {{ FLAG.store(true, Ordering::Relaxed); }}");
        assert_eq!(rules_of(&bad), ["A01"]);
        let good = format!("{FORBID}fn f() {{ FLAG.store(true, Ordering::Release); }}");
        assert_eq!(rules_of(&good), Vec::<&str>::new());
    }

    #[test]
    fn f01_forbid_attribute() {
        assert_eq!(rules_of("fn f() {}"), ["F01"]);
        assert_eq!(
            rules_of("#![forbid(unsafe_code)]\nfn f() {}"),
            Vec::<&str>::new()
        );
    }

    #[test]
    fn strings_never_trigger_rules() {
        let src = format!(
            "{FORBID}fn f() {{ let s = \"Instant::now() Ordering::Relaxed thread_rng\"; }}"
        );
        assert_eq!(rules_of(&src), Vec::<&str>::new());
    }
}
