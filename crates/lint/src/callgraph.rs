//! Conservative name-resolution call graph over the parsed workspace.
//!
//! Resolution is purely syntactic — no types, no trait solving — and errs
//! toward over-approximation: a method call `x.send(…)` adds edges to
//! *every* workspace method named `send`, and a qualified call
//! `WorkerLinks::barrier(…)` to every method of that name on that owner.
//! Over-approximation keeps the reachability rules sound-for-the-workspace
//! (a real call can't be missed because we couldn't type `x`), at the cost
//! of occasional chains through a same-named method — which is what the
//! allowlist's chain-specific reasons are for. The one deliberate
//! under-approximation: calls into `std`/external crates resolve to
//! nothing, because their bodies aren't in the workspace to analyze.

use crate::parser::{FileAst, FnItem};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Stable id of a function: (file index, fn index within that file).
pub type FnId = (usize, usize);

/// The workspace call graph.
pub struct CallGraph {
    /// Parsed files, indexable by `FnId.0`.
    pub files: Vec<FileAst>,
    /// Outgoing call edges per function.
    edges: BTreeMap<FnId, Vec<FnId>>,
}

/// How a call site was written; drives resolution.
enum CallKind {
    /// `recv.name(…)` — resolves to any workspace method `name`.
    Method,
    /// `Owner::name(…)` — resolves by (owner, name); `Self` is the
    /// enclosing impl owner; aliases already applied.
    Qualified(String),
    /// `name(…)` — resolves to free fns named `name`.
    Bare,
}

impl CallGraph {
    /// Build the graph for a set of parsed files.
    pub fn build(files: Vec<FileAst>) -> CallGraph {
        // Idents each file mentions anywhere — the receiver-plausibility
        // filter for cross-owner method edges (see below).
        let mentions: Vec<BTreeSet<&str>> = files
            .iter()
            .map(|f| {
                f.toks
                    .iter()
                    .map(|t| t.text.as_str())
                    .filter(|t| {
                        t.chars()
                            .next()
                            .is_some_and(|c| c.is_alphabetic() || c == '_')
                    })
                    .collect()
            })
            .collect();

        // Indexes over all non-test fns.
        let mut methods: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        let mut qualified: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        let mut free: BTreeMap<&str, Vec<FnId>> = BTreeMap::new();
        // `impl Trait for Type` methods, keyed by (trait, method name) —
        // dispatch expansion for calls that resolve to a bodyless trait
        // declaration.
        let mut trait_impls: BTreeMap<(&str, &str), Vec<FnId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                if f.test_only {
                    continue;
                }
                let id = (fi, gi);
                match &f.owner {
                    Some(owner) => {
                        methods.entry(&f.name).or_default().push(id);
                        qualified.entry((owner, &f.name)).or_default().push(id);
                    }
                    None => free.entry(&f.name).or_default().push(id),
                }
                if let Some(tr) = &f.trait_impl {
                    trait_impls.entry((tr, &f.name)).or_default().push(id);
                }
            }
        }

        let mut edges: BTreeMap<FnId, Vec<FnId>> = BTreeMap::new();
        for (fi, file) in files.iter().enumerate() {
            // A private fn is only callable from inside its own crate
            // (same-file approximates the module tree closely enough for
            // this workspace's one-level layout; same-crate is safer).
            let caller_crate = crate_of(&file.path);
            let visible = |&(tfi, tgi): &FnId| {
                files[tfi].fns[tgi].is_pub || crate_of(&files[tfi].path) == caller_crate
            };
            for (gi, f) in file.fns.iter().enumerate() {
                if f.test_only {
                    continue;
                }
                let Some((bs, be)) = f.body else { continue };
                let mut out: BTreeSet<FnId> = BTreeSet::new();
                for (name, kind) in call_sites(file, f, bs, be) {
                    match &kind {
                        CallKind::Method => {
                            // Cross-owner method edges require the callee's
                            // owner type to be *mentioned* somewhere in the
                            // calling file. Name-wide matching on ubiquitous
                            // std-colliding names (`push`, `get`, `expect`,
                            // `partition`, …) otherwise links every container
                            // call to every workspace method of that name.
                            // Type-blind but proximity-aware: fields, params,
                            // and locals all name their types in this
                            // codebase, so a real receiver's type appears in
                            // the file. Same-file edges always pass.
                            if let Some(ts) = methods.get(name.as_str()) {
                                out.extend(ts.iter().copied().filter(visible).filter(
                                    |&(tfi, tgi)| {
                                        tfi == fi
                                            || files[tfi].fns[tgi]
                                                .owner
                                                .as_deref()
                                                .is_some_and(|o| mentions[fi].contains(o))
                                    },
                                ));
                            }
                        }
                        CallKind::Qualified(owner) => {
                            if let Some(ts) = qualified.get(&(owner.as_str(), name.as_str())) {
                                out.extend(ts.iter().copied().filter(visible));
                            } else if owner.chars().next().is_some_and(|c| c.is_lowercase()) {
                                // `module::helper(…)` — a free fn behind a
                                // module path.
                                if let Some(ts) = free.get(name.as_str()) {
                                    out.extend(ts.iter().copied().filter(visible));
                                }
                            }
                            // Unknown uppercase owner (std / external): no
                            // edge.
                        }
                        CallKind::Bare => {
                            if let Some(ts) = free.get(name.as_str()) {
                                out.extend(ts.iter().copied().filter(visible));
                            }
                        }
                    }
                }
                // Trait dispatch: a call resolved to a bodyless trait
                // declaration `T::m` dispatches at runtime to any
                // `impl T for _`'s `m` — add them all. The mention filter
                // deliberately does not apply: the concrete type is often
                // never named at the call site (generics, trait objects).
                let mut dispatched: Vec<FnId> = Vec::new();
                for &(tfi, tgi) in &out {
                    let t = &files[tfi].fns[tgi];
                    if t.body.is_none() {
                        if let Some(tr) = &t.owner {
                            if let Some(impls) = trait_impls.get(&(tr.as_str(), t.name.as_str())) {
                                dispatched.extend(impls.iter().copied());
                            }
                        }
                    }
                }
                out.extend(dispatched);
                edges.insert((fi, gi), out.into_iter().collect());
            }
        }
        CallGraph { files, edges }
    }

    /// The [`FnItem`] for an id.
    pub fn item(&self, id: FnId) -> &FnItem {
        &self.files[id.0].fns[id.1]
    }

    /// All non-test fns in `file_suffix` (workspace-relative path suffix
    /// match) whose name passes `pred`.
    pub fn roots_in(&self, file_suffix: &str, pred: impl Fn(&FnItem) -> bool) -> Vec<FnId> {
        let mut out = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            if !file.path.ends_with(file_suffix) {
                continue;
            }
            for (gi, f) in file.fns.iter().enumerate() {
                if !f.test_only && pred(f) {
                    out.push((fi, gi));
                }
            }
        }
        out
    }

    /// BFS closure from `roots`. `stop` prunes traversal *below* a node:
    /// the node itself is still visited (so rules may inspect it), but its
    /// callees are not — used by H01 to treat guard-protected fns as
    /// boundaries. Returns each reachable fn with its BFS parent, for
    /// chain reconstruction via [`CallGraph::chain`].
    pub fn closure(
        &self,
        roots: &[FnId],
        stop: impl Fn(FnId, &FnItem) -> bool,
    ) -> BTreeMap<FnId, Option<FnId>> {
        let mut parent: BTreeMap<FnId, Option<FnId>> = BTreeMap::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        for &r in roots {
            if parent.insert(r, None).is_none() {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            if stop(id, self.item(id)) {
                continue;
            }
            if let Some(outs) = self.edges.get(&id) {
                for &next in outs {
                    if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                        e.insert(Some(id));
                        queue.push_back(next);
                    }
                }
            }
        }
        parent
    }

    /// Render the root→`id` call chain recorded by [`CallGraph::closure`],
    /// e.g. `run_bsp → absorb_outbox → WorkerLinks::send`.
    pub fn chain(&self, parents: &BTreeMap<FnId, Option<FnId>>, id: FnId) -> String {
        let mut names = vec![self.item(id).display()];
        let mut cur = id;
        while let Some(Some(p)) = parents.get(&cur) {
            names.push(self.item(*p).display());
            cur = *p;
        }
        names.reverse();
        names.join(" → ")
    }
}

/// Extract call sites from a body extent. Yields `(callee name, kind)`.
fn call_sites(file: &FileAst, f: &FnItem, bs: usize, be: usize) -> Vec<(String, CallKind)> {
    let toks = &file.toks;
    let mut out = Vec::new();
    let mut i = bs;
    while i + 1 < be {
        let t = &toks[i].text;
        let next = &toks[i + 1].text;
        let callee_pos =
            next == "(" || (next == "::" && toks.get(i + 2).is_some_and(|t| t.text == "<"));
        if !callee_pos || !is_ident(t) || is_keyword(t) {
            i += 1;
            continue;
        }
        // Turbofish `name::<T>(…)` — confirm the `(` follows the generics.
        if next == "::" {
            let close = angle_close(toks, i + 2, be);
            if toks.get(close + 1).map(|t| t.text.as_str()) != Some("(") {
                i += 1;
                continue;
            }
        }
        let prev = if i > bs {
            Some(toks[i - 1].text.as_str())
        } else {
            None
        };
        match prev {
            Some(".") => out.push((t.clone(), CallKind::Method)),
            Some("::") if i >= 2 => {
                let owner_tok = &toks[i - 2].text;
                if is_ident(owner_tok) {
                    let mut owner = owner_tok.clone();
                    if owner == "Self" {
                        match &f.owner {
                            Some(o) => owner = o.clone(),
                            None => {
                                i += 1;
                                continue;
                            }
                        }
                    }
                    // `use x as y` rename: `y::f()` is really `x::f()`.
                    if let Some(orig) = file.aliases.get(&owner) {
                        owner = orig.clone();
                    }
                    out.push((t.clone(), CallKind::Qualified(owner)));
                }
            }
            Some("fn") => {} // nested fn definition, not a call
            _ => {
                let name = file.aliases.get(t).cloned().unwrap_or_else(|| t.clone());
                out.push((name, CallKind::Bare));
            }
        }
        i += 1;
    }
    out
}

/// The crate a workspace path belongs to: everything before `/src/`.
fn crate_of(path: &str) -> &str {
    path.rfind("/src/").map(|i| &path[..i]).unwrap_or(path)
}

fn angle_close(toks: &[crate::lexer::Tok], i: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i + 1; // toks[i] is `::`, toks[i+1] is `<`
    while j < end {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            ";" | "{" => return j,
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

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "else"
            | "let"
            | "fn"
            | "move"
            | "in"
            | "as"
            | "mut"
            | "ref"
            | "break"
            | "continue"
            | "unsafe"
            | "await"
            | "impl"
            | "dyn"
            | "where"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "const"
            | "static"
            | "type"
            | "crate"
            | "self"
            | "super"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        CallGraph::build(files.iter().map(|(p, s)| parser::parse(p, s)).collect())
    }

    fn reachable_names(g: &CallGraph, roots: &[FnId]) -> Vec<String> {
        g.closure(roots, |_, _| false)
            .keys()
            .map(|&id| g.item(id).display())
            .collect()
    }

    #[test]
    fn two_hop_bare_calls_are_reachable() {
        let g = graph(&[(
            "a.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}\nfn island() {}",
        )]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        let names = reachable_names(&g, &roots);
        assert_eq!(names, vec!["root", "mid", "leaf"], "island excluded");
    }

    #[test]
    fn method_calls_resolve_by_name_across_files() {
        let g = graph(&[
            ("a/src/a.rs", "fn root(t: &mut Tcp) { t.send(0); }"),
            (
                "b/src/b.rs",
                "impl Tcp { pub fn send(&mut self) { self.flush(); } fn flush(&mut self) {} }",
            ),
        ]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        let names = reachable_names(&g, &roots);
        assert!(names.contains(&"Tcp::send".to_string()));
        assert!(
            names.contains(&"Tcp::flush".to_string()),
            "private, but same crate"
        );
    }

    #[test]
    fn unmentioned_owner_types_get_no_method_edge() {
        // `v.push(…)` on a plain Vec must not link to every workspace
        // method named `push` — only owners the calling file names.
        let g = graph(&[
            ("a/src/a.rs", "fn root(v: &mut Vec<u32>) { v.push(1); }"),
            (
                "b/src/b.rs",
                "impl Ring { pub fn push(&mut self) { boom(); } }\npub fn boom() { panic!(\"x\") }",
            ),
        ]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        let names = reachable_names(&g, &roots);
        assert_eq!(names, vec!["root"], "no edge to Ring::push");
    }

    #[test]
    fn private_methods_are_invisible_across_crates() {
        // a.rs mentions Sink (passes the mention filter), but Sink::push
        // is private to crate b — no edge.
        let g = graph(&[
            (
                "a/src/a.rs",
                "fn root(s: &mut Sink, v: &mut Vec<u32>) { v.push(1); }",
            ),
            (
                "b/src/b.rs",
                "impl Sink { fn push(&mut self) { panic!(\"x\") } }",
            ),
        ]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        assert_eq!(reachable_names(&g, &roots), vec!["root"]);
    }

    #[test]
    fn bodyless_trait_decls_dispatch_to_their_impls() {
        // The executor sees only the trait; the concrete impl's owner is
        // never mentioned in the calling file. Dispatch must still reach
        // the impl body through the bodyless declaration.
        let g = graph(&[
            ("a/src/a.rs", "fn root<P: Provider>(p: &P) { p.fetch(0); }"),
            (
                "b/src/b.rs",
                "pub trait Provider { fn fetch(&self, t: u32); }\n\
                 impl Provider for MemoryProvider { fn fetch(&self, t: u32) { self.lookup(t); } }\n\
                 impl MemoryProvider { fn lookup(&self, t: u32) {} }",
            ),
        ]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        let names = reachable_names(&g, &roots);
        assert!(
            names.contains(&"MemoryProvider::fetch".to_string()),
            "{names:?}"
        );
        assert!(
            names.contains(&"MemoryProvider::lookup".to_string()),
            "{names:?}"
        );
    }

    #[test]
    fn qualified_calls_resolve_by_owner() {
        let g = graph(&[(
            "a.rs",
            "fn root() { Foo::go(); }\n\
             impl Foo { fn go() {} }\n\
             impl Bar { fn go() { never(); } }\n\
             fn never() {}",
        )]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        let names = reachable_names(&g, &roots);
        assert!(names.contains(&"Foo::go".to_string()));
        assert!(
            !names.contains(&"never".to_string()),
            "Bar::go not reachable"
        );
    }

    #[test]
    fn use_alias_is_resolved_for_bare_calls() {
        let g = graph(&[
            ("a.rs", "use crate::b::boom as tick;\nfn root() { tick(); }"),
            ("b.rs", "pub fn boom() { panic!(\"x\") }"),
        ]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        assert!(reachable_names(&g, &roots).contains(&"boom".to_string()));
    }

    #[test]
    fn cfg_test_callees_are_invisible() {
        let g = graph(&[(
            "a.rs",
            "fn root() { probe(); }\n#[cfg(test)]\nfn probe() { panic!(\"t\") }",
        )]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        let names = reachable_names(&g, &roots);
        assert_eq!(names, vec!["root"]);
    }

    #[test]
    fn stop_predicate_prunes_below_guarded_fns() {
        let g = graph(&[(
            "a.rs",
            "fn root(s: S) { s.record(1); }\n\
             impl S { fn record(&mut self, v: u64) { if !self.on { return; } self.push(v); }\n\
                      fn push(&mut self, v: u64) { heap(); } }\n\
             fn heap() {}",
        )]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        let all = reachable_names(&g, &roots);
        assert!(all.contains(&"heap".to_string()));
        let pruned: Vec<String> = g
            .closure(&roots, |_, f| f.guarded)
            .keys()
            .map(|&id| g.item(id).display())
            .collect();
        assert!(
            pruned.contains(&"S::record".to_string()),
            "guard node itself visited"
        );
        assert!(
            !pruned.contains(&"heap".to_string()),
            "nothing below the guard"
        );
    }

    #[test]
    fn chains_render_root_to_leaf() {
        let g = graph(&[(
            "a.rs",
            "fn root() { mid(); }\nfn mid() { leaf(); }\nfn leaf() {}",
        )]);
        let roots = g.roots_in("a.rs", |f| f.name == "root");
        let parents = g.closure(&roots, |_, _| false);
        let leaf = g.roots_in("a.rs", |f| f.name == "leaf")[0];
        assert_eq!(g.chain(&parents, leaf), "root → mid → leaf");
    }
}
