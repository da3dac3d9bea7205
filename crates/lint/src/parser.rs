//! Item/extent parsing on top of [`crate::lexer`].
//!
//! Turns a file's token stream into the item-level facts the call-graph
//! pass needs: every function with its body extent and owner
//! (enclosing `impl`/`trait` type), `use … as …` renames, inline-module
//! nesting, `#[cfg(test)]` masking, and whether a body opens with the
//! repo's disabled-guard idiom (`if <cond> { return … }` as the first
//! statement — the zero-alloc escape hatch rule H01 honours).
//!
//! This is deliberately *not* a full Rust parser. It tracks exactly the
//! bracket structure needed to find item extents; everything it cannot
//! classify it skips. The consequences are conservative for the call
//! graph (a function we fail to index simply cannot be resolved as a
//! callee) and documented in DESIGN.md §5.

use crate::lexer::{self, Tok};
use std::collections::BTreeMap;

/// One parsed function (free fn, inherent/trait-impl method, or trait
/// default method) with its body token extent.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Enclosing `impl`/`trait` type head (`TraceSink`, `WorkerLinks`, …);
    /// `None` for free functions.
    pub owner: Option<String>,
    /// The trait being implemented, for fns inside `impl Trait for Type`.
    pub trait_impl: Option<String>,
    /// Callable outside its own crate: written `pub`, or declared in a
    /// trait / a trait impl (trait methods are public via the trait).
    pub is_pub: bool,
    /// Declared inside a `trait` block (a required or default method).
    pub in_trait: bool,
    /// Inline-module path within the file (e.g. `["tests"]`).
    pub module: Vec<String>,
    /// Token range of the `{ … }` body (exclusive end); `None` for
    /// bodyless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Inside a `#[cfg(test)]` item (directly or via an enclosing mod).
    pub test_only: bool,
    /// Body opens with a leading early-return guard — the instrumentation
    /// crates' "disabled ⇒ return before touching anything" idiom.
    pub guarded: bool,
}

impl FnItem {
    /// `Owner::name` or `name`, for call-chain rendering.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Everything the workspace passes need to know about one file.
#[derive(Clone, Debug)]
pub struct FileAst {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// The file's source text (finding reports quote the offending line).
    pub src: String,
    /// Full token stream ([`lexer::lex_full`]: numbers kept).
    pub toks: Vec<Tok>,
    /// Every function found, in source order.
    pub fns: Vec<FnItem>,
    /// `use path::X as Y;` renames: alias → original final segment.
    pub aliases: BTreeMap<String, String>,
}

/// Parse one file.
pub fn parse(path: &str, src: &str) -> FileAst {
    let toks = lexer::lex_full(src);
    let mut ast = FileAst {
        path: path.to_string(),
        src: src.to_string(),
        toks: Vec::new(),
        fns: Vec::new(),
        aliases: BTreeMap::new(),
    };
    let texts: Vec<&str> = toks.iter().map(|t| t.text.as_str()).collect();
    let end = texts.len();
    let mut cx = Ctx {
        owner: None,
        trait_impl: None,
        in_trait: false,
        module: Vec::new(),
        test: false,
    };
    parse_items(&texts, &toks, 0, end, &mut cx, &mut ast);
    ast.toks = toks;
    ast
}

/// Item-walk context: enclosing impl/trait owner, module path, test mask.
struct Ctx {
    owner: Option<String>,
    trait_impl: Option<String>,
    in_trait: bool,
    module: Vec<String>,
    test: bool,
}

fn is_ident(s: &str) -> bool {
    s.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Walk `texts[i..end]` as an item sequence. Recurses into `mod`, `impl`,
/// and `trait` bodies; records `fn` items without descending into their
/// bodies (closures and nested fns are attributed to the enclosing fn).
fn parse_items(
    texts: &[&str],
    toks: &[Tok],
    mut i: usize,
    end: usize,
    cx: &mut Ctx,
    out: &mut FileAst,
) {
    let mut pending_test = false;
    let mut pending_pub = false;
    while i < end {
        match texts[i] {
            // Attributes: skip; note #[cfg(test)] for the next item.
            "#" if texts.get(i + 1) == Some(&"[") => {
                let close = matching(texts, i + 1, "[", "]", end);
                if texts[i + 2..close]
                    .windows(3)
                    .any(|w| w == ["cfg", "(", "test"])
                {
                    pending_test = true;
                }
                i = close + 1;
            }
            "pub" => {
                pending_pub = true;
                i += 1;
                if texts.get(i) == Some(&"(") {
                    i = matching(texts, i, "(", ")", end) + 1;
                }
            }
            "use" => {
                i = parse_use(texts, i, end, out);
                pending_pub = false;
            }
            "mod" if texts.get(i + 1).is_some_and(|t| is_ident(t)) => {
                let name = texts[i + 1].to_string();
                let mut j = i + 2;
                if texts.get(j) == Some(&"{") {
                    let close = matching(texts, j, "{", "}", end);
                    cx.module.push(name);
                    let was_test = cx.test;
                    cx.test |= pending_test;
                    parse_items(texts, toks, j + 1, close, cx, out);
                    cx.test = was_test;
                    cx.module.pop();
                    j = close;
                }
                i = j + 1;
                pending_test = false;
                pending_pub = false;
            }
            "impl" | "trait" => {
                let kw = texts[i];
                let mut j = i + 1;
                if texts.get(j) == Some(&"<") {
                    j = matching_angle(texts, j, end) + 1;
                }
                // Type/trait path: collect segments up to `for`, `where`,
                // `{`, or `:` (supertrait bounds).
                let mut head = head_of_path(texts, &mut j, end);
                let mut trait_name = None;
                if kw == "impl" && texts.get(j) == Some(&"for") {
                    j += 1;
                    trait_name = head;
                    head = head_of_path(texts, &mut j, end);
                }
                // Skip bounds/where clause to the body.
                while j < end && texts[j] != "{" && texts[j] != ";" {
                    j += 1;
                }
                if texts.get(j) == Some(&"{") {
                    let close = matching(texts, j, "{", "}", end);
                    let was_owner = cx.owner.take();
                    let was_trait_impl = cx.trait_impl.take();
                    let was_in_trait = cx.in_trait;
                    let was_test = cx.test;
                    cx.owner = head;
                    cx.trait_impl = trait_name;
                    cx.in_trait = kw == "trait";
                    cx.test |= pending_test;
                    parse_items(texts, toks, j + 1, close, cx, out);
                    cx.owner = was_owner;
                    cx.trait_impl = was_trait_impl;
                    cx.in_trait = was_in_trait;
                    cx.test = was_test;
                    j = close;
                }
                i = j + 1;
                pending_test = false;
                pending_pub = false;
            }
            "fn" if texts.get(i + 1).is_some_and(|t| is_ident(t)) => {
                let name = texts[i + 1].to_string();
                let line = toks[i].line;
                let mut j = i + 2;
                if texts.get(j) == Some(&"<") {
                    j = matching_angle(texts, j, end) + 1;
                }
                if texts.get(j) == Some(&"(") {
                    j = matching(texts, j, "(", ")", end) + 1;
                }
                // Return type / where clause: scan to the body or `;`.
                while j < end && texts[j] != "{" && texts[j] != ";" {
                    if texts[j] == "(" {
                        j = matching(texts, j, "(", ")", end);
                    }
                    j += 1;
                }
                let body = if texts.get(j) == Some(&"{") {
                    let close = matching(texts, j, "{", "}", end);
                    let b = Some((j, close + 1));
                    j = close;
                    b
                } else {
                    None
                };
                let guarded = body.is_some_and(|(s, e)| body_is_guarded(texts, s, e));
                out.fns.push(FnItem {
                    name,
                    owner: cx.owner.clone(),
                    trait_impl: cx.trait_impl.clone(),
                    is_pub: pending_pub || cx.in_trait || cx.trait_impl.is_some(),
                    in_trait: cx.in_trait,
                    module: cx.module.clone(),
                    body,
                    line,
                    test_only: cx.test || pending_test,
                    guarded,
                });
                i = j + 1;
                pending_test = false;
                pending_pub = false;
            }
            // Items we skip whole: type defs, consts, statics, macros.
            "struct" | "enum" | "union" | "type" | "const" | "static" | "macro_rules"
            | "extern" => {
                i = item_end_from(texts, i + 1, end);
                pending_test = false;
                pending_pub = false;
            }
            _ => {
                // Stray tokens between items (`pub`, `unsafe`, `async`,
                // doc-attribute leftovers, …): advance.
                i += 1;
            }
        }
    }
}

/// `use` item: record `as` renames (both `use a::B as C;` and group form
/// `use a::{B as C, D as E};`). Plain imports keep their name and need no
/// entry. Returns the index past the terminating `;`.
fn parse_use(texts: &[&str], start: usize, end: usize, out: &mut FileAst) -> usize {
    let mut j = start + 1;
    while j < end && texts[j] != ";" {
        if texts[j] == "as"
            && j >= 1
            && is_ident(texts[j - 1])
            && texts.get(j + 1).is_some_and(|t| is_ident(t))
        {
            out.aliases
                .insert(texts[j + 1].to_string(), texts[j - 1].to_string());
            j += 2;
        } else {
            j += 1;
        }
    }
    j.min(end) + 1
}

/// Read a type/trait path at `*j`, returning its head ident: the last
/// path segment before generic arguments (`gofs::SliceData<'a>` →
/// `SliceData`, `&mut Foo` → `Foo`). Leaves `*j` on the first token past
/// the path.
fn head_of_path(texts: &[&str], j: &mut usize, end: usize) -> Option<String> {
    let mut head = None;
    while *j < end {
        match texts[*j] {
            "&" | "mut" | "dyn" => *j += 1,
            "<" => {
                *j = matching_angle(texts, *j, end) + 1;
            }
            "::" => *j += 1,
            t if is_ident(t) && t != "for" && t != "where" => {
                head = Some(t.to_string());
                *j += 1;
            }
            _ => break,
        }
    }
    head
}

/// Index of the token matching `open` at `i` (depth-balanced); `end` if
/// unbalanced.
fn matching(texts: &[&str], i: usize, open: &str, close: &str, end: usize) -> usize {
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

/// Matching `>` for the `<` at `i`. Generic positions only (callers ensure
/// `<` opens a parameter list, not a comparison).
fn matching_angle(texts: &[&str], i: usize, end: usize) -> usize {
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
            // A parenthesised group may contain comparisons; skip it whole.
            "(" => j = matching(texts, j, "(", ")", end),
            ";" | "{" => return j, // malformed; bail at a statement edge
            _ => {}
        }
        j += 1;
    }
    end.saturating_sub(1)
}

/// First `;` at depth 0 from `start`, or the matching close of the first
/// `{` — one past it either way.
fn item_end_from(texts: &[&str], start: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < end {
        match texts[j] {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            ";" if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    end
}

/// Does the body starting at `{` (token `s`) open with an early-return
/// guard? Recognised forms, as the *first statement*:
///
/// * `if <cond> { return … }`  (optionally `if … { return } else { … }`)
/// * `let <pat> = <expr> else { return … };`
///
/// The instrumentation crates gate every allocation behind one of these
/// (`if !self.on() { return; }`), so rule H01 treats a guarded fn as a
/// closure boundary: everything past the guard runs only when the
/// subsystem is enabled.
fn body_is_guarded(texts: &[&str], s: usize, e: usize) -> bool {
    let mut j = s + 1;
    if texts.get(j) == Some(&"if") {
        // Find the condition's `{` (conditions cannot contain braces —
        // struct literals are not allowed in `if` conditions).
        while j < e && texts[j] != "{" {
            j += 1;
        }
        return texts.get(j + 1) == Some(&"return");
    }
    if texts.get(j) == Some(&"let") {
        // `let … else { return … };` — scan to `else` before the first `;`.
        while j < e && texts[j] != ";" {
            if texts[j] == "else" && texts.get(j + 1) == Some(&"{") {
                return texts.get(j + 2) == Some(&"return");
            }
            j += 1;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns(src: &str) -> Vec<FnItem> {
        parse("test.rs", src).fns
    }

    #[test]
    fn free_fns_and_methods_are_indexed() {
        let src = "fn alpha() { body(); }\n\
                   impl Foo { fn beta(&self) { x(); } }\n\
                   impl Bar for Baz { fn gamma(&self) {} }\n\
                   trait Qux { fn delta(&self) { y(); } fn decl(&self); }";
        let fs = fns(src);
        let names: Vec<(String, Option<String>)> = fs
            .iter()
            .map(|f| (f.name.clone(), f.owner.clone()))
            .collect();
        assert_eq!(
            names,
            vec![
                ("alpha".into(), None),
                ("beta".into(), Some("Foo".into())),
                ("gamma".into(), Some("Baz".into())),
                ("delta".into(), Some("Qux".into())),
                ("decl".into(), Some("Qux".into())),
            ]
        );
        assert!(fs[4].body.is_none(), "trait decl has no body");
    }

    #[test]
    fn generic_impls_resolve_their_head_type() {
        let fs = fns("impl<T: WireMsg> WireMsg for Vec<T> { fn encode(&self) {} }");
        assert_eq!(fs[0].owner.as_deref(), Some("Vec"));
        let fs = fns("impl<'a> Link for Memory<'a> { fn send(&mut self) {} }");
        assert_eq!(fs[0].owner.as_deref(), Some("Memory"));
    }

    #[test]
    fn cfg_test_masks_fns_and_mods() {
        let src = "fn live() {}\n\
                   #[cfg(test)]\nfn probe() {}\n\
                   #[cfg(test)]\nmod tests { fn inner() {} }";
        let fs = fns(src);
        assert!(!fs[0].test_only);
        assert!(fs[1].test_only);
        assert!(fs[2].test_only, "fns in a cfg(test) mod are masked");
        assert_eq!(fs[2].module, vec!["tests".to_string()]);
    }

    #[test]
    fn use_aliases_are_recorded() {
        let ast = parse(
            "t.rs",
            "use crate::util::boom as tick;\nuse a::{B as C, Plain};\nfn f() {}",
        );
        assert_eq!(ast.aliases.get("tick").map(String::as_str), Some("boom"));
        assert_eq!(ast.aliases.get("C").map(String::as_str), Some("B"));
        assert!(!ast.aliases.contains_key("Plain"));
    }

    #[test]
    fn guard_idioms_are_recognised() {
        let guarded = fns("fn f(&mut self) { if !self.on() { return; } self.x.push(1); }");
        assert!(guarded[0].guarded);
        let let_else =
            fns("fn f(&mut self) { let Some(s) = self.s.as_mut() else { return; }; s.go(); }");
        assert!(let_else[0].guarded);
        let open = fns("fn f(&mut self) { self.x.push(1); }");
        assert!(!open[0].guarded);
        let late = fns("fn f(&mut self) { self.x.push(1); if done { return; } }");
        assert!(!late[0].guarded);
    }

    #[test]
    fn visibility_and_trait_impls_are_tracked() {
        let fs = fns("pub fn api() {}\nfn helper() {}\n\
             impl Sink { pub fn record(&self) {} fn push(&self) {} }\n\
             impl Link for Socket { fn send(&mut self) {} }\n\
             trait Link { fn barrier(&mut self) {} }");
        assert!(fs[0].is_pub, "pub free fn");
        assert!(!fs[1].is_pub, "private free fn");
        assert!(fs[2].is_pub, "pub inherent method");
        assert!(!fs[3].is_pub, "private inherent method");
        assert!(fs[4].is_pub, "trait-impl method is public via the trait");
        assert_eq!(fs[4].trait_impl.as_deref(), Some("Link"));
        assert_eq!(fs[4].owner.as_deref(), Some("Socket"));
        assert!(fs[5].is_pub, "trait decl method");
        assert!(fs[5].trait_impl.is_none());
    }

    #[test]
    fn nested_fns_do_not_split_the_parent_extent() {
        let fs = fns("fn outer() { fn inner() { x(); } inner(); tail(); }");
        // Both are indexed, but outer's body spans the whole block.
        assert_eq!(fs.len(), 1, "nested fns belong to the parent extent");
        assert_eq!(fs[0].name, "outer");
    }

    #[test]
    fn fn_with_return_type_and_where_clause() {
        let fs = fns("fn f<T>(x: T) -> Result<(), E> where T: Clone { body(); }");
        assert_eq!(fs[0].name, "f");
        assert!(fs[0].body.is_some());
    }
}
