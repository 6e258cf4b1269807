//! D9/D10/D11 — the cross-file synchronization-protocol analysis.
//!
//! Unlike the token-local D1–D8 rules, these three check the code against
//! the sync-site registry ([`crate::registry`], loaded from
//! `crates/lint/sync_protocol.toml`) and against *each other's* sites:
//!
//! * **D9 (atomic-protocol)** — every atomic operation carrying a literal
//!   `Ordering::*` must name a registered field, use an ordering declared
//!   for that operation kind, and use `Relaxed` only inside the entry's
//!   declared single-owner contexts (`Type::fn`). Fields whose entries
//!   declare `Release` stores must also exhibit an `Acquire` load partner
//!   somewhere in the scanned code — a Release store nobody Acquire-loads
//!   is a publication with no subscriber, which is how silent protocol
//!   rot starts.
//! * **D10 (lock-order)** — every `.lock()` acquisition must name a
//!   registered Mutex, and a nested acquisition must strictly ascend in
//!   the registry's rank order. Ascending ranks at every nesting site
//!   make the workspace-wide acquisition graph acyclic by construction
//!   (any cycle would need at least one non-ascending edge).
//! * **D11 (send-sync-audit)** — every `unsafe impl Send`/`Sync` must
//!   carry a registry entry naming the invariant it stands on. Like D4,
//!   nothing is exempt — an unsound impl in a test module still breaks
//!   the whole program's soundness.
//!
//! Registry entries must not go stale either: an entry with no matching
//! site in the scanned code is itself a violation, which is what lets the
//! workspace self-check claim 100% two-way coverage.
//!
//! D9 and D10 skip `#[cfg(test)]` / `#[cfg(loom)]` regions (tests may use
//! `SeqCst` scaffolding freely); D11 does not. All three honor the usual
//! `// lint: allow(rule, reason=...)` escape hatch.
//!
//! The analysis is lexical, like the rest of the crate (no `syn`
//! offline): receivers are recovered by walking back through `.`-chains
//! (skipping `.0` tuple projections, so `self.inner.head.0.load(..)`
//! resolves to `head`), and enclosing contexts by tracking `impl` /`fn`
//! item nesting over the token stream. Operations whose ordering is not
//! a literal `Ordering::X` at the call site are invisible to D9 — the
//! workspace convention (checked by review) is to always name orderings
//! literally at the use site.

use crate::lex::{lex, Tok, TokKind};
use crate::registry::SyncRegistry;
use crate::rules::{in_regions, snippet, test_regions, RuleId, Violation};

/// Workspace-relative path of the registry; violations about the registry
/// itself (parse errors, stale entries) are anchored here.
pub const REGISTRY_PATH: &str = "crates/lint/sync_protocol.toml";

/// Atomic methods whose call sites D9 inspects. A call only becomes a
/// site when a literal `Ordering::X` appears among its arguments, so
/// same-named methods on non-atomic types (e.g. `Vec::swap`) never fire.
const ATOMIC_METHODS: [&str; 14] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
];

/// Operation kind of an atomic site, deciding which declared ordering
/// list applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Load,
    Store,
    Rmw,
}

impl OpKind {
    fn of(method: &str) -> OpKind {
        match method {
            "load" => OpKind::Load,
            "store" => OpKind::Store,
            _ => OpKind::Rmw,
        }
    }

    fn noun(self) -> &'static str {
        match self {
            OpKind::Load => "load",
            OpKind::Store => "store",
            OpKind::Rmw => "rmw",
        }
    }
}

/// One atomic operation found in the code.
#[derive(Debug)]
struct AtomicSite {
    file_idx: usize,
    field: String,
    kind: OpKind,
    /// Every literal `Ordering::X` among the call's arguments
    /// (`compare_exchange` carries two).
    ordering: Vec<String>,
    line: u32,
    col: u32,
    /// Enclosing `Type::fn` (or bare `fn`); empty at module scope.
    context: String,
    in_test: bool,
    allowed: bool,
}

/// One `unsafe impl Send/Sync` found in the code.
#[derive(Debug)]
struct ImplSite {
    file_idx: usize,
    type_name: String,
    trait_name: String,
    line: u32,
    col: u32,
    allowed: bool,
}

/// Runs the three sync rules over `files` (workspace-relative path,
/// source) against `registry`. Returned violations are unsorted; the
/// caller merges and sorts them with the per-file rules' output.
#[must_use]
pub fn analyze_sync(files: &[(String, String)], registry: &SyncRegistry) -> Vec<Violation> {
    let mut out = Vec::new();

    // Registry-internal inconsistencies first, attributed to the section
    // kind's rule so `--rules` filtering stays meaningful.
    for (line, msg) in registry.validate() {
        let rule = if msg.starts_with("lock ") {
            RuleId::LockOrder
        } else if msg.starts_with("send_sync ") {
            RuleId::SendSyncAudit
        } else {
            RuleId::AtomicProtocol
        };
        out.push(Violation {
            rule,
            file: REGISTRY_PATH.to_string(),
            line,
            col: 1,
            message: format!("inconsistent registry entry: {msg}"),
            snippet: String::new(),
        });
    }

    let mut atomic_sites: Vec<AtomicSite> = Vec::new();
    let mut impl_sites: Vec<ImplSite> = Vec::new();
    let mut lock_seen: Vec<(String, String)> = Vec::new(); // (file, name) with ≥1 site

    for (file_idx, (file, src)) in files.iter().enumerate() {
        scan_file(
            file_idx,
            file,
            src,
            registry,
            &mut atomic_sites,
            &mut impl_sites,
            &mut lock_seen,
            &mut out,
        );
    }

    check_atomics(files, registry, &atomic_sites, &mut out);
    check_send_sync(files, registry, &impl_sites, &mut out);

    // Stale lock entries: a registered Mutex nobody acquires any more.
    for l in &registry.locks {
        if files.iter().any(|(f, _)| f == &l.file)
            && !lock_seen.iter().any(|(f, n)| f == &l.file && n == &l.name)
        {
            out.push(Violation {
                rule: RuleId::LockOrder,
                file: REGISTRY_PATH.to_string(),
                line: l.line,
                col: 1,
                message: format!(
                    "stale registry entry: no `.lock()` on `{}` found in {}",
                    l.name, l.file
                ),
                snippet: String::new(),
            });
        }
    }

    out
}

/// A lock guard currently held during the linear walk of one file.
struct HeldGuard {
    /// Binding name when the guard was `let`-bound; `None` for a
    /// temporary that dies at the end of its statement.
    name: Option<String>,
    /// Rank from the registry (unregistered sites are reported and not
    /// tracked).
    rank: u64,
    lock_name: String,
    /// Brace depth at the acquisition site.
    depth: i32,
}

#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
fn scan_file(
    file_idx: usize,
    file: &str,
    src: &str,
    registry: &SyncRegistry,
    atomic_sites: &mut Vec<AtomicSite>,
    impl_sites: &mut Vec<ImplSite>,
    lock_seen: &mut Vec<(String, String)>,
    out: &mut Vec<Violation>,
) {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let lines: Vec<&str> = src.lines().collect();
    let tests = test_regions(toks);
    // Allow annotations: malformed ones are already reported by the
    // per-file pass (`analyze_source` always checks them), so the scratch
    // vec is discarded here to avoid duplicates.
    let mut scratch = Vec::new();
    let allows = crate::rules::parse_allows(&lexed.comments, file, &lines, &mut scratch);
    let allowed = |rule: RuleId, line: u32| -> bool { crate::rules::allowed(&allows, rule, line) };

    let mut ctx = ContextTracker::default();
    let mut held: Vec<HeldGuard> = Vec::new();
    let mut brace_depth: i32 = 0;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        ctx.step(toks, i, brace_depth);

        if t.is_punct('{') {
            brace_depth += 1;
        } else if t.is_punct('}') {
            brace_depth -= 1;
            // Scope end releases every guard acquired inside it.
            held.retain(|g| g.depth <= brace_depth);
        } else if t.is_punct(';') {
            // Statement end releases unbound temporaries at this depth.
            held.retain(|g| g.name.is_some() || g.depth != brace_depth);
        } else if t.is_ident("drop")
            && toks.get(i + 1).is_some_and(|x| x.is_punct('('))
            && toks.get(i + 2).is_some_and(|x| x.kind == TokKind::Ident)
            && toks.get(i + 3).is_some_and(|x| x.is_punct(')'))
        {
            let name = &toks[i + 2].text;
            held.retain(|g| g.name.as_deref() != Some(name.as_str()));
        }

        // `unsafe impl Trait for Type` (D11).
        if t.is_ident("unsafe") && toks.get(i + 1).is_some_and(|x| x.is_ident("impl")) {
            if let Some((type_name, trait_name)) = parse_unsafe_impl(toks, i + 2) {
                impl_sites.push(ImplSite {
                    file_idx,
                    type_name,
                    trait_name,
                    line: t.line,
                    col: t.col,
                    allowed: allowed(RuleId::SendSyncAudit, t.line),
                });
            }
            i += 1;
            continue;
        }

        // Method calls: `.method(` with a preceding receiver chain.
        let is_method_call = t.kind == TokKind::Ident
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|x| x.is_punct('('));
        if !is_method_call {
            i += 1;
            continue;
        }

        if ATOMIC_METHODS.contains(&t.text.as_str()) {
            let ords = orderings_in_call(toks, i + 1);
            if !ords.is_empty() {
                if let Some(field) = receiver_field(toks, i - 1) {
                    atomic_sites.push(AtomicSite {
                        file_idx,
                        field,
                        kind: OpKind::of(&t.text),
                        ordering: ords,
                        line: t.line,
                        col: t.col,
                        context: ctx.current(),
                        in_test: in_regions(&tests, t.line),
                        allowed: allowed(RuleId::AtomicProtocol, t.line),
                    });
                }
            }
        } else if t.text == "lock" && toks.get(i + 2).is_some_and(|x| x.is_punct(')')) {
            // `Mutex::lock` takes no arguments; a `.lock(args)` call is
            // some other API (e.g. the registry's own lookup helper).
            let in_test = in_regions(&tests, t.line);
            let is_allowed = allowed(RuleId::LockOrder, t.line);
            if let Some(name) = receiver_field(toks, i - 1) {
                if !in_test {
                    lock_seen.push((file.to_string(), name.clone()));
                }
                match registry.lock(file, &name) {
                    None => {
                        if !in_test && !is_allowed {
                            out.push(Violation {
                                rule: RuleId::LockOrder,
                                file: file.to_string(),
                                line: t.line,
                                col: t.col,
                                message: format!(
                                    "`.lock()` on unregistered Mutex `{name}`; declare it \
                                     with a rank in {REGISTRY_PATH}"
                                ),
                                snippet: snippet(&lines, t.line),
                            });
                        }
                    }
                    Some(entry) => {
                        if !in_test && !is_allowed {
                            for g in &held {
                                if entry.rank <= g.rank {
                                    out.push(Violation {
                                        rule: RuleId::LockOrder,
                                        file: file.to_string(),
                                        line: t.line,
                                        col: t.col,
                                        message: format!(
                                            "lock-order breach: acquiring `{}` (rank {}) \
                                             while holding `{}` (rank {}); nested \
                                             acquisitions must strictly ascend",
                                            name, entry.rank, g.lock_name, g.rank
                                        ),
                                        snippet: snippet(&lines, t.line),
                                    });
                                }
                            }
                        }
                        held.push(HeldGuard {
                            name: let_binding(toks, i - 1),
                            rank: entry.rank,
                            lock_name: name,
                            depth: brace_depth,
                        });
                    }
                }
            }
        }
        i += 1;
    }
}

/// D9 cross-checks once every file's sites are collected.
fn check_atomics(
    files: &[(String, String)],
    registry: &SyncRegistry,
    sites: &[AtomicSite],
    out: &mut Vec<Violation>,
) {
    let file_of = |idx: usize| files[idx].0.as_str();
    let line_of = |s: &AtomicSite| -> String {
        let src = &files[s.file_idx].1;
        let lines: Vec<&str> = src.lines().collect();
        snippet(&lines, s.line)
    };

    for s in sites {
        if s.in_test || s.allowed {
            continue;
        }
        let file = file_of(s.file_idx);
        let Some(entry) = registry.atomic(file, &s.field) else {
            out.push(Violation {
                rule: RuleId::AtomicProtocol,
                file: file.to_string(),
                line: s.line,
                col: s.col,
                message: format!(
                    "atomic {} on undeclared field `{}`; declare its role and orderings \
                     in {REGISTRY_PATH}",
                    s.kind.noun(),
                    s.field
                ),
                snippet: line_of(s),
            });
            continue;
        };
        let declared = match s.kind {
            OpKind::Load => &entry.loads,
            OpKind::Store => &entry.stores,
            OpKind::Rmw => &entry.rmws,
        };
        for ord in &s.ordering {
            if !declared.contains(ord) {
                out.push(Violation {
                    rule: RuleId::AtomicProtocol,
                    file: file.to_string(),
                    line: s.line,
                    col: s.col,
                    message: format!(
                        "Ordering::{ord} not declared for {}s of `{}` (declared: [{}]; \
                         role {})",
                        s.kind.noun(),
                        s.field,
                        declared.join(", "),
                        entry.role
                    ),
                    snippet: line_of(s),
                });
            } else if ord == "Relaxed"
                && !entry.relaxed_in.is_empty()
                && !entry.relaxed_in.contains(&s.context)
            {
                out.push(Violation {
                    rule: RuleId::AtomicProtocol,
                    file: file.to_string(),
                    line: s.line,
                    col: s.col,
                    message: format!(
                        "Relaxed {} on `{}` outside its declared single-owner contexts \
                         [{}] (found in `{}`)",
                        s.kind.noun(),
                        s.field,
                        entry.relaxed_in.join(", "),
                        if s.context.is_empty() {
                            "<module scope>"
                        } else {
                            &s.context
                        }
                    ),
                    snippet: line_of(s),
                });
            }
        }
    }

    // Pairing and staleness, per registry entry.
    for entry in &registry.atomics {
        if !files.iter().any(|(f, _)| f == &entry.file) {
            continue; // file not in this scan (e.g. fixture-driven runs)
        }
        let mine: Vec<&AtomicSite> = sites
            .iter()
            .filter(|s| !s.in_test && file_of(s.file_idx) == entry.file && s.field == entry.field)
            .collect();
        if mine.is_empty() {
            out.push(Violation {
                rule: RuleId::AtomicProtocol,
                file: REGISTRY_PATH.to_string(),
                line: entry.line,
                col: 1,
                message: format!(
                    "stale registry entry: no atomic operations on `{}` found in {}",
                    entry.field, entry.file
                ),
                snippet: String::new(),
            });
            continue;
        }
        let declares_release = entry
            .stores
            .iter()
            .chain(&entry.rmws)
            .any(|o| o == "Release" || o == "AcqRel");
        if declares_release {
            let release_site = mine.iter().find(|s| {
                s.kind != OpKind::Load && s.ordering.iter().any(|o| o == "Release" || o == "AcqRel")
            });
            let has_acquire_load = mine.iter().any(|s| {
                s.kind == OpKind::Load && s.ordering.iter().any(|o| o == "Acquire" || o == "SeqCst")
            });
            if let Some(rel) = release_site {
                if !has_acquire_load && !rel.allowed {
                    out.push(Violation {
                        rule: RuleId::AtomicProtocol,
                        file: entry.file.clone(),
                        line: rel.line,
                        col: rel.col,
                        message: format!(
                            "Release store on `{}` has no Acquire load partner anywhere in \
                             the scanned code (publication with no subscriber)",
                            entry.field
                        ),
                        snippet: line_of(rel),
                    });
                }
            }
        }
    }
}

/// D11 cross-checks: undeclared impls and stale entries.
fn check_send_sync(
    files: &[(String, String)],
    registry: &SyncRegistry,
    sites: &[ImplSite],
    out: &mut Vec<Violation>,
) {
    for s in sites {
        if s.allowed {
            continue;
        }
        let file = files[s.file_idx].0.as_str();
        if registry
            .send_sync(file, &s.type_name, &s.trait_name)
            .is_none()
        {
            let lines: Vec<&str> = files[s.file_idx].1.lines().collect();
            out.push(Violation {
                rule: RuleId::SendSyncAudit,
                file: file.to_string(),
                line: s.line,
                col: s.col,
                message: format!(
                    "`unsafe impl {} for {}` has no registry entry naming its invariant; \
                     declare it in {REGISTRY_PATH}",
                    s.trait_name, s.type_name
                ),
                snippet: snippet(&lines, s.line),
            });
        }
    }
    for entry in &registry.send_sync {
        if !files.iter().any(|(f, _)| f == &entry.file) {
            continue;
        }
        let found = sites.iter().any(|s| {
            files[s.file_idx].0 == entry.file
                && s.type_name == entry.type_name
                && s.trait_name == entry.trait_name
        });
        if !found {
            out.push(Violation {
                rule: RuleId::SendSyncAudit,
                file: REGISTRY_PATH.to_string(),
                line: entry.line,
                col: 1,
                message: format!(
                    "stale registry entry: no `unsafe impl {} for {}` found in {}",
                    entry.trait_name, entry.type_name, entry.file
                ),
                snippet: String::new(),
            });
        }
    }
}

/// Collects every literal `Ordering::X` (or `SomeOrdering::X` alias)
/// inside the balanced parens starting at `open` (index of `(`).
fn orderings_in_call(toks: &[Tok], open: usize) -> Vec<String> {
    let mut ords = Vec::new();
    let mut depth = 0i32;
    let mut j = open;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokKind::Ident
            && t.text.ends_with("Ordering")
            && toks.get(j + 1).is_some_and(|x| x.is_punct(':'))
            && toks.get(j + 2).is_some_and(|x| x.is_punct(':'))
            && toks.get(j + 3).is_some_and(|x| x.kind == TokKind::Ident)
        {
            ords.push(toks[j + 3].text.clone());
            j += 3;
        }
        j += 1;
    }
    ords
}

/// Recovers the receiver field from the `.`-chain ending at `dot`
/// (index of the `.` before the method name): the nearest identifier
/// looking left, skipping `.0`-style tuple projections. `None` when the
/// receiver is a call or index result (nothing nameable).
fn receiver_field(toks: &[Tok], dot: usize) -> Option<String> {
    let mut j = dot.checked_sub(1)?;
    loop {
        let t = &toks[j];
        if t.kind == TokKind::Num {
            // Tuple projection (`.0`): keep walking left past its dot.
            if j >= 2 && toks[j - 1].is_punct('.') {
                j -= 2;
                continue;
            }
            return None;
        }
        if t.kind == TokKind::Ident {
            return Some(t.text.clone());
        }
        return None;
    }
}

/// True when the statement containing the receiver at `recv` starts with
/// `let [mut] name =`; returns the binding name. Looks back to the
/// nearest statement boundary.
fn let_binding(toks: &[Tok], dot: usize) -> Option<String> {
    let mut j = dot;
    while j > 0 {
        let t = &toks[j - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        j -= 1;
    }
    if !toks.get(j)?.is_ident("let") {
        return None;
    }
    let mut k = j + 1;
    if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
        k += 1;
    }
    let name = toks.get(k)?;
    (name.kind == TokKind::Ident).then(|| name.text.clone())
}

/// Parses `unsafe impl [<...>] Trait for Type` starting right after the
/// `impl` token. Returns `(type, trait)` for `Send`/`Sync` impls only.
fn parse_unsafe_impl(toks: &[Tok], mut j: usize) -> Option<(String, String)> {
    // Skip the generic parameter list, if any.
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut angle = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                angle += 1;
            } else if toks[j].is_punct('>') {
                angle -= 1;
                if angle == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    // Trait path up to `for` (last segment wins).
    let mut trait_name: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_ident("for") {
            j += 1;
            break;
        }
        if t.is_punct('{') || t.is_punct(';') {
            return None; // no `for`: not a trait impl
        }
        if t.kind == TokKind::Ident {
            trait_name = Some(t.text.clone());
        }
        j += 1;
    }
    let trait_name = trait_name?;
    if trait_name != "Send" && trait_name != "Sync" {
        return None;
    }
    // Type path up to `<`, `where` or `{` (last segment wins).
    let mut type_name: Option<String> = None;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') || t.is_punct('{') || t.is_ident("where") {
            break;
        }
        if t.kind == TokKind::Ident {
            type_name = Some(t.text.clone());
        }
        j += 1;
    }
    Some((type_name?, trait_name))
}

/// Tracks the enclosing `impl` block and `fn` item across the token
/// stream, yielding `Type::fn` context strings for D9's `relaxed_in`
/// gate. Closures do not open frames (their context is the enclosing
/// fn); `fn` pointer types and `-> impl Trait` return types are
/// recognized and ignored.
#[derive(Default)]
struct ContextTracker {
    frames: Vec<Frame>,
    pending_impl: Option<String>,
    pending_fn: Option<String>,
    waiting_fn_name: bool,
    /// Paren depth inside a pending fn signature (its body `{` is the
    /// first brace at paren depth 0).
    paren_depth: i32,
}

enum Frame {
    Impl { name: String, depth: i32 },
    Fn { name: String, depth: i32 },
}

impl ContextTracker {
    fn step(&mut self, toks: &[Tok], i: usize, brace_depth: i32) {
        let t = &toks[i];
        if self.waiting_fn_name {
            self.waiting_fn_name = false;
            if t.kind == TokKind::Ident {
                self.pending_fn = Some(t.text.clone());
                self.paren_depth = 0;
                return;
            }
            // `fn(` — a pointer type, not an item.
        }
        if self.pending_fn.is_some() {
            if t.is_punct('(') {
                self.paren_depth += 1;
            } else if t.is_punct(')') {
                self.paren_depth -= 1;
            } else if t.is_punct('{') && self.paren_depth == 0 {
                let name = self.pending_fn.take().unwrap_or_default();
                self.frames.push(Frame::Fn {
                    name,
                    depth: brace_depth,
                });
                return;
            } else if t.is_punct(';') && self.paren_depth == 0 {
                self.pending_fn = None; // trait method declaration, no body
            }
            return;
        }
        if t.is_ident("fn") {
            self.waiting_fn_name = true;
            return;
        }
        if t.is_ident("impl") {
            // `impl` as an item header (not `-> impl Trait`: that only
            // occurs inside a pending fn signature, handled above).
            self.pending_impl = parse_impl_type(toks, i + 1);
            return;
        }
        if t.is_punct('{') {
            if let Some(name) = self.pending_impl.take() {
                self.frames.push(Frame::Impl {
                    name,
                    depth: brace_depth,
                });
            }
        } else if t.is_punct('}') {
            let closing = brace_depth - 1;
            self.frames.retain(|f| match f {
                Frame::Impl { depth, .. } | Frame::Fn { depth, .. } => *depth < closing,
            });
            self.pending_impl = None;
        }
    }

    /// Innermost `Type::fn` (or bare `fn`); empty at module scope.
    fn current(&self) -> String {
        let mut fn_name: Option<&str> = None;
        let mut impl_name: Option<&str> = None;
        for f in self.frames.iter().rev() {
            match f {
                Frame::Fn { name, .. } if fn_name.is_none() => fn_name = Some(name),
                Frame::Impl { name, .. } if fn_name.is_some() && impl_name.is_none() => {
                    impl_name = Some(name);
                }
                _ => {}
            }
        }
        match (impl_name, fn_name) {
            (Some(t), Some(f)) => format!("{t}::{f}"),
            (None, Some(f)) => f.to_string(),
            _ => String::new(),
        }
    }
}

/// Extracts the implementing type's base name from an impl header
/// starting after `impl`: skips the generic list, then takes the last
/// path segment of the part after `for` (or of the whole header when
/// there is no `for`), stopping at `<`, `where` or `{`.
fn parse_impl_type(toks: &[Tok], mut j: usize) -> Option<String> {
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut angle = 0i32;
        while j < toks.len() {
            if toks[j].is_punct('<') {
                angle += 1;
            } else if toks[j].is_punct('>') {
                angle -= 1;
                if angle == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
    }
    let mut angle = 0i32;
    let mut name: Option<String> = None;
    let mut after_for = false;
    while j < toks.len() {
        let t = &toks[j];
        if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle -= 1;
        } else if angle == 0 {
            if t.is_punct('{') || t.is_ident("where") {
                break;
            }
            if t.is_ident("for") {
                after_for = true;
                name = None;
            } else if t.kind == TokKind::Ident {
                name = Some(t.text.clone());
            }
        }
        j += 1;
        let _ = after_for;
    }
    name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    fn reg(src: &str) -> SyncRegistry {
        registry::parse(src).expect("registry parses")
    }

    fn run(file: &str, src: &str, registry: &SyncRegistry) -> Vec<Violation> {
        analyze_sync(&[(file.to_string(), src.to_string())], registry)
    }

    const HEAD_ENTRY: &str = r#"
[[atomic]]
file = "ring.rs"
field = "head"
role = "publication"
loads = ["Acquire", "Relaxed"]
stores = ["Release"]
relaxed_in = ["Inner::drop"]
doc = "consumer cursor"
"#;

    #[test]
    fn declared_protocol_is_clean() {
        let src = "\
struct Inner { head: AtomicUsize }\n\
impl Inner {\n\
    fn publish(&self) { self.head.store(1, Ordering::Release); }\n\
    fn observe(&self) -> usize { self.head.load(Ordering::Acquire) }\n\
}\n\
impl Drop for Inner {\n\
    fn drop(&mut self) { let _ = self.head.load(Ordering::Relaxed); }\n\
}\n";
        let v = run("ring.rs", src, &reg(HEAD_ENTRY));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn undeclared_field_fires() {
        let src = "fn f(x: &AtomicUsize) { x.store(1, Ordering::Release); }\n\
                   fn g(x: &AtomicUsize) -> usize { x.load(Ordering::Acquire) }\n";
        let v = run("ring.rs", src, &reg(""));
        assert!(
            v.iter()
                .any(|x| x.rule == RuleId::AtomicProtocol
                    && x.message.contains("undeclared field `x`")),
            "{v:?}"
        );
    }

    #[test]
    fn undeclared_ordering_fires() {
        // SeqCst load where only Acquire/Relaxed are declared.
        let src = "\
impl Inner {\n\
    fn observe(&self) -> usize { self.head.load(Ordering::SeqCst) }\n\
    fn publish(&self) { self.head.store(1, Ordering::Release); }\n\
    fn pair(&self) -> usize { self.head.load(Ordering::Acquire) }\n\
}\n";
        let v = run("ring.rs", src, &reg(HEAD_ENTRY));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0]
            .message
            .contains("Ordering::SeqCst not declared for loads"));
    }

    #[test]
    fn relaxed_outside_declared_context_fires() {
        let src = "\
impl Inner {\n\
    fn peek(&self) -> usize { self.head.load(Ordering::Relaxed) }\n\
    fn publish(&self) { self.head.store(1, Ordering::Release); }\n\
    fn pair(&self) -> usize { self.head.load(Ordering::Acquire) }\n\
}\n";
        let v = run("ring.rs", src, &reg(HEAD_ENTRY));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0]
            .message
            .contains("outside its declared single-owner contexts"));
        assert!(v[0].message.contains("Inner::peek"));
    }

    #[test]
    fn unpaired_release_store_fires() {
        // Release store declared and present, but no Acquire load site.
        let src = "\
impl Inner {\n\
    fn publish(&self) { self.head.store(1, Ordering::Release); }\n\
}\n";
        let v = run("ring.rs", src, &reg(HEAD_ENTRY));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("no Acquire load partner"));
    }

    #[test]
    fn tuple_projection_resolves_to_field() {
        let entry = r#"
[[atomic]]
file = "ring.rs"
field = "tail"
role = "flag"
stores = ["Release"]
loads = ["Acquire"]
doc = "padded cursor"
"#;
        let src = "\
impl P {\n\
    fn push(&self) { self.inner.tail.0.store(1, Ordering::Release); }\n\
    fn len(&self) -> usize { self.inner.tail.0.load(Ordering::Acquire) }\n\
}\n";
        let v = run("ring.rs", src, &reg(entry));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn stale_atomic_entry_fires() {
        let v = run("ring.rs", "fn quiet() {}\n", &reg(HEAD_ENTRY));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("stale registry entry"));
        assert_eq!(v[0].file, REGISTRY_PATH);
    }

    #[test]
    fn test_regions_are_exempt_for_d9_d10() {
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    fn t(x: &AtomicUsize, m: &Mutex<u8>) {\n\
        x.store(1, Ordering::SeqCst);\n\
        let _g = m.lock();\n\
    }\n\
}\n";
        let v = run("ring.rs", src, &reg(""));
        assert!(v.is_empty(), "{v:?}");
    }

    const TWO_LOCKS: &str = r#"
[[lock]]
file = "locks.rs"
name = "a"
rank = 10
doc = "outer"

[[lock]]
file = "locks.rs"
name = "b"
rank = 20
doc = "inner"
"#;

    #[test]
    fn ascending_lock_order_is_clean() {
        let src = "\
fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
    let ga = a.lock();\n\
    let gb = b.lock();\n\
    drop(gb);\n\
    drop(ga);\n\
}\n";
        let v = run("locks.rs", src, &reg(TWO_LOCKS));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn descending_lock_order_fires() {
        let src = "\
fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
    let gb = b.lock();\n\
    let ga = a.lock();\n\
}\n";
        let v = run("locks.rs", src, &reg(TWO_LOCKS));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("lock-order breach"));
        assert!(v[0].message.contains("rank 10"));
    }

    #[test]
    fn dropped_guard_releases_the_rank() {
        let src = "\
fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
    let gb = b.lock();\n\
    drop(gb);\n\
    let ga = a.lock();\n\
}\n";
        let v = run("locks.rs", src, &reg(TWO_LOCKS));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn scope_end_releases_guards() {
        let src = "\
fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
    { let gb = b.lock(); }\n\
    let ga = a.lock();\n\
}\n";
        let v = run("locks.rs", src, &reg(TWO_LOCKS));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "\
fn f(a: &Mutex<u8>, b: &Mutex<u8>) {\n\
    b.lock().unwrap();\n\
    let ga = a.lock();\n\
}\n";
        let v = run("locks.rs", src, &reg(TWO_LOCKS));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn same_rank_nesting_fires() {
        // Equal ranks may never nest (either order would deadlock
        // against the other).
        let twin = r#"
[[lock]]
file = "locks.rs"
name = "a"
rank = 10
doc = "left"

[[lock]]
file = "locks.rs"
name = "b"
rank = 10
doc = "right"
"#;
        let src = "fn f(a: &Mutex<u8>, b: &Mutex<u8>) { let ga = a.lock(); let gb = b.lock(); }\n";
        let v = run("locks.rs", src, &reg(twin));
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn unregistered_lock_fires() {
        let src = "fn f(m: &Mutex<u8>) { let g = m.lock(); }\n";
        let v = run("locks.rs", src, &reg(""));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("unregistered Mutex `m`"));
    }

    #[test]
    fn unsafe_impl_without_entry_fires_even_in_tests() {
        let src = "\
#[cfg(test)]\n\
mod tests {\n\
    struct W(*mut u8);\n\
    unsafe impl Send for W {}\n\
}\n";
        let v = run("w.rs", src, &reg(""));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::SendSyncAudit);
        assert!(v[0].message.contains("unsafe impl Send for W"));
    }

    #[test]
    fn registered_unsafe_impl_with_generics_is_clean() {
        let entry = r#"
[[send_sync]]
file = "w.rs"
type = "Inner"
trait = "Sync"
invariant = "slot ownership"
"#;
        let src = "unsafe impl<T: Send> Sync for Inner<T> {}\n";
        let v = run("w.rs", src, &reg(entry));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn stale_send_sync_and_lock_entries_fire() {
        let entries = r#"
[[send_sync]]
file = "w.rs"
type = "Gone"
trait = "Send"
invariant = "was removed"

[[lock]]
file = "w.rs"
name = "retired"
rank = 5
doc = "was removed"
"#;
        let v = run("w.rs", "fn quiet() {}\n", &reg(entries));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.message.contains("stale registry entry")));
        assert!(v.iter().any(|x| x.rule == RuleId::SendSyncAudit));
        assert!(v.iter().any(|x| x.rule == RuleId::LockOrder));
    }

    #[test]
    fn allow_annotation_silences_sync_rules() {
        let src = "\
fn f(x: &AtomicUsize) {\n\
    // lint: allow(atomic-protocol, reason=bench scaffolding)\n\
    x.store(1, Ordering::SeqCst);\n\
}\n";
        let v = run("ring.rs", src, &reg(""));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn registry_inconsistency_is_reported_as_violation() {
        let bad = r#"
[[atomic]]
file = "ring.rs"
field = "x"
role = "publication"
stores = ["Release"]
loads = ["Relaxed"]
relaxed_in = ["T::f"]
doc = "d"
"#;
        let src = "fn f(x: &AtomicUsize) { let _ = x; }\n";
        let v = run("ring.rs", src, &reg(bad));
        assert!(
            v.iter()
                .any(|x| x.message.contains("inconsistent registry entry")),
            "{v:?}"
        );
    }

    #[test]
    fn context_tracker_handles_free_fns_and_methods() {
        let entry = r#"
[[atomic]]
file = "c.rs"
field = "w"
role = "publication"
loads = ["Acquire", "Relaxed"]
stores = ["Release"]
relaxed_in = ["flusher_loop"]
doc = "watermark"
"#;
        let src = "\
fn flusher_loop(w: &AtomicU64) {\n\
    w.store(1, Ordering::Release);\n\
    let _ = w.load(Ordering::Relaxed);\n\
}\n\
fn reader(w: &AtomicU64) -> u64 { w.load(Ordering::Acquire) }\n";
        let v = run("c.rs", src, &reg(entry));
        assert!(v.is_empty(), "{v:?}");
        // The same Relaxed load outside flusher_loop fires.
        let bad = "\
fn flusher_loop(w: &AtomicU64) { w.store(1, Ordering::Release); }\n\
fn reader(w: &AtomicU64) -> u64 { w.load(Ordering::Acquire) }\n\
fn peek(w: &AtomicU64) -> u64 { w.load(Ordering::Relaxed) }\n";
        let v = run("c.rs", bad, &reg(entry));
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].message.contains("`peek`"), "{v:?}");
    }
}
