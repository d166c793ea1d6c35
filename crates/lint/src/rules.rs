//! The rule engine: eight project-specific contracts, checked lexically.
//!
//! Each rule documents the *dynamic* contract it front-runs — every one
//! of these is already asserted by a proptest or a verify.sh tier, but
//! only after the violating code has run. The lint rejects the
//! violation at review time instead.
//!
//! # Suppression
//!
//! Any finding can be suppressed with an inline annotation on the
//! flagged line or the comment line directly above it:
//!
//! ```text
//! // dynbc-lint: allow(no-wall-clock) — wall_s is a documented
//! // nondeterministic observability field, never a model input
//! ```
//!
//! The reason after the dash is **mandatory**; an annotation without
//! one (or naming an unknown rule) is itself a finding, so suppressions
//! stay auditable.

use crate::report::Finding;
use crate::source::{find_token, has_token, Line, SourceFile};

/// `ordered-iteration`: no `HashMap`/`HashSet` iteration in commit,
/// merge, or exporter paths — unordered iteration silently breaks the
/// bit-identity and `prometheus_deterministic()` contracts.
pub const ORDERED_ITERATION: &str = "ordered-iteration";
/// `no-wall-clock`: no `Instant::now`/`SystemTime` outside bench
/// harnesses and annotated wall-measurement sites — wall time in a
/// model path makes results thread-count-dependent.
pub const NO_WALL_CLOCK: &str = "no-wall-clock";
/// `knob-registry`: every `env::var("DYNBC_…")` must reference a
/// constant from `dynbc_gpusim::knob`, and the registry must agree
/// with the README's knob table.
pub const KNOB_REGISTRY: &str = "knob-registry";
/// `unsafe-safety`: every `unsafe` token needs an adjacent
/// `// SAFETY:` comment (workspace-wide; subsumes verify.sh's old
/// gpu-sim-only awk lint).
pub const UNSAFE_SAFETY: &str = "unsafe-safety";
/// `float-accumulation`: `f64` reductions in parallel kernel paths
/// must use the per-block `bc_delta` slab pattern (drained in
/// block-index order) or carry a reasoned annotation.
pub const FLOAT_ACCUMULATION: &str = "float-accumulation";
/// `named-launches`: kernel launches go through `launch_named` or
/// `launch_checked` and kernel-side `GpuBuffer`s are `.named(…)`, so
/// racecheck/prof reports stay attributable.
pub const NAMED_LAUNCHES: &str = "named-launches";
/// `hot-path-rebuild`: no full CSR canonicalization (`.to_csr()` /
/// `from_edge_list(`) in the batch-update hot paths — the slack store
/// exists so each committed op costs O(degree), not O(V + E); full
/// rebuilds belong to construction, tests, and oracle checks.
pub const HOT_PATH_REBUILD: &str = "hot-path-rebuild";
/// `no-global-state`: no process-global mutable state in non-test code
/// (`static mut`, a `static` of interior-mutable type, `thread_local!`)
/// — a result read from such state depends on whatever else ran in the
/// process, so no report built on it is reproducible.
pub const NO_GLOBAL_STATE: &str = "no-global-state";
/// Meta-rule for defective suppression annotations (unknown rule name
/// or missing reason). Not suppressible.
pub const ALLOW_ANNOTATION: &str = "allow-annotation";

/// Every suppressible rule, in documentation order.
pub const RULES: &[&str] = &[
    ORDERED_ITERATION,
    NO_WALL_CLOCK,
    KNOB_REGISTRY,
    UNSAFE_SAFETY,
    FLOAT_ACCUMULATION,
    NAMED_LAUNCHES,
    HOT_PATH_REBUILD,
    NO_GLOBAL_STATE,
];

/// The annotation marker looked for in comment text.
const ALLOW_MARKER: &str = "dynbc-lint: allow(";

/// One parsed suppression annotation.
struct Allow {
    /// Rule name inside the parentheses (may be unknown).
    rule: String,
    /// Lines (0-based) this annotation suppresses.
    covers: Vec<usize>,
    /// 0-based line the annotation sits on.
    at: usize,
    /// Whether a non-trivial reason follows the closing paren.
    has_reason: bool,
}

/// Parses all annotations in a file and reports defective ones.
fn collect_allows(file: &SourceFile, findings: &mut Vec<Finding>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        // Only plain `//` comments carry annotations: doc comments
        // (`///`, `//!`) merely *describe* the grammar — their comment
        // channel starts with the extra `/` or `!`.
        if line.comment.starts_with('/') || line.comment.starts_with('!') {
            continue;
        }
        let Some(pos) = line.comment.find(ALLOW_MARKER) else {
            continue;
        };
        let rest = &line.comment[pos + ALLOW_MARKER.len()..];
        let Some(close) = rest.find(')') else {
            findings.push(Finding::new(
                &file.path,
                i + 1,
                ALLOW_ANNOTATION,
                "malformed allow annotation: missing ')'",
            ));
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !RULES.contains(&rule.as_str()) {
            findings.push(Finding::new(
                &file.path,
                i + 1,
                ALLOW_ANNOTATION,
                format!("allow annotation names unknown rule '{rule}'"),
            ));
            continue;
        }
        // The mandatory reason: whatever follows the ')' minus dash /
        // colon separators must still say something.
        let reason: String = rest[close + 1..]
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim()
            .to_string();
        let has_reason = reason.chars().filter(|c| c.is_alphanumeric()).count() >= 3;
        if !has_reason {
            findings.push(Finding::new(
                &file.path,
                i + 1,
                ALLOW_ANNOTATION,
                format!(
                    "allow({rule}) without a reason: write \
                     `dynbc-lint: allow({rule}) — <why this site is safe>`"
                ),
            ));
        }
        // The annotation covers its own line; when it sits on a
        // comment-only (or attribute) line it also covers the next
        // line that has code.
        let mut covers = vec![i];
        if file.lines[i].code_is_blank() || file.lines[i].code_is_attr() {
            for (j, l) in file.lines.iter().enumerate().skip(i + 1).take(8) {
                if !l.code_is_blank() && !l.code_is_attr() {
                    covers.push(j);
                    break;
                }
            }
        }
        allows.push(Allow {
            rule,
            covers,
            at: i,
            has_reason,
        });
    }
    allows
}

/// True when `rule` is suppressed at 0-based line `i` by a reasoned
/// annotation. Reasonless annotations do not suppress — otherwise the
/// finding they were meant to silence would vanish along with the
/// missing audit trail.
fn suppressed(allows: &[Allow], rule: &str, i: usize) -> bool {
    allows
        .iter()
        .any(|a| a.rule == rule && a.has_reason && a.covers.contains(&i))
}

/// Lints one file's text under its workspace-relative path. The path
/// decides rule scopes, so fixture tests can lint a snippet *as if* it
/// lived in a scoped location.
pub fn lint_source(path: &str, text: &str) -> Vec<Finding> {
    let file = SourceFile::parse(path, text);
    let mut findings = Vec::new();
    let allows = collect_allows(&file, &mut findings);
    ordered_iteration(&file, &allows, &mut findings);
    no_wall_clock(&file, &allows, &mut findings);
    knob_registry(&file, &allows, &mut findings);
    unsafe_safety(&file, &allows, &mut findings);
    float_accumulation(&file, &allows, &mut findings);
    named_launches(&file, &allows, &mut findings);
    hot_path_rebuild(&file, &allows, &mut findings);
    no_global_state(&file, &allows, &mut findings);
    unused_allows(&file, &allows, &mut findings);
    findings.sort();
    findings.dedup();
    findings
}

/// Reports annotations that suppress nothing — a stale allow is a
/// contract hole waiting for the next edit to fall through.
fn unused_allows(file: &SourceFile, allows: &[Allow], findings: &mut Vec<Finding>) {
    // Re-run every rule with suppression disabled to learn what each
    // annotation *would* suppress.
    let mut raw = Vec::new();
    let none: Vec<Allow> = Vec::new();
    ordered_iteration(file, &none, &mut raw);
    no_wall_clock(file, &none, &mut raw);
    knob_registry(file, &none, &mut raw);
    unsafe_safety(file, &none, &mut raw);
    float_accumulation(file, &none, &mut raw);
    named_launches(file, &none, &mut raw);
    hot_path_rebuild(file, &none, &mut raw);
    no_global_state(file, &none, &mut raw);
    for a in allows {
        if !a.has_reason {
            continue; // already reported as reasonless
        }
        let hits = raw
            .iter()
            .any(|f| f.rule == a.rule && a.covers.contains(&(f.line - 1)));
        if !hits {
            findings.push(Finding::new(
                &file.path,
                a.at + 1,
                ALLOW_ANNOTATION,
                format!("allow({}) suppresses nothing here; remove it", a.rule),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 1: ordered-iteration
// ---------------------------------------------------------------------

/// Paths whose iteration order feeds committed scores or exported
/// reports: the batch commit/exec layer, the kernel bodies and the
/// native executor, the
/// simulator's profile and memsim reductions, the telemetry aggregation
/// and exporters, and the serve layer (whose
/// tenant iteration order feeds the Prometheus exposition and shutdown
/// snapshot maps).
fn ordered_iteration_scope(path: &str) -> bool {
    path == "crates/bc/src/gpu/exec.rs"
        || path == "crates/bc/src/gpu/engine.rs"
        || path.starts_with("crates/bc/src/gpu/kernels/")
        || path.starts_with("crates/bc/src/native/")
        || path == "crates/gpu-sim/src/profile.rs"
        || path == "crates/gpu-sim/src/cache.rs"
        || path.starts_with("crates/telemetry/src/")
        || path.starts_with("crates/serve/src/")
}

const ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".into_iter()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".retain(",
];

fn ordered_iteration(file: &SourceFile, allows: &[Allow], findings: &mut Vec<Finding>) {
    if !ordered_iteration_scope(&file.path) {
        return;
    }
    let mut hash_idents: Vec<String> = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        let is_hash_line = code.contains("HashMap") || code.contains("HashSet");
        if is_hash_line {
            if let Some(name) = let_binding_name(code).or_else(|| typed_binding_name(code)) {
                if !hash_idents.contains(&name) {
                    hash_idents.push(name);
                }
            }
        }
        let mut hit = false;
        // Same-line: a hash type chained straight into iteration
        // (collect() lines are building the map, not iterating it).
        if is_hash_line
            && !code.contains("collect")
            && ITER_METHODS.iter().any(|m| code.contains(m))
        {
            hit = true;
        }
        // Tracked identifier: `m.iter()`, `for k in &m`, …
        if !hit {
            for ident in &hash_idents {
                if ITER_METHODS
                    .iter()
                    .any(|m| has_token_before(code, ident, m))
                    || for_loop_over(code, ident)
                {
                    hit = true;
                    break;
                }
            }
        }
        if hit && !suppressed(allows, ORDERED_ITERATION, i) {
            findings.push(Finding::new(
                &file.path,
                i + 1,
                ORDERED_ITERATION,
                "iteration over an unordered HashMap/HashSet in a commit/merge/export \
                 path: order feeds committed scores or deterministic reports — use a \
                 Vec/BTreeMap or sort first",
            ));
        }
    }
}

/// Extracts the identifier of a `let`/`let mut` binding on this line.
fn let_binding_name(code: &str) -> Option<String> {
    let at = find_token(code, "let")?;
    let mut rest = code[at + 3..].trim_start();
    if let Some(stripped) = rest.strip_prefix("mut ") {
        rest = stripped.trim_start();
    }
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Extracts the identifier of a `name: …Hash…` typed binding on this
/// line — a fn parameter or struct field whose declared type mentions a
/// hash container (the `let` form handles local bindings).
fn typed_binding_name(code: &str) -> Option<String> {
    let hash_at = code.find("HashMap").or_else(|| code.find("HashSet"))?;
    let mut head = code[..hash_at].trim_end();
    // Strip qualifying path segments (`std::collections::`).
    while let Some(stripped) = head.strip_suffix("::") {
        let seg = stripped.trim_end();
        let cut = seg
            .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
            .map_or(0, |p| p + 1);
        head = seg[..cut].trim_end();
    }
    // Strip reference sigils between the colon and the type.
    while let Some(stripped) = head.strip_suffix('&').or_else(|| head.strip_suffix("mut")) {
        head = stripped.trim_end();
    }
    // What remains must be `… name:`.
    let head = head.strip_suffix(':')?;
    if head.ends_with(':') {
        return None; // `::` — still a path, not a binding
    }
    let name: String = head
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect();
    (!name.is_empty() && !name.chars().next().is_some_and(|c| c.is_ascii_digit())).then_some(name)
}

/// True when `code` contains `ident` (token-bounded) immediately
/// followed by `suffix` (e.g. `m` + `.iter()`).
fn has_token_before(code: &str, ident: &str, suffix: &str) -> bool {
    let pat = format!("{ident}{suffix}");
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(rel) = code[from..].find(&pat) {
        let at = from + rel;
        if !code[..at].chars().next_back().is_some_and(is_ident) {
            return true;
        }
        from = at + 1;
    }
    false
}

/// True when `code` has a `for … in` loop whose iterated expression
/// starts with `ident` (after `&`/`&mut`).
fn for_loop_over(code: &str, ident: &str) -> bool {
    if !has_token(code, "for") {
        return false;
    }
    let Some(at) = code.find(" in ") else {
        return false;
    };
    let mut rest = code[at + 4..].trim_start();
    rest = rest.strip_prefix('&').unwrap_or(rest);
    rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let head: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    head == ident
}

// ---------------------------------------------------------------------
// Rule 2: no-wall-clock
// ---------------------------------------------------------------------

/// Bench harnesses measure wall time by definition; everything else
/// must annotate each wall-clock read with why it never feeds a model
/// result.
fn no_wall_clock_scope(path: &str) -> bool {
    !path.starts_with("crates/bench/")
}

fn no_wall_clock(file: &SourceFile, allows: &[Allow], findings: &mut Vec<Finding>) {
    if !no_wall_clock_scope(&file.path) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        let code = &line.code;
        if !(code.contains("Instant::now") || has_token(code, "SystemTime")) {
            continue;
        }
        if suppressed(allows, NO_WALL_CLOCK, i) {
            continue;
        }
        findings.push(Finding::new(
            &file.path,
            i + 1,
            NO_WALL_CLOCK,
            "wall-clock read outside a bench harness: model paths must be \
             deterministic — derive time from the simulated clock, or annotate \
             why this value is observability-only",
        ));
    }
}

// ---------------------------------------------------------------------
// Rule 3: knob-registry
// ---------------------------------------------------------------------

/// The registry module itself is the one place allowed to spell knob
/// names as string literals.
pub(crate) const KNOB_REGISTRY_PATH: &str = "crates/gpu-sim/src/knob.rs";

fn knob_registry(file: &SourceFile, allows: &[Allow], findings: &mut Vec<Finding>) {
    if file.path == KNOB_REGISTRY_PATH {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        let reads_env = line.code.contains("env::var") || line.code.contains("env!(");
        if !reads_env || !line.strings.iter().any(|s| s.starts_with("DYNBC_")) {
            continue;
        }
        if suppressed(allows, KNOB_REGISTRY, i) {
            continue;
        }
        findings.push(Finding::new(
            &file.path,
            i + 1,
            KNOB_REGISTRY,
            "raw DYNBC_* knob name in an env read: reference a constant from \
             dynbc_gpusim::knob so the name stays registered and documented",
        ));
    }
}

// ---------------------------------------------------------------------
// Rule 4: unsafe-safety
// ---------------------------------------------------------------------

fn unsafe_safety(file: &SourceFile, allows: &[Allow], findings: &mut Vec<Finding>) {
    for (i, line) in file.lines.iter().enumerate() {
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        if safety_comment_adjacent(&file.lines, i) || suppressed(allows, UNSAFE_SAFETY, i) {
            continue;
        }
        findings.push(Finding::new(
            &file.path,
            i + 1,
            UNSAFE_SAFETY,
            "`unsafe` without an adjacent `// SAFETY:` comment stating the \
             invariant that makes this sound",
        ));
    }
}

/// True when line `i` (0-based) carries or is preceded by a `SAFETY:`
/// comment, with only comment, attribute, or blank-free lines between.
fn safety_comment_adjacent(lines: &[Line], i: usize) -> bool {
    if lines[i].comment.contains("SAFETY:") {
        return true;
    }
    let mut j = i;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        let comment_only = l.code_is_blank() && !l.comment.is_empty();
        if comment_only && l.comment.contains("SAFETY:") {
            return true;
        }
        // Lint-control attributes may sit between the comment and the
        // item; so may further comment lines. Anything else (including
        // a fully blank line) breaks adjacency.
        let attr_exempt =
            l.code.contains("unsafe_code") || l.code.contains("unsafe_op_in_unsafe_fn");
        if comment_only || (l.code_is_attr() && attr_exempt) {
            continue;
        }
        return false;
    }
    false
}

// ---------------------------------------------------------------------
// Rule 5: float-accumulation
// ---------------------------------------------------------------------

/// The parallel kernel paths: the kernel bodies, the fused exec layer,
/// and the native executor.
fn float_accumulation_scope(path: &str) -> bool {
    path.starts_with("crates/bc/src/gpu/kernels/")
        || path == "crates/bc/src/gpu/exec.rs"
        || path.starts_with("crates/bc/src/native/")
}

fn float_accumulation(file: &SourceFile, allows: &[Allow], findings: &mut Vec<Finding>) {
    if !float_accumulation_scope(&file.path) {
        return;
    }
    let mut float_idents: Vec<String> = Vec::new();
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if has_token(code, "let") && (code.contains("f64") || has_float_literal(code)) {
            if let Some(name) = let_binding_name(code) {
                if !float_idents.contains(&name) {
                    float_idents.push(name);
                }
            }
        }
        // The approved pattern: accumulation into the per-block
        // bc_delta slab, drained in block-index order.
        if code.contains("bc_delta") {
            continue;
        }
        let mut hit = code.contains(".sum::<f64>") || code.contains("fold(0.0");
        if !hit && code.contains("+=") {
            hit = float_idents
                .iter()
                .any(|id| has_token_before(code, id, " +=") || has_token_before(code, id, "+="));
        }
        if hit && !suppressed(allows, FLOAT_ACCUMULATION, i) {
            findings.push(Finding::new(
                &file.path,
                i + 1,
                FLOAT_ACCUMULATION,
                "f64 reduction in a parallel kernel path: accumulation order must \
                 not depend on scheduling — route it through the per-block bc_delta \
                 slab (block-index-order drain) or annotate why the order is fixed",
            ));
        }
    }
}

/// True when `code` contains a float literal (`0.0`, `1.5e3`, …).
fn has_float_literal(code: &str) -> bool {
    let b = code.as_bytes();
    (1..b.len().saturating_sub(1))
        .any(|k| b[k] == b'.' && b[k - 1].is_ascii_digit() && b[k + 1].is_ascii_digit())
}

// ---------------------------------------------------------------------
// Rule 6: named-launches
// ---------------------------------------------------------------------

/// Kernel code: everything under `crates/bc/src` (unit-test modules
/// exempt — fixtures there name what they must and no report reads
/// them).
fn named_launches_scope(path: &str) -> bool {
    path.starts_with("crates/bc/src/")
}

/// Every `GpuBuffer` is allocated through its device (`Gpu::alloc`,
/// `Gpu::upload`).
const BUFFER_CTORS: &[&str] = &[".alloc(", ".upload("];

fn named_launches(file: &SourceFile, allows: &[Allow], findings: &mut Vec<Finding>) {
    if !named_launches_scope(&file.path) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if code.contains(".launch(") && !suppressed(allows, NAMED_LAUNCHES, i) {
            findings.push(Finding::new(
                &file.path,
                i + 1,
                NAMED_LAUNCHES,
                "anonymous kernel launch: use launch_named/launch_checked so \
                 racecheck and profiler reports stay attributable",
            ));
        }
        if BUFFER_CTORS.iter().any(|c| code.contains(c))
            && !statement_has_named(&file.lines, i)
            && !suppressed(allows, NAMED_LAUNCHES, i)
        {
            findings.push(Finding::new(
                &file.path,
                i + 1,
                NAMED_LAUNCHES,
                "unnamed GpuBuffer in kernel code: chain .named(\"…\") so diagnostics \
                 and counters can attribute accesses to this buffer",
            ));
        }
    }
}

/// True when the statement starting at line `i` chains `.named(` before
/// its terminating `;` (looking at most 5 lines ahead — matches the
/// buffer-construction idiom in this workspace).
fn statement_has_named(lines: &[Line], i: usize) -> bool {
    let mut joined = String::new();
    for l in lines.iter().skip(i).take(6) {
        joined.push_str(&l.code);
        joined.push(' ');
        if l.code.contains(';') {
            break;
        }
    }
    let upto = joined.find(';').map_or(joined.len(), |p| p + 1);
    joined[..upto].contains(".named(")
}

// ---------------------------------------------------------------------
// Rule 7: hot-path-rebuild
// ---------------------------------------------------------------------

/// The batch-update hot paths: the fused exec layer, the engines, the
/// kernel bodies both backends run, and the native executor. Graph
/// construction, tests, and oracle
/// recomputation live elsewhere — or carry an annotation saying why a
/// full canonicalization is off the per-op path.
fn hot_path_rebuild_scope(path: &str) -> bool {
    path == "crates/bc/src/gpu/exec.rs"
        || path == "crates/bc/src/gpu/engine.rs"
        || path.starts_with("crates/bc/src/gpu/kernels/")
        || path.starts_with("crates/bc/src/native/")
}

fn hot_path_rebuild(file: &SourceFile, allows: &[Allow], findings: &mut Vec<Finding>) {
    if !hot_path_rebuild_scope(&file.path) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        if !(code.contains(".to_csr()") || code.contains("from_edge_list(")) {
            continue;
        }
        if suppressed(allows, HOT_PATH_REBUILD, i) {
            continue;
        }
        findings.push(Finding::new(
            &file.path,
            i + 1,
            HOT_PATH_REBUILD,
            "full CSR rebuild in a batch-update hot path: committed ops must \
             cost O(degree) through the slack store — keep to_csr()/\
             from_edge_list for construction, tests, and oracle checks, and \
             annotate those sites",
        ));
    }
}

// ---------------------------------------------------------------------
// Rule 8: no-global-state
// ---------------------------------------------------------------------

/// Non-test code: integration-test files (any `tests/` directory) are
/// exempt, like `#[cfg(test)]` regions — a test may serialize its own
/// environment writes through a static lock.
fn no_global_state_scope(path: &str) -> bool {
    !(path.starts_with("tests/") || path.contains("/tests/"))
}

/// Type names whose `static` is mutable through a shared reference.
const INTERIOR_MUTABLE: &[&str] = &["Mutex", "RwLock", "Cell", "RefCell", "OnceLock", "OnceCell"];

fn no_global_state(file: &SourceFile, allows: &[Allow], findings: &mut Vec<Finding>) {
    if !no_global_state_scope(&file.path) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let what = if code.contains("thread_local!") {
            Some("thread_local!")
        } else if let Some(item) = static_item(code) {
            if item.starts_with("mut ") {
                Some("static mut")
            } else if static_type(&file.lines, i, item)
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|w| w.starts_with("Atomic") || INTERIOR_MUTABLE.contains(&w))
            {
                Some("interior-mutable static")
            } else {
                None
            }
        } else {
            None
        };
        if let Some(what) = what {
            if !suppressed(allows, NO_GLOBAL_STATE, i) {
                findings.push(Finding::new(
                    &file.path,
                    i + 1,
                    NO_GLOBAL_STATE,
                    format!(
                        "{what}: process-global mutable state makes results depend on \
                         what else ran in the process — keep the state in the value \
                         that uses it (as each Gpu owns its address space)"
                    ),
                ));
            }
        }
    }
}

/// The text after the `static` keyword when `code` declares a static
/// item (optionally `pub`/`pub(…)`), else `None`. `&'static` lifetimes
/// never start an item, so they do not match.
fn static_item(code: &str) -> Option<&str> {
    let mut rest = code.trim_start();
    if let Some(after) = rest.strip_prefix("pub") {
        rest = after.trim_start();
        if rest.starts_with('(') {
            rest = rest[rest.find(')')? + 1..].trim_start();
        }
    }
    rest.strip_prefix("static ").map(str::trim_start)
}

/// The declared type of the static item starting on line `i` (`item`
/// is the text after `static`): everything between the first `:` and
/// the `=`/`;`, joined over at most 5 lines.
fn static_type(lines: &[Line], i: usize, item: &str) -> String {
    let mut joined = item.to_string();
    for l in lines.iter().skip(i + 1).take(4) {
        if joined.contains('=') || joined.contains(';') {
            break;
        }
        joined.push(' ');
        joined.push_str(&l.code);
    }
    let start = joined.find(':').map_or(joined.len(), |p| p + 1);
    let end = joined
        .find(['=', ';'])
        .map_or(joined.len(), |p| p.max(start));
    joined[start..end].to_string()
}
