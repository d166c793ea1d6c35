//! `dynbc-lint` — workspace static analysis for the contracts the test
//! suite can only check *after* a violation runs.
//!
//! Every equivalence claim this reproduction makes — bit-identical BC
//! scores across `DYNBC_HOST_THREADS`, backends, and batch sizes —
//! rests on hand-maintained conventions: block-index-order `f64`
//! reduction, no wall clock in model paths, ordered iteration in
//! commit/export paths, `SAFETY`-commented `unsafe`. Proptests and the
//! racecheck tier enforce them dynamically; this crate enforces them
//! lexically, over every first-party source file, before anything is
//! built or run.
//!
//! Six rules (see [`rules`]): `ordered-iteration`, `no-wall-clock`,
//! `knob-registry`, `unsafe-safety`, `float-accumulation`,
//! `named-launches` — each scoped to the paths where its contract
//! applies, each suppressible by an inline
//! `dynbc-lint: allow(<rule>) — <reason>` annotation whose reason is
//! mandatory. Reports are deterministic: findings sort by
//! `(path, line, rule)` and the JSON emission is byte-identical across
//! runs (snapshot-tested).
//!
//! Run it with `cargo run -p dynbc-lint` from anywhere in the
//! workspace; the binary exits non-zero on any unsuppressed finding.
//! `scripts/verify.sh` runs it before the expensive build steps.
//!
//! The crate is dependency-free: the build environment has no crates.io
//! access, so
//! the Rust line-lexer, the rule engine, and the JSON emitter are all
//! hand-rolled here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod rules;
pub mod source;

pub use report::{Finding, Report};
pub use rules::lint_source;

use std::path::{Path, PathBuf};

/// Directory names never descended into: vendored third-party code,
/// build output, VCS metadata, and deliberately-violating lint
/// fixtures.
const SKIP_DIRS: &[&str] = &["vendor", "target", ".git", "fixtures"];

/// Finds the workspace root (the ancestor directory whose `Cargo.toml`
/// declares `[workspace]`), starting from `start`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Collects every first-party `.rs` file under `root`, as sorted
/// workspace-relative `/`-separated paths — the scan order (and thus
/// the report) is deterministic by construction.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the whole workspace at `root`: every first-party `.rs` file
/// through the six per-file rules, plus the registry↔README agreement
/// check. The returned report is sorted and deduplicated.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for rel in collect_sources(root)? {
        let text = std::fs::read_to_string(root.join(&rel))?;
        report.files_scanned += 1;
        report.lines_scanned += text.lines().count();
        report.findings.extend(rules::lint_source(&rel, &text));
    }
    report
        .findings
        .extend(check_registry_docs(root).unwrap_or_default());
    report.finish();
    Ok(report)
}

/// Cross-checks the knob registry against the README's knob table:
/// every registered `DYNBC_*` name must appear as a `| `DYNBC_…` |`
/// table row, and every documented row must be registered.
pub fn check_registry_docs(root: &Path) -> std::io::Result<Vec<Finding>> {
    let knob_rel = rules::KNOB_REGISTRY_PATH;
    let knob_text = std::fs::read_to_string(root.join(knob_rel))?;
    let readme_text = std::fs::read_to_string(root.join("README.md"))?;
    let knob_file = source::SourceFile::parse(knob_rel, &knob_text);

    // Registered: string literals `"DYNBC_…"` on `const … : &str` lines
    // of the registry module.
    let mut registered: Vec<(String, usize)> = Vec::new();
    for (i, line) in knob_file.lines.iter().enumerate() {
        if !line.code.contains("&str") || !source::has_token(&line.code, "const") {
            continue;
        }
        for s in &line.strings {
            if s.starts_with("DYNBC_") {
                registered.push((s.clone(), i + 1));
            }
        }
    }

    // Documented: markdown table rows whose first cell is a DYNBC_ name.
    let mut documented: Vec<(String, usize)> = Vec::new();
    for (i, raw) in readme_text.lines().enumerate() {
        let t = raw.trim_start();
        if !t.starts_with('|') {
            continue;
        }
        if let Some(start) = t.find("`DYNBC_") {
            if let Some(len) = t[start + 1..].find('`') {
                documented.push((t[start + 1..start + 1 + len].to_string(), i + 1));
            }
        }
    }

    let mut findings = Vec::new();
    for (name, line) in &registered {
        if !documented.iter().any(|(d, _)| d == name) {
            findings.push(Finding::new(
                knob_rel,
                *line,
                rules::KNOB_REGISTRY,
                format!("knob {name} is registered but missing from the README knob table"),
            ));
        }
    }
    for (name, line) in &documented {
        if !registered.iter().any(|(r, _)| r == name) {
            findings.push(Finding::new(
                "README.md",
                *line,
                rules::KNOB_REGISTRY,
                format!("README documents {name}, which is not in the knob registry"),
            ));
        }
    }
    Ok(findings)
}
