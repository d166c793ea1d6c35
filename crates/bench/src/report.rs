//! Machine-readable benchmark output: `BENCH_dynbc.json`.
//!
//! Every harness appends its numbers to one JSON file at the workspace
//! root so CI (or a human) can diff runs without scraping stdout. The
//! file is a single top-level object keyed by harness name; re-running a
//! harness replaces only its own entry, so the file accumulates the
//! latest result of each harness.
//!
//! The workspace vendors its dependencies (no network access to
//! crates.io), so this module hand-rolls the small JSON subset it needs:
//! emission of objects/arrays/strings/numbers, plus a top-level splitter
//! that treats each harness's value as an opaque balanced-brace span —
//! enough to merge files this module itself wrote.

use dynbc_gpusim::profile::{json_number, json_string};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Default output file name, at the workspace root.
pub const BENCH_JSON: &str = "BENCH_dynbc.json";

/// Version of the `BENCH_dynbc.json` layout, stamped as a top-level
/// `schema_version` entry on every write. Bump when the shape of harness
/// entries changes (rows gained `schema_version` handling and the
/// telemetry sections at 2, host metadata at 3).
pub const SCHEMA_VERSION: u64 = 3;

/// One measured row of a harness (a graph × engine cell, or a
/// micro-bench configuration).
#[derive(Debug, Clone)]
pub struct Row {
    /// What was measured (suite graph short name, bench id, …).
    pub name: String,
    /// Engine / configuration label.
    pub engine: String,
    /// Simulated seconds on the machine model (0.0 when not applicable).
    pub model_seconds: f64,
    /// Host wall-clock seconds actually spent.
    pub wall_seconds: f64,
    /// Extra named scalars (speedups, counts, thread sweeps, …).
    pub extra: Vec<(String, f64)>,
}

impl Row {
    /// The shared row-emission helper: every section serializes its rows
    /// through this one method, so escaping and number formatting live in
    /// exactly one place.
    pub fn json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"name\": {}, \"engine\": {}, \"model_seconds\": {}, \"wall_seconds\": {}",
            json_string(&self.name),
            json_string(&self.engine),
            json_number(self.model_seconds),
            json_number(self.wall_seconds)
        );
        for (k, v) in &self.extra {
            let _ = write!(out, ", {}: {}", json_string(k), json_number(*v));
        }
        out.push('}');
        out
    }
}

/// One harness's report: metadata plus measured rows.
#[derive(Debug, Clone)]
pub struct HarnessReport {
    /// Harness name — the key in the top-level JSON object.
    pub harness: String,
    /// Host threads simulated blocks ran on (`DYNBC_HOST_THREADS`).
    pub host_threads: usize,
    /// Logical CPUs the host offers this process.
    pub nproc: usize,
    /// Host CPU model (`model name` of `/proc/cpuinfo`, best effort).
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the harness.
    pub rustc: String,
    /// Git revision of the working tree (read from `.git`, best effort),
    /// suffixed `-dirty` when tracked files differ from it and
    /// `-tree-unknown` when that could not be determined.
    pub git_rev: String,
    /// Measured rows.
    pub rows: Vec<Row>,
}

impl HarnessReport {
    /// Starts a report for `harness`, stamping the current host-thread
    /// setting, the host and compiler, and the git revision.
    pub fn new(harness: &str) -> Self {
        Self {
            harness: harness.to_string(),
            host_threads: dynbc_gpusim::Instruments::from_env().host_threads,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            rustc: env!("BENCH_RUSTC_VERSION").to_string(),
            git_rev: git_rev().map_or_else(
                || "unknown".to_string(),
                |rev| stamp_rev(&rev, tree_dirty()),
            ),
            rows: Vec::new(),
        }
    }

    /// Adds a measured row.
    pub fn push_row(&mut self, name: &str, engine: &str, model_seconds: f64, wall_seconds: f64) {
        self.rows.push(Row {
            name: name.to_string(),
            engine: engine.to_string(),
            model_seconds,
            wall_seconds,
            extra: Vec::new(),
        });
    }

    /// Adds a named scalar to the most recent row.
    pub fn annotate(&mut self, key: &str, value: f64) {
        let row = self.rows.last_mut().expect("annotate before any push_row");
        row.extra.push((key.to_string(), value));
    }

    /// Adds a row with its extra scalars in one call — the common shape of
    /// a harness section (`push_row` + n× `annotate`).
    pub fn push_row_with(
        &mut self,
        name: &str,
        engine: &str,
        model_seconds: f64,
        wall_seconds: f64,
        extras: &[(&str, f64)],
    ) {
        self.push_row(name, engine, model_seconds, wall_seconds);
        for &(k, v) in extras {
            self.annotate(k, v);
        }
    }

    /// Serializes this harness's entry (the value under its name).
    fn value_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"host_threads\": {}, \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \
             \"git_rev\": {}, \"rows\": [",
            self.host_threads,
            self.nproc,
            json_string(&self.cpu_model),
            json_string(&self.rustc),
            json_string(&self.git_rev)
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&row.json());
        }
        out.push_str("]}");
        out
    }

    /// Merges this report into `path` (see the module docs) and returns
    /// the path written. Errors are soft: benchmark numbers must never
    /// take the harness down, so failures are printed and swallowed.
    pub fn write(&self, path: &Path) -> Option<PathBuf> {
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        let mut entries = split_top_level(&existing);
        entries.retain(|(k, _)| k != &self.harness && k != "schema_version");
        entries.push((self.harness.clone(), self.value_json()));
        entries.insert(
            0,
            ("schema_version".to_string(), SCHEMA_VERSION.to_string()),
        );
        let mut out = String::from("{\n");
        for (i, (k, v)) in entries.iter().enumerate() {
            let _ = write!(out, "  {}: {}", json_string(k), v);
            out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
        }
        out.push_str("}\n");
        match std::fs::write(path, out) {
            Ok(()) => Some(path.to_path_buf()),
            Err(e) => {
                eprintln!("[bench] could not write {}: {e}", path.display());
                None
            }
        }
    }

    /// Merges into [`BENCH_JSON`] at the workspace root (falling back to
    /// the current directory when the root is not findable).
    pub fn write_default(&self) -> Option<PathBuf> {
        self.write(&workspace_root().join(BENCH_JSON))
    }
}

/// Walks upward from the current directory to the first ancestor holding
/// a `Cargo.toml` with a `[workspace]` table.
fn workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

/// Resolves the checked-out git revision by reading `.git/HEAD` (and one
/// level of ref indirection) — no subprocess, works offline.
pub fn git_rev() -> Option<String> {
    let git = workspace_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
            return Some(hash.trim().to_string());
        }
        // Packed refs fallback.
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        for line in packed.lines() {
            if let Some(hash) = line.strip_suffix(refname) {
                return Some(hash.trim().to_string());
            }
        }
        None
    } else {
        Some(head.to_string())
    }
}

/// Whether tracked files differ from `HEAD`, from `git status
/// --porcelain --untracked-files=no`; `None` when git cannot say (no
/// `git` binary, not a checkout).
fn tree_dirty() -> Option<bool> {
    let out = std::process::Command::new("git")
        .arg("-C")
        .arg(workspace_root())
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()?;
    out.status.success().then_some(!out.stdout.is_empty())
}

/// `rev` marked with the working tree's state: `-dirty` for a modified
/// tree, `-tree-unknown` when the state is unknown, so a stamp never
/// implies a clean tree it did not see.
fn stamp_rev(rev: &str, dirty: Option<bool>) -> String {
    match dirty {
        Some(false) => rev.to_string(),
        Some(true) => format!("{rev}-dirty"),
        None => format!("{rev}-tree-unknown"),
    }
}

/// The host's CPU model, from the first `model name` line of
/// `/proc/cpuinfo` (Linux; `None` elsewhere).
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// Splits a top-level JSON object into `(key, raw value text)` pairs by
/// balanced-brace scanning. Only guaranteed for files this module wrote;
/// anything unparsable yields an empty list (the file gets rebuilt).
fn split_top_level(text: &str) -> Vec<(String, String)> {
    let mut entries = Vec::new();
    let bytes = text.as_bytes();
    let mut i = match text.find('{') {
        Some(p) => p + 1,
        None => return entries,
    };
    while i < bytes.len() {
        // Key: next string literal.
        while i < bytes.len() && bytes[i] != b'"' {
            if bytes[i] == b'}' {
                return entries;
            }
            i += 1;
        }
        if i >= bytes.len() {
            return entries;
        }
        let key_start = i + 1;
        let mut j = key_start;
        while j < bytes.len() && bytes[j] != b'"' {
            if bytes[j] == b'\\' {
                j += 1;
            }
            j += 1;
        }
        if j >= bytes.len() {
            return entries;
        }
        let key = text[key_start..j].to_string();
        // Skip to the colon, then capture the balanced value span.
        let mut k = j + 1;
        while k < bytes.len() && bytes[k] != b':' {
            k += 1;
        }
        k += 1;
        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
        let value_start = k;
        let mut depth = 0i64;
        let mut in_str = false;
        while k < bytes.len() {
            let c = bytes[k];
            if in_str {
                if c == b'\\' {
                    k += 1;
                } else if c == b'"' {
                    in_str = false;
                }
            } else {
                match c {
                    b'"' => in_str = true,
                    b'{' | b'[' => depth += 1,
                    b'}' | b']' => {
                        if depth == 0 {
                            break; // closing brace of the top-level object
                        }
                        depth -= 1;
                    }
                    b',' if depth == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        let value = text[value_start..k].trim().to_string();
        if !value.is_empty() {
            entries.push((key, value));
        }
        i = k + 1;
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_serialize_with_metadata_and_extras() {
        let mut r = HarnessReport::new("unit");
        r.host_threads = 4;
        r.nproc = 2;
        r.cpu_model = "Some CPU".to_string();
        r.git_rev = "abc123".to_string();
        r.push_row("small", "GPU Node", 1.5, 0.25);
        r.annotate("speedup", 2.0);
        let json = r.value_json();
        assert!(json.contains("\"host_threads\": 4"), "{json}");
        assert!(json.contains("\"nproc\": 2"), "{json}");
        assert!(json.contains("\"cpu_model\": \"Some CPU\""), "{json}");
        assert!(json.contains("\"rustc\": \"rustc "), "{json}");
        assert!(json.contains("\"git_rev\": \"abc123\""), "{json}");
        assert!(json.contains("\"model_seconds\": 1.5"), "{json}");
        assert!(json.contains("\"speedup\": 2"), "{json}");
    }

    #[test]
    fn split_round_trips_own_output() {
        let mut r = HarnessReport::new("alpha");
        r.push_row("g", "e", 1.0, 2.0);
        let merged = format!(
            "{{\n  \"alpha\": {},\n  \"beta\": {{\"rows\": []}}\n}}\n",
            r.value_json()
        );
        let entries = split_top_level(&merged);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "alpha");
        assert_eq!(
            entries[1],
            ("beta".to_string(), "{\"rows\": []}".to_string())
        );
        assert_eq!(entries[0].1, r.value_json());
    }

    #[test]
    fn write_merges_by_harness_key() {
        let dir = std::env::temp_dir().join(format!("dynbc_bench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);

        let mut a = HarnessReport::new("a");
        a.push_row("g", "e", 1.0, 0.1);
        a.write(&path).unwrap();
        let mut b = HarnessReport::new("b");
        b.push_row("h", "f", 2.0, 0.2);
        b.write(&path).unwrap();
        // Re-running harness "a" replaces only its entry.
        let mut a2 = HarnessReport::new("a");
        a2.push_row("g", "e", 3.0, 0.3);
        a2.write(&path).unwrap();

        let text = std::fs::read_to_string(&path).unwrap();
        let entries = split_top_level(&text);
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["schema_version", "b", "a"]);
        assert_eq!(entries[0].1, SCHEMA_VERSION.to_string());
        assert!(text.contains("\"model_seconds\": 3"), "{text}");
        assert!(!text.contains("\"model_seconds\": 1,"), "{text}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn push_row_with_matches_push_plus_annotate() {
        let mut a = HarnessReport::new("x");
        a.push_row("g", "e", 1.0, 0.5);
        a.annotate("p50", 2.0);
        a.annotate("p99", 3.0);
        let mut b = HarnessReport::new("x");
        b.push_row_with("g", "e", 1.0, 0.5, &[("p50", 2.0), ("p99", 3.0)]);
        assert_eq!(a.rows[0].json(), b.rows[0].json());
    }

    #[test]
    fn rev_stamp_marks_dirty_and_unknown_trees() {
        assert_eq!(stamp_rev("abc123", Some(false)), "abc123");
        assert_eq!(stamp_rev("abc123", Some(true)), "abc123-dirty");
        assert_eq!(stamp_rev("abc123", None), "abc123-tree-unknown");
    }

    #[test]
    fn git_rev_resolves_in_this_checkout() {
        // An export without `.git` (say, `git archive`) has no revision
        // to check: reports stamp it `-tree-unknown`. A checkout must
        // resolve one, and it must look like a hash.
        let rev = git_rev();
        if workspace_root().join(".git").is_dir() {
            assert!(rev.is_some(), "checkout with a .git directory has no rev");
        }
        if let Some(rev) = rev {
            assert!(rev.len() >= 7, "{rev}");
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
        }
    }

    /// Harness names passed to a live (uncommented) `HarnessReport::new`
    /// or `emit_bench_json` call in `source`.
    fn emitted_sections(source: &str) -> Vec<String> {
        let mut names = Vec::new();
        for line in source.lines().filter(|l| !l.trim_start().starts_with("//")) {
            for call in ["HarnessReport::new(\"", "emit_bench_json(\""] {
                for (at, _) in line.match_indices(call) {
                    let rest = &line[at + call.len()..];
                    if let Some(end) = rest.find('"') {
                        names.push(rest[..end].to_string());
                    }
                }
            }
        }
        names
    }

    /// `BENCH_dynbc.json` holds only sections some harness still writes,
    /// and every `[[bench]]` target has its file: a deleted harness must
    /// take its section and its manifest entry with it.
    #[test]
    fn every_section_has_a_live_harness_and_every_bench_target_a_file() {
        let benches = Path::new(env!("CARGO_MANIFEST_DIR")).join("benches");
        let mut emitted = Vec::new();
        for entry in std::fs::read_dir(&benches).expect("benches/ is readable") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "rs") {
                emitted.extend(emitted_sections(&std::fs::read_to_string(path).unwrap()));
            }
        }
        let text = std::fs::read_to_string(workspace_root().join(BENCH_JSON))
            .expect("BENCH_dynbc.json at the workspace root");
        for (section, _) in split_top_level(&text) {
            assert!(
                section == "schema_version" || emitted.contains(&section),
                "{BENCH_JSON} section `{section}` has no live harness under benches/"
            );
        }
        let manifest =
            std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"))
                .unwrap();
        for target in manifest.split("[[bench]]").skip(1) {
            let name = target
                .lines()
                .find_map(|l| l.trim().strip_prefix("name = \""))
                .and_then(|rest| rest.strip_suffix('"'))
                .expect("[[bench]] entry has a name");
            assert!(
                benches.join(format!("{name}.rs")).is_file(),
                "[[bench]] `{name}` has no benches/{name}.rs"
            );
        }
    }

    #[test]
    fn strings_escape_and_numbers_stay_finite() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(1.25), "1.25");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
