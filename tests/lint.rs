//! The lint fixture tier: proves every `dynbc-lint` rule is live.
//!
//! Each fixture under `tests/fixtures/lint/` deliberately violates
//! exactly one rule; it is linted under a *virtual* path inside that
//! rule's scope (the fixtures directory itself is never scanned by the
//! workspace lint), and the test pins the triggered rule and line. A
//! clean-tree run and a byte-identical JSON snapshot round out the
//! tier.

use dynbc_lint::{find_workspace_root, lint_source, lint_workspace, Finding};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/lint")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Asserts the fixture triggers exactly the expected `(rule, line)`
/// findings under `virtual_path`, and nothing anywhere else.
fn expect(virtual_path: &str, name: &str, expected: &[(&str, usize)]) -> Vec<Finding> {
    let findings = lint_source(virtual_path, &fixture(name));
    let got: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        got, expected,
        "{name} under {virtual_path} reported {findings:#?}"
    );
    findings
}

#[test]
fn ordered_iteration_fixture() {
    expect(
        "crates/bc/src/native/fixture.rs",
        "ordered_iteration.rs",
        &[("ordered-iteration", 9)],
    );
    // The same snippet outside the commit/merge/export paths is silent.
    assert!(lint_source(
        "crates/graph/src/fixture.rs",
        &fixture("ordered_iteration.rs")
    )
    .is_empty());
    // The serve layer is in scope: its tenant iteration order feeds the
    // Prometheus exposition and the shutdown snapshot map.
    expect(
        "crates/serve/src/fixture.rs",
        "ordered_iteration.rs",
        &[("ordered-iteration", 9)],
    );
    // Maps arriving as typed fn parameters are tracked too, not just
    // let bindings.
    let param = "pub fn f(m: &std::collections::HashMap<u32, u32>) -> u32 {\n    \
                 let mut n = 0;\n    for (_, v) in m.iter() {\n        n += v;\n    }\n    n\n}\n";
    let findings = lint_source("crates/bc/src/gpu/exec.rs", param);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(
        (findings[0].rule, findings[0].line),
        ("ordered-iteration", 3)
    );
}

#[test]
fn no_wall_clock_fixture() {
    expect(
        "crates/bc/src/dynamic/fixture.rs",
        "no_wall_clock.rs",
        &[("no-wall-clock", 4)],
    );
    // Bench harnesses measure wall time by definition.
    assert!(lint_source(
        "crates/bench/benches/fixture.rs",
        &fixture("no_wall_clock.rs")
    )
    .is_empty());
}

#[test]
fn knob_registry_fixture() {
    expect(
        "src/fixture.rs",
        "knob_registry.rs",
        &[("knob-registry", 4)],
    );
    // The registry module itself is the one place allowed literals.
    assert!(lint_source("crates/gpu-sim/src/knob.rs", &fixture("knob_registry.rs")).is_empty());
}

#[test]
fn unsafe_safety_fixture() {
    expect(
        "crates/gpu-sim/src/fixture.rs",
        "unsafe_safety.rs",
        &[("unsafe-safety", 5)],
    );
    // A SAFETY comment directly above the token satisfies the rule.
    let fixed = fixture("unsafe_safety.rs").replace(
        "// a comment that is not the required one",
        "// SAFETY: xs is non-empty by contract",
    );
    assert!(lint_source("crates/gpu-sim/src/fixture.rs", &fixed).is_empty());
}

#[test]
fn float_accumulation_fixture() {
    expect(
        "crates/bc/src/gpu/kernels/fixture.rs",
        "float_accumulation.rs",
        &[("float-accumulation", 7)],
    );
    // The approved pattern: the same reduction through the bc_delta slab.
    let slab = fixture("float_accumulation.rs").replace("acc += v;", "bc_delta_acc(&mut acc, *v);");
    assert!(lint_source("crates/bc/src/gpu/kernels/fixture.rs", &slab).is_empty());
}

#[test]
fn named_launches_fixture() {
    expect(
        "crates/bc/src/gpu/fixture.rs",
        "named_launches.rs",
        &[("named-launches", 7), ("named-launches", 8)],
    );
    // Naming the buffer and the launch clears both findings.
    let named = fixture("named_launches.rs")
        .replace("gpu.alloc(4, 0);", "gpu.alloc(4, 0).named(\"fixture\");")
        .replace("gpu.launch(1,", "gpu.launch_named(\"fixture\", 1,");
    assert!(lint_source("crates/bc/src/gpu/fixture.rs", &named).is_empty());
}

#[test]
fn no_global_state_fixture() {
    // The RefCell static inside thread_local! is flagged on its own line;
    // the immutable static and the test module's lock are not flagged.
    expect(
        "crates/gpu-sim/src/fixture.rs",
        "no_global_state.rs",
        &[
            ("no-global-state", 7),
            ("no-global-state", 8),
            ("no-global-state", 9),
            ("no-global-state", 10),
            ("no-global-state", 11),
        ],
    );
    // Integration tests may hold a static lock around env writes.
    assert!(lint_source("tests/fixture.rs", &fixture("no_global_state.rs")).is_empty());
}

#[test]
fn hot_path_rebuild_fixture() {
    expect(
        "crates/bc/src/gpu/engine.rs",
        "hot_path_rebuild.rs",
        &[("hot-path-rebuild", 7), ("hot-path-rebuild", 8)],
    );
    // The same snippet outside the update hot paths is silent: full
    // canonicalization is the normal idiom for construction and oracles.
    assert!(lint_source(
        "crates/graph/src/fixture.rs",
        &fixture("hot_path_rebuild.rs")
    )
    .is_empty());
    // An annotated construction site inside the scope is clean.
    let annotated = fixture("hot_path_rebuild.rs").replace(
        "    let snapshot = graph.to_csr();",
        "    // dynbc-lint: allow(hot-path-rebuild) — fixture construction site, not the per-op path\n    \
         let snapshot = graph.to_csr();",
    );
    let findings = lint_source("crates/bc/src/gpu/engine.rs", &annotated);
    assert_eq!(
        findings
            .iter()
            .map(|f| (f.rule, f.line))
            .collect::<Vec<_>>(),
        [("hot-path-rebuild", 9)],
        "{findings:#?}"
    );
}

#[test]
fn reasoned_annotation_suppresses() {
    // Same violation as float_accumulation.rs, but annotated with a
    // reason: clean.
    assert!(lint_source(
        "crates/bc/src/gpu/kernels/fixture.rs",
        &fixture("annotated_clean.rs")
    )
    .is_empty());
}

#[test]
fn reasonless_annotation_is_a_finding_and_does_not_suppress() {
    let stripped = fixture("annotated_clean.rs").replace(
        "allow(float-accumulation) — fixture accumulator is",
        "allow(float-accumulation)",
    );
    let findings = lint_source("crates/bc/src/gpu/kernels/fixture.rs", &stripped);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert!(
        rules.contains(&"allow-annotation") && rules.contains(&"float-accumulation"),
        "reasonless allow must be reported and must not suppress: {findings:#?}"
    );
}

#[test]
fn unknown_rule_and_stale_annotation_are_findings() {
    let unknown =
        fixture("annotated_clean.rs").replace("allow(float-accumulation)", "allow(no-such-rule)");
    let findings = lint_source("crates/bc/src/gpu/kernels/fixture.rs", &unknown);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "allow-annotation" && f.message.contains("no-such-rule")),
        "{findings:#?}"
    );

    // An annotation that stops suppressing anything goes stale and is
    // itself reported.
    let stale = fixture("annotated_clean.rs").replace("acc += v;", "let _ = v;");
    let findings = lint_source("crates/bc/src/gpu/kernels/fixture.rs", &stale);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "allow-annotation");
    assert!(findings[0].message.contains("suppresses nothing"));
}

#[test]
fn clean_tree_passes() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let report = lint_workspace(&root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "the tree must lint clean:\n{}",
        report.human()
    );
    assert!(
        report.files_scanned > 50,
        "scan saw {} files",
        report.files_scanned
    );
}

#[test]
fn json_report_is_byte_identical_across_runs() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let a = lint_workspace(&root).expect("first scan");
    let b = lint_workspace(&root).expect("second scan");
    assert_eq!(a.json(), b.json(), "JSON report must be deterministic");
    assert_eq!(a.human(), b.human(), "human report must be deterministic");
    // And the JSON carries the fixed schema keys in fixed order.
    let json = a.json();
    let files_at = json.find("\"files_scanned\"").unwrap();
    let lines_at = json.find("\"lines_scanned\"").unwrap();
    let findings_at = json.find("\"findings\"").unwrap();
    assert!(files_at < lines_at && lines_at < findings_at);
}
