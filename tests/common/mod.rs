//! Helpers shared by the integration-test binaries.

use std::process::Command;

/// Runs test `name` of the current test binary again, alone, in a child
/// process whose environment sets `var=1`, and fails unless it passed
/// there. Environment-knob tests use it to build an engine under the
/// knob without changing this process's environment, which the sibling
/// tests running alongside read.
pub fn run_with_knob(name: &str, var: &str) {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["--exact", name, "--test-threads=1"])
        .env(var, "1")
        .output()
        .expect("spawn the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains(" 1 passed"),
        "{name} with {var}=1 failed in a child process:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
