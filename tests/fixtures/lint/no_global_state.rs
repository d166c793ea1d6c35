// Lint fixture: process-global mutable state in library code.
// Linted under the virtual path crates/gpu-sim/src/fixture.rs by
// tests/lint.rs.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);
pub(crate) static REGISTRY: Mutex<Vec<u32>> = Mutex::new(Vec::new());
static mut COUNTER: u32 = 0;
thread_local! {
    static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

// Immutable statics and `'static` lifetimes are fine.
static NAMES: &[&'static str] = &["a", "b"];

pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
}
