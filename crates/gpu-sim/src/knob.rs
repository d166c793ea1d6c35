//! Central registry of every `DYNBC_*` environment knob.
//!
//! Every environment variable the workspace reads is declared here —
//! name constant, default, one-line effect — and read through the two
//! shared parsers below. The point is a single choke point for three
//! contracts that used to be scattered conventions:
//!
//! * **No raw knob strings.** `dynbc-lint`'s `knob-registry` rule
//!   rejects any `env::var("DYNBC_…")` call whose name is a string
//!   literal outside this module, so a typo'd knob name cannot silently
//!   read an always-unset variable.
//! * **Docs stay honest.** The [`KNOBS`] table is checked against the
//!   README's environment-knob table by the same lint rule: a knob
//!   added here without documentation (or documented without being
//!   registered) fails `scripts/verify.sh` at the lint gate.
//! * **One truthy grammar.** All boolean knobs share
//!   [`flag_from_env`]'s parser (`1`/`true` on; unset, empty, `0`,
//!   `false` off, case-insensitive, whitespace-trimmed), instead of the
//!   four near-identical closures that used to live in `grid.rs`.
//!
//! Readers that need richer semantics (e.g. the backend selector's
//! panic-on-typo, or host-threads' `0 = all cores`) still take the
//! *name* from here and layer their parse on top.

/// Environment variable selecting how many host threads a launch may use.
/// Unset, `0`, or unparsable means "all available cores"; `1` forces the
/// legacy sequential path.
pub const HOST_THREADS_ENV: &str = "DYNBC_HOST_THREADS";

/// Environment variable enabling checked (racecheck) execution for every
/// launch of every `Gpu` created afterwards: any error-severity
/// diagnostic fails the launch with the full report. `1`/`true` (any
/// case) enables; unset, empty, `0`, or `false` disables.
pub const RACECHECK_ENV: &str = "DYNBC_RACECHECK";

/// Environment variable enabling profiled execution for every launch of
/// every `Gpu` created afterwards: each launch collects a
/// `LaunchProfile` into the device's accumulated `ProfileReport`.
/// `1`/`true` (any case) enables; unset, empty, `0`, or `false` disables.
pub const PROFILE_ENV: &str = "DYNBC_PROFILE";

/// Environment variable enabling update-lifecycle telemetry for every
/// engine created afterwards (read by `dynbc-bc`). `1`/`true` (any case)
/// enables; unset, empty, `0`, or `false` disables.
pub const TELEMETRY_ENV: &str = "DYNBC_TELEMETRY";

/// Environment variable selecting the execution backend
/// (`sim|native`, read at engine construction by `dynbc-bc`).
pub const BACKEND_ENV: &str = "DYNBC_BACKEND";

/// Multiplier on the suite's default vertex counts (bench harnesses).
pub const SCALE_ENV: &str = "DYNBC_SCALE";

/// Number of BC sources, the paper's `k` (bench harnesses; paper: 256).
pub const SOURCES_ENV: &str = "DYNBC_SOURCES";

/// Number of removed-then-reinserted edges (bench harnesses; paper: 100).
pub const INSERTIONS_ENV: &str = "DYNBC_INSERTIONS";

/// Master seed for the bench harnesses' graph/stream generators.
pub const SEED_ENV: &str = "DYNBC_SEED";

/// Capacity of a serve shard's bounded ingest queue (`dynbc-serve`):
/// submissions beyond it are rejected with backpressure.
pub const SERVE_QUEUE_CAP_ENV: &str = "DYNBC_SERVE_QUEUE_CAP";

/// Upper bound on the adaptive batch width a serve shard's writer drains
/// into `apply_batch` (`dynbc-serve`).
pub const SERVE_BATCH_MAX_ENV: &str = "DYNBC_SERVE_BATCH_MAX";

/// Environment variable enabling the memsim cache-hierarchy model
/// (per-block L1 + shared sectored L2 tag arrays) for every launch of
/// every `Gpu` created afterwards. Implies profiled execution — the
/// cache counters ride in each launch's `LaunchProfile`. `1`/`true`
/// (any case) enables; unset, empty, `0`, or `false` disables.
pub const MEMSIM_ENV: &str = "DYNBC_MEMSIM";

/// One registered environment knob: its variable name, the effective
/// default when unset, and a one-line description of its effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knob {
    /// The environment variable name (`DYNBC_…`).
    pub name: &'static str,
    /// Human-readable default shown in docs (`"all cores"`, `"0"`, …).
    pub default: &'static str,
    /// One-line effect, as documented in the README knob table.
    pub doc: &'static str,
}

/// Every knob the workspace reads, in documentation order. The README's
/// environment-knob table must list exactly these names (checked by
/// `dynbc-lint`'s `knob-registry` rule).
pub const KNOBS: &[Knob] = &[
    Knob {
        name: HOST_THREADS_ENV,
        default: "all cores",
        doc: "Host threads per simulated launch; results are bit-identical at any value",
    },
    Knob {
        name: BACKEND_ENV,
        default: "sim",
        doc: "Execution backend: sim (SIMT interpreter) or native",
    },
    Knob {
        name: RACECHECK_ENV,
        default: "0",
        doc: "Checked execution: races, atomic contracts, barrier divergence, OOB",
    },
    Knob {
        name: PROFILE_ENV,
        default: "0",
        doc: "Per-launch hardware-counter-style profiles into a ProfileReport",
    },
    Knob {
        name: TELEMETRY_ENV,
        default: "0",
        doc: "Update-lifecycle telemetry: metrics registry, spans, event log",
    },
    Knob {
        name: SCALE_ENV,
        default: "harness-specific",
        doc: "Multiplier on the suite's default vertex counts",
    },
    Knob {
        name: SOURCES_ENV,
        default: "harness-specific",
        doc: "Number of BC sources, the paper's k (paper: 256)",
    },
    Knob {
        name: INSERTIONS_ENV,
        default: "harness-specific",
        doc: "Removed-then-reinserted edges per stream (paper: 100)",
    },
    Knob {
        name: SEED_ENV,
        default: "20140519",
        doc: "Master seed for graph and update-stream generation",
    },
    Knob {
        name: SERVE_QUEUE_CAP_ENV,
        default: "1024",
        doc: "Bounded ingest-queue capacity of a serve shard (backpressure beyond it)",
    },
    Knob {
        name: SERVE_BATCH_MAX_ENV,
        default: "64",
        doc: "Upper bound on the adaptive batch width a serve shard drains per commit",
    },
    Knob {
        name: MEMSIM_ENV,
        default: "0",
        doc: "Cache-hierarchy model: L1/L2 hit rates and per-buffer miss attribution",
    },
];

/// Looks a knob up by variable name.
pub fn lookup(name: &str) -> Option<&'static Knob> {
    KNOBS.iter().find(|k| k.name == name)
}

/// The workspace's one truthy-flag grammar: `1`/`true` (any case, after
/// trimming) enables; unset, empty, `0`, or `false` disables. Any other
/// value also counts as enabled — `DYNBC_RACECHECK=yes` should not
/// silently run unchecked.
pub fn flag_from_env(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| {
        let v = v.trim();
        !v.is_empty() && v != "0" && !v.eq_ignore_ascii_case("false")
    })
}

/// Parses a knob with a fallback: unset uses `default`; a set-but-
/// unparsable value warns on stderr and uses `default` (a silently
/// ignored knob is the failure mode this registry exists to prevent).
pub fn parse_from_env<T: std::str::FromStr + Copy>(name: &str, default: T) -> T {
    match std::env::var(name) {
        Ok(v) => v.trim().parse().unwrap_or_else(|_| {
            eprintln!("warning: could not parse {name}={v:?}; using default");
            default
        }),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_unique_and_prefixed() {
        for (i, k) in KNOBS.iter().enumerate() {
            assert!(k.name.starts_with("DYNBC_"), "{} lacks prefix", k.name);
            assert!(!k.doc.is_empty() && !k.default.is_empty());
            assert!(
                KNOBS[..i].iter().all(|p| p.name != k.name),
                "{} registered twice",
                k.name
            );
        }
        assert_eq!(lookup(HOST_THREADS_ENV).unwrap().default, "all cores");
        assert!(lookup("DYNBC_NOT_A_KNOB").is_none());
    }

    #[test]
    fn flag_grammar() {
        // (Reads only a variable no test sets: env is process-global.)
        assert!(!flag_from_env("DYNBC_TEST_UNSET_FLAG"));
    }
}
