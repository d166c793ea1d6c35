//! The repository's benchmark: the dynamic-BC serve path and the SIMT
//! simulator, end to end and layer by layer.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-churn --seed 1 --seconds 60 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every instrument off;
//! `--trace 1` is a separate traced run that records spans at each layer
//! boundary, prints the per-layer metrics and writes the spans to
//! `perfbench/out/`. The last line of standard output is the JSON result.
//! NOTES.md explains the workloads and metrics.

mod common;
mod inputs;
mod loadgen;
mod paper;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use common::Opts;
use loadgen::now;
use report::Outcome;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload <serve-churn|paper-insert> --seed <n> --seconds <n> --trace <0|1>";

const WORKLOADS: [&str; 2] = ["serve-churn", "paper-insert"];

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u32>().map_err(bad)?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: f64::from(seconds.ok_or("missing --seconds")?.max(1)),
        traced: traced.ok_or("missing --trace")?,
    })
}

/// Drops every `DYNBC_*` variable so that no knob is inherited from the
/// environment; the workloads set backend, host threads, telemetry and
/// profiling in code. Runs before any thread starts.
fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DYNBC_") {
            std::env::remove_var(&key);
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// nproc, CPU model, git revision and rustc version of this run.
fn host_metadata(nproc: usize) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        (
            "git_rev",
            command_line("git", &["rev-parse", "--short=12", "HEAD"]),
        ),
        ("rustc", command_line("rustc", &["--version"])),
    ]
}

fn write_trace(args: &Args, tracer: &Tracer, meta: &[(&str, String)]) -> std::io::Result<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{}-seed{}.trace.json", args.workload, args.seed);
    std::fs::write(&path, tracer.chrome_json(meta))?;
    Ok(path)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        cores: nproc.min(2),
    };
    let mut meta = host_metadata(nproc);
    meta.extend([
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("traced", args.traced.to_string()),
        ("host_threads", common::HOST_THREADS.to_string()),
    ]);
    let header: Vec<String> = meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("perfbench {}", header.join(" "));

    let mut tracer = Tracer::new(args.traced, now());
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "serve-churn" => serve::run(&opts, &mut tracer, &mut out),
        "paper-insert" => paper::run(&opts, &mut tracer, &mut out),
        _ => unreachable!("parse_args admits only known workloads"),
    }
    out.set("peak_rss_mb", common::peak_rss_mb());
    if args.traced {
        for (name, s) in tracer.self_times() {
            out.note(format!("self time {name}: {:.6} s", s));
        }
        match write_trace(&args, &tracer, &meta) {
            Ok(path) => out.note(format!("{} spans written to {path}", tracer.spans.len())),
            Err(e) => out.note(format!("could not write the trace: {e}")),
        }
    }
    print!("{}", out.human(&args.workload));
    println!("{}", out.json_line(args.traced));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn the_seed_and_the_rest_come_from_the_command_line() {
        let a = parse_args(&argv(
            "--workload paper-insert --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "paper-insert".into(),
                seed: 42,
                seconds: 10.0,
                traced: true
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload serve-churn --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv(
            "--workload serve-churn --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }
}
