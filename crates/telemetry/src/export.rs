//! Exporters: unified Chrome/Perfetto trace (host pipeline spans + device
//! kernel profiles on one timeline).

use std::fmt::Write as _;

pub(crate) use dynbc_gpusim::profile::{json_number, json_string};
use dynbc_gpusim::ProfileReport;

use crate::trace::Trace;

/// Render the host-pipeline trace and any number of device kernel profiles
/// as one Chrome trace-event JSON document.
///
/// Track layout (Perfetto shows one process group per pid):
///
/// * pid 0 "host pipeline" — lifecycle spans, all on tid 0.
///   On-clock spans are complete (`"X"`) events; off-clock phases are
///   instant (`"i"`) events with their wall cost in `args`.
/// * pid 1+d — one process per entry of `devices`, named by its label:
///   kernel launches on tid 0 (with their scanned/passed edge counts),
///   per-SM block spans on tid 1+sm, a cumulative "edge work" counter
///   track (futile vs useful edges after each launch) and, when memsim
///   recorded traffic, an "L1/L2 hit rate" counter track.
///
/// All timestamps are the simulated clock in microseconds, the clock the
/// device profiles record, so host stages and kernel spans line up.
pub fn unified_chrome_trace(trace: &Trace, devices: &[(String, &ProfileReport)]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };
    sep(&mut out);
    out.push_str(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \
         \"args\": {\"name\": \"host pipeline\"}}",
    );
    for (d, (label, _)) in devices.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \"args\": {{\"name\": {}}}}}",
            1 + d,
            json_string(label),
        );
    }
    for s in trace.spans() {
        sep(&mut out);
        let mut args = format!("\"wall_ms\": {}", json_number(s.wall_s * 1e3));
        for (k, v) in &s.args {
            let _ = write!(args, ", {}: {}", json_string(k), json_number(*v));
        }
        if s.dur_s > 0.0 {
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"pipeline\", \"ph\": \"X\", \"pid\": 0, \
                 \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{{args}}}}}",
                json_string(&s.name),
                json_number(s.start_s * 1e6),
                json_number(s.dur_s * 1e6),
            );
        } else {
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"pipeline\", \"ph\": \"i\", \"s\": \"t\", \
                 \"pid\": 0, \"tid\": 0, \"ts\": {}, \"args\": {{{args}}}}}",
                json_string(&s.name),
                json_number(s.start_s * 1e6),
            );
        }
    }
    for (d, (_, report)) in devices.iter().enumerate() {
        let pid = 1 + d;
        let (mut futile, mut useful) = (0u64, 0u64);
        for l in &report.launches {
            sep(&mut out);
            // Memsim hit rates ride along only when the launch carried
            // cache counters, so traces without DYNBC_MEMSIM are unchanged.
            let cache = if l.total.cache.is_empty() {
                String::new()
            } else {
                format!(
                    ", \"l1_hit_rate\": {}, \"l2_hit_rate\": {}",
                    json_number(l.total.cache.l1_hit_rate()),
                    json_number(l.total.cache.l2_hit_rate()),
                )
            };
            let _ = write!(
                out,
                "{{\"name\": {}, \"cat\": \"launch\", \"ph\": \"X\", \"pid\": {pid}, \
                 \"tid\": 0, \"ts\": {}, \"dur\": {}, \"args\": {{\"index\": {}, \
                 \"num_blocks\": {}, \"edges_scanned\": {}, \"edges_passed\": {}, \
                 \"occupancy\": {}{cache}}}}}",
                json_string(&l.kernel),
                json_number(l.start_s * 1e6),
                json_number(l.seconds * 1e6),
                l.index,
                l.num_blocks,
                l.total.edges_scanned,
                l.total.edges_passed,
                json_number(l.total.occupancy()),
            );
            useful += l.total.edges_passed;
            futile += l.total.futile_edges();
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"name\": \"edge work\", \"ph\": \"C\", \"pid\": {pid}, \"tid\": 0, \
                 \"ts\": {}, \"args\": {{\"futile\": {futile}, \"useful\": {useful}}}}}",
                json_number((l.start_s + l.seconds) * 1e6),
            );
            if !l.total.cache.is_empty() {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\": \"L1/L2 hit rate\", \"cat\": \"memsim\", \"ph\": \"C\", \
                     \"pid\": {pid}, \"tid\": 0, \"ts\": {}, \"args\": {{\"l1\": {}, \
                     \"l2\": {}}}}}",
                    json_number(l.start_s * 1e6),
                    json_number(l.total.cache.l1_hit_rate()),
                    json_number(l.total.cache.l2_hit_rate()),
                );
            }
            for b in &l.blocks {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\": {}, \"cat\": \"block\", \"ph\": \"X\", \"pid\": {pid}, \
                     \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{\"block\": {}}}}}",
                    json_string(&format!("{}#b{}", l.kernel, b.block)),
                    1 + b.sm,
                    json_number(b.start_s * 1e6),
                    json_number(b.dur_s * 1e6),
                    b.block,
                );
            }
        }
    }
    out.push_str("\n],\n\"displayTimeUnit\": \"ms\",\n");
    let _ = writeln!(
        out,
        "\"metadata\": {{\"clock\": \"simulated\", \"devices\": {}}}}}",
        devices.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;
    use dynbc_gpusim::{BlockSpan, CacheCounters, Counters, LaunchProfile};

    fn report(cache: CacheCounters) -> ProfileReport {
        let mut report = ProfileReport::default();
        report.launches.push(LaunchProfile {
            kernel: "k".to_string(),
            index: 0,
            num_blocks: 1,
            start_s: 0.0,
            seconds: 1e-6,
            stages: Vec::new(),
            total: Counters {
                cache,
                ..Counters::default()
            },
            blocks: Vec::new(),
            wall_s: 0.0,
        });
        report
    }

    #[test]
    fn memsim_counters_add_a_hit_rate_track_only_when_present() {
        let t = Trace::new();
        let plain = report(CacheCounters::default());
        let json = unified_chrome_trace(&t, &[("gpu0".to_string(), &plain)]);
        assert!(!json.contains("hit_rate"), "{json}");
        assert!(!json.contains("\"cat\": \"memsim\""), "{json}");

        let cached = report(CacheCounters {
            l1_hits: 3,
            l1_misses: 1,
            l2_hits: 1,
            l2_misses: 0,
            l2_sector_fills: 0,
            ..CacheCounters::default()
        });
        let json = unified_chrome_trace(&t, &[("gpu0".to_string(), &cached)]);
        assert!(json.contains("\"l1_hit_rate\": 0.75"), "{json}");
        assert!(json.contains("\"L1/L2 hit rate\""), "{json}");
        assert!(json.contains("\"ph\": \"C\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn device_tracks_carry_blocks_edge_args_and_a_cumulative_edge_counter() {
        let mut r = report(CacheCounters::default());
        r.launches[0].total.edges_scanned = 10;
        r.launches[0].total.edges_passed = 4;
        r.launches[0].blocks.push(BlockSpan {
            block: 0,
            sm: 1,
            start_s: 0.0,
            dur_s: 1e-6,
        });
        let mut second = r.launches[0].clone();
        second.index = 1;
        second.start_s = 1e-6;
        r.launches.push(second);
        let json = unified_chrome_trace(&Trace::new(), &[("gpu0".to_string(), &r)]);
        assert!(json.starts_with("{\"traceEvents\": ["), "{json}");
        assert!(
            json.contains("\"edges_scanned\": 10, \"edges_passed\": 4"),
            "{json}"
        );
        assert!(json.contains("\"cat\": \"block\""), "{json}");
        assert!(json.contains("\"name\": \"k#b0\""), "{json}");
        // Futile and useful edges accumulate over the device's launches.
        assert!(json.contains("\"futile\": 6, \"useful\": 4"), "{json}");
        assert!(json.contains("\"futile\": 12, \"useful\": 8"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn unified_trace_has_process_tracks_and_both_event_kinds() {
        let mut t = Trace::new();
        t.push(Span::new("update", 0, 0.0, 1.0).wall(0.5));
        t.push(Span::instant("validate", 1, 0.0, 0.001));
        let json = unified_chrome_trace(&t, &[]);
        assert!(json.contains("\"host pipeline\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"ph\": \"i\""), "{json}");
        assert!(json.contains("\"displayTimeUnit\""), "{json}");
        // Balanced braces: crude structural check.
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close, "{json}");
    }
}
