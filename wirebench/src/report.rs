//! Metric tables, the result file every run writes, and the comparison
//! of two result files, which fails closed on a schema, workload-digest
//! or host mismatch.

use crate::procfs::Host;
use crate::workload::SCHEMA;
use clipcache_workload::json::{self, Json};

/// End-to-end metrics `(name, unit)` that BENCHMARK.json gates; the
/// result line carries exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "req/s"),
    ("hit_rate", "ratio"),
    ("byte_hit_rate", "ratio"),
    ("setup_s", "s"),
    ("server_rss_mb", "MiB"),
];

/// End-to-end metrics printed with every run and kept in its result
/// file, but not gated: the latencies move with the host's scheduler and
/// disk state by more than a usable bound (README.md has the numbers),
/// and `failed_ratio` is 0 on a healthy run.
pub const REPORTED: &[(&str, &str)] = &[
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("failed_ratio", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("protocol.decode_ns", "ns"),
    ("protocol.encode_ns", "ns"),
    ("protocol.wire_bytes_per_req", "bytes"),
    ("server.cpu_us_per_req", "us"),
    ("server.sys_share", "ratio"),
    ("server.syscalls_per_req", "count"),
    ("server.ctx_switches_per_req", "count"),
    ("client.send_ns", "ns"),
    ("client.recv_ns", "ns"),
    ("service.get_ns", "ns"),
    ("core.access_ns", "ns"),
    ("core.miss_access_ns", "ns"),
    ("core.evictions_per_miss", "count"),
    ("persist.append_ns", "ns"),
    ("persist.checkpoint_us", "us"),
    ("persist.bytes_per_req", "bytes"),
    ("persist.recovery_ms", "ms"),
    ("cluster.peer_hit_ratio", "ratio"),
    ("cluster.peerget_rtt_us", "us"),
    ("ring.owners_ns", "ns"),
    ("gen.late_us_p99", "us"),
    ("os.loopback_rtt_us", "us"),
    ("os.fsync_us", "us"),
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// Look up `name`'s unit in `table` and pair it with a value.
pub fn metric(
    table: &[(&'static str, &'static str)],
    name: &str,
    value: f64,
    samples: u64,
) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in its table"));
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite numbers print with all their digits; anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The last stdout line, for harnesses that run the benchmark: exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

pub struct Run<'a> {
    pub workload: &'a str,
    pub digest: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub host: &'a Host,
}

/// The result file: the result line's content plus schema, workload
/// digest, run parameters, host fingerprint and sample counts.
pub fn result_file(
    run: &Run,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[&Metric],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(m.name),
                num(m.value),
                json_str(m.unit),
                m.samples
            )
        })
        .collect();
    let h = run.host;
    format!(
        "{{\n  \"schema\": {SCHEMA},\n  \"workload\": {},\n  \"workload_digest\": {},\n  \
         \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
         \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"kernel\": {}, \"data_dir_fs\": {}}},\n  \
         \"correct\": {correct},\n  \"attempted\": {attempted},\n  \"failed\": {failed},\n  \
         \"metrics\": {{\n{}\n  }}\n}}\n",
        json_str(run.workload),
        json_str(run.digest),
        run.seed,
        run.seconds,
        u8::from(run.traced),
        h.nproc,
        json_str(&h.cpu_model),
        json_str(&h.kernel),
        json_str(&h.data_dir_fs),
        body.join(",\n")
    )
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Option<&'a Json> {
    path.iter().try_fold(doc, |v, key| v.get(key))
}

/// Compare two result files. Refuses, naming the field, unless schema,
/// workload digest, workload, trace mode and host fingerprint all
/// match; otherwise returns one line per shared metric with the ratio
/// `b / a`.
pub fn compare(a_text: &str, b_text: &str) -> Result<Vec<String>, String> {
    let a = json::parse(a_text).map_err(|e| format!("first result: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("second result: {e}"))?;
    for path in [
        &["schema"][..],
        &["workload_digest"],
        &["workload"],
        &["trace"],
        &["host", "nproc"],
        &["host", "cpu_model"],
        &["host", "kernel"],
        &["host", "data_dir_fs"],
    ] {
        let (x, y) = (field(&a, path), field(&b, path));
        let name = path.join(".");
        match (x, y) {
            (Some(x), Some(y)) if x == y => {}
            (None, _) | (_, None) => {
                return Err(format!("refusing to compare: field `{name}` is missing"))
            }
            (Some(x), Some(y)) => {
                return Err(format!(
                    "refusing to compare: field `{name}` differs ({x:?} vs {y:?}); \
                     re-baseline instead"
                ))
            }
        }
    }
    let Some(Json::Obj(metrics)) = a.get("metrics") else {
        return Err("refusing to compare: field `metrics` is missing".into());
    };
    let mut lines = Vec::new();
    for (name, m) in metrics {
        let Some(va) = m.get("value").and_then(Json::as_f64) else {
            continue;
        };
        let Some(vb) = field(&b, &["metrics", name, "value"]).and_then(Json::as_f64) else {
            continue;
        };
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let ratio = if va == 0.0 { f64::NAN } else { vb / va };
        lines.push(format!("{name}: {va} -> {vb} {unit} (x{ratio:.4})"));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host {
            nproc: 2,
            cpu_model: "Test \"CPU\"".into(),
            kernel: "6.1".into(),
            data_dir_fs: "ext4".into(),
        }
    }

    fn file(digest: &str, value: f64) -> String {
        let h = host();
        let run = Run {
            workload: "mem-pipelined",
            digest,
            seed: 1,
            seconds: 10,
            traced: false,
            host: &h,
        };
        let m = metric(END_TO_END, "throughput_rps", value, 100);
        result_file(&run, true, 100, 0, &[&m])
    }

    #[test]
    fn result_line_has_exactly_the_harness_keys() {
        let m = [metric(END_TO_END, "setup_s", 0.25, 7)];
        let line = result_line(true, 10, 0, &m);
        let doc = json::parse(&line).unwrap();
        let Json::Obj(pairs) = &doc else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            field(&doc, &["metrics", "setup_s", "unit"]).and_then(Json::as_str),
            Some("s")
        );
    }

    #[test]
    fn compare_reports_ratios_when_everything_matches() {
        let lines = compare(&file("wld1_aa", 100.0), &file("wld1_aa", 110.0)).unwrap();
        assert_eq!(lines.len(), 1);
        assert!(
            lines[0].starts_with("throughput_rps: 100 -> 110"),
            "{}",
            lines[0]
        );
    }

    #[test]
    fn compare_fails_closed_naming_the_field() {
        let err = compare(&file("wld1_aa", 1.0), &file("wld1_bb", 1.0)).unwrap_err();
        assert!(err.contains("`workload_digest`"), "{err}");
        let other_schema = file("wld1_aa", 1.0).replace("\"schema\": 1", "\"schema\": 2");
        let err = compare(&file("wld1_aa", 1.0), &other_schema).unwrap_err();
        assert!(err.contains("`schema`"), "{err}");
        let other_host = file("wld1_aa", 1.0).replace("\"nproc\": 2", "\"nproc\": 8");
        let err = compare(&file("wld1_aa", 1.0), &other_host).unwrap_err();
        assert!(err.contains("`host.nproc`"), "{err}");
        let no_schema = file("wld1_aa", 1.0).replace("\"schema\": 1,", "");
        assert!(compare(&no_schema, &file("wld1_aa", 1.0))
            .unwrap_err()
            .contains("missing"));
    }
}
