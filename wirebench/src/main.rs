//! `wirebench`: the wire-level benchmark for `clipcache-serve`.
//!
//! ```text
//! wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! wirebench --list
//! wirebench --compare <result.json> <result.json>
//! ```
//!
//! Every run builds the repository's `serve` binary, starts fresh `serve`
//! child processes, drives them over TCP from this one process, checks
//! the replies, and prints the end-to-end metrics (untraced) or the
//! per-layer metrics (traced) by name with unit and sample count. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. A failed correctness check exits 1; a run that cannot
//! complete exits 2 without that line. See README.md.

mod check;
mod child;
mod drive;
mod hist;
mod layers;
mod procfs;
mod report;
mod sched;
mod spans;
mod workload;

use drive::{Ctx, Pass};
use report::{metric, Metric, END_TO_END, PER_LAYER, REPORTED};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{Load, Workload};

/// Where runs keep data directories, span dumps and result files,
/// relative to the directory the benchmark runs from.
const WORK_DIR: &str = ".wirebench";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_u64(flag: &str, v: Option<String>) -> Result<u64, String> {
    let v = v.ok_or(format!("{flag} needs a value"))?;
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|e| format!("bad {flag} '{v}': {e}"))
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        traced: false,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => args.workload = it.next().ok_or("--workload needs a name")?,
            "--seed" => args.seed = parse_u64("--seed", it.next())?,
            "--seconds" => args.seconds = parse_u64("--seconds", it.next())?,
            "--trace" => {
                args.traced = match it.next().as_deref() {
                    Some("0") => false,
                    Some("1") => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required (see --list)".into());
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let e2e = |name, value, samples| metric(END_TO_END, name, value, samples);
    vec![
        e2e("throughput_rps", pass.throughput(), pass.replies),
        e2e(
            "hit_rate",
            pass.hits as f64 / pass.replies as f64,
            pass.replies,
        ),
        e2e(
            "byte_hit_rate",
            pass.hit_bytes as f64 / pass.req_bytes as f64,
            pass.replies,
        ),
        e2e(
            "setup_s",
            drive::median_setup(pass),
            pass.setup_s.len() as u64,
        ),
        e2e("server_rss_mb", pass.rss_kb as f64 / 1024.0, 1),
    ]
}

/// The end-to-end metrics that are reported but not gated.
fn reported(pass: &Pass) -> Vec<Metric> {
    let lat = &pass.latency.all;
    let (p99, _) = pass.latency.window_median(0.99);
    vec![
        metric(
            REPORTED,
            "latency_p50_us",
            lat.quantile(0.5) as f64 / 1_000.0,
            lat.count(),
        ),
        metric(
            REPORTED,
            "latency_p99_us",
            p99 as f64 / 1_000.0,
            pass.latency.all.count(),
        ),
        metric(
            REPORTED,
            "failed_ratio",
            pass.failed as f64 / pass.attempted.max(1) as f64,
            pass.attempted,
        ),
    ]
}

/// Per-layer metrics, every one derived from the traced run's spans.
fn per_layer(tr: &Tracer, w: &Workload) -> Vec<Metric> {
    let replies = tr.total("load.replies").max(1) as f64;
    let per_req = |name: &str| tr.total(name) as f64 / replies;
    let cpu_ns = (tr.total("server.utime_ns") + tr.total("server.stime_ns")) as f64;
    let (send, recv) = match w.load {
        Load::Open { .. } => ("client.write_lines", "client.read_line"),
        Load::Closed => ("client.send_gets", "client.recv_get"),
    };
    let count = |name: &str| tr.spans.iter().filter(|s| s.name == name).count() as u64;
    let layer = |name, value, samples| metric(PER_LAYER, name, value, samples);
    let misses = tr.total("cluster.misses");
    let core_misses = tr.total("core.access_into.miss");
    vec![
        layer(
            "protocol.decode_ns",
            tr.ns_per_op("protocol.decode"),
            tr.total("protocol.decode"),
        ),
        layer(
            "protocol.encode_ns",
            tr.ns_per_op("protocol.encode"),
            tr.total("protocol.encode"),
        ),
        layer(
            "protocol.wire_bytes_per_req",
            per_req("client.wire_bytes"),
            replies as u64,
        ),
        layer(
            "server.cpu_us_per_req",
            cpu_ns / 1_000.0 / replies,
            replies as u64,
        ),
        layer(
            "server.sys_share",
            if cpu_ns > 0.0 {
                tr.total("server.stime_ns") as f64 / cpu_ns
            } else {
                0.0
            },
            replies as u64,
        ),
        layer(
            "server.syscalls_per_req",
            per_req("server.syscalls"),
            replies as u64,
        ),
        layer(
            "server.ctx_switches_per_req",
            per_req("server.ctx_switches"),
            replies as u64,
        ),
        layer("client.send_ns", tr.ns_per_op(send), tr.total(send)),
        layer("client.recv_ns", tr.ns_per_op(recv), tr.total(recv)),
        layer(
            "service.get_ns",
            tr.ns_per_op("service.get"),
            tr.total("service.get"),
        ),
        layer(
            "core.access_ns",
            tr.ns_per_op("core.access_into"),
            tr.total("core.access_into"),
        ),
        layer(
            "core.miss_access_ns",
            tr.ns_per_op("core.access_into.miss"),
            core_misses,
        ),
        layer(
            "core.evictions_per_miss",
            tr.total("core.evictions") as f64 / core_misses.max(1) as f64,
            core_misses,
        ),
        layer(
            "persist.append_ns",
            tr.ns_per_op("persist.append"),
            tr.total("persist.append"),
        ),
        layer(
            "persist.checkpoint_us",
            tr.ns_per_op("persist.checkpoint") / 1_000.0,
            count("persist.checkpoint"),
        ),
        layer(
            "persist.bytes_per_req",
            per_req("server.write_bytes"),
            replies as u64,
        ),
        layer(
            "persist.recovery_ms",
            tr.ns_per_op("persist.recovery") / 1e6,
            count("persist.recovery"),
        ),
        layer(
            "cluster.peer_hit_ratio",
            tr.total("cluster.peer_hits") as f64 / misses.max(1) as f64,
            misses,
        ),
        layer(
            "cluster.peerget_rtt_us",
            tr.ns_per_op("cluster.peer_get") / 1_000.0,
            count("cluster.peer_get"),
        ),
        layer(
            "ring.owners_ns",
            tr.ns_per_op("ring.owners"),
            tr.total("ring.owners"),
        ),
        layer(
            "gen.late_us_p99",
            tr.duration_quantile("gen.late", 0.99) as f64 / 1_000.0,
            count("gen.late"),
        ),
        layer(
            "os.loopback_rtt_us",
            tr.ns_per_op("os.loopback_rtt") / 1_000.0,
            count("os.loopback_rtt"),
        ),
        layer(
            "os.fsync_us",
            tr.ns_per_op("os.fsync") / 1_000.0,
            count("os.fsync"),
        ),
    ]
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<30} {:>16.4} {:<6} (samples {})",
            m.name, m.value, m.unit, m.samples
        );
    }
}

/// Print a pass's end-to-end block plus its failure and check lines;
/// returns whether every check passed and the p99 is backed by enough
/// samples.
fn print_pass(label: &str, pass: &Pass) -> bool {
    print_metrics(&format!("end-to-end ({label})"), &end_to_end(pass));
    print_metrics("reported, not gated", &reported(pass));
    let (p99, windows) = pass.latency.window_median(0.99);
    let beyond = pass.latency.all.above(p99);
    let mut ok = true;
    if beyond < 10 {
        println!("  FAIL: only {beyond} latency samples lie beyond the p99 (need 10)");
        ok = false;
    } else {
        println!(
            "  latency_p99_us is the median of {windows} half-second windows' p99; \
             {beyond} samples lie beyond it; the whole run's p99 is {:.3} us",
            pass.latency.all.quantile(0.99) as f64 / 1_000.0
        );
    }
    let us: Vec<String> = pass
        .latency
        .window_quantiles(0.99)
        .iter()
        .map(|v| format!("{:.0}", *v as f64 / 1_000.0))
        .collect();
    println!("  window p99s (us): {}", us.join(" "));
    for check in &pass.checks {
        match check {
            Ok(()) => println!("  check passed"),
            Err(e) => {
                println!("  CHECK FAILED: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn change(a: f64, b: f64) -> String {
    format!("{:+.2}%", (b / a - 1.0) * 100.0)
}

fn run(args: &Args) -> Result<bool, String> {
    let w = workload::find(&args.workload)?;
    let serve = child::build_serve()?;
    let work = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(work.join("results")).map_err(|e| format!("{WORK_DIR}: {e}"))?;
    let host = procfs::host(&work);
    let digest = workload::digest();
    let mode = if args.traced { "traced" } else { "untraced" };
    println!(
        "wirebench schema {} | workload {} ({}) | digest {digest} | seed {} | {} s | {mode}",
        workload::SCHEMA,
        w.name,
        w.layer,
        args.seed,
        args.seconds
    );
    println!(
        "host: nproc={} cpu=\"{}\" kernel={} data_dir_fs={}",
        host.nproc, host.cpu_model, host.kernel, host.data_dir_fs
    );

    let repo = Arc::new(clipcache_media::paper::variable_sized_repository_of(
        w.clips,
    ));
    let policy: clipcache_core::PolicySpec = w.policy.parse()?;
    let trace = w.trace(args.seed, args.seconds);
    let sched = match w.load {
        Load::Open { rate } => sched::poisson(args.seed, rate, trace.len()),
        Load::Closed => Vec::new(),
    };
    let ctx = Ctx {
        w: &w,
        serve: &serve,
        work: &work,
        seed: args.seed,
        seconds: args.seconds,
        repo: Arc::clone(&repo),
        policy,
        trace: &trace,
        sched: &sched,
    };
    let epoch = Instant::now();

    let (untraced, _) = drive::pass(&ctx, &mut Tracer::new(false, epoch))?;
    let mut correct = print_pass("untraced", &untraced);
    let (attempted, failed, metrics) = if !args.traced {
        (untraced.attempted, untraced.failed, end_to_end(&untraced))
    } else {
        let mut tr = Tracer::new(true, epoch);
        let (traced, kept) = drive::pass(&ctx, &mut tr)?;
        correct &= print_pass("traced", &traced);
        let (a, b) = (untraced.throughput(), traced.throughput());
        let (pa, pb) = (reported(&untraced)[0].value, reported(&traced)[0].value);
        println!(
            "tracing overhead: throughput_rps {a:.1} -> {b:.1} ({}), \
             latency_p50_us {pa:.2} -> {pb:.2} ({})",
            change(a, b),
            change(pa, pb)
        );
        let seed = w.server_seed(args.seed);
        layers::codec(&w, &trace, &kept, &mut tr);
        let config = clipcache_serve::ServiceConfig::new(
            policy,
            w.shards,
            repo.cache_capacity_for_ratio(w.ratio),
            seed,
        );
        layers::service(&repo, config, &trace, &mut tr)?;
        let cache = layers::core(&repo, policy, &w, seed, &trace, &mut tr);
        let probe_dir = work.join(format!("persist-probe-{}", std::process::id()));
        layers::persist(&probe_dir, cache.as_ref(), policy, &trace, &mut tr)?;
        if w.members == 1 {
            layers::ring(seed, w.members, &trace, &mut tr);
        }
        layers::loopback(&mut tr)?;
        layers::fsync(&work, &mut tr)?;
        let spans_path = work.join(format!("spans-{}-seed{}.tsv", w.name, args.seed));
        tr.write(&spans_path)
            .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
        println!(
            "spans: {} recorded ({} dropped at the cap) -> {}",
            tr.spans.len(),
            tr.dropped,
            spans_path.display()
        );
        (traced.attempted, traced.failed, per_layer(&tr, &w))
    };
    if args.traced {
        print_metrics("per-layer (traced)", &metrics);
    }

    let run = report::Run {
        workload: w.name,
        digest: &digest,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        host: &host,
    };
    let path = work.join("results").join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.traced)
    ));
    // The result file also keeps the reported, ungated end-to-end metrics.
    let extra = if args.traced {
        Vec::new()
    } else {
        reported(&untraced)
    };
    let file_metrics: Vec<&Metric> = metrics.iter().chain(&extra).collect();
    std::fs::write(
        &path,
        report::result_file(&run, correct, attempted, failed, &file_metrics),
    )
    .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    Ok(correct)
}

fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    for line in report::compare(&read(a)?, &read(b)?)? {
        println!("{line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--list") => {
            for w in workload::all() {
                println!("{:<16} {}", w.name, w.why);
            }
            Ok(true)
        }
        Some("--compare") if argv.len() == 3 => {
            compare(Path::new(&argv[1]), Path::new(&argv[2])).map(|()| true)
        }
        _ => parse_args(argv).and_then(|args| run(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::from(2)
        }
    }
}
