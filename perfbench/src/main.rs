//! The repository benchmark. Runs one workload for a fixed time and
//! prints, as its last stdout line, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline_msgs --seed 1 --seconds 10 --trace 0
//! ```

mod host;
mod kernels;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use host::{median, percentile};
use trace::{RoleAcc, Tracer};
use workloads::{Rep, Workload, NAMES, PINNED_SEEDS};

/// Environment variables that change what is measured.
const REFUSED_ENV: [&str; 3] = ["EMBERA_SIMD", "EMBERA_EXEC_WORKERS", "EMBERA_EXEC_FIBER"];

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 4] = [
    ("frames_per_s", "1/s"),
    ("msgs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
];

/// Per-layer metrics, as `BENCHMARK.json` lists them. A layer the
/// workload does not enter reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("mjpeg.huffman_ns_per_block", "ns/block"),
    ("mjpeg.idct_ns_per_block", "ns/block"),
    ("mjpeg.reorder_ns_per_block", "ns/block"),
    ("mjpeg.wire_ns_per_block", "ns/block"),
    ("ctx.sends", "count"),
    ("ctx.send_s", "s"),
    ("ctx.recvs", "count"),
    ("ctx.recv_wait_s", "s"),
    ("ctx.recv_wait_p50_us", "us"),
    ("ctx.recv_wait_p99_us", "us"),
    ("ctx.ns_per_call", "ns/call"),
    ("behavior.self_s", "s"),
    ("behavior.busy_share", "share"),
    ("core.build_s", "s"),
    ("platform.deploy_s", "s"),
    ("platform.teardown_s", "s"),
    ("core.pool.grown", "count"),
    ("core.pool.recycled", "count"),
    ("core.observer.polls", "count"),
    ("core.observer.busy_share", "share"),
    ("simkernel.events", "count"),
    ("simkernel.notifications", "count"),
    ("simkernel.max_queue_depth", "count"),
    ("simkernel.host_ns_per_event", "ns/event"),
    ("reconcile.gap_share", "share"),
    ("trace.overhead_share", "share"),
];

/// Repetitions a run makes at the least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                seed = Some(parsed.map_err(|e| format!("--seed {value}: {e}"))?);
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {value}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            NAMES.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; it changes what is measured, unset it"
        ));
    }
    let calibration_ms = host::calibration_ms();
    println!("# provenance {}", provenance(&args, calibration_ms));

    let workload = Workload::new(&args.workload, args.seed).expect("name checked in parse_args");
    let budget = Duration::from_secs_f64(args.seconds);
    let mut run = RunLog::default();
    let metrics = if args.trace {
        traced(&workload, budget, &mut run)
    } else {
        untraced(&workload, budget, &mut run)
    };
    check_outcomes(&workload, args.seed, &mut run);
    for f in &run.failures {
        println!("# check failed: {f}");
        eprintln!("perfbench: check failed: {f}");
    }
    // A run that fails any check counts all its operations as failed.
    let attempted = run.attempted.max(1);
    let failed = if run.failures.is_empty() {
        0
    } else {
        attempted
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = metrics.get(*name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        run.failures.is_empty(),
        attempted,
        body.join(", ")
    );
    Ok(())
}

/// Host and build facts recorded with every result.
fn provenance(args: &Args, calibration_ms: f64) -> String {
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"simd\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{git_rev}\", \
         \"calibration_ms\": {calibration_ms}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        mjpeg::active_level().name(),
        env!("PERFBENCH_RUSTC"),
    )
}

/// Every repetition of a run, decorated or not, plus failed checks.
#[derive(Default)]
struct RunLog {
    reps: Vec<Rep>,
    attempted: u64,
    failures: Vec<String>,
}

impl RunLog {
    /// Run one repetition and keep it. Returns its index.
    fn rep(&mut self, w: &Workload, tracer: Option<&std::sync::Arc<Tracer>>) -> Option<usize> {
        match w.run(tracer) {
            Ok(rep) => {
                self.attempted += rep.attempted;
                for f in &rep.failures {
                    if !self.failures.contains(f) {
                        self.failures.push(f.clone());
                    }
                }
                self.reps.push(rep);
                Some(self.reps.len() - 1)
            }
            Err(e) => {
                self.failures.push(e);
                None
            }
        }
    }
}

/// A repetition's headline throughput: frames/s, or messages/s on the
/// fan-in/fan-out workload (whose frames are rounds).
fn throughput(w: &Workload, r: &Rep) -> f64 {
    r.per_s(if w.is_fanio() { r.msgs } else { r.frames })
}

/// The end-to-end pass: a warm-up repetition, then repetitions until
/// the time budget is spent; medians over the timed repetitions.
fn untraced(w: &Workload, budget: Duration, run: &mut RunLog) -> BTreeMap<String, f64> {
    if run.rep(w, None).is_none() {
        return BTreeMap::new();
    }
    let start = Instant::now();
    let mut timed = Vec::new();
    while timed.len() < MIN_REPS || start.elapsed() < budget {
        match run.rep(w, None) {
            Some(i) => timed.push(i),
            None => break,
        }
    }
    let reps: Vec<&Rep> = timed.iter().map(|&i| &run.reps[i]).collect();
    let series = |f: fn(&Rep) -> f64| reps.iter().map(|r| f(r)).collect::<Vec<f64>>();
    let mut m = BTreeMap::new();
    let mut spread = vec![format!("\"timed\": {}", reps.len())];
    for (name, vals) in [
        ("frames_per_s", series(|r| r.per_s(r.frames))),
        ("msgs_per_s", series(|r| r.per_s(r.msgs))),
        ("cpu_s", series(|r| r.cpu_ns as f64 / 1e9)),
        (
            "setup_s",
            series(|r| (r.build_ns + r.deploy_ns) as f64 / 1e9),
        ),
    ] {
        let med = median(&vals);
        spread.push(format!("\"{name}\": {}", host::iqr(&vals) / med));
        m.insert(name.to_string(), med);
    }
    println!("# repetitions {{{}}}", spread.join(", "));
    let rss = host::peak_rss_mb();
    println!("# memory {{\"max_rss_mb\": {rss}, \"unit\": \"MiB\"}}");
    m
}

/// The per-layer pass: the forwarding self-test, the codec kernels,
/// then undecorated and decorated repetitions in alternation.
fn traced(w: &Workload, budget: Duration, run: &mut RunLog) -> BTreeMap<String, f64> {
    let start = Instant::now();
    if let Err(e) = trace::check_forwarding() {
        run.failures.push(e);
    }
    let mut m = BTreeMap::new();
    if let Some((frames, kind, batch)) = w.codec() {
        let k = kernels::time_kernels(frames, kind, batch, budget.mul_f64(0.15));
        m.insert("mjpeg.huffman_ns_per_block".to_string(), k.huffman);
        m.insert("mjpeg.idct_ns_per_block".to_string(), k.idct);
        m.insert("mjpeg.reorder_ns_per_block".to_string(), k.reorder);
        m.insert("mjpeg.wire_ns_per_block".to_string(), k.wire);
    }
    if run.rep(w, None).is_none() {
        return m;
    }
    let (mut plain, mut decorated) = (Vec::new(), Vec::new());
    while decorated.len() < MIN_REPS || start.elapsed() < budget {
        let (Some(p), Some(d)) = (run.rep(w, None), run.rep(w, Some(&Tracer::new()))) else {
            break;
        };
        plain.push(p);
        decorated.push(d);
    }
    let per_rep: Vec<BTreeMap<String, f64>> = decorated
        .iter()
        .map(|&i| layer_metrics(w.backend(), &run.reps[i]))
        .collect();
    let keys: std::collections::BTreeSet<&String> = per_rep.iter().flat_map(|r| r.keys()).collect();
    for key in keys {
        let vals: Vec<f64> = per_rep.iter().filter_map(|r| r.get(key).copied()).collect();
        m.insert(key.clone(), median(&vals));
    }
    let tput = |idx: &[usize]| {
        median(
            &idx.iter()
                .map(|&i| throughput(w, &run.reps[i]))
                .collect::<Vec<_>>(),
        )
    };
    m.insert(
        "trace.overhead_share".into(),
        tput(&plain) / tput(&decorated) - 1.0,
    );
    let line: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    println!("# layers {{{}}}", line.join(", "));
    m
}

/// Per-layer metrics of one decorated repetition: the declared
/// workload-level set plus the `<backend>.<role>.*` breakdown.
fn layer_metrics(be: &str, rep: &Rep) -> BTreeMap<String, f64> {
    let t = rep.traced.as_ref().expect("decorated repetition has spans");
    let mut m = BTreeMap::new();
    let mut app = RoleAcc::default();
    for (role, acc) in &t.roles {
        let p = format!("{be}.{role}");
        let mut samples = acc.recv_samples.clone();
        samples.sort_unstable();
        m.insert(format!("{p}.sends"), acc.sends as f64);
        m.insert(format!("{p}.send_s"), acc.send_ns as f64 / 1e9);
        m.insert(format!("{p}.recvs"), acc.recvs as f64);
        m.insert(format!("{p}.recv_wait_s"), acc.recv_ns as f64 / 1e9);
        m.insert(
            format!("{p}.recv_wait_p50_us"),
            percentile(&samples, 50.0) as f64 / 1e3,
        );
        m.insert(
            format!("{p}.recv_wait_p99_us"),
            percentile(&samples, 99.0) as f64 / 1e3,
        );
        m.insert(format!("{p}.self_s"), acc.self_ns() as f64 / 1e9);
        m.insert(
            format!("{p}.busy_share"),
            acc.self_ns() as f64 / acc.run_ns.max(1) as f64,
        );
        if role == "observer" {
            m.insert("core.observer.polls".into(), acc.sends as f64);
            m.insert("core.observer.self_s".into(), acc.self_ns() as f64 / 1e9);
            m.insert(
                "core.observer.busy_share".into(),
                acc.self_ns() as f64 / t.span_ns.max(1) as f64,
            );
        } else {
            app.add(acc);
        }
    }
    let mut samples = app.recv_samples.clone();
    samples.sort_unstable();
    m.insert("ctx.sends".into(), app.sends as f64);
    m.insert("ctx.send_s".into(), app.send_ns as f64 / 1e9);
    m.insert("ctx.recvs".into(), app.recvs as f64);
    m.insert("ctx.recv_wait_s".into(), app.recv_ns as f64 / 1e9);
    m.insert(
        "ctx.recv_wait_p50_us".into(),
        percentile(&samples, 50.0) as f64 / 1e3,
    );
    m.insert(
        "ctx.recv_wait_p99_us".into(),
        percentile(&samples, 99.0) as f64 / 1e3,
    );
    m.insert("ctx.ns_per_call".into(), app.call_ns_per_call());
    m.insert("behavior.self_s".into(), app.self_ns() as f64 / 1e9);
    m.insert(
        "behavior.busy_share".into(),
        app.self_ns() as f64 / app.run_ns.max(1) as f64,
    );
    m.insert("core.build_s".into(), rep.build_ns as f64 / 1e9);
    m.insert("platform.deploy_s".into(), rep.deploy_ns as f64 / 1e9);
    m.insert("platform.teardown_s".into(), t.teardown_ns as f64 / 1e9);
    m.insert(format!("{be}.deploy_s"), rep.deploy_ns as f64 / 1e9);
    m.insert(format!("{be}.teardown_s"), t.teardown_ns as f64 / 1e9);
    m.insert(
        "reconcile.gap_share".into(),
        t.span_ns.saturating_sub(app.max_run_ns) as f64 / t.span_ns.max(1) as f64,
    );
    if let Some(pool) = rep.pool {
        m.insert("core.pool.grown".into(), pool.grown as f64);
        m.insert("core.pool.recycled".into(), pool.recycled as f64);
    }
    if let Some(sim) = rep.outcome.sim {
        let events = sim.kernel.events_dispatched;
        m.insert("simkernel.events".into(), events as f64);
        m.insert(
            "simkernel.notifications".into(),
            sim.kernel.notifications_delivered as f64,
        );
        m.insert(
            "simkernel.max_queue_depth".into(),
            sim.kernel.max_queue_depth as f64,
        );
        // The simulation runs entirely inside `wait_with_stats`; what
        // the behaviors did not spend computing is dispatch plus the
        // process switches around each event.
        m.insert(
            "simkernel.host_ns_per_event".into(),
            rep.interval_ns.saturating_sub(app.self_ns()) as f64 / events.max(1) as f64,
        );
        m.insert(format!("{be}.ctx_ns_per_call"), app.call_ns_per_call());
    }
    m
}

/// Outcome checks across repetitions: every repetition, decorated or
/// not, must produce the same output and (on `mpsoc_sim`) the same
/// simulated statistics, which must also match any pinned value.
fn check_outcomes(w: &Workload, seed: u64, run: &mut RunLog) {
    let Some(first) = run.reps.first().map(|r| r.outcome.clone()) else {
        return;
    };
    for (i, rep) in run.reps.iter().enumerate() {
        if rep.outcome != first {
            run.failures.push(format!(
                "repetition {i} (decorated: {}) differs from repetition 0: {:?} vs {:?}",
                rep.traced.is_some(),
                rep.outcome,
                first
            ));
        }
    }
    if let (Some(sim), Workload::Mpsoc { .. }) = (first.sim, w) {
        println!(
            "# simulated {{\"sim_time_ns\": {}, \"events\": {}, \"notifications\": {}, \
             \"max_queue_depth\": {}, \"processes\": {}, \"fetch_reorder_idct_ratio\": {}}}",
            sim.sim_time_ns,
            sim.kernel.events_dispatched,
            sim.kernel.notifications_delivered,
            sim.kernel.max_queue_depth,
            sim.kernel.processes_spawned,
            sim.fetch_reorder_idct_ratio
        );
        if let Some(&(_, t, e, n, d)) = PINNED_SEEDS.iter().find(|p| p.0 == seed) {
            let got = (
                sim.sim_time_ns,
                sim.kernel.events_dispatched,
                sim.kernel.notifications_delivered,
                sim.kernel.max_queue_depth,
            );
            if got != (t, e, n, d) {
                run.failures.push(format!(
                    "mpsoc_sim seed {seed}: simulated (time, events, notifications, depth) \
                     {got:?} != pinned {:?}",
                    (t, e, n, d)
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` in `BENCHMARK.json`, in file order.
    fn declared_names() -> Vec<String> {
        let json = include_str!("../../BENCHMARK.json");
        json.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let ours: Vec<String> = NAMES
            .iter()
            .chain(END_TO_END.iter().map(|(n, _)| n))
            .chain(PER_LAYER.iter().map(|(n, _)| n))
            .map(|n| n.to_string())
            .collect();
        assert_eq!(declared_names(), ours);
    }
}
