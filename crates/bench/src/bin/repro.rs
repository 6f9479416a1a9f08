//! `repro` — regenerate every table and figure of the EMBera paper.
//!
//! ```text
//! cargo run --release -p embera-bench --bin repro -- all          # everything, reduced scale
//! cargo run --release -p embera-bench --bin repro -- all --paper  # full 578/3000-frame streams
//! cargo run --release -p embera-bench --bin repro -- table1|table2|figure4|figure5|table3|figure8
//! cargo run --release -p embera-bench --bin repro -- cache|memseries|trace    # paper future work
//! cargo run --release -p embera-bench --bin repro -- scaling|dot              # scaling study, graphs
//! cargo run --release -p embera-bench --bin repro -- bench-sweep              # workers x batch x kernel -> BENCH_pr5.json
//! cargo run --release -p embera-bench --bin repro -- bench-sweep --backend exec  # component-count scaling -> BENCH_pr6.json
//! cargo run --release -p embera-bench --bin repro -- alloc-check --assert-zero [--backend smp|exec]  # steady-state allocation proof
//! cargo run --release -p embera-bench --bin repro -- obs-budget [--assert]    # observation overhead gate -> BENCH_pr7.json
//! ```
//!
//! Reduced scale keeps the default run under a minute; `--paper` uses
//! the paper's exact stream lengths (578 and 3000 images).

use embera::{ObserverConfig, OverloadPolicy, Platform, RunningApp};
use embera_bench::jsonv::{self, Json, Ty};
use embera_bench::loadgen::{overload_stream, run_overload_smp, OverloadOutcome};
use embera_bench::provenance::provenance_json;
use embera_bench::runner;
use embera_bench::{
    fanio, run_mjpeg_stream_observed, run_mjpeg_stream_on, run_mpsoc_mjpeg, run_smp_mjpeg,
    run_smp_mjpeg_with, stream, BenchBackend, ObsMode, FIGURE4_SIZES_KB, FIGURE8_SIZES_KB,
};
use mjpeg::{ArrivalProcess, AutoscaleConfig, OverloadConfig, Pacing};
use embera_os21::Os21Platform;
use sim_kernel::{Kernel, LatentChannel};
use embera_repro::stats::linear_fit;
use embera_repro::sweep::{mpsoc_send_sweep, smp_send_sweep, MpsocSender};
use embera_repro::tables::{format_table1, format_table2, format_table3, table3_ratio};
use embera_smp::SmpPlatform;
use mjpeg::{build_mpsoc_app, build_smp_app, DctKind, DispatchPolicy, MjpegAppConfig};

struct Scale {
    small: usize,
    large: usize,
    sweep_iters: u32,
}

// ---------------------------------------------------------------------
// Counting global allocator: the proof behind the zero-allocation
// messaging claim. Every heap acquisition (alloc, alloc_zeroed,
// realloc) bumps one counter; `alloc-check` then compares an F-frame
// and a 2F-frame pipeline run — fixed per-run overhead (threads,
// mailboxes, reports) cancels, so the difference divided by the extra
// frames is the steady-state allocation cost per frame. Pooled
// messaging must bring it to exactly zero.
// ---------------------------------------------------------------------

struct CountingAlloc;

static ALLOC_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(
        &self,
        ptr: *mut u8,
        layout: std::alloc::Layout,
        new_size: usize,
    ) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::alloc::System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_now() -> u64 {
    ALLOC_COUNT.load(std::sync::atomic::Ordering::SeqCst)
}

/// One `repro` subcommand. `repro all`, `repro help`, and the
/// unknown-command listing all iterate this same table, so a command
/// added here is automatically listed, documented, and covered by
/// `all` — the previous hand-maintained `all` arm had silently drifted
/// to run only half the commands.
struct Command {
    name: &'static str,
    help: &'static str,
    run: fn(&Scale, &[String]),
    /// Arguments appended for the cheap smoke form `repro all` runs.
    /// `None` excludes the command from `all` (replay-style utilities);
    /// `Some(&[])` means the full form is already cheap.
    smoke_args: Option<&'static [&'static str]>,
}

/// Smoke artifacts land under `target/smoke/` so `repro all` never
/// clobbers the committed full-scale `BENCH_*.json` in the repo root.
const SMOKE_DIR: &str = "target/smoke";

const COMMANDS: &[Command] = &[
    Command { name: "table1", help: "Table 1: SMP execution time and memory", run: |s, _| table1_and_2(s, true, false), smoke_args: Some(&[]) },
    Command { name: "table2", help: "Table 2: communication operation counts", run: |s, _| table1_and_2(s, false, true), smoke_args: Some(&[]) },
    Command { name: "figure4", help: "Figure 4: SMP send time vs message size", run: |s, _| figure4(s), smoke_args: Some(&[]) },
    Command { name: "figure5", help: "Figure 5: interfaces of component IDCT_1", run: |s, _| figure5(s), smoke_args: Some(&[]) },
    Command { name: "table3", help: "Table 3: simulated STi7200 time and memory", run: |s, _| table3(s), smoke_args: Some(&[]) },
    Command { name: "figure8", help: "Figure 8: STi7200 send time vs message size", run: |s, _| figure8(s), smoke_args: Some(&[]) },
    Command { name: "cache", help: "X1: cache-miss observation (future work)", run: |s, _| cache(s), smoke_args: Some(&[]) },
    Command { name: "memseries", help: "X2: memory evolution over execution", run: |s, _| memseries(s), smoke_args: Some(&[]) },
    Command { name: "trace", help: "X3: event-trace support demo", run: |_, _| trace_demo(), smoke_args: Some(&[]) },
    Command { name: "scaling", help: "S1: accelerator scaling study", run: |s, _| scaling(s), smoke_args: Some(&[]) },
    Command { name: "dot", help: "GraphViz graphs of the paper's deployments", run: |_, _| dot(), smoke_args: Some(&[]) },
    Command { name: "bench-json", help: "PR1 before/after throughput -> BENCH_pr1.json", run: bench_json, smoke_args: Some(&["--out", "target/smoke/BENCH_pr1.json"]) },
    Command { name: "bench-sweep", help: "PR5/PR6 scaling sweeps -> BENCH_pr5/pr6.json (--backend exec, --jobs N)", run: bench_sweep, smoke_args: Some(&["--frames", "8", "--out", "target/smoke/BENCH_pr5.json"]) },
    Command { name: "alloc-check", help: "steady-state allocation proof (--assert-zero)", run: alloc_check, smoke_args: Some(&["--frames", "8"]) },
    Command { name: "obs-budget", help: "PR7 observation overhead gate -> BENCH_pr7.json", run: obs_budget, smoke_args: Some(&["--frames", "8", "--reps", "2", "--fanio-n", "0", "--out", "target/smoke/BENCH_pr7.json"]) },
    Command { name: "overload", help: "PR8 overload robustness curves -> BENCH_pr8.json", run: overload, smoke_args: Some(&["--frames", "32", "--out", "target/smoke/BENCH_pr8.json"]) },
    Command { name: "shard-bench", help: "PR10 kernel PHOLD rate + parallel-runner scaling -> BENCH_pr10.json", run: shard_bench, smoke_args: Some(&["--procs", "8", "--hops", "40", "--cells", "4", "--cell-frames", "24", "--out", "target/smoke/BENCH_pr10.json"]) },
    Command { name: "bench-validate", help: "schema-check every BENCH_*.json (--dir path)", run: |_, a| bench_validate(a), smoke_args: Some(&[]) },
    Command { name: "fuzz", help: "bounded deterministic fuzz of the byte-level parsers", run: |_, a| fuzz(a), smoke_args: Some(&["--iters", "200", "--replay-out", "target/smoke/fuzz_replay.bin"]) },
];

fn print_command_list(out: &mut dyn std::io::Write) {
    let _ = writeln!(out, "usage: repro <command> [--paper] [command options]\n");
    for c in COMMANDS {
        let _ = writeln!(out, "  {:<16} {}", c.name, c.help);
    }
    let _ = writeln!(out, "  {:<16} every command above in its cheap smoke form", "all");
    let _ = writeln!(out, "  {:<16} this listing", "help");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let paper = args.iter().any(|a| a == "--paper");
    let scale = if paper {
        Scale {
            small: 578,
            large: 3000,
            sweep_iters: 200,
        }
    } else {
        Scale {
            small: 58,
            large: 300,
            sweep_iters: 50,
        }
    };
    let cmd = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    if cmd == "help" || args.iter().any(|a| a == "--list") {
        print_command_list(&mut std::io::stdout());
        return;
    }
    if cmd == "all" {
        std::fs::create_dir_all(SMOKE_DIR).expect("create smoke dir");
        for c in COMMANDS {
            let Some(smoke) = c.smoke_args else { continue };
            println!("--- repro {} (smoke) ---", c.name);
            // User args first: an explicit `--frames` etc. overrides the
            // smoke default (`arg_value` takes the first occurrence).
            let mut combined = args.clone();
            combined.extend(smoke.iter().map(|s| s.to_string()));
            (c.run)(&scale, &combined);
        }
        return;
    }
    match COMMANDS.iter().find(|c| c.name == cmd) {
        Some(c) => (c.run)(&scale, &args),
        None => {
            eprintln!("unknown experiment '{cmd}'\n");
            print_command_list(&mut std::io::stderr());
            std::process::exit(2);
        }
    }
}

fn table1_and_2(scale: &Scale, table1: bool, table2: bool) {
    let small = run_smp_mjpeg(scale.small, 0x578);
    let large = run_smp_mjpeg(scale.large, 0x3000);
    if table1 {
        println!(
            "=== Table 1 — SMP execution time and memory ({} / {} frames) ===",
            scale.small, scale.large
        );
        println!("{}", format_table1(&small, &large));
        println!(
            "paper: Fetch 4084/20088 us 8392 kB; IDCTx 4084/20218 us 10850 kB; Reorder 4086/21538 us 13308 kB"
        );
        println!();
    }
    if table2 {
        println!(
            "=== Table 2 — communication operations ({} / {} frames) ===",
            scale.small, scale.large
        );
        println!("{}", format_table2(&small, &large));
        println!(
            "paper (578/3000): Fetch 10386/53982 sends; IDCTx 3462/17994 each way; Reorder 10386/53982 recvs"
        );
        println!(
            "structure check: sends(Fetch) = 18 x (N-1) = {} / {}",
            18 * (scale.small - 1),
            18 * (scale.large - 1)
        );
        println!();
    }
}

fn figure4(scale: &Scale) {
    println!("=== Figure 4 — SMP send execution time vs message size ===");
    let sizes: Vec<u64> = FIGURE4_SIZES_KB.iter().map(|k| k * 1024).collect();
    let points = smp_send_sweep(&sizes, scale.sweep_iters * 4);
    println!("size (kB)   mean send (us)");
    for p in &points {
        println!("{:>8}   {:>13.2}", p.size_bytes / 1024, p.mean_send_ns / 1e3);
    }
    let fit = linear_fit(
        &points
            .iter()
            .map(|p| (p.size_bytes as f64 / 1024.0, p.mean_send_ns / 1e3))
            .collect::<Vec<_>>(),
    );
    println!(
        "linear fit: {:.2} us + {:.3} us/kB, r2 = {:.4}  (paper: linear, ~2.6 us/kB up to 125 kB)",
        fit.a, fit.b, fit.r2
    );
    println!();
}

fn figure5(scale: &Scale) {
    println!("=== Figure 5 — interfaces of component IDCT_1 ===");
    let report = run_smp_mjpeg(scale.small.min(20), 1);
    print!(
        "{}",
        report
            .component("IDCT_1")
            .expect("IDCT_1")
            .structure
            .format_figure5()
    );
    println!();
}

fn table3(scale: &Scale) {
    println!(
        "=== Table 3 — simulated STi7200 execution time and memory ({} frames) ===",
        scale.small
    );
    let report = run_mpsoc_mjpeg(scale.small, 0x578);
    println!("{}", format_table3(&report));
    println!(
        "Fetch-Reorder/IDCT task-time ratio: {:.1}x  (paper: 1173/95 = 12.3x)",
        table3_ratio(&report)
    );
    println!("paper memory: Fetch-Reorder 110 kB (60 + 2x25); IDCTx 85 kB (60 + 25)");
    println!();
}

fn figure8(scale: &Scale) {
    println!("=== Figure 8 — STi7200 send execution time vs message size ===");
    let sizes: Vec<u64> = FIGURE8_SIZES_KB.iter().map(|k| k * 1024).collect();
    let st40 = mpsoc_send_sweep(&sizes, scale.sweep_iters, MpsocSender::St40);
    let st231 = mpsoc_send_sweep(&sizes, scale.sweep_iters, MpsocSender::St231);
    println!("size (kB)  Fetch-Reorder/ST40 (ms)  IDCT/ST231 (ms)");
    for (a, b) in st40.iter().zip(st231.iter()) {
        println!(
            "{:>8}  {:>23.3}  {:>15.3}",
            a.size_bytes / 1024,
            a.mean_send_ns / 1e6,
            b.mean_send_ns / 1e6
        );
    }
    let slope = |pts: &[embera_repro::sweep::SweepPoint], i: usize, j: usize| {
        (pts[j].mean_send_ns - pts[i].mean_send_ns)
            / ((pts[j].size_bytes - pts[i].size_bytes) as f64)
    };
    println!(
        "ST40 slope below knee {:.1} ns/B, above knee {:.1} ns/B (knee at 50 kB; the paper reports the same shape)",
        slope(&st40, 1, 3),
        slope(&st40, 4, 5)
    );
    println!("paper at 200 kB: Fetch-Reorder ~42 ms, IDCT ~28 ms");
    println!();
}

fn cache(scale: &Scale) {
    println!("=== X1 (paper section 6 future work) — cache-miss observation ===");
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..Default::default()
    };
    let (app, _probe) = build_mpsoc_app(stream(scale.small, 0x578), &cfg);
    let platform = Os21Platform::three_cpu();
    let machine = platform.machine().clone();
    let mut platform = platform;
    platform
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");
    println!(
        "per-CPU L1D statistics after the MJPEG run ({} frames):",
        scale.small
    );
    for cpu in 0..machine.config().num_cpus() {
        let st = machine.dcache_stats(cpu);
        println!(
            "  {:<8} {:>10} hits {:>8} misses  ({:.2}% miss)",
            machine.config().cpus[cpu].name,
            st.hits,
            st.misses,
            st.miss_ratio() * 100.0
        );
    }
    let bus = machine.bus_stats();
    println!(
        "  bus: {} transactions, busy {:.2} ms, queueing {:.2} ms",
        bus.transactions,
        bus.busy_ns as f64 / 1e6,
        bus.wait_ns as f64 / 1e6
    );
    println!();
}

fn memseries(scale: &Scale) {
    println!("=== X2 (paper section 6 future work) — memory evolution over execution ===");
    let (mut app, _probe) = build_smp_app(
        stream(scale.small.max(200), 0xCAFE),
        &MjpegAppConfig::default(),
    );
    let log = app.with_observer(ObserverConfig::default().interval_ns(3_000_000));
    SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");
    println!("t (ms)   component        static mem (kB)  queued (B)  sends");
    for r in log.records().iter().take(24) {
        println!(
            "{:>6.1}   {:<16} {:>15} {:>11} {:>6}",
            r.at_ns as f64 / 1e6,
            r.report.component,
            r.report.os.memory_bytes / 1000,
            r.report.os.queued_bytes,
            r.report.app.total_sends
        );
    }
    println!("({} samples total)", log.len());
    println!();
}

fn dot() {
    println!("=== component graphs (GraphViz dot; pipe into `dot -Tsvg`) ===\n");
    let (mut smp, _) = build_smp_app(stream(2, 1), &MjpegAppConfig::default());
    let _ = smp.with_observer(ObserverConfig::default());
    println!("// paper Figure 1/3: SMP deployment with observer");
    println!("{}", smp.build().expect("valid").to_dot());
    let cfg = MjpegAppConfig {
        idct_count: 2,
        ..Default::default()
    };
    let (mpsoc, _) = build_mpsoc_app(stream(2, 1), &cfg);
    println!("// paper Figure 7: STi7200 deployment");
    println!("{}", mpsoc.build().expect("valid").to_dot());
}

fn scaling(scale: &Scale) {
    println!("=== S1 — accelerator scaling on the simulated MPSoC ===");
    println!(
        "(paper section 1 motivates parts with 'dozens and even hundreds of computing cores';"
    );
    println!(" this sweep shows where the pipeline and the shared bus stop scaling)\n");
    let frames = scale.small.min(40);
    for (label, profile) in [
        ("paper workload (Fetch-Reorder-bound)", mjpeg::WorkProfile::default()),
        (
            "IDCT-bound workload (200x DSP per block)",
            mjpeg::WorkProfile {
                idct_ops_per_block: 4_000_000,
                ..Default::default()
            },
        ),
    ] {
        println!("{label}:");
        println!("  IDCTs  virtual time (s)  speedup");
        let mut base = None;
        for n in [1usize, 2, 4, 8] {
            let cfg = MjpegAppConfig {
                idct_count: n,
                profile,
                ..Default::default()
            };
            let (app, _probe) = build_mpsoc_app(embera_bench::stream(frames, 0x578), &cfg);
            let mut platform = Os21Platform::with_machine(
                mpsoc_sim::Machine::with_accelerators(n),
                embera_os21::Os21Config::default(),
            );
            let report = platform
                .deploy(app.build().expect("valid app"))
                .expect("deploy")
                .wait()
                .expect("run");
            let t = report.wall_time_ns as f64 / 1e9;
            let b = *base.get_or_insert(t);
            println!("  {n:>5}  {t:>16.3}  {:>6.2}x", b / t);
        }
        println!();
    }
    println!(
        "The paper workload does not scale: the Fetch-Reorder component's serial work\n\
         dominates (the Table 3 bottleneck), so extra accelerators idle — Amdahl's law\n\
         observed through the component model. The IDCT-bound variant scales until the\n\
         ST40's per-frame fetch/reorder share becomes the new critical path."
    );
}

fn kernel_name(kind: DctKind) -> &'static str {
    match kind {
        DctKind::ReferenceFloat => "reference_float",
        DctKind::FastAan => "fast_aan",
        DctKind::FastSimd => "fast_simd",
    }
}

fn dispatch_name(policy: DispatchPolicy) -> &'static str {
    match policy {
        DispatchPolicy::RoundRobin => "round_robin",
        DispatchPolicy::LeastLoaded => "least_loaded",
    }
}

/// `--key value` lookup in the raw argument list.
fn arg_value<'a>(args: &'a [String], key: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn bad_backend(s: &str) -> ! {
    eprintln!("unknown --backend '{s}' (available: smp exec)");
    std::process::exit(2)
}

/// One measured pipeline configuration for `bench-json` / `bench-sweep`.
struct BenchRun {
    label: String,
    blocks_per_msg: usize,
    kernel: &'static str,
    workers: usize,
    dispatch: &'static str,
    pooled: bool,
    wall_s: f64,
    frames_per_s: f64,
    blocks_per_s: f64,
    mean_send_us: f64,
    sends: u64,
}

fn bench_run_from(
    frames: usize,
    cfg: &MjpegAppConfig,
    label: String,
    wall_ns: u64,
    report: &embera::AppReport,
) -> BenchRun {
    let fetch = report.component("Fetch").expect("Fetch");
    let forwarded = (frames - 1) as f64;
    let blocks = forwarded * 18.0;
    let wall_s = wall_ns as f64 / 1e9;
    BenchRun {
        label,
        blocks_per_msg: cfg.blocks_per_msg,
        kernel: kernel_name(cfg.kernel),
        workers: cfg.idct_count,
        dispatch: dispatch_name(cfg.dispatch),
        pooled: cfg.payload_pool,
        wall_s,
        frames_per_s: forwarded / wall_s,
        blocks_per_s: blocks / wall_s,
        mean_send_us: fetch.middleware.send.mean_ns() as f64 / 1e3,
        sends: fetch.app.total_sends,
    }
}

/// Measure with the observer attached (the PR 1 `bench-json` protocol).
fn measure_pipeline(frames: usize, cfg: &MjpegAppConfig, label: &str) -> BenchRun {
    // Best of three runs: the pipeline is short enough that scheduler
    // noise (not warm-up) dominates run-to-run variance.
    let mut best: Option<(u64, embera::AppReport)> = None;
    for run in 0..3 {
        let (report, done) = run_smp_mjpeg_with(frames, 0x578 + run, cfg);
        assert_eq!(done, frames as u64 - 1, "pipeline dropped frames");
        if best.as_ref().map(|(t, _)| report.wall_time_ns < *t).unwrap_or(true) {
            best = Some((report.wall_time_ns, report));
        }
    }
    let (wall_ns, report) = best.unwrap();
    bench_run_from(frames, cfg, label.to_string(), wall_ns, &report)
}

/// Measure observer-free on a pre-synthesized stream (the `bench-sweep`
/// protocol: stream synthesis and observation stay out of the timed
/// region, so the number is the pipeline's own throughput).
fn measure_stream(frames: usize, cfg: &MjpegAppConfig, label: String) -> BenchRun {
    measure_stream_on(BenchBackend::Smp, 0, frames, cfg, label)
}

/// Backend-generic `measure_stream`: identical protocol, selectable
/// execution backend. `pool_workers` sizes the executor worker pool
/// (`0` = auto) and is ignored by the thread-per-component backend.
fn measure_stream_on(
    backend: BenchBackend,
    pool_workers: usize,
    frames: usize,
    cfg: &MjpegAppConfig,
    label: String,
) -> BenchRun {
    // Synthesize the workload once and clone it per repetition: every
    // rep decodes identical bytes, so best-of-N isolates run-to-run
    // scheduling noise instead of workload variation.
    let base = stream(frames, 0x578);
    let mut best: Option<(u64, embera::AppReport)> = None;
    for _ in 0..5 {
        let (report, done) = run_mjpeg_stream_on(backend, pool_workers, base.clone(), cfg, None);
        assert_eq!(done, frames as u64 - 1, "pipeline dropped frames");
        if best.as_ref().map(|(t, _)| report.wall_time_ns < *t).unwrap_or(true) {
            best = Some((report.wall_time_ns, report));
        }
    }
    let (wall_ns, report) = best.unwrap();
    bench_run_from(frames, cfg, label, wall_ns, &report)
}

/// `measure_stream_on` with an [`ObsMode`]-selected observer attached:
/// identical best-of-5 protocol, the only variable is observation.
fn measure_stream_observed(
    backend: BenchBackend,
    pool_workers: usize,
    frames: usize,
    cfg: &MjpegAppConfig,
    mode: ObsMode,
    interval_ns: u64,
    label: String,
) -> BenchRun {
    let base = stream(frames, 0x578);
    let mut best: Option<(u64, embera::AppReport)> = None;
    for _ in 0..5 {
        let (report, done) = run_mjpeg_stream_observed(
            backend,
            pool_workers,
            base.clone(),
            cfg,
            mode,
            interval_ns,
        );
        assert_eq!(done, frames as u64 - 1, "pipeline dropped frames");
        if best.as_ref().map(|(t, _)| report.wall_time_ns < *t).unwrap_or(true) {
            best = Some((report.wall_time_ns, report));
        }
    }
    let (wall_ns, report) = best.unwrap();
    bench_run_from(frames, cfg, label, wall_ns, &report)
}

fn bench_run_json(r: &BenchRun) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"label\": \"{}\",\n",
            "    \"blocks_per_msg\": {},\n",
            "    \"kernel\": \"{}\",\n",
            "    \"wall_s\": {:.6},\n",
            "    \"frames_per_s\": {:.2},\n",
            "    \"blocks_per_s\": {:.1},\n",
            "    \"fetch_mean_send_us\": {:.3},\n",
            "    \"fetch_sends\": {}\n",
            "  }}"
        ),
        r.label, r.blocks_per_msg, r.kernel, r.wall_s, r.frames_per_s, r.blocks_per_s,
        r.mean_send_us, r.sends
    )
}

/// The richer per-run record used by `bench-sweep` (adds worker count,
/// dispatch policy, and pooling to the PR 1 schema).
fn sweep_run_json(r: &BenchRun) -> String {
    format!(
        concat!(
            "{{\n",
            "      \"label\": \"{}\",\n",
            "      \"workers\": {},\n",
            "      \"blocks_per_msg\": {},\n",
            "      \"kernel\": \"{}\",\n",
            "      \"dispatch\": \"{}\",\n",
            "      \"pooled\": {},\n",
            "      \"wall_s\": {:.6},\n",
            "      \"frames_per_s\": {:.2},\n",
            "      \"blocks_per_s\": {:.1},\n",
            "      \"fetch_mean_send_us\": {:.3},\n",
            "      \"fetch_sends\": {}\n",
            "    }}"
        ),
        r.label, r.workers, r.blocks_per_msg, r.kernel, r.dispatch, r.pooled, r.wall_s,
        r.frames_per_s, r.blocks_per_s, r.mean_send_us, r.sends
    )
}

/// The `optimized.blocks_per_s` field of a previously written
/// `BENCH_pr1.json`, if one exists next to the working directory.
fn pr1_optimized_blocks_per_s() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_pr1.json").ok()?;
    // Everything from the top-level "optimized" key onward (`split`
    // would stop at the next occurrence — the label string inside it).
    let optimized = &text[text.find("\"optimized\"")?..];
    let value = optimized.split("\"blocks_per_s\":").nth(1)?;
    value
        .trim()
        .split([',', '\n', ' '])
        .next()?
        .trim()
        .parse()
        .ok()
}

/// Marginal heap allocations per extra frame, measured differentially:
/// run the pipeline at `frames` and `2 * frames` frames and subtract
/// the allocation counts. Fixed per-run overhead (thread spawn,
/// mailboxes, report assembly) appears in both runs and cancels; what
/// remains is the steady-state per-frame cost. Streams are synthesized
/// and the pool prewarmed *outside* the counted windows, and a warm-up
/// run first settles lazy statics (Huffman LUTs, SIMD dispatch).
/// Returns the total marginal count, the per-frame rate, and the pool
/// stats of the long run (pooled mode only).
fn marginal_allocs(
    backend: BenchBackend,
    pool_workers: usize,
    frames: usize,
    cfg: &MjpegAppConfig,
    pooled: bool,
) -> (i64, f64, Option<embera::PoolStats>) {
    let counted = |n: usize| -> (u64, Option<embera::PoolStats>) {
        let s = stream(n, 0x578);
        let pool = pooled.then(|| {
            let p = mjpeg::pipeline_pool(cfg);
            p.prewarm(256);
            p
        });
        let before = allocs_now();
        let (_report, done) = run_mjpeg_stream_on(backend, pool_workers, s, cfg, pool.clone());
        let after = allocs_now();
        assert_eq!(done, n as u64 - 1, "pipeline dropped frames");
        (after - before, pool.map(|p| p.stats()))
    };
    counted(frames.clamp(2, 8));
    // Min of two attempts per length: scheduler interleaving cannot
    // remove allocations, so the minimum is the cleanest sample.
    let (short, _) = (0..2).map(|_| counted(frames)).min_by_key(|r| r.0).unwrap();
    let (long, stats) = (0..2)
        .map(|_| counted(2 * frames))
        .min_by_key(|r| r.0)
        .unwrap();
    let marginal = long as i64 - short as i64;
    (marginal, marginal as f64 / frames as f64, stats)
}

/// `alloc-check` — prove the pooled pipeline decodes in steady state
/// with **zero** heap allocations, via the counting global allocator.
/// `--assert-zero` exits nonzero on failure (the CI smoke gate);
/// `--frames N` overrides the base stream length; `--backend smp|exec`
/// selects the execution backend (`--workers N` sizes the executor
/// pool, `0` = auto).
fn alloc_check(scale: &Scale, args: &[String]) {
    let assert_zero = args.iter().any(|a| a == "--assert-zero");
    let backend = arg_value(args, "--backend")
        .map(|s| BenchBackend::parse(s).unwrap_or_else(|| bad_backend(s)))
        .unwrap_or(BenchBackend::Smp);
    let pool_workers = arg_value(args, "--workers")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0usize);
    let frames = arg_value(args, "--frames")
        .and_then(|s| s.parse().ok())
        .unwrap_or(scale.small)
        .max(4);
    let cfg = MjpegAppConfig {
        blocks_per_msg: 72,
        kernel: DctKind::FastSimd,
        ..Default::default()
    };
    println!(
        "=== alloc-check — marginal heap allocations on {}, {frames}- vs {}-frame runs ===",
        backend.name(),
        2 * frames
    );
    if let Some(pool) = backend.worker_pool(pool_workers) {
        println!("executor worker pool: {pool}");
    }
    let (plain, plain_pf, _) = marginal_allocs(backend, pool_workers, frames, &cfg, false);
    let (pooled, pooled_pf, stats) = marginal_allocs(backend, pool_workers, frames, &cfg, true);
    let stats = stats.expect("pooled run returns pool stats");
    println!("unpooled: {plain:+} marginal allocations ({plain_pf:+.2} per extra frame)");
    println!("pooled:   {pooled:+} marginal allocations ({pooled_pf:+.2} per extra frame)");
    println!(
        "pool: grown {} recycled {} dropped {} free {}",
        stats.grown, stats.recycled, stats.dropped, stats.free
    );
    let zero = pooled <= 0 && stats.grown == 0;
    if zero {
        println!("steady state is allocation-free in the pooled configuration");
    } else {
        println!("FAIL: pooled steady state still allocates");
    }
    println!();
    if assert_zero && !zero {
        std::process::exit(1);
    }
}

/// `bench-sweep` — the PR 5 scaling matrix: IDCT worker count x batch
/// size x kernel (plus least-loaded dispatch cells), measured
/// observer-free on pre-synthesized streams, written to
/// `BENCH_pr5.json` (or `--out <path>`) with full provenance: git
/// revision, detected CPU features, host core count, dispatch policy,
/// and the steady-state allocation proof.
fn bench_sweep(scale: &Scale, args: &[String]) {
    let backend = arg_value(args, "--backend")
        .map(|s| BenchBackend::parse(s).unwrap_or_else(|| bad_backend(s)))
        .unwrap_or(BenchBackend::Smp);
    if backend == BenchBackend::Exec {
        bench_sweep_exec(scale, args);
        return;
    }
    let out_path = arg_value(args, "--out").unwrap_or("BENCH_pr5.json");
    let frames = arg_value(args, "--frames")
        .and_then(|s| s.parse().ok())
        .unwrap_or(scale.small)
        .max(4);
    let jobs = runner::resolve_jobs(args, runner::default_jobs());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "=== bench-sweep — workers x batch x kernel, {frames}-frame stream, {cores} core(s), {jobs} job(s) ==="
    );
    // The cell list is built up front and fanned across the job pool;
    // results come back in cell order, so the output (and the JSON) is
    // identical for any `--jobs` modulo the wall-clock readings.
    let mut cells: Vec<(String, MjpegAppConfig)> = Vec::new();
    // Paper-faithful reference cell (one block per message, float IDCT,
    // no pool) so the sweep records its own "before" point.
    cells.push(("reference".into(), MjpegAppConfig::default()));
    for workers in [1usize, 2, 3, 4, 6] {
        for batch in [1usize, 18, 72, 288] {
            for kernel in [DctKind::FastAan, DctKind::FastSimd] {
                let cfg = MjpegAppConfig {
                    idct_count: workers,
                    blocks_per_msg: batch,
                    kernel,
                    payload_pool: true,
                    ..Default::default()
                };
                cells.push((format!("w{workers}_b{batch}_{}", kernel_name(kernel)), cfg));
            }
        }
    }
    // Least-loaded dispatch at the fastest batch/kernel point.
    for workers in [2usize, 3, 6] {
        let cfg = MjpegAppConfig {
            idct_count: workers,
            blocks_per_msg: 72,
            kernel: DctKind::FastSimd,
            dispatch: DispatchPolicy::LeastLoaded,
            payload_pool: true,
            ..Default::default()
        };
        cells.push((format!("w{workers}_b72_fast_simd_ll"), cfg));
    }
    let mut runs = runner::run_cells(jobs, cells.len(), |i| {
        let (label, cfg) = &cells[i];
        measure_stream(frames, cfg, label.clone())
    });
    // Observation axis (opt-in): the fastest cell re-measured under
    // every observer arrangement, so the sweep records what observation
    // costs at the throughput-optimal configuration.
    if args.iter().any(|a| a == "--obs") {
        let cfg = MjpegAppConfig {
            idct_count: 3,
            blocks_per_msg: 72,
            kernel: DctKind::FastSimd,
            payload_pool: true,
            ..Default::default()
        };
        for mode in ObsMode::ALL {
            runs.push(measure_stream_observed(
                BenchBackend::Smp,
                0,
                frames,
                &cfg,
                mode,
                20_000_000,
                format!("w3_b72_fast_simd_obs_{}", mode.name()),
            ));
        }
    }
    for r in &runs {
        println!(
            "{:<22} workers={} batch={:<3} kernel={:<15} dispatch={:<12} {:>10.0} blocks/s  ({:.4} s)",
            r.label, r.workers, r.blocks_per_msg, r.kernel, r.dispatch, r.blocks_per_s, r.wall_s
        );
    }
    let best = runs
        .iter()
        .max_by(|a, b| a.blocks_per_s.total_cmp(&b.blocks_per_s))
        .expect("nonempty sweep");
    println!("best: {} at {:.0} blocks/s", best.label, best.blocks_per_s);

    // Allocation proof at a representative pooled cell.
    let alloc_cfg = MjpegAppConfig {
        blocks_per_msg: 72,
        kernel: DctKind::FastSimd,
        payload_pool: false, // the harness owns the pool below
        ..Default::default()
    };
    let (marginal, per_frame, stats) =
        marginal_allocs(BenchBackend::Smp, 0, frames, &alloc_cfg, true);
    let stats = stats.expect("pooled run returns pool stats");
    println!(
        "steady-state marginal allocations: {marginal:+} ({per_frame:+.2}/frame), pool grown {}",
        stats.grown
    );

    let pr1 = pr1_optimized_blocks_per_s();
    if let Some(pr1) = pr1 {
        println!(
            "vs BENCH_pr1.json optimized ({:.0} blocks/s): {:.2}x",
            pr1,
            best.blocks_per_s / pr1
        );
    }
    let runs_json = runs.iter().map(sweep_run_json).collect::<Vec<_>>().join(",\n    ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"smp_mjpeg_scaling_sweep\",\n",
            "  \"workload\": \"table1\",\n",
            "  \"provenance\": {},\n",
            "  \"frames\": {},\n",
            "  \"observer_attached\": false,\n",
            "  \"steady_state_marginal_allocs\": {},\n",
            "  \"steady_state_allocs_per_frame\": {:.4},\n",
            "  \"pool\": {{ \"grown\": {}, \"recycled\": {}, \"dropped\": {} }},\n",
            "  \"runs\": [\n    {}\n  ],\n",
            "  \"best\": \"{}\",\n",
            "  \"best_blocks_per_s\": {:.1},\n",
            "  \"pr1_optimized_blocks_per_s\": {},\n",
            "  \"speedup_vs_pr1_optimized\": {}\n",
            "}}\n"
        ),
        provenance_json(Some(BenchBackend::Smp), 0, jobs),
        frames,
        marginal,
        per_frame,
        stats.grown,
        stats.recycled,
        stats.dropped,
        runs_json,
        best.label,
        best.blocks_per_s,
        pr1.map_or("null".into(), |v| format!("{v:.1}")),
        pr1.map_or("null".into(), |v| format!("{:.3}", best.blocks_per_s / v)),
    );
    std::fs::write(out_path, json).expect("write sweep json");
    println!("wrote {out_path}");
    println!();
}

fn fanio_run_json(r: &fanio::FanioRun) -> String {
    format!(
        concat!(
            "{{\n",
            "      \"components\": {},\n",
            "      \"workers\": {},\n",
            "      \"messages\": {},\n",
            "      \"wall_s\": {:.6},\n",
            "      \"msgs_per_s\": {:.1}\n",
            "    }}"
        ),
        r.components,
        r.workers,
        r.messages,
        r.wall_ns as f64 / 1e9,
        r.msgs_per_s,
    )
}

/// `bench-sweep --backend exec` — the PR 6 component-count scaling
/// sweep on the M:N executor, written to `BENCH_pr6.json` (or
/// `--out <path>`). Two experiments:
///
/// 1. **Table-1 parity** — the standard 3-IDCT-worker MJPEG pipeline
///    on the executor vs thread-per-component, same stream. The
///    executor must stay within ~10% of SMP blocks/s at this small
///    component count (its payoff is scale, not small-N speed).
/// 2. **Fan-in/fan-out scaling** — 100 / 1 000 / 10 000 relay
///    components between one source and one fan-in sink, at a fixed
///    per-cell message total so cells compare scheduler overhead per
///    message, not workload size. Thread-per-component cannot run the
///    10 002-component cell (10k stacks + 10k kernel threads); the
///    executor runs it on a fixed worker pool.
///
/// `--workers N` sizes the executor pool (default 3, the paper's
/// pipeline parallelism), `--fanio-total M` overrides the per-cell
/// message budget (CI smoke uses a small one).
fn bench_sweep_exec(scale: &Scale, args: &[String]) {
    let out_path = arg_value(args, "--out").unwrap_or("BENCH_pr6.json");
    let frames = arg_value(args, "--frames")
        .and_then(|s| s.parse().ok())
        .unwrap_or(scale.small)
        .max(4);
    let pool_workers: usize = arg_value(args, "--workers")
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
        .max(1);
    // Per-cell message budget: equal across component counts, so the
    // msgs/s column isolates scheduler cost per message as N grows.
    let fanio_total: usize = arg_value(args, "--fanio-total")
        .and_then(|s| s.parse().ok())
        .unwrap_or(scale.sweep_iters as usize * 3200);
    // Default 1: the 10k-component cells are memory- and
    // scheduler-heavy, so co-scheduling them is opt-in.
    let jobs = runner::resolve_jobs(args, 1);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "=== bench-sweep (exec) — component-count scaling, {pool_workers}-worker pool, {cores} core(s), {jobs} job(s) ==="
    );

    // Experiment 1: Table-1 pipeline, executor vs thread-per-component.
    let table1_cfg = MjpegAppConfig {
        idct_count: 3,
        blocks_per_msg: 72,
        kernel: DctKind::FastSimd,
        payload_pool: true,
        ..Default::default()
    };
    let smp = measure_stream_on(BenchBackend::Smp, 0, frames, &table1_cfg, "table1_smp".into());
    let exec = measure_stream_on(
        BenchBackend::Exec,
        pool_workers,
        frames,
        &table1_cfg,
        "table1_exec".into(),
    );
    let parity = exec.blocks_per_s / smp.blocks_per_s;
    for r in [&smp, &exec] {
        println!(
            "{:<12} {:>10.0} blocks/s  ({:.4} s)",
            r.label, r.blocks_per_s, r.wall_s
        );
    }
    println!(
        "exec/smp parity at the {frames}-frame Table-1 workload: {parity:.3}x{}",
        if parity < 0.9 { "  (below the 0.9 budget!)" } else { "" }
    );

    // Experiment 2: fan-in/fan-out component-count scaling, fanned
    // across the job pool (results by cell index).
    let worker_cells: Vec<usize> = if pool_workers == 1 {
        vec![1]
    } else {
        vec![1, pool_workers]
    };
    let mut fanio_cells = Vec::new();
    for n in [100usize, 1_000, 10_000] {
        let m = (fanio_total / n).max(2);
        for &workers in &worker_cells {
            fanio_cells.push((n, m, workers));
        }
    }
    let fanio_runs = runner::run_cells(jobs, fanio_cells.len(), |i| {
        let (n, m, workers) = fanio_cells[i];
        fanio::run_fanio_exec(n, m, 256, workers)
    });
    for ((n, _m, workers), run) in fanio_cells.iter().zip(&fanio_runs) {
        println!(
            "fanio n={n:<6} workers={workers} messages={:>8} {:>12.0} msgs/s  ({:.4} s)",
            run.messages,
            run.msgs_per_s,
            run.wall_ns as f64 / 1e9
        );
    }
    let max_components = fanio_runs.iter().map(|r| r.components).max().unwrap_or(0);

    // Steady-state allocation proof on the executor hot path.
    let alloc_cfg = MjpegAppConfig {
        blocks_per_msg: 72,
        kernel: DctKind::FastSimd,
        payload_pool: false, // the harness owns the pool below
        ..Default::default()
    };
    let (marginal, per_frame, stats) =
        marginal_allocs(BenchBackend::Exec, pool_workers, frames, &alloc_cfg, true);
    let stats = stats.expect("pooled run returns pool stats");
    println!(
        "steady-state marginal allocations (exec): {marginal:+} ({per_frame:+.2}/frame), pool grown {}",
        stats.grown
    );

    let fanio_json = fanio_runs
        .iter()
        .map(fanio_run_json)
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"exec_component_scaling_sweep\",\n",
            "  \"workload\": \"table1+fanio\",\n",
            "  \"provenance\": {},\n",
            "  \"frames\": {},\n",
            "  \"fanio_message_budget\": {},\n",
            "  \"observer_attached\": false,\n",
            "  \"steady_state_marginal_allocs\": {},\n",
            "  \"steady_state_allocs_per_frame\": {:.4},\n",
            "  \"pool\": {{ \"grown\": {}, \"recycled\": {}, \"dropped\": {} }},\n",
            "  \"table1_compare\": {{\n",
            "    \"smp\": {},\n",
            "    \"exec\": {},\n",
            "    \"exec_over_smp\": {:.3}\n",
            "  }},\n",
            "  \"max_components\": {},\n",
            "  \"fanio_runs\": [\n    {}\n  ]\n",
            "}}\n"
        ),
        provenance_json(Some(BenchBackend::Exec), pool_workers, jobs),
        frames,
        fanio_total,
        marginal,
        per_frame,
        stats.grown,
        stats.recycled,
        stats.dropped,
        bench_run_json(&smp),
        bench_run_json(&exec),
        parity,
        max_components,
        fanio_json,
    );
    std::fs::write(out_path, json).expect("write exec sweep json");
    println!("wrote {out_path}");
    println!();
}

/// `bench-json` — machine-readable before/after throughput of the SMP
/// MJPEG pipeline (the Table 1 workload). "Before" is the paper-faithful
/// schedule (one message per block, reference float IDCT); "after" adds
/// the fast fixed-point kernels and batched messaging. Writes
/// `BENCH_pr1.json` (or `--out <path>`).
fn bench_json(scale: &Scale, args: &[String]) {
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("BENCH_pr1.json");
    let frames = scale.small;
    println!("=== bench-json — SMP pipeline throughput, {frames}-frame stream ===");
    let baseline = measure_pipeline(frames, &MjpegAppConfig::default(), "baseline");
    // Batch 72 = 12 frames per lane message: on the SMP pipeline batches
    // span frame boundaries, so each thread wake-up amortizes over many
    // frames (the sweep's sweet spot on a single-core host; larger
    // batches trade nothing back until the stream-end remainder grows).
    let optimized = measure_pipeline(
        frames,
        &MjpegAppConfig {
            blocks_per_msg: 72,
            kernel: DctKind::FastAan,
            ..MjpegAppConfig::default()
        },
        "optimized",
    );
    let speedup = baseline.wall_s / optimized.wall_s;
    for r in [&baseline, &optimized] {
        println!(
            "{:<10} batch={} kernel={:<16} {:>8.1} frames/s  {:>10.0} blocks/s  send {:>7.3} us  ({:.3} s)",
            r.label, r.blocks_per_msg, r.kernel, r.frames_per_s, r.blocks_per_s,
            r.mean_send_us, r.wall_s
        );
    }
    println!("end-to-end speedup: {speedup:.2}x");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"smp_mjpeg_pipeline\",\n",
            "  \"workload\": \"table1\",\n",
            "  \"provenance\": {},\n",
            "  \"frames\": {},\n",
            "  \"blocks_per_frame\": 18,\n",
            "  \"baseline\": {},\n",
            "  \"optimized\": {},\n",
            "  \"speedup\": {:.3}\n",
            "}}\n"
        ),
        provenance_json(Some(BenchBackend::Smp), 0, 1),
        frames,
        bench_run_json(&baseline),
        bench_run_json(&optimized),
        speedup
    );
    std::fs::write(out_path, json).expect("write bench json");
    println!("wrote {out_path}");
}

fn trace_demo() {
    println!("=== X3 (paper section 6 future work) — event trace support ===");
    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::{AppBuilder, ComponentSpec};
    use embera_trace::instrument::TracedBehavior;
    use embera_trace::{analysis::TimelineStats, TraceCollector};

    let collector = TraceCollector::default();
    let mut app = AppBuilder::new("traced");
    app.add(
        ComponentSpec::new(
            "src",
            TracedBehavior::new(
                behavior_fn(|ctx| {
                    for i in 0..5_000u32 {
                        ctx.send("out", Bytes::from(vec![i as u8; 256]))?;
                    }
                    Ok(())
                }),
                collector.register("src"),
            ),
        )
        .with_required("out"),
    );
    app.add(
        ComponentSpec::new(
            "dst",
            TracedBehavior::new(
                behavior_fn(|ctx| {
                    for _ in 0..5_000 {
                        ctx.recv("in")?;
                    }
                    Ok(())
                }),
                collector.register("dst"),
            ),
        )
        .with_provided("in"),
    );
    app.connect(("src", "out"), ("dst", "in"));
    SmpPlatform::new()
        .deploy(app.build().expect("valid app"))
        .expect("deploy")
        .wait()
        .expect("run");
    let trace = collector.drain_sorted();
    println!("captured {} events", trace.len());
    println!(
        "{}",
        TimelineStats::from_events(&trace).format_table(&collector.names())
    );
}

/// One measured cell of the observation-overhead budget: best-of-N wall
/// time per [`ObsMode`], interleaved so drift hits every mode equally.
struct ObsCell {
    name: &'static str,
    modes: Vec<ObsMode>,
    /// Best wall time per mode, ns (same order as `modes`).
    best_ns: Vec<u64>,
}

impl ObsCell {
    fn ratio(&self, mode: ObsMode) -> f64 {
        let off = self.best_ns[0] as f64;
        let i = self
            .modes
            .iter()
            .position(|&m| m == mode)
            .expect("mode measured");
        self.best_ns[i] as f64 / off
    }

    fn print(&self) {
        for (i, mode) in self.modes.iter().enumerate() {
            let wall_s = self.best_ns[i] as f64 / 1e9;
            println!(
                "{:<10} obs={:<14} {:>9.4} s   x{:.4} vs unobserved",
                self.name,
                mode.name(),
                wall_s,
                self.ratio(*mode)
            );
        }
    }

    fn json(&self) -> String {
        let runs = self
            .modes
            .iter()
            .enumerate()
            .map(|(i, mode)| {
                format!(
                    concat!(
                        "{{ \"obs\": \"{}\", \"wall_s\": {:.6}, ",
                        "\"ratio_vs_unobserved\": {:.4} }}"
                    ),
                    mode.name(),
                    self.best_ns[i] as f64 / 1e9,
                    self.ratio(*mode)
                )
            })
            .collect::<Vec<_>>()
            .join(",\n      ");
        format!(
            concat!(
                "{{\n",
                "    \"cell\": \"{}\",\n",
                "    \"runs\": [\n      {}\n    ],\n",
                "    \"hier_adaptive_overhead\": {:.4}\n",
                "  }}"
            ),
            self.name,
            runs,
            self.ratio(ObsMode::HierAdaptive) - 1.0
        )
    }
}

/// `obs-budget` — the CI-enforced observation overhead gate. Measures
/// observed-vs-unobserved wall time on two cells:
///
/// * the Table-1 SMP MJPEG pipeline (`--frames`, paper cell at 578), and
/// * the 10k-component executor fan-in/fan-out topology,
///
/// each under every applicable [`ObsMode`], interleaved best-of-N, and
/// writes `BENCH_pr7.json`. With `--assert`, exits nonzero if the
/// hierarchical+adaptive overhead exceeds `--max-overhead` (default
/// 0.05) on either cell.
fn obs_budget(scale: &Scale, args: &[String]) {
    let out_path = arg_value(args, "--out").unwrap_or("BENCH_pr7.json");
    let assert_budget = args.iter().any(|a| a == "--assert");
    let max_overhead: f64 = arg_value(args, "--max-overhead")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let frames = arg_value(args, "--frames")
        .and_then(|s| s.parse().ok())
        .unwrap_or(scale.small)
        .max(4);
    let reps: usize = arg_value(args, "--reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(20)
        .max(1);
    // The Table-1 runs are ~35 ms each, so reps are nearly free there;
    // a fanio run is seconds, so its rep count is capped separately.
    let fanio_reps: usize = arg_value(args, "--fanio-reps")
        .and_then(|s| s.parse().ok())
        .unwrap_or(reps.min(5))
        .max(1);
    // `--fanio-n 0` skips the fanio cell entirely: CI asserts the
    // Table-1 cell (fast, low-variance); the 10k-component cell is
    // measured at full scale when regenerating the committed JSON.
    let fanio_n: usize = arg_value(args, "--fanio-n")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let fanio_m: usize = arg_value(args, "--fanio-m")
        .and_then(|s| s.parse().ok())
        .unwrap_or(100)
        .max(2);
    // 5 ms, not the Table-1 default 20 ms: observers notice that the
    // app finished only at their next tick, so the poll interval
    // quantizes observer shutdown. At 20 ms that tail is over half the
    // ~30 ms 578-frame run and the cell measures phase alignment, not
    // observation work; 5 ms polls 4x more often (a stricter budget)
    // while keeping the tail small.
    let interval_ns: u64 = arg_value(args, "--interval-ns")
        .and_then(|s| s.parse().ok())
        .unwrap_or(5_000_000);
    // The fanio cell gets its own (longer) polling interval: a full
    // sweep of 10k components costs ~2·n message-equivalents, so pacing
    // rounds at the Table-1 cadence would measure the observer, not its
    // overhead on the application.
    let fanio_interval_ns: u64 = arg_value(args, "--fanio-interval-ns")
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000_000);
    println!(
        "=== obs-budget — observation overhead gate ({frames}-frame table1 cell, \
         {fanio_n}x{fanio_m} fanio, interval {} ms, best of {reps}) ===",
        interval_ns / 1_000_000
    );

    // Cell 1: the paper's Table-1 pipeline on SMP, all four modes.
    // Default 1 job: overhead ratios compare wall times, so co-scheduled
    // reps are opt-in (best-of-N absorbs most of the added noise).
    let jobs = runner::resolve_jobs(args, 1);
    let cfg = MjpegAppConfig::default();
    let base = stream(frames, 0x578);
    let modes = ObsMode::ALL.to_vec();
    // rep-major cell order keeps the modes interleaved (drift hits every
    // mode equally); results come back in cell order for any `--jobs`.
    let walls = runner::run_cells(jobs, reps * modes.len(), |cell| {
        let mode = modes[cell % modes.len()];
        let (report, done) = run_mjpeg_stream_observed(
            BenchBackend::Smp,
            0,
            base.clone(),
            &cfg,
            mode,
            interval_ns,
        );
        assert_eq!(done, frames as u64 - 1, "pipeline dropped frames");
        report.wall_time_ns
    });
    let mut best_ns = vec![u64::MAX; modes.len()];
    for (cell, wall) in walls.iter().enumerate() {
        let i = cell % modes.len();
        println!(
            "  table1 rep: obs={:<14} {:.4} s",
            modes[i].name(),
            *wall as f64 / 1e9
        );
        best_ns[i] = best_ns[i].min(*wall);
    }
    let table1 = ObsCell {
        name: "table1",
        modes,
        best_ns,
    };
    table1.print();

    // Cell 2: the 10k-component fan-in/fan-out scheduler stress on the
    // executor. Flat is excluded: one observer polling 10k components
    // every round is the design the hierarchy replaces, and at this
    // scale it multiplies the runtime rather than perturbing it.
    let fanio_cell = (fanio_n > 0).then(|| {
        let fanio_modes = vec![ObsMode::Off, ObsMode::Hier, ObsMode::HierAdaptive];
        let mut fanio_best = vec![u64::MAX; fanio_modes.len()];
        // Untimed warmup: the first 10k-fiber deployment pays one-time
        // page-fault and mapping costs that would otherwise land on
        // whichever mode happens to run first.
        let _ = fanio::run_fanio_exec_observed(fanio_n, 2, 256, 0, ObsMode::Off, 0);
        for _ in 0..fanio_reps {
            for (i, mode) in fanio_modes.iter().enumerate() {
                let run = fanio::run_fanio_exec_observed(
                    fanio_n,
                    fanio_m,
                    256,
                    0,
                    *mode,
                    fanio_interval_ns,
                );
                println!(
                    "  fanio rep: obs={:<14} {:.4} s",
                    mode.name(),
                    run.wall_ns as f64 / 1e9
                );
                fanio_best[i] = fanio_best[i].min(run.wall_ns);
            }
        }
        let cell = ObsCell {
            name: "fanio_10k",
            modes: fanio_modes,
            best_ns: fanio_best,
        };
        cell.print();
        cell
    });

    let mut cells = vec![&table1];
    if let Some(cell) = fanio_cell.as_ref() {
        cells.push(cell);
    }
    let worst = cells
        .iter()
        .map(|c| c.ratio(ObsMode::HierAdaptive) - 1.0)
        .fold(f64::MIN, f64::max);
    println!(
        "hier+adaptive worst-case overhead: {:.2}% (budget {:.2}%)",
        worst * 100.0,
        max_overhead * 100.0
    );

    let cells_json = cells.iter().map(|c| c.json()).collect::<Vec<_>>().join(",\n  ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"observation_overhead_budget\",\n",
            "  \"provenance\": {},\n",
            "  \"frames\": {},\n",
            "  \"fanio\": {{ \"n\": {}, \"m\": {}, \"payload_bytes\": 256, ",
            "\"interval_ms\": {} }},\n",
            "  \"obs_interval_ms\": {},\n",
            "  \"obs_request\": \"health\",\n",
            "  \"reps\": {},\n",
            "  \"max_overhead\": {:.4},\n",
            "  \"worst_hier_adaptive_overhead\": {:.4},\n",
            "  \"within_budget\": {},\n",
            "  \"cells\": [\n  {}\n  ]\n",
            "}}\n"
        ),
        // The budget cells mix the smp pipeline and the exec fanio
        // topology, so the backend slot stays null here.
        provenance_json(None, 0, jobs),
        frames,
        fanio_n,
        fanio_m,
        fanio_interval_ns / 1_000_000,
        interval_ns / 1_000_000,
        reps,
        max_overhead,
        worst,
        worst <= max_overhead,
        cells_json,
    );
    std::fs::write(out_path, json).expect("write obs-budget json");
    println!("wrote {out_path}");

    if assert_budget && worst > max_overhead {
        eprintln!(
            "obs-budget: hierarchical+adaptive observation overhead {:.2}% exceeds the \
             {:.2}% budget",
            worst * 100.0,
            max_overhead * 100.0
        );
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// PR 8: overload robustness — open-loop traffic, shedding policies, and
// the observation-driven autoscaler.
// ---------------------------------------------------------------------

/// Policy axis of the `overload` curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OverloadMode {
    /// Unbounded queueing: the degradation baseline.
    NoPolicy,
    /// `OverloadPolicy::deadline_drop()` at Fetch's ingress with a
    /// tight latency budget.
    DeadlineDrop,
    /// Observation-driven worker scaling (1..4 lanes), no shedding.
    Autoscale,
}

impl OverloadMode {
    const ALL: [OverloadMode; 3] = [
        OverloadMode::NoPolicy,
        OverloadMode::DeadlineDrop,
        OverloadMode::Autoscale,
    ];

    fn name(self) -> &'static str {
        match self {
            OverloadMode::NoPolicy => "none",
            OverloadMode::DeadlineDrop => "deadline_drop",
            OverloadMode::Autoscale => "autoscale",
        }
    }
}

fn overload_run_json(mode: OverloadMode, offered_x: f64, offered_fps: f64, out: &OverloadOutcome) -> String {
    format!(
        concat!(
            "{{\n",
            "      \"policy\": \"{}\",\n",
            "      \"offered_x\": {:.2},\n",
            "      \"offered_fps\": {:.1},\n",
            "      \"injected\": {},\n",
            "      \"completed\": {},\n",
            "      \"expired_frames\": {},\n",
            "      \"shed_messages\": {},\n",
            "      \"expired_messages\": {},\n",
            "      \"incomplete\": {},\n",
            "      \"idct_skipped_blocks\": {},\n",
            "      \"completed_fraction\": {:.4},\n",
            "      \"scale_events\": {},\n",
            "      \"final_workers\": {},\n",
            "      \"wall_s\": {:.6},\n",
            "      \"p50_ms\": {:.4},\n",
            "      \"p99_ms\": {:.4},\n",
            "      \"p999_ms\": {:.4},\n",
            "      \"ledger_ok\": {}\n",
            "    }}"
        ),
        mode.name(),
        offered_x,
        offered_fps,
        out.injected,
        out.completed,
        out.expired_frames,
        out.shed_messages,
        out.expired_messages,
        out.incomplete,
        out.idct_skipped,
        out.completed_fraction(),
        out.scale_history.len(),
        out.scale_history.last().map_or("null".into(), |w| w.to_string()),
        out.wall_s,
        out.p50_ns as f64 / 1e6,
        out.p99_ns as f64 / 1e6,
        out.p999_ns as f64 / 1e6,
        out.ledger_balances(),
    )
}

/// `overload` — the PR 8 throughput-vs-p99 curves: an open-loop Poisson
/// load generator drives the MJPEG pipeline at offered loads bracketing
/// its calibrated capacity, under three policies (unbounded queueing,
/// ingress deadline-drop with a tight budget, observation-driven worker
/// autoscaling). Writes `BENCH_pr8.json` (or `--out <path>`).
///
/// `--frames N` frames injected per run; `--assert-accounting` exits
/// nonzero if any run's shed ledger does not balance exactly;
/// `--assert-curves` additionally enforces the robustness criteria
/// (deadline-drop keeps completed-frame p99 within 5× the low-load p99
/// at 2× saturation while the no-policy baseline degrades past it, and
/// autoscale completes ≥95% of injected frames).
fn overload(scale: &Scale, args: &[String]) {
    let out_path = arg_value(args, "--out").unwrap_or("BENCH_pr8.json");
    let assert_acct = args.iter().any(|a| a == "--assert-accounting");
    let assert_curves = args.iter().any(|a| a == "--assert-curves");
    let frames: u64 = arg_value(args, "--frames")
        .and_then(|s| s.parse().ok())
        .unwrap_or((scale.small as u64).clamp(48, 600) * 4)
        .max(32);
    // 96×48 frames (72 blocks): 4× the Table-1 service time, so offered
    // gaps stay well above the threaded backends' timer granularity.
    let base = overload_stream(5, 0x578);
    let blocks_per_frame = 72u64;
    // Generous budget for runs that measure latency without shedding:
    // far beyond any queueing delay these runs can build, never hit.
    const GENEROUS_NS: u64 = 120_000_000_000;
    let fixed_workers = 2usize;
    let cfg = |mean_gap_ns: u64,
               arrival: ArrivalProcess,
               budget: u64,
               policy: Option<OverloadPolicy>,
               autoscale: Option<AutoscaleConfig>,
               initial: usize,
               max: usize| OverloadConfig {
        frames,
        mean_gap_ns,
        arrival,
        seed: 0x0BAD_CAFE,
        deadline_budget_ns: budget,
        max_workers: max,
        initial_workers: initial,
        fetch_policy: policy,
        autoscale,
        pacing: Pacing::RealTime,
        ..OverloadConfig::default()
    };
    println!("=== overload — open-loop robustness curves, {frames} frames/run, 72-block frames ===");

    // 1. Capacity calibration: back-to-back injection (no pacing) on the
    //    fixed 2-worker pipeline; completed/wall is the service rate.
    let calib = run_overload_smp(
        base.clone(),
        &cfg(0, ArrivalProcess::Periodic, GENEROUS_NS, None, None, fixed_workers, fixed_workers),
    );
    assert_eq!(calib.completed, frames, "calibration run dropped frames");
    let capacity_fps = calib.completed as f64 / calib.wall_s;
    println!("calibrated capacity: {capacity_fps:.0} frames/s ({:.4} s for {frames})", calib.wall_s);
    let gap_for = |x: f64| (1e9 / (capacity_fps * x)) as u64;

    // 2. Low-load latency reference at 0.5×: the p99 every curve is
    //    judged against, and the source of the deadline-drop budget.
    let low = run_overload_smp(
        base.clone(),
        &cfg(
            gap_for(0.5),
            ArrivalProcess::Poisson,
            GENEROUS_NS,
            None,
            None,
            fixed_workers,
            fixed_workers,
        ),
    );
    let p99_low = low.p99_ns.max(1);
    let tight_budget = 5 * p99_low;
    println!(
        "low-load (0.5x) p99: {:.3} ms -> deadline budget {:.3} ms",
        p99_low as f64 / 1e6,
        tight_budget as f64 / 1e6
    );

    // 3. The curves: three policies at offered loads bracketing
    //    saturation. The runs are real-time paced (sleep-dominated at
    //    sub-saturation loads), so they tolerate co-scheduling; default
    //    is still 1 job because the >=1.2x cells are CPU-bound and their
    //    latency tails would share the machine.
    let jobs = runner::resolve_jobs(args, 1);
    let loads = [0.5f64, 0.8, 1.2, 2.0];
    let autoscale_cfg = AutoscaleConfig {
        high_queue: 6,
        low_queue: 1,
        hysteresis_rounds: 2,
        min_workers: 1,
        interval_ns: 2_000_000,
    };
    let curve_cells: Vec<(f64, OverloadMode)> = loads
        .iter()
        .flat_map(|&x| OverloadMode::ALL.into_iter().map(move |m| (x, m)))
        .collect();
    let outs = runner::run_cells(jobs, curve_cells.len(), |i| {
        let (x, mode) = curve_cells[i];
        let c = match mode {
            OverloadMode::NoPolicy => cfg(
                gap_for(x),
                ArrivalProcess::Poisson,
                GENEROUS_NS,
                None,
                None,
                fixed_workers,
                fixed_workers,
            ),
            OverloadMode::DeadlineDrop => cfg(
                gap_for(x),
                ArrivalProcess::Poisson,
                tight_budget,
                Some(OverloadPolicy::deadline_drop()),
                None,
                fixed_workers,
                fixed_workers,
            ),
            OverloadMode::Autoscale => cfg(
                gap_for(x),
                ArrivalProcess::Poisson,
                GENEROUS_NS,
                None,
                Some(autoscale_cfg),
                1,
                2 * fixed_workers,
            ),
        };
        run_overload_smp(base.clone(), &c)
    });
    let mut rows: Vec<(OverloadMode, f64, OverloadOutcome)> = Vec::new();
    for ((x, mode), out) in curve_cells.iter().copied().zip(outs) {
        println!(
            "{:<14} {:>4.1}x  completed {:>5}/{:<5} ({:>5.1}%)  shed {:>4}+{:<4}  p50 {:>8.3} ms  p99 {:>8.3} ms  scale {:?}",
            mode.name(),
            x,
            out.completed,
            out.injected,
            out.completed_fraction() * 100.0,
            out.shed_messages,
            out.expired_messages,
            out.p50_ns as f64 / 1e6,
            out.p99_ns as f64 / 1e6,
            out.scale_history,
        );
        if !out.ledger_balances() {
            eprintln!(
                "overload: shed ledger does not balance for {} at {x}x: {out:?}",
                mode.name()
            );
            if assert_acct {
                std::process::exit(1);
            }
        }
        rows.push((mode, x, out));
    }

    // 4. Robustness verdicts at the top offered load. The histogram
    //    over-reports percentiles by at most one sub-bucket (6.25%), so
    //    the 5× comparison carries that slack explicitly.
    let top = *loads.last().expect("loads nonempty");
    let at = |mode: OverloadMode, x: f64| {
        &rows
            .iter()
            .find(|(m, l, _)| *m == mode && *l == x)
            .expect("measured")
            .2
    };
    let quant_slack = 1.07;
    let dd_top = at(OverloadMode::DeadlineDrop, top);
    let none_top = at(OverloadMode::NoPolicy, top);
    let dd_bounded = dd_top.completed > 0
        && (dd_top.p99_ns as f64) <= 5.0 * p99_low as f64 * quant_slack;
    let none_degrades = (none_top.p99_ns as f64) > 5.0 * p99_low as f64;
    let autoscale_completes = loads
        .iter()
        .all(|&x| at(OverloadMode::Autoscale, x).completed_fraction() >= 0.95);
    let ledger_all = rows.iter().all(|(_, _, o)| o.ledger_balances());
    println!(
        "verdicts: deadline_drop_p99_bounded={dd_bounded} none_degrades={none_degrades} autoscale_completes={autoscale_completes} ledger_all={ledger_all}"
    );

    let runs_json = rows
        .iter()
        .map(|(m, x, o)| overload_run_json(*m, *x, capacity_fps * x, o))
        .collect::<Vec<_>>()
        .join(",\n    ");
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"overload_robustness\",\n",
            "  \"workload\": \"openloop_mjpeg_96x48\",\n",
            "  \"provenance\": {},\n",
            "  \"frames\": {},\n",
            "  \"blocks_per_frame\": {},\n",
            "  \"arrival\": \"poisson\",\n",
            "  \"capacity_fps\": {:.1},\n",
            "  \"low_load_p99_ms\": {:.4},\n",
            "  \"deadline_budget_ms\": {:.4},\n",
            "  \"fixed_workers\": {},\n",
            "  \"autoscale\": {{ \"min_workers\": 1, \"max_workers\": {}, \"high_queue\": {}, ",
            "\"low_queue\": {}, \"hysteresis_rounds\": {}, \"interval_ms\": {} }},\n",
            "  \"offered_x\": [0.5, 0.8, 1.2, 2.0],\n",
            "  \"runs\": [\n    {}\n  ],\n",
            "  \"curve_checks\": {{\n",
            "    \"deadline_drop_p99_within_5x_low\": {},\n",
            "    \"no_policy_p99_degrades\": {},\n",
            "    \"autoscale_completes_95\": {},\n",
            "    \"ledger_balances\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        provenance_json(Some(BenchBackend::Smp), 0, jobs),
        frames,
        blocks_per_frame,
        capacity_fps,
        p99_low as f64 / 1e6,
        tight_budget as f64 / 1e6,
        fixed_workers,
        2 * fixed_workers,
        autoscale_cfg.high_queue,
        autoscale_cfg.low_queue,
        autoscale_cfg.hysteresis_rounds,
        autoscale_cfg.interval_ns / 1_000_000,
        runs_json,
        dd_bounded,
        none_degrades,
        autoscale_completes,
        ledger_all,
    );
    std::fs::write(out_path, json).expect("write overload json");
    println!("wrote {out_path}");

    if assert_acct && !ledger_all {
        eprintln!("overload: shed accounting ledger violated");
        std::process::exit(1);
    }
    if assert_curves && !(dd_bounded && none_degrades && autoscale_completes) {
        eprintln!(
            "overload: robustness criteria failed (deadline_drop_bounded={dd_bounded}, \
             none_degrades={none_degrades}, autoscale_completes={autoscale_completes})"
        );
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// PR 10: kernel event rate + the parallel sweep runner.
// ---------------------------------------------------------------------

/// `shard-bench` — the two PR 10 measurements in one artifact:
///
/// 1. **Kernel event rate.** A PHOLD-style token ring on the simulation
///    kernel, reporting host-wall events/second and nanoseconds per
///    event. The three repetitions are asserted to produce the same
///    schedule — the benchmark refuses to publish numbers for a
///    nondeterministic simulation.
/// 2. **Sweep fan-out.** The same list of real-time-paced pipeline
///    cells dispatched through [`runner::run_cells`] at `--jobs 1` and
///    `--jobs N`. Pacing sleeps dominate each cell's wall clock and
///    overlap when cells are co-scheduled, so the comparison measures
///    the runner's fan-out even on a single-core host.
fn shard_bench(scale: &Scale, args: &[String]) {
    let _ = scale;
    let out_path = arg_value(args, "--out").unwrap_or("BENCH_pr10.json");
    let assert_speedup = args.iter().any(|a| a == "--assert-speedup");
    let parse = |key: &str, default: u64| -> u64 {
        arg_value(args, key).and_then(|s| s.parse().ok()).unwrap_or(default)
    };
    let procs = parse("--procs", 32) as usize;
    let hops = parse("--hops", 600) as u32;
    let lat = parse("--lat", 1_000);
    let work = parse("--work", 250);
    let cells = parse("--cells", 8) as usize;
    let cell_frames = parse("--cell-frames", 96);
    // Sleep-dominated cells overlap, so the fan-out defaults wider than
    // a small host's core count; below 2 the comparison is meaningless.
    let jobs = runner::resolve_jobs(args, runner::default_jobs().max(4)).max(2);
    println!("=== shard-bench — kernel event rate + parallel sweep runner ===");

    // 1. Kernel event rate: best-of-3 host wall.
    let run_phold = || {
        let mut kernel = Kernel::new();
        let channels: Vec<LatentChannel<u32>> =
            (0..procs).map(|_| LatentChannel::new(&kernel, lat)).collect();
        for pid in 0..procs {
            let inbox = channels[pid].clone();
            let next = channels[(pid + 1) % procs].clone();
            kernel.spawn(format!("site{pid}"), move |ctx| {
                next.send(&ctx, hops);
                for _ in 0..hops {
                    let remaining = inbox.recv(&ctx);
                    ctx.advance(work);
                    if remaining > 1 {
                        next.send(&ctx, remaining - 1);
                    }
                }
            });
        }
        let t0 = std::time::Instant::now();
        kernel.run().expect("phold run");
        let wall_s = t0.elapsed().as_secs_f64();
        let stats = kernel.stats();
        ((kernel.now(), stats.events_dispatched, stats.notifications_delivered), wall_s)
    };
    let (schedule, mut wall) = run_phold();
    for _ in 0..2 {
        let (again, w) = run_phold();
        // Hard stop, not a JSON flag alone: a rate for a simulation
        // whose schedule changes from run to run is meaningless.
        assert_eq!(again, schedule, "phold schedule differs between repetitions");
        wall = wall.min(w);
    }
    let (t_end, events, _) = schedule;
    let events_per_s = events as f64 / wall;
    println!(
        "phold: {events_per_s:>10.0} events/s  {:.0} host ns/event  ({events} events, {wall:.4} s host wall, t_end {t_end} ns)",
        wall * 1e9 / events as f64
    );

    // 2. Sweep fan-out: identical cell list at jobs=1 and jobs=N.
    let gap_ns = 4_000_000u64;
    let base = overload_stream(5, 0x578);
    let cell_cfg = |i: usize| OverloadConfig {
        frames: cell_frames,
        mean_gap_ns: gap_ns,
        arrival: ArrivalProcess::Periodic,
        seed: 0x0BAD_CAFE ^ i as u64,
        deadline_budget_ns: 120_000_000_000,
        max_workers: 2,
        initial_workers: 2,
        pacing: Pacing::RealTime,
        ..OverloadConfig::default()
    };
    let run_sweep = |jobs: usize| {
        let t0 = std::time::Instant::now();
        let outs = runner::run_cells(jobs, cells, |i| run_overload_smp(base.clone(), &cell_cfg(i)));
        let wall = t0.elapsed().as_secs_f64();
        let completed: Vec<u64> = outs.iter().map(|o| o.completed).collect();
        (wall, completed)
    };
    let (wall_seq, completed_seq) = run_sweep(1);
    let (wall_par, completed_par) = run_sweep(jobs);
    assert_eq!(
        completed_seq, completed_par,
        "sweep results depend on --jobs; the runner contract is broken"
    );
    let speedup = wall_seq / wall_par;
    println!(
        "sweep: {cells} cells x {cell_frames} frames  jobs=1 {wall_seq:.3} s  jobs={jobs} {wall_par:.3} s  speedup {speedup:.2}x"
    );

    let kernel_runs_json = format!(
        concat!(
            "{{ \"shards\": 1, \"wall_s\": {:.6}, \"events_dispatched\": {}, ",
            "\"events_per_s\": {:.1}, \"final_time_ns\": {} }}"
        ),
        wall, events, events_per_s, t_end
    );
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"parallel_sim_and_sweep\",\n",
            "  \"provenance\": {},\n",
            "  \"phold\": {{ \"procs\": {}, \"hops\": {}, \"latency_ns\": {}, \"work_ns\": {} }},\n",
            "  \"kernel_runs\": [\n    {}\n  ],\n",
            "  \"kernel_schedules_identical\": true,\n",
            "  \"sweep\": {{ \"cells\": {}, \"cell_frames\": {}, \"mean_gap_ms\": {}, ",
            "\"jobs\": {}, \"wall_jobs1_s\": {:.4}, \"wall_jobsn_s\": {:.4}, \"speedup\": {:.3} }}\n",
            "}}\n"
        ),
        provenance_json(None, 0, jobs),
        procs,
        hops,
        lat,
        work,
        kernel_runs_json,
        cells,
        cell_frames,
        gap_ns / 1_000_000,
        jobs,
        wall_seq,
        wall_par,
        speedup,
    );
    std::fs::write(out_path, json).expect("write shard-bench json");
    println!("wrote {out_path}");

    if assert_speedup && speedup < 2.0 {
        eprintln!("shard-bench: sweep speedup {speedup:.2}x below the 2x gate");
        std::process::exit(1);
    }
}

/// `bench-validate` — schema-check every `BENCH_*.json` in the working
/// directory (or `--dir <path>`): parseable JSON, the uniform
/// `provenance` header, and the per-benchmark required fields. Exits
/// nonzero listing every violation.
fn bench_validate(args: &[String]) {
    let dir = arg_value(args, "--dir").unwrap_or(".");
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| {
            eprintln!("bench-validate: cannot read {dir}: {e}");
            std::process::exit(2);
        })
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("bench-validate: no BENCH_*.json found in {dir}");
        std::process::exit(1);
    }
    let mut all_errs = Vec::new();
    for path in &files {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let mut errs = validate_bench_file(path);
        if errs.is_empty() {
            println!("{name}: ok");
        } else {
            println!("{name}: {} violation(s)", errs.len());
            for e in &errs {
                println!("  {e}");
            }
        }
        all_errs.append(&mut errs);
    }
    if !all_errs.is_empty() {
        eprintln!("bench-validate: {} violation(s) across {} file(s)", all_errs.len(), files.len());
        std::process::exit(1);
    }
    println!("bench-validate: {} file(s) conform", files.len());
}

/// Schema of one benchmark artifact: the shared provenance header plus
/// per-benchmark required fields (including per-element checks of the
/// run arrays).
fn validate_bench_file(path: &std::path::Path) -> Vec<String> {
    let name = path.file_name().unwrap().to_string_lossy().to_string();
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return vec![format!("{name}: unreadable: {e}")],
    };
    let doc = match jsonv::parse(&text) {
        Ok(d) => d,
        Err(e) => return vec![format!("{name}: invalid JSON: {e}")],
    };
    let mut errs = jsonv::require(&doc, &name, &[("benchmark", Ty::Str), ("provenance", Ty::Obj)]);
    if let Some(prov) = doc.get("provenance") {
        errs.extend(jsonv::require(
            prov,
            &format!("{name}.provenance"),
            &[
                ("git_rev", Ty::Str),
                ("backend", Ty::StrOrNull),
                ("worker_pool", Ty::NumOrNull),
                ("simd_level", Ty::Str),
                ("sse2", Ty::Bool),
                ("avx2", Ty::Bool),
                ("host_cores", Ty::Num),
            ],
        ));
        // `jobs` joined the header in PR 10; artifacts committed before
        // then lack it, so its type is checked only when present.
        if prov.get("jobs").is_some() {
            errs.extend(jsonv::require(
                prov,
                &format!("{name}.provenance"),
                &[("jobs", Ty::Num)],
            ));
        }
    }
    let Some(benchmark) = doc.get("benchmark").and_then(Json::str) else {
        return errs;
    };
    let run_fields: &[(&str, Ty)] = &[
        ("label", Ty::Str),
        ("wall_s", Ty::Num),
        ("blocks_per_s", Ty::Num),
    ];
    match benchmark {
        "smp_mjpeg_pipeline" => {
            errs.extend(jsonv::require(
                &doc,
                &name,
                &[
                    ("frames", Ty::Num),
                    ("baseline", Ty::Obj),
                    ("optimized", Ty::Obj),
                    ("speedup", Ty::Num),
                ],
            ));
            for key in ["baseline", "optimized"] {
                if let Some(run) = doc.get(key) {
                    errs.extend(jsonv::require(run, &format!("{name}.{key}"), run_fields));
                }
            }
        }
        "smp_mjpeg_scaling_sweep" => {
            errs.extend(jsonv::require(
                &doc,
                &name,
                &[
                    ("frames", Ty::Num),
                    ("runs", Ty::Arr),
                    ("best", Ty::Str),
                    ("best_blocks_per_s", Ty::Num),
                    ("steady_state_marginal_allocs", Ty::Num),
                ],
            ));
            for (i, run) in doc.get("runs").and_then(Json::arr).unwrap_or(&[]).iter().enumerate() {
                errs.extend(jsonv::require(run, &format!("{name}.runs[{i}]"), run_fields));
            }
        }
        "exec_component_scaling_sweep" => {
            errs.extend(jsonv::require(
                &doc,
                &name,
                &[
                    ("frames", Ty::Num),
                    ("table1_compare", Ty::Obj),
                    ("max_components", Ty::Num),
                    ("fanio_runs", Ty::Arr),
                ],
            ));
            for (i, run) in doc.get("fanio_runs").and_then(Json::arr).unwrap_or(&[]).iter().enumerate() {
                errs.extend(jsonv::require(
                    run,
                    &format!("{name}.fanio_runs[{i}]"),
                    &[("components", Ty::Num), ("msgs_per_s", Ty::Num), ("wall_s", Ty::Num)],
                ));
            }
        }
        "observation_overhead_budget" => {
            errs.extend(jsonv::require(
                &doc,
                &name,
                &[
                    ("frames", Ty::Num),
                    ("cells", Ty::Arr),
                    ("max_overhead", Ty::Num),
                    ("worst_hier_adaptive_overhead", Ty::Num),
                    ("within_budget", Ty::Bool),
                ],
            ));
            for (i, cell) in doc.get("cells").and_then(Json::arr).unwrap_or(&[]).iter().enumerate() {
                errs.extend(jsonv::require(
                    cell,
                    &format!("{name}.cells[{i}]"),
                    &[("cell", Ty::Str), ("runs", Ty::Arr), ("hier_adaptive_overhead", Ty::Num)],
                ));
            }
        }
        "overload_robustness" => {
            errs.extend(jsonv::require(
                &doc,
                &name,
                &[
                    ("frames", Ty::Num),
                    ("capacity_fps", Ty::Num),
                    ("low_load_p99_ms", Ty::Num),
                    ("deadline_budget_ms", Ty::Num),
                    ("offered_x", Ty::Arr),
                    ("runs", Ty::Arr),
                    ("curve_checks", Ty::Obj),
                ],
            ));
            for (i, run) in doc.get("runs").and_then(Json::arr).unwrap_or(&[]).iter().enumerate() {
                errs.extend(jsonv::require(
                    run,
                    &format!("{name}.runs[{i}]"),
                    &[
                        ("policy", Ty::Str),
                        ("offered_x", Ty::Num),
                        ("injected", Ty::Num),
                        ("completed", Ty::Num),
                        ("shed_messages", Ty::Num),
                        ("expired_messages", Ty::Num),
                        ("p99_ms", Ty::Num),
                        ("ledger_ok", Ty::Bool),
                    ],
                ));
            }
            if let Some(checks) = doc.get("curve_checks") {
                errs.extend(jsonv::require(
                    checks,
                    &format!("{name}.curve_checks"),
                    &[
                        ("deadline_drop_p99_within_5x_low", Ty::Bool),
                        ("no_policy_p99_degrades", Ty::Bool),
                        ("autoscale_completes_95", Ty::Bool),
                        ("ledger_balances", Ty::Bool),
                    ],
                ));
            }
        }
        "parallel_sim_and_sweep" => {
            errs.extend(jsonv::require(
                &doc,
                &name,
                &[
                    ("phold", Ty::Obj),
                    ("kernel_runs", Ty::Arr),
                    ("kernel_schedules_identical", Ty::Bool),
                    ("sweep", Ty::Obj),
                ],
            ));
            for (i, run) in doc.get("kernel_runs").and_then(Json::arr).unwrap_or(&[]).iter().enumerate() {
                errs.extend(jsonv::require(
                    run,
                    &format!("{name}.kernel_runs[{i}]"),
                    &[
                        ("shards", Ty::Num),
                        ("wall_s", Ty::Num),
                        ("events_dispatched", Ty::Num),
                        ("events_per_s", Ty::Num),
                    ],
                ));
            }
            if let Some(sweep) = doc.get("sweep") {
                errs.extend(jsonv::require(
                    sweep,
                    &format!("{name}.sweep"),
                    &[
                        ("cells", Ty::Num),
                        ("cell_frames", Ty::Num),
                        ("jobs", Ty::Num),
                        ("wall_jobs1_s", Ty::Num),
                        ("wall_jobsn_s", Ty::Num),
                        ("speedup", Ty::Num),
                    ],
                ));
            }
        }
        other => errs.push(format!("{name}: unknown benchmark kind \"{other}\"")),
    }
    errs
}

// ---------------------------------------------------------------------
// PR 8: bounded fuzz loop over the byte-level parsers.
// ---------------------------------------------------------------------

/// Deterministic splitmix64 for the fuzz mutation stream.
struct FuzzRng(u64);

impl FuzzRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Run every fuzz target over one input; panics propagate to the
/// caller's `catch_unwind`. Every byte-level parser that consumes
/// untrusted or cross-component data: the JFIF container decoder and
/// the batch wire format (header parse + per-block payload decode).
fn fuzz_targets(input: &[u8]) {
    let _ = mjpeg::decode_jfif(input);
    let b = bytes::Bytes::copy_from_slice(input);
    if let Ok(view) = mjpeg::BatchView::coeffs(&b) {
        for i in 0..view.len() {
            let (_f, _bi, payload) = view.block(i);
            let _ = mjpeg::pipeline::coeffs_from_bytes(&payload);
        }
    }
    if let Ok(view) = mjpeg::BatchView::pixels(&b) {
        for i in 0..view.len() {
            let _ = view.block(i);
        }
    }
}

/// `fuzz` — a bounded, deterministic fuzz loop over the byte-level
/// parsers (`decode_jfif`, `BatchView`): a seeded corpus of valid
/// artifacts is mutated (byte sets, bit flips, truncations, splices)
/// for `--iters` iterations (default 2000) from `--seed` (default 1).
/// Every target must return `Ok`/`Err`, never panic. On a panic the
/// failing input is written to `--replay-out` (default
/// `fuzz_replay.bin`) and the exit is nonzero; `--replay <file>`
/// re-runs exactly that input under the panic.
fn fuzz(args: &[String]) {
    if let Some(path) = arg_value(args, "--replay") {
        let input = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("fuzz: cannot read replay file {path}: {e}");
            std::process::exit(2);
        });
        println!("fuzz: replaying {} bytes from {path}", input.len());
        fuzz_targets(&input);
        println!("fuzz: replay completed without panic");
        return;
    }
    let iters: u64 = arg_value(args, "--iters")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000);
    let seed: u64 = arg_value(args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let replay_out = arg_value(args, "--replay-out").unwrap_or("fuzz_replay.bin");

    // Corpus: valid artifacts of every target format, so mutations
    // explore deep parser states instead of bouncing off the magic
    // bytes.
    let gray: Vec<u8> = (0..24usize * 16).map(|i| (i * 7) as u8).collect();
    let rgb: Vec<u8> = (0..16usize * 8 * 3).map(|i| (i * 13) as u8).collect();
    let coeff_batch =
        mjpeg::pipeline::encode_coeff_batch(&[(0, 0, [3i32; 64]), (0, 1, [-7i32; 64])]).to_vec();
    let pixel_batch =
        mjpeg::pipeline::encode_pixel_batch(&[(1, 0, [128u8; 64]), (1, 1, [9u8; 64])]).to_vec();
    let corpus: Vec<Vec<u8>> = vec![
        mjpeg::encode_jfif_gray(&gray, 24, 16, 75),
        mjpeg::encode_jfif_rgb(&rgb, 16, 8, 60),
        coeff_batch,
        pixel_batch,
    ];

    println!(
        "=== fuzz — {} corpus entries, {iters} iterations, seed {seed} ===",
        corpus.len()
    );
    let mut rng = FuzzRng(seed);
    // Silence the default panic hook: a caught fuzz panic is a recorded
    // finding, not console noise (the hook is restored after the loop).
    let saved_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut failure: Option<(u64, Vec<u8>)> = None;
    for iter in 0..iters {
        let mut input = corpus[rng.below(corpus.len())].clone();
        for _ in 0..1 + rng.below(4) {
            if input.is_empty() {
                break;
            }
            match rng.below(5) {
                0 => {
                    let i = rng.below(input.len());
                    input[i] = rng.next() as u8;
                }
                1 => {
                    let i = rng.below(input.len());
                    input[i] ^= 1 << rng.below(8);
                }
                2 => input.truncate(rng.below(input.len() + 1)),
                3 => {
                    // Splice a slice of the input over another offset.
                    let src = rng.below(input.len());
                    let dst = rng.below(input.len());
                    let len = rng.below(16).min(input.len() - src.max(dst));
                    input.copy_within(src..src + len, dst);
                }
                _ => {
                    let i = rng.below(input.len() + 1);
                    input.insert(i, rng.next() as u8);
                }
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            fuzz_targets(&input);
        }));
        if result.is_err() {
            failure = Some((iter, input));
            break;
        }
    }
    std::panic::set_hook(saved_hook);
    match failure {
        Some((iter, input)) => {
            std::fs::write(replay_out, &input).expect("write replay file");
            eprintln!(
                "fuzz: PANIC at iteration {iter} (seed {seed}); {} bytes written to {replay_out}",
                input.len()
            );
            eprintln!("fuzz: reproduce with `repro fuzz --replay {replay_out}`");
            std::process::exit(1);
        }
        None => println!("fuzz: {iters} iterations, no panics"),
    }
}
