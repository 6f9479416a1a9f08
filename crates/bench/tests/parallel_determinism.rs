//! Determinism of the full os21 stack: the same application deployed
//! twice on the simulated STi7200 must produce an identical report and
//! identical kernel statistics. The suite pins the contract end to end
//! through deployment, scheduling, faults, observation, and dispatch
//! through the bench job pool.

use bytes::Bytes;
use embera::behavior::behavior_fn;
use embera::{
    AppBuilder, AppReport, AppSpec, ComponentSpec, FaultPlan, ObserverConfig, Platform,
};
use embera_bench::runner;
use embera_os21::Os21Platform;
use sim_kernel::KernelStats;

/// Deploy on the simulated three-CPU STi7200 and return the full run
/// outcome.
fn run(spec: AppSpec) -> (AppReport, KernelStats) {
    Os21Platform::three_cpu()
        .deploy(spec)
        .expect("deploy")
        .wait_with_stats()
        .expect("run")
}

/// Everything observable from a run, in one comparable value. The
/// report's Debug form covers every field deterministically (interface
/// counters are declaration-ordered vectors, times are virtual), and
/// `KernelStats` derives `PartialEq`, so even `max_queue_depth` must
/// agree.
fn fingerprint((report, stats): (AppReport, KernelStats)) -> (String, KernelStats) {
    (format!("{report:?}"), stats)
}

/// A three-stage pipeline spread over the three CPUs, with enough
/// messages that any schedule divergence shows up in the counters.
fn pipeline_app() -> AppSpec {
    let mut app = AppBuilder::new("repeat-pipe");
    app.add(
        ComponentSpec::new(
            "src",
            behavior_fn(|ctx| {
                for i in 0..40u32 {
                    ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                }
                Ok(())
            }),
        )
        .with_required("out")
        .with_stack_bytes(1 << 20)
        .on_cpu(0),
    );
    app.add(
        ComponentSpec::new(
            "mid",
            behavior_fn(|ctx| {
                for _ in 0..40u32 {
                    let b = ctx.recv("in")?;
                    ctx.send("out", b)?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_required("out")
        .with_stack_bytes(1 << 20)
        .on_cpu(1),
    );
    app.add(
        ComponentSpec::new(
            "dst",
            behavior_fn(|ctx| {
                for i in 0..40u32 {
                    let b = ctx.recv("in")?;
                    assert_eq!(b.as_ref(), i.to_le_bytes(), "out-of-order delivery");
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20)
        .on_cpu(2),
    );
    app.connect(("src", "out"), ("mid", "in"));
    app.connect(("mid", "out"), ("dst", "in"));
    app.build().unwrap()
}

/// The pipeline with an observer polling every component — observation
/// traffic rides the same kernel and must replay identically.
fn observed_app() -> AppSpec {
    let mut app = AppBuilder::new("repeat-observed");
    app.add(
        ComponentSpec::new(
            "src",
            behavior_fn(|ctx| {
                for i in 0..24u32 {
                    ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                }
                Ok(())
            }),
        )
        .with_required("out")
        .with_stack_bytes(1 << 20)
        .on_cpu(0),
    );
    app.add(
        ComponentSpec::new(
            "dst",
            behavior_fn(|ctx| {
                for _ in 0..24u32 {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20)
        .on_cpu(1),
    );
    app.connect(("src", "out"), ("dst", "in"));
    let _log = app.with_observer(ObserverConfig::default().interval_ns(200_000));
    app.build().unwrap()
}

/// Timed receives: the timeout path exercises `notify_after` wakeups,
/// the schedule shape most sensitive to queue-order changes.
fn timed_app() -> AppSpec {
    let mut app = AppBuilder::new("repeat-timed");
    app.add(
        ComponentSpec::new(
            "t",
            behavior_fn(|ctx| {
                for _ in 0..8 {
                    assert!(ctx.recv_timeout("in", 10_000)?.is_none());
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20)
        .on_cpu(0),
    );
    app.build().unwrap()
}

/// The pipeline with a deterministic injected corruption on one send.
fn faulted_app() -> AppSpec {
    let mut app = AppBuilder::new("repeat-faulted");
    app.add(
        ComponentSpec::new(
            "src",
            behavior_fn(|ctx| {
                for i in 0..16u32 {
                    ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                }
                Ok(())
            }),
        )
        .with_required("out")
        .with_stack_bytes(1 << 20)
        .on_cpu(0),
    );
    app.add(
        ComponentSpec::new(
            "dst",
            behavior_fn(|ctx| {
                for _ in 0..16u32 {
                    ctx.recv("in")?;
                }
                Ok(())
            }),
        )
        .with_provided("in")
        .with_stack_bytes(1 << 20)
        .on_cpu(1),
    );
    app.connect(("src", "out"), ("dst", "in"));
    app.with_faults(FaultPlan::new().corrupt_message("src", "out", 3));
    app.build().unwrap()
}

/// Two runs of `build()` must agree on everything observable.
fn assert_repeatable(name: &str, build: fn() -> AppSpec) {
    let first = fingerprint(run(build()));
    let second = fingerprint(run(build()));
    assert_eq!(first, second, "[{name}] two runs of the same app diverged");
}

#[test]
fn pipeline_runs_are_identical() {
    assert_repeatable("pipeline", pipeline_app);
}

#[test]
fn observed_runs_are_identical() {
    assert_repeatable("observed", observed_app);
}

#[test]
fn timed_runs_are_identical() {
    assert_repeatable("timed", timed_app);
}

#[test]
fn fault_plan_runs_are_identical() {
    // A deterministic injected corruption: delivery still happens, so
    // the run completes, but the fault machinery (detection counters,
    // supervision bookkeeping) joins the compared surface.
    assert_repeatable("faulted", faulted_app);
}

#[test]
fn runs_through_the_job_pool_are_identical() {
    // The bench runner fanning real platform runs: every cell is one
    // run of the pipeline, dispatched on 3 worker threads. Results must
    // land in cell order and agree with the inline sequential dispatch.
    const CELLS: usize = 3;
    let fanned = runner::run_cells(3, CELLS, |_| fingerprint(run(pipeline_app())));
    let inline = runner::run_cells(1, CELLS, |_| fingerprint(run(pipeline_app())));
    assert_eq!(fanned, inline, "job-pool dispatch changed the outcome");
    assert!(fanned.windows(2).all(|w| w[0] == w[1]), "cells disagree");
}
