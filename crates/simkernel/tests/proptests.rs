//! Property-based tests of the simulation kernel: determinism, clock
//! monotonicity, and channel FIFO order under arbitrary schedules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use sim_kernel::{Kernel, KernelStats, SimChannel, Time};

/// Run a randomized workload: `workers` processes doing interleaved
/// advances and notifications, one collector waiting for all events.
fn run_workload(delays: &[Vec<u64>]) -> (Time, KernelStats, Vec<u64>) {
    let mut kernel = Kernel::new();
    let event = kernel.alloc_event();
    let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let total: usize = delays.iter().map(|d| d.len()).sum();

    for (i, seq) in delays.iter().enumerate() {
        let seq = seq.clone();
        let log = Arc::clone(&log);
        kernel.spawn(format!("w{i}"), move |ctx| {
            for d in seq {
                ctx.advance(d + 1);
                log.lock().push(ctx.now());
                ctx.notify(event);
            }
        });
    }
    let woken = Arc::new(AtomicU64::new(0));
    let w = Arc::clone(&woken);
    kernel.spawn("collector", move |ctx| {
        let mut seen = 0usize;
        while seen < total {
            ctx.wait_timeout(event, 1_000_000);
            seen += 1;
            w.fetch_add(1, Ordering::SeqCst);
        }
    });
    kernel.run().unwrap();
    let log = Arc::try_unwrap(log).ok().unwrap().into_inner();
    (kernel.now(), kernel.stats(), log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn identical_workloads_simulate_identically(
        delays in prop::collection::vec(
            prop::collection::vec(0u64..1000, 1..10), 1..6)
    ) {
        let a = run_workload(&delays);
        let b = run_workload(&delays);
        prop_assert_eq!(a.0, b.0, "final clock must match");
        prop_assert_eq!(a.1, b.1, "event counts must match");
        prop_assert_eq!(a.2, b.2, "observation order must match");
    }

    #[test]
    fn clock_is_monotone_and_bounded(
        delays in prop::collection::vec(
            prop::collection::vec(0u64..1000, 1..10), 1..6)
    ) {
        let (end, _, log) = run_workload(&delays);
        // Each worker's own observations are monotone; the merged log is
        // bounded by the final clock.
        prop_assert!(log.iter().all(|&t| t <= end));
        // Final clock equals the max per-worker cumulative delay
        // (workers run in parallel virtual time).
        let max_path: u64 = delays
            .iter()
            .map(|seq| seq.iter().map(|d| d + 1).sum::<u64>())
            .max()
            .unwrap_or(0);
        prop_assert!(end >= max_path, "end {} < longest path {}", end, max_path);
    }

    #[test]
    fn channel_preserves_fifo_under_any_timing(
        gaps in prop::collection::vec(0u64..50, 1..100)
    ) {
        let mut kernel = Kernel::new();
        let ch: SimChannel<usize> = SimChannel::with_event(kernel.alloc_event());
        let tx = ch.clone();
        let gaps2 = gaps.clone();
        kernel.spawn("producer", move |ctx| {
            for (i, g) in gaps2.iter().enumerate() {
                ctx.advance(*g);
                tx.send(&ctx, i);
            }
        });
        let received = Arc::new(Mutex::new(Vec::new()));
        let r = Arc::clone(&received);
        let n = gaps.len();
        kernel.spawn("consumer", move |ctx| {
            for _ in 0..n {
                r.lock().push(ch.recv(&ctx));
            }
        });
        kernel.run().unwrap();
        let received = received.lock().clone();
        prop_assert_eq!(received, (0..n).collect::<Vec<_>>());
    }
}
