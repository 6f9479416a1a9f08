//! Schedule pins: seeded process scripts whose complete schedule is
//! folded into one FNV-1a hash and compared against a pinned value.
//!
//! Every return from a blocking call records `(pid, now, resume kind)`
//! in execution order; the run outcomes, the final clock and the
//! [`KernelStats`] counters are folded in after the run. Any change to
//! the order in which processes run, to the virtual time at which they
//! run, or to the kernel's event accounting changes the hash. The
//! scripts target the edges of the event order: a step landing exactly
//! on a queued entry or a timed delivery, effects queued before a step
//! in the same slice, `advance(0)` next to a same-time peer, stale
//! timeout entries, and `run_until` horizons between steps.

use std::sync::{Arc, Mutex};

use sim_kernel::{EventId, Kernel, KernelStats, RunOutcome, SimCtx, SimError, Time};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a stream of `u64` words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Resume kind codes folded into the log.
const SCHEDULED: u64 = 0;
const NOTIFIED: u64 = 1;
const TIMED_OUT: u64 = 2;

/// Execution-ordered log shared by every process of one run.
#[derive(Clone)]
struct Log(Arc<Mutex<Fnv>>);

impl Log {
    fn new() -> Self {
        Log(Arc::new(Mutex::new(Fnv::new())))
    }

    fn record(&self, ctx: &SimCtx, kind: u64) {
        let mut h = self.0.lock().unwrap();
        h.word(ctx.pid() as u64);
        h.word(ctx.now());
        h.word(kind);
    }

    fn advance(&self, ctx: &SimCtx, dt: Time) {
        ctx.advance(dt);
        self.record(ctx, SCHEDULED);
    }

    fn yield_now(&self, ctx: &SimCtx) {
        ctx.yield_now();
        self.record(ctx, SCHEDULED);
    }

    fn wait(&self, ctx: &SimCtx, event: EventId) {
        ctx.wait(event);
        self.record(ctx, NOTIFIED);
    }

    fn wait_timeout(&self, ctx: &SimCtx, event: EventId, dt: Time) {
        let kind = if ctx.wait_timeout(event, dt) {
            NOTIFIED
        } else {
            TIMED_OUT
        };
        self.record(ctx, kind);
    }

    /// Fold one `run_until` outcome and the clock it left.
    fn outcome(&self, kernel: &Kernel, result: Result<RunOutcome, SimError>) {
        let code = match result {
            Ok(RunOutcome::Completed) => 0,
            Ok(RunOutcome::Horizon) => 1,
            Err(SimError::Deadlock(_)) => 2,
            Err(_) => 3,
        };
        let mut h = self.0.lock().unwrap();
        h.word(code);
        h.word(kernel.now());
    }

    /// Fold the final stats and return the hash.
    fn finish(&self, kernel: &Kernel) -> u64 {
        let KernelStats {
            events_dispatched,
            processes_spawned,
            notifications_delivered,
            max_queue_depth,
            ..
        } = kernel.stats();
        let mut h = self.0.lock().unwrap();
        h.word(kernel.now());
        for w in [
            events_dispatched,
            processes_spawned,
            notifications_delivered,
            max_queue_depth,
        ] {
            h.word(w);
        }
        h.0
    }
}

fn run_to_end(kernel: &mut Kernel, log: &Log) -> u64 {
    let result = kernel.run_until(Time::MAX);
    log.outcome(kernel, result);
    log.finish(kernel)
}

/// A step that lands exactly on a queued entry's time runs after it:
/// the queued entry has the smaller seq.
fn advance_onto_queued_entry() -> u64 {
    let mut k = Kernel::new();
    let log = Log::new();
    let l = log.clone();
    k.spawn("target", move |ctx| {
        l.advance(&ctx, 20);
        l.advance(&ctx, 20);
    });
    let l = log.clone();
    k.spawn("stepper", move |ctx| {
        for dt in [5, 15, 1, 19, 20, 3] {
            l.advance(&ctx, dt);
        }
    });
    run_to_end(&mut k, &log)
}

/// A step that lands exactly on a timed delivery runs after it: timed
/// deliveries win ties, so the woken waiter is queued first.
fn advance_onto_timed_delivery() -> u64 {
    let mut k = Kernel::new();
    let e = k.alloc_event();
    let log = Log::new();
    let l = log.clone();
    k.spawn("waiter", move |ctx| {
        l.wait(&ctx, e);
        l.advance(&ctx, 0);
        l.wait(&ctx, e);
    });
    let l = log.clone();
    k.spawn("stepper", move |ctx| {
        ctx.notify_after(e, 30);
        for dt in [10, 20, 0, 5, 5] {
            l.advance(&ctx, dt);
        }
        ctx.notify_after(e, 7);
        for _ in 0..10 {
            l.advance(&ctx, 1);
        }
    });
    run_to_end(&mut k, &log)
}

/// An effect queued in a slice is applied when the slice ends, so the
/// step that follows it in the same slice must not run ahead of it.
fn effect_then_advance_in_one_slice() -> u64 {
    let mut k = Kernel::new();
    let e = k.alloc_event();
    let f = k.alloc_event();
    let log = Log::new();
    let l = log.clone();
    k.spawn("waiter", move |ctx| {
        for _ in 0..3 {
            l.wait(&ctx, e);
        }
        l.wait_timeout(&ctx, f, 1_000);
    });
    let l = log.clone();
    k.spawn("producer", move |ctx| {
        l.advance(&ctx, 5);
        ctx.notify(e);
        l.advance(&ctx, 1);
        l.advance(&ctx, 1);
        ctx.notify_after(e, 2);
        l.advance(&ctx, 1);
        l.advance(&ctx, 4);
        let l2 = l.clone();
        ctx.spawn("child", move |c| {
            l2.advance(&c, 0);
            c.notify(e);
            l2.advance(&c, 3);
        });
        l.advance(&ctx, 1);
        l.advance(&ctx, 10);
        ctx.notify_after(f, 3);
        ctx.notify_after(f, 3);
        l.advance(&ctx, 3);
        l.advance(&ctx, 2);
    });
    run_to_end(&mut k, &log)
}

/// `advance(0)` with a peer due at the same time lets the peer run
/// first; without one it continues at once.
fn advance_zero_with_same_time_peer() -> u64 {
    let mut k = Kernel::new();
    let log = Log::new();
    for name in ["a", "b", "c"] {
        let l = log.clone();
        k.spawn(name, move |ctx| {
            l.advance(&ctx, 10);
            l.advance(&ctx, 0);
            l.advance(&ctx, 0);
            l.yield_now(&ctx);
            l.advance(&ctx, 1);
        });
    }
    let l = log.clone();
    k.spawn("alone", move |ctx| {
        l.advance(&ctx, 100);
        l.advance(&ctx, 0);
        l.yield_now(&ctx);
        l.advance(&ctx, 0);
    });
    run_to_end(&mut k, &log)
}

/// A `wait_timeout` that was notified leaves its timeout entry in the
/// queue; steps across and onto that stale entry keep their order.
fn stale_timeout_entry() -> u64 {
    let mut k = Kernel::new();
    let e = k.alloc_event();
    let log = Log::new();
    let l = log.clone();
    k.spawn("sleeper", move |ctx| {
        l.wait_timeout(&ctx, e, 100);
        l.advance(&ctx, 50);
        l.advance(&ctx, 50);
        l.wait_timeout(&ctx, e, 40);
        l.advance(&ctx, 60);
        l.advance(&ctx, 60);
    });
    let l = log.clone();
    k.spawn("notifier", move |ctx| {
        l.advance(&ctx, 20);
        ctx.notify(e);
        l.advance(&ctx, 130);
        ctx.notify(e);
        l.advance(&ctx, 1);
    });
    run_to_end(&mut k, &log)
}

/// `run_until` horizons that fall between, and exactly on, the steps of
/// a process that has nothing else due.
fn horizon_between_steps() -> u64 {
    let mut k = Kernel::new();
    let log = Log::new();
    let l = log.clone();
    k.spawn("stepper", move |ctx| {
        for _ in 0..10 {
            l.advance(&ctx, 10);
        }
    });
    let l = log.clone();
    k.spawn_daemon("ticker", move |ctx| loop {
        l.advance(&ctx, 7);
    });
    for horizon in [35, 40, 40, 41, 69, 70] {
        let result = k.run_until(horizon);
        log.outcome(&k, result);
    }
    run_to_end(&mut k, &log)
}

/// Tiny deterministic generator for the seeded scripts.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

#[derive(Clone, Copy)]
enum Op {
    Advance(Time),
    YieldNow,
    Notify(usize),
    NotifyAfter(usize, Time),
    WaitTimeout(usize, Time),
    Spawn(Time, Time),
}

/// Short delays so steps often land on each other's times.
const DELAYS: [Time; 9] = [0, 1, 2, 3, 5, 8, 10, 13, 20];
const EVENTS: usize = 3;

fn random_script(rng: &mut SplitMix) -> Vec<Op> {
    let len = 10 + rng.below(30) as usize;
    (0..len)
        .map(|_| {
            let dt = DELAYS[rng.below(DELAYS.len() as u64) as usize];
            let ev = rng.below(EVENTS as u64) as usize;
            match rng.below(16) {
                0..=7 => Op::Advance(dt),
                8 => Op::YieldNow,
                9 => Op::Notify(ev),
                10 | 11 => Op::NotifyAfter(ev, dt),
                12 | 13 => Op::WaitTimeout(ev, dt + 1),
                _ => Op::Spawn(dt, DELAYS[rng.below(DELAYS.len() as u64) as usize]),
            }
        })
        .collect()
}

fn run_script(ctx: &SimCtx, log: &Log, events: &[EventId], script: &[Op]) {
    for &op in script {
        match op {
            Op::Advance(dt) => log.advance(ctx, dt),
            Op::YieldNow => log.yield_now(ctx),
            Op::Notify(ev) => ctx.notify(events[ev]),
            Op::NotifyAfter(ev, dt) => ctx.notify_after(events[ev], dt),
            Op::WaitTimeout(ev, dt) => log.wait_timeout(ctx, events[ev], dt),
            Op::Spawn(a, b) => {
                let l = log.clone();
                ctx.spawn("child", move |c| {
                    l.advance(&c, a);
                    l.advance(&c, b);
                });
            }
        }
    }
}

/// A seeded mix of every operation across a few processes, run in
/// three `run_until` legs.
fn seeded_mix(seed: u64) -> u64 {
    let mut rng = SplitMix(seed);
    let mut k = Kernel::new();
    let events: Arc<Vec<EventId>> = Arc::new((0..EVENTS).map(|_| k.alloc_event()).collect());
    let log = Log::new();
    let procs = 2 + rng.below(5);
    for i in 0..procs {
        let script = random_script(&mut rng);
        let (l, evs) = (log.clone(), Arc::clone(&events));
        let body = move |ctx: SimCtx| run_script(&ctx, &l, &evs, &script);
        if i == 0 && rng.below(2) == 0 {
            k.spawn_daemon(format!("d{i}"), body);
        } else {
            k.spawn(format!("p{i}"), body);
        }
    }
    let first = 10 + rng.below(60);
    let second = first + rng.below(60);
    for horizon in [first, second] {
        let result = k.run_until(horizon);
        log.outcome(&k, result);
    }
    run_to_end(&mut k, &log)
}

/// Compare every pin, listing all mismatches at once.
fn check(pins: &[(&str, u64, u64)]) {
    let bad: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(bad.is_empty(), "schedule changed:\n{}", bad.join("\n"));
}

#[test]
fn edge_case_schedules_match_pins() {
    check(&[
        (
            "advance_onto_queued_entry",
            advance_onto_queued_entry(),
            0xa83a_5f9d_90e7_515c,
        ),
        (
            "advance_onto_timed_delivery",
            advance_onto_timed_delivery(),
            0xd518_c4bd_4964_5687,
        ),
        (
            "effect_then_advance_in_one_slice",
            effect_then_advance_in_one_slice(),
            0x1135_b1f6_9407_b037,
        ),
        (
            "advance_zero_with_same_time_peer",
            advance_zero_with_same_time_peer(),
            0x80aa_321d_c895_825a,
        ),
        (
            "stale_timeout_entry",
            stale_timeout_entry(),
            0x9a59_067d_d261_472a,
        ),
        (
            "horizon_between_steps",
            horizon_between_steps(),
            0x5d36_5c4f_2f2f_3a41,
        ),
    ]);
}

#[test]
fn seeded_schedules_match_pins() {
    const PINS: [u64; 16] = [
        0xd769_33d1_84ba_928e,
        0xcfdf_c030_03f1_d0c6,
        0x8a2b_f020_8853_7245,
        0x49ec_fab7_e857_6828,
        0xe181_e336_7381_94e6,
        0x335e_2e51_a89e_3c75,
        0xcf9e_ccbf_d5f6_defc,
        0x96bc_8348_b96f_6626,
        0x9dfe_c260_8f53_424e,
        0x3ebd_d30f_e90f_2e51,
        0x1fd7_46c0_f91d_f6ea,
        0xe954_5d09_4b30_85e8,
        0xffc0_39ac_8e32_86e8,
        0x86eb_277c_7efe_0dcf,
        0x26ef_83e0_823e_5374,
        0x1ac7_5b24_30f5_1f36,
    ];
    let names: Vec<String> = (0..PINS.len()).map(|s| format!("seed {s}")).collect();
    let pins: Vec<(&str, u64, u64)> = PINS
        .iter()
        .enumerate()
        .map(|(s, &want)| (names[s].as_str(), seeded_mix(s as u64), want))
        .collect();
    check(&pins);
}
