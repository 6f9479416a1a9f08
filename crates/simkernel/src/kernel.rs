//! The discrete-event kernel: event queue, scheduling loop and
//! determinism.
//!
//! One loop pops events in `(time, seq)` order from a single
//! `BinaryHeap`, where `seq` is the order in which events were queued.
//! Timed notifications ([`SimCtx::notify_after`]) wait in a second heap
//! ordered by `(time, tag)`, the tag naming the producing process, its
//! dispatch and the call within that dispatch; a delivery wins a tie
//! with a queued event of the same time. Each dispatch resumes the
//! process's fiber on the caller's thread and returns once the process
//! yields back, so the simulation is a single thread of control.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use embera_fiber::Fiber;

use crate::error::{DeadlockInfo, SimError};
use crate::process::{
    process_fiber, Directory, EventId, Pid, Rendezvous, ResumeKind, SharedClock, SideEffects,
    SimCtx, YieldReason,
};
use crate::Time;

/// Initial capacity of the event queue. Spawning grows it ahead of
/// demand (twice the process count) so heap regrowth stays out of
/// alloc-sensitive measurement loops.
const INITIAL_QUEUE_CAPACITY: usize = 64;

/// Outcome of [`Kernel::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// All non-daemon processes completed.
    Completed,
    /// The horizon was reached with work still pending.
    Horizon,
}

/// Aggregate statistics about a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of events dispatched.
    pub events_dispatched: u64,
    /// Number of processes ever spawned.
    pub processes_spawned: u64,
    /// Number of event notifications delivered to waiters.
    pub notifications_delivered: u64,
    /// High-water mark of the event queue.
    pub max_queue_depth: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueItem {
    Resume(Pid, ResumeKind),
    /// Timeout check for a process that issued `wait_timeout`; `epoch`
    /// invalidates the check if the process was notified first.
    Timeout(Pid, u64),
}

#[derive(PartialEq, Eq)]
struct Entry {
    time: Time,
    seq: u64,
    item: QueueItem,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Identity of one timed notification: which process produced it, during
/// which of its dispatches, at which position in the effect stream of
/// that dispatch. Together with the delivery time this totally orders
/// timed notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EffectTag {
    pid: Pid,
    dispatch: u64,
    effect: u32,
}

/// A deferred notification: deliver `event` at `time`, ordered by
/// `(time, tag)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct TimedEntry {
    time: Time,
    tag: EffectTag,
    event: EventId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Runnable,
    Waiting { event: EventId, epoch: u64 },
    Done,
}

struct ProcEntry {
    name: String,
    rendezvous: Arc<Rendezvous>,
    /// The process's fiber; `None` once it has finished.
    fiber: Option<Fiber>,
    state: ProcState,
    daemon: bool,
    /// Bumped every time the process blocks; stale timeout checks compare
    /// against it.
    wait_epoch: u64,
    /// Total dispatches of this process, the middle component of
    /// [`EffectTag`].
    dispatch_count: u64,
}

/// Deterministic discrete-event simulation kernel.
///
/// See the [crate-level documentation](crate) for the execution model and
/// the [module documentation](self) for the event order.
pub struct Kernel {
    procs: Vec<ProcEntry>,
    queue: BinaryHeap<Reverse<Entry>>,
    /// Deferred notifications ([`SimCtx::notify_after`]), delivered in
    /// canonical `(time, tag)` order.
    timed: BinaryHeap<Reverse<TimedEntry>>,
    /// Waiters per event, in registration order.
    waiters: HashMap<EventId, Vec<Pid>>,
    clock: Arc<SharedClock>,
    effects: Arc<SideEffects>,
    directory: Arc<Directory>,
    seq: u64,
    stats: KernelStats,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Create an empty kernel at virtual time zero.
    pub fn new() -> Self {
        Kernel {
            procs: Vec::new(),
            queue: BinaryHeap::with_capacity(INITIAL_QUEUE_CAPACITY),
            timed: BinaryHeap::new(),
            waiters: HashMap::new(),
            clock: Arc::new(SharedClock::new()),
            effects: Arc::new(SideEffects::default()),
            directory: Arc::new(Directory::default()),
            seq: 0,
            stats: KernelStats::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.clock.now.load(Ordering::Acquire)
    }

    /// Statistics for the run so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Allocate a fresh event token from outside the simulation.
    pub fn alloc_event(&self) -> EventId {
        EventId(self.clock.next_event_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Spawn a simulated process; it becomes runnable at the current
    /// virtual time. Returns its [`Pid`].
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(SimCtx) + Send + 'static,
    {
        self.spawn_inner(name.into(), Box::new(body), false, None)
    }

    /// Spawn a *daemon* process: the simulation is considered complete
    /// once every non-daemon process has finished, even if daemons are
    /// still blocked or have pending events.
    pub fn spawn_daemon<F>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(SimCtx) + Send + 'static,
    {
        self.spawn_inner(name.into(), Box::new(body), true, None)
    }

    fn spawn_inner(
        &mut self,
        name: String,
        body: Box<dyn FnOnce(SimCtx) + Send + 'static>,
        daemon: bool,
        reserved: Option<Pid>,
    ) -> Pid {
        // Pids are allocated by the shared directory so runtime spawns
        // (which reserve before the kernel materializes them) stay
        // aligned with the kernel's process table.
        let pid = reserved.unwrap_or_else(|| self.directory.reserve(self.alloc_event()));
        debug_assert_eq!(pid, self.procs.len(), "directory/kernel pid skew");
        let rendezvous = Arc::new(Rendezvous::default());
        let ctx = SimCtx {
            pid,
            name: name.clone(),
            rendezvous: Arc::clone(&rendezvous),
            clock: Arc::clone(&self.clock),
            effects: Arc::clone(&self.effects),
            directory: Arc::clone(&self.directory),
        };
        self.procs.push(ProcEntry {
            name,
            rendezvous,
            fiber: Some(process_fiber(ctx, body)),
            state: ProcState::Runnable,
            daemon,
            wait_epoch: 0,
            dispatch_count: 0,
        });
        self.stats.processes_spawned += 1;
        // Pre-size ahead of demand: each process typically keeps at most
        // a resume plus a timeout in flight.
        let want = self.procs.len() * 2;
        if self.queue.capacity() < want {
            self.queue.reserve(want - self.queue.len());
        }
        let now = self.now();
        self.push(now, QueueItem::Resume(pid, ResumeKind::Scheduled));
        pid
    }

    /// Notify an event from outside the simulation (e.g. test drivers).
    /// Waiters are woken at the current virtual time.
    pub fn notify(&mut self, event: EventId) {
        self.deliver_notification(event);
    }

    /// Has the process finished?
    pub fn is_done(&self, pid: Pid) -> bool {
        self.procs[pid].state == ProcState::Done
    }

    /// Name of a process.
    pub fn process_name(&self, pid: Pid) -> &str {
        &self.procs[pid].name
    }

    fn push(&mut self, time: Time, item: QueueItem) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(Entry { time, seq, item }));
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(self.queue.len() as u64);
    }

    fn deliver_notification(&mut self, event: EventId) {
        if let Some(waiters) = self.waiters.remove(&event) {
            let now = self.now();
            for pid in waiters {
                // The waiter's epoch advances so stale timeout checks
                // become no-ops.
                self.procs[pid].wait_epoch += 1;
                self.procs[pid].state = ProcState::Runnable;
                self.stats.notifications_delivered += 1;
                self.push(now, QueueItem::Resume(pid, ResumeKind::Notified));
            }
        }
    }

    fn drain_side_effects(&mut self, pid: Pid) {
        let effects = Arc::clone(&self.effects);
        let dispatch = self.procs[pid].dispatch_count;
        let now = self.now();
        // Notifications first: a process that notified an event during its
        // slice wakes waiters *registered before its slice*; its own
        // subsequent wait (handled by the caller) is not self-woken.
        let mut effect_idx = 0u32;
        loop {
            let next = effects.notifications.lock().pop_front();
            match next {
                Some((event, 0)) => self.deliver_notification(event),
                Some((event, dt)) => {
                    self.timed.push(Reverse(TimedEntry {
                        time: now.saturating_add(dt),
                        tag: EffectTag {
                            pid,
                            dispatch,
                            effect: effect_idx,
                        },
                        event,
                    }));
                }
                None => break,
            }
            effect_idx += 1;
        }
        loop {
            let next = effects.spawns.lock().pop_front();
            match next {
                Some((name, body, child)) => {
                    self.spawn_inner(name, body, false, Some(child));
                }
                None => break,
            }
        }
    }

    fn all_non_daemons_done(&self) -> bool {
        self.procs
            .iter()
            .all(|p| p.daemon || p.state == ProcState::Done)
    }

    fn blocked_names(&self) -> Vec<String> {
        self.procs
            .iter()
            .filter(|p| matches!(p.state, ProcState::Waiting { .. }) && !p.daemon)
            .map(|p| p.name.clone())
            .collect()
    }

    /// Run the simulation until all non-daemon processes complete.
    pub fn run(&mut self) -> Result<(), SimError> {
        match self.run_until(Time::MAX)? {
            RunOutcome::Completed => Ok(()),
            RunOutcome::Horizon => unreachable!("horizon is Time::MAX"),
        }
    }

    /// Run the simulation until all non-daemon processes complete or the
    /// virtual clock would pass `horizon`.
    pub fn run_until(&mut self, horizon: Time) -> Result<RunOutcome, SimError> {
        loop {
            if self.all_non_daemons_done() && !self.procs.is_empty() {
                return Ok(RunOutcome::Completed);
            }
            // Next source: the timed-notification heap or the event queue;
            // timed deliveries win ties so a wakeup at time t precedes the
            // seq-ordered entries it creates at t.
            let take_timed = match (self.timed.peek(), self.queue.peek()) {
                (Some(Reverse(t)), Some(Reverse(q))) => t.time <= q.time,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => {
                    if self.all_non_daemons_done() {
                        return Ok(RunOutcome::Completed);
                    }
                    return Err(SimError::Deadlock(DeadlockInfo {
                        at: self.now(),
                        blocked: self.blocked_names(),
                    }));
                }
            };
            if take_timed {
                let time = self.timed.peek().map(|Reverse(t)| t.time).expect("peeked");
                if time > horizon {
                    self.clock.now.store(horizon, Ordering::Release);
                    return Ok(RunOutcome::Horizon);
                }
                let Reverse(te) = self.timed.pop().expect("peeked");
                self.clock.now.store(te.time, Ordering::Release);
                self.deliver_notification(te.event);
                continue;
            }
            let Reverse(entry) = self.queue.pop().expect("peeked");
            if entry.time > horizon {
                // Not consumed: push back so a later run_until can resume.
                self.queue.push(Reverse(entry));
                self.clock.now.store(horizon, Ordering::Release);
                return Ok(RunOutcome::Horizon);
            }
            debug_assert!(entry.time >= self.now(), "time went backwards");
            self.clock.now.store(entry.time, Ordering::Release);
            match entry.item {
                QueueItem::Timeout(pid, epoch) => {
                    let stale = self.procs[pid].wait_epoch != epoch
                        || !matches!(self.procs[pid].state, ProcState::Waiting { .. });
                    if stale {
                        continue;
                    }
                    if let ProcState::Waiting { event, .. } = self.procs[pid].state {
                        if let Some(ws) = self.waiters.get_mut(&event) {
                            ws.retain(|&w| w != pid);
                            if ws.is_empty() {
                                self.waiters.remove(&event);
                            }
                        }
                    }
                    self.procs[pid].wait_epoch += 1;
                    self.procs[pid].state = ProcState::Runnable;
                    self.dispatch(pid, ResumeKind::TimedOut)?;
                }
                QueueItem::Resume(pid, kind) => {
                    if self.procs[pid].state == ProcState::Done {
                        continue;
                    }
                    self.dispatch(pid, kind)?;
                }
            }
        }
    }

    /// Resume `pid` until it yields, then apply side effects and the
    /// yield reason.
    fn dispatch(&mut self, pid: Pid, kind: ResumeKind) -> Result<(), SimError> {
        self.stats.events_dispatched += 1;
        let p = &mut self.procs[pid];
        p.dispatch_count += 1;
        let reason = p
            .rendezvous
            .resume(&mut p.fiber, kind)
            .expect("process yielded without a reason");
        self.drain_side_effects(pid);
        let now = self.now();
        match reason {
            YieldReason::Advance(dt) => {
                self.push(now.saturating_add(dt), QueueItem::Resume(pid, ResumeKind::Scheduled));
            }
            YieldReason::YieldNow => {
                self.push(now, QueueItem::Resume(pid, ResumeKind::Scheduled));
            }
            YieldReason::Wait(event) => {
                let epoch = self.procs[pid].wait_epoch;
                self.procs[pid].state = ProcState::Waiting { event, epoch };
                self.waiters.entry(event).or_default().push(pid);
            }
            YieldReason::WaitTimeout(event, dt) => {
                let epoch = self.procs[pid].wait_epoch;
                self.procs[pid].state = ProcState::Waiting { event, epoch };
                self.waiters.entry(event).or_default().push(pid);
                self.push(now.saturating_add(dt), QueueItem::Timeout(pid, epoch));
            }
            YieldReason::Done => {
                self.procs[pid].state = ProcState::Done;
                let completion = self.directory.mark_finished(pid);
                self.deliver_notification(completion);
            }
            YieldReason::Panicked(message) => {
                self.procs[pid].state = ProcState::Done;
                let completion = self.directory.mark_finished(pid);
                self.deliver_notification(completion);
                let name = self.procs[pid].name.clone();
                return Err(SimError::ProcessPanicked { name, message });
            }
        }
        Ok(())
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        // Resume every unfinished fiber (blocked, suspended past a
        // horizon, or never started) with `Killed`, so its stack unwinds
        // and drops what it holds before the stack is freed.
        self.clock.shutting_down.store(true, Ordering::Release);
        for proc in &mut self.procs {
            proc.rendezvous.resume(&mut proc.fiber, ResumeKind::Killed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering as AOrd};
    use std::sync::Arc;

    #[test]
    fn empty_kernel_completes() {
        let mut k = Kernel::new();
        assert!(k.run().is_ok());
        assert_eq!(k.now(), 0);
    }

    #[test]
    fn single_process_advances_time() {
        let mut k = Kernel::new();
        k.spawn("p", |ctx| {
            ctx.advance(10);
            ctx.advance(32);
        });
        k.run().unwrap();
        assert_eq!(k.now(), 42);
    }

    #[test]
    fn notify_wakes_waiter_at_notifier_time() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        k.spawn("waiter", move |ctx| {
            ctx.wait(e);
            seen2.store(ctx.now(), AOrd::SeqCst);
        });
        k.spawn("notifier", move |ctx| {
            ctx.advance(777);
            ctx.notify(e);
        });
        k.run().unwrap();
        assert_eq!(seen.load(AOrd::SeqCst), 777);
    }

    #[test]
    fn notify_after_delivers_at_future_time() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        k.spawn("waiter", move |ctx| {
            ctx.wait(e);
            seen2.store(ctx.now(), AOrd::SeqCst);
        });
        k.spawn("notifier", move |ctx| {
            ctx.advance(100);
            ctx.notify_after(e, 50);
            // Notifier finishes at 100; delivery still happens at 150.
        });
        k.run().unwrap();
        assert_eq!(seen.load(AOrd::SeqCst), 150);
        assert_eq!(k.now(), 150);
    }

    #[test]
    fn notify_after_zero_behaves_like_notify() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let seen = Arc::new(AtomicU64::new(u64::MAX));
        let seen2 = Arc::clone(&seen);
        k.spawn("waiter", move |ctx| {
            ctx.wait(e);
            seen2.store(ctx.now(), AOrd::SeqCst);
        });
        k.spawn("notifier", move |ctx| {
            ctx.advance(5);
            ctx.notify_after(e, 0);
        });
        k.run().unwrap();
        assert_eq!(seen.load(AOrd::SeqCst), 5);
    }

    #[test]
    fn wait_timeout_fires_without_notification() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let fired = Arc::new(AtomicU64::new(99));
        let f = Arc::clone(&fired);
        k.spawn("p", move |ctx| {
            let ok = ctx.wait_timeout(e, 50);
            f.store(u64::from(ok), AOrd::SeqCst);
            assert_eq!(ctx.now(), 50);
        });
        k.run().unwrap();
        assert_eq!(fired.load(AOrd::SeqCst), 0);
    }

    #[test]
    fn wait_timeout_notified_before_deadline() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        let fired = Arc::new(AtomicU64::new(99));
        let f = Arc::clone(&fired);
        k.spawn("p", move |ctx| {
            let ok = ctx.wait_timeout(e, 5_000);
            f.store(u64::from(ok), AOrd::SeqCst);
            assert_eq!(ctx.now(), 10);
        });
        k.spawn("n", move |ctx| {
            ctx.advance(10);
            ctx.notify(e);
        });
        k.run().unwrap();
        assert_eq!(fired.load(AOrd::SeqCst), 1);
    }

    #[test]
    fn deadlock_is_detected_and_named() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        k.spawn("stuck", move |ctx| {
            ctx.wait(e);
        });
        match k.run() {
            Err(SimError::Deadlock(info)) => {
                assert_eq!(info.blocked, vec!["stuck".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn daemon_does_not_block_completion() {
        let mut k = Kernel::new();
        let e = k.alloc_event();
        k.spawn_daemon("idle", move |ctx| {
            ctx.wait(e); // never notified
        });
        k.spawn("work", |ctx| ctx.advance(5));
        k.run().unwrap();
        assert_eq!(k.now(), 5);
    }

    #[test]
    fn process_panic_is_reported() {
        let mut k = Kernel::new();
        k.spawn("bad", |_ctx| panic!("boom"));
        match k.run() {
            Err(SimError::ProcessPanicked { name, message }) => {
                assert_eq!(name, "bad");
                assert!(message.contains("boom"));
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn runtime_spawn_runs_child() {
        let mut k = Kernel::new();
        let sum = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&sum);
        k.spawn("parent", move |ctx| {
            ctx.advance(3);
            let s2 = Arc::clone(&s);
            ctx.spawn("child", move |c| {
                c.advance(4);
                s2.store(c.now(), AOrd::SeqCst);
            });
            ctx.advance(100);
        });
        k.run().unwrap();
        assert_eq!(sum.load(AOrd::SeqCst), 7);
    }

    #[test]
    fn join_waits_for_child() {
        let mut k = Kernel::new();
        k.spawn("parent", |ctx| {
            let child = ctx.spawn("child", |c| {
                c.advance(500);
            });
            ctx.join(child);
            assert_eq!(ctx.now(), 500);
        });
        k.run().unwrap();
    }

    #[test]
    fn join_on_finished_process_returns_immediately() {
        let mut k = Kernel::new();
        k.spawn("parent", |ctx| {
            let child = ctx.spawn("quick", |_c| {});
            ctx.advance(1_000); // child finishes long before the join
            let before = ctx.now();
            ctx.join(child);
            assert_eq!(ctx.now(), before);
        });
        k.run().unwrap();
    }

    #[test]
    fn join_multiple_children_in_any_order() {
        let mut k = Kernel::new();
        k.spawn("parent", |ctx| {
            let slow = ctx.spawn("slow", |c| c.advance(900));
            let fast = ctx.spawn("fast", |c| c.advance(100));
            ctx.join(slow);
            ctx.join(fast);
            assert_eq!(ctx.now(), 900);
        });
        k.run().unwrap();
    }

    #[test]
    fn horizon_pauses_and_resumes() {
        let mut k = Kernel::new();
        k.spawn("p", |ctx| {
            ctx.advance(100);
            ctx.advance(100);
        });
        assert_eq!(k.run_until(150).unwrap(), RunOutcome::Horizon);
        assert_eq!(k.now(), 150);
        assert_eq!(k.run_until(1_000).unwrap(), RunOutcome::Completed);
        assert_eq!(k.now(), 200);
    }

    #[test]
    fn same_time_events_dispatch_in_fifo_order() {
        let mut k = Kernel::new();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        for i in 0..8 {
            let o = Arc::clone(&order);
            k.spawn(format!("p{i}"), move |ctx| {
                ctx.advance(10);
                o.lock().push(i);
            });
        }
        k.run().unwrap();
        assert_eq!(*order.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn determinism_two_runs_identical_stats() {
        fn run_once() -> (Time, KernelStats) {
            let mut k = Kernel::new();
            let e = k.alloc_event();
            for i in 0..10u64 {
                k.spawn(format!("w{i}"), move |ctx| {
                    ctx.advance(i * 7 + 1);
                    ctx.notify(e);
                    ctx.advance(3);
                });
            }
            k.spawn("collector", move |ctx| {
                for _ in 0..10 {
                    ctx.wait(e);
                }
            });
            k.run().unwrap();
            (k.now(), k.stats())
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn dropping_the_kernel_unwinds_suspended_and_unstarted_processes() {
        let held = Arc::new(());
        let mut k = Kernel::new();
        let never = k.alloc_event();
        let h = Arc::clone(&held);
        k.spawn_daemon("blocked", move |ctx| {
            let _held = h;
            ctx.wait(never);
        });
        let h = Arc::clone(&held);
        k.spawn("suspended", move |ctx| {
            let _held = h;
            ctx.advance(1_000);
        });
        assert_eq!(k.run_until(500).unwrap(), RunOutcome::Horizon);
        let h = Arc::clone(&held);
        k.spawn("unstarted", move |_ctx| drop(h));
        assert_eq!(Arc::strong_count(&held), 4);
        drop(k);
        assert_eq!(Arc::strong_count(&held), 1);
    }

    #[test]
    fn max_queue_depth_is_tracked() {
        let mut k = Kernel::new();
        for i in 0..16 {
            k.spawn(format!("p{i}"), |ctx| ctx.advance(1));
        }
        k.run().unwrap();
        let depth = k.stats().max_queue_depth;
        assert!(depth >= 16, "expected at least 16, got {depth}");
    }
}
