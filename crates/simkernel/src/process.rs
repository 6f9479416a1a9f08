//! Simulated processes and the [`SimCtx`] handle they run against.
//!
//! A simulated process is a fiber that cooperates with the kernel in
//! strict lock-step: the kernel resumes it, the process runs until it
//! needs virtual time to pass (or an event to fire), then it yields back.
//! Only one process executes at any instant and the dispatch order is
//! fully determined by virtual time, which is what makes the simulation
//! deterministic.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use embera_fiber::{fiber_yield, Fiber, Resume};
use parking_lot::Mutex;

use crate::Time;

/// Stack size of a process fiber: the default stack of a spawned Rust
/// thread. Heap stacks are committed lazily, so only the pages a process
/// touches become resident.
const PROCESS_STACK_BYTES: usize = 2 * 1024 * 1024;

/// Identifier of a simulated process.
pub type Pid = usize;

/// An event token processes can wait on and notify.
///
/// Events are cheap: allocating one just bumps a counter. The kernel keeps
/// the waiter bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub(crate) u64);

/// Why the kernel resumed a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeKind {
    /// `advance` completed, or initial start, or a plain yield.
    Scheduled,
    /// The event the process was waiting on was notified.
    Notified,
    /// A `wait_timeout` deadline fired before the event was notified.
    TimedOut,
    /// The kernel is shutting down; the process must unwind.
    Killed,
}

/// What a process reports back to the kernel when it yields.
#[derive(Debug)]
pub(crate) enum YieldReason {
    /// Resume me after `dt` virtual nanoseconds.
    Advance(Time),
    /// Block me until `event` is notified.
    Wait(EventId),
    /// Block me until `event` is notified or `dt` elapses.
    WaitTimeout(EventId, Time),
    /// Reschedule me at the current time, after already-queued events.
    YieldNow,
    /// The process body returned.
    Done,
    /// The process body panicked with this message.
    Panicked(String),
}

/// Two-slot hand-off between the kernel and one process fiber: the
/// kernel puts the resume kind in and resumes the fiber; the process
/// takes the kind out, runs, puts its yield reason in and yields back.
#[derive(Default)]
pub(crate) struct Rendezvous {
    resume: Mutex<Option<ResumeKind>>,
    yielded: Mutex<Option<YieldReason>>,
}

impl Rendezvous {
    /// Kernel side: run the process in `slot` until it yields or
    /// finishes, and return what it reported. The slot is emptied once
    /// the fiber finishes. The fiber is out of the slot while it runs,
    /// so a fiber whose resume panics (stack canary) is freed, never
    /// resumed again. `None` means the process ended without a report:
    /// it was killed, or the slot was already empty.
    pub(crate) fn resume(&self, slot: &mut Option<Fiber>, kind: ResumeKind) -> Option<YieldReason> {
        let mut fiber = slot.take()?;
        *self.resume.lock() = Some(kind);
        if fiber.resume() == Resume::Yielded {
            *slot = Some(fiber);
        }
        self.yielded.lock().take()
    }

    /// Process side: publish a yield reason, switch back to the kernel,
    /// and return the kind the kernel resumed us with.
    fn yield_to_kernel(&self, reason: YieldReason) -> ResumeKind {
        *self.yielded.lock() = Some(reason);
        fiber_yield();
        self.take_resume()
    }

    fn take_resume(&self) -> ResumeKind {
        self.resume
            .lock()
            .take()
            .expect("process resumed without a resume kind")
    }
}

/// Side-effect queues the running process fills and the kernel drains
/// after each yield. One instance per kernel: only one process runs at a
/// time, so the queues hold exactly the effects of the current slice.
/// Notifications carry a delivery delay: `0` means "wake current waiters
/// when this slice ends" (the classic [`SimCtx::notify`]), a positive
/// delay defers delivery onto the kernel's timed-notification queue
/// ([`SimCtx::notify_after`]).
#[derive(Default)]
pub(crate) struct SideEffects {
    pub(crate) notifications: Mutex<VecDeque<(EventId, Time)>>,
    #[allow(clippy::type_complexity)]
    pub(crate) spawns:
        Mutex<VecDeque<(String, Box<dyn FnOnce(SimCtx) + Send + 'static>, Pid)>>,
}

/// Shared process directory: pid allocation, completion events and
/// finished flags — the state behind [`SimCtx::join`].
#[derive(Default)]
pub(crate) struct Directory {
    entries: Mutex<Vec<DirEntry>>,
}

pub(crate) struct DirEntry {
    pub(crate) finished: bool,
    pub(crate) completion: EventId,
}

impl Directory {
    /// Reserve the next pid, recording its completion event.
    pub(crate) fn reserve(&self, completion: EventId) -> Pid {
        let mut entries = self.entries.lock();
        entries.push(DirEntry {
            finished: false,
            completion,
        });
        entries.len() - 1
    }

    pub(crate) fn mark_finished(&self, pid: Pid) -> EventId {
        let mut entries = self.entries.lock();
        entries[pid].finished = true;
        entries[pid].completion
    }

    pub(crate) fn is_finished(&self, pid: Pid) -> bool {
        self.entries.lock()[pid].finished
    }

    pub(crate) fn completion(&self, pid: Pid) -> EventId {
        self.entries.lock()[pid].completion
    }
}

/// Shared, lock-free view of kernel state readable from processes.
pub(crate) struct SharedClock {
    pub(crate) now: AtomicU64,
    pub(crate) next_event_id: AtomicU64,
    pub(crate) shutting_down: AtomicBool,
}

impl SharedClock {
    pub(crate) fn new() -> Self {
        SharedClock {
            now: AtomicU64::new(0),
            next_event_id: AtomicU64::new(0),
            shutting_down: AtomicBool::new(false),
        }
    }
}

/// Payload that unwinds a process fiber when the kernel kills it.
pub(crate) struct KilledToken;

/// Handle through which a simulated process interacts with the kernel.
///
/// All blocking operations (`advance`, `wait`, …) transfer control to the
/// kernel and only return once the kernel schedules this process again.
/// If the kernel is dropped mid-simulation the blocking call unwinds the
/// process fiber; user code never observes this (the unwind is caught at
/// the process boundary).
pub struct SimCtx {
    pub(crate) pid: Pid,
    pub(crate) name: String,
    pub(crate) rendezvous: Arc<Rendezvous>,
    pub(crate) clock: Arc<SharedClock>,
    pub(crate) effects: Arc<SideEffects>,
    pub(crate) directory: Arc<Directory>,
}

impl SimCtx {
    /// This process's identifier.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// This process's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Time {
        self.clock.now.load(Ordering::Acquire)
    }

    /// Allocate a fresh event token. Never blocks.
    pub fn alloc_event(&self) -> EventId {
        EventId(self.clock.next_event_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Queue a notification for `event`. All processes currently waiting
    /// on it are woken (at the current virtual time) once this process
    /// next yields. Never blocks and never wakes the caller itself.
    pub fn notify(&self, event: EventId) {
        self.effects.notifications.lock().push_back((event, 0));
    }

    /// Queue a notification for `event` to be delivered `dt` virtual
    /// nanoseconds from now. Waiters registered at delivery time are
    /// woken then. Deliveries due at the same time are applied in the
    /// order of the process that queued them, then of its dispatch, then
    /// of the call within that dispatch.
    pub fn notify_after(&self, event: EventId, dt: Time) {
        self.effects.notifications.lock().push_back((event, dt));
    }

    /// Let `dt` nanoseconds of virtual time pass.
    pub fn advance(&self, dt: Time) {
        self.do_yield(YieldReason::Advance(dt));
    }

    /// Yield the processor, re-queueing this process at the current time
    /// *after* all already-scheduled same-time events. Lets same-time
    /// peers run.
    pub fn yield_now(&self) {
        self.do_yield(YieldReason::YieldNow);
    }

    /// Block until `event` is notified.
    pub fn wait(&self, event: EventId) {
        let kind = self.do_yield(YieldReason::Wait(event));
        debug_assert_eq!(kind, ResumeKind::Notified);
    }

    /// Block until `event` is notified or `dt` nanoseconds pass.
    /// Returns `true` if the event fired, `false` on timeout.
    pub fn wait_timeout(&self, event: EventId, dt: Time) -> bool {
        match self.do_yield(YieldReason::WaitTimeout(event, dt)) {
            ResumeKind::Notified => true,
            ResumeKind::TimedOut => false,
            other => unreachable!("unexpected resume {other:?}"),
        }
    }

    /// Spawn a new simulated process. It becomes runnable at the current
    /// virtual time, after already-queued same-time events. Returns its
    /// [`Pid`], usable with [`SimCtx::join`].
    pub fn spawn<F>(&self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(SimCtx) + Send + 'static,
    {
        let pid = self.directory.reserve(self.alloc_event());
        self.effects
            .spawns
            .lock()
            .push_back((name.into(), Box::new(body), pid));
        pid
    }

    /// Block until process `pid` finishes (immediately returns if it
    /// already has).
    ///
    /// ```
    /// use sim_kernel::Kernel;
    ///
    /// let mut kernel = Kernel::new();
    /// kernel.spawn("parent", |ctx| {
    ///     let child = ctx.spawn("child", |c| c.advance(250));
    ///     ctx.join(child);
    ///     assert_eq!(ctx.now(), 250);
    /// });
    /// kernel.run().unwrap();
    /// ```
    pub fn join(&self, pid: Pid) {
        loop {
            if self.directory.is_finished(pid) {
                return;
            }
            let completion = self.directory.completion(pid);
            self.wait(completion);
        }
    }

    fn do_yield(&self, reason: YieldReason) -> ResumeKind {
        if self.clock.shutting_down.load(Ordering::Acquire) {
            resume_unwind(Box::new(KilledToken));
        }
        let kind = self.rendezvous.yield_to_kernel(reason);
        if kind == ResumeKind::Killed {
            resume_unwind(Box::new(KilledToken));
        }
        kind
    }
}

/// Create the fiber of one process: on its first resume it runs `body`
/// under `catch_unwind` and reports how it ended. A process killed before
/// it ever ran, or while suspended, ends without a report.
pub(crate) fn process_fiber(ctx: SimCtx, body: Box<dyn FnOnce(SimCtx) + Send + 'static>) -> Fiber {
    Fiber::spawn(PROCESS_STACK_BYTES, move || {
        let rendezvous = Arc::clone(&ctx.rendezvous);
        if rendezvous.take_resume() == ResumeKind::Killed {
            return;
        }
        let reason = match catch_unwind(AssertUnwindSafe(move || body(ctx))) {
            Ok(()) => YieldReason::Done,
            Err(payload) if payload.is::<KilledToken>() => return,
            Err(payload) => YieldReason::Panicked(payload_to_string(&*payload)),
        };
        *rendezvous.yielded.lock() = Some(reason);
    })
}

fn payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}
