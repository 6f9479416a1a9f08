//! # sim-kernel — deterministic discrete-event simulation kernel
//!
//! This crate provides the execution substrate for the simulated STi7200
//! MPSoC used by the EMBera reproduction. It is a *conservative*,
//! fully deterministic discrete-event kernel in which simulated processes
//! are **fibers**: every process runs on its own stack, and the kernel
//! resumes one process at a time on its own thread, the one whose next
//! event fires earliest. Repeated runs of the same simulation therefore
//! produce bit-identical schedules.
//!
//! Virtual time is measured in [`Time`] units (nanoseconds of a global
//! reference clock). Processes interact with the kernel exclusively
//! through a [`SimCtx`] handle:
//!
//! * [`SimCtx::advance`] — consume virtual time,
//! * [`SimCtx::wait`] / [`SimCtx::wait_timeout`] — block on an [`EventId`],
//! * [`SimCtx::notify`] — wake all waiters of an event,
//! * [`SimCtx::spawn`] — create a new simulated process at runtime,
//! * [`SimCtx::now`] — read the virtual clock.
//!
//! Higher layers (the OS21-like RTOS, the EMBX middleware) build
//! semaphores, message queues and interrupt delivery from these
//! primitives.
//!
//! ## Example
//!
//! ```
//! use sim_kernel::Kernel;
//!
//! let mut kernel = Kernel::new();
//! let evt = kernel.alloc_event();
//! kernel.spawn("producer", move |ctx| {
//!     ctx.advance(100);
//!     ctx.notify(evt);
//! });
//! kernel.spawn("consumer", move |ctx| {
//!     ctx.wait(evt);
//!     assert_eq!(ctx.now(), 100);
//! });
//! kernel.run().unwrap();
//! assert_eq!(kernel.now(), 100);
//! ```

pub mod channel;
pub mod error;
pub mod kernel;
pub mod process;

pub use channel::{BoundedSimChannel, LatentChannel, SimChannel};
pub use error::{DeadlockInfo, SimError};
pub use kernel::{Kernel, KernelStats, RunOutcome};
pub use process::{EventId, Pid, ResumeKind, SimCtx};

/// Virtual time, in nanoseconds of the global reference clock.
pub type Time = u64;

/// One microsecond in [`Time`] units.
pub const MICROSECOND: Time = 1_000;
/// One millisecond in [`Time`] units.
pub const MILLISECOND: Time = 1_000_000;
/// One second in [`Time`] units.
pub const SECOND: Time = 1_000_000_000;
