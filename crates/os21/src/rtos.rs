//! The RTOS instance: per-CPU cooperative scheduling and the task table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use sim_kernel::{Kernel, Pid, Time};

use mpsoc_sim::{CpuId, Machine};

use crate::task::TaskCtx;

/// Public information about a spawned task.
#[derive(Debug, Clone)]
pub struct TaskInfo {
    /// Task name.
    pub name: String,
    /// CPU the task is pinned to.
    pub cpu: CpuId,
    /// Priority (API fidelity only; the scheduler is cooperative).
    pub priority: i32,
    /// Simulation process id backing the task.
    pub pid: Pid,
    /// Configured stack size in bytes (OS21 tasks have fixed stacks).
    pub stack_bytes: u64,
}

pub(crate) struct CpuSched {
    /// Virtual time until which the CPU's pipeline is occupied; compute
    /// segments of same-CPU tasks serialize through it.
    pub(crate) busy_until: AtomicU64,
    /// Total CPU time consumed on this core (ns).
    pub(crate) busy_ns: AtomicU64,
}

struct RtosInner {
    machine: Machine,
    cpus: Vec<CpuSched>,
    tasks: Mutex<Vec<TaskInfo>>,
    /// Per-task accumulated CPU time, keyed by task name.
    task_time: Mutex<HashMap<String, Arc<AtomicU64>>>,
}

/// An OS21-like RTOS instance over a simulated machine.
///
/// Cloneable; all clones share the same scheduler state.
#[derive(Clone)]
pub struct Rtos {
    inner: Arc<RtosInner>,
}

impl Rtos {
    /// Boot the RTOS on `machine`.
    pub fn new(machine: Machine) -> Self {
        let ncpus = machine.config().num_cpus();
        Rtos {
            inner: Arc::new(RtosInner {
                machine,
                cpus: (0..ncpus)
                    .map(|_| CpuSched {
                        busy_until: AtomicU64::new(0),
                        busy_ns: AtomicU64::new(0),
                    })
                    .collect(),
                tasks: Mutex::new(Vec::new()),
                task_time: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// The underlying machine.
    pub fn machine(&self) -> &Machine {
        &self.inner.machine
    }

    /// Spawn a task pinned to `cpu`. The body receives a [`TaskCtx`]
    /// exposing the OS21-flavoured API. Default stack: 16 KiB, matching
    /// typical OS21 task creation on the ST231.
    pub fn spawn_task<F>(
        &self,
        kernel: &mut Kernel,
        cpu: CpuId,
        name: impl Into<String>,
        priority: i32,
        body: F,
    ) -> TaskInfo
    where
        F: FnOnce(TaskCtx) + Send + 'static,
    {
        self.spawn_task_with_stack(kernel, cpu, name, priority, 16 * 1024, body)
    }

    /// Spawn a task with an explicit stack size.
    pub fn spawn_task_with_stack<F>(
        &self,
        kernel: &mut Kernel,
        cpu: CpuId,
        name: impl Into<String>,
        priority: i32,
        stack_bytes: u64,
        body: F,
    ) -> TaskInfo
    where
        F: FnOnce(TaskCtx) + Send + 'static,
    {
        let name = name.into();
        assert!(
            cpu < self.inner.cpus.len(),
            "CPU {cpu} out of range (machine has {})",
            self.inner.cpus.len()
        );
        let cpu_time = Arc::new(AtomicU64::new(0));
        self.inner
            .task_time
            .lock()
            .insert(name.clone(), Arc::clone(&cpu_time));
        let rtos = self.clone();
        let task_name = name.clone();
        let pid = kernel.spawn(name.clone(), move |ctx| {
            let tctx = TaskCtx::new(ctx, rtos, cpu, task_name, cpu_time);
            body(tctx);
        });
        let info = TaskInfo {
            name,
            cpu,
            priority,
            pid,
            stack_bytes,
        };
        self.inner.tasks.lock().push(info.clone());
        info
    }

    /// All tasks spawned so far.
    pub fn tasks(&self) -> Vec<TaskInfo> {
        self.inner.tasks.lock().clone()
    }

    /// Accumulated CPU time (ns) of a task, by name — the external view
    /// of OS21's `task_time` (used by observers outside the task).
    pub fn task_time_ns(&self, name: &str) -> Option<Time> {
        self.inner
            .task_time
            .lock()
            .get(name)
            .map(|t| t.load(Ordering::Acquire))
    }

    /// Total CPU time consumed on `cpu` (ns).
    pub fn cpu_busy_ns(&self, cpu: CpuId) -> Time {
        self.inner.cpus[cpu].busy_ns.load(Ordering::Acquire)
    }

    pub(crate) fn sched(&self, cpu: CpuId) -> &CpuSched {
        &self.inner.cpus[cpu]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpsoc_sim::ComputeClass;

    #[test]
    fn tasks_register_in_table() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        rtos.spawn_task(&mut kernel, 0, "host", 0, |_t| {});
        rtos.spawn_task(&mut kernel, 1, "acc", 5, |_t| {});
        kernel.run().unwrap();
        let tasks = rtos.tasks();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].cpu, 0);
        assert_eq!(tasks[1].priority, 5);
    }

    #[test]
    fn same_cpu_compute_serializes() {
        // Two tasks on CPU 1 each needing T of compute must finish at 2T,
        // not T.
        let solo_end = {
            let mut kernel = Kernel::new();
            let rtos = Rtos::new(Machine::sti7200());
            rtos.spawn_task(&mut kernel, 1, "a", 0, |t| {
                t.compute(ComputeClass::Dsp, 1_000_000);
            });
            kernel.run().unwrap();
            kernel.now()
        };
        let duo_end = {
            let mut kernel = Kernel::new();
            let rtos = Rtos::new(Machine::sti7200());
            for n in ["a", "b"] {
                let r = rtos.clone();
                let _ = r;
                rtos.spawn_task(&mut kernel, 1, n, 0, |t| {
                    t.compute(ComputeClass::Dsp, 1_000_000);
                });
            }
            kernel.run().unwrap();
            kernel.now()
        };
        assert!(
            duo_end >= 2 * solo_end - solo_end / 10,
            "same-CPU tasks must serialize: solo={solo_end} duo={duo_end}"
        );
    }

    #[test]
    fn different_cpu_compute_overlaps() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        rtos.spawn_task(&mut kernel, 1, "a", 0, |t| {
            t.compute(ComputeClass::Dsp, 1_000_000);
        });
        rtos.spawn_task(&mut kernel, 2, "b", 0, |t| {
            t.compute(ComputeClass::Dsp, 1_000_000);
        });
        kernel.run().unwrap();
        let solo = {
            let mut k2 = Kernel::new();
            let r2 = Rtos::new(Machine::sti7200());
            r2.spawn_task(&mut k2, 1, "a", 0, |t| {
                t.compute(ComputeClass::Dsp, 1_000_000);
            });
            k2.run().unwrap();
            k2.now()
        };
        assert_eq!(
            kernel.now(),
            solo,
            "different CPUs must run fully in parallel"
        );
    }

    #[test]
    fn task_time_accumulates_only_compute() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200());
        rtos.spawn_task(&mut kernel, 1, "worker", 0, |t| {
            t.delay(1_000_000); // sleep: not CPU time
            t.compute(ComputeClass::Control, 10_000);
        });
        kernel.run().unwrap();
        let cpu_time = rtos.task_time_ns("worker").unwrap();
        assert!(cpu_time > 0);
        assert!(
            cpu_time < kernel.now(),
            "sleep must not count as CPU time: task_time={cpu_time} wall={}",
            kernel.now()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spawning_on_missing_cpu_panics() {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(Machine::sti7200_three_cpu());
        rtos.spawn_task(&mut kernel, 4, "ghost", 0, |_t| {});
    }
}
