//! Deployment of EMBera applications onto the simulated STi7200.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;

use parking_lot::Mutex;
use sim_kernel::{Kernel, KernelStats};

use embera::observe::engine::ObsEngine;
use embera::runtime::ComponentRuntime;
use embera::{
    is_observer_component, AppReport, AppSpec, ComponentStats, EmberaError, Placement, Platform,
    RunningApp, INTROSPECTION,
};
use embx::{EmbxCostConfig, Transport};
use mpsoc_sim::{CpuId, Machine};
use os21::Rtos;

use crate::transport::{AppShared, Endpoint, Os21Transport};

/// Configuration of the MPSoC backend.
#[derive(Debug, Clone)]
pub struct Os21Config {
    /// EMBX cost parameters.
    pub embx: EmbxCostConfig,
    /// Accounted per-task memory, bytes — the paper's "60 kB for the
    /// task data and component structure" (Table 3 discussion).
    pub task_data_bytes: u64,
    /// Accounted bytes per distributed object — the paper's "25 kB for
    /// one distributed object".
    pub object_accounted_bytes: u64,
    /// False disables observation recording and introspection service.
    pub observe: bool,
}

impl Default for Os21Config {
    fn default() -> Self {
        Os21Config {
            embx: EmbxCostConfig::default(),
            task_data_bytes: 60_000,
            object_accounted_bytes: 25_000,
            observe: true,
        }
    }
}

/// The MPSoC platform (paper §5): deploys onto a simulated STi7200.
pub struct Os21Platform {
    machine: Machine,
    config: Os21Config,
}

impl Os21Platform {
    /// Platform over the 3-CPU STi7200 the paper's experiments used
    /// (§5.3: "the software toolset … supports only three processors").
    pub fn three_cpu() -> Self {
        Os21Platform {
            machine: Machine::sti7200_three_cpu(),
            config: Os21Config::default(),
        }
    }

    /// Platform over the full 5-CPU STi7200.
    pub fn five_cpu() -> Self {
        Os21Platform {
            machine: Machine::sti7200(),
            config: Os21Config::default(),
        }
    }

    /// Platform over an explicit machine and configuration.
    pub fn with_machine(machine: Machine, config: Os21Config) -> Self {
        Os21Platform { machine, config }
    }

    /// The simulated machine (for post-run hardware statistics such as
    /// cache misses and bus contention).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }
}

/// A deployed MPSoC application: owns the simulation kernel; the
/// simulation actually runs inside [`RunningApp::wait`].
pub struct Os21Running {
    app_name: String,
    kernel: Kernel,
    machine: Machine,
    rtos: Rtos,
    engines: Vec<(String, ObsEngine)>,
    errors: Arc<Mutex<Vec<(String, EmberaError)>>>,
}

impl Platform for Os21Platform {
    type Running = Os21Running;

    fn deploy(&mut self, spec: AppSpec) -> Result<Os21Running, EmberaError> {
        let mut kernel = Kernel::new();
        let rtos = Rtos::new(self.machine.clone());
        let transport = Transport::open_with_cost(self.machine.clone(), self.config.embx);
        let ncpus = self.machine.config().num_cpus();

        // Resolve placements: explicit CPUs must exist; `Any` lands on
        // the ST40 host (CPU 0), which is where the paper's I/O-ish and
        // auxiliary components live.
        let mut placements: HashMap<String, CpuId> = HashMap::new();
        for c in &spec.components {
            let cpu = match c.placement {
                Placement::Cpu(cpu) => {
                    if cpu >= ncpus {
                        return Err(EmberaError::Validation(format!(
                            "component '{}' placed on CPU {cpu}, machine has {ncpus}",
                            c.name
                        )));
                    }
                    cpu
                }
                Placement::Any => 0,
            };
            placements.insert(c.name.clone(), cpu);
        }

        // Create a distributed object per provided interface.
        let mut endpoints: HashMap<(String, String), Endpoint> = HashMap::new();
        for c in &spec.components {
            let cpu = placements[&c.name];
            for iface in c.provided.iter().map(String::as_str).chain([INTROSPECTION]) {
                let obj = transport
                    .create_object(&kernel, format!("{}::{}", c.name, iface), cpu)
                    .map_err(EmberaError::Platform)?;
                endpoints.insert((c.name.clone(), iface.to_string()), Endpoint::new(obj));
            }
        }

        // Routes.
        let mut routes_by_component: HashMap<String, HashMap<String, Endpoint>> = HashMap::new();
        for conn in &spec.connections {
            let ep = endpoints
                .get(&(conn.to.component.clone(), conn.to.interface.clone()))
                .expect("validated connection endpoint missing")
                .clone();
            routes_by_component
                .entry(conn.from.component.clone())
                .or_default()
                .insert(conn.from.interface.clone(), ep);
        }

        let app_shared = Arc::new(AppShared {
            shutdown: Arc::new(AtomicBool::new(false)),
            remaining: Arc::new(AtomicUsize::new(
                spec.components
                    .iter()
                    .filter(|c| !is_observer_component(&c.name))
                    .count(),
            )),
            activity_events: Arc::new(Mutex::new(Vec::new())),
            errors: Arc::new(Mutex::new(Vec::new())),
        });

        let trace = spec.trace.clone();
        let faults = spec.faults.clone();
        let mut all_engines = Vec::new();
        for c in spec.components {
            let cpu = placements[&c.name];
            let stats = Arc::new(ComponentStats::new(&c.name, &c.provided, &c.required));
            // Table 3 memory formula: task footprint + one object per
            // *data* provided interface.
            stats.set_memory_bytes(
                self.config.task_data_bytes
                    + c.provided.len() as u64 * self.config.object_accounted_bytes,
            );
            let engine = ObsEngine::with_metrics(Arc::clone(&stats), c.metrics.clone());
            all_engines.push((c.name.clone(), engine.clone()));

            // One activity event per component; every provided object
            // notifies it, and shutdown notifies it too.
            let activity = kernel.alloc_event();
            app_shared.activity_events.lock().push(activity);

            let mut provided: HashMap<String, Endpoint> = HashMap::new();
            for iface in c.provided.iter().map(String::as_str).chain([INTROSPECTION]) {
                let ep = endpoints[&(c.name.clone(), iface.to_string())].clone();
                ep.object.add_extra_notify(activity);
                provided.insert(iface.to_string(), ep);
            }
            let routes = routes_by_component.remove(&c.name).unwrap_or_default();

            // Payload home region: the ST231's local memory, or SDRAM on
            // the ST40 (which has no LMI).
            let map = self.machine.memory_map();
            let local_region = map.local_of(cpu).unwrap_or_else(|| map.sdram());

            let behavior = c.behavior;
            let name = c.name.clone();
            let required = c.required.clone();
            let app = Arc::clone(&app_shared);
            let observe = self.config.observe;
            let is_observer = is_observer_component(&c.name);
            let sink = trace.as_ref().map(|t| t.sink_for(&c.name));
            let stats2 = Arc::clone(&stats);
            let restart = c.restart;
            let overload = c.overload;
            let component_faults = faults.clone();
            rtos.spawn_task(&mut kernel, cpu, c.name.clone(), 0, move |task| {
                let transport = Os21Transport {
                    name: name.clone(),
                    task,
                    provided,
                    routes,
                    stats: stats2,
                    local_region,
                    activity,
                    app,
                    is_observer,
                    mem_cursor: 0,
                };
                let mut runtime =
                    ComponentRuntime::new(name, required, transport, engine, observe, sink);
                runtime.set_restart_policy(restart);
                runtime.set_overload_policy(overload);
                if let Some(plan) = &component_faults {
                    runtime.set_fault_plan(plan);
                }
                runtime.run_to_completion(behavior);
            });
        }

        Ok(Os21Running {
            app_name: spec.name,
            kernel,
            machine: self.machine.clone(),
            rtos,
            engines: all_engines,
            errors: app_shared.errors.clone(),
        })
    }
}

impl Os21Running {
    /// The simulated machine (cache/bus statistics).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The RTOS instance (per-task CPU time).
    pub fn rtos(&self) -> &Rtos {
        &self.rtos
    }
}

impl Os21Running {
    /// Like [`RunningApp::wait`], but also returns the simulation
    /// kernel's statistics — the determinism tests compare these
    /// event-for-event across runs.
    pub fn wait_with_stats(mut self) -> Result<(AppReport, KernelStats), EmberaError> {
        self.kernel
            .run()
            .map_err(|e| EmberaError::Platform(e.to_string()))?;
        let errors = std::mem::take(&mut *self.errors.lock());
        // Aggregate every originating failure; secondary `Terminated`
        // errors from the fail-fast drain rank last.
        embera::supervise::fault_result(errors)?;
        let wall = self.kernel.now();
        let stats = self.kernel.stats();
        let report = AppReport {
            app_name: self.app_name,
            wall_time_ns: wall,
            components: self
                .engines
                .iter()
                .map(|(name, e)| {
                    // Fold in final RTOS CPU time.
                    if let Some(t) = self.rtos.task_time_ns(name) {
                        e.stats().set_cpu_time_ns(t);
                    }
                    e.full_report(wall)
                })
                .collect(),
        };
        Ok((report, stats))
    }
}

impl RunningApp for Os21Running {
    fn wait(self) -> Result<AppReport, EmberaError> {
        self.wait_with_stats().map(|(report, _)| report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use embera::behavior::behavior_fn;
    use embera::{AppBuilder, ComponentSpec, ObserverConfig, Work, WorkClass};

    fn simple_pipeline(n: u32) -> AppBuilder {
        let mut app = AppBuilder::new("sim-pipe");
        app.add(
            ComponentSpec::new(
                "src",
                behavior_fn(move |ctx| {
                    for i in 0..n {
                        ctx.compute(Work::ops(WorkClass::Control, 1_000));
                        ctx.send("out", Bytes::copy_from_slice(&i.to_le_bytes()))?;
                    }
                    Ok(())
                }),
            )
            .with_required("out")
            .on_cpu(0),
        );
        app.add(
            ComponentSpec::new(
                "dst",
                behavior_fn(move |ctx| {
                    for i in 0..n {
                        let b = ctx.recv("in")?;
                        assert_eq!(b.as_ref(), i.to_le_bytes());
                        ctx.compute(Work::ops(WorkClass::Dsp, 10_000));
                    }
                    Ok(())
                }),
            )
            .with_provided("in")
            .on_cpu(1),
        );
        app.connect(("src", "out"), ("dst", "in"));
        app
    }

    #[test]
    fn pipeline_runs_to_completion_in_virtual_time() {
        let running = Os21Platform::three_cpu()
            .deploy(simple_pipeline(50).build().unwrap())
            .unwrap();
        let report = running.wait().unwrap();
        assert!(report.wall_time_ns > 0, "virtual time must advance");
        assert_eq!(report.component("src").unwrap().app.total_sends, 50);
        assert_eq!(report.component("dst").unwrap().app.total_receives, 50);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            Os21Platform::three_cpu()
                .deploy(simple_pipeline(30).build().unwrap())
                .unwrap()
                .wait()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.wall_time_ns, b.wall_time_ns);
        assert_eq!(
            a.component("dst").unwrap().middleware.recv.total_ns,
            b.component("dst").unwrap().middleware.recv.total_ns
        );
    }

    #[test]
    fn memory_follows_table3_formula() {
        let report = Os21Platform::three_cpu()
            .deploy(simple_pipeline(1).build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        // src: no data provided interfaces -> 60 kB task data.
        assert_eq!(report.component("src").unwrap().os.memory_bytes, 60_000);
        // dst: one provided interface -> 60 + 25 kB.
        assert_eq!(report.component("dst").unwrap().os.memory_bytes, 85_000);
    }

    #[test]
    fn placement_out_of_range_rejected() {
        let mut app = AppBuilder::new("bad");
        app.add(ComponentSpec::new("x", behavior_fn(|_| Ok(()))).on_cpu(7));
        match Os21Platform::three_cpu().deploy(app.build().unwrap()) {
            Err(EmberaError::Validation(_)) => {}
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("expected placement validation failure"),
        }
    }

    #[test]
    fn cpu_time_reported_for_compute_heavy_component() {
        let report = Os21Platform::three_cpu()
            .deploy(simple_pipeline(20).build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        let dst = report.component("dst").unwrap();
        assert!(dst.os.cpu_time_ns > 0, "DSP work must accrue CPU time");
        assert!(dst.os.exec_time_ns >= dst.os.cpu_time_ns);
    }

    #[test]
    fn observer_works_on_simulated_mpsoc() {
        let mut app = simple_pipeline(2000);
        let log = app.with_observer(ObserverConfig::default().interval_ns(3_000_000).rounds(10));
        let report = Os21Platform::three_cpu()
            .deploy(app.build().unwrap())
            .unwrap()
            .wait()
            .unwrap();
        assert!(
            !log.is_empty(),
            "observer must collect reports on the MPSoC backend too"
        );
        assert!(report.component("src").is_some());
        let first = &log.records()[0];
        assert!(!first.report.structure.interfaces.is_empty());
    }
}
