//! The timing decorator: wraps every component's behavior after
//! `AppBuilder::build()` so that each call the behavior makes into its
//! `Ctx` is forwarded to the real `Ctx` and timed. Nothing inside the
//! program changes; the spans are taken from outside, at the component
//! interface, as the paper's middleware-level observation does.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use embera::{
    is_observer_component, AppSpec, Behavior, BufferPool, Ctx, EmberaError, Message, Work,
};

/// Component role a behavior is accounted under: the component name
/// with its lane index dropped (`IDCT_2` → `idct`, `relay417` → `relay`).
pub fn role_of(component: &str) -> String {
    if is_observer_component(component) {
        return "observer".into();
    }
    component
        .trim_end_matches(|c: char| c.is_ascii_digit())
        .trim_end_matches('_')
        .replace('-', "_")
        .to_ascii_lowercase()
}

/// Calls one behavior made into its `Ctx` during one `run()`.
#[derive(Default)]
struct Calls {
    send_ns: u64,
    sends: u64,
    recv_ns: u64,
    recvs: u64,
    /// Every other `Ctx` call (`compute`, `now_ns`, `should_stop`,
    /// `payload_pool`, `route_depth`); `Cell` because several take `&self`.
    other_ns: Cell<u64>,
    others: Cell<u64>,
    /// Duration of each receive, ns (queue wait plus wake-up).
    recv_samples: Vec<u32>,
}

/// A `Ctx` that forwards every method — the defaulted ones included —
/// to the real `Ctx` and times it.
pub struct TimedCtx<'a> {
    inner: &'a mut dyn Ctx,
    calls: Calls,
}

impl<'a> TimedCtx<'a> {
    fn new(inner: &'a mut dyn Ctx) -> Self {
        TimedCtx {
            inner,
            calls: Calls::default(),
        }
    }

    fn sent(&mut self, t: Instant) {
        self.calls.send_ns += t.elapsed().as_nanos() as u64;
        self.calls.sends += 1;
    }

    fn received(&mut self, t: Instant) {
        let ns = t.elapsed().as_nanos() as u64;
        self.calls.recv_ns += ns;
        self.calls.recvs += 1;
        self.calls.recv_samples.push(ns.min(u32::MAX as u64) as u32);
    }

    fn other(&self, t: Instant) {
        let c = &self.calls;
        c.other_ns
            .set(c.other_ns.get() + t.elapsed().as_nanos() as u64);
        c.others.set(c.others.get() + 1);
    }
}

impl Ctx for TimedCtx<'_> {
    fn component(&self) -> &str {
        self.inner.component()
    }

    fn send_message(&mut self, required: &str, msg: Message) -> Result<(), EmberaError> {
        let t = Instant::now();
        let r = self.inner.send_message(required, msg);
        self.sent(t);
        r
    }

    fn recv_message(&mut self, provided: &str) -> Result<Message, EmberaError> {
        let t = Instant::now();
        let r = self.inner.recv_message(provided);
        self.received(t);
        r
    }

    fn recv_message_timeout(
        &mut self,
        provided: &str,
        timeout_ns: u64,
    ) -> Result<Option<Message>, EmberaError> {
        let t = Instant::now();
        let r = self.inner.recv_message_timeout(provided, timeout_ns);
        self.received(t);
        r
    }

    fn compute(&mut self, work: Work) {
        let t = Instant::now();
        self.inner.compute(work);
        self.other(t);
    }

    fn now_ns(&self) -> u64 {
        let t = Instant::now();
        let r = self.inner.now_ns();
        self.other(t);
        r
    }

    fn should_stop(&self) -> bool {
        let t = Instant::now();
        let r = self.inner.should_stop();
        self.other(t);
        r
    }

    fn payload_pool(&self) -> Option<BufferPool> {
        let t = Instant::now();
        let r = self.inner.payload_pool();
        self.other(t);
        r
    }

    fn route_depth(&self, required: &str) -> Option<u64> {
        let t = Instant::now();
        let r = self.inner.route_depth(required);
        self.other(t);
        r
    }

    fn send(&mut self, required: &str, payload: Bytes) -> Result<(), EmberaError> {
        let t = Instant::now();
        let r = self.inner.send(required, payload);
        self.sent(t);
        r
    }

    fn send_deadlined(
        &mut self,
        required: &str,
        payload: Bytes,
        deadline_ns: u64,
    ) -> Result<(), EmberaError> {
        let t = Instant::now();
        let r = self.inner.send_deadlined(required, payload, deadline_ns);
        self.sent(t);
        r
    }

    fn recv(&mut self, provided: &str) -> Result<Bytes, EmberaError> {
        let t = Instant::now();
        let r = self.inner.recv(provided);
        self.received(t);
        r
    }

    fn recv_timeout(
        &mut self,
        provided: &str,
        timeout_ns: u64,
    ) -> Result<Option<Bytes>, EmberaError> {
        let t = Instant::now();
        let r = self.inner.recv_timeout(provided, timeout_ns);
        self.received(t);
        r
    }
}

/// Per-role totals over every component of the role.
#[derive(Debug, Default, Clone)]
pub struct RoleAcc {
    pub run_ns: u64,
    /// Longest single `run()` of the role.
    pub max_run_ns: u64,
    pub send_ns: u64,
    pub sends: u64,
    pub recv_ns: u64,
    pub recvs: u64,
    pub other_ns: u64,
    pub others: u64,
    pub recv_samples: Vec<u32>,
}

impl RoleAcc {
    /// Behavior compute: `run()` time not spent inside `Ctx` calls.
    pub fn self_ns(&self) -> u64 {
        self.run_ns
            .saturating_sub(self.send_ns + self.recv_ns + self.other_ns)
    }

    /// Mean cost of a `Ctx` call other than a receive, ns. Receives
    /// are left out: their time is mostly waiting for a peer.
    pub fn call_ns_per_call(&self) -> f64 {
        (self.send_ns + self.other_ns) as f64 / (self.sends + self.others).max(1) as f64
    }

    pub fn add(&mut self, o: &RoleAcc) {
        self.run_ns += o.run_ns;
        self.max_run_ns = self.max_run_ns.max(o.max_run_ns);
        self.send_ns += o.send_ns;
        self.sends += o.sends;
        self.recv_ns += o.recv_ns;
        self.recvs += o.recvs;
        self.other_ns += o.other_ns;
        self.others += o.others;
        self.recv_samples.extend_from_slice(&o.recv_samples);
    }
}

/// Collects the spans of one decorated application run.
pub struct Tracer {
    epoch: Instant,
    roles: Mutex<BTreeMap<String, RoleAcc>>,
    /// Latest return of an application (non-observer) behavior, ns
    /// after `epoch`.
    last_app_end_ns: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            roles: Mutex::new(BTreeMap::new()),
            last_app_end_ns: AtomicU64::new(0),
        })
    }

    /// Swap every component's behavior for a timing wrapper around it.
    pub fn decorate(self: &Arc<Self>, spec: &mut AppSpec) {
        for c in &mut spec.components {
            let inner = std::mem::replace(&mut c.behavior, Box::new(Vacant));
            c.behavior = Box::new(TimedBehavior {
                inner,
                role: role_of(&c.name),
                app_component: !is_observer_component(&c.name),
                tracer: Arc::clone(self),
            });
        }
    }

    /// When the last application behavior returned.
    pub fn last_app_end(&self) -> Instant {
        self.epoch + std::time::Duration::from_nanos(self.last_app_end_ns.load(Ordering::SeqCst))
    }

    /// The per-role totals collected so far.
    pub fn roles(&self) -> BTreeMap<String, RoleAcc> {
        self.roles.lock().expect("tracer lock poisoned").clone()
    }

    fn merge(&self, role: &str, calls: Calls, run_ns: u64, app_component: bool) {
        if app_component {
            let end = self.epoch.elapsed().as_nanos() as u64;
            self.last_app_end_ns.fetch_max(end, Ordering::SeqCst);
        }
        let mut roles = self.roles.lock().expect("tracer lock poisoned");
        let acc = roles.entry(role.to_string()).or_default();
        acc.add(&RoleAcc {
            run_ns,
            max_run_ns: run_ns,
            send_ns: calls.send_ns,
            sends: calls.sends,
            recv_ns: calls.recv_ns,
            recvs: calls.recvs,
            other_ns: calls.other_ns.get(),
            others: calls.others.get(),
            recv_samples: calls.recv_samples,
        });
    }
}

/// Placeholder left in a spec slot for the instant its behavior moves
/// into the wrapper.
struct Vacant;

impl Behavior for Vacant {
    fn run(&mut self, _ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        unreachable!("decorate() replaces the placeholder before deployment")
    }
}

struct TimedBehavior {
    inner: Box<dyn Behavior>,
    role: String,
    app_component: bool,
    tracer: Arc<Tracer>,
}

impl Behavior for TimedBehavior {
    fn run(&mut self, ctx: &mut dyn Ctx) -> Result<(), EmberaError> {
        let start = Instant::now();
        let mut timed = TimedCtx::new(ctx);
        let r = self.inner.run(&mut timed);
        let run_ns = start.elapsed().as_nanos() as u64;
        self.tracer
            .merge(&self.role, timed.calls, run_ns, self.app_component);
        r
    }
}

/// Check that `TimedCtx` forwards every `Ctx` method to the real one,
/// the defaulted methods included: a method the wrapper forgot would
/// fall back to the trait default, silently turning pooling
/// (`payload_pool`) or overload handling (`route_depth`,
/// `recv_message_timeout`, `should_stop`) off in the traced run.
pub fn check_forwarding() -> Result<(), String> {
    let mut probe = Probe {
        hits: Cell::new(0),
        pool: BufferPool::new(8),
    };
    let pool_len = probe.pool.buf_len();
    let mut t = TimedCtx::new(&mut probe);
    // Every call runs (no short-circuit), so each one registers a hit.
    let values_ok = [
        t.component() == "probe",
        t.send_message("o", Message::Data(Bytes::new())).is_ok(),
        t.recv_message("i").is_ok(),
        matches!(t.recv_message_timeout("i", 1), Ok(Some(_))),
        t.now_ns() == 42,
        t.should_stop(),
        t.payload_pool().map(|p| p.buf_len()) == Some(pool_len),
        t.route_depth("o") == Some(7),
        t.send("o", Bytes::new()).is_ok(),
        t.send_deadlined("o", Bytes::new(), 1).is_ok(),
        t.recv("i").is_ok(),
        matches!(t.recv_timeout("i", 1), Ok(Some(_))),
    ]
    .iter()
    .all(|&ok| ok);
    t.compute(Work::ops(embera::WorkClass::Control, 1));
    let missing: Vec<&str> = Probe::METHODS
        .iter()
        .enumerate()
        .filter(|(i, _)| probe.hits.get() & (1 << i) == 0)
        .map(|(_, m)| *m)
        .collect();
    if !missing.is_empty() {
        Err(format!("TimedCtx does not forward: {}", missing.join(", ")))
    } else if !values_ok {
        Err("a Ctx call through TimedCtx returned the wrong value".into())
    } else {
        Ok(())
    }
}

/// A `Ctx` that records which of its methods were called.
struct Probe {
    hits: Cell<u32>,
    pool: BufferPool,
}

impl Probe {
    const METHODS: [&'static str; 13] = [
        "component",
        "send_message",
        "recv_message",
        "recv_message_timeout",
        "compute",
        "now_ns",
        "should_stop",
        "payload_pool",
        "route_depth",
        "send",
        "send_deadlined",
        "recv",
        "recv_timeout",
    ];

    fn hit(&self, method: &str) {
        let i = Self::METHODS
            .iter()
            .position(|m| *m == method)
            .expect("known method");
        self.hits.set(self.hits.get() | 1 << i);
    }
}

impl Ctx for Probe {
    fn component(&self) -> &str {
        self.hit("component");
        "probe"
    }
    fn send_message(&mut self, _: &str, _: Message) -> Result<(), EmberaError> {
        self.hit("send_message");
        Ok(())
    }
    fn recv_message(&mut self, _: &str) -> Result<Message, EmberaError> {
        self.hit("recv_message");
        Ok(Message::Data(Bytes::new()))
    }
    fn recv_message_timeout(&mut self, _: &str, _: u64) -> Result<Option<Message>, EmberaError> {
        self.hit("recv_message_timeout");
        Ok(Some(Message::Data(Bytes::new())))
    }
    fn compute(&mut self, _: Work) {
        self.hit("compute");
    }
    fn now_ns(&self) -> u64 {
        self.hit("now_ns");
        42
    }
    fn should_stop(&self) -> bool {
        self.hit("should_stop");
        true
    }
    fn payload_pool(&self) -> Option<BufferPool> {
        self.hit("payload_pool");
        Some(self.pool.clone())
    }
    fn route_depth(&self, _: &str) -> Option<u64> {
        self.hit("route_depth");
        Some(7)
    }
    fn send(&mut self, _: &str, _: Bytes) -> Result<(), EmberaError> {
        self.hit("send");
        Ok(())
    }
    fn send_deadlined(&mut self, _: &str, _: Bytes, _: u64) -> Result<(), EmberaError> {
        self.hit("send_deadlined");
        Ok(())
    }
    fn recv(&mut self, _: &str) -> Result<Bytes, EmberaError> {
        self.hit("recv");
        Ok(Bytes::new())
    }
    fn recv_timeout(&mut self, _: &str, _: u64) -> Result<Option<Bytes>, EmberaError> {
        self.hit("recv_timeout");
        Ok(Some(Bytes::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_ctx_forwards_every_method() {
        check_forwarding().unwrap();
    }

    #[test]
    fn roles_drop_lane_indices() {
        assert_eq!(role_of("IDCT_2"), "idct");
        assert_eq!(role_of("relay417"), "relay");
        assert_eq!(role_of("Fetch-Reorder"), "fetch_reorder");
        assert_eq!(role_of("Observer"), "observer");
        assert_eq!(role_of("sink"), "sink");
    }
}
