//! Benchmark-owned implementations of the engine's public traits. Each
//! one forwards to the real implementation and only measures, so the
//! traced pass runs the same program as the plain one:
//!
//! * [`TimedPolicy`] times `map_task` and the steal sequence;
//! * [`wrap_roots`] puts a capturing [`TaskScope`] around every task
//!   body it can reach, logging the `Access` stream for cache replay;
//! * [`LayerMetrics`] records the engine's phases and counters;
//! * [`TimedTrace`] times `TraceSink::record`.

use distws_cachesim::{Cache, CacheConfig};
use distws_core::rng::SplitMix64;
use distws_core::{Access, GlobalWorkerId, Locality, PlaceId, TaskId, TaskScope, TaskSpec};
use distws_metrics::{Counter, Gauge, MetricsSink, Phase};
use distws_sched::{ClusterView, DequeChoice, Policy, StealStep, TaskMeta};
use distws_trace::{TraceEvent, TraceSink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Policy
// ---------------------------------------------------------------------------

/// Time and call counts of the wrapped policy's two hot methods.
/// Statistics only, so `Relaxed` is enough.
#[derive(Debug, Default)]
pub struct PolicyClock {
    pub map_ns: AtomicU64,
    pub steal_ns: AtomicU64,
    pub steal_calls: AtomicU64,
    pub steal_steps: AtomicU64,
}

impl PolicyClock {
    fn note_steal(&self, t: Instant, steps: usize) {
        self.steal_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        self.steal_calls.fetch_add(1, Ordering::Relaxed);
        self.steal_steps.fetch_add(steps as u64, Ordering::Relaxed);
    }
}

/// Forwards every [`Policy`] method to `inner`, timing `map_task` and
/// both steal-sequence entry points. `steal_sequence_into` must be
/// forwarded explicitly: the trait's default would route it through the
/// allocating `steal_sequence` and measure a different program.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    clock: Arc<PolicyClock>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn Policy>, clock: Arc<PolicyClock>) -> Self {
        TimedPolicy { inner, clock }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn map_task(
        &mut self,
        meta: &TaskMeta,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
    ) -> DequeChoice {
        let t = Instant::now();
        let choice = self.inner.map_task(meta, view, rng);
        self.clock.map_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        choice
    }

    fn steal_sequence(
        &mut self,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
    ) -> Vec<StealStep> {
        let t = Instant::now();
        let steps = self.inner.steal_sequence(thief, view, rng);
        self.clock.note_steal(t, steps.len());
        steps
    }

    fn steal_sequence_into(
        &mut self,
        thief: GlobalWorkerId,
        view: &dyn ClusterView,
        rng: &mut SplitMix64,
        out: &mut Vec<StealStep>,
    ) {
        let t = Instant::now();
        self.inner.steal_sequence_into(thief, view, rng, out);
        self.clock.note_steal(t, out.len());
    }

    fn may_migrate(&self, locality: Locality) -> bool {
        self.inner.may_migrate(locality)
    }

    fn remote_chunk(&self) -> usize {
        self.inner.remote_chunk()
    }

    fn remote_chunk_for(&self, victim_len: usize) -> usize {
        self.inner.remote_chunk_for(victim_len)
    }

    fn has_mapping_overhead(&self) -> bool {
        self.inner.has_mapping_overhead()
    }

    fn lifeline_partners(&self, place: PlaceId, places: u32) -> Vec<PlaceId> {
        self.inner.lifeline_partners(place, places)
    }

    fn uses_lifelines(&self) -> bool {
        self.inner.uses_lifelines()
    }

    fn note_result(&mut self, thief: GlobalWorkerId, found: bool) {
        self.inner.note_result(thief, found)
    }

    fn clone_box(&self) -> Box<dyn Policy> {
        Box::new(TimedPolicy {
            inner: self.inner.clone_box(),
            clock: Arc::clone(&self.clock),
        })
    }
}

// ---------------------------------------------------------------------------
// Task bodies
// ---------------------------------------------------------------------------

/// What the capturing scopes saw: how many bodies ran through them and
/// every access those bodies made, tagged with the executing worker,
/// in execution order.
#[derive(Debug, Default)]
pub struct CaptureLog {
    pub bodies: u64,
    pub accesses: Vec<(GlobalWorkerId, Access)>,
}

pub type Capture = Arc<Mutex<CaptureLog>>;

/// Wrap a root set. Children spawned through the wrapper are wrapped in
/// turn; finish-latch continuations are released by the engine without
/// passing through `TaskScope::spawn`, so they run unwrapped and the
/// log's `bodies` falls short of the executed task count.
pub fn wrap_roots(roots: Vec<TaskSpec>, cap: &Capture) -> Vec<TaskSpec> {
    roots.into_iter().map(|r| wrap(r, cap)).collect()
}

fn wrap(spec: TaskSpec, cap: &Capture) -> TaskSpec {
    let body = spec.body;
    let cap = Arc::clone(cap);
    TaskSpec {
        body: Box::new(move |inner: &mut dyn TaskScope| {
            let worker = inner.worker();
            let mut scope = CaptureScope {
                inner,
                cap: &cap,
                seen: Vec::new(),
            };
            body(&mut scope);
            let seen = scope.seen;
            let mut log = cap.lock().expect("capture log poisoned");
            log.bodies += 1;
            log.accesses.extend(seen.into_iter().map(|a| (worker, a)));
        }),
        ..spec
    }
}

struct CaptureScope<'a> {
    inner: &'a mut dyn TaskScope,
    cap: &'a Capture,
    seen: Vec<Access>,
}

impl TaskScope for CaptureScope<'_> {
    fn here(&self) -> PlaceId {
        self.inner.here()
    }

    fn home(&self) -> PlaceId {
        self.inner.home()
    }

    fn worker(&self) -> GlobalWorkerId {
        self.inner.worker()
    }

    fn task_id(&self) -> TaskId {
        self.inner.task_id()
    }

    fn spawn(&mut self, spec: TaskSpec) {
        self.inner.spawn(wrap(spec, self.cap));
    }

    fn charge(&mut self, ns: u64) {
        self.inner.charge(ns);
    }

    fn access(&mut self, access: Access) {
        self.seen.push(access);
        self.inner.access(access);
    }
}

/// Outcome of replaying a capture log through per-worker caches.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub ns: u64,
    pub accesses: u64,
    pub misses: u64,
}

/// Replay the captured accesses through one cache per worker, in the
/// order the engine fed its own caches.
pub fn replay(log: &CaptureLog, cfg: CacheConfig, workers: u32) -> Replay {
    let t = Instant::now();
    let mut caches = vec![Cache::new(cfg); workers as usize];
    for (w, a) in &log.accesses {
        caches[w.index()].access(a.obj.0, a.offset, a.bytes);
    }
    let mut out = Replay {
        ns: ns_since(t),
        ..Replay::default()
    };
    for c in &caches {
        out.accesses += c.stats().accesses;
        out.misses += c.stats().misses;
    }
    out
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Counters, gauges and exclusive phase times: a phase's clock pauses
/// while a nested phase runs, so the phase totals partition the time
/// spent inside the outermost phase. The benchmark keeps its own
/// recorder rather than `distws_metrics::EngineMetrics`, so a change to
/// the program's recorder cannot change how the benchmark measures.
pub struct LayerMetrics {
    counters: [u64; Counter::COUNT],
    gauges: [u64; Gauge::COUNT],
    phase_ns: [u64; Phase::COUNT],
    stack: Vec<(Phase, Instant)>,
}

impl LayerMetrics {
    pub fn new() -> Self {
        LayerMetrics {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            phase_ns: [0; Phase::COUNT],
            stack: Vec::with_capacity(4),
        }
    }

    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()]
    }

    pub fn phase_ns(&self, p: Phase) -> u64 {
        self.phase_ns[p.index()]
    }
}

impl MetricsSink for LayerMetrics {
    fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] += n;
    }

    fn gauge_max(&mut self, g: Gauge, v: u64) {
        let slot = &mut self.gauges[g.index()];
        *slot = (*slot).max(v);
    }

    fn phase_start(&mut self, p: Phase) {
        let now = Instant::now();
        if let Some((parent, since)) = self.stack.last_mut() {
            self.phase_ns[parent.index()] += now.duration_since(*since).as_nanos() as u64;
        }
        self.stack.push((p, now));
    }

    fn phase_end(&mut self, p: Phase) {
        let now = Instant::now();
        let (top, since) = self.stack.pop().expect("phase_end with no open phase");
        assert_eq!(top, p, "phases must nest");
        self.phase_ns[top.index()] += now.duration_since(since).as_nanos() as u64;
        if let Some((_, since)) = self.stack.last_mut() {
            *since = now;
        }
    }
}

// ---------------------------------------------------------------------------
// Trace
// ---------------------------------------------------------------------------

/// Times every `record` into `inner`. `enabled()` is the inner sink's,
/// so wrapping a disabled sink leaves tracing off.
pub struct TimedTrace<'a> {
    inner: &'a mut dyn TraceSink,
    pub ns: u64,
    pub events: u64,
}

impl<'a> TimedTrace<'a> {
    pub fn new(inner: &'a mut dyn TraceSink) -> Self {
        TimedTrace {
            inner,
            ns: 0,
            events: 0,
        }
    }
}

impl TraceSink for TimedTrace<'_> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, ev: TraceEvent) {
        let t = Instant::now();
        self.inner.record(ev);
        self.ns += ns_since(t);
        self.events += 1;
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}
