//! The three simulator workloads: `sim-scale`, `sim-paper` and
//! `sim-chaos`. An operation is one cell: one application under one
//! policy on one cluster shape, run through
//! `Simulation::run_roots_metered` and checked.

use crate::layers::{
    replay, wrap_roots, Capture, LayerMetrics, PolicyClock, TimedPolicy, TimedTrace,
};
use crate::{
    fingerprint, layer_sum, peak_rss_mb, repeat, setup_batched, Opts, Outcome, Pass, Probe,
    Samples, PER_LAYER,
};
use distws_apps::{Agglomerative, DelaunayGen, KMeans, NBody, Quicksort, TuringRing};
use distws_bench::scale::ScaleFanout;
use distws_core::{ClusterConfig, RunReport, TaskSpec, Workload};
use distws_metrics::{Counter, Gauge, MetricsSink, NullMetrics, Phase};
use distws_sched::{DistWs, Policy, X10Ws};
use distws_sim::{FaultSpec, SimConfig, Simulation};
use distws_trace::{JsonlSink, NullSink, TraceSink};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Scale,
    Paper,
    Chaos,
}

/// The fault plan of `sim-chaos`. Percentages are of each application's
/// fault-free DistWS makespan, measured once per process, untimed.
const CHAOS_FAULTS: &str = "drop=0.01,dup=0.01,jitter=2us,kill=3@40%,restart=3@70%";

struct Cell {
    app: Box<dyn Workload>,
    policy: fn() -> Box<dyn Policy>,
    cfg: SimConfig,
}

impl Cell {
    fn name(&self) -> String {
        format!("{}/{}", self.app.name(), (self.policy)().name())
    }

    fn workers(&self) -> u32 {
        self.cfg.cluster.total_workers()
    }
}

fn distws() -> Box<dyn Policy> {
    Box::new(DistWs::default())
}

fn x10ws() -> Box<dyn Policy> {
    Box::new(X10Ws)
}

/// The six applications at Default scale, with their default inputs:
/// the seed varies the schedule, not the work. DMR is left out (see
/// METRICS.md).
fn paper_apps() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Quicksort::default()),
        Box::new(TuringRing::default()),
        Box::new(KMeans::default()),
        Box::new(Agglomerative::default()),
        Box::new(DelaunayGen::default()),
        Box::new(NBody::default()),
    ]
}

fn sim_config(cluster: ClusterConfig, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(cluster);
    cfg.seed = seed;
    cfg
}

fn cells(kind: Kind, seed: u64) -> Vec<Cell> {
    match kind {
        Kind::Scale => vec![Cell {
            app: Box::new(ScaleFanout::new(250_000, seed)),
            policy: distws,
            cfg: sim_config(ClusterConfig::new(64, 16), seed),
        }],
        Kind::Paper => {
            let mut out = Vec::new();
            for policy in [distws as fn() -> Box<dyn Policy>, x10ws] {
                for app in paper_apps() {
                    out.push(Cell {
                        app,
                        policy,
                        cfg: sim_config(ClusterConfig::paper(), seed),
                    });
                }
            }
            out
        }
        Kind::Chaos => {
            let spec = FaultSpec::parse(CHAOS_FAULTS).expect("fault plan parses");
            paper_apps()
                .into_iter()
                .map(|app| {
                    let mut cfg = sim_config(ClusterConfig::paper(), seed);
                    let baseline = Simulation::with_config(cfg.clone(), distws())
                        .run_app(app.as_ref())
                        .makespan_ns;
                    cfg.faults = spec.resolve(baseline, 1.0, seed);
                    Cell {
                        app,
                        policy: distws,
                        cfg,
                    }
                })
                .collect()
        }
    }
}

/// What one operation produced, reduced to what the gate checks.
#[derive(Clone)]
struct Op {
    report: Option<RunReport>,
    report_json: String,
    /// The JSONL trace, for traced workloads.
    trace: Option<String>,
    /// Happens-before verdict of the trace.
    hb: Result<(), String>,
    /// `Workload::validate` after the run.
    validate: Result<(), String>,
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// Run one cell. Cells with a fault plan stream their events as JSONL
/// into memory and HB-validate them. With `trace_times`, the sink is
/// wrapped in [`TimedTrace`], whose (record ns, events) land there.
fn run_op(
    cell: &Cell,
    roots: Vec<TaskSpec>,
    policy: Box<dyn Policy>,
    metrics: &mut dyn MetricsSink,
    trace_times: Option<&mut (u64, u64)>,
    hb_ns: &mut u64,
) -> Op {
    let traced = !cell.cfg.faults.is_empty();
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut null = NullSink;
    let inner: &mut dyn TraceSink = if traced { &mut jsonl } else { &mut null };
    let mut sim = Simulation::with_config(cell.cfg.clone(), policy);
    let name = cell.app.name();
    let ran = catch_unwind(AssertUnwindSafe(|| match trace_times {
        Some(times) => {
            let mut timed = TimedTrace::new(inner);
            let r = sim.run_roots_metered(&name, roots, &mut timed, metrics).0;
            *times = (timed.ns, timed.events);
            r
        }
        None => sim.run_roots_metered(&name, roots, inner, metrics).0,
    }));
    let (report, report_json) = match ran {
        Ok(r) => {
            let json = distws_json::to_string(&r);
            (Some(r), json)
        }
        Err(p) => (None, format!("panicked: {}", panic_text(p))),
    };
    let trace = traced.then(|| String::from_utf8(jsonl.into_inner()).expect("trace is UTF-8"));
    let hb = match &trace {
        Some(text) => {
            let t = Instant::now();
            let hb = distws_analyze::validate_str(text);
            *hb_ns += t.elapsed().as_nanos() as u64;
            match hb.violations.first() {
                None => Ok(()),
                Some(v) => Err(format!(
                    "{} HB violation(s), first: {v}",
                    hb.violations.len()
                )),
            }
        }
        None => Ok(()),
    };
    Op {
        report,
        report_json,
        trace,
        hb,
        validate: cell.app.validate(),
    }
}

/// The correctness gate of one operation: the run completed, every
/// spawned task executed once, the application's answer validates, the
/// trace (if any) passes the HB validator, and the report and trace
/// match the reference fingerprint byte for byte.
fn check(op: &Op, want: Option<(u64, u64)>) -> Result<(), String> {
    let r = op.report.as_ref().ok_or_else(|| op.report_json.clone())?;
    if r.tasks_spawned != r.tasks_executed {
        return Err(format!(
            "spawned {} tasks but executed {}",
            r.tasks_spawned, r.tasks_executed
        ));
    }
    op.validate.clone().map_err(|e| format!("validate: {e}"))?;
    op.hb.clone()?;
    if let Some((report_fp, trace_fp)) = want {
        if fingerprint(op.report_json.as_bytes()) != report_fp {
            return Err("RunReport differs from the reference run".to_string());
        }
        if fingerprint(op.trace.as_deref().unwrap_or("").as_bytes()) != trace_fp {
            return Err("trace differs from the reference run".to_string());
        }
    }
    Ok(())
}

fn fingerprints(op: &Op) -> (u64, u64) {
    (
        fingerprint(op.report_json.as_bytes()),
        fingerprint(op.trace.as_deref().unwrap_or("").as_bytes()),
    )
}

/// Feed deliberately broken copies of a good operation to [`check`]:
/// each must be rejected.
fn self_test(out: &mut Outcome, cell: &Cell, good: &Op) {
    let want = Some(fingerprints(good));
    let mut flipped = good.clone();
    flipped.report_json = flipped
        .report_json
        .replacen("\"makespan_ns\":", "\"makespan_ns\":1", 1);
    out.expect_rejected("RunReport fingerprint", check(&flipped, want));
    let mut lost = good.clone();
    if let Some(r) = lost.report.as_mut() {
        r.tasks_executed -= 1;
    }
    out.expect_rejected("task conservation", check(&lost, want));
    // A real wrong answer: fresh roots reset the application's state,
    // so its validator sees work that never ran.
    drop(cell.app.roots(&cell.cfg.cluster));
    let mut wrong = good.clone();
    wrong.validate = cell.app.validate();
    out.expect_rejected("application answer", check(&wrong, want));
    if let Some(trace) = &good.trace {
        // Drop one task's completion: the HB validator must object.
        let at = trace
            .find("\"ev\":\"task_end\"")
            .expect("trace has task ends");
        let start = trace[..at].rfind('\n').map_or(0, |i| i + 1);
        let end = trace[at..].find('\n').map_or(trace.len(), |i| at + i + 1);
        let broken = [&trace[..start], &trace[end..]].concat();
        let hb = distws_analyze::validate_str(&broken);
        let mut torn = good.clone();
        torn.hb = if hb.ok() {
            Ok(())
        } else {
            Err("HB".to_string())
        };
        out.expect_rejected("trace", check(&torn, None));
    }
}

pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let cells = cells(kind, opts.seed);
    let mut out = Outcome::new();
    // Warm-up pass, untimed: learns the event count and the reference
    // fingerprints every later operation must reproduce.
    let mut events = 0u64;
    let mut want = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let mut metrics = LayerMetrics::new();
        let roots = cell.app.roots(&cell.cfg.cluster);
        let op = run_op(cell, roots, (cell.policy)(), &mut metrics, None, &mut 0);
        out.gate(&cell.name(), check(&op, None));
        events += metrics.counter(Counter::EventsProcessed);
        want.push(fingerprints(&op));
        if i == 0 {
            self_test(&mut out, cell, &op);
        }
    }
    // Peak RSS of one pass, before repetition adds heap fragmentation.
    let rss_mb = peak_rss_mb();
    if opts.trace {
        traced(&cells, &want, opts, &mut out);
        return out;
    }
    let mut samples = Samples::default();
    let mut probe = Probe::default();
    repeat(opts.seconds, |_| {
        let (mut setup, mut wall, mut tasks) = (Duration::ZERO, Duration::ZERO, 0u64);
        for (cell, want) in cells.iter().zip(&want) {
            let (roots, took) = setup_batched(|| cell.app.roots(&cell.cfg.cluster));
            setup += took;
            let t = Instant::now();
            let op = run_op(cell, roots, (cell.policy)(), &mut NullMetrics, None, &mut 0);
            wall += t.elapsed();
            tasks += op.report.as_ref().map_or(0, |r| r.tasks_executed);
            out.gate(&cell.name(), check(&op, Some(*want)));
        }
        let pass = Pass {
            wall,
            setup,
            events: events as f64,
            tasks: tasks as f64,
            states: cells.len() as f64,
        };
        samples.end_to_end(pass, &mut probe);
    });
    samples.report_into(&mut out);
    probe.report();
    out.set("peak_rss_mb", rss_mb, "MB");
    out
}

/// Per-pass sums over every cell of the traced pass.
#[derive(Default)]
struct Layers {
    wall_plain_ns: f64,
    wall_traced_ns: f64,
    map_ns: f64,
    steal_ns: f64,
    steal_calls: f64,
    steal_steps: f64,
    shared_attempts: f64,
    shared_successes: f64,
    remote_attempts: f64,
    remote_successes: f64,
    dispatch_ns: f64,
    body_ns: f64,
    emission_ns: f64,
    events: f64,
    queue_max: f64,
    deque_grows: f64,
    tasks: f64,
    bodies: f64,
    replay_ns: f64,
    replay_accesses: f64,
    replay_misses: f64,
    report_accesses: f64,
    msgs: f64,
    bytes: f64,
    dropped: f64,
    retried: f64,
    record_ns: f64,
    trace_events: f64,
    trace_bytes: f64,
    hb_ns: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Replayed cache statistics must equal the engine's own on cells
/// where every body was captured and no fault disturbed the caches.
fn check_replay(
    cell: &Cell,
    r: &RunReport,
    bodies: u64,
    replayed: (u64, u64),
) -> Result<(), String> {
    if bodies != r.tasks_executed || !cell.cfg.faults.is_empty() {
        return Ok(());
    }
    if replayed != (r.cache.accesses, r.cache.misses) {
        return Err(format!(
            "cache replay saw {replayed:?} (accesses, misses), the engine {:?}",
            (r.cache.accesses, r.cache.misses)
        ));
    }
    Ok(())
}

fn traced(cells: &[Cell], want: &[(u64, u64)], opts: &Opts, out: &mut Outcome) {
    let mut samples = Samples::default();
    repeat(opts.seconds, |_| {
        let mut l = Layers::default();
        for (cell, want) in cells.iter().zip(want) {
            let name = cell.name();
            // Reference run without instrumentation.
            let roots = cell.app.roots(&cell.cfg.cluster);
            let t = Instant::now();
            let plain = run_op(cell, roots, (cell.policy)(), &mut NullMetrics, None, &mut 0);
            l.wall_plain_ns += t.elapsed().as_nanos() as f64;
            out.gate(&name, check(&plain, Some(*want)));

            // The same run through the benchmark's trait implementations.
            let cap: Capture = Arc::new(Mutex::new(Default::default()));
            let roots = wrap_roots(cell.app.roots(&cell.cfg.cluster), &cap);
            let clock = Arc::new(PolicyClock::default());
            let policy = Box::new(TimedPolicy::new((cell.policy)(), Arc::clone(&clock)));
            let mut metrics = LayerMetrics::new();
            let mut trace_times = (0u64, 0u64);
            let mut hb_ns = 0u64;
            let t = Instant::now();
            let op = run_op(
                cell,
                roots,
                policy,
                &mut metrics,
                Some(&mut trace_times),
                &mut hb_ns,
            );
            l.wall_traced_ns += t.elapsed().as_nanos() as f64;
            out.gate(&format!("{name} traced"), check(&op, Some(*want)));

            let log = cap.lock().expect("capture log poisoned");
            let rep = replay(
                &log,
                cell.cfg.cache.expect("cache model on"),
                cell.workers(),
            );
            let Some(r) = op.report.as_ref() else {
                continue;
            };
            out.also(
                &format!("{name} cache replay"),
                check_replay(cell, r, log.bodies, (rep.accesses, rep.misses)),
            );

            l.map_ns += clock.map_ns.load(Ordering::Relaxed) as f64;
            l.steal_ns += clock.steal_ns.load(Ordering::Relaxed) as f64;
            l.steal_calls += clock.steal_calls.load(Ordering::Relaxed) as f64;
            l.steal_steps += clock.steal_steps.load(Ordering::Relaxed) as f64;
            let c = |k| metrics.counter(k) as f64;
            l.shared_attempts += c(Counter::StealAttemptsLocalShared);
            l.shared_successes += c(Counter::StealSuccessesLocalShared);
            l.remote_attempts += c(Counter::StealAttemptsRemote);
            l.remote_successes += c(Counter::StealSuccessesRemote);
            l.events += c(Counter::EventsProcessed);
            l.deque_grows += c(Counter::DequeGrows);
            l.queue_max = l
                .queue_max
                .max(metrics.gauge(Gauge::EventQueueMaxDepth) as f64);
            l.dispatch_ns += metrics.phase_ns(Phase::EventDispatch) as f64;
            l.body_ns += metrics.phase_ns(Phase::TaskExecution) as f64;
            l.emission_ns += metrics.phase_ns(Phase::TraceEmission) as f64;
            l.tasks += r.tasks_executed as f64;
            l.bodies += log.bodies as f64;
            l.replay_ns += rep.ns as f64;
            l.replay_accesses += rep.accesses as f64;
            l.replay_misses += rep.misses as f64;
            l.report_accesses += r.cache.accesses as f64;
            l.msgs += r.messages.total() as f64;
            l.bytes += r.messages.bytes as f64;
            l.dropped += r.faults.msgs_dropped as f64;
            l.retried += (r.faults.retransmissions + r.faults.steal_retries) as f64;
            l.record_ns += trace_times.0 as f64;
            l.trace_events += trace_times.1 as f64;
            l.trace_bytes += op.trace.as_ref().map_or(0, |t| t.len()) as f64;
            l.hb_ns += hb_ns as f64;
        }
        record_layers(&l, &mut samples, out);
    });
    for (name, unit) in PER_LAYER {
        out.set(name, 0.0, unit);
    }
    samples.report_into(out);
}

fn record_layers(l: &Layers, samples: &mut Samples, out: &mut Outcome) {
    let ms = |ns: f64| ns / 1e6;
    let sched_ns = l.map_ns + l.steal_ns;
    let sim_self_ns = l.dispatch_ns - sched_ns - l.replay_ns - l.record_ns;
    let self_ms = [
        ms(sched_ns),
        ms(l.replay_ns),
        ms(sim_self_ns),
        ms(l.body_ns),
        ms(l.record_ns + l.emission_ns),
        ms(l.hb_ns),
    ];
    let (unattributed, verdict) = layer_sum(ms(l.wall_traced_ns), &self_ms);
    out.also("layer sum", verdict);

    let mut put = |name, v| {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .expect("listed")
            .1;
        samples.push(name, v, unit);
    };
    put("sched.steal_sequence_ms", ms(l.steal_ns));
    put("sched.steal_sequence_calls", l.steal_calls);
    put(
        "sched.steal_steps_per_call",
        ratio(l.steal_steps, l.steal_calls),
    );
    put("sched.map_task_ms", ms(l.map_ns));
    put(
        "sched.steal_success_ratio.local_shared",
        ratio(l.shared_successes, l.shared_attempts),
    );
    put(
        "sched.steal_success_ratio.remote",
        ratio(l.remote_successes, l.remote_attempts),
    );
    put("sim.dispatch_ms", ms(l.dispatch_ns));
    put("sim.self_ms", ms(sim_self_ns));
    put("sim.ns_per_event", ratio(l.wall_plain_ns, l.events));
    put("sim.queue_max_depth", l.queue_max);
    put("sim.deque_grows", l.deque_grows);
    put("apps.task_body_ms", ms(l.body_ns));
    put("apps.tasks", l.tasks);
    put("apps.body_coverage", ratio(l.bodies, l.tasks));
    put("cachesim.replay_ms", ms(l.replay_ns));
    put("cachesim.accesses", l.replay_accesses);
    put(
        "cachesim.miss_ratio",
        ratio(l.replay_misses, l.replay_accesses),
    );
    put(
        "cachesim.coverage",
        ratio(l.replay_accesses, l.report_accesses),
    );
    put("netsim.msgs_per_task", ratio(l.msgs, l.tasks));
    put("netsim.bytes_per_task", ratio(l.bytes, l.tasks));
    put("netsim.dropped", l.dropped);
    put("netsim.retried", l.retried);
    put("trace.record_ms", ms(l.record_ns));
    put("trace.events", l.trace_events);
    put("trace.bytes", l.trace_bytes);
    put("analyze.hb_ms", ms(l.hb_ns));
    put("unattributed_share", unattributed);
    put(
        "trace_overhead_pct",
        100.0 * ratio(l.wall_traced_ns - l.wall_plain_ns, l.wall_plain_ns),
    );
    samples.end_pass();
}
