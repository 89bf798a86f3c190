//! `perfbench` — the repository's benchmark binary.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench place ...        (one cluster place; exec'd by cluster-unix)
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with no
//! instrumentation; with `--trace 1` it runs every operation twice,
//! once plain and once through the benchmark's own trait implementations
//! (`layers`), and reports the per-layer metrics. Either way it
//! checks every operation's output and prints, as its last line, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/METRICS.md` defines every metric.

#![forbid(unsafe_code)]

mod check;
mod cluster;
mod layers;
mod sim;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest measured repetitions in a run, however long each takes.
const MIN_REPS: usize = 3;

pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Result of one run: correctness tallies plus named metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Whether the operation counted last has failed already.
    last_failed: bool,
    /// Whether the negative self-test saw every corrupted output
    /// rejected by the same gates the real operations go through.
    pub self_test_ok: bool,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            self_test_ok: true,
            ..Outcome::default()
        }
    }

    /// Count one operation; `Err` is printed and counted as failed.
    pub fn gate(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        self.last_failed = false;
        self.also(what, verdict);
    }

    /// A further check of the operation counted last: `Err` fails it.
    pub fn also(&mut self, what: &str, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            eprintln!("perfbench: FAILED {what}: {e}");
            if !self.last_failed {
                self.failed += 1;
                self.last_failed = true;
            }
        }
    }

    /// A deliberately corrupted output must be rejected.
    pub fn expect_rejected(&mut self, what: &str, verdict: Result<(), String>) {
        if verdict.is_ok() {
            self.self_test_ok = false;
            eprintln!("perfbench: self-test: corrupted {what} was accepted");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.insert(name, (value, unit));
    }

    fn render(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, (v, u))| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.self_test_ok && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Per-pass values, reported as medians over the passes.
#[derive(Default)]
pub struct Samples {
    passes: Vec<Vec<Value>>,
    current: Vec<Value>,
}

type Value = (&'static str, f64, &'static str);

/// The end-to-end figures of one pass, as measured.
pub struct Pass {
    pub wall: Duration,
    pub setup: Duration,
    pub events: f64,
    pub tasks: f64,
    pub states: f64,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.current.push((name, value, unit));
    }

    /// Close the pass whose values were pushed since the last call.
    pub fn end_pass(&mut self) {
        self.passes.push(std::mem::take(&mut self.current));
    }

    /// Record a pass's end-to-end metrics, its times scaled by the
    /// probe taken right after it (see [`Probe`]), and close the pass.
    pub fn end_to_end(&mut self, pass: Pass, probe: &mut Probe) {
        let scale = probe.scale();
        let wall = pass.wall.as_secs_f64() * scale;
        self.push("wall_s", wall, "s");
        self.push("setup_s", pass.setup.as_secs_f64() * scale, "s");
        self.push("events_per_s", pass.events / wall, "1/s");
        self.push("tasks_per_s", pass.tasks / wall, "1/s");
        self.push("states_per_s", pass.states / wall, "1/s");
        self.end_pass();
    }

    pub fn report_into(&self, out: &mut Outcome) {
        let mut by_name: BTreeMap<&'static str, (Vec<f64>, &'static str)> = BTreeMap::new();
        for &(name, value, unit) in self.passes.iter().flatten() {
            by_name
                .entry(name)
                .or_insert((Vec::new(), unit))
                .0
                .push(value);
        }
        for (name, (xs, unit)) in by_name {
            out.set(name, median(&xs), unit);
        }
    }
}

/// Words in the probe's table: 16 MiB, past the 2 MiB L2 and into the
/// shared L3 that the host's other tenants also use.
const PROBE_WORDS: usize = 1 << 21;

/// The probe's time on the reference host (2-vCPU Xeon, 300 MiB L3) in
/// a quiet stretch.
const QUIET_PROBE_S: f64 = 0.021;

/// A fixed memory-bound kernel, timed after every pass. Other tenants
/// of the host contend for its L3 and memory in stretches lasting
/// minutes, during which memory-bound code runs up to 70% slower while
/// an ALU loop does not slow at all; the probe slows with them. Pass
/// times are scaled by `QUIET_PROBE_S / probe time`, so a figure reads
/// as the time the pass would take in a quiet stretch.
pub struct Probe {
    table: Vec<u64>,
    times: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            table: vec![1; PROBE_WORDS],
            times: Vec::new(),
        }
    }
}

impl Probe {
    /// Run the kernel: 4M random read-modify-writes over the table.
    fn scale(&mut self) -> f64 {
        let t = Instant::now();
        let mut x = 0x5EEDu64;
        for _ in 0..4_000_000 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 43) as usize;
            self.table[i] = self.table[i].wrapping_add(x);
        }
        std::hint::black_box(&self.table);
        let s = t.elapsed().as_secs_f64();
        self.times.push(s);
        QUIET_PROBE_S / s
    }

    /// The median probe time, for the record.
    pub fn report(&self) {
        if !self.times.is_empty() {
            println!(
                "memory probe: median {:.2} ms over {} passes (quiet: {:.2} ms)",
                median(&self.times) * 1e3,
                self.times.len(),
                QUIET_PROBE_S * 1e3
            );
        }
    }
}

/// Repeat `rep` until `seconds` of wall time have passed and at least
/// [`MIN_REPS`] repetitions ran.
pub fn repeat(seconds: f64, mut rep: impl FnMut(usize)) {
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut i = 0;
    while i < MIN_REPS || start.elapsed() < budget {
        rep(i);
        i += 1;
    }
}

/// Time a set-up step. One that takes under [`SETUP_BATCH`] is repeated
/// until the batch does, and the mean is returned, so that
/// microsecond-scale set-up is not lost in timer noise. Each call must
/// leave the program as if it were the only one: the last result is
/// the one kept.
pub fn setup_batched<T>(mut step: impl FnMut() -> T) -> (T, Duration) {
    let t = Instant::now();
    let mut last = step();
    let mut calls = 1u32;
    while t.elapsed() < SETUP_BATCH {
        last = step();
        calls += 1;
    }
    (last, t.elapsed() / calls)
}

/// Shortest batch [`setup_batched`] times.
const SETUP_BATCH: Duration = Duration::from_millis(2);

pub fn peak_rss_mb() -> f64 {
    distws_metrics::peak_rss_kb().unwrap_or(0) as f64 / 1024.0
}

/// FNV-1a over a byte string: the fingerprint operations compare.
pub fn fingerprint(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every per-layer metric the traced pass reports, with its unit. A
/// workload reports 0 for a layer it does not exercise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sched.steal_sequence_ms", "ms"),
    ("sched.steal_sequence_calls", "count"),
    ("sched.steal_steps_per_call", "steps/call"),
    ("sched.map_task_ms", "ms"),
    ("sched.steal_success_ratio.local_shared", "ratio"),
    ("sched.steal_success_ratio.remote", "ratio"),
    ("sim.dispatch_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("sim.ns_per_event", "ns/event"),
    ("sim.queue_max_depth", "count"),
    ("sim.deque_grows", "count"),
    ("apps.task_body_ms", "ms"),
    ("apps.tasks", "count"),
    ("apps.body_coverage", "ratio"),
    ("cachesim.replay_ms", "ms"),
    ("cachesim.accesses", "count"),
    ("cachesim.miss_ratio", "ratio"),
    ("cachesim.coverage", "ratio"),
    ("netsim.msgs_per_task", "msgs/task"),
    ("netsim.bytes_per_task", "B/task"),
    ("netsim.dropped", "count"),
    ("netsim.retried", "count"),
    ("trace.record_ms", "ms"),
    ("trace.events", "count"),
    ("trace.bytes", "B"),
    ("analyze.hb_ms", "ms"),
    ("cluster.place_ms", "ms"),
    ("cluster.merge_ms", "ms"),
    ("cluster.validate_ms", "ms"),
    ("cluster.frame_codec_ns", "ns/frame"),
    ("cluster.migrations", "count"),
    ("cluster.steal_success_ratio", "ratio"),
    ("analyze.states", "count"),
    ("analyze.transitions", "count"),
    ("analyze.ample_ratio", "ratio"),
    ("analyze.peak_queue", "count"),
    ("unattributed_share", "ratio"),
    ("trace_overhead_pct", "%"),
];

/// Check the layer split adds up: the self times plus the unattributed
/// remainder must equal the traced wall time, and no layer may claim
/// more time than the wall it sits in.
pub fn layer_sum(wall_ms: f64, self_ms: &[f64]) -> (f64, Result<(), String>) {
    let attributed: f64 = self_ms.iter().sum();
    let unattributed = (wall_ms - attributed) / wall_ms;
    let total = attributed / wall_ms + unattributed;
    let verdict = if (total - 1.0).abs() > 1e-9 {
        Err(format!("layer shares sum to {total}, not 1"))
    } else if self_ms.iter().any(|&ms| ms < 0.0) {
        Err(format!("negative self time in {self_ms:?}"))
    } else if unattributed < -0.01 {
        Err(format!(
            "layers claim {attributed:.3} ms of a {wall_ms:.3} ms wall"
        ))
    } else {
        Ok(())
    };
    (unattributed, verdict)
}

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => opts.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("place") {
        cluster::place_main(&args[1..]);
    }
    let (workload, opts) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let out = match workload.as_str() {
        "sim-scale" => sim::run(sim::Kind::Scale, &opts),
        "sim-paper" => sim::run(sim::Kind::Paper, &opts),
        "sim-chaos" => sim::run(sim::Kind::Chaos, &opts),
        "cluster-unix" => cluster::run(&opts),
        "check-protocol" => check::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    println!("{}", out.render());
}
