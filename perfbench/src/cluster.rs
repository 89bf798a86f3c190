//! `cluster-unix`: `distws_cluster::run_cluster` sorting quicksort@1024
//! on two place processes of one worker each, over Unix sockets. An
//! operation is one cluster run. The place processes are this binary
//! (`perfbench place ...`), so they come from the same build.

use crate::{layer_sum, repeat, setup_batched, Opts, Outcome, Pass, Probe, Samples, PER_LAYER};
use distws_cluster::{
    app_by_name, merge_traces, run_cluster, run_place, ClusterScope, Frame, LaunchConfig,
    PlaceConfig, TraceFile, Transport, WireTask,
};
use distws_core::Locality;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

const APP: &str = "quicksort@1024";
const POLICY: &str = "distws";
const PLACES: u32 = 2;
const WPP: u32 = 1;

/// Count trace lines of one event kind (`"ev":"<kind>"`), optionally
/// restricted to lines that also contain `extra`.
fn count(trace: &str, kind: &str, extra: &str) -> u64 {
    let tag = format!("\"ev\":\"{kind}\"");
    trace
        .lines()
        .filter(|l| l.contains(&tag) && l.contains(extra))
        .count() as u64
}

/// The gate of one cluster run: the coordinator exited cleanly, its
/// report says the result digest checked out, the merged trace passed
/// the happens-before validator and the conformance automaton, and
/// tasks actually ran.
fn check(
    exit_code: i32,
    violations: usize,
    report: Option<&str>,
    tasks: u64,
) -> Result<(), String> {
    if exit_code != 0 || violations > 0 {
        return Err(format!(
            "coordinator exit {exit_code}, {violations} trace violation(s)"
        ));
    }
    let report = report.ok_or("no report.json")?;
    let parsed = distws_json::Value::parse(report).map_err(|e| format!("report.json: {e:?}"))?;
    if parsed.get("result_ok").and_then(|v| v.as_bool()) != Some(true) {
        return Err(format!("result digest rejected: {report}"));
    }
    if tasks == 0 {
        return Err("no task completed".to_string());
    }
    Ok(())
}

fn self_test(out: &mut Outcome) {
    let good = "{\"result_ok\": true}";
    let wrong = "{\"result_ok\": false, \"error\": \"quicksort digest mismatch\"}";
    out.expect_rejected("cluster answer", check(0, 0, Some(wrong), 1));
    out.expect_rejected("cluster report", check(0, 0, None, 1));
    out.expect_rejected("cluster trace", check(0, 1, Some(good), 1));
    out.expect_rejected("cluster exit", check(2, 0, Some(good), 1));
}

/// Peak RSS of the largest place process of the run. The launcher is
/// left out: its high-water mark carries over from earlier runs.
fn places_rss_mb(dir: &Path) -> f64 {
    let kb = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("rss-"))
        .filter_map(|e| fs::read_to_string(e.path()).ok())
        .filter_map(|s| s.trim().parse::<f64>().ok())
        .fold(0.0, f64::max);
    kb / 1024.0
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new();
    self_test(&mut out);
    let exe = std::env::current_exe().expect("own executable");
    let mut samples = Samples::default();
    let mut mean_payload = None;
    let mut probe = Probe::default();
    repeat(opts.seconds, |rep| {
        // Relative to the working directory, so the socket paths stay
        // short whatever the checkout's path.
        let dir = PathBuf::from(format!("cu{rep}"));
        let (cfg, setup) = setup_batched(|| {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create run directory");
            LaunchConfig {
                app: APP.to_string(),
                policy: POLICY.to_string(),
                places: PLACES,
                wpp: WPP,
                seed: opts.seed,
                transport: Transport::Unix,
                dir: dir.clone(),
                kills: Vec::new(),
                round_timeout_ms: 20_000,
                run_deadline_ms: 40_000,
                exe: exe.clone(),
                place_args: vec!["place".to_string()],
            }
        });

        let t = Instant::now();
        let launched = run_cluster(&cfg);
        let cluster_wall = t.elapsed();
        let outcome = match launched {
            Ok(o) => o,
            Err(e) => {
                out.gate("cluster run", Err(format!("launch failed: {e}")));
                return;
            }
        };
        let merged = fs::read_to_string(&outcome.merged_path).unwrap_or_default();
        let tasks = count(&merged, "task_end", "");
        let wall = t.elapsed();
        let violations = outcome.hb_violations.len() + outcome.conform_violations.len();
        out.gate(
            "cluster run",
            check(
                outcome.exit_code,
                violations,
                outcome.report.as_deref(),
                tasks,
            ),
        );

        if opts.trace {
            let payload = *mean_payload.get_or_insert_with(|| mean_payload_words(opts.seed));
            traced_layers(
                &dir,
                &merged,
                cluster_wall.as_secs_f64(),
                wall.as_secs_f64(),
                payload,
                &mut samples,
                &mut out,
            );
            samples.end_pass();
        } else {
            samples.push("peak_rss_mb", places_rss_mb(&dir), "MB");
            let pass = Pass {
                wall,
                setup,
                events: merged.lines().count() as f64,
                tasks: tasks as f64,
                states: 1.0,
            };
            samples.end_to_end(pass, &mut probe);
        }
        let _ = fs::remove_dir_all(&dir);
    });
    if opts.trace {
        for (name, unit) in PER_LAYER {
            out.set(name, 0.0, unit);
        }
    }
    samples.report_into(&mut out);
    probe.report();
    out
}

/// Per-layer split of one run, re-timing the launcher's own post-run
/// steps on the run's files.
fn traced_layers(
    dir: &Path,
    merged: &str,
    cluster_s: f64,
    wall_s: f64,
    payload_words: f64,
    samples: &mut Samples,
    out: &mut Outcome,
) {
    let files: Vec<TraceFile> = (0..PLACES)
        .map(|place| TraceFile {
            place,
            epoch: 0,
            failed: false,
            text: fs::read_to_string(dir.join(format!("trace-p{place}-e0.jsonl")))
                .unwrap_or_default(),
        })
        .collect();
    let t = Instant::now();
    let (remerged, _) = merge_traces(&files);
    let merge_ms = t.elapsed().as_secs_f64() * 1e3;
    out.also(
        "cluster re-merge",
        if remerged == merged {
            Ok(())
        } else {
            Err("re-merging the place traces gave a different trace".to_string())
        },
    );
    let t = Instant::now();
    let hb = distws_analyze::validate_str(merged);
    let conform_cfg = distws_analyze::ConformConfig::for_policy(POLICY)
        .unwrap_or_else(distws_analyze::ConformConfig::generic);
    let conform = distws_analyze::conform_str(merged, &conform_cfg);
    let validate_ms = t.elapsed().as_secs_f64() * 1e3;
    out.also(
        "cluster re-validate",
        if hb.ok() && conform.ok() {
            Ok(())
        } else {
            Err("re-validating the merged trace failed".to_string())
        },
    );

    let place_ms = cluster_s * 1e3 - merge_ms - validate_ms;
    let (unattributed, verdict) = layer_sum(wall_s * 1e3, &[place_ms, merge_ms, validate_ms]);
    out.also("layer sum", verdict);

    let attempts = count(merged, "steal_attempt", "");
    let successes = count(merged, "steal_success", "");
    let tasks = count(merged, "task_end", "");
    let mix = FrameMix {
        probes: count(merged, "steal_attempt", "\"tier\":\"remote\""),
        replies_with_tasks: count(merged, "steal_success", "\"tier\":\"remote\""),
        migrations: count(merged, "migration", ""),
        finishes: tasks,
        payload_words: payload_words.round() as usize,
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    samples.push("cluster.place_ms", place_ms, "ms");
    samples.push("cluster.merge_ms", merge_ms, "ms");
    samples.push("cluster.validate_ms", validate_ms, "ms");
    samples.push(
        "cluster.frame_codec_ns",
        mix.codec_ns_per_frame(),
        "ns/frame",
    );
    samples.push("cluster.migrations", mix.migrations as f64, "count");
    samples.push(
        "cluster.steal_success_ratio",
        ratio(successes as f64, attempts as f64),
        "ratio",
    );
    samples.push("apps.tasks", tasks as f64, "count");
    samples.push("unattributed_share", unattributed, "ratio");
}

/// The frames a run sent, rebuilt from its trace: one probe and one
/// reply per remote steal attempt, the successful replies carrying the
/// migrated tasks, and one finish notice per completed task.
struct FrameMix {
    probes: u64,
    replies_with_tasks: u64,
    migrations: u64,
    finishes: u64,
    payload_words: usize,
}

impl FrameMix {
    fn frames(&self) -> Vec<Frame> {
        let task = |id| WireTask {
            id,
            home: 0,
            locality: 1,
            flags: 0,
            kind: 0,
            est: self.payload_words as u64 * 100,
            payload: (0..self.payload_words as u64).collect(),
        };
        let per_reply = self
            .migrations
            .checked_div(self.replies_with_tasks)
            .unwrap_or(0);
        let mut frames = Vec::new();
        for i in 0..self.probes {
            frames.push(Frame::StealProbe {
                hlc: i,
                probe_id: i,
                thief_place: 1,
                thief_worker: 0,
                chunk: 2,
            });
            let tasks = if i < self.replies_with_tasks {
                (0..per_reply).map(task).collect()
            } else {
                Vec::new()
            };
            frames.push(Frame::StealReply {
                hlc: i,
                probe_id: i,
                tasks,
            });
        }
        for i in 0..self.finishes {
            frames.push(Frame::FinishDec {
                hlc: i,
                task: i,
                result: vec![i, i, i],
            });
        }
        frames
    }

    /// Encode and decode the mix until at least 20 ms have passed;
    /// nanoseconds per frame round trip.
    fn codec_ns_per_frame(&self) -> f64 {
        let frames = self.frames();
        if frames.is_empty() {
            return 0.0;
        }
        let t = Instant::now();
        let mut n = 0u64;
        while n == 0 || t.elapsed().as_millis() < 20 {
            for f in &frames {
                let back = Frame::decode(&std::hint::black_box(f.encode())).expect("frame decodes");
                assert!(back == *f, "frame round trip changed the frame");
            }
            n += frames.len() as u64;
        }
        t.elapsed().as_nanos() as f64 / n as f64
    }
}

/// Mean payload length (words) over every task of the app's task tree,
/// found by running the app's bodies sequentially.
fn mean_payload_words(seed: u64) -> f64 {
    struct Collect(Vec<Vec<u64>>);
    impl ClusterScope for Collect {
        fn spawn(&mut self, _l: Locality, _kind: u16, _est: u64, payload: Vec<u64>) {
            self.0.push(payload);
        }
    }
    let app = app_by_name(APP, seed).expect("cluster app exists");
    let mut pending: Vec<Vec<u64>> = app
        .roots(0, None)
        .expect("round 0 has roots")
        .into_iter()
        .map(|r| r.payload)
        .collect();
    let (mut tasks, mut words) = (0u64, 0u64);
    while let Some(payload) = pending.pop() {
        tasks += 1;
        words += payload.len() as u64;
        let task = WireTask {
            id: tasks,
            home: 0,
            locality: 1,
            flags: 0,
            kind: 0,
            est: 0,
            payload,
        };
        let mut scope = Collect(Vec::new());
        app.execute(&task, &mut scope);
        pending.extend(scope.0);
    }
    words as f64 / tasks as f64
}

/// Entry point of one place process, exec'd by `run_cluster` as
/// `perfbench place --place N ...`. Writes its peak RSS next to its
/// trace before exiting with `run_place`'s code.
pub fn place_main(args: &[String]) -> ! {
    let mut cfg = PlaceConfig::new(0, 1, 1, PathBuf::from("."), APP);
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().cloned().unwrap_or_default();
        let num = || -> u64 {
            value.parse().unwrap_or_else(|_| {
                eprintln!("perfbench place: bad value `{value}` for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--place" => cfg.place = num() as u32,
            "--places" => cfg.places = num() as u32,
            "--wpp" => cfg.wpp = num() as u32,
            "--epoch" => cfg.epoch = num() as u32,
            "--seed" => cfg.seed = num(),
            "--round-timeout-ms" => cfg.round_timeout_ms = num(),
            "--run-deadline-ms" => cfg.run_deadline_ms = num(),
            "--transport" => {
                cfg.transport = if value == "tcp" {
                    Transport::Tcp
                } else {
                    Transport::Unix
                }
            }
            "--dir" => cfg.dir = PathBuf::from(value),
            "--app" => cfg.app = value,
            "--policy" => cfg.policy = value,
            "--trace" => trace = Some(PathBuf::from(value)),
            "--report" => cfg.report_path = Some(PathBuf::from(value)),
            other => {
                eprintln!("perfbench place: unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    cfg.trace_path = trace.unwrap_or_else(|| {
        cfg.dir
            .join(format!("trace-p{}-e{}.jsonl", cfg.place, cfg.epoch))
    });
    let rss_path = cfg.dir.join(format!("rss-p{}-e{}", cfg.place, cfg.epoch));
    let code = run_place(cfg).unwrap_or_else(|e| {
        eprintln!("perfbench place: {e}");
        2
    });
    let _ = fs::write(
        rss_path,
        distws_metrics::peak_rss_kb().unwrap_or(0).to_string(),
    );
    std::process::exit(code)
}
