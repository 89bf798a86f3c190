//! `check-protocol`: the protocol model checker's reduced exploration
//! of the `mid_fanout` scenario (six flexible roots over three places
//! of two workers). An operation is one exploration. The scenario is
//! fixed: the seed changes nothing the checker sees.

use crate::{
    layer_sum, peak_rss_mb, repeat, setup_batched, Opts, Outcome, Pass, Probe, Samples, PER_LAYER,
};
use distws_analyze::{explore_protocol_mode, scenario_by_name, ExploreStats, Mode};
use std::time::Instant;

const SCENARIO: &str = "mid_fanout";

/// The gate of one exploration: no property violated, not truncated,
/// and exactly the state and transition counts of the first run.
fn check(
    violations: &[String],
    stats: &ExploreStats,
    want: Option<(u64, u64)>,
) -> Result<(), String> {
    if let Some(v) = violations.first() {
        return Err(format!("{} violation(s), first: {v}", violations.len()));
    }
    if stats.truncated {
        return Err("exploration truncated".to_string());
    }
    match want {
        Some(w) if w != (stats.states, stats.transitions) => Err(format!(
            "explored {} states / {} transitions, the first run {} / {}",
            stats.states, stats.transitions, w.0, w.1
        )),
        _ => Ok(()),
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::new();
    let mut samples = Samples::default();
    let mut want = None;
    let mut rss_mb = 0.0;
    let mut probe = None;
    repeat(opts.seconds, |_| {
        let (sc, setup) = setup_batched(|| scenario_by_name(SCENARIO).expect("scenario exists"));
        let t = Instant::now();
        let (outcome, stats) = explore_protocol_mode(&sc, None, Mode::Reduced, None);
        let wall = t.elapsed();
        out.gate(SCENARIO, check(&outcome.violations, &stats, want));
        if want.is_none() {
            rss_mb = peak_rss_mb();
            let first = (stats.states, stats.transitions);
            want = Some(first);
            let mut more = stats;
            more.states += 1;
            out.expect_rejected("state count", check(&[], &more, want));
            out.expect_rejected(
                "checker verdict",
                check(&["deliberate violation".to_string()], &stats, want),
            );
        }
        if opts.trace {
            let ms = wall.as_secs_f64() * 1e3;
            let (unattributed, verdict) = layer_sum(ms, &[ms]);
            out.also("layer sum", verdict);
            let explored = (stats.ample_states + stats.full_states) as f64;
            samples.push("analyze.states", stats.states as f64, "count");
            samples.push("analyze.transitions", stats.transitions as f64, "count");
            samples.push(
                "analyze.ample_ratio",
                stats.ample_states as f64 / explored,
                "ratio",
            );
            samples.push("analyze.peak_queue", stats.peak_queue as f64, "count");
            samples.push("unattributed_share", unattributed, "ratio");
            samples.end_pass();
        } else {
            let pass = Pass {
                wall,
                setup,
                events: stats.transitions as f64,
                tasks: (sc.tasks.len() as u64 * outcome.terminals) as f64,
                states: stats.states as f64,
            };
            // Made after the peak RSS was read, so its table is not in it.
            samples.end_to_end(pass, probe.get_or_insert_with(Probe::default));
        }
    });
    if opts.trace {
        for (name, unit) in PER_LAYER {
            out.set(name, 0.0, unit);
        }
    } else {
        out.set("peak_rss_mb", rss_mb, "MB");
    }
    samples.report_into(&mut out);
    if let Some(p) = &probe {
        p.report();
    }
    out
}
