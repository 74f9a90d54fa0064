//! `synth_cold`: one thread compiles, fingerprints and summarises a
//! seeded, cost-stratified draw of gadget-lane loops, each from its own
//! fingerprint class, with no cache, store or daemon in the way.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use strsum_core::{loop_fingerprint, summarize_loop, verify_summary, SynthStats, SynthesisConfig};

use crate::catalog::{self, Catalog};
use crate::layers::{timed, Layers, Samples, Tracer};
use crate::oracle::Verdicts;
use crate::serve::{alternate, finish_trace, probe, rounds, sample_self_times};
use crate::util::{self, median, micros, millis, quantile, Rng};
use crate::{Ops, Plan, Report};

/// The per-loop work counters a run prints: they repeat exactly from run
/// to run when no budget binds, which is what makes the work fixed.
const COUNTERS: [&str; 7] = [
    "iterations",
    "search_queries",
    "search_conflicts",
    "search_propagations",
    "verify_queries",
    "verify_conflicts",
    "screen_rejects",
];

pub(crate) fn counters(st: &SynthStats) -> [u64; 7] {
    [
        st.iterations as u64,
        st.solver.search.queries,
        st.solver.search.conflicts,
        st.solver.search.propagations,
        st.solver.verify.queries,
        st.solver.verify.conflicts,
        st.screen.screen_rejects as u64,
    ]
}

/// Pushes gadget-search counter totals (in [`COUNTERS`] order) as one
/// sample each, plus queries per iteration.
pub fn push_search_counters(s: &mut Samples, totals: &[f64]) {
    const METRICS: [&str; 7] = [
        "core.cegis_iterations",
        "core.search_queries",
        "core.search_conflicts",
        "core.search_propagations",
        "core.verify_queries",
        "core.verify_conflicts",
        "core.screen_rejects",
    ];
    for (m, v) in METRICS.iter().zip(totals) {
        s.push(m, *v);
    }
    if totals[0] > 0.0 {
        s.push("core.search_queries_per_iteration", totals[1] / totals[0]);
    }
}

/// Each loop's solver counters from its first summarisation in a run,
/// and the loops whose later summarisations differed.
#[derive(Default)]
struct Drift {
    first: BTreeMap<usize, [u64; 7]>,
    drifted: BTreeSet<usize>,
}

impl Drift {
    fn note(&mut self, ix: usize, c: [u64; 7]) {
        match self.first.get(&ix) {
            Some(first) if *first != c => {
                self.drifted.insert(ix);
            }
            Some(_) => {}
            None => {
                self.first.insert(ix, c);
            }
        }
    }
}

#[derive(Default)]
struct Tally {
    ops: Ops,
    loops: u64,
    secs: f64,
    /// Loops per second of each round.
    round_rates: Vec<f64>,
    /// 99th percentile of each round's `summarize_loop` calls.
    round_p99s: Vec<f64>,
    synth_ms: Vec<f64>,
    pipeline_ms: Vec<f64>,
    drift: Drift,
}

impl Tally {
    /// Loops summarised and the pipeline seconds they took, so far.
    fn progress(&self) -> (f64, f64) {
        (self.loops as f64, self.secs)
    }
}

/// One round: every drawn loop through cfront, fingerprint and
/// summarisation, timed; then the answers are checked, untimed.
fn round(
    cat: &Catalog,
    picks: &[usize],
    tally: &mut Tally,
    verdicts: &mut Verdicts,
    mut samples: Option<&mut Samples>,
    tracer: Option<&Tracer>,
) {
    let cfg = SynthesisConfig::default();
    let self_before = tracer.map(Tracer::snapshot);
    let mut results = Vec::with_capacity(picks.len());
    let mut round_secs = 0.0;
    let mut round_ms = Vec::with_capacity(picks.len());
    for &ix in picks {
        let l = &cat.loops[ix];
        let start = Instant::now();
        let (func, t_compile) = timed("cfront.compile", || strsum_cfront::compile_one(&l.source));
        let Ok(func) = func else {
            tally
                .ops
                .record(Err(format!("{} no longer compiles", l.id)));
            continue;
        };
        let (_fp, t_fp) = timed("core.fingerprint", || {
            loop_fingerprint(&func, cfg.max_ex_size)
        });
        let (r, t_synth) = timed("core.summarize", || summarize_loop(&func, &cfg));
        let pipeline = start.elapsed();
        round_secs += pipeline.as_secs_f64();
        tally.synth_ms.push(millis(t_synth));
        round_ms.push(millis(t_synth));
        tally.pipeline_ms.push(millis(pipeline));
        if let Some(s) = samples.as_deref_mut() {
            s.push("cfront.compile_us", micros(t_compile));
            s.push("core.fingerprint_us", micros(t_fp));
            s.push("core.summarize_ms", millis(t_synth));
        }
        results.push((ix, func, r));
    }
    tally.secs += round_secs;
    tally
        .round_rates
        .push(results.len() as f64 / round_secs.max(1e-9));
    tally.round_p99s.extend(quantile(&round_ms, 0.99));
    let mut totals = [0.0f64; 7];
    for (ix, func, r) in results {
        let l = &cat.loops[ix];
        tally.loops += 1;
        let c = counters(&r.stats);
        tally.drift.note(ix, c);
        for (t, v) in totals.iter_mut().zip(c) {
            *t += v as f64;
        }
        let verdict = match (&r.summary, r.stats.exhausted) {
            (_, Some(kind)) => Err(format!("budget exhausted ({})", kind.label())),
            (_, None) if r.stats.degraded => {
                Err("degraded: a budget ran out while minimising".to_string())
            }
            (None, None) => Err(format!(
                "no summary: {}",
                r.stats.failure.as_deref().unwrap_or("unknown")
            )),
            (Some(summary), None) => {
                let bytes = summary.encode();
                // The store's bounded re-verification, as a second check.
                let ((ok, effort), t) = timed("core.reverify", || {
                    verify_summary(&func, &bytes, cfg.max_ex_size)
                });
                if let Some(s) = samples.as_deref_mut() {
                    s.push("core.reverify_ms", millis(t));
                    s.push("core.reverify_conflicts", effort.conflicts as f64);
                }
                if summary.program().is_none() {
                    Err("not a gadget summary".to_string())
                } else if !ok {
                    Err("fails re-verification of its own summary".to_string())
                } else {
                    verdicts.check(ix, &func, &bytes)
                }
            }
        };
        tally
            .ops
            .record(verdict.map_err(|why| format!("{}: {why}", l.id)));
    }
    if let Some(s) = samples {
        push_search_counters(s, &totals);
        if let (Some(tracer), Some(before)) = (tracer, self_before) {
            sample_self_times(s, tracer, &before);
        }
    }
}

pub fn synth_cold(seed: u64, seconds: f64, trace: bool, plan: &Plan) -> Result<Report, String> {
    let rng = Rng::new(seed);
    let mut setup_s = Vec::new();
    let mut drawn = None;
    for _ in 0..plan.cold_setups {
        let t0 = Instant::now();
        let cat = Catalog::build()?;
        let picks = catalog::draw_cold(&cat, &mut rng.fork("cold"), plan);
        setup_s.push(t0.elapsed().as_secs_f64());
        drawn = Some((cat, picks));
    }
    let (cat, picks) = drawn.expect("at least one set-up");
    if picks.is_empty() {
        return Err("no eligible loops to draw from".to_string());
    }
    let mut verdicts = Verdicts::new(rng.fork("oracle"));
    let mut tally = Tally::default();
    let mut layers = Layers::default();
    let overhead = if trace {
        let tracer = Tracer::new();
        let overhead = alternate(seconds, &tracer, |traced| {
            let (runq_before, steal_before) = (util::runq_wait_ns(), util::steal_secs());
            round(
                &cat,
                &picks,
                &mut tally,
                &mut verdicts,
                Some(&mut layers.rounds),
                traced.then_some(&*tracer),
            );
            let runq = util::runq_wait_ns().saturating_sub(runq_before);
            let s = &mut layers.rounds;
            s.push("host.runq_wait_s", runq as f64 / 1e9);
            s.push("host.steal_s", util::steal_secs() - steal_before);
            Ok(tally.progress())
        })?;
        tracer.install();
        probe(&mut layers.probe, &tracer)?;
        finish_trace(&tracer, "synth_cold", seed)?;
        Some(overhead)
    } else {
        rounds(seconds, 1, |_| {
            round(&cat, &picks, &mut tally, &mut verdicts, None, None);
            Ok(())
        })?;
        None
    };

    let mut report = Report::new(&tally.ops, true);
    report.note(format!("set-up seconds: {setup_s:.3?}"));
    for (ix, c) in &tally.drift.first {
        let l = &cat.loops[*ix];
        let fields: Vec<String> = COUNTERS
            .iter()
            .zip(c)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        report.line(format!(
            "synth_cold loop {} class={:016x} {}",
            l.id,
            l.class,
            fields.join(" ")
        ));
    }
    if !tally.drift.drifted.is_empty() {
        let ids: Vec<&str> = tally
            .drift
            .drifted
            .iter()
            .map(|&i| cat.loops[i].id.as_str())
            .collect();
        report.note(format!(
            "solver counters differed between rounds for {} (a budget bound?)",
            ids.join(", ")
        ));
    }
    if let Some(overhead) = overhead {
        layers.rounds.push("trace.overhead_pct", overhead);
        layers.rounds.push("host.peak_rss_mb", util::peak_rss_mb());
        report.per_layer(&layers);
    } else {
        report.end_to_end(
            median(&setup_s),
            median(&tally.round_rates),
            median(&tally.synth_ms),
            median(&tally.round_p99s),
            median(&tally.pipeline_ms),
        );
    }
    Ok(report)
}
