//! `survey`: times every corpus loop once under the default budget and
//! prints one TSV row per loop.
//! The workload catalogue in `catalog.rs` is drawn from this output; the
//! README says how to regenerate it.

use std::time::Instant;

use strsum_core::{loop_fingerprint, summarize_loop, SynthesisConfig};
use strsum_corpus::{corpus, fingerprint_hash, stateful_corpus};

/// Runs the survey under the default budget, the one the catalogue's
/// reference costs were measured under; `only` restricts it to the named
/// loop ids.
pub fn run(only: &[String]) -> Result<(), String> {
    let cfg = SynthesisConfig::default();
    println!(
        "id\tclass\tlane\toutcome\tsecs\titerations\tsearch_queries\tsearch_conflicts\t\
         search_propagations\tverify_queries\tverify_conflicts\tscreen_rejects"
    );
    let loops = corpus()
        .into_iter()
        .map(|e| (e, "gadget"))
        .chain(stateful_corpus().into_iter().map(|e| (e, "stateful")));
    for (entry, lane) in loops {
        if !only.is_empty() && !only.contains(&entry.id) {
            continue;
        }
        let func = strsum_cfront::compile_one(&entry.source)
            .map_err(|e| format!("{} does not compile: {e:?}", entry.id))?;
        let class = fingerprint_hash(&loop_fingerprint(&func, cfg.max_ex_size));
        let start = Instant::now();
        let r = summarize_loop(&func, &cfg);
        let secs = start.elapsed().as_secs_f64();
        let outcome = match (&r.summary, r.stats.exhausted) {
            (Some(s), _) => s.kind().label().to_string(),
            (None, Some(kind)) => format!("exhausted:{}", kind.label()),
            (None, None) => "none".to_string(),
        };
        let s = &r.stats.solver;
        println!(
            "{}\t{class:016x}\t{lane}\t{outcome}\t{secs:.3}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            entry.id,
            r.stats.iterations,
            s.search.queries,
            s.search.conflicts,
            s.search.propagations,
            s.verify.queries,
            s.verify.conflicts,
            r.stats.screen.screen_rejects
        );
    }
    Ok(())
}

/// Times `verify_summary` (the store's re-verification of a hit) for
/// each named loop's own summary, median of five calls.
pub fn reverify(only: &[String]) -> Result<(), String> {
    let cfg = SynthesisConfig::default();
    println!("id\tkind\tsynth_secs\treverify_ms\treverify_conflicts");
    for entry in corpus().into_iter().chain(stateful_corpus()) {
        if !only.contains(&entry.id) {
            continue;
        }
        let func = strsum_cfront::compile_one(&entry.source)
            .map_err(|e| format!("{} does not compile: {e:?}", entry.id))?;
        let start = Instant::now();
        let r = summarize_loop(&func, &cfg);
        let synth = start.elapsed().as_secs_f64();
        let Some(summary) = r.summary else {
            println!("{}\tnone\t{synth:.3}\t-\t-", entry.id);
            continue;
        };
        let bytes = summary.encode();
        let mut times = Vec::new();
        let mut conflicts = 0;
        for _ in 0..5 {
            let t = Instant::now();
            let (ok, effort) = strsum_core::verify_summary(&func, &bytes, cfg.max_ex_size);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            conflicts = effort.conflicts;
            if !ok {
                return Err(format!(
                    "{} fails re-verification of its own summary",
                    entry.id
                ));
            }
        }
        times.sort_by(f64::total_cmp);
        println!(
            "{}\t{}\t{synth:.3}\t{:.3}\t{conflicts}",
            entry.id,
            summary.kind().label(),
            times[2]
        );
    }
    Ok(())
}
