//! Per-layer measurement: the samples each layer call produces, the
//! in-memory span sink of the traced run, and the per-layer metric table.
//!
//! A traced run measures each layer three ways, in order of preference:
//! its own traced rounds, a replay of the workload's inputs through each
//! layer's public functions, and a fixed probe (the same in every
//! workload) for layers the workload never enters. Every metric says in
//! the README which of the three it came from on which workload.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

use strsum_obs::{Collector, Event, EventKind, Sink};

use crate::util::{median, quantile};

/// How a metric folds its samples.
#[derive(Clone, Copy)]
enum Fold {
    Median,
    Mean,
    P99,
}

/// Every per-layer metric: name, unit, fold.
const METRICS: &[(&str, &str, Fold)] = &[
    ("cfront.compile_us", "us", Fold::Median),
    ("core.fingerprint_us", "us", Fold::Median),
    ("core.summarize_ms", "ms", Fold::Median),
    ("core.cegis_iterations", "count", Fold::Median),
    ("core.search_queries", "count", Fold::Median),
    ("core.search_queries_per_iteration", "count", Fold::Median),
    ("core.search_conflicts", "count", Fold::Median),
    ("core.search_propagations", "count", Fold::Median),
    ("core.verify_queries", "count", Fold::Median),
    ("core.verify_conflicts", "count", Fold::Median),
    ("core.screen_rejects", "count", Fold::Median),
    ("core.search_s", "s", Fold::Median),
    ("core.canonical_s", "s", Fold::Median),
    ("core.verify_s", "s", Fold::Median),
    ("symex.run_s", "s", Fold::Median),
    ("core.reverify_ms", "ms", Fold::Median),
    ("core.reverify_conflicts", "count", Fold::Median),
    ("core.recur_ms", "ms", Fold::Median),
    ("core.closed_form_reverify_ms", "ms", Fold::P99),
    ("server.store.lookup_us", "us", Fold::Median),
    ("server.store.hits", "count", Fold::Median),
    ("server.store.misses", "count", Fold::Median),
    ("server.store.rejected", "count", Fold::Median),
    ("server.store.entries", "count", Fold::Median),
    ("server.store.bytes", "bytes", Fold::Median),
    ("server.engine.prepare_us", "us", Fold::Median),
    ("server.engine.finish_us", "us", Fold::Median),
    ("server.engine.service_ms", "ms", Fold::Median),
    ("server.sched.queue_wait_ms", "ms", Fold::Mean),
    ("server.sched.fast_lane", "count", Fold::Median),
    ("server.sched.heap", "count", Fold::Median),
    ("server.sched.cubed", "count", Fold::Mean),
    ("api.encode_us", "us", Fold::Median),
    ("api.decode_us", "us", Fold::Median),
    ("api.frame_bytes", "bytes", Fold::Median),
    ("host.runq_wait_s", "s", Fold::Median),
    ("host.steal_s", "s", Fold::Median),
    ("host.peak_rss_mb", "MB", Fold::Median),
    ("trace.overhead_pct", "%", Fold::Median),
];

/// Samples keyed by metric name.
#[derive(Default, Debug, Clone)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            METRICS.iter().any(|m| m.0 == name),
            "unknown per-layer metric {name}"
        );
        self.0.entry(name).or_default().push(value);
    }

    /// Pushes `value` only when positive: for a span self time, zero
    /// means the phase never entered that span.
    pub fn push_positive(&mut self, name: &'static str, value: f64) {
        if value > 0.0 {
            self.push(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<&Vec<f64>> {
        self.0.get(name).filter(|v| !v.is_empty())
    }
}

/// The per-layer samples of one traced run.
#[derive(Default)]
pub struct Layers {
    /// From the workload's traced rounds.
    pub rounds: Samples,
    /// From the replay of the workload's inputs, layer by layer.
    pub replay: Samples,
    /// From the fixed probe.
    pub probe: Samples,
}

impl Layers {
    /// The metric table: each metric from the first source that has
    /// samples for it.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        METRICS
            .iter()
            .map(|&(name, unit, fold)| {
                let samples = self
                    .rounds
                    .get(name)
                    .or_else(|| self.replay.get(name))
                    .or_else(|| self.probe.get(name));
                let value = samples
                    .and_then(|v| match fold {
                        Fold::Median => median(v),
                        Fold::P99 => quantile(v, 0.99),
                        Fold::Mean => Some(v.iter().sum::<f64>() / v.len() as f64),
                    })
                    .unwrap_or(0.0);
                (name, unit, value)
            })
            .collect()
    }
}

/// Program spans whose self time the traced run reports, with the
/// per-layer metric each feeds.
pub const SELF_TIMES: &[(&str, &str, &str)] = &[
    ("cegis.search", "cegis", "core.search_s"),
    ("smt.canonical", "search", "core.canonical_s"),
    ("cegis.verify", "cegis", "core.verify_s"),
    ("symex.run", "symex", "symex.run_s"),
];

/// Tag of the spans the benchmark records around its own layer calls.
pub const BENCH_TAG: &str = "bench";

#[derive(Default)]
struct TracerState {
    /// Per thread: completed spans (start, duration) still waiting to be
    /// claimed by an enclosing span. Spans end innermost first, so when
    /// a span ends, the entries that started inside it are its children.
    pending: HashMap<u64, Vec<(u64, u64)>>,
    /// Self time in µs per (span name, tag).
    self_us: BTreeMap<(&'static str, &'static str), u64>,
}

/// The in-memory span sink of a traced run. It keeps the benchmark's own
/// spans and folds every span into per-name self time as it arrives, so
/// memory stays bounded however many solver spans the program emits.
pub struct Tracer {
    state: Mutex<TracerState>,
    /// The benchmark's own spans, written out when the run ends.
    bench: Arc<Collector>,
}

/// Pending spans kept per thread before the oldest are folded away: a
/// span enclosing more direct children than this loses the oldest from
/// its child sum, which only a thread-wide root span could.
const PENDING_CAP: usize = 1 << 16;

/// Benchmark spans kept for the written trace; older ones are dropped.
const BENCH_SPANS: usize = 1 << 18;

impl Tracer {
    /// A sink that records nothing until [`Tracer::install`]ed.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            state: Mutex::default(),
            bench: Collector::new(BENCH_SPANS),
        })
    }

    /// Makes this tracer the process-wide sink; `strsum_obs::uninstall`
    /// stops recording again.
    pub fn install(self: &Arc<Tracer>) {
        strsum_obs::install(self.clone());
    }

    /// Total self seconds of span `name`/`tag` so far.
    pub fn self_secs(&self, name: &str, tag: &str) -> f64 {
        let st = self.state.lock().expect("tracer lock");
        st.self_us
            .iter()
            .filter(|((n, t), _)| *n == name && *t == tag)
            .map(|(_, &us)| us as f64 / 1e6)
            .sum()
    }

    /// Self seconds of every span in [`SELF_TIMES`], in that order.
    pub fn snapshot(&self) -> Vec<f64> {
        SELF_TIMES
            .iter()
            .map(|&(name, tag, _)| self.self_secs(name, tag))
            .collect()
    }

    /// The benchmark's own spans as Chrome `trace_event` JSON.
    pub fn chrome_trace(&self) -> String {
        self.bench.chrome_trace()
    }
}

impl Sink for Tracer {
    fn record(&self, event: Event) {
        let EventKind::Span { start_us, dur_us } = event.kind else {
            return;
        };
        let mut st = self.state.lock().expect("tracer lock");
        let pending = st.pending.entry(event.tid).or_default();
        let mut children = 0u64;
        while let Some(&(s, d)) = pending.last() {
            if s < start_us {
                break;
            }
            children += d;
            pending.pop();
        }
        pending.push((start_us, dur_us));
        if pending.len() > PENDING_CAP {
            pending.drain(..PENDING_CAP / 2);
        }
        *st.self_us.entry((event.name, event.tag)).or_default() += dur_us.saturating_sub(children);
        drop(st);
        if event.tag == BENCH_TAG {
            self.bench.record(event);
        }
    }
}

/// Times `f` under a benchmark span named `name` (recorded only while a
/// tracer is installed) and returns its result with the elapsed time.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let _span = strsum_obs::span(name, BENCH_TAG);
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}
