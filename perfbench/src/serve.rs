//! The daemon workloads (`serve_warm`, `serve_mixed`) and the fixed probe.
//!
//! Clients are threads speaking the v1 wire protocol over Unix socket
//! pairs; each connection is served by `Daemon::serve_lines`, exactly as
//! the `strsum-server` binary serves a socket. Clients run a closed loop:
//! the next request is sent only after the previous answer arrived.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use strsum_api::{decode_frame, encode_frame, Frame, Origin, SummaryRequest, SummaryResponse};
use strsum_core::{
    loop_fingerprint, summarize_loop, verify_summary, LoopOutcome, Summary, SynthesisConfig,
};
use strsum_server::engine::{Engine, Prepared};
use strsum_server::Daemon;

use crate::catalog::{self, Catalog};
use crate::layers::{timed, Layers, Samples, Tracer, SELF_TIMES};
use crate::oracle::Verdicts;
use crate::util::{self, median, micros, millis, quantile, Rng, ScratchDir};
use crate::{Ops, Plan, Report};

/// Client connections of both serve workloads. One: the client thread,
/// its connection thread and the worker serving its request then never
/// outnumber the 2-core host's cores, so a round trip measures the
/// program rather than how threads happened to share the cores, and the
/// other daemon worker stays idle, free to take a cube grant.
pub const CLIENTS: usize = 1;

/// A daemon with its default options over an empty store in a scratch
/// directory, optionally with a cost book from an earlier lifetime.
struct Server {
    daemon: Daemon,
    // Dropped after the daemon (field order), removing the store.
    _dir: ScratchDir,
}

impl Server {
    fn start(label: &str, book: Option<&str>) -> Result<Server, String> {
        let dir = ScratchDir::new(label).map_err(|e| format!("scratch dir: {e}"))?;
        if let Some(book) = book {
            std::fs::write(dir.path().join("costs.tsv"), book)
                .map_err(|e| format!("writing the cost book: {e}"))?;
        }
        let engine = Engine::open(dir.path(), 0, SynthesisConfig::default())
            .map_err(|e| format!("engine open: {e}"))?;
        // The `strsum-server` default: one worker per available core.
        let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
        Ok(Server {
            daemon: Daemon::start(Arc::new(engine), workers),
            _dir: dir,
        })
    }

    fn engine(&self) -> &Engine {
        self.daemon.engine()
    }

    /// Bytes the store holds on disk (shard logs; the cost book aside).
    fn store_bytes(&self) -> u64 {
        std::fs::read_dir(self._dir.path())
            .map(|entries| {
                entries
                    .flatten()
                    .filter(|e| e.file_name() != "costs.tsv")
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }

    fn stop(self) -> Result<(), String> {
        self.daemon
            .shutdown()
            .map_err(|e| format!("daemon shutdown: {e}"))
    }
}

/// One request a client sends.
#[derive(Clone, Copy)]
struct Send {
    loop_ix: usize,
    /// First request of its fingerprint class in this store's lifetime.
    first: bool,
}

/// One answered request, as the client saw it.
struct Answer {
    send: Send,
    id: String,
    rtt: Duration,
    encode: Duration,
    decode: Duration,
    bytes: usize,
    frame: Result<Frame, String>,
}

/// What one round of client traffic produced.
struct Traffic {
    answers: Vec<Answer>,
    wall: Duration,
    /// Run-queue wait of the client threads (they exit before the
    /// process-wide reading is taken).
    client_runq_ns: u64,
}

/// Sends every stream over its own connection, all clients starting
/// together, and collects the answers.
fn drive(
    daemon: &Daemon,
    cat: &Catalog,
    streams: &[Vec<Send>],
    tag: &str,
) -> Result<Traffic, String> {
    let start_line = Arc::new(Barrier::new(streams.len() + 1));
    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        let mut servers = Vec::new();
        for (c, stream) in streams.iter().enumerate() {
            let (client_end, server_end) =
                UnixStream::pair().map_err(|e| format!("socket pair: {e}"))?;
            servers.push(scope.spawn(move || {
                let input = BufReader::new(server_end.try_clone()?);
                daemon.serve_lines(input, &server_end)
            }));
            let start_line = Arc::clone(&start_line);
            clients.push(scope.spawn(move || {
                client(
                    &client_end,
                    cat,
                    stream,
                    &format!("{tag}-c{c}"),
                    &start_line,
                )
            }));
        }
        start_line.wait();
        let began = Instant::now();
        let mut answers = Vec::new();
        let mut client_runq_ns = 0;
        let mut failure = None;
        for h in clients {
            match h.join().expect("client thread panicked") {
                Ok((a, runq)) => {
                    answers.extend(a);
                    client_runq_ns += runq;
                }
                Err(e) => failure = Some(e),
            }
        }
        let wall = began.elapsed();
        for h in servers {
            h.join()
                .expect("connection thread panicked")
                .map_err(|e| format!("serving a connection: {e}"))?;
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(Traffic {
                answers,
                wall,
                client_runq_ns,
            }),
        }
    })
}

/// One closed-loop client.
fn client(
    conn: &UnixStream,
    cat: &Catalog,
    stream: &[Send],
    tag: &str,
    start_line: &Barrier,
) -> Result<(Vec<Answer>, u64), String> {
    let io = |e: std::io::Error| format!("client {tag}: {e}");
    let mut reader = BufReader::new(conn.try_clone().map_err(io)?);
    let mut writer = conn;
    let requests: Vec<SummaryRequest> = stream
        .iter()
        .enumerate()
        .map(|(k, s)| {
            SummaryRequest::c(format!("{tag}-{k}"), cat.loops[s.loop_ix].source.as_bytes())
        })
        .collect();
    let mut answers = Vec::with_capacity(stream.len());
    let mut line = String::new();
    start_line.wait();
    for (send, req) in stream.iter().zip(requests) {
        let id = req.id.clone();
        let t0 = Instant::now();
        let (mut out, encode) = timed("api.encode", || encode_frame(&Frame::Summary(req)));
        out.push('\n');
        writer.write_all(out.as_bytes()).map_err(io)?;
        line.clear();
        if reader.read_line(&mut line).map_err(io)? == 0 {
            return Err(format!("client {tag}: connection closed mid-stream"));
        }
        let (frame, decode) = timed("api.decode", || decode_frame(line.trim()));
        let rtt = t0.elapsed();
        answers.push(Answer {
            send: *send,
            id,
            rtt,
            encode,
            decode,
            bytes: out.len() + line.len(),
            frame: frame.map_err(|e| e.message),
        });
    }
    conn.shutdown(std::net::Shutdown::Write).map_err(io)?;
    Ok((answers, util::thread_runq_wait_ns()))
}

/// Checks one answer; `Err` says why it counts as failed.
fn check_answer(
    a: &Answer,
    cat: &Catalog,
    verdicts: &mut Verdicts,
    must_hit: bool,
) -> Result<(), String> {
    let resp = match &a.frame {
        Ok(Frame::Response(r)) => r,
        Ok(Frame::Error(e)) => return Err(format!("error frame: {}", e.message)),
        Ok(_) => return Err("unexpected frame kind".to_string()),
        Err(e) => return Err(format!("undecodable response: {e}")),
    };
    let l = &cat.loops[a.send.loop_ix];
    if resp.id != a.id {
        return Err(format!(
            "{}: answer for {} came back as {}",
            l.id, a.id, resp.id
        ));
    }
    if !matches!(
        resp.outcome,
        LoopOutcome::Summarized | LoopOutcome::CacheHit
    ) {
        return Err(format!("{}: outcome {}", l.id, resp.outcome.label()));
    }
    if must_hit && (resp.origin != Origin::Store || !resp.reverified) {
        return Err(format!("{}: not a re-verified store hit", l.id));
    }
    let summary = resp
        .summary
        .as_deref()
        .ok_or_else(|| format!("{}: no summary", l.id))?;
    verdicts
        .check(a.send.loop_ix, &l.func, summary)
        .map_err(|e| format!("{}: {e}", l.id))
}

/// Checks a set-up answer for loop number `ix`: a fresh synthesis whose
/// summary the oracle accepts.
fn check_fill(
    cat: &Catalog,
    ix: usize,
    resp: &SummaryResponse,
    verdicts: &mut Verdicts,
) -> Result<(), String> {
    let l = &cat.loops[ix];
    match (&resp.outcome, resp.summary.as_deref()) {
        (LoopOutcome::Summarized, Some(s)) => verdicts.check(ix, &l.func, s),
        (outcome, _) => Err(format!("set-up fill gave {}", outcome.label())),
    }
    .map_err(|why| format!("{}: {why}", l.id))
}

fn response(a: &Answer) -> Option<&SummaryResponse> {
    match &a.frame {
        Ok(Frame::Response(r)) => Some(r),
        _ => None,
    }
}

/// Folds one traced round's traffic and daemon counters into samples.
fn sample_traffic(s: &mut Samples, traffic: &Traffic) {
    for a in &traffic.answers {
        s.push("api.encode_us", micros(a.encode));
        s.push("api.decode_us", micros(a.decode));
        s.push("api.frame_bytes", a.bytes as f64);
        if let Some(r) = response(a) {
            let service = Duration::from_micros(r.cost.wall_micros);
            s.push("server.engine.service_ms", millis(service));
            let wait = a.rtt.saturating_sub(service + a.encode + a.decode);
            s.push("server.sched.queue_wait_ms", millis(wait));
        }
    }
}

/// Daemon counters at one instant, for per-round deltas.
#[derive(Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    rejected: u64,
    fast_lane: u64,
    heap: u64,
    cubed: u64,
}

impl Counters {
    fn read(server: &Server) -> Counters {
        let e = server.engine().stats();
        let s = server.daemon.sched_stats();
        Counters {
            hits: e.store_hits,
            misses: e.store_misses,
            rejected: e.rejected,
            fast_lane: s.fast_lane,
            heap: s.heap,
            cubed: s.cubed,
        }
    }

    fn sample_since(&self, before: &Counters, server: &Server, s: &mut Samples) {
        s.push("server.store.hits", (self.hits - before.hits) as f64);
        s.push("server.store.misses", (self.misses - before.misses) as f64);
        s.push(
            "server.store.rejected",
            (self.rejected - before.rejected) as f64,
        );
        s.push(
            "server.sched.fast_lane",
            (self.fast_lane - before.fast_lane) as f64,
        );
        s.push("server.sched.heap", (self.heap - before.heap) as f64);
        s.push("server.sched.cubed", (self.cubed - before.cubed) as f64);
        s.push("server.store.entries", server.engine().store().len() as f64);
        s.push("server.store.bytes", server.store_bytes() as f64);
    }
}

/// Self-time deltas of one traced phase into samples.
pub fn sample_self_times(s: &mut Samples, tracer: &Tracer, before: &[f64]) {
    let now = tracer.snapshot();
    for ((_, _, metric), (n, b)) in SELF_TIMES.iter().zip(now.iter().zip(before)) {
        s.push_positive(metric, n - b);
    }
}

/// Replays `loops` through each layer's public functions on `server`'s
/// engine, one timed call per layer: cfront, fingerprint, store lookup,
/// engine prepare/finish, and re-verification of the stored summary.
/// Loops in `synthesize` are also summarised directly (gadget search
/// counters, or the recurrence lane for stateful loops).
fn replay(
    s: &mut Samples,
    cat: &Catalog,
    server: &Server,
    loops: &[usize],
    synthesize: &[usize],
) -> Result<(), String> {
    let engine = server.engine();
    let max_ex_size = SynthesisConfig::default().max_ex_size;
    for &ix in loops {
        let l = &cat.loops[ix];
        let (func, t) = timed("cfront.compile", || strsum_cfront::compile_one(&l.source));
        let func = func.map_err(|e| format!("{} does not compile: {e:?}", l.id))?;
        s.push("cfront.compile_us", micros(t));
        let (fp, t) = timed("core.fingerprint", || loop_fingerprint(&func, max_ex_size));
        s.push("core.fingerprint_us", micros(t));
        let (stored, t) = timed("server.store.lookup", || engine.store().lookup(&fp));
        s.push("server.store.lookup_us", micros(t));
        if let Some(bytes) = stored {
            let ((ok, effort), t) = timed("core.reverify", || {
                verify_summary(&func, &bytes, max_ex_size)
            });
            let closed = matches!(
                Summary::decode(&bytes),
                Ok(Summary::Accumulator(_) | Summary::Builder(_))
            );
            // A colliding class may hold another loop's summary: its
            // rejection is the collision, not a failure of the replay.
            if ok && closed {
                s.push("core.closed_form_reverify_ms", millis(t));
            } else if ok {
                s.push("core.reverify_ms", millis(t));
                s.push("core.reverify_conflicts", effort.conflicts as f64);
            }
        }
        let req = SummaryRequest::c(format!("replay-{}", l.id), l.source.as_bytes());
        let (prepared, t) = timed("server.engine.prepare", || engine.prepare(req));
        s.push("server.engine.prepare_us", micros(t));
        if let Prepared::Task(task) = prepared {
            let (_, t) = timed("server.engine.finish", || engine.finish(task, 1));
            s.push("server.engine.finish_us", micros(t));
        }
    }
    let cfg = SynthesisConfig::default();
    let mut totals = [0.0f64; 7];
    let mut gadgets = 0;
    for &ix in synthesize {
        let l = &cat.loops[ix];
        let (r, t) = timed("core.summarize", || summarize_loop(&l.func, &cfg));
        if l.stateful {
            s.push("core.recur_ms", millis(t));
            continue;
        }
        s.push("core.summarize_ms", millis(t));
        for (total, v) in totals.iter_mut().zip(crate::cold::counters(&r.stats)) {
            *total += v as f64;
        }
        gadgets += 1;
    }
    if gadgets > 0 {
        crate::cold::push_search_counters(s, &totals);
    }
    Ok(())
}

/// What a run's rounds add up to.
#[derive(Default)]
struct Tally {
    ops: Ops,
    requests: u64,
    secs: f64,
    /// Requests per second of each round.
    round_rates: Vec<f64>,
    /// 99th percentile of each round's repeat-arrival round trips.
    round_p99s: Vec<f64>,
    rtt_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    /// A broken engine property (`reverified == hits + rejected`).
    broken: Option<String>,
}

impl Tally {
    /// Requests answered and the seconds their rounds took, so far.
    fn progress(&self) -> (f64, f64) {
        (self.requests as f64, self.secs)
    }
}

/// Checks and tallies one round of traffic.
fn tally_traffic(
    t: &mut Tally,
    traffic: &Traffic,
    cat: &Catalog,
    verdicts: &mut Verdicts,
    must_hit: bool,
) {
    t.secs += traffic.wall.as_secs_f64();
    t.round_rates
        .push(traffic.answers.len() as f64 / traffic.wall.as_secs_f64().max(1e-9));
    let repeats: Vec<f64> = traffic
        .answers
        .iter()
        .filter(|a| !a.send.first)
        .map(|a| millis(a.rtt))
        .collect();
    t.round_p99s.extend(quantile(&repeats, 0.99));
    for a in &traffic.answers {
        t.requests += 1;
        t.ops.record(check_answer(a, cat, verdicts, must_hit));
        if a.send.first {
            t.cold_ms.push(millis(a.rtt));
        } else {
            t.rtt_ms.push(millis(a.rtt));
        }
    }
}

/// Runs whole rounds for about `seconds`: at least `min`, and another
/// while it would end closer to `seconds` than stopping now. `round` gets
/// the round's number, from 0.
pub fn rounds(
    seconds: f64,
    min: usize,
    mut round: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = Instant::now();
    let mut n = 0;
    loop {
        round(n)?;
        n += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if n >= min && elapsed + elapsed / n as f64 / 2.0 > seconds {
            return Ok(());
        }
    }
}

/// The rounds of a traced run: untraced and traced in turn, at least one
/// of each, so that drift in host speed over the run weighs on both sides
/// of the tracing overhead. `round(traced)` runs one round with `tracer`
/// installed or not and returns the work done so far (loops or requests)
/// and the seconds it took. Returns the tracing overhead: how much slower
/// the traced rounds worked, in percent.
pub fn alternate(
    seconds: f64,
    tracer: &Arc<Tracer>,
    mut round: impl FnMut(bool) -> Result<(f64, f64), String>,
) -> Result<f64, String> {
    let mut work = [0.0f64; 2];
    let mut secs = [0.0f64; 2];
    let mut done = (0.0, 0.0);
    rounds(seconds, 2, |k| {
        let traced = k % 2 == 1;
        if traced {
            tracer.install();
        }
        let now = round(traced);
        if traced {
            strsum_obs::uninstall();
        }
        let now = now?;
        work[usize::from(traced)] += now.0 - done.0;
        secs[usize::from(traced)] += now.1 - done.1;
        done = now;
        Ok(())
    })?;
    let rate = |i: usize| work[i] / secs[i].max(1e-9);
    Ok((rate(0) / rate(1) - 1.0) * 100.0)
}

// ---------------------------------------------------------------------------
// serve_warm
// ---------------------------------------------------------------------------

pub fn serve_warm(seed: u64, seconds: f64, trace: bool, plan: &Plan) -> Result<Report, String> {
    let rng = Rng::new(seed);
    let mut verdicts = Verdicts::new(rng.fork("oracle"));
    let mut setup_s = Vec::new();
    let mut fill_ms = Vec::new();
    let mut kept: Option<(Catalog, Vec<usize>, Vec<usize>, Server)> = None;
    let mut tally = Tally::default();
    for k in 0..plan.warm_setups {
        let t0 = Instant::now();
        let cat = Catalog::build()?;
        let (reps, pool) = catalog::draw_warm(&cat, &mut rng.fork("warm"), plan);
        let server = Server::start("warm", None)?;
        let mut filled = Vec::new();
        for &ix in &reps {
            let l = &cat.loops[ix];
            let req = SummaryRequest::c(format!("fill-{k}-{}", l.id), l.source.as_bytes());
            let (resp, t) = timed("server.engine.handle", || server.engine().handle(&req));
            fill_ms.push(millis(t));
            filled.push((ix, resp));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        // Set-up answers are checked like any other (outside the timing).
        for (ix, resp) in &filled {
            let verdict = check_fill(&cat, *ix, resp, &mut verdicts);
            tally.ops.record(verdict);
        }
        if let Some((_, _, _, old)) = kept.replace((cat, reps, pool, server)) {
            old.stop()?;
        }
    }
    let (cat, reps, pool, server) = kept.expect("at least one set-up");

    // The round: every pooled loop `per_loop` times, seeded order, dealt
    // round-robin to the clients. Every request is a repeat arrival.
    let mut order: Vec<usize> = pool
        .iter()
        .flat_map(|&ix| std::iter::repeat_n(ix, plan.warm_per_loop))
        .collect();
    rng.fork("warm-stream").shuffle(&mut order);
    let streams: Vec<Vec<Send>> = (0..CLIENTS)
        .map(|c| {
            order
                .iter()
                .skip(c)
                .step_by(CLIENTS)
                .map(|&loop_ix| Send {
                    loop_ix,
                    first: false,
                })
                .collect()
        })
        .collect();

    let mut layers = Layers::default();
    // One round; `samples` takes its per-layer samples (in every round of
    // a traced run), and self times while `tracer` is installed.
    let mut run_round = |tally: &mut Tally,
                         k: usize,
                         samples: Option<&mut Samples>,
                         tracer: Option<&Tracer>|
     -> Result<(), String> {
        let before = Counters::read(&server);
        let self_before = tracer.map(Tracer::snapshot);
        let (runq_before, steal_before) = (util::runq_wait_ns(), util::steal_secs());
        let traffic = drive(&server.daemon, &cat, &streams, &format!("r{k}"))?;
        let steal = util::steal_secs() - steal_before;
        let runq = util::runq_wait_ns().saturating_sub(runq_before) + traffic.client_runq_ns;
        if let Some(s) = samples {
            sample_traffic(s, &traffic);
            Counters::read(&server).sample_since(&before, &server, s);
            if let (Some(tracer), Some(self_before)) = (tracer, self_before) {
                sample_self_times(s, tracer, &self_before);
            }
            s.push("host.runq_wait_s", runq as f64 / 1e9);
            s.push("host.steal_s", steal);
        }
        tally_traffic(tally, &traffic, &cat, &mut verdicts, true);
        Ok(())
    };
    let overhead = if trace {
        let tracer = Tracer::new();
        let mut k = 0;
        let overhead = alternate(seconds, &tracer, |traced| {
            let tracer = traced.then_some(&*tracer);
            run_round(&mut tally, k, Some(&mut layers.rounds), tracer)?;
            k += 1;
            Ok(tally.progress())
        })?;
        tracer.install();
        let self_before = tracer.snapshot();
        replay(&mut layers.replay, &cat, &server, &pool, &reps)?;
        sample_self_times(&mut layers.replay, &tracer, &self_before);
        probe(&mut layers.probe, &tracer)?;
        finish_trace(&tracer, "serve_warm", seed)?;
        Some(overhead)
    } else {
        rounds(seconds, 1, |k| run_round(&mut tally, k, None, None))?;
        None
    };

    check_counters(&mut tally, &server);
    server.stop()?;
    let mut report = report(&tally, &setup_s);
    if let Some(overhead) = overhead {
        layers.rounds.push("trace.overhead_pct", overhead);
        layers.rounds.push("host.peak_rss_mb", util::peak_rss_mb());
        report.per_layer(&layers);
    } else {
        report.end_to_end(
            median(&setup_s),
            median(&tally.round_rates),
            median(&tally.rtt_ms),
            calm_p99(&tally),
            median(&fill_ms),
        );
    }
    Ok(report)
}

/// `latency_p99_ms`: the lowest over rounds of each round's 99th
/// percentile. A round's tail is set either by the program's slowest
/// requests or, while the shared host stalls the process for tens of
/// milliseconds at a time, by those stalls; such spells last from a few
/// seconds to a whole run, so any middle statistic over rounds reads them
/// in some runs and not in others.
fn calm_p99(t: &Tally) -> Option<f64> {
    t.round_p99s.iter().copied().reduce(f64::min)
}

/// Checks the engine's soundness counters: every store hit served or
/// rejected went through re-verification.
fn check_counters(t: &mut Tally, server: &Server) {
    let e = server.engine().stats();
    if e.reverified != e.store_hits + e.rejected && t.broken.is_none() {
        t.broken = Some(format!(
            "engine counters broke reverified == hits + rejected: {} != {} + {}",
            e.reverified, e.store_hits, e.rejected
        ));
    }
}

/// The report skeleton: outcome counts, correctness, diagnostics.
fn report(t: &Tally, setup_s: &[f64]) -> Report {
    let mut report = Report::new(&t.ops, t.broken.is_none());
    report.note(format!("set-up seconds: {setup_s:.3?}"));
    if let Some(broken) = &t.broken {
        report.note(broken.clone());
    }
    report
}

/// Uninstalls the tracer and writes the benchmark's spans to
/// `.perfbench-out/trace-<workload>-<seed>.json`.
pub fn finish_trace(tracer: &Tracer, workload: &str, seed: u64) -> Result<(), String> {
    strsum_obs::uninstall();
    let dir = std::path::Path::new(".perfbench-out");
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, tracer.chrome_trace()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// Marks each class's first request in each stream. A class never spans
/// two streams (`serve_mixed` has one), so this is also the class's first
/// arrival at the daemon.
fn mark_first(cat: &Catalog, streams: &[Vec<usize>]) -> Vec<Vec<Send>> {
    streams
        .iter()
        .map(|stream| {
            let mut seen = std::collections::HashSet::new();
            stream
                .iter()
                .map(|&loop_ix| Send {
                    loop_ix,
                    first: seen.insert(cat.loops[loop_ix].class),
                })
                .collect()
        })
        .collect()
}

/// The cost book every `serve_mixed` daemon starts from, as a daemon that
/// served these classes in an earlier lifetime would have left it: each
/// class of `streams` synthesised once, in stream order, through
/// `Engine::handle` on a scratch store, which finishes serially, so no
/// cube grant is in the book's figures. With the book, a gadget class's
/// first arrival is predicted at its real cost, above the scheduler's
/// serial cutoff, so it waits on the heap, where it can take a cube grant
/// when the other worker is idle. An empty book gives it no estimate, and
/// with no estimate no grant. Returns the book and the answers, which the
/// caller checks.
fn cost_book(
    cat: &Catalog,
    streams: &[Vec<usize>],
) -> Result<(String, Vec<(usize, SummaryResponse)>), String> {
    let dir = ScratchDir::new("book").map_err(|e| format!("scratch dir: {e}"))?;
    let engine = Engine::open(dir.path(), 0, SynthesisConfig::default())
        .map_err(|e| format!("engine open: {e}"))?;
    let mut answers = Vec::new();
    for send in mark_first(cat, streams)
        .iter()
        .flatten()
        .filter(|s| s.first)
    {
        let l = &cat.loops[send.loop_ix];
        let req = SummaryRequest::c(format!("book-{}", l.id), l.source.as_bytes());
        answers.push((send.loop_ix, engine.handle(&req)));
    }
    engine
        .save_costs()
        .and_then(|()| std::fs::read_to_string(engine.cost_book_path()))
        .map(|book| (book, answers))
        .map_err(|e| format!("saving the cost book: {e}"))
}

/// What a round of a traced run measures besides its traffic: where its
/// per-layer samples go, the tracer while it is installed (for self
/// times), and whether the round's loops are then replayed layer by layer
/// on its store.
struct Measure<'a> {
    samples: &'a mut Samples,
    tracer: Option<&'a Tracer>,
    replay: bool,
}

/// One `serve_mixed` round: a daemon over an empty store with `book` as
/// its cost book, the streams, then shutdown. Returns the set-up seconds.
fn mixed_round(
    streams: &[Vec<usize>],
    book: Option<&str>,
    tally: &mut Tally,
    verdicts: &mut Verdicts,
    tag: &str,
    measure: Option<Measure>,
) -> Result<f64, String> {
    let t0 = Instant::now();
    let cat = Catalog::build()?;
    let server = Server::start("mixed", book)?;
    let setup = t0.elapsed().as_secs_f64();
    let sends = mark_first(&cat, streams);
    let self_before = measure
        .as_ref()
        .and_then(|m| m.tracer)
        .map(Tracer::snapshot);
    let (runq_before, steal_before) = (util::runq_wait_ns(), util::steal_secs());
    let traffic = drive(&server.daemon, &cat, &sends, tag)?;
    let steal = util::steal_secs() - steal_before;
    let runq = util::runq_wait_ns().saturating_sub(runq_before) + traffic.client_runq_ns;
    tally_traffic(tally, &traffic, &cat, verdicts, false);
    check_counters(tally, &server);
    if let Some(m) = measure {
        let s = m.samples;
        sample_traffic(s, &traffic);
        Counters::read(&server).sample_since(&Counters::default(), &server, s);
        if let (Some(tracer), Some(self_before)) = (m.tracer, &self_before) {
            sample_self_times(s, tracer, self_before);
        }
        s.push("host.runq_wait_s", runq as f64 / 1e9);
        s.push("host.steal_s", steal);
        if let (true, Some(tracer)) = (m.replay, m.tracer) {
            let mut loops: Vec<usize> = streams.iter().flatten().copied().collect();
            loops.sort_unstable();
            loops.dedup();
            let firsts: Vec<usize> = sends
                .iter()
                .flatten()
                .filter(|s| s.first)
                .map(|s| s.loop_ix)
                .collect();
            let before = tracer.snapshot();
            replay(s, &cat, &server, &loops, &firsts)?;
            sample_self_times(s, tracer, &before);
        }
    }
    server.stop()?;
    Ok(setup)
}

pub fn serve_mixed(seed: u64, seconds: f64, trace: bool, plan: &Plan) -> Result<Report, String> {
    let rng = Rng::new(seed);
    let mut verdicts = Verdicts::new(rng.fork("oracle"));
    let mut tally = Tally::default();
    let t0 = Instant::now();
    let cat = Catalog::build()?;
    let streams = vec![catalog::draw_mixed(&cat, &mut rng.fork("mixed"), plan)];
    let (book, filled) = cost_book(&cat, &streams)?;
    let book_s = t0.elapsed().as_secs_f64();
    for (ix, resp) in &filled {
        let verdict = check_fill(&cat, *ix, resp, &mut verdicts);
        tally.ops.record(verdict);
    }
    drop(cat);
    let book = Some(book.as_str());
    let mut setup_s = Vec::new();
    let mut layers = Layers::default();
    let overhead = if trace {
        let tracer = Tracer::new();
        let mut k = 0;
        let overhead = alternate(seconds, &tracer, |traced| {
            let measure = Measure {
                samples: &mut layers.rounds,
                tracer: traced.then_some(&*tracer),
                replay: false,
            };
            setup_s.push(mixed_round(
                &streams,
                book,
                &mut tally,
                &mut verdicts,
                &format!("r{k}"),
                Some(measure),
            )?);
            k += 1;
            Ok(tally.progress())
        })?;
        // One more traced round whose loops are then replayed layer by
        // layer on its store.
        tracer.install();
        mixed_round(
            &streams,
            book,
            &mut tally,
            &mut verdicts,
            "replay",
            Some(Measure {
                samples: &mut layers.replay,
                tracer: Some(&tracer),
                replay: true,
            }),
        )?;
        probe(&mut layers.probe, &tracer)?;
        finish_trace(&tracer, "serve_mixed", seed)?;
        Some(overhead)
    } else {
        rounds(seconds, 1, |k| {
            setup_s.push(mixed_round(
                &streams,
                book,
                &mut tally,
                &mut verdicts,
                &format!("r{k}"),
                None,
            )?);
            Ok(())
        })?;
        None
    };
    let mut report = report(&tally, &setup_s);
    report.note(format!("cost-book fill seconds: {book_s:.3}"));
    if let Some(overhead) = overhead {
        layers.rounds.push("trace.overhead_pct", overhead);
        layers.rounds.push("host.peak_rss_mb", util::peak_rss_mb());
        report.per_layer(&layers);
    } else {
        report.end_to_end(
            median(&setup_s).map(|round| book_s + round),
            median(&tally.round_rates),
            median(&tally.rtt_ms),
            calm_p99(&tally),
            median(&tally.cold_ms),
        );
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// The probe
// ---------------------------------------------------------------------------

/// The fixed probe: the same tiny mixed stream in every traced run (one
/// client, one cheap gadget class, two closed forms and the colliding
/// acc_01/acc_08 pair), then its replay. It measures the layers a
/// workload never enters, so every per-layer metric is a measurement.
pub fn probe(s: &mut Samples, tracer: &Tracer) -> Result<(), String> {
    const STREAM: &[&str] = &[
        "git_09", "acc_03", "acc_01", "git_09", "acc_03", "acc_08", "acc_01", "tar_09", "acc_03",
    ];
    let cat = Catalog::build()?;
    let stream: Vec<usize> = STREAM
        .iter()
        .map(|id| {
            cat.index(id)
                .ok_or_else(|| format!("probe loop {id} missing from the corpus"))
        })
        .collect::<Result<_, _>>()?;
    drop(cat);
    let mut tally = Tally::default();
    let mut verdicts = Verdicts::new(Rng::new(0).fork("probe"));
    let measure = Measure {
        samples: s,
        tracer: Some(tracer),
        replay: true,
    };
    mixed_round(
        &[stream],
        None,
        &mut tally,
        &mut verdicts,
        "probe",
        Some(measure),
    )?;
    match tally.ops.first_failure() {
        Some(why) => Err(format!("probe: {why}")),
        None => Ok(()),
    }
}
