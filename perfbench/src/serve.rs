//! `serve-zipf-rw`: an open-loop stream of Zipf point reads with ~10%
//! delta writes against one `FaqServer`.
//!
//! Reads are timed from the moment they were due, so a stall also
//! charges the reads queued behind it. The generator submits on the
//! calling thread; one collector thread waits the tickets in submit
//! order. A ticket that is ready before an older one is therefore
//! timed when the older one returns — with two workers taking batches
//! oldest-first that adds at most one batch's duration.

use crate::gen::{serve_keys, serve_template, ServeOp, ServeOps};
use crate::report::{Check, Metric, Report, Samples, Setups, WINDOW_TRIM};
use crate::Opts;
use faqs_exec::{CacheStats, Executor, ExecutorConfig};
use faqs_hypergraph::{EdgeId, Var};
use faqs_plan::{
    cost_quote_calibrated, plan_query, CalibrationRegistry, PlannerConfig, QueryStats,
};
use faqs_relation::{FaqQuery, Relation, RelationDelta};
use faqs_semiring::Count;
use faqs_serve::{Answer, FaqServer, ServeConfig, ServeError, ServeStats, ShapeId, Ticket};
use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Reads per second of the fixed-rate phase, well below capacity on a
/// 2-core host.
pub const NOMINAL_QPS: f64 = 1000.0;
/// The latency limit of the capacity ladder, on the reads' p99.
/// It sits far above the unloaded tail, so that the ladder finds the
/// knee where the backlog starts to grow rather than the host's
/// scheduling noise.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Rates of the capacity ladder: `NOMINAL_QPS · LADDER_STEP^k` for
/// `k < LADDER_STEPS`, 1000 to 21600 reads/s in 5% steps. The top sits
/// over twice above the highest knee measured on a 2-core host
/// (4000–9000 reads/s, by the host's load), so a faster server still
/// shows its gain.
const LADDER_STEP: f64 = 1.05;
const LADDER_STEPS: usize = 64;
/// A phase stops submitting once its backlog exceeds this many times
/// the backlog a sustained rate may leave, or once the generator falls
/// this many latency limits behind its schedule, so a probe far above
/// the knee ends within its slot and drains quickly.
const BACKLOG_ABORT: u64 = 4;
/// Widest batch the server merges.
const MAX_BATCH: usize = 16;
/// Share of every probe's slot spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.4;
/// Longest window of the nominal-rate phases: each nominal slice is cut
/// into windows of at most this many seconds, so a run has dozens of
/// windows for [`Metric::window_mean`].
const NOMINAL_WINDOW: f64 = 0.25;
/// The bisection stops once this many rungs or fewer remain open.
const BRACKET: usize = 4;
/// Probes of the staircase that follows the bisection.
const STAIRCASE: usize = 6;
/// The shortest probe slot, as a share of the run, so that a probe
/// left with no time still measures enough reads to judge.
const MIN_SLOT: f64 = 1.0 / 24.0;
/// Set-up takes a few milliseconds, so its summary needs many
/// repetitions to settle.
const SETUP_REPS: usize = 101;
const REPLAYS: usize = 200;

fn executor() -> Executor {
    Executor::with_planner(ExecutorConfig::sequential(), PlannerConfig::stats())
}

fn server_config() -> ServeConfig {
    ServeConfig {
        workers: crate::nproc().min(2),
        max_batch: MAX_BATCH,
        cheap_cpu: 0,
        cost_budget: u64::MAX,
    }
}

/// Everything the server answered or published, for the answer check.
/// Answers are kept as digests, so the log's memory (and with it
/// `peak_rss_mb`) does not grow with the number of reads served.
#[derive(Default)]
struct Log {
    answers: Vec<(u64, u32, u64)>,
    writes: Vec<(u64, EdgeId, RelationDelta<Count>)>,
}

/// A digest of an answer relation's schema, tuples and values.
fn digest(r: &Relation<Count>) -> u64 {
    let mut h = DefaultHasher::new();
    r.schema().hash(&mut h);
    for (t, v) in r.iter() {
        (t, v).hash(&mut h);
    }
    h.finish()
}

/// One open-loop phase at a fixed rate.
#[derive(Default)]
struct Phase {
    reads: Samples,
    writes: Samples,
    lateness: Samples,
    submit: Samples,
    reply_wait: Samples,
    backlog_max: u64,
    backlog_end: u64,
    aborted: bool,
    attempted: u64,
    failed: u64,
}

/// The most reads a sustained rate `qps` may leave unanswered: those of
/// one latency limit's worth of time, and at least two full batches.
fn backlog_cap(qps: f64) -> u64 {
    ((qps * P99_LIMIT_MS / 1e3).ceil() as u64).max(2 * MAX_BATCH as u64)
}

impl Phase {
    /// Whether the phase met the latency limit with no growing backlog.
    fn sustained(&self, qps: f64) -> bool {
        !self.aborted
            && self.failed == 0
            && self.reads.quantile(0.99) <= P99_LIMIT_MS
            && self.backlog_end <= backlog_cap(qps)
    }
}

struct Pending {
    due: Instant,
    submitted: Instant,
    binding: u32,
    ticket: Ticket<Count>,
}

/// One server with the template registered, the op stream that drives
/// it and the check of its answers.
struct Side {
    server: FaqServer<Count>,
    shape: ShapeId,
    ops: ServeOps,
    checker: Checker,
}

impl Side {
    /// A side around a server just set up, whose first query (of the
    /// key `hottest`) returned `first`; that query counts as one
    /// operation of `report`.
    fn new(
        opts: &Opts,
        (server, shape, first): (FaqServer<Count>, ShapeId, Result<Answer<Count>, ServeError>),
        hottest: u32,
        report: &mut Report,
    ) -> Self {
        let sizes = opts.sizes();
        let template = serve_template(&sizes, opts.seed);
        let mut side = Side {
            server,
            shape,
            ops: ServeOps::new(&template, &sizes, opts.seed),
            checker: Checker::new(template),
        };
        report.attempted += 1;
        match first {
            Ok(a) => side.checker.absorb(Log {
                answers: vec![(a.epoch, hottest, digest(&a.relation))],
                writes: Vec::new(),
            }),
            Err(_) => report.failed += 1,
        }
        side
    }
}

/// Drives `read_qps` reads per second (plus the stream's writes) for
/// `dur`, or until it falls [`BACKLOG_ABORT`] latency limits behind or
/// the backlog passes [`BACKLOG_ABORT`] times [`backlog_cap`], waits
/// for every reply, then hands the answers to `checker`.
fn drive(side: &mut Side, read_qps: f64, dur: Duration) -> Phase {
    let Side {
        server,
        shape,
        ops,
        checker,
    } = side;
    let shape = *shape;
    let op_rate = read_qps / (1.0 - ServeOps::WRITE_SHARE);
    let abort_at = BACKLOG_ABORT * backlog_cap(read_qps);
    let late_at = Duration::from_secs_f64(P99_LIMIT_MS / 1e3).mul_f64(BACKLOG_ABORT as f64);
    let completed = AtomicU64::new(0);
    let mut ph = Phase::default();
    let mut log = Log::default();
    let (tx, rx) = mpsc::channel::<Pending>();
    std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let (mut lat, mut wait, mut answers, mut failed) =
                (Samples::default(), Samples::default(), Vec::new(), 0u64);
            for p in rx {
                let reply = p.ticket.wait();
                let done = Instant::now();
                completed.fetch_add(1, Ordering::Relaxed);
                lat.push_ms(done - p.due);
                wait.push_us(done - p.submitted);
                match reply {
                    Ok(a) => answers.push((a.epoch, p.binding, digest(&a.relation))),
                    Err(_) => failed += 1,
                }
            }
            (lat, wait, answers, failed)
        });
        let start = Instant::now();
        let mut submitted = 0u64;
        for i in 0u64.. {
            let offset = Duration::from_secs_f64(i as f64 / op_rate);
            if offset >= dur {
                break;
            }
            let due = start + offset;
            if Instant::now().saturating_duration_since(due) > late_at {
                ph.aborted = true;
                break;
            }
            let op = ops.next_op();
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            ph.lateness.push_ms(t - due);
            ph.attempted += 1;
            match op {
                ServeOp::Read(b) => match server.submit(shape, b) {
                    Ok(ticket) => {
                        let after = Instant::now();
                        ph.submit.push_us(after - t);
                        submitted += 1;
                        tx.send(Pending {
                            due,
                            submitted: after,
                            binding: b,
                            ticket,
                        })
                        .expect("collector outlives the generator");
                        let backlog = submitted - completed.load(Ordering::Relaxed);
                        ph.backlog_max = ph.backlog_max.max(backlog);
                        if backlog > abort_at {
                            ph.aborted = true;
                            break;
                        }
                    }
                    Err(_) => ph.failed += 1,
                },
                ServeOp::Write(edge, delta) => match server.apply_delta(shape, edge, &delta) {
                    Ok(epoch) => {
                        ph.writes.push_ms(t.elapsed());
                        log.writes.push((epoch, edge, delta));
                    }
                    Err(_) => ph.failed += 1,
                },
            }
        }
        ph.backlog_end = submitted - completed.load(Ordering::Relaxed);
        drop(tx);
        let (lat, wait, answers, failed) = collector.join().expect("collector thread");
        ph.reads = lat;
        ph.reply_wait = wait;
        ph.failed += failed;
        log.answers = answers;
    });
    checker.absorb(log);
    ph
}

/// Drives the nominal rate for `dur`, cut into windows of at most
/// [`NOMINAL_WINDOW`] seconds, one phase each, pushed onto `out`.
fn drive_nominal(side: &mut Side, dur: Duration, out: &mut Vec<Phase>) {
    let n = (dur.as_secs_f64() / NOMINAL_WINDOW).ceil().max(1.0);
    for _ in 0..n as usize {
        out.push(drive(side, NOMINAL_QPS, dur.div_f64(n)));
    }
}

/// Where the capacity search ended on the ladder.
struct Capacity {
    /// The mean of the staircase's estimates, in reads per second.
    qps: f64,
    probes: usize,
    /// Whether most nominal-rate slices, the probes of the ladder's
    /// bottom rung, were sustained.
    floor_sustained: bool,
    /// Whether the top rung held, so the capacity may be higher.
    at_top: bool,
}

/// The highest ladder rate that [`Phase::sustained`], within `secs`.
/// Bisection brackets it to [`BRACKET`] rungs; a failed bisection probe
/// is repeated once before it counts, since a VM stall can fail one
/// probe far below the knee and a single false failure would halve the
/// result. A staircase of [`STAIRCASE`] probes then starts one rung
/// above the bracket's floor and moves one rung up after a probe that
/// held and one down after one that failed; each probe estimates the
/// capacity as the highest rung it shows to hold, and the result is
/// their mean. Near the knee a probe holds or fails by the host's luck
/// during it, so the highest rung found by bisection alone jumped
/// between two values 30% apart from run to run, while the staircase's
/// mean moves with how often the rungs near the knee hold.
///
/// Each probe takes an equal share of the time left among the probes
/// that may still be needed (14 at the start: ~2.1 s in a 30 s run),
/// so that draining and checking the replies of earlier probes does
/// not push the run past `secs`. A probe spends the share
/// [`NOMINAL_SHARE`] of its slot at the nominal rate on `measured`
/// (phases pushed onto `nominal` by [`drive_nominal`]) and the rest at
/// the probed rate on `ladder`, a server of its own: a server's plan
/// cache and calibration fill with the stats digests of the epochs it
/// has published, so probes on the measured server would leave it in a
/// state set by how high the search went, and its nominal reads ran up
/// to 40% slower after a search that went high. Time the probes leave
/// unused runs at the nominal rate. So the nominal-rate phases span
/// the whole run as windows for [`Metric::window_mean`]. After every
/// slot `setups` keeps up with the share of the run done.
fn capacity(
    measured: &mut Side,
    ladder: &mut Side,
    secs: f64,
    report: &mut Report,
    nominal: &mut Vec<Phase>,
    setups: &mut Setups<impl FnMut() -> Duration>,
) -> Capacity {
    let start = Instant::now();
    let total = Duration::from_secs_f64(secs);
    let rate = |k: usize| NOMINAL_QPS * LADDER_STEP.powi(k as i32);
    // Bisection steps left while `open` rungs remain open.
    let steps = |open: usize| open.div_ceil(BRACKET).next_power_of_two().trailing_zeros() as usize;
    let mut probes = 0;
    // Probes rung `k` when `left` probes, this one included, may still
    // be needed; whether it held.
    let mut probe = |k: usize, left: usize| {
        probes += 1;
        let time_left = total.saturating_sub(start.elapsed());
        let slot = (time_left / left as u32).max(total.mul_f64(MIN_SLOT));
        let slice = slot.mul_f64(NOMINAL_SHARE);
        drive_nominal(measured, slice, nominal);
        let ph = drive(ladder, rate(k), slot - slice);
        setups.keep_pace(start.elapsed().div_duration_f64(total));
        report.attempted += ph.attempted;
        report.failed += ph.failed;
        ph.sustained(rate(k))
    };
    // Invariant: rate(lo) is sustained (the bottom rung is the nominal
    // rate, probed by every nominal slice), rate(hi) is not (or lies
    // past the ladder's top).
    let (mut lo, mut hi) = (0usize, LADDER_STEPS);
    while hi - lo > BRACKET {
        let mid = (lo + hi) / 2;
        let left = 2 * steps(hi - lo) + STAIRCASE;
        if probe(mid, left) || probe(mid, left - 1) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (mut k, mut at_top) = ((lo + 1).min(LADDER_STEPS - 1), false);
    let mut estimates = Samples::default();
    for i in 0..STAIRCASE {
        if probe(k, STAIRCASE - i) {
            estimates.push(rate(k));
            at_top |= k == LADDER_STEPS - 1;
            k = (k + 1).min(LADDER_STEPS - 1);
        } else {
            estimates.push(rate(k - 1));
            k = (k - 1).max(1);
        }
    }
    let slice = total.mul_f64(NOMINAL_SHARE) / (2 * steps(LADDER_STEPS) + STAIRCASE) as u32;
    while start.elapsed() + slice <= total {
        drive_nominal(measured, slice, nominal);
        setups.keep_pace(start.elapsed().div_duration_f64(total));
    }
    let floor = nominal.iter().filter(|p| p.sustained(NOMINAL_QPS)).count();
    Capacity {
        qps: estimates.trimmed_mean(0.0),
        probes,
        floor_sustained: 2 * floor >= nominal.len(),
        at_top,
    }
}

/// Compares every served answer with an independent `solve_batch` over
/// the benchmark's own copy of the template at the answer's epoch. It
/// absorbs each phase's log once the phase's replies are all in, so the
/// log never outgrows one phase.
struct Checker {
    own: FaqQuery<Count>,
    epoch: u64,
    writes: VecDeque<(u64, EdgeId, RelationDelta<Count>)>,
    ex: Executor,
    check: Check,
}

impl Checker {
    fn new(template: FaqQuery<Count>) -> Self {
        Checker {
            own: template,
            epoch: 0,
            writes: VecDeque::new(),
            ex: executor(),
            check: Check::new("served_read_vs_solve_batch_at_epoch"),
        }
    }

    fn absorb(&mut self, mut log: Log) {
        // One generator thread publishes every epoch, in order.
        self.writes.extend(log.writes);
        log.answers.sort_by_key(|a| a.0);
        let mut answers = log.answers.into_iter().peekable();
        while let Some(&(e, _, _)) = answers.peek() {
            let mut group = Vec::new();
            while let Some(a) = answers.next_if(|a| a.0 == e) {
                group.push(a);
            }
            // Replies of a later phase never predate its first epoch, so
            // the own copy only ever moves forward.
            let bindings: Vec<u32> = group.iter().map(|a| a.1).collect();
            let want = (e >= self.epoch && self.advance_to(e))
                .then(|| self.ex.solve_batch(&self.own, Var(0), &bindings).ok())
                .flatten();
            match want {
                Some(want) => {
                    for ((_, _, got), want) in group.iter().zip(&want) {
                        self.check.record(*got == digest(want));
                    }
                }
                None => group.iter().for_each(|_| self.check.record(false)),
            }
        }
    }

    /// Applies the logged writes up to epoch `e`; false if one is missing.
    fn advance_to(&mut self, e: u64) -> bool {
        while self.epoch < e {
            match self.writes.pop_front() {
                Some((we, edge, delta)) if we == self.epoch + 1 => {
                    self.own.factors[edge.index()].apply_delta(&delta);
                    self.epoch = we;
                }
                _ => return false,
            }
        }
        true
    }
}

/// Per-layer replays on a pinned snapshot of the served template.
fn replays(server: &FaqServer<Count>, shape: ShapeId, ops: &mut ServeOps, out: &mut Vec<Metric>) {
    let snap = server.snapshot(shape).expect("registered shape");
    let q = snap.value();
    let ex = executor();
    let bindings: Vec<u32> = (0..REPLAYS + MAX_BATCH).map(|_| ops.binding()).collect();
    let [mut w1, mut wmax, mut stats, mut plan, mut restrict, mut quote]: [Samples; 6] =
        Default::default();
    for &b in &bindings {
        black_box(ex.solve_batch(q, Var(0), &[b]).expect("replay"));
    }
    for chunk in bindings.windows(MAX_BATCH).take(REPLAYS) {
        let b = chunk[0];
        w1.time_us(|| black_box(ex.solve_batch(q, Var(0), &[b]).expect("replay")));
        wmax.time_us(|| black_box(ex.solve_batch(q, Var(0), chunk).expect("replay")));
        restrict.time_us(|| black_box(q.factors[0].restrict_in(Var(0), chunk)));
        let restricted = FaqQuery {
            factors: q
                .factors
                .iter()
                .map(|f| f.restrict_in(Var(0), &[b]))
                .collect(),
            ..q.clone()
        };
        stats.time_us(|| black_box(QueryStats::of(&restricted).digest()));
        let planned = plan.time_us(|| plan_query(&restricted, false, &PlannerConfig::stats()));
        black_box(planned.expect("the restricted template plans"));
    }
    let calibration = CalibrationRegistry::new();
    for _ in 0..REPLAYS / 10 {
        let quoted = quote.time_us(|| cost_quote_calibrated(q, false, &calibration));
        black_box(quoted.expect("the template was priced at registration"));
    }
    out.extend([
        Metric::quantile("exec.solve_batch_w1_us", "us", &w1, 0.5),
        Metric::quantile("exec.solve_batch_wmax_us", "us", &wmax, 0.5),
        Metric::quantile("plan.stats_digest_us", "us", &stats, 0.5),
        Metric::quantile("plan.plan_query_us", "us", &plan, 0.5),
        Metric::quantile("plan.cost_quote_us", "us", &quote, 0.5),
        Metric::quantile("relation.restrict_in_us", "us", &restrict, 0.5),
    ]);
}

/// Per-layer metrics of one traced phase, from its samples and the
/// server's counters before and after it.
fn layer_metrics(ph: &Phase, before: ServeStats, after: ServeStats) -> Vec<Metric> {
    let d = |a: u64, b: u64| (a - b) as f64;
    let cache = |s: CacheStats| (s.hits, s.misses);
    let ((h1, m1), (h0, m0)) = (cache(after.cache), cache(before.cache));
    let lookups = d(h1, h0) + d(m1, m0);
    let submitted = d(after.submitted, before.submitted);
    vec![
        Metric::quantile("serve.submit_p50_us", "us", &ph.submit, 0.5),
        Metric::quantile("serve.reply_wait_p50_us", "us", &ph.reply_wait, 0.5),
        Metric::quantile("serve.reply_wait_p99_us", "us", &ph.reply_wait, 0.99),
        Metric::new(
            "serve.batch_width_mean",
            "count",
            d(after.batched, before.batched) / d(after.batches, before.batches).max(1.0),
            d(after.batches, before.batches) as usize,
        ),
        Metric::new(
            "serve.inline_share",
            "ratio",
            d(after.inline, before.inline) / submitted.max(1.0),
            submitted as usize,
        ),
        Metric::new(
            "serve.rejected",
            "count",
            d(after.rejected, before.rejected),
            1,
        ),
        Metric::quantile(
            "serve.apply_delta_p50_us",
            "us",
            &ph.writes.scaled(1e3),
            0.5,
        ),
        Metric::new(
            "serve.backlog_max",
            "count",
            ph.backlog_max as f64,
            ph.reads.len(),
        ),
        Metric::quantile("gen.lateness_p99_ms", "ms", &ph.lateness, 0.99),
        Metric::new(
            "exec.plan_cache_hit_ratio",
            "ratio",
            d(h1, h0) / lookups.max(1.0),
            lookups as usize,
        ),
        Metric::new(
            "exec.plan_cache_misses",
            "count",
            d(m1, m0),
            lookups as usize,
        ),
    ]
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let sizes = opts.sizes();
    // The first read asks for the most popular key, whose row count is
    // the same for every seed. Starting the server's worker threads is
    // left out of the timed set-up: it is the host's work, not the
    // stack's, and it varies most from run to run.
    let hottest = serve_keys(&sizes, opts.seed).by_rank(0);
    let timed = || {
        let server = FaqServer::with_executor(server_config(), executor());
        let t = Instant::now();
        let shape = server
            .register(serve_template(&sizes, opts.seed), Var(0))
            .expect("the template is a valid star with a free center");
        let first = server.query(shape, hottest);
        (t.elapsed(), (server, shape, first))
    };
    let (took, built) = timed();
    let mut report = Report::default();
    let mut side = Side::new(opts, built, hottest, &mut report);
    let mut setups = Setups::new(SETUP_REPS, took, || timed().0);

    let secs = opts.seconds;
    if opts.trace {
        let half = Duration::from_secs_f64(secs / 2.0);
        let plain = drive(&mut side, NOMINAL_QPS, half);
        setups.keep_pace(0.5);
        let before = side.server.stats();
        let traced = drive(&mut side, NOMINAL_QPS, half);
        let after = side.server.stats();
        report.layers = layer_metrics(&traced, before, after);
        replays(&side.server, side.shape, &mut side.ops, &mut report.layers);
        let (p0, p1) = (plain.reads.median(), traced.reads.median());
        report.layers.extend([
            Metric::new("trace.untraced_p50_ms", "ms", p0, plain.reads.len()),
            Metric::new("trace.traced_p50_ms", "ms", p1, traced.reads.len()),
            Metric::new("trace.overhead_ms", "ms", p1 - p0, traced.reads.len()),
        ]);
        for ph in [&plain, &traced] {
            report.attempted += ph.attempted;
            report.failed += ph.failed;
        }
        report.metrics = nominal_metrics(std::slice::from_ref(&traced));
    } else {
        let mut nominal = Vec::new();
        let mut ladder = Side::new(opts, timed().1, hottest, &mut report);
        let cap = capacity(
            &mut side,
            &mut ladder,
            secs,
            &mut report,
            &mut nominal,
            &mut setups,
        );
        drop(ladder.server);
        let more = ladder.checker.check;
        side.checker.check.ran += more.ran;
        side.checker.check.failed += more.failed;
        for ph in &nominal {
            report.attempted += ph.attempted;
            report.failed += ph.failed;
        }
        report.metrics = nominal_metrics(&nominal);
        report.metrics.push(
            Metric::new("read_capacity_qps", "req/s", cap.qps, cap.probes)
                .as_role("throughput_per_s"),
        );
        report.notes.push(format!(
            "ladder floor_sustained={} at_top={} nominal_windows={}",
            cap.floor_sustained,
            cap.at_top,
            nominal.len()
        ));
    }
    drop(side.server);
    report.checks.push(side.checker.check);
    // Set-ups are made a few at a time between slots and summarised
    // like the latencies, over those batches.
    report.finish(setups.finish().trimmed_mean(WINDOW_TRIM), SETUP_REPS);
    report
}

/// The nominal-rate metrics, each the trimmed mean over the phases of
/// the phase's quantile (see [`Metric::window_mean`]). The reads' p99 is
/// printed, pooled, but the role `tail_ms` takes their p90: on a shared
/// 2-core host the p99 of sub-millisecond reads moves with the
/// neighbours' load by more than any bound a regression gate could use,
/// while the p90 sits on the server's own re-pricing after each write.
fn nominal_metrics(phases: &[Phase]) -> Vec<Metric> {
    let reads = || phases.iter().map(|p| &p.reads);
    let writes = || phases.iter().map(|p| &p.writes);
    vec![
        Metric::window_mean("read_p50_ms", "ms", reads(), 0.5).as_role("p50_ms"),
        Metric::window_mean("read_p90_ms", "ms", reads(), 0.9).as_role("tail_ms"),
        Metric::quantile("read_p99_ms", "ms", &Samples::pooled(reads()), 0.99),
        Metric::window_mean("write_p50_ms", "ms", writes(), 0.5).as_role("side_p50_ms"),
        Metric::window_mean("write_p90_ms", "ms", writes(), 0.9).as_role("side_tail_ms"),
    ]
}
