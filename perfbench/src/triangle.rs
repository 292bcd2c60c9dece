//! `triangle-churn`: a closed loop on one thread. An `IncrementalFaq`
//! session over a Zipf-degree triangle absorbs a seeded stream of
//! insert/delete delta batches; after every [`SOLVE_EVERY`] batches a
//! full `Executor::solve` of the current instance must equal the
//! maintained answer. The loop is single-threaded, so it moves over the
//! host's cores in turn, one window (and one set-up) per core at a
//! time, rather than measuring whichever core it happens to run on.

use crate::gen::{triangle_instance, TriangleDeltas};
use crate::pin::Rotation;
use crate::report::{window_of, Check, Metric, Report, Samples, Setups, WINDOWS, WINDOW_TRIM};
use crate::Opts;
use faqs_core::solve_faq_reference;
use faqs_exec::{Executor, ExecutorConfig, IncrementalFaq, IncrementalStats, PlanCache};
use faqs_hypergraph::Var;
use faqs_plan::{plan_query, PlannerConfig, QueryStats};
use faqs_relation::generic_join;
use faqs_semiring::Count;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Delta batches between two full solves.
pub const SOLVE_EVERY: usize = 8;
/// Even, so that two cores take equal shares of the set-ups; one per
/// window or so.
const SETUP_REPS: usize = 30;
const REPLAYS: usize = 5;

fn executor() -> Executor {
    Executor::with_planner(ExecutorConfig::sequential(), PlannerConfig::stats())
}

struct Session {
    inc: IncrementalFaq<Count>,
    deltas: TriangleDeltas,
    ex: Executor,
}

/// Instance generation, the incremental session (plan plus first full
/// pass) and the executor's first solve (its plan).
fn setup(opts: &Opts) -> (Session, bool) {
    let (q, deltas) = triangle_instance(&opts.sizes(), opts.seed);
    let inc = IncrementalFaq::with_cache(q, Arc::new(PlanCache::new()), PlannerConfig::stats())
        .expect("a triangle over Count is a valid FAQ");
    let ex = executor();
    let first_ok = ex.solve(inc.query()).is_ok_and(|r| &r == inc.answer());
    (Session { inc, deltas, ex }, first_ok)
}

/// One timed loop; latencies are kept per window of the loop.
struct Phase {
    updates: Vec<Samples>,
    solves: Vec<Samples>,
    window: Duration,
    attempted: u64,
    failed: u64,
}

/// The closed loop for `dur`. It is the span `pace.0..pace.1` of the
/// whole run: at every window it keeps `setups` up with its share, then
/// moves to the window's core of `cores`.
fn churn(
    s: &mut Session,
    dur: Duration,
    check: &mut Check,
    setups: &mut Setups<impl FnMut() -> Duration>,
    pace: (f64, f64),
    cores: &Rotation,
) -> Phase {
    let mut ph = Phase {
        updates: vec![Samples::default(); WINDOWS],
        solves: vec![Samples::default(); WINDOWS],
        window: dur / WINDOWS as u32,
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    let mut last = None;
    while start.elapsed() < dur {
        let w = window_of(start.elapsed(), dur, WINDOWS);
        if last != Some(w) {
            last = Some(w);
            setups.keep_pace(pace.0 + (pace.1 - pace.0) * w as f64 / WINDOWS as f64);
            cores.pin(w);
        }
        for _ in 0..SOLVE_EVERY {
            let (edge, delta) = s.deltas.next_batch();
            let t = Instant::now();
            let r = s.inc.apply(edge, &delta);
            ph.updates[w].push_ms(t.elapsed());
            ph.attempted += 1;
            ph.failed += u64::from(r.is_err());
        }
        let t = Instant::now();
        let r = s.ex.solve(s.inc.query());
        ph.solves[w].push_ms(t.elapsed());
        ph.attempted += 1;
        match r {
            Ok(r) => check.record(&r == s.inc.answer()),
            Err(_) => ph.failed += 1,
        }
    }
    ph
}

fn counter_deltas(before: IncrementalStats, after: IncrementalStats) -> Vec<Metric> {
    let d = |a: u64, b: u64| (a - b) as f64;
    vec![
        Metric::new(
            "exec.node_recomputes",
            "count",
            d(after.node_recomputes, before.node_recomputes),
            1,
        ),
        Metric::new(
            "exec.full_upward_passes",
            "count",
            d(after.full_upward_passes, before.full_upward_passes),
            1,
        ),
        Metric::new(
            "exec.plan_rebuilds",
            "count",
            d(after.plan_rebuilds, before.plan_rebuilds),
            1,
        ),
        Metric::new(
            "exec.cancellation_fallbacks",
            "count",
            d(after.cancellation_fallbacks, before.cancellation_fallbacks),
            1,
        ),
    ]
}

/// Per-layer replays on the final instance.
fn replays(s: &Session, out: &mut Vec<Metric>) {
    let q = s.inc.query();
    let factors: Vec<_> = q.factors.iter().collect();
    let [mut solve, mut stats, mut plan, mut join]: [Samples; 4] = Default::default();
    let mut rows = 0;
    for _ in 0..REPLAYS {
        solve.time_us(|| black_box(s.ex.solve(q).expect("replay")));
        stats.time_us(|| black_box(QueryStats::of(q).digest()));
        let planned = plan.time_us(|| plan_query(q, false, &PlannerConfig::stats()));
        black_box(planned.expect("the triangle plans"));
        rows = join
            .time_us(|| black_box(generic_join(&factors, &[Var(0), Var(1), Var(2)])))
            .len();
    }
    out.extend([
        Metric::quantile("exec.solve_us", "us", &solve, 0.5),
        Metric::quantile("plan.stats_digest_us", "us", &stats, 0.5),
        Metric::quantile("plan.plan_query_us", "us", &plan, 0.5),
        Metric::quantile("relation.generic_join_us", "us", &join, 0.5),
        Metric::new("relation.genjoin_rows", "count", rows as f64, 1),
    ]);
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let timed = || {
        let t = Instant::now();
        let s = setup(opts);
        (t.elapsed(), s)
    };
    // Windows and set-ups visit the cores in turn, so every core takes
    // an equal share of both.
    let cores = Rotation::new();
    cores.pin(0);
    let (first, (mut s, first_ok)) = timed();
    let mut next_core = 1;
    let mut setups = Setups::new(SETUP_REPS, first, || {
        cores.pin(next_core);
        next_core += 1;
        timed().0
    });
    let mut check = Check::new("maintained_answer_vs_executor_solve");
    check.record(first_ok);
    let mut report = Report::default();
    let secs = opts.seconds;
    let ph = if opts.trace {
        let half = Duration::from_secs_f64(secs / 2.0);
        let plain = churn(&mut s, half, &mut check, &mut setups, (0.0, 0.5), &cores);
        let (counters, cache) = (s.inc.counters(), s.ex.cache_stats());
        let traced = churn(&mut s, half, &mut check, &mut setups, (0.5, 1.0), &cores);
        let cache_after = s.ex.cache_stats();
        let (hits, misses) = (
            cache_after.hits - cache.hits,
            cache_after.misses - cache.misses,
        );
        let lookups = (hits + misses) as usize;
        report.layers = counter_deltas(counters, s.inc.counters());
        report.layers.extend([
            Metric::quantile(
                "exec.incremental_apply_p50_us",
                "us",
                &Samples::pooled(&traced.updates).scaled(1e3),
                0.5,
            ),
            Metric::quantile(
                "exec.incremental_apply_p99_us",
                "us",
                &Samples::pooled(&traced.updates).scaled(1e3),
                0.99,
            ),
            Metric::new(
                "exec.plan_cache_hit_ratio",
                "ratio",
                hits as f64 / lookups.max(1) as f64,
                lookups,
            ),
            Metric::new("exec.plan_cache_misses", "count", misses as f64, lookups),
        ]);
        replays(&s, &mut report.layers);
        let p50 = |name, solves| Metric::window_mean(name, "ms", solves, 0.5);
        let (p0, p1) = (
            p50("trace.untraced_p50_ms", &plain.solves),
            p50("trace.traced_p50_ms", &traced.solves),
        );
        let overhead = Metric::new("trace.overhead_ms", "ms", p1.value - p0.value, p1.samples);
        report.layers.extend([p0, p1, overhead]);
        report.attempted += plain.attempted;
        report.failed += plain.failed;
        traced
    } else {
        let all = Duration::from_secs_f64(secs);
        churn(&mut s, all, &mut check, &mut setups, (0.0, 1.0), &cores)
    };
    report.attempted += ph.attempted;
    report.failed += ph.failed;
    // A window holds too few solves for a p90 of its own, so that tail
    // is taken over the whole run. The updates' p99, pooled, is printed
    // but moved by a quarter between runs of the same code, so the role
    // `side_tail_ms` takes their p90, which a window holds ~15-30
    // samples beyond.
    let mut rates = Samples::default();
    for w in &ph.updates {
        rates.push(w.len() as f64 / ph.window.as_secs_f64());
    }
    let (solves, updates) = (Samples::pooled(&ph.solves), Samples::pooled(&ph.updates));
    report.metrics = vec![
        Metric::window_mean("solve_p50_ms", "ms", &ph.solves, 0.5).as_role("p50_ms"),
        Metric::quantile("solve_p90_ms", "ms", &solves, 0.9).as_role("tail_ms"),
        Metric::window_mean("update_p50_ms", "ms", &ph.updates, 0.5).as_role("side_p50_ms"),
        Metric::window_mean("update_p90_ms", "ms", &ph.updates, 0.9).as_role("side_tail_ms"),
        Metric::quantile("update_p99_ms", "ms", &updates, 0.99),
        Metric::new(
            "updates_per_s",
            "1/s",
            rates.trimmed_mean(WINDOW_TRIM),
            updates.len(),
        )
        .as_role("throughput_per_s"),
    ];
    let mut reference = Check::new("maintained_answer_vs_solve_faq_reference");
    reference.record(solve_faq_reference(s.inc.query()).is_ok_and(|r| &r == s.inc.answer()));
    report.checks = vec![check, reference];
    report.finish(setups.finish().trimmed_mean(WINDOW_TRIM), SETUP_REPS);
    cores.release();
    report
}
