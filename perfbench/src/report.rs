//! Samples, metrics and the run's printed record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The end-to-end metrics every workload reports on its last line when
/// tracing is off: `(name, unit)`. Each workload maps its own measured
/// quantities onto these roles (see [`Metric::role`] and the README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("side_p50_ms", "ms"),
    ("side_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// The per-layer metrics every workload reports on its last line when
/// tracing is on: `(name, unit)`. A layer a workload never calls reads
/// 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.submit_p50_us", "us"),
    ("serve.reply_wait_p50_us", "us"),
    ("serve.reply_wait_p99_us", "us"),
    ("serve.batch_width_mean", "count"),
    ("serve.inline_share", "ratio"),
    ("serve.rejected", "count"),
    ("serve.apply_delta_p50_us", "us"),
    ("serve.backlog_max", "count"),
    ("gen.lateness_p99_ms", "ms"),
    ("exec.plan_cache_hit_ratio", "ratio"),
    ("exec.plan_cache_misses", "count"),
    ("exec.solve_batch_w1_us", "us"),
    ("exec.solve_batch_wmax_us", "us"),
    ("exec.solve_us", "us"),
    ("exec.incremental_apply_p50_us", "us"),
    ("exec.incremental_apply_p99_us", "us"),
    ("exec.node_recomputes", "count"),
    ("exec.full_upward_passes", "count"),
    ("exec.plan_rebuilds", "count"),
    ("exec.cancellation_fallbacks", "count"),
    ("plan.stats_digest_us", "us"),
    ("plan.plan_query_us", "us"),
    ("plan.cost_quote_us", "us"),
    ("relation.restrict_in_us", "us"),
    ("relation.generic_join_us", "us"),
    ("relation.genjoin_rows", "count"),
    ("relation.codec_encode_us", "us"),
    ("relation.codec_decode_us", "us"),
    ("network.transport_busy_ms", "ms"),
    ("network.us_per_frame", "us"),
    ("network.shadow_ms", "ms"),
    ("network.frames", "count"),
    ("network.transmissions", "count"),
    ("network.wire_bytes", "bytes"),
    ("protocols.prepare_ms", "ms"),
    ("protocols.run_ms", "ms"),
    ("protocols.local_ms", "ms"),
    ("protocols.conformance_us", "us"),
    ("protocols.bits_over_upper", "ratio"),
    ("protocols.wire_over_upper", "ratio"),
    ("protocols.rounds", "count"),
    ("protocols.model_bits", "bits"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// Observations of one quantity.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.0.push(x);
    }

    /// Adds a duration in milliseconds.
    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    /// Adds a duration in microseconds.
    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    /// Runs `f`, adds its duration in microseconds, returns its result.
    pub fn time_us<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.push_us(t.elapsed());
        r
    }

    /// All observations of `windows` together.
    pub fn pooled<'a>(windows: impl IntoIterator<Item = &'a Samples>) -> Samples {
        Samples(
            windows
                .into_iter()
                .flat_map(|w| w.0.iter().copied())
                .collect(),
        )
    }

    /// Every observation multiplied by `k` (a unit change).
    pub fn scaled(&self, k: f64) -> Samples {
        Samples(self.0.iter().map(|x| x * k).collect())
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q`-quantile by nearest rank (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// The median.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The mean of the observations left when the lowest and the
    /// highest `trim` share of them are dropped (0 when empty).
    pub fn trimmed_mean(&self, trim: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let cut = ((trim * v.len() as f64) as usize).min((v.len() - 1) / 2);
        let kept = &v[cut..v.len() - cut];
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Repeated set-ups spread over a run. On a shared host the speed of
/// the machine drifts over seconds, so set-ups taken in one block at
/// the start measure that moment; taken a few at a time as the run
/// goes, and summarised per batch like the run's windows, they reflect
/// the whole run.
pub struct Setups<F> {
    rep: F,
    reps: usize,
    times: Samples,
    /// Where each batch of [`Setups::keep_pace`] starts in `times`.
    batches: Vec<usize>,
}

impl<F: FnMut() -> Duration> Setups<F> {
    /// `reps` set-ups in all, of which the first, taking `first`, is
    /// done; `rep` does one more, drops what it built, and returns the
    /// time of its timed part.
    pub fn new(reps: usize, first: Duration, rep: F) -> Self {
        let mut times = Samples::default();
        times.push(first.as_secs_f64());
        Setups {
            rep,
            reps,
            times,
            batches: vec![0],
        }
    }

    /// Runs set-ups until their share of `reps` reaches `progress`, the
    /// share of the run done so far (0 to 1).
    pub fn keep_pace(&mut self, progress: f64) {
        let target = (progress.clamp(0.0, 1.0) * self.reps as f64).ceil() as usize;
        if self.times.len() < target {
            self.batches.push(self.times.len());
        }
        while self.times.len() < target {
            let d = (self.rep)();
            self.times.push(d.as_secs_f64());
        }
    }

    /// The median time of each batch of set-ups, in seconds (the first
    /// set-up is a batch of its own), once all `reps` are done.
    pub fn finish(mut self) -> Samples {
        self.keep_pace(1.0);
        let mut ends = self.batches[1..].to_vec();
        ends.push(self.times.len());
        Samples(
            self.batches
                .iter()
                .zip(ends)
                .map(|(&a, b)| Samples(self.times.0[a..b].to_vec()).median())
                .collect(),
        )
    }
}

/// Windows a closed-loop run is cut into for [`Metric::window_mean`].
/// On the measuring host a workload's speed can switch between two
/// levels about 1.6× apart every second or so; many short windows let
/// the mix, not one level, set the metrics.
pub const WINDOWS: usize = 30;

/// The share of windows [`Metric::window_mean`] drops at each end.
pub const WINDOW_TRIM: f64 = 0.1;

/// The window of a run of length `run` that `at` falls in, out of `n`.
pub fn window_of(at: Duration, run: Duration, n: usize) -> usize {
    ((at.as_secs_f64() / run.as_secs_f64() * n as f64) as usize).min(n - 1)
}

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name as printed.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How many observations it summarises.
    pub samples: usize,
    /// The [`END_TO_END`] name it is reported under, if any.
    pub role: Option<&'static str>,
}

impl Metric {
    /// A metric not reported under an end-to-end role.
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            role: None,
        }
    }

    /// The same metric, reported under the end-to-end name `role`.
    pub fn as_role(mut self, role: &'static str) -> Self {
        self.role = Some(role);
        self
    }

    /// The `q`-quantile of `s` in `unit`, reported as `name`.
    pub fn quantile(name: &'static str, unit: &'static str, s: &Samples, q: f64) -> Self {
        Metric::new(name, unit, s.quantile(q), s.len())
    }

    /// The mean over `windows` (consecutive slices of one run) of each
    /// window's `q`-quantile, leaving out the [`WINDOW_TRIM`] share of
    /// highest and of lowest windows. On a shared host a burst of noise
    /// slows every operation it overlaps; pooled, the slowed operations
    /// move a run's quantiles, while the trim drops the windows a short
    /// burst covers. Where the host switches between a fast and a slow
    /// speed every second or so, a median over windows would take one
    /// speed or the other and flip between runs as the mix changes
    /// around one half; this mean follows the mix smoothly.
    pub fn window_mean<'a>(
        name: &'static str,
        unit: &'static str,
        windows: impl IntoIterator<Item = &'a Samples>,
        q: f64,
    ) -> Self {
        let (mut per_window, mut n) = (Samples::default(), 0);
        for w in windows.into_iter().filter(|w| !w.is_empty()) {
            per_window.push(w.quantile(q));
            n += w.len();
        }
        Metric::new(name, unit, per_window.trimmed_mean(WINDOW_TRIM), n)
    }
}

/// One answer check: how often it ran and how often it failed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Check {
    /// What is compared with what.
    pub name: &'static str,
    /// Comparisons made.
    pub ran: u64,
    /// Comparisons that disagreed.
    pub failed: u64,
}

impl Check {
    /// A check that has not run yet.
    pub fn new(name: &'static str) -> Self {
        Check {
            name,
            ran: 0,
            failed: 0,
        }
    }

    /// Records one comparison.
    pub fn record(&mut self, ok: bool) {
        self.ran += 1;
        self.failed += u64::from(!ok);
    }
}

/// Everything one workload run measured.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// The end-to-end metrics under their workload-specific names.
    pub metrics: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The answer checks that ran.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Free-form lines about how the run went, printed as `note` lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Appends the metrics every workload shares (`setup_s`,
    /// `peak_rss_mb`, `error_share`) and folds the checks' failures
    /// into `failed`.
    pub fn finish(&mut self, setup_s: f64, setups: usize) {
        self.failed += self.checks.iter().map(|c| c.failed).sum::<u64>();
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        self.metrics.extend([
            Metric::new("setup_s", "s", setup_s, setups).as_role("setup_s"),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mib(), 1).as_role("peak_rss_mb"),
            Metric::new("error_share", "ratio", share, self.attempted as usize),
        ]);
    }

    /// Whether every answer check ran and none failed, and no operation
    /// failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && !self.checks.is_empty() && self.checks.iter().all(|c| c.ran > 0)
    }

    /// The human-readable lines: every metric by its own name with unit
    /// and sample count, every check, every layer metric.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for m in &self.metrics {
            let role = m.role.map(|r| format!(" role={r}")).unwrap_or_default();
            out.push(format!(
                "metric {} {} {} n={}{role}",
                m.name, m.value, m.unit, m.samples
            ));
        }
        for c in &self.checks {
            out.push(format!(
                "check {} ran={} failed={}",
                c.name, c.ran, c.failed
            ));
        }
        for m in &self.layers {
            out.push(format!(
                "layer {} {} {} n={}",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.extend(self.notes.iter().map(|n| format!("note {n}")));
        out
    }

    /// The last line: `correct`, `attempted`, `failed` and either the
    /// [`END_TO_END`] or the [`PER_LAYER`] metrics.
    pub fn json(&self, traced: bool) -> String {
        let values: Vec<(&str, &str, f64)> = if traced {
            let by_name: BTreeMap<&str, f64> =
                self.layers.iter().map(|m| (m.name, m.value)).collect();
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, u, by_name.get(n).copied().unwrap_or(0.0)))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| {
                    let m = self
                        .metrics
                        .iter()
                        .find(|m| m.role == Some(n))
                        .unwrap_or_else(|| panic!("no metric reported under role {n}"));
                    (n, u, m.value)
                })
                .collect()
        };
        json_line(self.correct(), self.attempted, self.failed, &values)
    }
}

/// One JSON object with exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&str, &str, f64)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, value)) in values.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not a finite number");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    s.push_str("}}");
    s
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s = Samples::default();
        for x in 1..=100 {
            s.push(x as f64);
        }
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(0.9), 90.0);
    }

    #[test]
    fn trimmed_mean_drops_both_ends() {
        let mut s = Samples::default();
        for x in [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0] {
            s.push(x);
        }
        assert_eq!(s.trimmed_mean(0.1), 4.5);
        assert_eq!(s.trimmed_mean(0.0), 8.6);
        let one = Samples(vec![2.0]);
        assert_eq!(one.trimmed_mean(0.4), 2.0);
    }

    #[test]
    fn window_mean_follows_the_mix_of_speeds() {
        // Windows at a fast (1) and a slow (2) speed: the median over
        // windows would jump from 1 to 2 as the slow windows pass half;
        // the mean moves by steps.
        let windows = |slow: usize| -> Vec<Samples> {
            (0..10)
                .map(|w| Samples(vec![if w < slow { 2.0 } else { 1.0 }; 3]))
                .collect()
        };
        let at = |slow| Metric::window_mean("m", "ms", &windows(slow), 0.5).value;
        assert_eq!(at(4), 1.375);
        assert_eq!(at(6), 1.625);
    }

    #[test]
    fn set_ups_are_summarised_by_batch() {
        let mut next = 0u64;
        let mut setups = Setups::new(7, Duration::from_secs(9), || {
            next += 1;
            Duration::from_secs(next)
        });
        setups.keep_pace(0.5);
        setups.keep_pace(0.5);
        assert_eq!(setups.finish().0, vec![9.0, 2.0, 5.0]);
    }

    #[test]
    fn json_has_exactly_the_four_keys() {
        let line = json_line(true, 3, 0, &[("p50_ms", "ms", 1.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
