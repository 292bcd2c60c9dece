//! `dist-star-tcp`: repeated runs of one prepared `DistributedFaqRun`
//! on a relabelled `irreducible_star_instance(4, n)`, hash-split over
//! `grid(3,3)` at capacity 1. Each measured run ships over a fresh
//! loopback `TcpTransport`; every third run replays the same plan on
//! the causal simulator alone (`SimTransport`), the paper's Model 2.1
//! accounting without any wire.

use crate::gen::star_instance;
use crate::report::{window_of, Check, Metric, Report, Samples, Setups, WINDOWS, WINDOW_TRIM};
use crate::Opts;
use faqs_core::solve_bcq;
use faqs_network::{
    Delivery, LinkId, Player, RunStats, SimTransport, TcpTransport, Topology, TransmitError,
    Transport, TransportKind, WireStats,
};
use faqs_plan::PlannerConfig;
use faqs_protocols::{DistributedFaqRun, DistributedOutcome, InputPlacement};
use faqs_relation::{FaqQuery, Relation};
use faqs_semiring::{Boolean, Semiring};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up takes well under a millisecond here, so its summary needs many
/// repetitions to settle.
const SETUP_REPS: usize = 301;
const CODEC_REPLAYS: usize = 20;
const PREPARE_REPLAYS: usize = 31;

fn topology() -> Topology {
    Topology::grid(3, 3)
}

fn prepare<'a>(q: &'a FaqQuery<Boolean>, g: &Topology) -> DistributedFaqRun<'a, Boolean> {
    let players: Vec<Player> = g.players().collect();
    let output = *players.last().expect("grid(3,3) has players");
    let placement = InputPlacement::hash_split(q.k(), &players, output);
    DistributedFaqRun::new_with(q, g, placement, 1, &PlannerConfig::stats())
        .expect("a star BCQ hash-split on a connected grid is a valid run")
        .with_threads(1)
}

/// A transport wrapper that times every call into the wrapped
/// transport and can keep a copy of every frame it ships.
struct Timed<T> {
    inner: T,
    busy: Duration,
    frames: Option<Vec<Vec<u8>>>,
}

impl<T> Timed<T> {
    fn new(inner: T, keep_frames: bool) -> Self {
        Timed {
            inner,
            busy: Duration::ZERO,
            frames: keep_frames.then(Vec::new),
        }
    }

    fn timed<R>(&mut self, frame: &[u8], call: impl FnOnce(&mut T) -> R) -> R {
        let t = Instant::now();
        let r = call(&mut self.inner);
        self.busy += t.elapsed();
        if let Some(frames) = &mut self.frames {
            frames.push(frame.to_vec());
        }
        r
    }
}

impl<T: Transport> Transport for Timed<T> {
    fn route(
        &mut self,
        from: Player,
        to: Player,
        frame: &[u8],
        model_bits: u64,
        learned_at: u64,
    ) -> Result<Delivery, TransmitError> {
        self.timed(frame, |t| t.route(from, to, frame, model_bits, learned_at))
    }

    fn send_along_path(
        &mut self,
        nodes: &[Player],
        links: &[LinkId],
        frame: &[u8],
        model_bits: u64,
        ready_at: u64,
    ) -> Result<Delivery, TransmitError> {
        self.timed(frame, |t| {
            t.send_along_path(nodes, links, frame, model_bits, ready_at)
        })
    }

    fn carries_payload(&self) -> bool {
        self.inner.carries_payload()
    }

    fn stats(&self) -> RunStats {
        self.inner.stats()
    }

    fn wire(&self) -> WireStats {
        self.inner.wire()
    }

    fn kind(&self) -> TransportKind {
        self.inner.kind()
    }
}

/// The distributed checks, shared by every run.
struct Checks {
    expected: bool,
    baseline: RunStats,
    answer: Check,
    conforms: Check,
    wire: Check,
    shadow: Check,
}

impl Checks {
    /// Checks one outcome; returns the conformance time in µs and the
    /// bit and wire ratios to their upper envelopes.
    fn outcome(
        &mut self,
        run: &DistributedFaqRun<'_, Boolean>,
        out: &DistributedOutcome<Boolean>,
    ) -> (f64, f64, f64) {
        self.answer
            .record(out.result.total().is_zero() != self.expected);
        self.shadow.record(out.stats == self.baseline);
        let t = Instant::now();
        let report = run.conformance(out.stats);
        let wire = (out.wire.frames > 0).then(|| run.wire_conformance(&report, out.wire));
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.conforms.record(report.conforms());
        let wire_ratio = wire.map_or(0.0, |w| {
            self.wire.record(w.within_upper());
            w.wire.wire_bits() as f64 / w.upper_wire_bits.max(1) as f64
        });
        let bits_ratio = report.stats.total_bits as f64 / report.upper_bits.max(1) as f64;
        (us, bits_ratio, wire_ratio)
    }
}

/// One timed loop; run latencies are kept per window of the loop.
#[derive(Default)]
struct Phase {
    tcp: Vec<Samples>,
    sim: Vec<Samples>,
    busy: Samples,
    shadow: Samples,
    local: Samples,
    per_frame: Samples,
    conformance: Samples,
    ratios: (f64, f64),
    frames: Option<Vec<Vec<u8>>>,
    wire: WireStats,
    window: Duration,
    attempted: u64,
    failed: u64,
}

/// Runs for `dur`. They are the span `pace.0..pace.1` of the whole
/// run: at every window they keep `setups` up with its share.
fn runs(
    run: &DistributedFaqRun<'_, Boolean>,
    dur: Duration,
    traced: bool,
    c: &mut Checks,
    setups: &mut Setups<impl FnMut() -> Duration>,
    pace: (f64, f64),
) -> Phase {
    let mut ph = Phase {
        tcp: vec![Samples::default(); WINDOWS],
        sim: vec![Samples::default(); WINDOWS],
        window: dur / WINDOWS as u32,
        ..Phase::default()
    };
    let start = Instant::now();
    let mut last = None;
    for i in 0u64.. {
        if start.elapsed() >= dur {
            break;
        }
        let w = window_of(start.elapsed(), dur, WINDOWS);
        if last != Some(w) {
            last = Some(w);
            setups.keep_pace(pace.0 + (pace.1 - pace.0) * w as f64 / WINDOWS as f64);
        }
        ph.attempted += 1;
        if i % 3 == 2 {
            let mut sim = Timed::new(SimTransport::new(run.topology()), false);
            let t = Instant::now();
            let out = if traced {
                run.execute_on(&mut sim)
            } else {
                run.execute_on(&mut sim.inner)
            };
            ph.sim[w].push_ms(t.elapsed());
            match out {
                Ok(out) => {
                    c.outcome(run, &out);
                    ph.shadow.push_ms(sim.busy);
                }
                Err(_) => ph.failed += 1,
            }
            continue;
        }
        let Ok(tcp) = TcpTransport::new(run.topology()) else {
            ph.failed += 1;
            continue;
        };
        let mut tcp = Timed::new(tcp, traced && ph.frames.is_none());
        let t = Instant::now();
        let out = if traced {
            run.execute_on(&mut tcp)
        } else {
            run.execute_on(&mut tcp.inner)
        };
        let wall = t.elapsed();
        ph.tcp[w].push_ms(wall);
        match out {
            Ok(out) => {
                let (us, bits, wire) = c.outcome(run, &out);
                ph.conformance.push(us);
                ph.ratios = (bits, wire);
                ph.wire = out.wire;
                if traced {
                    ph.busy.push_ms(tcp.busy);
                    ph.local.push_ms(wall.saturating_sub(tcp.busy));
                    ph.per_frame
                        .push(tcp.busy.as_secs_f64() * 1e6 / out.wire.frames.max(1) as f64);
                    if ph.frames.is_none() {
                        ph.frames = tcp.frames.take();
                    }
                }
            }
            Err(_) => ph.failed += 1,
        }
    }
    ph
}

/// Decodes and re-encodes the frames one run shipped; total µs per run.
fn codec_replay(frames: &[Vec<u8>]) -> (Samples, Samples) {
    let (mut enc, mut dec) = (Samples::default(), Samples::default());
    for _ in 0..CODEC_REPLAYS {
        let rels: Vec<Relation<Boolean>> = dec.time_us(|| {
            frames
                .iter()
                .map(|f| Relation::decode_frame(f).expect("the run shipped valid frames"))
                .collect()
        });
        enc.time_us(|| rels.iter().for_each(|r| drop(black_box(r.encode_frame()))));
    }
    (enc, dec)
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Report {
    let sizes = opts.sizes();
    let g = topology();
    let t = Instant::now();
    let q = star_instance(&sizes, opts.seed);
    let run = prepare(&q, &g);
    let first = t.elapsed();
    // Every further set-up builds the same run again and drops it.
    let mut setups = Setups::new(SETUP_REPS, first, || {
        let t = Instant::now();
        let q = star_instance(&sizes, opts.seed);
        black_box(prepare(&q, &g));
        t.elapsed()
    });

    let baseline = run
        .execute_on(&mut SimTransport::new(run.topology()))
        .expect("the simulator runs the prepared plan");
    let mut c = Checks {
        expected: solve_bcq(&q),
        baseline: baseline.stats,
        answer: Check::new("distributed_result_vs_solve_bcq"),
        conforms: Check::new("conformance_report_conforms"),
        wire: Check::new("wire_conformance_within_upper"),
        shadow: Check::new("tcp_run_stats_equal_simulator"),
    };
    let mut report = Report::default();
    let secs = opts.seconds;
    let ph = if opts.trace {
        let half = Duration::from_secs_f64(secs / 2.0);
        let plain = runs(&run, half, false, &mut c, &mut setups, (0.0, 0.5));
        let traced = runs(&run, half, true, &mut c, &mut setups, (0.5, 1.0));
        let mut prepare_ms = Samples::default();
        for _ in 0..PREPARE_REPLAYS {
            let p = Instant::now();
            black_box(prepare(&q, &g));
            prepare_ms.push_ms(p.elapsed());
        }
        let (enc, dec) = codec_replay(traced.frames.as_deref().unwrap_or_default());
        let s = baseline.stats;
        report.layers = vec![
            Metric::quantile("network.transport_busy_ms", "ms", &traced.busy, 0.5),
            Metric::quantile("network.us_per_frame", "us", &traced.per_frame, 0.5),
            Metric::quantile("network.shadow_ms", "ms", &traced.shadow, 0.5),
            Metric::new("network.frames", "count", traced.wire.frames as f64, 1),
            Metric::new("network.transmissions", "count", s.transmissions as f64, 1),
            Metric::new(
                "network.wire_bytes",
                "bytes",
                traced.wire.payload_bytes as f64,
                1,
            ),
            Metric::quantile("protocols.prepare_ms", "ms", &prepare_ms, 0.5),
            Metric::window_mean("protocols.run_ms", "ms", &traced.tcp, 0.5),
            Metric::quantile("protocols.local_ms", "ms", &traced.local, 0.5),
            Metric::quantile("protocols.conformance_us", "us", &traced.conformance, 0.5),
            Metric::new("protocols.bits_over_upper", "ratio", traced.ratios.0, 1),
            Metric::new("protocols.wire_over_upper", "ratio", traced.ratios.1, 1),
            Metric::new("protocols.rounds", "count", s.rounds as f64, 1),
            Metric::new("protocols.model_bits", "bits", s.total_bits as f64, 1),
            Metric::quantile("relation.codec_encode_us", "us", &enc, 0.5),
            Metric::quantile("relation.codec_decode_us", "us", &dec, 0.5),
        ];
        let p0 = Metric::window_mean("trace.untraced_p50_ms", "ms", &plain.tcp, 0.5);
        let p1 = Metric::window_mean("trace.traced_p50_ms", "ms", &traced.tcp, 0.5);
        let overhead = Metric::new("trace.overhead_ms", "ms", p1.value - p0.value, p1.samples);
        report.layers.extend([p0, p1, overhead]);
        report.attempted += plain.attempted;
        report.failed += plain.failed;
        traced
    } else {
        let all = Duration::from_secs_f64(secs);
        runs(&run, all, false, &mut c, &mut setups, (0.0, 1.0))
    };
    report.attempted += ph.attempted;
    report.failed += ph.failed;
    let s = baseline.stats;
    let mut rates = Samples::default();
    for (tcp, sim) in ph.tcp.iter().zip(&ph.sim) {
        rates.push((tcp.len() + sim.len()) as f64 / ph.window.as_secs_f64());
    }
    let tcp_runs = Samples::pooled(&ph.tcp).len();
    report.metrics = vec![
        Metric::window_mean("run_p50_ms", "ms", &ph.tcp, 0.5).as_role("p50_ms"),
        Metric::window_mean("run_p90_ms", "ms", &ph.tcp, 0.9).as_role("tail_ms"),
        Metric::window_mean("sim_run_p50_ms", "ms", &ph.sim, 0.5).as_role("side_p50_ms"),
        Metric::window_mean("sim_run_p90_ms", "ms", &ph.sim, 0.9).as_role("side_tail_ms"),
        Metric::new(
            "runs_per_s",
            "1/s",
            rates.trimmed_mean(WINDOW_TRIM),
            ph.attempted as usize,
        )
        .as_role("throughput_per_s"),
        Metric::new("rounds", "count", s.rounds as f64, 1),
        Metric::new("model_bits", "bits", s.total_bits as f64, 1),
        Metric::new(
            "wire_bytes",
            "bytes",
            ph.wire.payload_bytes as f64,
            tcp_runs,
        ),
    ];
    report.checks = vec![c.answer, c.conforms, c.wire, c.shadow];
    // Set-ups are made a few per window, so they see the same mix of
    // host speeds as the runs and are summarised the same way.
    report.finish(setups.finish().trimmed_mean(WINDOW_TRIM), SETUP_REPS);
    report
}
