//! Runs every workload at tiny size, untraced and traced, and checks
//! that each reports every metric `BENCHMARK.json` names, with its
//! unit, and that every answer check ran and passed.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use faqs_perfbench::report::{Report, END_TO_END, PER_LAYER};
use faqs_perfbench::{run, Opts};

fn smoke(workload: &str, trace: bool) -> Report {
    let opts = Opts {
        seed: 7,
        seconds: 1.0,
        trace,
        smoke: true,
    };
    run(workload, &opts).expect("a known workload")
}

fn assert_complete(workload: &str, named: &[(&str, &str)]) {
    for trace in [false, true] {
        let report = smoke(workload, trace);
        assert!(
            !report.checks.is_empty(),
            "{workload}: no answer check was registered"
        );
        for c in &report.checks {
            assert!(c.ran > 0, "{workload}: check {} never ran", c.name);
            assert_eq!(c.failed, 0, "{workload}: check {} failed", c.name);
        }
        assert!(report.correct(), "{workload}: {report:?}");
        let json = report.json(trace);
        let listed = if trace { PER_LAYER } else { END_TO_END };
        for (name, unit) in listed {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = json
                .find(&entry)
                .unwrap_or_else(|| panic!("{workload}: {name} missing from {json}"));
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            assert!(
                json[at..].starts_with(&entry) && json[at..].contains(&unit_field),
                "{workload}: {name} lacks unit {unit}"
            );
        }
        if !trace {
            for (name, unit) in named.iter().chain(&[
                ("setup_s", "s"),
                ("peak_rss_mb", "MiB"),
                ("error_share", "ratio"),
            ]) {
                let m = report
                    .metrics
                    .iter()
                    .find(|m| m.name == *name)
                    .unwrap_or_else(|| panic!("{workload}: {name} not reported"));
                assert_eq!(m.unit, *unit, "{workload}: unit of {name}");
                assert!(m.samples > 0, "{workload}: {name} has no samples");
            }
        }
    }
}

#[test]
fn serve_zipf_rw_reports_every_metric_and_check() {
    assert_complete(
        "serve-zipf-rw",
        &[
            ("read_p50_ms", "ms"),
            ("read_p99_ms", "ms"),
            ("read_capacity_qps", "req/s"),
            ("write_p50_ms", "ms"),
        ],
    );
}

#[test]
fn triangle_churn_reports_every_metric_and_check() {
    assert_complete(
        "triangle-churn",
        &[
            ("solve_p50_ms", "ms"),
            ("solve_p90_ms", "ms"),
            ("update_p50_ms", "ms"),
            ("update_p90_ms", "ms"),
            ("update_p99_ms", "ms"),
        ],
    );
}

#[test]
fn dist_star_tcp_reports_every_metric_and_check() {
    assert_complete(
        "dist-star-tcp",
        &[
            ("run_p50_ms", "ms"),
            ("run_p90_ms", "ms"),
            ("rounds", "count"),
            ("model_bits", "bits"),
            ("wire_bytes", "bytes"),
        ],
    );
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let listed = spec.matches("\"name\": ").count();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in faqs_perfbench::WORKLOADS {
        assert!(
            spec.contains(&format!("{{\"name\": \"{w}\"")),
            "BENCHMARK.json lacks {w}"
        );
    }
    assert_eq!(
        listed,
        END_TO_END.len() + PER_LAYER.len() + faqs_perfbench::WORKLOADS.len(),
        "BENCHMARK.json names a metric or workload the benchmark does not report"
    );
}
