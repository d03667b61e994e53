//! # hermes-bench — harness plumbing for the figure/table benchmarks
//!
//! Each bench target (`cargo bench -p hermes-bench --bench figNN`)
//! regenerates one exhibit of the paper's evaluation: it prints the same
//! rows/series the paper reports, a set of `[ok]/[!!]` shape checks
//! (who wins, by roughly what factor, where crossovers fall), and writes
//! the full series as CSV under `results/`.
//!
//! Scale: by default the workloads are scaled down for quick runs; set
//! `HERMES_FULL=1` for the paper's full volumes.

#![warn(missing_docs)]

pub mod diff;
pub mod json;
pub mod stats;

use hermes_sim::stats::Summary;
use std::ffi::OsString;
use std::path::PathBuf;

/// `true` when `HERMES_FULL=1`: run the paper's full workload volumes.
pub fn full_scale() -> bool {
    std::env::var("HERMES_FULL").is_ok_and(|v| v == "1")
}

/// Micro-benchmark volume for small (1 KB) requests.
pub fn micro_small_total() -> usize {
    if full_scale() {
        1 << 30
    } else {
        160 << 20
    }
}

/// Micro-benchmark volume for large (256 KB) requests.
pub fn micro_large_total() -> usize {
    1 << 30 // 4096 requests: cheap enough to always run at paper scale
}

/// Query count for small-record service runs.
pub fn queries_small() -> usize {
    if full_scale() {
        100_000
    } else {
        8_000
    }
}

/// Query count for large-record service runs.
pub fn queries_large() -> usize {
    if full_scale() {
        10_000
    } else {
        2_000
    }
}

/// Directory for CSV outputs: `RESULTS_DIR` when set; otherwise
/// `results/` at the root of the checkout cargo is running from, found
/// through `CARGO_MANIFEST_DIR` at run time (so a copied checkout writes
/// into its own tree); otherwise `./results`.
pub fn results_dir() -> PathBuf {
    resolve_results_dir(
        std::env::var_os("RESULTS_DIR"),
        std::env::var_os("CARGO_MANIFEST_DIR"),
    )
}

fn resolve_results_dir(results: Option<OsString>, manifest: Option<OsString>) -> PathBuf {
    match (results, manifest) {
        (Some(dir), _) => PathBuf::from(dir),
        (None, Some(crate_dir)) => PathBuf::from(crate_dir).join("../../results"),
        (None, None) => PathBuf::from("results"),
    }
}

/// Prints the standard harness header.
pub fn header(id: &str, title: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("   (scaled run; HERMES_FULL=1 for paper volumes)");
    println!("================================================================");
}

/// Tracks shape checks and reports a summary verdict.
#[derive(Debug, Default)]
pub struct Checks {
    total: usize,
    failed: usize,
}

impl Checks {
    /// Creates an empty check set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records and prints one paper-vs-measured shape check.
    pub fn check(&mut self, label: &str, paper: &str, measured: &str, holds: bool) {
        self.total += 1;
        if !holds {
            self.failed += 1;
        }
        println!(
            "{}",
            hermes_sim::report::check_line(label, paper, measured, holds)
        );
    }

    /// Prints the final verdict line.
    pub fn finish(&self) {
        println!(
            "shape checks: {}/{} hold",
            self.total - self.failed,
            self.total
        );
    }

    /// Number of failed checks.
    pub fn failed(&self) -> usize {
        self.failed
    }
}

/// Formats a reduction percentage like the paper ("54.4%").
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// Writes one bench's summary into `results/BENCH_PR.json` without
/// clobbering other benches' rows: each bench stores its JSON object as
/// a fragment under `results/bench_pr/<name>.json`, and the merged
/// top-level object (`{"<name>": {...}, ...}`) is reassembled from all
/// fragments on every call. Idempotent per bench — re-running replaces
/// that bench's section only.
///
/// `json_object` must be a valid JSON object literal (the workspace has
/// no serde; writers format by hand as before). Host metadata
/// ([`stats::host_meta_json`]) is injected as the section's `"host"`
/// member unless the writer supplied one, so every section records the
/// cores/toolchain/kernel that produced it and `bench_diff` can refuse
/// unlike-for-unlike comparisons.
pub fn write_bench_pr_section(name: &str, json_object: &str) {
    let dir = results_dir().join("bench_pr");
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let with_host = inject_host(json_object);
    let frag = dir.join(format!("{name}.json"));
    if std::fs::write(&frag, with_host).is_err() {
        eprintln!("warning: could not write {}", frag.display());
        return;
    }
    // Reassemble the merged file from every fragment, sorted by name so
    // the output is stable across runs.
    let mut names: Vec<String> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let n = e.file_name().into_string().ok()?;
                n.strip_suffix(".json").map(str::to_string)
            })
            .collect(),
        Err(_) => return,
    };
    names.sort();
    let mut merged = String::from("{\n");
    let mut first = true;
    for n in names {
        let Ok(body) = std::fs::read_to_string(dir.join(format!("{n}.json"))) else {
            continue;
        };
        if !first {
            merged.push_str(",\n");
        }
        first = false;
        merged.push_str(&format!("\"{n}\": {}", body.trim()));
    }
    merged.push_str("\n}\n");
    let path = results_dir().join("BENCH_PR.json");
    if std::fs::write(&path, merged).is_ok() {
        println!("json: {}", path.display());
    }
}

/// Prepends the `"host"` member to a hand-built JSON object literal,
/// unless one is already present.
fn inject_host(json_object: &str) -> String {
    if json_object.contains("\"host\"") {
        return json_object.to_string();
    }
    match json_object.find('{') {
        Some(open) => format!(
            "{}{{\n  \"host\": {},{}",
            &json_object[..open],
            stats::host_meta_json(),
            &json_object[open + 1..]
        ),
        None => json_object.to_string(),
    }
}

/// Reduction of `ours` vs `base` at the average, in percent.
pub fn avg_reduction(ours: &Summary, base: &Summary) -> f64 {
    ours.reduction_vs(base).avg
}

/// Reduction of `ours` vs `base` at p99, in percent.
pub fn p99_reduction(ours: &Summary, base: &Summary) -> f64 {
    ours.reduction_vs(base).p99
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_follows_the_run_time_checkout() {
        let copy = OsString::from("/elsewhere/copy/crates/bench");
        assert_eq!(
            resolve_results_dir(None, Some(copy.clone())),
            PathBuf::from("/elsewhere/copy/crates/bench/../../results")
        );
        assert_eq!(
            resolve_results_dir(Some("/tmp/out".into()), Some(copy)),
            PathBuf::from("/tmp/out"),
            "RESULTS_DIR overrides"
        );
        assert_eq!(resolve_results_dir(None, None), PathBuf::from("results"));
        // Under cargo the variable is set at run time, not baked in.
        if std::env::var_os("RESULTS_DIR").is_none() {
            let crate_dir = std::env::var_os("CARGO_MANIFEST_DIR").expect("cargo sets it");
            assert_eq!(
                results_dir(),
                PathBuf::from(crate_dir).join("../../results")
            );
        }
    }

    #[test]
    fn scale_helpers() {
        // Defaults (HERMES_FULL unset in tests).
        assert!(micro_small_total() > 0);
        assert!(micro_large_total() == 1 << 30);
        assert!(queries_small() > queries_large());
    }

    #[test]
    fn checks_track_failures() {
        let mut c = Checks::new();
        c.check("a", "1", "1", true);
        c.check("b", "1", "2", false);
        assert_eq!(c.failed(), 1);
        c.finish();
    }

    #[test]
    fn results_dir_is_formed() {
        assert!(results_dir().to_string_lossy().contains("results"));
    }

    #[test]
    fn host_injection_is_idempotent_and_parses() {
        let injected = inject_host("{\n  \"a\": 1\n}\n");
        let v = crate::json::parse(&injected).expect("valid JSON after injection");
        assert!(v.get("host").is_some());
        assert_eq!(v.get("a").and_then(crate::json::Value::as_num), Some(1.0));
        // A writer-supplied host object is left alone.
        let supplied = "{\"host\": {\"host_cores\": 2}, \"a\": 1}";
        assert_eq!(inject_host(supplied), supplied);
    }
}

/// Shared runner for the micro-benchmark figures (3, 7, 8).
pub mod microfig {
    use hermes_allocators::AllocatorKind;
    use hermes_sim::report::{summary_row_us, write_cdf_csv, Table};
    use hermes_sim::stats::Summary;
    use hermes_workloads::{run_micro, MicroConfig, Scenario};

    /// One plotted series.
    #[derive(Debug)]
    pub struct Series {
        /// Display label ("Hermes", "Hermes w/o rec", ...).
        pub label: String,
        /// Scenario it ran under.
        pub scenario: Scenario,
        /// Latency summary.
        pub summary: Summary,
        /// CDF points for the CSV dump.
        pub cdf: Vec<(hermes_sim::time::SimDuration, f64)>,
    }

    /// Runs the full allocator x scenario grid for one request size,
    /// including the "Hermes w/o rec" series under file pressure.
    pub fn run_grid(request_size: usize, total: usize, seed: u64) -> Vec<Series> {
        let mut out = Vec::new();
        for scenario in Scenario::ALL {
            for kind in AllocatorKind::ALL {
                let cfg = MicroConfig {
                    seed,
                    ..MicroConfig::paper(kind, scenario, request_size).scaled(total)
                };
                let mut r = run_micro(&cfg);
                out.push(Series {
                    label: kind.name().to_string(),
                    scenario,
                    summary: r.latencies.summary(),
                    cdf: r.latencies.cdf(120, 0.0),
                });
            }
            if scenario == Scenario::FilePressure {
                let mut cfg = MicroConfig {
                    seed,
                    ..MicroConfig::paper(AllocatorKind::Hermes, scenario, request_size)
                        .scaled(total)
                };
                cfg.daemon = false;
                let mut r = run_micro(&cfg);
                out.push(Series {
                    label: "Hermes w/o rec".to_string(),
                    scenario,
                    summary: r.latencies.summary(),
                    cdf: r.latencies.cdf(120, 0.0),
                });
            }
        }
        out
    }

    /// Finds a series.
    pub fn find<'a>(series: &'a [Series], label: &str, sc: Scenario) -> &'a Series {
        series
            .iter()
            .find(|s| s.label == label && s.scenario == sc)
            .expect("series present")
    }

    /// Prints the per-scenario summary tables and writes the CDF CSV.
    pub fn print_and_dump(series: &[Series], csv_name: &str) {
        for sc in Scenario::ALL {
            println!("\n--- scenario: {sc} ---");
            let mut t = Table::new(["allocator", "avg(us)", "p75", "p90", "p95", "p99"]);
            for s in series.iter().filter(|s| s.scenario == sc) {
                t.row_vec(summary_row_us(&s.label, &s.summary));
            }
            print!("{}", t.render());
        }
        let named: Vec<(String, _)> = series
            .iter()
            .map(|s| (format!("{}-{}", s.label, s.scenario), s.cdf.clone()))
            .collect();
        let named_ref: Vec<(&str, Vec<_>)> =
            named.iter().map(|(n, c)| (n.as_str(), c.clone())).collect();
        let path = crate::results_dir().join(csv_name);
        if let Err(e) = write_cdf_csv(&path, &named_ref) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("\nCDF series written to {}", path.display());
        }
    }
}

/// Shared runner for the service figures (9-14).
pub mod sweep {
    use hermes_allocators::AllocatorKind;
    use hermes_services::ServiceKind;
    use hermes_sim::stats::{LatencyRecorder, Summary};
    use hermes_workloads::{run_colocation, ColocationConfig, PRESSURE_LEVELS};

    /// One cell of the pressure-level sweep.
    #[derive(Debug)]
    pub struct Cell {
        /// Pressure level (0.0 - 1.5).
        pub level: f64,
        /// Allocator.
        pub kind: AllocatorKind,
        /// Query-latency summary.
        pub summary: Summary,
        /// Full recorder (for SLO-violation ratios).
        pub recorder: LatencyRecorder,
    }

    /// Runs service x allocator x pressure-level and returns all cells.
    pub fn run(service: ServiceKind, record: usize, queries: usize, seed: u64) -> Vec<Cell> {
        let mut out = Vec::new();
        for &level in &PRESSURE_LEVELS {
            for kind in AllocatorKind::ALL {
                let mut cfg = ColocationConfig::paper(service, kind, record, level);
                cfg.queries = queries;
                cfg.seed = seed;
                let mut res = run_colocation(&cfg);
                out.push(Cell {
                    level,
                    kind,
                    summary: res.totals.summary(),
                    recorder: res.totals,
                });
            }
        }
        out
    }

    /// Finds a cell.
    pub fn find(cells: &[Cell], kind: AllocatorKind, level: f64) -> &Cell {
        cells
            .iter()
            .find(|c| c.kind == kind && (c.level - level).abs() < 1e-9)
            .expect("cell present")
    }
}
