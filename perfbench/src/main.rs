//! The LockDoc benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One run generates the workload's inputs from `--seed` (the timed
//! set-up), computes the expected outputs, then repeats the LockDoc
//! round for `--seconds`: `lint` three ways, a corpus cold build,
//! incremental add and warm build, a `serve --socket` session with an
//! `add` under a closed query loop, and the static outlier analysis.
//! Every output is checked. With `--trace 0` it reports the end-to-end
//! metrics: set-up time, peak memory, and each command's time as a
//! multiple of the benchmark's reference computation timed around it
//! (medians over the repetitions; see `e2e::reference`). With
//! `--trace 1` it first times untraced cycles, then replays the round
//! from the public functions of each layer under spans, and reports the
//! per-layer metrics, the untraced wall times among them. The last line
//! of standard output is the result object; the lines before it are a
//! human-readable report and the run stamp.
//!
//! Workloads: `lint_batch`, `corpus_serve`, `static_xcheck` (see
//! `inputs::shape`).

mod e2e;
mod inputs;
mod serve;
mod spans;
mod traced;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Upper bound on how often a short phase repeats within one cycle.
const MAX_REPS: usize = 8;
/// A phase shorter than this repeats within a cycle (up to `MAX_REPS`).
const PHASE_TARGET_S: f64 = 0.5;

/// End-to-end metrics, in report order: name, unit and the samples
/// they are taken from. The times of the program's commands are in
/// `ref`: the median over the run of each time divided by the reference
/// times around it (see `e2e::reference`). On a shared host whose speed
/// drifts by tens of percent over minutes, wall seconds of runs minutes
/// apart differ by more than any bound a change could be held to. The
/// wall seconds are printed on each report line and are the `wall.*`
/// per-layer metrics.
const END_TO_END: [(&str, &str, &str); 13] = [
    ("setup_s", "s", "setup_s"),
    ("peak_rss_mb", "MB", ""),
    ("lint_rel", "ref", "lint_s"),
    ("lint_j1_rel", "ref", "lint_j1_s"),
    ("lint_warm_rel", "ref", "lint_warm_s"),
    ("corpus_cold_build_rel", "ref", "corpus_cold_build_s"),
    ("corpus_add_rel", "ref", "corpus_add_s"),
    ("corpus_warm_build_rel", "ref", "corpus_warm_build_s"),
    ("serve_ready_rel", "ref", "serve_ready_s"),
    ("serve_add_rel", "ref", "serve_add_s"),
    ("serve_query_p50_rel", "ref", "serve_query_p50_ms"),
    ("serve_query_p90_rel", "ref", "serve_query_p90_ms"),
    ("xcheck_rel", "ref", "xcheck_s"),
];

/// Wall times of the end-to-end samples, reported with `--trace 1` as
/// `wall.<name>` from its untraced cycles.
const WALL: [(&str, &str); 12] = [
    ("lint_s", "s"),
    ("lint_j1_s", "s"),
    ("lint_warm_s", "s"),
    ("corpus_cold_build_s", "s"),
    ("corpus_add_s", "s"),
    ("corpus_warm_build_s", "s"),
    ("serve_ready_s", "s"),
    ("serve_add_s", "s"),
    ("serve_query_p50_ms", "ms"),
    ("serve_query_p90_ms", "ms"),
    ("xcheck_s", "s"),
    ("reference_s", "s"),
];

/// Per-layer timings: span name, reported as `<name>_s`.
const LAYER_SPANS: [&str; 36] = [
    "codec.decode",
    "db.import",
    "db.import.j1",
    "db.archive_write",
    "db.archive_read",
    "derive",
    "derive.j1",
    "checker",
    "checker.j1",
    "violation",
    "violation.j1",
    "race",
    "race.j1",
    "order",
    "order.j1",
    "lint.join",
    "lint.join.j1",
    "lint.render",
    "derive.matrix",
    "derive.hypothesis",
    "derive.select",
    "corpus.store_add",
    "corpus.screen",
    "corpus.load",
    "corpus.matrix_build",
    "corpus.matrix_io",
    "corpus.derive",
    "merge.concat",
    "serve.import",
    "serve.passes",
    "serve.render",
    "static.parse",
    "static.lockstate",
    "static.outlier",
    "static.analyze",
    "static.analyze.j1",
];

/// Per-layer counts (from returned values) and the two trace shares.
const LAYER_COUNTS: [&str; 28] = [
    "codec.events",
    "db.accesses",
    "db.txns",
    "derive.groups",
    "derive.hypotheses",
    "derive.rules",
    "derive.truncated_units",
    "violation.events",
    "race.candidates",
    "order.edges",
    "lint.findings",
    "corpus.groups_total",
    "corpus.groups_reused",
    "corpus.reuse_ratio",
    "corpus.matrix_hits",
    "corpus.matrix_misses",
    "corpus.cache_write_errors",
    "serve.queries",
    "serve.shed",
    "serve.errors",
    "static.files",
    "static.functions",
    "static.sites",
    "static.findings",
    "static.planted",
    "static.matched",
    "trace.unattributed_share",
    "trace.overhead_share",
];

/// Operations attempted and failed; every output check is an operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    reported: std::collections::BTreeSet<String>,
}

impl Tally {
    /// Counts one checked operation; returns `ok`.
    pub fn check(&mut self, ok: bool, what: &str) -> bool {
        self.count(1, u64::from(!ok), what);
        ok
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.reported.insert(what.to_owned()) {
            eprintln!("perfbench: FAILED: {what}");
        }
    }
}

/// Runs one `lockdoc` command line in-process.
pub fn cli(args: &[&str]) -> Result<String, String> {
    let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    lockdoc_cli::run(&raw).map_err(|e| format!("lockdoc {}: {e}", args.join(" ")))
}

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Opts {
        workload: get("--workload")?.to_owned(),
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1) as f64,
        trace,
    })
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Peak resident memory since the last `reset_peak_rss`, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Returns the free memory of every allocator arena to the system, then
/// resets the process's peak resident memory to its current size. Each
/// `lockdoc` command a user runs starts with a fresh heap; the commands
/// the benchmark runs in one process would otherwise measure the memory
/// their predecessors left cached in the allocator.
fn reset_peak_rss() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim takes no pointers and may be
        // called at any time from any thread.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Runs phases in cycles for `seconds` (at least one cycle); a cycle
/// starts only if the last one would still end in time, so a run's
/// length does not vary with where the deadline falls in a cycle. Each
/// cycle also repeats the set-up once, so `setup_s` samples span the
/// run like every other metric, times the reference computation before
/// and after each phase, and records its own peak resident memory. A
/// warm-up cycle first fills caches and sizes the repetitions.
fn measure(c: &e2e::Ctx, seconds: f64, tally: &mut Tally) -> Result<(e2e::Samples, usize), String> {
    let mut reps = [1usize; 4];
    let mut warm = e2e::Samples::default();
    for (i, phase) in e2e::PHASES.iter().enumerate() {
        let t = Instant::now();
        e2e::run_phase(phase, c, &mut warm, tally)?;
        let secs = t.elapsed().as_secs_f64();
        reps[i] = ((PHASE_TARGET_S / secs) as usize).clamp(1, MAX_REPS);
    }
    let mut s = e2e::Samples::default();
    let start = Instant::now();
    let mut cycles = 0;
    let mut cycle_s = 0.0;
    while cycles == 0 || start.elapsed().as_secs_f64() + cycle_s <= seconds {
        let t = Instant::now();
        reset_peak_rss();
        e2e::setup(c, &mut s, tally)?;
        for (i, phase) in e2e::PHASES.iter().enumerate() {
            e2e::reference(&mut s);
            for _ in 0..reps[i] {
                e2e::run_phase(phase, c, &mut s, tally)?;
            }
        }
        e2e::reference(&mut s);
        s.peak_rss_mb.push(peak_rss_mb());
        cycle_s = t.elapsed().as_secs_f64();
        cycles += 1;
    }
    Ok((s, cycles))
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    detail: String,
}

/// The percentile a query-latency sample key names (`serve_query_p50_ms`).
fn latency_percentile(key: &str) -> Option<f64> {
    key.strip_prefix("serve_query_p")?
        .strip_suffix("_ms")?
        .parse()
        .ok()
}

/// The wall value of an end-to-end sample series: the median, or for
/// the query latencies their percentile, with a note on the samples.
fn wall(s: &e2e::Samples, key: &str) -> Result<(f64, String), String> {
    if let Some(p) = latency_percentile(key) {
        return Ok((
            percentile(&s.latencies_ms, p),
            format!(
                "{} query samples, p99 {:.4} ms",
                s.latencies_ms.len(),
                percentile(&s.latencies_ms, 99.0)
            ),
        ));
    }
    let v = s.secs.get(key).ok_or(format!("no samples for {key}"))?;
    Ok((
        median(v),
        format!(
            "median of {}, min {:.4}, max {:.4}",
            v.len(),
            percentile(v, 0.0),
            percentile(v, 100.0)
        ),
    ))
}

/// The reference-relative value of an end-to-end sample series, taken
/// like its wall value.
fn relative(s: &e2e::Samples, key: &str) -> Result<f64, String> {
    if let Some(p) = latency_percentile(key) {
        return Ok(percentile(&s.latencies_rel, p));
    }
    let v = s.rel.get(key).ok_or(format!("no samples for {key}"))?;
    Ok(median(v))
}

fn e2e_metrics(s: &e2e::Samples) -> Result<Vec<Metric>, String> {
    let (reference_s, ref_note) = wall(s, "reference_s")?;
    let mut out = Vec::new();
    for (name, unit, key) in END_TO_END {
        let (value, detail) = match unit {
            "MB" => (
                median(&s.peak_rss_mb),
                format!(
                    "median of {} cycles' VmHWM, run VmHWM {:.1}",
                    s.peak_rss_mb.len(),
                    percentile(&s.peak_rss_mb, 100.0)
                ),
            ),
            "s" => wall(s, key)?,
            _ => {
                let (secs, note) = wall(s, key)?;
                let iq = |v: &[f64]| (percentile(v, 75.0) - percentile(v, 25.0)) / median(v);
                let extra = match (s.rel.get(key), s.secs.get(key)) {
                    (Some(r), Some(w)) => format!(" IQR rel {:.3} wall {:.3}", iq(r), iq(w)),
                    _ => String::new(),
                };
                (
                    relative(s, key)?,
                    format!("wall {secs:.6} {key}, {note}{extra}"),
                )
            }
        };
        out.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            detail,
        });
    }
    eprintln!("perfbench: reference computation {reference_s:.6} s, {ref_note}");
    Ok(out)
}

fn traced_metrics(
    c: &e2e::Ctx,
    seconds: f64,
    tally: &mut Tally,
    spans_out: &Path,
    tag: &str,
) -> Result<Vec<Metric>, String> {
    // Untraced reference first: a third of the time, at least one cycle.
    let (untraced, _) = measure(c, seconds / 3.0, tally)?;
    let mut tr = spans::Tracer::new();
    let start = Instant::now();
    let mut counts: Option<traced::Counts> = None;
    while tr.run == 0 || start.elapsed().as_secs_f64() < seconds * 2.0 / 3.0 {
        tr.run += 1;
        let n = traced::cycle(&mut tr, c, tally)?;
        if let Some(prev) = &counts {
            tally.check(prev == &n, "counts differ between traced cycles");
        }
        counts = Some(n);
    }
    tr.write_jsonl(spans_out, tag).map_err(|e| e.to_string())?;
    let runs: Vec<u64> = (1..=tr.run).collect();
    let totals: Vec<BTreeMap<&str, f64>> = runs.iter().map(|&r| tr.totals(r)).collect();
    let span_median = |name: &str| -> f64 {
        let v: Vec<f64> = totals
            .iter()
            .map(|t| t.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let shares: Vec<f64> = runs
        .iter()
        .map(|&r| {
            let (total, uncovered) = tr.unattributed(r, &traced::COMMAND_ROOTS);
            uncovered / total
        })
        .collect();
    let (mut traced_sum, mut untraced_sum) = (0.0, 0.0);
    for (span, metric) in traced::OVERHEAD_PAIRS {
        traced_sum += span_median(span);
        untraced_sum += median(untraced.secs.get(metric).map_or(&[][..], |v| &v[..]));
    }
    let mut out = Vec::new();
    for (key, unit) in WALL {
        out.push(Metric {
            name: format!("wall.{key}"),
            value: wall(&untraced, key)?.0,
            unit,
            detail: "untraced cycles".to_owned(),
        });
    }
    let mut counts = counts.ok_or("no traced cycle")?;
    counts.insert("trace.unattributed_share", median(&shares));
    counts.insert("trace.overhead_share", traced_sum / untraced_sum - 1.0);
    for name in LAYER_SPANS {
        out.push(Metric {
            name: format!("{name}_s"),
            value: span_median(name),
            unit: "s",
            detail: format!("median over {} traced cycles", tr.run),
        });
    }
    for name in LAYER_COUNTS {
        let value = *counts.get(name).ok_or(format!("count {name} missing"))?;
        let unit = if name.ends_with("_share") || name.ends_with("_ratio") {
            "ratio"
        } else {
            "count"
        };
        out.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            detail: String::new(),
        });
    }
    Ok(out)
}

fn run(o: &Opts, work: &Path, tally: &mut Tally) -> Result<(Vec<Metric>, String), String> {
    let shape = inputs::shape(&o.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}` (expected one of {:?})",
            o.workload,
            inputs::WORKLOADS
        )
    })?;
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Set-up: generate the inputs. Measured cycles repeat it and check
    // that every repetition produces the same bytes.
    let t = Instant::now();
    let gen = inputs::generate(&work.join("in"), &shape, o.seed, jobs)?;
    let first_setup_s = t.elapsed().as_secs_f64();
    let exp = inputs::expected(work, &gen, jobs, tally)?;
    let c = e2e::Ctx {
        work,
        sock: work.join("s.sock"),
        shape,
        seed: o.seed,
        inputs: &gen,
        exp: &exp,
        jobs,
    };
    let stamp = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seeded_part\":\"{}\",\"nproc\":{jobs},\"jobs\":[{jobs},1],\"trace\":{},\
         \"git_rev\":\"{}\",\"rustc\":\"{}\",\"lint_events\":{},\"lint_bytes\":{},\"members\":{},\
         \"member_ops\":{},\"lint_ops\":{},\"lint_shards\":{},\"sites_per_rule\":{},\
         \"src_files\":{},\"static_sites\":{},\"planted\":{}}}",
        o.workload,
        o.seed,
        shape.main,
        u8::from(o.trace),
        command_output("git", &["rev-parse", "--short=12", "HEAD"]),
        command_output("rustc", &["--version"]),
        gen.lint_events,
        gen.lint_bytes,
        gen.members.len(),
        shape.member_ops,
        shape.lint_ops,
        shape.lint_shards,
        shape.sites_per_rule,
        gen.src_files.len(),
        exp.static_report.sites,
        gen.planted.len(),
    );
    let metrics = if o.trace {
        let dir = PathBuf::from(".perfbench_out");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let tag = format!("{}-{}", o.workload, o.seed);
        let path = dir.join(format!("spans-{tag}.jsonl"));
        traced_metrics(&c, o.seconds, tally, &path, &tag)?
    } else {
        let (mut s, cycles) = measure(&c, o.seconds, tally)?;
        eprintln!("perfbench: {cycles} measured cycles");
        s.push("setup_s", first_setup_s);
        e2e_metrics(&s)?
    };
    Ok((metrics, stamp))
}

fn main() {
    let o = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // The program under test reads these; the benchmark controls jobs
    // and caches through arguments only.
    for var in ["LOCKDOC_JOBS", "LOCKDOC_CACHE_DIR", "LOCKDOC_CRASH_POINT"] {
        std::env::remove_var(var);
    }
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}",
        o.workload,
        o.seed,
        std::process::id()
    ));
    let mut tally = Tally::default();
    let result = run(&o, &work, &mut tally);
    inputs::clear_dir(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    let (metrics, stamp) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!("stamp {stamp}");
    for m in &metrics {
        println!("{:28} {:>14.6} {:6} {}", m.name, m.value, m.unit, m.detail);
    }
    println!(
        "{:28} {:>14.6} {:6} {} failed of {} attempted",
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        "ratio",
        tally.failed,
        tally.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
