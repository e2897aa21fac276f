//! The untraced cycle: every user-visible command of the LockDoc round,
//! timed from outside and checked against the expected outputs.

use crate::inputs::{
    clear_dir, copy_tree, generate, path_str, rules_part, score, Expected, Inputs, Shape,
};
use crate::serve::session;
use crate::{cli, Tally};
use locksrc::{analyze_tree, MinerConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Read queries before the `add` is sent and after it answered.
pub const SERVE_PRE: usize = 150;
pub const SERVE_POST: usize = 150;

pub struct Ctx<'a> {
    pub work: &'a Path,
    pub sock: PathBuf,
    pub shape: Shape,
    pub seed: u64,
    pub inputs: &'a Inputs,
    pub exp: &'a Expected,
    pub jobs: usize,
}

/// Samples of one run. Every timed operation lands in `secs` as wall
/// seconds and, once the reference computation has run before and after
/// it, in `rel` as a multiple of the mean of those two reference times
/// (query latencies likewise in `latencies_rel`).
#[derive(Default)]
pub struct Samples {
    pub secs: BTreeMap<&'static str, Vec<f64>>,
    pub rel: BTreeMap<&'static str, Vec<f64>>,
    pub latencies_ms: Vec<f64>,
    pub latencies_rel: Vec<f64>,
    /// Peak resident memory of each measured cycle, in MB.
    pub peak_rss_mb: Vec<f64>,
    /// Samples since the last reference, and that reference time.
    open: Vec<(&'static str, f64)>,
    open_latencies: usize,
    last_reference_s: Option<f64>,
}

impl Samples {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.secs.entry(name).or_default().push(v);
        self.open.push((name, v));
    }

    /// Closes the open samples with a reference time taken after them.
    fn close(&mut self, reference_s: f64) {
        if let Some(before) = self.last_reference_s {
            let mean = (before + reference_s) / 2.0;
            for (name, v) in self.open.drain(..) {
                self.rel.entry(name).or_default().push(v / mean);
            }
            let new = &self.latencies_ms[self.open_latencies..];
            self.latencies_rel
                .extend(new.iter().map(|ms| ms / 1e3 / mean));
        }
        self.open.clear();
        self.open_latencies = self.latencies_ms.len();
        self.last_reference_s = Some(reference_s);
        self.secs
            .entry("reference_s")
            .or_default()
            .push(reference_s);
    }
}

/// Keys of the reference computation (about 60 ms on a 2-vCPU Xeon VM).
const REF_KEYS: u64 = 600_000;

/// The reference computation: fixed work of the benchmark's own, not of
/// the program under test, timed between the operations of a run and
/// pushed as `reference_s`; it closes the samples taken since the last
/// one. The end-to-end times are reported as multiples of the reference
/// times around them, so the speed of a shared host at that moment
/// cancels out, while a change in the program moves the multiple as much
/// as it moves the time. It does what the passes do (hashes into maps,
/// sorts, renders and hashes text) and calls no code of the program, so
/// no change to the program moves it.
pub fn reference(s: &mut Samples) {
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut keys: Vec<u64> = (0..REF_KEYS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for k in &keys {
        *counts.entry(k % 65_536).or_default() += 1;
    }
    let tree: BTreeMap<u64, u32> = keys.iter().step_by(4).map(|k| (*k, 0)).collect();
    keys.sort_unstable();
    let text: String = keys.iter().step_by(8).map(|k| format!("{k:x}\n")).collect();
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    std::hint::black_box((hash, counts.len(), tree.len()));
    s.close(t.elapsed().as_secs_f64());
}

/// The set-up, timed again: generates the workload's inputs into a
/// scratch directory and checks they equal the inputs in use.
pub fn setup(c: &Ctx, s: &mut Samples, tally: &mut Tally) -> Result<(), String> {
    let dir = c.work.join("cyc-setup");
    clear_dir(&dir);
    let t = Instant::now();
    let g = generate(&dir, &c.shape, c.seed, c.jobs)?;
    let secs = t.elapsed().as_secs_f64();
    clear_dir(&dir);
    if tally.check(g.digest == c.inputs.digest, "set-up is not deterministic") {
        s.push("setup_s", secs);
    }
    Ok(())
}

/// The four phases of one cycle. Each phase is independent of the
/// others and may run several times in a cycle.
pub const PHASES: [&str; 4] = ["lint", "corpus", "serve", "static"];

pub fn run_phase(phase: &str, c: &Ctx, s: &mut Samples, tally: &mut Tally) -> Result<(), String> {
    match phase {
        "lint" => lint(c, s, tally),
        "corpus" => corpus(c, s, tally),
        "serve" => serve(c, s, tally),
        _ => statics(c, s, tally),
    }
}

fn timed(args: &[&str]) -> (f64, Result<String, String>) {
    let t = Instant::now();
    let out = cli(args);
    (t.elapsed().as_secs_f64(), out)
}

/// `lockdoc lint` cold at `--jobs nproc`, cold at `--jobs 1` and warm
/// from the LDARCH1 archive; all three texts must equal the reference.
fn lint(c: &Ctx, s: &mut Samples, tally: &mut Tally) -> Result<(), String> {
    let t = path_str(&c.inputs.lint_trace);
    let j = c.jobs.to_string();
    let archive = path_str(&c.exp.archive_dir);
    let runs: [(&'static str, Vec<&str>); 3] = [
        ("lint_s", vec!["lint", "--trace", t, "--jobs", &j]),
        ("lint_j1_s", vec!["lint", "--trace", t, "--jobs", "1"]),
        (
            "lint_warm_s",
            vec!["lint", "--trace", t, "--jobs", &j, "--cache-dir", archive],
        ),
    ];
    for (i, (metric, args)) in runs.into_iter().enumerate() {
        // Each of the three gets a reference time of its own on both
        // sides: at `--jobs 1` the time follows one core's speed, which
        // moves more than the mean over the cores a block spans.
        if i > 0 {
            reference(s);
        }
        let (secs, out) = timed(&args);
        let out = out?;
        if tally.check(out == c.exp.lint, &format!("{metric}: lint text differs")) {
            s.push(metric, secs);
        }
    }
    Ok(())
}

/// `corpus add` of the base members into an empty cache (cold build),
/// `corpus add` of the extra member (incremental) and a warm `build`.
fn corpus(c: &Ctx, s: &mut Samples, tally: &mut Tally) -> Result<(), String> {
    let dir = c.work.join("cyc-corpus");
    clear_dir(&dir);
    let d = path_str(&dir);
    let j = c.jobs.to_string();
    let mut cold: Vec<&str> = vec!["corpus", "add"];
    cold.extend(c.inputs.base().iter().map(|p| path_str(p)));
    cold.extend(["--dir", d, "--jobs", &j]);
    let steps: [(&'static str, Vec<&str>, &str); 3] = [
        ("corpus_cold_build_s", cold, &c.exp.rules_base),
        (
            "corpus_add_s",
            vec![
                "corpus",
                "add",
                path_str(c.inputs.extra()),
                "--dir",
                d,
                "--jobs",
                &j,
            ],
            &c.exp.rules_all,
        ),
        (
            "corpus_warm_build_s",
            vec!["corpus", "build", "--dir", d, "--jobs", &j],
            &c.exp.rules_all,
        ),
    ];
    for (metric, args, want) in steps {
        let (secs, out) = timed(&args);
        let out = out?;
        if tally.check(
            rules_part(&out) == want,
            &format!("{metric}: corpus rules differ from a scratch build"),
        ) {
            s.push(metric, secs);
        }
    }
    clear_dir(&dir);
    Ok(())
}

/// A `serve --socket` session on a fresh copy of the base corpus, with
/// one `add` of the extra member while a closed query loop runs.
fn serve(c: &Ctx, s: &mut Samples, tally: &mut Tally) -> Result<(), String> {
    let dir = c.work.join("cyc-serve");
    clear_dir(&dir);
    copy_tree(&c.exp.base_corpus, &dir).map_err(|e| e.to_string())?;
    let out = session(&dir, c, true)?;
    clear_dir(&dir);
    // Every query, the first `status`, the add and the shutdown are
    // operations; error and shed responses are failed ones.
    tally.count(
        out.latencies_ms.len() as u64 + 3,
        out.errors + out.shed,
        "serve: error or shed responses",
    );
    tally.check(
        out.mismatches.is_empty(),
        &format!(
            "serve answers after add differ from batch: {:?}",
            out.mismatches
        ),
    );
    s.push("serve_ready_s", out.ready_s());
    s.push("serve_add_s", out.add_s());
    s.latencies_ms.extend(out.latencies_ms);
    Ok(())
}

/// `locksrc::analyze_tree` at `--jobs nproc`, scored against the
/// planted-outlier oracle (precision and recall must both be 100%).
fn statics(c: &Ctx, s: &mut Samples, tally: &mut Tally) -> Result<(), String> {
    let t = Instant::now();
    let report = analyze_tree(&c.inputs.src_files, &MinerConfig::default(), c.jobs);
    let (planted, reported, matched) = score(&report, &c.inputs.planted);
    let secs = t.elapsed().as_secs_f64();
    let ok = tally.check(
        report == c.exp.static_report,
        "static report differs from the reference",
    ) & tally.check(
        matched == planted && matched == reported,
        &format!("oracle: {matched} matched of {planted} planted, {reported} reported"),
    );
    if ok {
        s.push("xcheck_s", secs);
    }
    Ok(())
}
