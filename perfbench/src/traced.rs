//! The traced cycle: the same LockDoc round replayed from the public
//! functions of each layer, with a span around every call and counts
//! taken from the returned values at the same boundaries. Every replay
//! output is checked against the untraced expected outputs, so the
//! replay measures the same program.

use crate::e2e::Ctx;
use crate::inputs::{clear_dir, copy_tree, score};
use crate::serve::session;
use crate::spans::Tracer;
use crate::Tally;
use ksim::rules;
use lockdoc_cli::corpus::{derive_members, load_corpus, CorpusCtx, LoadOpts};
use lockdoc_cli::render_rules_text;
use lockdoc_core::checker::check_rules_par;
use lockdoc_core::corpus::derive_fingerprint;
use lockdoc_core::derive::{derive_par, DeriveConfig, GroupRules, MinedRule, MinedRules};
use lockdoc_core::hypothesis::{enumerate, observations_for_cached, ResolutionCache};
use lockdoc_core::lint::{lint, LintInputs};
use lockdoc_core::matrix::AccessMatrix;
use lockdoc_core::order::OrderGraph;
use lockdoc_core::race::find_races_par;
use lockdoc_core::rulespec::parse_rules;
use lockdoc_core::select::select;
use lockdoc_core::violation::{find_violations_par, total_events};
use lockdoc_core::{build_trace_matrix, read_matrix_artifact, write_matrix_artifact};
use lockdoc_platform::vfs::Vfs;
use lockdoc_trace::codec::{read_trace, TraceReader};
use lockdoc_trace::corpus::{screen_trace, CorpusStore};
use lockdoc_trace::db::{filter_fingerprint, fnv1a, import, read_archive, write_archive, TraceDb};
use lockdoc_trace::event::{AccessKind, Trace};
use lockdoc_trace::merge::concat_traces_corpus;
use locksrc::lockstate::collect_observations;
use locksrc::outlier::mine_outliers;
use locksrc::{analyze_tree, ast, MinerConfig, StaticReport};
use std::collections::BTreeMap;
use std::fs;
use std::sync::Arc;

/// Counts of one traced cycle, by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Root spans that replay one end-to-end command; `trace.unattributed_share`
/// is taken over these.
pub const COMMAND_ROOTS: [&str; 8] = [
    "lint",
    "lint.j1",
    "lint.warm",
    "corpus.cold",
    "corpus.add",
    "corpus.warm",
    "serve.snapshot",
    "static.analyze",
];

/// Spans paired with the untraced end-to-end metric of the same work,
/// for `trace.overhead_share`. The traced serve session sends its `add`
/// with no query loop running, so `serve.add` has no untraced twin.
pub const OVERHEAD_PAIRS: [(&str, &str); 7] = [
    ("lint", "lint_s"),
    ("lint.warm", "lint_warm_s"),
    ("corpus.cold", "corpus_cold_build_s"),
    ("corpus.add", "corpus_add_s"),
    ("corpus.warm", "corpus_warm_build_s"),
    ("serve.ready", "serve_ready_s"),
    ("static.analyze", "xcheck_s"),
];

/// Span names of the analysis passes, per job count.
struct PassNames {
    derive: &'static str,
    checker: &'static str,
    violation: &'static str,
    race: &'static str,
    order: &'static str,
    join: &'static str,
    render: &'static str,
}

const NPROC: PassNames = PassNames {
    derive: "derive",
    checker: "checker",
    violation: "violation",
    race: "race",
    order: "order",
    join: "lint.join",
    render: "lint.render",
};
const J1: PassNames = PassNames {
    derive: "derive.j1",
    checker: "checker.j1",
    violation: "violation.j1",
    race: "race.j1",
    order: "order.j1",
    join: "lint.join.j1",
    render: "lint.render.j1",
};
const WARM: PassNames = PassNames {
    derive: "warm.derive",
    checker: "warm.checker",
    violation: "warm.violation",
    race: "warm.race",
    order: "warm.order",
    join: "warm.lint.join",
    render: "warm.lint.render",
};

/// What `lockdoc lint` does once the store is loaded, one span per pass.
/// Returns the rendered text, the mined rules and the pass counts
/// (groups, rules, truncated units, violation events, race candidates,
/// order edges, lint findings).
fn passes(
    tr: &mut Tracer,
    db: &TraceDb,
    jobs: usize,
    names: &PassNames,
) -> Result<(String, MinedRules, [u64; 7]), String> {
    let mined = tr.span(names.derive, |_| {
        derive_par(db, &DeriveConfig::with_threshold(0.9), jobs)
    });
    let checked = tr.span(names.checker, |_| {
        parse_rules(rules::documented_rules())
            .map(|parsed| check_rules_par(db, &parsed, jobs))
            .map_err(|e| e.to_string())
    })?;
    let violations = tr.span(names.violation, |_| {
        find_violations_par(db, &mined, 3, jobs)
    });
    let races = tr.span(names.race, |_| find_races_par(db, jobs));
    let order = tr.span(names.order, |_| OrderGraph::build_par(db, jobs));
    let report = tr.span(names.join, |_| {
        lint(
            db,
            &LintInputs {
                mined: &mined,
                checked: &checked,
                violations: &violations,
                races: &races,
                order: &order,
                statics: None,
            },
            jobs,
        )
    });
    let text = tr.span(names.render, |_| report.render(db));
    let counts = [
        mined.groups.len() as u64,
        mined.rule_count() as u64,
        mined.groups.iter().map(|g| g.truncated_units).sum(),
        total_events(&violations),
        races.candidate_count() as u64,
        order.edges.len() as u64,
        report.findings.len() as u64,
    ];
    Ok((text, mined, counts))
}

const PASS_COUNTS: [&str; 7] = [
    "derive.groups",
    "derive.rules",
    "derive.truncated_units",
    "violation.events",
    "race.candidates",
    "order.edges",
    "lint.findings",
];

/// Cold lint at nproc and at 1 job, the archive write, the warm lint and
/// the serial derivation split.
fn lint_replay(tr: &mut Tracer, c: &Ctx, n: &mut Counts, tally: &mut Tally) -> Result<(), String> {
    let filter = rules::filter_config();
    let path = &c.inputs.lint_trace;
    let (trace, db, mined) = tr.span("lint", |tr| -> Result<_, String> {
        let trace: Trace = tr.span("codec.decode", |_| {
            let mut f = std::io::BufReader::new(fs::File::open(path).map_err(|e| e.to_string())?);
            read_trace(&mut f).map_err(|e| e.to_string())
        })?;
        let db = tr.span("db.import", |_| import(&trace, &filter, c.jobs));
        let (text, mined, counts) = passes(tr, &db, c.jobs, &NPROC)?;
        tally.check(
            text == c.exp.lint,
            "traced lint replay differs from lint output",
        );
        for (name, v) in PASS_COUNTS.iter().zip(counts) {
            n.insert(name, v as f64);
        }
        Ok((trace, db, mined))
    })?;
    n.insert("codec.events", trace.events.len() as f64);
    n.insert("db.accesses", db.accesses.len() as f64);
    n.insert("db.txns", db.txns.len() as f64);

    let db1 = tr.span("lint.j1", |tr| -> Result<TraceDb, String> {
        let db1 = tr.span("db.import.j1", |_| import(&trace, &filter, 1));
        let (text, _, counts) = passes(tr, &db1, 1, &J1)?;
        tally.check(text == c.exp.lint, "traced lint replay at 1 job differs");
        let same = PASS_COUNTS
            .iter()
            .zip(counts)
            .all(|(k, v)| n[k] == v as f64);
        tally.check(same, "pass counts differ between 1 and nproc jobs");
        Ok(db1)
    })?;
    tally.check(db1 == db, "import differs between 1 and nproc jobs");
    drop((trace, db1));
    let split = derive_split(tr, &db, n)?;
    tally.check(
        split == mined.groups,
        "serial derivation replay differs from derive_par",
    );

    let bytes = fs::read(path).map_err(|e| e.to_string())?;
    let checksum = fnv1a(&bytes);
    let fp = filter_fingerprint(&filter);
    let archive = c.work.join("traced.ldarc");
    // The program writes archives through the atomic store path (temp
    // file, fsync, rename, fsync of the directory); time that call.
    tr.span("db.archive_write", |_| {
        Vfs::real_from_env()
            .atomic_write(&archive, &write_archive(&db, checksum, fp))
            .map_err(|e| e.to_string())
    })?;
    drop(db);
    tr.span("lint.warm", |tr| -> Result<(), String> {
        let warm = tr.span("db.archive_read", |_| -> Result<TraceDb, String> {
            let bytes = fs::read(path).map_err(|e| e.to_string())?;
            let checksum = fnv1a(&bytes);
            let reader = TraceReader::new(bytes.as_slice()).map_err(|e| e.to_string())?;
            let abytes = fs::read(&archive).map_err(|e| e.to_string())?;
            read_archive(&abytes, checksum, fp, Arc::clone(reader.meta()))
                .ok_or_else(|| "archive did not load".to_owned())
        })?;
        let (text, _, _) = passes(tr, &warm, c.jobs, &WARM)?;
        tally.check(text == c.exp.lint, "traced warm lint replay differs");
        Ok(())
    })?;
    let _ = fs::remove_file(&archive);
    Ok(())
}

/// Serial replay of `derive`: matrix build, observation collection plus
/// hypothesis enumeration, and selection, each under its own span.
fn derive_split(tr: &mut Tracer, db: &TraceDb, n: &mut Counts) -> Result<Vec<GroupRules>, String> {
    let cfg = DeriveConfig::with_threshold(0.9);
    let mut hypotheses = 0u64;
    let groups = tr.span("derive.split", |tr| -> Result<Vec<GroupRules>, String> {
        let mut groups = Vec::new();
        for g in db.observation_groups() {
            let matrix = tr.span("derive.matrix", |_| AccessMatrix::build(db, g));
            let mut cache = ResolutionCache::new();
            let mut rules = Vec::new();
            let mut truncated_units = 0;
            for member in matrix.observed_members() {
                let mm = matrix
                    .member(member)
                    .ok_or("observed member without matrix")?;
                for kind in [AccessKind::Read, AccessKind::Write] {
                    let set = tr.span("derive.hypothesis", |_| {
                        let obs = observations_for_cached(db, mm, kind, &mut cache);
                        let total: u64 = obs.iter().map(|o| o.count).sum();
                        (total >= cfg.min_units && total > 0).then(|| enumerate(member, kind, &obs))
                    });
                    let Some(set) = set else { continue };
                    truncated_units += set.truncated;
                    hypotheses += set.hypotheses.len() as u64;
                    let winner = tr
                        .span("derive.select", |_| select(&set, &cfg.selection))
                        .ok_or("hypothesis set without a winner")?;
                    rules.push(MinedRule {
                        member,
                        member_name: db.member_name(matrix.data_type, member).to_owned(),
                        kind,
                        total_units: set.total,
                        winner,
                        hypotheses: set
                            .hypotheses
                            .iter()
                            .filter(|h| h.sr >= cfg.cutoff)
                            .cloned()
                            .collect(),
                    });
                }
            }
            groups.push(GroupRules {
                data_type: g.0,
                subclass: g.1,
                group_name: db.group_name(g),
                rules,
                truncated_units,
            });
        }
        Ok(groups)
    })?;
    n.insert("derive.hypotheses", hypotheses as f64);
    Ok(groups)
}

/// Corpus cold build, incremental add and warm build from the public
/// corpus calls, the per-member screen/matrix pipeline, and the serve
/// snapshot build over the grown corpus.
fn corpus_replay(
    tr: &mut Tracer,
    c: &Ctx,
    n: &mut Counts,
    tally: &mut Tally,
) -> Result<(), String> {
    let dir = c.work.join("tr-corpus");
    clear_dir(&dir);
    let store = CorpusStore::open(&dir, &dir.join(".lockdoc-cache")).map_err(|e| e.to_string())?;
    let ctx = CorpusCtx::with_store(store, 0.9, c.jobs);
    let opts = LoadOpts {
        need_matrix: true,
        need_trace: false,
    };
    let (mut total, mut reused, mut hits, mut misses) = (0usize, 0usize, 0usize, 0usize);
    let steps: [(&'static str, &[std::path::PathBuf], &str); 3] = [
        ("corpus.cold", c.inputs.base(), &c.exp.rules_base),
        ("corpus.add", c.inputs.extra_slice(), &c.exp.rules_all),
        ("corpus.warm", &[], &c.exp.rules_all),
    ];
    for (root, adds, want) in steps {
        tr.span(root, |tr| -> Result<(), String> {
            for p in adds {
                tr.span("corpus.store_add", |_| ctx.store.add(p))
                    .map_err(|e| e.to_string())?;
            }
            let members = tr
                .span("corpus.load", |_| load_corpus(&ctx, &opts))
                .map_err(|e| e.to_string())?;
            let derived = tr
                .span("corpus.derive", |_| derive_members(&ctx, &members))
                .map_err(|e| e.to_string())?;
            hits += members.iter().filter(|m| m.cached).count();
            misses += members.iter().filter(|m| !m.cached).count();
            total += derived.groups_total;
            reused += derived.groups_reused;
            let text = render_rules_text(&derived.rules, false);
            tally.check(
                text == want,
                &format!("traced {root} rules differ from the corpus command"),
            );
            Ok(())
        })?;
    }
    n.insert("corpus.groups_total", total as f64);
    n.insert("corpus.groups_reused", reused as f64);
    n.insert("corpus.reuse_ratio", reused as f64 / total.max(1) as f64);
    n.insert("corpus.matrix_hits", hits as f64);
    n.insert("corpus.matrix_misses", misses as f64);

    let derive_fp = derive_fingerprint(&ctx.config);
    let mtx = c.work.join("traced.ldmtx");
    tr.span("corpus.member", |tr| -> Result<(), String> {
        for p in &c.inputs.members {
            let bytes = fs::read(p).map_err(|e| e.to_string())?;
            let checksum = fnv1a(&bytes);
            let (trace, _) = tr.span("corpus.screen", |_| {
                screen_trace(&bytes, &ctx.filter, c.jobs)
            });
            let trace = trace.ok_or("member is unreadable")?;
            let db = tr.span("corpus.import", |_| import(&trace, &ctx.filter, c.jobs));
            let matrix = tr.span("corpus.matrix_build", |_| build_trace_matrix(&db, c.jobs));
            let back = tr.span("corpus.matrix_io", |_| -> Result<_, String> {
                let out = write_matrix_artifact(&matrix, checksum, ctx.filter_fp, derive_fp);
                let vfs = ctx.store.vfs();
                vfs.atomic_write(&mtx, &out).map_err(|e| e.to_string())?;
                let bytes = vfs.read(&mtx).map_err(|e| e.to_string())?;
                Ok(read_matrix_artifact(
                    &bytes,
                    checksum,
                    ctx.filter_fp,
                    derive_fp,
                ))
            })?;
            tally.check(
                back.as_ref() == Some(&matrix),
                "LDMATX artifact does not round-trip",
            );
        }
        Ok(())
    })?;
    let _ = fs::remove_file(&mtx);

    tr.span("serve.snapshot", |tr| -> Result<(), String> {
        let all = LoadOpts {
            need_matrix: true,
            need_trace: true,
        };
        let mut members = tr
            .span("serve.load", |_| load_corpus(&ctx, &all))
            .map_err(|e| e.to_string())?;
        let derived = tr
            .span("serve.derive", |_| derive_members(&ctx, &members))
            .map_err(|e| e.to_string())?;
        let traces: Vec<Trace> = members.iter_mut().filter_map(|m| m.trace.take()).collect();
        let merged = tr
            .span("merge.concat", |_| concat_traces_corpus(traces))
            .map_err(|e| e.to_string())?;
        let db = tr.span("serve.import", |_| import(&merged, &ctx.filter, c.jobs));
        let mined = derived.rules;
        let (races, report, order) = tr.span("serve.passes", |_| -> Result<_, String> {
            let parsed = parse_rules(rules::documented_rules()).map_err(|e| e.to_string())?;
            let checked = check_rules_par(&db, &parsed, c.jobs);
            let violations = find_violations_par(&db, &mined, 3, c.jobs);
            let races = find_races_par(&db, c.jobs);
            let order = OrderGraph::build_par(&db, c.jobs);
            let report = lint(
                &db,
                &LintInputs {
                    mined: &mined,
                    checked: &checked,
                    violations: &violations,
                    races: &races,
                    order: &order,
                    statics: None,
                },
                c.jobs,
            );
            Ok((races, report, order))
        })?;
        let texts = tr.span("serve.render", |_| {
            [
                render_rules_text(&mined, false),
                races.render(&db),
                report.render(&db),
                order.report(&db),
            ]
        });
        tally.check(
            texts == c.exp.serve,
            "traced serve snapshot differs from the batch renders",
        );
        Ok(())
    })?;
    n.insert("corpus.cache_write_errors", ctx.cache_write_errors() as f64);
    clear_dir(&dir);
    Ok(())
}

/// A scripted daemon session (queries, then the add, then queries, one
/// connection) so its counts repeat exactly.
fn serve_replay(tr: &mut Tracer, c: &Ctx, n: &mut Counts, tally: &mut Tally) -> Result<(), String> {
    let dir = c.work.join("tr-serve");
    clear_dir(&dir);
    copy_tree(&c.exp.base_corpus, &dir).map_err(|e| e.to_string())?;
    let s = tr.span("serve.session", |tr| -> Result<_, String> {
        let s = session(&dir, c, false)?;
        tr.record("serve.ready", s.ready_at.0, s.ready_at.1);
        tr.record("serve.add", s.add_at.0, s.add_at.1);
        Ok(s)
    })?;
    clear_dir(&dir);
    tally.count(
        s.latencies_ms.len() as u64 + 3,
        s.errors + s.shed,
        "traced serve: error or shed responses",
    );
    tally.check(
        s.mismatches.is_empty(),
        "traced serve answers differ from batch",
    );
    n.insert("serve.queries", s.latencies_ms.len() as f64 + 1.0);
    n.insert("serve.shed", s.shed as f64);
    n.insert("serve.errors", s.errors as f64);
    Ok(())
}

/// `analyze_tree` split into its three stages, plus the 1-job run.
fn static_replay(tr: &mut Tracer, c: &Ctx, n: &mut Counts, tally: &mut Tally) {
    let cfg = MinerConfig::default();
    let files = &c.inputs.src_files;
    let report = tr.span("static.analyze", |tr| {
        let program = tr.span("static.parse", |_| ast::parse_tree(files, c.jobs));
        let obs = tr.span("static.lockstate", |_| {
            collect_observations(&program, &cfg.analysis, c.jobs)
        });
        let (patterns, findings) = tr.span("static.outlier", |_| mine_outliers(&obs, &cfg, c.jobs));
        StaticReport {
            files: program.files.len() as u64,
            functions: program.function_count() as u64,
            sites: obs.len() as u64,
            patterns,
            findings,
        }
    });
    tally.check(
        report == c.exp.static_report,
        "traced static replay differs",
    );
    let serial = tr.span("static.analyze.j1", |_| analyze_tree(files, &cfg, 1));
    tally.check(
        serial == c.exp.static_report,
        "static report at 1 job differs",
    );
    let (planted, _, matched) = score(&report, &c.inputs.planted);
    n.insert("static.files", report.files as f64);
    n.insert("static.functions", report.functions as f64);
    n.insert("static.sites", report.sites as f64);
    n.insert("static.findings", report.findings.len() as f64);
    n.insert("static.planted", planted as f64);
    n.insert("static.matched", matched as f64);
}

/// One traced cycle over every layer; returns its counts.
pub fn cycle(tr: &mut Tracer, c: &Ctx, tally: &mut Tally) -> Result<Counts, String> {
    let mut n = Counts::new();
    lint_replay(tr, c, &mut n, tally)?;
    corpus_replay(tr, c, &mut n, tally)?;
    serve_replay(tr, c, &mut n, tally)?;
    static_replay(tr, c, &mut n, tally);
    Ok(n)
}
