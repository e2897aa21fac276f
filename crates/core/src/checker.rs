//! The locking-rule checker (paper Sec. 5.5, evaluated in Sec. 7.3):
//! validates *documented* locking rules against the observed trace.
//!
//! Each documented rule is treated as a hypothesis; its absolute and
//! relative support are computed over the relevant observation units, and
//! the rule is classified as **correct** (`sr = 1`), **ambivalent**
//! (`0 < sr < 1`), or **incorrect** (`sr = 0`). Members the benchmark never
//! touched are reported as **not observed** (the `#No` column of Tab. 4).

use crate::hypothesis::{complies, observations_for_cached, ResolutionCache};
use crate::lockset::DescriptorTable;
use crate::matrix::AccessMatrix;
use crate::rulespec::RuleSpec;
use lockdoc_platform::par::{chunks_for, par_map};
use lockdoc_trace::db::TraceDb;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Classification of a documented rule against the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every observation complied (`sr = 1`).
    Correct,
    /// Some observations complied (`0 < sr < 1`).
    Ambivalent,
    /// No observation complied (`sr = 0`).
    Incorrect,
    /// The member was never accessed by the workload.
    NotObserved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Verdict::Correct => "correct",
            Verdict::Ambivalent => "ambivalent",
            Verdict::Incorrect => "incorrect",
            Verdict::NotObserved => "not observed",
        };
        f.write_str(s)
    }
}

/// The check result for one documented rule.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckedRule {
    /// The documented rule under test.
    pub rule: RuleSpec,
    /// Observation units complying with the rule.
    pub sa: u64,
    /// Total observation units for the member/kind.
    pub total: u64,
    /// Relative support (`sa / total`, 0 when unobserved).
    pub sr: f64,
    /// Classification.
    pub verdict: Verdict,
}

/// Checks documented rules against the trace.
///
/// A rule without a subclass restriction is checked against the combined
/// observations of *all* subclasses of its type (Linux documentation is
/// type-wide); a subclassed rule (e.g. `inode:ext4`) only against that
/// subclass.
pub fn check_rules(db: &TraceDb, rules: &[RuleSpec]) -> Vec<CheckedRule> {
    check_rules_par(db, rules, 1)
}

/// [`check_rules`] sharded across `jobs` workers: matrices build in
/// parallel per observation group, then contiguous rule chunks are checked
/// in parallel with a per-chunk [`ResolutionCache`] over one shared
/// descriptor table. Results are identical to the serial path at any
/// worker count (`jobs = 1` is one chunk with one cache — the exact
/// serial path).
pub fn check_rules_par(db: &TraceDb, rules: &[RuleSpec], jobs: usize) -> Vec<CheckedRule> {
    // Build matrices once per observation group.
    let groups = db.observation_groups();
    let matrices: Vec<(usize, AccessMatrix)> =
        par_map(jobs, &groups, |&g| AccessMatrix::build(db, g))
            .into_iter()
            .enumerate()
            .collect();

    let chunks = chunks_for(jobs, rules);
    let table = Arc::new(DescriptorTable::build(db));
    let parts = par_map(jobs, &chunks, |chunk| {
        let mut cache = ResolutionCache::with_table(Arc::clone(&table));
        chunk
            .iter()
            .map(|rule| check_one_rule(db, &groups, &matrices, rule, &mut cache))
            .collect::<Vec<_>>()
    });
    parts.into_iter().flatten().collect()
}

/// Checks a single documented rule against every matching observation
/// group.
fn check_one_rule(
    db: &TraceDb,
    groups: &[(
        lockdoc_trace::ids::DataTypeId,
        Option<lockdoc_trace::ids::Sym>,
    )],
    matrices: &[(usize, AccessMatrix)],
    rule: &RuleSpec,
    cache: &mut ResolutionCache,
) -> CheckedRule {
    let mut sa = 0u64;
    let mut total = 0u64;
    for (gi, matrix) in matrices {
        let group = groups[*gi];
        if db.type_name(group.0) != rule.type_name {
            continue;
        }
        if let Some(want) = &rule.subclass {
            let got = group.1.map(|s| db.sym(s));
            if got != Some(want.as_str()) {
                continue;
            }
        }
        let def = db.data_type(group.0);
        let Some(member_idx) = def.member_named(&rule.member) else {
            continue;
        };
        let Some(mm) = matrix.member(member_idx as u32) else {
            continue;
        };
        for obs in observations_for_cached(db, mm, rule.kind, cache) {
            total += obs.count;
            if complies(&obs.locks, &rule.locks) {
                sa += obs.count;
            }
        }
    }
    let (sr, verdict) = if total == 0 {
        (0.0, Verdict::NotObserved)
    } else {
        let sr = sa as f64 / total as f64;
        let v = if sa == total {
            Verdict::Correct
        } else if sa == 0 {
            Verdict::Incorrect
        } else {
            Verdict::Ambivalent
        };
        (sr, v)
    };
    CheckedRule {
        rule: rule.clone(),
        sa,
        total,
        sr,
        verdict,
    }
}

/// Per-data-type summary of checked rules (one row of paper Tab. 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TypeCheckSummary {
    /// Data type name.
    pub type_name: String,
    /// Total documented rules (`#R`).
    pub rules: usize,
    /// Rules whose member was never observed (`#No`).
    pub not_observed: usize,
    /// Rules with observations (`#Ob`).
    pub observed: usize,
    /// Fraction of observed rules that are correct (percent).
    pub pct_correct: f64,
    /// Fraction ambivalent (percent).
    pub pct_ambivalent: f64,
    /// Fraction incorrect (percent).
    pub pct_incorrect: f64,
}

/// Aggregates checked rules into per-type summaries (paper Tab. 4).
pub fn summarize(checked: &[CheckedRule]) -> Vec<TypeCheckSummary> {
    let mut per_type: BTreeMap<&str, Vec<&CheckedRule>> = BTreeMap::new();
    for c in checked {
        per_type.entry(&c.rule.type_name).or_default().push(c);
    }
    per_type
        .into_iter()
        .map(|(type_name, rules)| {
            let not_observed = rules
                .iter()
                .filter(|c| c.verdict == Verdict::NotObserved)
                .count();
            let observed = rules.len() - not_observed;
            let count = |v: Verdict| rules.iter().filter(|c| c.verdict == v).count();
            let pct = |n: usize| {
                if observed == 0 {
                    0.0
                } else {
                    100.0 * n as f64 / observed as f64
                }
            };
            TypeCheckSummary {
                type_name: type_name.to_owned(),
                rules: rules.len(),
                not_observed,
                observed,
                pct_correct: pct(count(Verdict::Correct)),
                pct_ambivalent: pct(count(Verdict::Ambivalent)),
                pct_incorrect: pct(count(Verdict::Incorrect)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::clock_db;
    use crate::rulespec::parse_rules;

    fn checked(rules_text: &str) -> Vec<CheckedRule> {
        let db = clock_db(1000, 1);
        let rules = parse_rules(rules_text).unwrap();
        check_rules(&db, &rules)
    }

    #[test]
    fn correct_rule_gets_full_support() {
        let c = checked("clock.seconds:w = sec_lock");
        assert_eq!(c[0].verdict, Verdict::Correct);
        assert_eq!(c[0].sa, c[0].total);
    }

    #[test]
    fn rule_violated_by_faulty_run_is_ambivalent() {
        let c = checked("clock.minutes:w = sec_lock -> min_lock");
        assert_eq!(c[0].verdict, Verdict::Ambivalent);
        assert_eq!(c[0].total, 17);
        assert_eq!(c[0].sa, 16);
        assert!((c[0].sr - 16.0 / 17.0).abs() < 1e-9);
    }

    #[test]
    fn wrong_order_rule_is_incorrect() {
        let c = checked("clock.minutes:w = min_lock -> sec_lock");
        assert_eq!(c[0].verdict, Verdict::Incorrect);
        assert_eq!(c[0].sa, 0);
    }

    #[test]
    fn unobserved_member_is_reported() {
        // Reads of minutes are folded into write units (WoR), so a read rule
        // has no observations.
        let c = checked("clock.minutes:r = min_lock");
        assert_eq!(c[0].verdict, Verdict::NotObserved);
    }

    #[test]
    fn summary_counts_tab4_columns() {
        let c = checked(
            "clock.seconds:w = sec_lock\n\
             clock.minutes:w = sec_lock -> min_lock\n\
             clock.minutes:w = min_lock -> sec_lock\n\
             clock.minutes:r = min_lock\n",
        );
        let s = summarize(&c);
        assert_eq!(s.len(), 1);
        let row = &s[0];
        assert_eq!(row.rules, 4);
        assert_eq!(row.not_observed, 1);
        assert_eq!(row.observed, 3);
        assert!((row.pct_correct - 100.0 / 3.0).abs() < 1e-9);
        assert!((row.pct_ambivalent - 100.0 / 3.0).abs() < 1e-9);
        assert!((row.pct_incorrect - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_member_counts_as_not_observed() {
        let c = checked("clock.does_not_exist:w = sec_lock");
        assert_eq!(c[0].verdict, Verdict::NotObserved);
    }

    #[test]
    fn parallel_checking_matches_serial_exactly() {
        let db = clock_db(1000, 1);
        let rules = parse_rules(
            "clock.seconds:w = sec_lock\n\
             clock.minutes:w = sec_lock -> min_lock\n\
             clock.minutes:w = min_lock -> sec_lock\n\
             clock.minutes:r = min_lock\n\
             clock.does_not_exist:w = sec_lock\n",
        )
        .unwrap();
        let serial = check_rules(&db, &rules);
        for jobs in [2, 3, 4, 16] {
            assert_eq!(check_rules_par(&db, &rules, jobs), serial, "jobs = {jobs}");
        }
    }
}
