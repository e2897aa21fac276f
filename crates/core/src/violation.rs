//! The rule-violation finder (paper Sec. 5.5, evaluated in Sec. 7.5):
//! locates memory accesses that contradict the mined locking rules and
//! reports everything a developer needs to investigate — member, required
//! locks, actually held locks, source location, and stack trace.

use crate::derive::{GroupRules, MinedRule, MinedRules};
use crate::hypothesis::{complies, ResolutionCache};
use crate::lockset::{DescriptorTable, LockDescriptor};
use lockdoc_platform::hash::{FastMap, FastSet};
use lockdoc_platform::par::par_map;
use lockdoc_trace::db::TraceDb;
use lockdoc_trace::event::{AccessKind, SourceLoc};
use lockdoc_trace::ids::{AllocId, StackId, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One rule-violating memory access.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationEvent {
    /// Observation group, e.g. `inode:ext4`.
    pub group_name: String,
    /// Violated member.
    pub member_name: String,
    /// Access kind.
    pub kind: AccessKind,
    /// The locks the mined rule requires.
    pub required: Vec<LockDescriptor>,
    /// The locks actually held (in acquisition order).
    pub held: Vec<LockDescriptor>,
    /// Source location of the access.
    pub loc: SourceLoc,
    /// Stack trace id (resolve via [`TraceDb::format_stack`]).
    pub stack: StackId,
    /// Row id of the offending access.
    pub access_id: u64,
}

/// Per-member, per-kind violation tallies (consumed by the consistency
/// lint, [`crate::lint`], to join violations with race reports).
#[derive(Debug, Clone, PartialEq)]
pub struct MemberViolationCounts {
    /// Member name.
    pub member_name: String,
    /// Access kind of the violated rule.
    pub kind: AccessKind,
    /// Violating events of this member/kind.
    pub events: u64,
    /// How many of them ran in an interrupt-like context.
    pub irq_events: u64,
}

/// Violation summary for one observation group (one row of paper Tab. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupViolations {
    /// Group name.
    pub group_name: String,
    /// Total violating access events.
    pub events: u64,
    /// Distinct members involved.
    pub members: BTreeSet<String>,
    /// Distinct contexts: `(source location, stack trace)` pairs.
    pub contexts: BTreeSet<(SourceLoc, StackId)>,
    /// Per-member, per-kind tallies, ordered by member name then kind.
    pub per_member: Vec<MemberViolationCounts>,
    /// Example events (capped by the `max_examples` argument).
    pub examples: Vec<ViolationEvent>,
}

impl GroupViolations {
    /// Number of distinct contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }
}

/// Scans the trace for accesses violating the mined rules.
///
/// Only rules that require locks can be violated; the scan checks every
/// access of a ruled member/kind for order-preserving compliance
/// (paper Sec. 5.4) and collects per-group summaries. `max_examples`
/// bounds the number of fully materialized example events per group.
pub fn find_violations(
    db: &TraceDb,
    mined: &MinedRules,
    max_examples: usize,
) -> Vec<GroupViolations> {
    find_violations_par(db, mined, max_examples, 1)
}

/// [`find_violations`] sharded across `jobs` workers, one shard per
/// observation group. Allocations belong to exactly one group, so per-group
/// resolution caches lose no sharing, and the ordered fan-out keeps the
/// group order (and therefore the report) identical at any worker count.
pub fn find_violations_par(
    db: &TraceDb,
    mined: &MinedRules,
    max_examples: usize,
    jobs: usize,
) -> Vec<GroupViolations> {
    let table = Arc::new(DescriptorTable::build(db));
    par_map(jobs, &mined.groups, |group_rules| {
        scan_group(db, &table, group_rules, max_examples)
    })
}

/// Stands for a required descriptor no lock of the trace resolves to: it
/// is never held, so a rule naming it is never complied with.
const NEVER_HELD: u32 = u32::MAX;

/// Scans one observation group for accesses violating its mined rules,
/// with a group-local `(txn, alloc)` resolution cache. Compliance runs on
/// descriptor ids; only the materialized examples carry descriptors.
fn scan_group(
    db: &TraceDb,
    table: &Arc<DescriptorTable>,
    group_rules: &GroupRules,
    max_examples: usize,
) -> GroupViolations {
    let group = (group_rules.data_type, group_rules.subclass);
    let mut cache = ResolutionCache::with_table(Arc::clone(table));
    // (member idx, kind) -> required lock ids and the rule, for rules with
    // locks.
    let ruled: FastMap<(u32, AccessKind), (Vec<u32>, &MinedRule)> = group_rules
        .rules
        .iter()
        .filter(|r| !r.winner.hypothesis.locks.is_empty())
        .map(|r| {
            let locks = r.winner.hypothesis.locks.iter();
            let ids = locks.map(|d| table.id_of(d).unwrap_or(NEVER_HELD));
            ((r.member, r.kind), (ids.collect(), r))
        })
        .collect();
    let mut gv = GroupViolations {
        group_name: group_rules.group_name.clone(),
        events: 0,
        members: BTreeSet::new(),
        contexts: BTreeSet::new(),
        per_member: Vec::new(),
        examples: Vec::new(),
    };
    // Keyed by borrowed member names; owned only when the group is done.
    let mut tallies: BTreeMap<(&str, AccessKind), (u64, u64)> = BTreeMap::new();
    let mut members: BTreeSet<&str> = BTreeSet::new();
    if !ruled.is_empty() {
        // Write-over-read folding (paper Sec. 4.2) applies to the scan
        // as well: a read inside a unit that also writes the member is
        // covered by the write rule (checked via the unit's writes),
        // so it must not be reported against the read rule.
        let written_units: FastSet<(TxnId, AllocId, u32)> = db
            .group_accesses(group)
            .filter(|a| a.kind == AccessKind::Write)
            .filter_map(|a| a.txn.map(|t| (t, a.alloc, a.member)))
            .collect();
        for access in db.group_accesses(group) {
            let Some((required, rule)) = ruled.get(&(access.member, access.kind)) else {
                continue;
            };
            let Some(txn_id) = access.txn else { continue };
            if access.kind == AccessKind::Read
                && written_units.contains(&(txn_id, access.alloc, access.member))
            {
                continue;
            }
            let held = cache.resolve(db, (txn_id, access.alloc));
            if complies(cache.sequence(held), required) {
                continue;
            }
            gv.events += 1;
            let member_name = db.member_name(access.data_type, access.member);
            let tally = tallies.entry((member_name, access.kind)).or_default();
            tally.0 += 1;
            if access.context != lockdoc_trace::event::ContextKind::Task {
                tally.1 += 1;
            }
            members.insert(member_name);
            gv.contexts.insert((access.loc, access.stack));
            if gv.examples.len() < max_examples {
                gv.examples.push(ViolationEvent {
                    group_name: gv.group_name.clone(),
                    member_name: member_name.to_owned(),
                    kind: access.kind,
                    required: rule.winner.hypothesis.locks.clone(),
                    held: table.descriptors(cache.sequence(held)),
                    loc: access.loc,
                    stack: access.stack,
                    access_id: access.id,
                });
            }
        }
    }
    gv.members = members.into_iter().map(str::to_owned).collect();
    gv.per_member = tallies
        .into_iter()
        .map(
            |((member_name, kind), (events, irq_events))| MemberViolationCounts {
                member_name: member_name.to_owned(),
                kind,
                events,
                irq_events,
            },
        )
        .collect();
    gv
}

/// Total number of violating events across all groups.
pub fn total_events(violations: &[GroupViolations]) -> u64 {
    violations.iter().map(|v| v.events).sum()
}

/// Total number of distinct contexts across all groups.
pub fn total_contexts(violations: &[GroupViolations]) -> usize {
    violations.iter().map(|v| v.context_count()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::clock_db;
    use crate::derive::{derive, DeriveConfig};

    /// The per-access string loop as it was before descriptor ids, kept as
    /// a naive reference: it filters the whole access table per group and
    /// resolves every access's held locks to descriptors from scratch.
    fn find_violations_reference(
        db: &TraceDb,
        mined: &MinedRules,
        max_examples: usize,
    ) -> Vec<GroupViolations> {
        use crate::lockset::resolve_txn_locks;
        mined
            .groups
            .iter()
            .map(|group_rules| {
                let group = (group_rules.data_type, group_rules.subclass);
                let rows = || {
                    db.accesses
                        .iter()
                        .filter(move |a| (a.data_type, a.subclass) == group)
                };
                let written: BTreeSet<(TxnId, AllocId, u32)> = rows()
                    .filter(|a| a.kind == AccessKind::Write)
                    .filter_map(|a| a.txn.map(|t| (t, a.alloc, a.member)))
                    .collect();
                let mut gv = GroupViolations {
                    group_name: group_rules.group_name.clone(),
                    events: 0,
                    members: BTreeSet::new(),
                    contexts: BTreeSet::new(),
                    per_member: Vec::new(),
                    examples: Vec::new(),
                };
                let mut tallies: BTreeMap<(String, AccessKind), (u64, u64)> = BTreeMap::new();
                for access in rows() {
                    let rule = group_rules.rules.iter().find(|r| {
                        r.member == access.member
                            && r.kind == access.kind
                            && !r.winner.hypothesis.locks.is_empty()
                    });
                    let (Some(rule), Some(txn_id)) = (rule, access.txn) else {
                        continue;
                    };
                    if access.kind == AccessKind::Read
                        && written.contains(&(txn_id, access.alloc, access.member))
                    {
                        continue;
                    }
                    let lock_ids: Vec<_> = db.txn(txn_id).locks.iter().map(|h| h.lock).collect();
                    let held = resolve_txn_locks(db, access.alloc, &lock_ids);
                    let required = &rule.winner.hypothesis.locks;
                    if complies(&held, required) {
                        continue;
                    }
                    gv.events += 1;
                    let member_name = db.member_name(access.data_type, access.member).to_owned();
                    let tally = tallies
                        .entry((member_name.clone(), access.kind))
                        .or_default();
                    tally.0 += 1;
                    if access.context != lockdoc_trace::event::ContextKind::Task {
                        tally.1 += 1;
                    }
                    gv.members.insert(member_name.clone());
                    gv.contexts.insert((access.loc, access.stack));
                    if gv.examples.len() < max_examples {
                        gv.examples.push(ViolationEvent {
                            group_name: gv.group_name.clone(),
                            member_name,
                            kind: access.kind,
                            required: required.clone(),
                            held,
                            loc: access.loc,
                            stack: access.stack,
                            access_id: access.id,
                        });
                    }
                }
                gv.per_member = tallies
                    .into_iter()
                    .map(
                        |((member_name, kind), (events, irq_events))| MemberViolationCounts {
                            member_name,
                            kind,
                            events,
                            irq_events,
                        },
                    )
                    .collect();
                gv
            })
            .collect()
    }

    /// The id-based, index-driven scan equals the naive reference on
    /// random multi-flow traces, serially and sharded: examples, tallies
    /// and contexts alike. Rules are mined at a low threshold so most
    /// members carry a lock rule, and each case is also scanned against
    /// rules that additionally require a lock the trace never holds.
    #[test]
    fn violation_scan_matches_naive_reference() {
        use crate::derive::{derive_par, DeriveConfig};
        use lockdoc_platform::prop::{self, vec_of};
        use lockdoc_platform::prop_assert_eq;
        use lockdoc_platform::rng::Rng;
        use lockdoc_trace::filter::FilterConfig;
        use lockdoc_trace::testgen::{build_multiflow_trace, flow_op_gen};
        let cfg = prop::Config {
            cases: 60,
            ..prop::Config::from_env()
        };
        let gen = |rng: &mut Rng| vec_of(rng, 0..400, flow_op_gen);
        prop::check_with(&cfg, "violation_scan_matches_naive_reference", gen, |ops| {
            let db = lockdoc_trace::db::import(
                &build_multiflow_trace(ops),
                &FilterConfig::with_defaults(),
                1,
            );
            let mined = derive_par(&db, &DeriveConfig::with_threshold(0.3), 1);
            let mut unheld = mined.clone();
            for rule in unheld.groups.iter_mut().flat_map(|g| &mut g.rules) {
                rule.winner
                    .hypothesis
                    .locks
                    .push(LockDescriptor::global("never_held"));
            }
            for rules in [&mined, &unheld] {
                let reference = find_violations_reference(&db, rules, 3);
                for jobs in [1usize, 4] {
                    prop_assert_eq!(
                        &find_violations_par(&db, rules, 3, jobs),
                        &reference,
                        "violations differ at jobs = {}",
                        jobs
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn finds_the_injected_clock_bug() {
        let db = clock_db(1000, 1);
        let mined = derive(&db, &DeriveConfig::default());
        let violations = find_violations(&db, &mined, 10);
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        // The faulty run writes minutes without min_lock. The read of
        // minutes in the same transaction carries no read rule (it was
        // folded into the write unit), so exactly one event is flagged.
        assert_eq!(v.events, 1);
        assert!(v.members.contains("minutes"));
        let ex = &v.examples[0];
        assert_eq!(ex.required.len(), 2);
        assert_eq!(ex.held.len(), 1);
        assert_eq!(db.format_stack(ex.stack), "clock_tick_buggy");
    }

    #[test]
    fn clean_trace_has_no_violations() {
        let db = clock_db(600, 0);
        let mined = derive(&db, &DeriveConfig::default());
        let violations = find_violations(&db, &mined, 10);
        assert_eq!(total_events(&violations), 0);
        assert_eq!(total_contexts(&violations), 0);
    }

    #[test]
    fn parallel_scan_matches_serial_exactly() {
        let db = clock_db(2000, 3);
        let mined = derive(&db, &DeriveConfig::default());
        let serial = find_violations(&db, &mined, 5);
        for jobs in [2, 4, 8] {
            assert_eq!(
                find_violations_par(&db, &mined, 5, jobs),
                serial,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn example_cap_limits_materialized_events() {
        // 10000 iterations -> 166 correct roll-overs; 5 faulty runs keep the
        // two-lock rule above the 0.9 threshold (sr = 166/171) while
        // producing 5 violations.
        let db = clock_db(10_000, 5);
        let mined = derive(&db, &DeriveConfig::default());
        let violations = find_violations(&db, &mined, 3);
        let v = &violations[0];
        assert_eq!(v.events, 5);
        assert_eq!(v.examples.len(), 3);
    }
}
