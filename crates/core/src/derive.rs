//! The locking-rule derivator (paper Sec. 5.4): end-to-end rule mining over
//! an imported trace.
//!
//! For every observation group `(data type, subclass)` and every observed
//! member, the derivator builds the access matrix, aggregates observations
//! per access kind (after write-over-read folding), enumerates hypotheses,
//! and selects a winner per the configured strategy.
//!
//! Derivation is embarrassingly parallel per `(group, member)` — the
//! paper's phases share nothing across members once the access matrix is
//! built. [`derive_par`] shards the work across
//! [`lockdoc_platform::par::par_map_init`]: matrices build in parallel per
//! group, then member chunks run `observations_for` → `enumerate` →
//! `select` with a *per-worker* [`ResolutionCache`] reused across every
//! shard that worker processes (a unit's resolved lock sequence is the
//! same in whichever shard asks, so sharing is invisible in the output),
//! and the merged rules are stably sorted by member so the output is
//! byte-identical at any worker count (`jobs = 1` is the exact serial
//! path: one cache, every shard).

use crate::hypothesis::{enumerate, observations_for_cached, Hypothesis, ResolutionCache};
use crate::lockset::DescriptorTable;
use crate::matrix::AccessMatrix;
use crate::select::{select, SelectionConfig, Winner};
use lockdoc_platform::par::{chunks_for, par_map, par_map_init};
use lockdoc_trace::db::TraceDb;
use lockdoc_trace::event::AccessKind;
use lockdoc_trace::ids::{DataTypeId, Sym};
use std::sync::Arc;

/// Derivation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeriveConfig {
    /// Winner-selection parameters (threshold `t_ac` and strategy).
    pub selection: SelectionConfig,
    /// Cut-off threshold `t_co`: hypotheses below this relative support are
    /// omitted from reports (they are still considered during selection).
    pub cutoff: f64,
    /// Minimum number of observation units required to emit a rule at all;
    /// members observed fewer times produce no rule (paper: members never
    /// triggered by the benchmark are reported as "not observed").
    pub min_units: u64,
}

impl Default for DeriveConfig {
    fn default() -> Self {
        Self {
            selection: SelectionConfig::default(),
            cutoff: 0.05,
            min_units: 1,
        }
    }
}

impl DeriveConfig {
    /// LockDoc defaults with a custom accept threshold.
    pub fn with_threshold(t_ac: f64) -> Self {
        Self {
            selection: SelectionConfig::with_threshold(t_ac),
            ..Self::default()
        }
    }
}

/// The mined rule for one `(member, access kind)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedRule {
    /// Member index in the type layout.
    pub member: u32,
    /// Member name (denormalized for reporting).
    pub member_name: String,
    /// Access kind.
    pub kind: AccessKind,
    /// Number of observation units (the `sr` denominator).
    pub total_units: u64,
    /// The selected winning hypothesis.
    pub winner: Winner,
    /// All hypotheses with relative support at or above the cut-off,
    /// sorted by descending support.
    pub hypotheses: Vec<Hypothesis>,
}

/// All mined rules of one observation group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRules {
    /// The data type.
    pub data_type: DataTypeId,
    /// Subclass discriminator.
    pub subclass: Option<Sym>,
    /// Display name, e.g. `inode:ext4`.
    pub group_name: String,
    /// Rules per observed member and kind, ordered by member then kind.
    pub rules: Vec<MinedRule>,
    /// Sum over this group's hypothesis sets of the observation units whose
    /// held-lock sequence exceeded the enumeration cap (see
    /// [`crate::hypothesis::MAX_SEQ_LEN`]): their evidence is kept in full,
    /// but hypotheses longer than the cap were not enumerated for them.
    pub truncated_units: u64,
}

impl GroupRules {
    /// Finds the rule for a member name and access kind.
    pub fn rule_for(&self, member_name: &str, kind: AccessKind) -> Option<&MinedRule> {
        self.rules
            .iter()
            .find(|r| r.member_name == member_name && r.kind == kind)
    }

    /// Count of rules whose winner is "no lock needed".
    pub fn no_lock_count(&self, kind: AccessKind) -> usize {
        self.rules
            .iter()
            .filter(|r| r.kind == kind && r.winner.is_no_lock())
            .count()
    }

    /// Count of rules for an access kind.
    pub fn rule_count(&self, kind: AccessKind) -> usize {
        self.rules.iter().filter(|r| r.kind == kind).count()
    }

    /// Distinct members with at least one mined rule. Rules are ordered
    /// by member, so counting ascents is enough.
    pub fn observed_member_count(&self) -> usize {
        let mut count = 0;
        let mut last = None;
        for rule in &self.rules {
            if last != Some(rule.member) {
                count += 1;
                last = Some(rule.member);
            }
        }
        count
    }
}

/// The full result of a derivation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedRules {
    /// Per-group rule sets, in deterministic group order.
    pub groups: Vec<GroupRules>,
    /// The configuration used.
    pub config: DeriveConfig,
}

impl MinedRules {
    /// Finds a group by display name (e.g. `inode:ext4`).
    pub fn group(&self, name: &str) -> Option<&GroupRules> {
        self.groups.iter().find(|g| g.group_name == name)
    }

    /// Total number of mined rules across all groups.
    pub fn rule_count(&self) -> usize {
        self.groups.iter().map(|g| g.rules.len()).sum()
    }

    /// Distinct members with at least one mined rule, summed over groups.
    pub fn observed_member_count(&self) -> usize {
        self.groups
            .iter()
            .map(GroupRules::observed_member_count)
            .sum()
    }

    /// Rule-relevant members declared by the observed groups' type
    /// layouts (lock and atomic members are excluded: the import filter
    /// drops their accesses, so they can never be observed). The
    /// difference to [`Self::observed_member_count`] is the
    /// zero-observation count the fuzzing feedback signal minimizes.
    pub fn declared_member_count(&self, db: &TraceDb) -> usize {
        self.groups
            .iter()
            .map(|g| {
                db.data_type(g.data_type)
                    .members
                    .iter()
                    .filter(|m| !m.is_lock && !m.atomic)
                    .count()
            })
            .sum()
    }

    /// Declared-but-never-observed members across all groups (the
    /// paper's "not observed" rows; dark signal for the fuzzer).
    pub fn zero_observation_member_count(&self, db: &TraceDb) -> usize {
        self.declared_member_count(db)
            .saturating_sub(self.observed_member_count())
    }
}

/// Derives rules for a single observation group (serial path).
pub fn derive_group(
    db: &TraceDb,
    group: (DataTypeId, Option<Sym>),
    config: &DeriveConfig,
) -> GroupRules {
    let matrix = AccessMatrix::build(db, group);
    let (rules, truncated_units) = rules_from_matrix(db, &matrix, config, 1);
    GroupRules {
        data_type: group.0,
        subclass: group.1,
        group_name: db.group_name(group),
        rules,
        truncated_units,
    }
}

/// Derives the rules (and truncation count) for a chunk of observed
/// members of one matrix. This is the unit of parallel work: chunks share
/// nothing except the caller's [`ResolutionCache`] — a unit's resolved
/// held-lock sequence is a pure function of the store, so the cache may be
/// reused across any number of shards (and is, per worker) without
/// affecting a single output byte.
fn rules_for_members(
    db: &TraceDb,
    matrix: &AccessMatrix,
    members: &[u32],
    config: &DeriveConfig,
    cache: &mut ResolutionCache,
) -> (Vec<MinedRule>, u64) {
    let mut rules = Vec::new();
    let mut truncated_units = 0u64;
    for &member in members {
        let mm = matrix.member(member).expect("member is observed");
        for kind in [AccessKind::Read, AccessKind::Write] {
            let observations = observations_for_cached(db, mm, kind, cache);
            let total: u64 = observations.iter().map(|o| o.count).sum();
            if total < config.min_units || total == 0 {
                continue;
            }
            let set = enumerate(member, kind, &observations);
            truncated_units += set.truncated;
            let winner =
                select(&set, &config.selection).expect("enumerated sets always have a winner");
            let hypotheses = set
                .hypotheses
                .iter()
                .filter(|h| h.sr >= config.cutoff)
                .cloned()
                .collect();
            rules.push(MinedRule {
                member,
                member_name: db.member_name(matrix.data_type, member).to_owned(),
                kind,
                total_units: set.total,
                winner,
                hypotheses,
            });
        }
    }
    (rules, truncated_units)
}

/// Derivation loop over one access matrix, sharded across `jobs` workers
/// by member chunks. `jobs = 1` processes every member in one chunk with
/// one cache — the exact serial path.
fn rules_from_matrix(
    db: &TraceDb,
    matrix: &AccessMatrix,
    config: &DeriveConfig,
    jobs: usize,
) -> (Vec<MinedRule>, u64) {
    let members = matrix.observed_members();
    let chunks = chunks_for(jobs, &members);
    let table = Arc::new(DescriptorTable::build(db));
    let init = || ResolutionCache::with_table(Arc::clone(&table));
    let parts = par_map_init(jobs, &chunks, init, |cache, chunk| {
        rules_for_members(db, matrix, chunk, config, cache)
    });
    merge_rule_parts(parts)
}

/// Merges per-shard rule lists back into one deterministic list. Shards
/// arrive in input order (chunks of ascending members), so a stable sort
/// by member restores the global `member` then `Read`/`Write` order no
/// matter how the work was partitioned.
fn merge_rule_parts(parts: Vec<(Vec<MinedRule>, u64)>) -> (Vec<MinedRule>, u64) {
    let mut rules = Vec::new();
    let mut truncated_units = 0u64;
    for (part, truncated) in parts {
        rules.extend(part);
        truncated_units += truncated;
    }
    rules.sort_by_key(|r| r.member);
    (rules, truncated_units)
}

/// Derives type-wide rules with all subclasses pooled (one group per data
/// type). This is the granularity the Linux documentation speaks at; the
/// subclassing ablation experiment compares it with [`derive`].
pub fn derive_pooled(db: &TraceDb, config: &DeriveConfig) -> MinedRules {
    derive_pooled_par(db, config, 1)
}

/// [`derive_pooled`] sharded across `jobs` workers; output is identical at
/// any worker count.
pub fn derive_pooled_par(db: &TraceDb, config: &DeriveConfig, jobs: usize) -> MinedRules {
    // Groups are ordered by type first, so equal types are adjacent.
    let mut types: Vec<DataTypeId> = db.observation_groups().iter().map(|g| g.0).collect();
    types.dedup();
    let matrices = par_map(jobs, &types, |&dtid| AccessMatrix::build_pooled(db, dtid));
    let groups = derive_groups_sharded(db, config, jobs, &matrices, |i| {
        let dtid = types[i];
        (dtid, None, db.type_name(dtid).to_owned())
    });
    MinedRules {
        groups,
        config: *config,
    }
}

/// Derives rules for every observation group in the database (serial
/// path; equivalent to [`derive_par`] with `jobs = 1`).
pub fn derive(db: &TraceDb, config: &DeriveConfig) -> MinedRules {
    derive_par(db, config, 1)
}

/// [`derive`] sharded across `jobs` workers: matrices build in parallel
/// per group, then flat `(group, member-chunk)` shards derive in parallel
/// with one resolution cache per worker. Output is byte-identical at any
/// worker count.
pub fn derive_par(db: &TraceDb, config: &DeriveConfig, jobs: usize) -> MinedRules {
    let group_keys = db.observation_groups();
    let matrices = par_map(jobs, &group_keys, |&g| AccessMatrix::build(db, g));
    let groups = derive_groups_sharded(db, config, jobs, &matrices, |i| {
        let (dtid, subclass) = group_keys[i];
        (dtid, subclass, db.group_name(group_keys[i]))
    });
    MinedRules {
        groups,
        config: *config,
    }
}

/// Shared fan-out for [`derive_par`]/[`derive_pooled_par`]: flattens all
/// groups into `(group index, member chunk)` shards so small groups do not
/// serialize behind large ones, runs them through one ordered [`par_map`],
/// and reassembles per-group results in group order.
fn derive_groups_sharded(
    db: &TraceDb,
    config: &DeriveConfig,
    jobs: usize,
    matrices: &[AccessMatrix],
    group_meta: impl Fn(usize) -> (DataTypeId, Option<Sym>, String),
) -> Vec<GroupRules> {
    let members_per_group: Vec<Vec<u32>> = matrices.iter().map(|m| m.observed_members()).collect();
    let mut shards: Vec<(usize, &[u32])> = Vec::new();
    for (gi, members) in members_per_group.iter().enumerate() {
        for chunk in chunks_for(jobs, members) {
            shards.push((gi, chunk));
        }
    }
    // Per-worker cache over one shared descriptor table, cleared on group
    // change: a unit's allocation belongs to exactly one group, so entries
    // never hit across groups — carrying them over would only grow the
    // map. Within a group, member chunks share units heavily, and a worker
    // that processes several chunks of the same group in a row resolves
    // each unit once.
    let table = Arc::new(DescriptorTable::build(db));
    let shard_results = par_map_init(
        jobs,
        &shards,
        || (usize::MAX, ResolutionCache::with_table(Arc::clone(&table))),
        |(last_gi, cache), &(gi, chunk)| {
            if *last_gi != gi {
                cache.clear();
                *last_gi = gi;
            }
            rules_for_members(db, &matrices[gi], chunk, config, cache)
        },
    );
    let mut per_group: Vec<Vec<(Vec<MinedRule>, u64)>> = vec![Vec::new(); matrices.len()];
    for (&(gi, _), result) in shards.iter().zip(shard_results) {
        per_group[gi].push(result);
    }
    per_group
        .into_iter()
        .enumerate()
        .map(|(gi, parts)| {
            let (rules, truncated_units) = merge_rule_parts(parts);
            let (data_type, subclass, group_name) = group_meta(gi);
            GroupRules {
                data_type,
                subclass,
                group_name,
                rules,
                truncated_units,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::clock_db;
    use crate::lockset::LockDescriptor;

    /// End-to-end on the paper's clock example (Fig. 4): 1000 iterations,
    /// one buggy variant without `min_lock`.
    #[test]
    fn derives_clock_rules_end_to_end() {
        let db = clock_db(1000, 1);
        let mined = derive(&db, &DeriveConfig::default());
        let group = mined.group("clock").expect("clock group exists");

        let min_w = group
            .rule_for("minutes", AccessKind::Write)
            .expect("minutes write rule");
        assert_eq!(min_w.total_units, 17, "16 correct + 1 faulty txn");
        assert_eq!(
            min_w.winner.hypothesis.locks,
            vec![
                LockDescriptor::global("sec_lock"),
                LockDescriptor::global("min_lock")
            ]
        );
        assert_eq!(min_w.winner.hypothesis.sa, 16);

        let sec_w = group
            .rule_for("seconds", AccessKind::Write)
            .expect("seconds write rule");
        assert_eq!(
            sec_w.winner.hypothesis.locks,
            vec![LockDescriptor::global("sec_lock")]
        );
        assert!((sec_w.winner.hypothesis.sr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_units_suppresses_sparse_members() {
        let db = clock_db(1000, 1);
        let config = DeriveConfig {
            min_units: 100,
            ..DeriveConfig::default()
        };
        let mined = derive(&db, &config);
        let group = mined.group("clock").unwrap();
        // minutes is only written 17 times -> suppressed.
        assert!(group.rule_for("minutes", AccessKind::Write).is_none());
        // seconds is written ~1017 times -> kept.
        assert!(group.rule_for("seconds", AccessKind::Write).is_some());
    }

    /// The sharded derivator must be output-identical to the serial path
    /// at any worker count — including worker counts far above the shard
    /// count.
    #[test]
    fn parallel_derivation_matches_serial_exactly() {
        let db = clock_db(500, 2);
        let config = DeriveConfig::default();
        let serial = derive(&db, &config);
        for jobs in [2, 3, 4, 8, 32] {
            assert_eq!(derive_par(&db, &config, jobs), serial, "jobs = {jobs}");
        }
        let pooled_serial = derive_pooled(&db, &config);
        for jobs in [2, 4, 8] {
            assert_eq!(
                derive_pooled_par(&db, &config, jobs),
                pooled_serial,
                "pooled jobs = {jobs}"
            );
        }
    }

    #[test]
    fn cutoff_trims_reported_hypotheses() {
        let db = clock_db(1000, 1);
        let config = DeriveConfig {
            cutoff: 0.99,
            ..DeriveConfig::default()
        };
        let mined = derive(&db, &config);
        let rule = mined
            .group("clock")
            .unwrap()
            .rule_for("minutes", AccessKind::Write)
            .unwrap();
        // Only hypotheses with sr >= 0.99 survive in the report list.
        assert!(rule.hypotheses.iter().all(|h| h.sr >= 0.99));
        // But the winner (sr = 94.1 %) was still selected before trimming.
        assert_eq!(rule.winner.hypothesis.locks.len(), 2);
    }
}
