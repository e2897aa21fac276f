//! Trace-based lockset (Eraser-style) race detection.
//!
//! The paper's rule-violation finder (Sec. 5.5) reports accesses that
//! contradict the *mined* rules; whether such an access can actually
//! race is triaged by hand (Sec. 6.4 discusses the false-positive
//! classes). This module automates that triage with the classic Eraser
//! lockset algorithm refined by the flow/context structure the importer
//! already reconstructs:
//!
//! * Per member, the **candidate lockset** is the intersection of the
//!   effective locksets of all its accesses. If it ends up empty and at
//!   least one access was a write, no single lock protected the member.
//! * **Exclusion contexts are pseudo-locks.** IRQ-disabled sections
//!   already appear in the trace as the `softirq`/`hardirq` pseudo-lock
//!   acquisitions ([`LockDescriptor::Pseudo`]), so bottom-half mutual
//!   exclusion falls out of the ordinary intersection. Single-core
//!   *flow* exclusion — two accesses of the same task can never race
//!   with each other — is encoded the same way: every access implicitly
//!   holds a `flow:<name>` pseudo-lock, so members touched by a single
//!   flow keep a non-empty candidate set and are never reported.
//! * A reported candidate carries a **witness pair**: two concrete
//!   accesses from different flows, at least one a write, whose real
//!   locksets are disjoint — everything a developer needs (kind,
//!   context, held locks, source location, stack) to judge the report.
//!   Members whose intersection is empty only collectively (pairwise
//!   lock-sharing, no witness pair) are counted but not reported; see
//!   DESIGN.md §5.4.
//!
//! Sharding follows `violation.rs`: one shard per observation group on
//! [`lockdoc_platform::par`], byte-identical output at any jobs count.

use crate::hypothesis::ResolutionCache;
use crate::lockset::{DescriptorTable, LockDescriptor};
use lockdoc_platform::hash::FastMap;
use lockdoc_platform::par::par_map;
use lockdoc_trace::db::{Access, FlowKey, GroupKey, TraceDb};
use lockdoc_trace::event::{AccessKind, ContextKind, SourceLoc};
use lockdoc_trace::ids::{DataTypeId, StackId, Sym};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// One side of a race witness pair: a fully resolved access.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceAccess {
    /// Access kind.
    pub kind: AccessKind,
    /// Execution context of the access.
    pub context: ContextKind,
    /// Flow name (task name, or `softirq`/`hardirq`).
    pub flow: String,
    /// Real locks held at the access, in acquisition order.
    pub held: Vec<LockDescriptor>,
    /// Source location.
    pub loc: SourceLoc,
    /// Stack trace id (resolve via [`TraceDb::format_stack`]).
    pub stack: StackId,
    /// Row id of the access.
    pub access_id: u64,
}

impl RaceAccess {
    /// True if this side is a write holding no locks at all.
    pub fn is_lock_free_write(&self) -> bool {
        self.kind == AccessKind::Write && self.held.is_empty()
    }
}

/// A counterexample pair: two accesses that can interleave unprotected.
#[derive(Debug, Clone, PartialEq)]
pub struct RacePair {
    /// Earlier access (by trace order).
    pub first: RaceAccess,
    /// Later access.
    pub second: RaceAccess,
}

impl RacePair {
    /// True if either side ran in an interrupt-like context.
    pub fn irq_side(&self) -> bool {
        self.first.context != ContextKind::Task || self.second.context != ContextKind::Task
    }

    /// True if either side is a lock-free write.
    pub fn has_lock_free_write(&self) -> bool {
        self.first.is_lock_free_write() || self.second.is_lock_free_write()
    }
}

/// One racy member: empty candidate lockset plus a concrete witness.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceCandidate {
    /// Observation group name, e.g. `inode:ext4`.
    pub group_name: String,
    /// Member index in the type layout.
    pub member: u32,
    /// Member name (denormalized for reporting).
    pub member_name: String,
    /// Total accesses of the member in this group.
    pub accesses: u64,
    /// Write accesses among them.
    pub writes: u64,
    /// Distinct flows that touched the member.
    pub flows: u64,
    /// The witness pair.
    pub witness: RacePair,
}

/// Race-detection summary for one observation group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRaces {
    /// Group name.
    pub group_name: String,
    /// The data type.
    pub data_type: DataTypeId,
    /// Subclass discriminator.
    pub subclass: Option<Sym>,
    /// Members with at least one access in this group.
    pub members_checked: u64,
    /// Members whose candidate lockset emptied out collectively but for
    /// which no pairwise-disjoint witness pair exists (not reported as
    /// candidates; kept for transparency, see DESIGN.md §5.4).
    pub pairless: u64,
    /// Racy members with witness pairs, ordered by member index.
    pub candidates: Vec<RaceCandidate>,
}

/// The full race report, one entry per observation group.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    /// Per-group results in deterministic group order.
    pub groups: Vec<GroupRaces>,
}

impl RaceReport {
    /// Total number of reported race candidates.
    pub fn candidate_count(&self) -> usize {
        self.groups.iter().map(|g| g.candidates.len()).sum()
    }

    /// Total pairless tally across groups: members whose candidate
    /// lockset emptied collectively but that lack a pairwise-disjoint
    /// witness pair. Dark signal for the workload fuzzer (DESIGN §5.5):
    /// a mix that produces a concrete witness converts a pairless entry
    /// into a reported candidate.
    pub fn pairless_total(&self) -> u64 {
        self.groups.iter().map(|g| g.pairless).sum()
    }

    /// Finds a candidate by group name and member name.
    pub fn candidate(&self, group_name: &str, member_name: &str) -> Option<&RaceCandidate> {
        self.groups
            .iter()
            .filter(|g| g.group_name == group_name)
            .flat_map(|g| &g.candidates)
            .find(|c| c.member_name == member_name)
    }

    /// Renders the human-readable report.
    pub fn render(&self, db: &TraceDb) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let members: u64 = self.groups.iter().map(|g| g.members_checked).sum();
        let pairless: u64 = self.groups.iter().map(|g| g.pairless).sum();
        let _ = writeln!(
            out,
            "race detector: {} groups, {} members checked, {} race candidates, {} pairless",
            self.groups.len(),
            members,
            self.candidate_count(),
            pairless
        );
        for group in &self.groups {
            for c in &group.candidates {
                let _ = writeln!(
                    out,
                    "RACE {}.{}: {} accesses ({} writes) across {} flows, candidate lockset empty",
                    c.group_name, c.member_name, c.accesses, c.writes, c.flows
                );
                for side in [&c.witness.first, &c.witness.second] {
                    let _ = writeln!(
                        out,
                        "  - {} at {} [flow {}, {} context, {}] in {}",
                        side.kind,
                        db.format_loc(side.loc),
                        side.flow,
                        side.context,
                        crate::lockset::format_sequence(&side.held),
                        db.format_stack(side.stack)
                    );
                }
            }
        }
        out
    }
}

/// Display name of a flow: the task name, or the IRQ context name.
pub fn flow_name(db: &TraceDb, flow: FlowKey) -> String {
    match flow {
        FlowKey::Task(t) => db
            .meta
            .tasks
            .get(t.index())
            .cloned()
            .unwrap_or_else(|| format!("task{}", t.index())),
        FlowKey::Irq(0) => "softirq".to_owned(),
        FlowKey::Irq(_) => "hardirq".to_owned(),
    }
}

/// Runs the race detector serially (`jobs = 1`).
pub fn find_races(db: &TraceDb) -> RaceReport {
    find_races_par(db, 1)
}

/// Runs the race detector sharded across `jobs` workers, one shard per
/// observation group (allocations belong to exactly one group, so the
/// per-group resolution caches lose no sharing and the ordered fan-out
/// keeps the report identical at any worker count).
pub fn find_races_par(db: &TraceDb, jobs: usize) -> RaceReport {
    let groups = db.observation_groups();
    let table = Arc::new(DescriptorTable::build(db));
    RaceReport {
        groups: par_map(jobs, &groups, |&g| scan_group(db, &table, g)),
    }
}

/// One representative per distinct `(flow, is-write, real lockset)`
/// combination of a member: the earliest such access, with its locksets
/// as sequence ids of the group's [`ResolutionCache`]. It becomes a
/// [`RaceAccess`] only if it ends up in the witness pair.
struct Rep {
    flow: FlowKey,
    write: bool,
    /// The real lockset, sorted and deduplicated.
    set: u32,
    /// The real locks in acquisition order, as a witness side reports them.
    seq: u32,
    /// Interned flow name.
    flow_name: u32,
    access: Access,
}

/// The intersection of effective locksets: the real locks every access
/// held, plus the `flow:<name>` exclusion pseudo-lock while every access
/// ran on a flow of the same name. No real lock is a flow pseudo-lock, so
/// the two parts intersect independently; only emptiness is ever read.
struct Candidate {
    real: Vec<u32>,
    flow: Option<u32>,
}

impl Candidate {
    fn is_empty(&self) -> bool {
        self.real.is_empty() && self.flow.is_none()
    }
}

/// Running per-member state.
#[derive(Default)]
struct MemberState {
    accesses: u64,
    writes: u64,
    flows: BTreeSet<FlowKey>,
    /// `None` until the first access.
    candidate: Option<Candidate>,
    reps: Vec<Rep>,
}

/// Per-group scan state: resolved locksets and interned flow names.
struct GroupScan {
    table: Arc<DescriptorTable>,
    cache: ResolutionCache,
    /// Sequence id → id of its sorted form, or `u32::MAX` until needed.
    sorted: Vec<u32>,
    flow_ids: FastMap<FlowKey, u32>,
    /// Distinct flow names; flows that share a name share an id, as they
    /// share a `flow:<name>` pseudo-lock.
    flow_names: Vec<String>,
}

impl GroupScan {
    fn new(table: &Arc<DescriptorTable>) -> Self {
        GroupScan {
            table: Arc::clone(table),
            cache: ResolutionCache::with_table(Arc::clone(table)),
            sorted: Vec::new(),
            flow_ids: FastMap::default(),
            flow_names: Vec::new(),
        }
    }

    /// The access's real lockset as `(sorted set, acquisition order)`
    /// sequence ids.
    fn held(&mut self, db: &TraceDb, access: &Access) -> (u32, u32) {
        let seq = match access.txn {
            Some(txn) => self.cache.resolve(db, (txn, access.alloc)),
            None => self.cache.intern(&[]),
        };
        let slot = seq as usize;
        if slot >= self.sorted.len() {
            self.sorted.resize(slot + 1, u32::MAX);
        }
        if self.sorted[slot] == u32::MAX {
            let mut set = self.cache.sequence(seq).to_vec();
            set.sort_unstable();
            self.sorted[slot] = self.cache.intern(&set);
        }
        (self.sorted[slot], seq)
    }

    fn flow(&mut self, db: &TraceDb, flow: FlowKey) -> u32 {
        if let Some(&id) = self.flow_ids.get(&flow) {
            return id;
        }
        let name = flow_name(db, flow);
        let id = match self.flow_names.iter().position(|n| *n == name) {
            Some(i) => i as u32,
            None => {
                self.flow_names.push(name);
                self.flow_names.len() as u32 - 1
            }
        };
        self.flow_ids.insert(flow, id);
        id
    }

    fn set(&self, rep: &Rep) -> &[u32] {
        self.cache.sequence(rep.set)
    }

    /// Materializes a witness side.
    fn race_access(&self, rep: &Rep) -> RaceAccess {
        RaceAccess {
            kind: rep.access.kind,
            context: rep.access.context,
            flow: self.flow_names[rep.flow_name as usize].clone(),
            held: self.table.descriptors(self.cache.sequence(rep.seq)),
            loc: rep.access.loc,
            stack: rep.access.stack,
            access_id: rep.access.id,
        }
    }
}

fn scan_group(db: &TraceDb, table: &Arc<DescriptorTable>, group: GroupKey) -> GroupRaces {
    let mut scan = GroupScan::new(table);
    let mut members: BTreeMap<u32, MemberState> = BTreeMap::new();

    for access in db.group_accesses(group) {
        let (set, seq) = scan.held(db, &access);
        let flow_name = scan.flow(db, access.flow);
        let state = members.entry(access.member).or_default();
        state.accesses += 1;
        let write = access.kind == AccessKind::Write;
        if write {
            state.writes += 1;
        }
        state.flows.insert(access.flow);

        // Intersect with the effective lockset: real locks plus the
        // single-core flow exclusion pseudo-lock.
        let held = scan.cache.sequence(set);
        match &mut state.candidate {
            None => {
                state.candidate = Some(Candidate {
                    real: held.to_vec(),
                    flow: Some(flow_name),
                })
            }
            Some(cur) => {
                cur.real.retain(|l| held.binary_search(l).is_ok());
                cur.flow = cur.flow.filter(|&f| f == flow_name);
            }
        }

        // Representative bookkeeping for witness-pair selection: keep the
        // earliest access per (flow, write, real lockset) combination.
        let seen = state
            .reps
            .iter()
            .any(|r| r.flow == access.flow && r.write == write && r.set == set);
        if !seen {
            state.reps.push(Rep {
                flow: access.flow,
                write,
                set,
                seq,
                flow_name,
                access,
            });
        }
    }
    finish_group(db, group, &members, &scan)
}

/// Turns the per-member states of one group into its race summary:
/// members whose candidate lockset emptied out and that saw a write are
/// reported with a witness pair, or tallied as pairless.
fn finish_group(
    db: &TraceDb,
    group: GroupKey,
    members: &BTreeMap<u32, MemberState>,
    scan: &GroupScan,
) -> GroupRaces {
    let group_name = db.group_name(group);
    let mut out = GroupRaces {
        group_name: group_name.clone(),
        data_type: group.0,
        subclass: group.1,
        members_checked: members.len() as u64,
        pairless: 0,
        candidates: Vec::new(),
    };
    for (member, state) in members {
        let empty = state.candidate.as_ref().is_some_and(Candidate::is_empty);
        if !empty || state.writes == 0 {
            continue;
        }
        match best_pair(&state.reps, scan) {
            Some((first, second)) => out.candidates.push(RaceCandidate {
                group_name: group_name.clone(),
                member: *member,
                member_name: db.member_name(group.0, *member).to_owned(),
                accesses: state.accesses,
                writes: state.writes,
                flows: state.flows.len() as u64,
                witness: RacePair {
                    first: scan.race_access(first),
                    second: scan.race_access(second),
                },
            }),
            None => out.pairless += 1,
        }
    }
    out
}

/// Picks the most damning conflicting pair among the representatives:
/// maximize (lock-free write sides, write sides, task-context sides),
/// breaking ties toward the earliest access ids. Preferring task/task
/// pairs keeps single-core IRQ exclusion caveats out of the primary
/// witness whenever a cleaner pair exists. Returns the pair in access
/// order.
fn best_pair<'a>(reps: &'a [Rep], scan: &GroupScan) -> Option<(&'a Rep, &'a Rep)> {
    type PairKey = (u32, u32, u32, std::cmp::Reverse<(u64, u64)>);
    let mut best: Option<(PairKey, &Rep, &Rep)> = None;
    for (i, a) in reps.iter().enumerate() {
        for b in &reps[i + 1..] {
            if a.flow == b.flow || (!a.write && !b.write) {
                continue;
            }
            let b_set = scan.set(b);
            if scan.set(a).iter().any(|l| b_set.binary_search(l).is_ok()) {
                continue;
            }
            let (first, second) = if a.access.id <= b.access.id {
                (a, b)
            } else {
                (b, a)
            };
            let sides = [first, second];
            let key: PairKey = (
                sides
                    .iter()
                    .filter(|r| r.write && scan.set(r).is_empty())
                    .count() as u32,
                sides.iter().filter(|r| r.write).count() as u32,
                sides
                    .iter()
                    .filter(|r| r.access.context == ContextKind::Task)
                    .count() as u32,
                std::cmp::Reverse((first.access.id, second.access.id)),
            );
            if best.as_ref().is_none_or(|(k, _, _)| key > *k) {
                best = Some((key, first, second));
            }
        }
    }
    best.map(|(_, first, second)| (first, second))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::clock_db;

    /// A naive, string-based race detector kept as a reference: it filters
    /// the whole access table per group, resolves every access's lockset
    /// to descriptors from scratch, intersects effective locksets as
    /// fresh descriptor sets (the `flow:<name>` pseudo-lock included), and
    /// picks the witness by trying every representative pair.
    fn find_races_reference(db: &TraceDb) -> RaceReport {
        use crate::lockset::resolve_txn_locks;
        struct NaiveRep {
            flow: FlowKey,
            write: bool,
            locks: BTreeSet<LockDescriptor>,
            access: RaceAccess,
        }
        #[derive(Default)]
        struct NaiveMember {
            accesses: u64,
            writes: u64,
            flows: BTreeSet<FlowKey>,
            candidate: Option<BTreeSet<LockDescriptor>>,
            reps: Vec<NaiveRep>,
        }
        let groups: BTreeSet<GroupKey> = db
            .accesses
            .iter()
            .map(|a| (a.data_type, a.subclass))
            .collect();
        let groups = groups
            .into_iter()
            .map(|group| {
                let mut members: BTreeMap<u32, NaiveMember> = BTreeMap::new();
                let rows = db
                    .accesses
                    .iter()
                    .filter(|a| (a.data_type, a.subclass) == group);
                for access in rows {
                    let held: Vec<LockDescriptor> = match access.txn {
                        Some(txn) => {
                            let ids: Vec<_> = db.txn(txn).locks.iter().map(|h| h.lock).collect();
                            resolve_txn_locks(db, access.alloc, &ids)
                        }
                        None => Vec::new(),
                    };
                    let state = members.entry(access.member).or_default();
                    state.accesses += 1;
                    let write = access.kind == AccessKind::Write;
                    if write {
                        state.writes += 1;
                    }
                    state.flows.insert(access.flow);
                    let real: BTreeSet<LockDescriptor> = held.iter().cloned().collect();
                    let mut effective = real.clone();
                    effective.insert(LockDescriptor::pseudo(&format!(
                        "flow:{}",
                        flow_name(db, access.flow)
                    )));
                    match &mut state.candidate {
                        None => state.candidate = Some(effective),
                        Some(cur) => cur.retain(|l| effective.contains(l)),
                    }
                    let seen = state
                        .reps
                        .iter()
                        .any(|r| r.flow == access.flow && r.write == write && r.locks == real);
                    if !seen {
                        state.reps.push(NaiveRep {
                            flow: access.flow,
                            write,
                            locks: real,
                            access: RaceAccess {
                                kind: access.kind,
                                context: access.context,
                                flow: flow_name(db, access.flow),
                                held,
                                loc: access.loc,
                                stack: access.stack,
                                access_id: access.id,
                            },
                        });
                    }
                }
                let group_name = db.group_name(group);
                let mut out = GroupRaces {
                    group_name: group_name.clone(),
                    data_type: group.0,
                    subclass: group.1,
                    members_checked: members.len() as u64,
                    pairless: 0,
                    candidates: Vec::new(),
                };
                for (member, state) in &members {
                    let empty = state.candidate.as_ref().is_some_and(|c| c.is_empty());
                    if !empty || state.writes == 0 {
                        continue;
                    }
                    // Every conflicting pair in access order; larger keys
                    // are better, and earlier ids win ties.
                    let pairs = state
                        .reps
                        .iter()
                        .flat_map(|a| state.reps.iter().map(move |b| (a, b)))
                        .filter(|(a, b)| {
                            a.flow != b.flow
                                && (a.write || b.write)
                                && a.locks.is_disjoint(&b.locks)
                                && a.access.access_id < b.access.access_id
                        });
                    let best = pairs.max_by_key(|&(a, b)| {
                        let count = |f: fn(&NaiveRep) -> bool| f(a) as u8 + f(b) as u8;
                        (
                            count(|r| r.write && r.locks.is_empty()),
                            count(|r| r.write),
                            count(|r| r.access.context == ContextKind::Task),
                            std::cmp::Reverse((a.access.access_id, b.access.access_id)),
                        )
                    });
                    match best {
                        Some((a, b)) => out.candidates.push(RaceCandidate {
                            group_name: group_name.clone(),
                            member: *member,
                            member_name: db.member_name(group.0, *member).to_owned(),
                            accesses: state.accesses,
                            writes: state.writes,
                            flows: state.flows.len() as u64,
                            witness: RacePair {
                                first: a.access.clone(),
                                second: b.access.clone(),
                            },
                        }),
                        None => out.pairless += 1,
                    }
                }
                out
            })
            .collect();
        RaceReport { groups }
    }

    /// The cached, index-driven detector equals the naive reference on
    /// random multi-flow traces, serially and sharded.
    #[test]
    fn race_scan_matches_naive_reference() {
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
        prop::check_with(&cfg, "race_scan_matches_naive_reference", gen, |ops| {
            let db = lockdoc_trace::db::import(
                &build_multiflow_trace(ops),
                &FilterConfig::with_defaults(),
                1,
            );
            let reference = find_races_reference(&db);
            for jobs in [1usize, 4] {
                prop_assert_eq!(
                    &find_races_par(&db, jobs),
                    &reference,
                    "race report differs at jobs = {}",
                    jobs
                );
            }
            Ok(())
        });
    }

    #[test]
    fn clean_clock_trace_has_no_candidates() {
        // The correct clock workload always holds sec_lock/min_lock.
        let db = clock_db(600, 0);
        let report = find_races(&db);
        assert_eq!(report.candidate_count(), 0);
    }

    #[test]
    fn single_flow_trace_is_excluded_by_flow_pseudo_lock() {
        // The buggy run drops the locks entirely for some iterations, but
        // a single task can never race with itself: the flow pseudo-lock
        // keeps the candidate set non-empty.
        let db = clock_db(1000, 5);
        let report = find_races(&db);
        assert_eq!(
            report.candidate_count(),
            0,
            "single-flow accesses must never race"
        );
        assert!(report.groups.iter().all(|g| g.pairless == 0));
    }

    #[test]
    fn parallel_scan_matches_serial_exactly() {
        let db = clock_db(2000, 3);
        let serial = find_races(&db);
        for jobs in [2, 4, 8] {
            assert_eq!(find_races_par(&db, jobs), serial, "jobs = {jobs}");
        }
    }

    /// Two tasks, one member: task 0 writes under `guard`, task 1 writes
    /// with no locks. The candidate lockset empties out and the witness
    /// pair must include the lock-free write.
    #[test]
    fn cross_task_lock_free_write_is_reported_with_witness() {
        use lockdoc_trace::event::{AcquireMode, DataTypeDef, Event, LockFlavor, MemberDef, Trace};
        use lockdoc_trace::filter::FilterConfig;
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("x.c");
        let guard = tr.meta_mut().strings.intern("guard");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "obj".into(),
            size: 8,
            members: vec![MemberDef {
                name: "v".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        let t0 = tr.meta_mut().add_task("alpha");
        let t1 = tr.meta_mut().add_task("beta");
        let loc = |l| SourceLoc::new(file, l);
        let mut ts = 0;
        let mut push = |tr: &mut Trace, e| {
            ts += 1;
            tr.push(ts, e);
        };
        push(
            &mut tr,
            Event::LockInit {
                addr: 0x10,
                name: guard,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
        push(
            &mut tr,
            Event::Alloc {
                id: lockdoc_trace::ids::AllocId(1),
                addr: 0x1000,
                size: 8,
                data_type: dt,
                subclass: None,
            },
        );
        push(&mut tr, Event::TaskSwitch { task: t0 });
        push(
            &mut tr,
            Event::LockAcquire {
                addr: 0x10,
                mode: AcquireMode::Exclusive,
                loc: loc(1),
            },
        );
        push(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 8,
                loc: loc(2),
                atomic: false,
            },
        );
        push(
            &mut tr,
            Event::LockRelease {
                addr: 0x10,
                loc: loc(3),
            },
        );
        push(&mut tr, Event::TaskSwitch { task: t1 });
        push(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 8,
                loc: loc(4),
                atomic: false,
            },
        );
        let db = lockdoc_trace::db::import(&tr, &FilterConfig::with_defaults(), 1);
        let report = find_races(&db);
        assert_eq!(report.candidate_count(), 1);
        let c = report.candidate("obj", "v").expect("obj.v candidate");
        assert_eq!(c.writes, 2);
        assert_eq!(c.flows, 2);
        let pair = &c.witness;
        assert!(pair.has_lock_free_write());
        assert!(!pair.irq_side());
        let lock_free: Vec<_> = [&pair.first, &pair.second]
            .into_iter()
            .filter(|s| s.is_lock_free_write())
            .collect();
        assert_eq!(lock_free.len(), 1);
        assert_eq!(lock_free[0].flow, "beta");
        assert_eq!(lock_free[0].loc.line, 4);
    }
}
