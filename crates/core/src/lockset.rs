//! Lock descriptors: how LockDoc names locks relative to the accessed object.
//!
//! Concrete lock *instances* in a trace (identified by address) are
//! abstracted to *descriptors* before rule derivation, so that rules
//! generalize over object instances (paper Sec. 8 and the notation of
//! Tab. 5 / Fig. 8):
//!
//! * `Global` — a statically allocated lock, named, e.g. `inode_hash_lock`;
//! * `ES` ("embedded same") — a lock embedded in the same object instance
//!   the accessed member belongs to, e.g. `ES(i_lock in inode)`;
//! * `EO` ("embedded other") — a lock embedded in some *other* object, e.g.
//!   `EO(list_lock in backing_dev_info)`;
//! * `Pseudo` — the synthetic `rcu` / `softirq` / `hardirq` locks.

use lockdoc_platform::hash::FastMap;
use lockdoc_trace::db::{HeldLock, TraceDb};
use lockdoc_trace::event::LockFlavor;
use lockdoc_trace::ids::{AllocId, DataTypeId, LockId, Sym};
use std::fmt;

/// A lock named relative to an accessed object (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockDescriptor {
    /// A statically allocated (global) lock.
    Global {
        /// Variable name, e.g. `inode_hash_lock`.
        name: String,
    },
    /// A lock embedded in the same object instance as the accessed member.
    EmbeddedSame {
        /// The lock's member name within the object, e.g. `i_lock`.
        member: String,
        /// The containing data type, e.g. `inode`.
        type_name: String,
    },
    /// A lock embedded in another object.
    EmbeddedOther {
        /// The lock's member name within the other object.
        member: String,
        /// The other object's data type.
        type_name: String,
    },
    /// A synthetic pseudo-lock (`rcu`, `softirq`, `hardirq`).
    Pseudo {
        /// Pseudo-lock name.
        name: String,
    },
}

impl LockDescriptor {
    /// Shorthand constructor for a global lock.
    pub fn global(name: &str) -> Self {
        LockDescriptor::Global {
            name: name.to_owned(),
        }
    }

    /// Shorthand constructor for an embedded-same lock.
    pub fn es(member: &str, type_name: &str) -> Self {
        LockDescriptor::EmbeddedSame {
            member: member.to_owned(),
            type_name: type_name.to_owned(),
        }
    }

    /// Shorthand constructor for an embedded-other lock.
    pub fn eo(member: &str, type_name: &str) -> Self {
        LockDescriptor::EmbeddedOther {
            member: member.to_owned(),
            type_name: type_name.to_owned(),
        }
    }

    /// Shorthand constructor for a pseudo-lock.
    pub fn pseudo(name: &str) -> Self {
        LockDescriptor::Pseudo {
            name: name.to_owned(),
        }
    }

    /// The RCU read-side pseudo-lock.
    pub fn rcu() -> Self {
        Self::pseudo("rcu")
    }
}

impl fmt::Display for LockDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockDescriptor::Global { name } => write!(f, "{name}"),
            LockDescriptor::EmbeddedSame { member, type_name } => {
                write!(f, "ES({member} in {type_name})")
            }
            LockDescriptor::EmbeddedOther { member, type_name } => {
                write!(f, "EO({member} in {type_name})")
            }
            LockDescriptor::Pseudo { name } => write!(f, "{name}"),
        }
    }
}

/// Resolves a held lock instance to its descriptor, relative to the
/// allocation `accessed` whose member is being read or written.
///
/// Embedded locks are named by the member slot they occupy in their
/// containing type when the layout knows it, falling back to the lock's own
/// variable name otherwise.
pub fn resolve_descriptor(db: &TraceDb, accessed: AllocId, lock: LockId) -> LockDescriptor {
    let li = db.lock(lock);
    match li.flavor {
        LockFlavor::Rcu => return LockDescriptor::pseudo("rcu"),
        LockFlavor::Softirq => return LockDescriptor::pseudo("softirq"),
        LockFlavor::Hardirq => return LockDescriptor::pseudo("hardirq"),
        _ => {}
    }
    match li.embedded_in {
        Some((alloc_id, offset)) => {
            let alloc = db
                .allocation(alloc_id)
                .expect("embedded lock references a known allocation");
            let def = db.data_type(alloc.data_type);
            let member = def
                .member_at(offset)
                .map(|i| def.members[i].name.clone())
                .unwrap_or_else(|| db.sym(li.name).to_owned());
            if alloc_id == accessed {
                LockDescriptor::EmbeddedSame {
                    member,
                    type_name: def.name.clone(),
                }
            } else {
                LockDescriptor::EmbeddedOther {
                    member,
                    type_name: def.name.clone(),
                }
            }
        }
        None => LockDescriptor::Global {
            name: db.sym(li.name).to_owned(),
        },
    }
}

/// Resolves the ordered held-lock list of a transaction into descriptors,
/// deduplicating repeated descriptors while preserving first-acquisition
/// order (two other-instance `i_lock`s map to the same `EO` descriptor).
pub fn resolve_txn_locks(db: &TraceDb, accessed: AllocId, locks: &[LockId]) -> Vec<LockDescriptor> {
    let mut out: Vec<LockDescriptor> = Vec::with_capacity(locks.len());
    for &l in locks {
        let d = resolve_descriptor(db, accessed, l);
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

/// How one lock instance resolves, whatever object is accessed.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// A global or pseudo lock: the same descriptor from every object.
    Fixed(u32),
    /// An embedded lock: `es` when accessed through its home allocation,
    /// `eo` from any other object.
    Embedded { home: AllocId, es: u32, eo: u32 },
    /// Embedded in an allocation the store does not know; resolving it
    /// panics, as [`resolve_descriptor`] does.
    Unknown,
}

/// The string-free identity of a descriptor (or, for an embedded lock, of
/// its `ES`/`EO` pair): what [`resolve_descriptor`] reads before it builds
/// any string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Pseudo(&'static str),
    Global(Sym),
    Embedded(DataTypeId, SlotName),
}

/// How an embedded lock is named: by its member slot when the layout
/// knows one, by the lock's variable name otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum SlotName {
    Member(u32),
    Var(Sym),
}

/// Every descriptor a trace can produce, numbered in ascending
/// [`LockDescriptor`] order, with each lock instance pre-resolved to its
/// id (or `ES`/`EO` id pair).
///
/// Because ids are ranks, comparing two ids (or two id sequences
/// lexicographically) gives the same answer as comparing the descriptors
/// themselves, so any map, sort or tie-break keyed by ids orders exactly
/// like its string-keyed original. Passes resolve held locks to ids with
/// [`DescriptorTable::resolve_into`] and turn ids back into descriptors
/// only for what they report.
#[derive(Debug, Clone)]
pub(crate) struct DescriptorTable {
    descs: Vec<LockDescriptor>,
    slots: Vec<Slot>,
}

impl DescriptorTable {
    /// Builds the table for `db`: one string-free key per lock instance,
    /// and descriptor strings once per distinct key.
    pub(crate) fn build(db: &TraceDb) -> Self {
        let mut key_ids: FastMap<Key, u32> = FastMap::default();
        let mut keys: Vec<Key> = Vec::new();
        // Per lock: its key index and, if embedded, its home allocation;
        // `None` for a lock embedded in an unknown allocation.
        let mut lock_keys: Vec<Option<(u32, Option<AllocId>)>> = Vec::with_capacity(db.locks.len());
        for li in &db.locks {
            let pseudo = match li.flavor {
                LockFlavor::Rcu => Some("rcu"),
                LockFlavor::Softirq => Some("softirq"),
                LockFlavor::Hardirq => Some("hardirq"),
                _ => None,
            };
            let (key, home) = match (pseudo, li.embedded_in) {
                (Some(name), _) => (Key::Pseudo(name), None),
                (None, None) => (Key::Global(li.name), None),
                (None, Some((alloc_id, offset))) => {
                    let Some(alloc) = db.allocation(alloc_id) else {
                        lock_keys.push(None);
                        continue;
                    };
                    let name = match db.data_type(alloc.data_type).member_at(offset) {
                        Some(i) => SlotName::Member(i as u32),
                        None => SlotName::Var(li.name),
                    };
                    (Key::Embedded(alloc.data_type, name), Some(alloc_id))
                }
            };
            let next = keys.len() as u32;
            let k = *key_ids.entry(key).or_insert(next);
            if k == next {
                keys.push(key);
            }
            lock_keys.push(Some((k, home)));
        }

        // Strings, once per distinct key: the ES/EO pair of an embedded
        // key, and a fixed key's one descriptor in both places.
        let named: Vec<(LockDescriptor, LockDescriptor)> = keys
            .iter()
            .map(|&key| match key {
                Key::Pseudo(name) => {
                    let d = LockDescriptor::pseudo(name);
                    (d.clone(), d)
                }
                Key::Global(name) => {
                    let d = LockDescriptor::global(db.sym(name));
                    (d.clone(), d)
                }
                Key::Embedded(dt, name) => {
                    let member = match name {
                        SlotName::Member(i) => db.member_name(dt, i),
                        SlotName::Var(s) => db.sym(s),
                    };
                    let type_name = db.type_name(dt);
                    (
                        LockDescriptor::es(member, type_name),
                        LockDescriptor::eo(member, type_name),
                    )
                }
            })
            .collect();
        let mut descs: Vec<LockDescriptor> =
            named.iter().flat_map(|(a, b)| [a, b]).cloned().collect();
        descs.sort();
        descs.dedup();
        let rank = |d: &LockDescriptor| descs.binary_search(d).expect("descriptor ranked") as u32;
        let key_ranks: Vec<(u32, u32)> = named.iter().map(|(a, b)| (rank(a), rank(b))).collect();
        let slots = lock_keys
            .into_iter()
            .map(|lk| match lk {
                None => Slot::Unknown,
                Some((k, None)) => Slot::Fixed(key_ranks[k as usize].0),
                Some((k, Some(home))) => {
                    let (es, eo) = key_ranks[k as usize];
                    Slot::Embedded { home, es, eo }
                }
            })
            .collect();
        DescriptorTable { descs, slots }
    }

    /// The descriptor with rank `id`.
    pub(crate) fn descriptor(&self, id: u32) -> &LockDescriptor {
        &self.descs[id as usize]
    }

    /// The rank of `desc`, or `None` if no lock of the trace resolves to
    /// it (such a descriptor is never held).
    pub(crate) fn id_of(&self, desc: &LockDescriptor) -> Option<u32> {
        self.descs.binary_search(desc).ok().map(|i| i as u32)
    }

    /// Maps ids back to their descriptors.
    pub(crate) fn descriptors(&self, ids: &[u32]) -> Vec<LockDescriptor> {
        ids.iter().map(|&id| self.descriptor(id).clone()).collect()
    }

    /// [`resolve_txn_locks`] on ids: resolves `locks` relative to the
    /// accessed allocation into `out` (cleared first), deduplicating while
    /// preserving first-acquisition order.
    pub(crate) fn resolve_into(&self, accessed: AllocId, locks: &[HeldLock], out: &mut Vec<u32>) {
        out.clear();
        for h in locks {
            let id = match self.slots[h.lock.index()] {
                Slot::Fixed(id) => id,
                Slot::Embedded { home, es, eo } => {
                    if home == accessed {
                        es
                    } else {
                        eo
                    }
                }
                Slot::Unknown => panic!("embedded lock references a known allocation"),
            };
            if !out.contains(&id) {
                out.push(id);
            }
        }
    }
}

/// Formats a lock sequence as `a -> b -> c` (or `no locks` when empty).
pub fn format_sequence(locks: &[LockDescriptor]) -> String {
    if locks.is_empty() {
        return "no locks".to_owned();
    }
    locks
        .iter()
        .map(|l| l.to_string())
        .collect::<Vec<_>>()
        .join(" -> ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_match_paper_notation() {
        assert_eq!(
            LockDescriptor::global("inode_hash_lock").to_string(),
            "inode_hash_lock"
        );
        assert_eq!(
            LockDescriptor::es("i_lock", "inode").to_string(),
            "ES(i_lock in inode)"
        );
        assert_eq!(
            LockDescriptor::eo("list_lock", "backing_dev_info").to_string(),
            "EO(list_lock in backing_dev_info)"
        );
        assert_eq!(LockDescriptor::rcu().to_string(), "rcu");
    }

    #[test]
    fn format_sequence_joins_with_arrows() {
        let seq = vec![
            LockDescriptor::global("inode_hash_lock"),
            LockDescriptor::es("i_lock", "inode"),
        ];
        assert_eq!(
            format_sequence(&seq),
            "inode_hash_lock -> ES(i_lock in inode)"
        );
        assert_eq!(format_sequence(&[]), "no locks");
    }

    /// A trace whose locks cover every descriptor kind: per-instance
    /// embedded locks of two types (`ES`/`EO`), a lock outside any member
    /// slot whose variable name equals a member's (two keys, one
    /// descriptor), a global lock and the three pseudo-locks. `ops` are
    /// `(kind, a, b)` steps: lock/unlock lock `a`, access member `b` of
    /// allocation `a`, or switch task.
    fn embedded_trace(ops: &[(u8, u8, u8)]) -> lockdoc_trace::event::Trace {
        use lockdoc_trace::event::{
            AccessKind, AcquireMode, DataTypeDef, Event, MemberDef, SourceLoc, Trace,
        };
        use lockdoc_trace::ids::TaskId;
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("embed.c");
        let member = |name: &str, offset, is_lock| MemberDef {
            name: name.into(),
            offset,
            size: 8,
            atomic: false,
            is_lock,
        };
        let node = tr.meta_mut().add_data_type(DataTypeDef {
            name: "node".into(),
            size: 32,
            members: vec![member("lk", 0, true), member("val", 8, false)],
        });
        let boxed = tr.meta_mut().add_data_type(DataTypeDef {
            name: "box".into(),
            size: 16,
            members: vec![member("lk", 0, true), member("v", 8, false)],
        });
        for t in 0..2 {
            tr.meta_mut().add_task(&format!("t{t}"));
        }
        let mut ts = 0u64;
        let mut push = |tr: &mut Trace, e: Event| {
            ts += 1;
            tr.push(ts, e);
        };
        push(&mut tr, Event::TaskSwitch { task: TaskId(0) });
        // Allocations 1..=3 are nodes, 4 is a box.
        let allocs = [0x1000u64, 0x1100, 0x1200, 0x1300];
        for (i, &addr) in allocs.iter().enumerate() {
            let data_type = if i < 3 { node } else { boxed };
            push(
                &mut tr,
                Event::Alloc {
                    id: AllocId(i as u64 + 1),
                    addr,
                    size: if i < 3 { 32 } else { 16 },
                    data_type,
                    subclass: None,
                },
            );
        }
        // Lock addresses: the four `lk` slots, a stray `lk` at offset 24
        // of node 1, a global, and rcu/softirq/hardirq.
        let lock_addrs = [
            0x1000u64, 0x1100, 0x1200, 0x1300, 0x1018, 0x10, 0x20, 0x30, 0x40,
        ];
        let flavors = [
            LockFlavor::Spinlock,
            LockFlavor::Spinlock,
            LockFlavor::Mutex,
            LockFlavor::Spinlock,
            LockFlavor::Spinlock,
            LockFlavor::Mutex,
            LockFlavor::Rcu,
            LockFlavor::Softirq,
            LockFlavor::Hardirq,
        ];
        let names = [
            "lk", "lk", "lk", "lk", "lk", "glob", "rcu", "softirq", "hardirq",
        ];
        for i in 0..lock_addrs.len() {
            let name = tr.meta_mut().strings.intern(names[i]);
            push(
                &mut tr,
                Event::LockInit {
                    addr: lock_addrs[i],
                    name,
                    flavor: flavors[i],
                    is_static: i >= 5,
                },
            );
        }
        let loc = SourceLoc::new(file, 1);
        for &(kind, a, b) in ops {
            let lock = lock_addrs[usize::from(a) % lock_addrs.len()];
            let e = match kind % 4 {
                0 => Event::LockAcquire {
                    addr: lock,
                    mode: AcquireMode::Exclusive,
                    loc,
                },
                1 => Event::LockRelease { addr: lock, loc },
                2 => Event::MemAccess {
                    kind: if b % 2 == 0 {
                        AccessKind::Read
                    } else {
                        AccessKind::Write
                    },
                    addr: allocs[usize::from(a) % allocs.len()] + 8,
                    size: 8,
                    loc,
                    atomic: false,
                },
                _ => Event::TaskSwitch {
                    task: TaskId(u32::from(b % 2)),
                },
            };
            push(&mut tr, e);
        }
        tr
    }

    /// Today's string aggregation, kept as the reference for
    /// `observations_for_cached`.
    fn observations_reference(
        db: &TraceDb,
        matrix: &crate::matrix::MemberMatrix,
        kind: lockdoc_trace::event::AccessKind,
    ) -> Vec<crate::hypothesis::Observation> {
        let mut agg: std::collections::BTreeMap<Vec<LockDescriptor>, u64> = Default::default();
        for (txn, alloc) in matrix.relevant_units(kind) {
            let ids: Vec<_> = db.txn(txn).locks.iter().map(|h| h.lock).collect();
            *agg.entry(resolve_txn_locks(db, alloc, &ids)).or_default() += 1;
        }
        agg.into_iter()
            .map(|(locks, count)| crate::hypothesis::Observation { locks, count })
            .collect()
    }

    /// The descriptor table agrees with the string resolution on `db`:
    /// every unit resolves to the same sequence, ids rank like their
    /// descriptors, and id-based observation collection equals the string
    /// aggregation with a fresh and with a reused cache.
    fn table_matches_strings(db: &TraceDb) -> Result<(), String> {
        use crate::hypothesis::{observations_for_cached, ResolutionCache};
        use crate::matrix::AccessMatrix;
        use lockdoc_platform::prop_assert_eq;
        use lockdoc_trace::event::AccessKind;
        let table = DescriptorTable::build(db);
        for a in 0..table.descs.len() as u32 {
            for b in 0..table.descs.len() as u32 {
                prop_assert_eq!(
                    a < b,
                    table.descriptor(a) < table.descriptor(b),
                    "rank order of ids {} and {}",
                    a,
                    b
                );
            }
        }
        let mut ids = Vec::new();
        let mut reused = ResolutionCache::new();
        for group in db.observation_groups() {
            for access in db.group_accesses(group) {
                let Some(txn) = access.txn else { continue };
                let locks = db.txn(txn).locks;
                table.resolve_into(access.alloc, locks, &mut ids);
                let lock_ids: Vec<_> = locks.iter().map(|h| h.lock).collect();
                prop_assert_eq!(
                    table.descriptors(&ids),
                    resolve_txn_locks(db, access.alloc, &lock_ids),
                    "unit ({:?}, {:?})",
                    txn,
                    access.alloc
                );
            }
            let matrix = AccessMatrix::build(db, group);
            for member in matrix.observed_members() {
                let mm = matrix.member(member).expect("member is observed");
                for kind in [AccessKind::Read, AccessKind::Write] {
                    let reference = observations_reference(db, mm, kind);
                    let fresh = observations_for_cached(db, mm, kind, &mut ResolutionCache::new());
                    prop_assert_eq!(&fresh, &reference, "fresh cache, member {}", member);
                    let warm = observations_for_cached(db, mm, kind, &mut reused);
                    prop_assert_eq!(&warm, &reference, "reused cache, member {}", member);
                }
            }
        }
        Ok(())
    }

    #[test]
    fn descriptor_table_matches_string_resolution() {
        use lockdoc_platform::prop::{self, vec_of};
        use lockdoc_platform::rng::Rng;
        use lockdoc_trace::filter::FilterConfig;
        use lockdoc_trace::testgen::{build_multiflow_trace, flow_op_gen};
        let filter = FilterConfig::with_defaults();
        let cfg = prop::Config {
            cases: 40,
            ..prop::Config::from_env()
        };
        prop::check_with(
            &cfg,
            "descriptor_table_matches_string_resolution/testgen",
            |rng: &mut Rng| vec_of(rng, 0..400, flow_op_gen),
            |ops| {
                table_matches_strings(&lockdoc_trace::db::import(
                    &build_multiflow_trace(ops),
                    &filter,
                    1,
                ))
            },
        );
        let op = |rng: &mut Rng| {
            (
                rng.gen_range(0u8..4),
                rng.gen_range(0u8..9),
                rng.gen_range(0u8..4),
            )
        };
        prop::check_with(
            &cfg,
            "descriptor_table_matches_string_resolution/embedded",
            |rng: &mut Rng| vec_of(rng, 0..300, op),
            |ops| {
                table_matches_strings(&lockdoc_trace::db::import(&embedded_trace(ops), &filter, 1))
            },
        );
        table_matches_strings(&crate::clock::clock_db(1000, 3)).unwrap();
    }

    #[test]
    fn embedded_locks_rank_es_and_eo_and_merge_equal_names() {
        use lockdoc_trace::filter::FilterConfig;
        let ops: Vec<(u8, u8, u8)> = (0..9).map(|l| (0, l, 0)).collect();
        let db =
            lockdoc_trace::db::import(&embedded_trace(&ops), &FilterConfig::with_defaults(), 1);
        let table = DescriptorTable::build(&db);
        // ES/EO for `lk in node` and `lk in box` (the stray `lk` of node 1
        // merges into `lk in node`), the global and three pseudo-locks.
        assert_eq!(table.descs.len(), 8);
        for d in [
            LockDescriptor::es("lk", "node"),
            LockDescriptor::eo("lk", "node"),
            LockDescriptor::es("lk", "box"),
            LockDescriptor::eo("lk", "box"),
            LockDescriptor::global("glob"),
            LockDescriptor::rcu(),
        ] {
            let id = table.id_of(&d).expect("descriptor in table");
            assert_eq!(table.descriptor(id), &d);
        }
        assert_eq!(table.id_of(&LockDescriptor::global("absent")), None);
    }

    #[test]
    fn descriptor_ordering_is_total() {
        let mut v = vec![
            LockDescriptor::pseudo("rcu"),
            LockDescriptor::global("a"),
            LockDescriptor::es("m", "t"),
        ];
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 3);
    }
}
