//! Random multi-flow traces for property tests.
//!
//! A [`FlowOp`] list is a tiny abstract program: task switches, interrupt
//! contexts, allocation churn (including adversarial double frees and
//! overlapping allocs), function frames, lock operations and member
//! accesses. [`build_multiflow_trace`] turns it into a [`Trace`] *without*
//! sanitizing, so importers and analyses see malformed input too.
//!
//! The three allocation slots belong to three observation groups — `obj`,
//! `obj:sub` and `pair` — and the two static locks have distinct names, so
//! group-sharded passes and lockset intersections have real work to do.
//! Generate op lists with [`flow_op_gen`] under
//! [`lockdoc_platform::prop::vec_of`].

use crate::event::{
    AccessKind, AcquireMode, ContextKind, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc,
    Trace,
};
use crate::ids::{AllocId, FnId, TaskId};
use lockdoc_platform::prop::Shrink;
use lockdoc_platform::rng::Rng;

/// One step of a generated multi-flow program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlowOp {
    /// Switch to task `0..3`.
    Switch(u8),
    /// Enter an interrupt context (`true` = hardirq, else softirq).
    IrqEnter(bool),
    /// Leave an interrupt context (`true` = hardirq, else softirq).
    IrqExit(bool),
    /// Acquire static lock `0..2`.
    Lock(u8),
    /// Release static lock `0..2`.
    Unlock(u8),
    /// Allocate slot `0..3` (a fresh allocation id each time).
    Alloc(u8),
    /// Free allocation id `1 + n` for `n` in `0..3`, whichever slot it
    /// landed on; repeats become double frees.
    Free(u8),
    /// Access `(slot 0..3, member 0..2, is_write)`.
    Access(u8, u8, bool),
    /// Enter function `0..3`.
    FnEnter(u8),
    /// Leave function `0..3`.
    FnExit(u8),
}

impl Shrink for FlowOp {}

/// Draws one [`FlowOp`], uniformly over the op kinds.
pub fn flow_op_gen(rng: &mut Rng) -> FlowOp {
    match rng.gen_range(0u8..10) {
        0 => FlowOp::Switch(rng.gen_range(0u8..3)),
        1 => FlowOp::IrqEnter(rng.gen_bool(0.5)),
        2 => FlowOp::IrqExit(rng.gen_bool(0.5)),
        3 => FlowOp::Lock(rng.gen_range(0u8..2)),
        4 => FlowOp::Unlock(rng.gen_range(0u8..2)),
        5 => FlowOp::Alloc(rng.gen_range(0u8..3)),
        6 => FlowOp::Free(rng.gen_range(0u8..3)),
        7 => FlowOp::FnEnter(rng.gen_range(0u8..3)),
        8 => FlowOp::FnExit(rng.gen_range(0u8..3)),
        _ => FlowOp::Access(
            rng.gen_range(0u8..3),
            rng.gen_range(0u8..2),
            rng.gen_bool(0.5),
        ),
    }
}

fn two_member_type(name: &str) -> DataTypeDef {
    let member = |name: &str, offset| MemberDef {
        name: name.into(),
        offset,
        size: 8,
        atomic: false,
        is_lock: false,
    };
    DataTypeDef {
        name: name.into(),
        size: 16,
        members: vec![member("m0", 0), member("m1", 8)],
    }
}

/// Builds the trace of `ops`: three tasks `t0..t2` (starting on `t0`),
/// functions `f0..f2`, static spinlocks `lk0`/`lk1`, and slot `s` at
/// address `0x1000 + 0x100 * s`.
pub fn build_multiflow_trace(ops: &[FlowOp]) -> Trace {
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("flow.c");
    let lock_names = [
        tr.meta_mut().strings.intern("lk0"),
        tr.meta_mut().strings.intern("lk1"),
    ];
    let sub = tr.meta_mut().strings.intern("sub");
    let obj = tr.meta_mut().add_data_type(two_member_type("obj"));
    let pair = tr.meta_mut().add_data_type(two_member_type("pair"));
    let slot_group = [(obj, None), (obj, Some(sub)), (pair, None)];
    for t in 0..3 {
        tr.meta_mut().add_task(&format!("t{t}"));
    }
    for f in 0..3 {
        tr.meta_mut().add_function(&format!("f{f}"));
    }
    let loc = SourceLoc::new(file, 7);
    let lock_addr = |l: u8| 0x100 + 0x100 * u64::from(l);
    let slot_addr = |s: u8| 0x1000 + 0x100 * u64::from(s);
    let mut ts = 0u64;
    let mut push = |tr: &mut Trace, e: Event| {
        ts += 1;
        tr.push(ts, e);
    };
    push(&mut tr, Event::TaskSwitch { task: TaskId(0) });
    for (l, &name) in lock_names.iter().enumerate() {
        push(
            &mut tr,
            Event::LockInit {
                addr: lock_addr(l as u8),
                name,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
    }
    let mut next_alloc = 1u64;
    for op in ops {
        let ctx = |h: bool| {
            if h {
                ContextKind::Hardirq
            } else {
                ContextKind::Softirq
            }
        };
        let e = match *op {
            FlowOp::Switch(t) => Event::TaskSwitch {
                task: TaskId(u32::from(t)),
            },
            FlowOp::IrqEnter(h) => Event::ContextEnter { kind: ctx(h) },
            FlowOp::IrqExit(h) => Event::ContextExit { kind: ctx(h) },
            FlowOp::Lock(l) => Event::LockAcquire {
                addr: lock_addr(l),
                mode: AcquireMode::Exclusive,
                loc,
            },
            FlowOp::Unlock(l) => Event::LockRelease {
                addr: lock_addr(l),
                loc,
            },
            FlowOp::Alloc(s) => {
                let id = AllocId(next_alloc);
                next_alloc += 1;
                let (data_type, subclass) = slot_group[usize::from(s)];
                Event::Alloc {
                    id,
                    addr: slot_addr(s),
                    size: 16,
                    data_type,
                    subclass,
                }
            }
            FlowOp::Free(s) => Event::Free {
                id: AllocId(u64::from(s) + 1),
            },
            FlowOp::Access(s, m, w) => Event::MemAccess {
                kind: if w {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                addr: slot_addr(s) + 8 * u64::from(m),
                size: 8,
                loc,
                atomic: false,
            },
            FlowOp::FnEnter(f) => Event::FnEnter {
                func: FnId(u32::from(f)),
            },
            FlowOp::FnExit(f) => Event::FnExit {
                func: FnId(u32::from(f)),
            },
        };
        push(&mut tr, e);
    }
    tr
}
