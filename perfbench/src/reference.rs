//! Reference values at the default seed (`--seed 0`).
//!
//! They are identity checks, not accuracy figures: the simulator is not
//! validated against hardware, so these values only pin what this
//! commit simulates. A change meant only to speed up the simulator must
//! leave every one of them unchanged. Event counts and state digests
//! are deliberately absent: both fold in the number of events
//! processed, which an engine optimisation may legitimately change.

use crate::workloads::{SimCounts, Workload};

struct Reference {
    cycles: u64,
    ops: u64,
    net_messages: u64,
    /// Protocol messages per class, in `MsgClass::ALL` order: request,
    /// reply, forward, invalidate, update, ack, write-back, NAK.
    msgs: [u64; 8],
}

fn reference(w: Workload) -> Reference {
    match w {
        Workload::Tclosure => Reference {
            cycles: 431_896,
            ops: 1_778_363,
            net_messages: 148_214,
            msgs: [36_357, 36_357, 18_221, 19_529, 0, 19_529, 18_221, 0],
        },
        Workload::Contended => Reference {
            cycles: 24_464_545,
            ops: 892_863,
            net_messages: 2_494_226,
            msgs: [795_239, 795_239, 92_952, 358_922, 0, 358_922, 92_952, 0],
        },
    }
}

/// Checks cycles, operations, network messages and per-class protocol
/// messages against the reference.
pub fn check(w: Workload, c: &SimCounts) -> Result<(), String> {
    let r = reference(w);
    let got = (c.cycles, c.ops, c.net_messages, c.msgs);
    let want = (r.cycles, r.ops, r.net_messages, r.msgs);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{}: (cycles, ops, network messages, messages per class) = {got:?}, reference {want:?}",
            w.name()
        ))
    }
}
