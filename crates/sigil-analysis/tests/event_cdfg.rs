//! Property tests: on random Call/Compute/Transfer streams, the event
//! CDFG's inclusive table matches the box-membership definition of the
//! paper's Figure 2, computed naively here, and its breakeven trim
//! returns well-formed candidates.
//!
//! The streams reference undeclared calls, re-enter contexts under new
//! parents and carry saturating values, so the trees they build are
//! forests with orphan nodes, not only well-nested calltrees.

use proptest::prelude::*;
use sigil_analysis::{BusModel, EventCdfg};
use sigil_callgrind::ContextId;
use sigil_core::EventRecord;
use sigil_trace::CallNumber;

fn record_strategy() -> impl Strategy<Value = EventRecord> {
    (0u8..3, 0u64..12, 0u64..12, 0u32..9, 0u64..5000, 0u8..10).prop_map(
        |(kind, a, b, ctx, value, huge)| {
            let value = if huge == 0 { u64::MAX } else { value };
            match kind {
                0 => EventRecord::Call {
                    parent_call: CallNumber::from_raw(a),
                    call: CallNumber::from_raw(b + 1),
                    ctx: ContextId(ctx),
                },
                1 => EventRecord::Compute {
                    call: CallNumber::from_raw(a),
                    ctx: ContextId(ctx),
                    ops: value,
                },
                _ => EventRecord::Transfer {
                    from_call: CallNumber::from_raw(a),
                    to_call: CallNumber::from_raw(b),
                    bytes: value,
                },
            }
        },
    )
}

/// Whether `ctx` lies in the box around `root`'s sub-tree.
fn in_box(cdfg: &EventCdfg, ctx: ContextId, root: ContextId) -> bool {
    let mut cursor = Some(ctx);
    for _ in 0..=cdfg.len() {
        match cursor {
            Some(c) if c == root => return true,
            Some(c) => cursor = cdfg.node(c).and_then(|n| n.parent),
            None => return false,
        }
    }
    false
}

proptest! {
    #[test]
    fn inclusive_matches_box_membership(records in prop::collection::vec(record_strategy(), 0..80)) {
        let cdfg = EventCdfg::from_records(&records);
        let inclusive = cdfg.inclusive();
        prop_assert_eq!(inclusive.len(), cdfg.len());
        for root in cdfg.nodes().map(|n| n.ctx) {
            let ops = cdfg
                .nodes()
                .filter(|n| in_box(&cdfg, n.ctx, root))
                .fold(0u64, |sum, n| sum.saturating_add(n.ops));
            let (mut in_bytes, mut out_bytes) = (0u64, 0u64);
            for edge in cdfg.edges() {
                let producer_in = in_box(&cdfg, edge.producer, root);
                let consumer_in = in_box(&cdfg, edge.consumer, root);
                if consumer_in && !producer_in {
                    in_bytes = in_bytes.saturating_add(edge.bytes);
                }
                if producer_in && !consumer_in {
                    out_bytes = out_bytes.saturating_add(edge.bytes);
                }
            }
            let inc = inclusive[&root];
            prop_assert_eq!((inc.ops, inc.in_bytes, inc.out_bytes), (ops, in_bytes, out_bytes));
        }
    }

    #[test]
    fn trim_returns_disjoint_sorted_finite_candidates(
        records in prop::collection::vec(record_strategy(), 0..80),
        min_ops in 0u64..3000,
    ) {
        let cdfg = EventCdfg::from_records(&records);
        let candidates = cdfg.trim(&BusModel::soc_default(), min_ops);
        let entries = cdfg.node(ContextId::ROOT).map_or(&[][..], |n| &n.children[..]);
        for c in &candidates {
            prop_assert!(c.breakeven.is_finite() && c.breakeven >= 1.0);
            prop_assert!(c.inclusive_ops >= min_ops.max(1));
            prop_assert!(!entries.contains(&c.ctx), "the entry is never a candidate");
        }
        for pair in candidates.windows(2) {
            prop_assert!(pair[0].breakeven <= pair[1].breakeven);
        }
        for (i, a) in candidates.iter().enumerate() {
            for b in &candidates[i + 1..] {
                prop_assert!(!in_box(&cdfg, a.ctx, b.ctx) && !in_box(&cdfg, b.ctx, a.ctx));
            }
        }
    }
}
