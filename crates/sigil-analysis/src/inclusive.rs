//! Inclusive (merged-subtree) costs and crossing communication
//! (paper Figure 2).
//!
//! "An accelerator designed for a function node in the call tree should
//! include all of the functions in the sub-tree to absorb the cost of
//! communication. … Any dashed edges within the box are then discarded
//! and edges flowing in/out of the box are accumulated into the
//! communication cost of the parent node."

use serde::{Deserialize, Serialize};
use sigil_callgrind::{ContextId, CostVec};

use crate::cdfg::Cdfg;
use crate::tree;

/// Costs of a node merged with its entire sub-tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InclusiveCosts {
    /// Sum of exclusive cost vectors over the sub-tree (computation).
    pub costs: CostVec,
    /// Unique bytes flowing *into* the merged box (t_comm:ip input).
    pub comm_in_unique: u64,
    /// Unique bytes flowing *out of* the merged box (t_comm:op input).
    pub comm_out_unique: u64,
    /// Non-unique bytes flowing into the box (not charged to an
    /// accelerator with an internal buffer, reported for completeness).
    pub comm_in_nonunique: u64,
    /// Non-unique bytes flowing out of the box.
    pub comm_out_nonunique: u64,
}

impl InclusiveCosts {
    /// Unique bytes crossing the box boundary in either direction.
    pub fn boundary_unique_bytes(&self) -> u64 {
        self.comm_in_unique + self.comm_out_unique
    }
}

/// Computes [`InclusiveCosts`] for **every** context of the CDFG in one
/// pass, indexed by raw context id.
///
/// For each data edge `p → c`, the edge crosses into exactly the
/// subtrees that contain `c` but not `p`: the ancestors of `c` strictly
/// below the lowest common ancestor of `p` and `c` (and symmetrically out
/// of the ancestors of `p`).
pub fn inclusive_table(cdfg: &Cdfg) -> Vec<InclusiveCosts> {
    let n = cdfg.len();
    let mut table = vec![InclusiveCosts::default(); n];

    // Computation: post-order accumulation of exclusive costs.
    // Process children before parents; contexts are created parent-first,
    // so iterating ids in reverse visits children first.
    for idx in (0..n).rev() {
        let ctx = ContextId(u32::try_from(idx).expect("context count fits u32"));
        let node = cdfg.node(ctx);
        let mut sum = node.costs;
        for &child in &node.children {
            sum += table[child.index()].costs;
        }
        table[idx].costs = sum;
    }

    // Communication: charge each edge to every box it crosses.
    for edge in cdfg.data_edges() {
        tree::for_each_crossing(cdfg, edge.producer, edge.consumer, |ctx, into| {
            let entry = &mut table[ctx.index()];
            if into {
                entry.comm_in_unique += edge.unique_bytes;
                entry.comm_in_nonunique += edge.nonunique_bytes;
            } else {
                entry.comm_out_unique += edge.unique_bytes;
                entry.comm_out_nonunique += edge.nonunique_bytes;
            }
        });
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_core::{SigilConfig, SigilProfiler};
    use sigil_trace::{Engine, OpClass};

    /// The paper's toy shape: main → {A → {C, D1}, B → D2}; C produces
    /// data that D2 (under B) consumes, plus A-local traffic.
    fn toy() -> (Cdfg, Vec<InclusiveCosts>) {
        let mut engine = Engine::new(SigilProfiler::new(SigilConfig::default()));
        engine.scoped_named("main", |e| {
            e.scoped_named("A", |e| {
                e.op(OpClass::IntArith, 10);
                e.scoped_named("C", |e| {
                    e.op(OpClass::IntArith, 20);
                    e.write(0x0, 16); // consumed by D under B (crosses A's box)
                    e.write(0x100, 8); // consumed by D under A (inside A's box)
                });
                e.scoped_named("D", |e| {
                    e.read(0x100, 8);
                    e.op(OpClass::IntArith, 5);
                });
            });
            e.scoped_named("B", |e| {
                e.scoped_named("D", |e| {
                    e.read(0x0, 16);
                    e.op(OpClass::IntArith, 5);
                });
            });
        });
        let (p, s) = engine.finish_with_symbols();
        let profile = p.into_profile(s);
        let cdfg = Cdfg::from_profile(&profile);
        let table = inclusive_table(&cdfg);
        (cdfg, table)
    }

    fn ctx_of(cdfg: &Cdfg, name: &str) -> ContextId {
        cdfg.nodes()
            .iter()
            .find(|n| n.name == name)
            .unwrap_or_else(|| panic!("node {name}"))
            .ctx
    }

    #[test]
    fn merging_discards_internal_edges() {
        let (cdfg, table) = toy();
        let a = ctx_of(&cdfg, "A");
        let inc = table[a.index()];
        // The C→D1 8-byte edge is inside A's box: discarded.
        // The C→D2 16-byte edge crosses out of A's box.
        assert_eq!(inc.comm_out_unique, 16);
        assert_eq!(inc.comm_in_unique, 0);
    }

    #[test]
    fn inclusive_costs_sum_subtree_ops() {
        let (cdfg, table) = toy();
        let a = ctx_of(&cdfg, "A");
        // A self 10 + C 20 + D1 5 = 35 compute ops.
        assert_eq!(table[a.index()].costs.ops_total(), 35);
        assert!(cdfg.node(a).costs.ops_total() < 35);
        // main's sub-tree is the whole program: the root adds no cost of
        // its own, and both sum every node's exclusive costs.
        let mut total = CostVec::default();
        for node in cdfg.nodes() {
            total += node.costs;
        }
        let main = ctx_of(&cdfg, "main");
        assert_eq!(table[main.index()].costs, total);
        assert_eq!(table[ContextId::ROOT.index()].costs, total);
    }

    #[test]
    fn leaf_inclusive_equals_exclusive() {
        let (cdfg, table) = toy();
        let c = ctx_of(&cdfg, "C");
        assert_eq!(table[c.index()].costs, cdfg.node(c).costs);
        // C produces both buffers; all 24 bytes leave C's own box.
        assert_eq!(table[c.index()].comm_out_unique, 24);
    }

    #[test]
    fn consumer_box_counts_inflow() {
        let (cdfg, table) = toy();
        let b = ctx_of(&cdfg, "B");
        assert_eq!(table[b.index()].comm_in_unique, 16);
        assert_eq!(table[b.index()].comm_out_unique, 0);
        assert_eq!(table[b.index()].boundary_unique_bytes(), 16);
    }

    #[test]
    fn root_box_has_no_crossing_traffic() {
        let (_cdfg, table) = toy();
        // Everything is inside the root box except synthetic root input
        // (none here: all reads had producers).
        let root = &table[ContextId::ROOT.index()];
        assert_eq!(root.comm_in_unique, 0);
        assert_eq!(root.comm_out_unique, 0);
    }
}
