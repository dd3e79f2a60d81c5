//! The calltree algebra of the partitioning rule (paper §II-C1, Fig. 2,
//! Eq. 1), shared by the profile CDFG ([`crate::cdfg::Cdfg`]) and the
//! event CDFG ([`crate::streaming::EventCdfg`]).
//!
//! The rule has three steps: put a box around a sub-tree, charge the data
//! edges that cross the box (edges inside it are dropped), then trim the
//! calltree by breakeven speedup. Both graphs are views of the same
//! calltree, so each step is written once here; the callers keep their own
//! value types and selection rules.
//!
//! Every walk is capped by the node count, so a cyclic tree (possible
//! only in a deserialized, adversarial [`crate::streaming::EventCdfg`])
//! terminates.

use sigil_callgrind::ContextId;

/// A calltree: each node's parent and its children in first-call order.
pub(crate) trait Tree {
    /// Parent of `ctx` (`None` for a root or an unknown context).
    fn parent(&self, ctx: ContextId) -> Option<ContextId>;
    /// Children of `ctx` (empty for a leaf or an unknown context).
    fn children(&self, ctx: ContextId) -> &[ContextId];
    /// Number of nodes: the cap on every walk.
    fn len(&self) -> usize;
}

/// `ctx`, then its parent, grandparent, … up to a root, capped at
/// `len() + 1` nodes.
pub(crate) fn ancestors<T: Tree>(tree: &T, ctx: ContextId) -> impl Iterator<Item = ContextId> + '_ {
    std::iter::successors(Some(ctx), |&c| tree.parent(c)).take(tree.len() + 1)
}

/// Lowest common ancestor of `a` and `b`, or `None` when they share no
/// root (a disconnected event tree).
pub(crate) fn lca<T: Tree>(tree: &T, a: ContextId, b: ContextId) -> Option<ContextId> {
    let (depth_a, depth_b) = (ancestors(tree, a).count(), ancestors(tree, b).count());
    let a_up = ancestors(tree, a).skip(depth_a.saturating_sub(depth_b));
    let b_up = ancestors(tree, b).skip(depth_b.saturating_sub(depth_a));
    a_up.zip(b_up).find(|(x, y)| x == y).map(|(x, _)| x)
}

/// Calls `charge(ctx, into)` for every box the data edge
/// `producer → consumer` crosses: `into = true` for the consumer's
/// ancestors strictly below the LCA (the edge flows into their boxes),
/// then `into = false` for the producer's. With no LCA every ancestor of
/// each side is charged.
pub(crate) fn for_each_crossing<T: Tree>(
    tree: &T,
    producer: ContextId,
    consumer: ContextId,
    mut charge: impl FnMut(ContextId, bool),
) {
    let lca = lca(tree, producer, consumer);
    for (start, into) in [(consumer, true), (producer, false)] {
        for ctx in ancestors(tree, start).take_while(|&c| Some(c) != lca) {
            charge(ctx, into);
        }
    }
}

/// Trims the calltree into accelerator candidates and returns them in
/// tree order.
///
/// A sub-tree is merged into its root when that root's breakeven is at
/// least as good (as low) as the best candidate below it: merging absorbs
/// internal communication, so this maximizes coverage while minimizing
/// crossing traffic. `own_breakeven(ctx)` is the breakeven of merging
/// `ctx`'s whole sub-tree, or `f64::INFINITY` when the caller's rule says
/// `ctx` cannot be a candidate. The program entries (children of
/// [`ContextId::ROOT`]) are never candidates: the paper's candidates are
/// functions *inside* the application, never `main`.
pub(crate) fn trim<T: Tree>(tree: &T, own_breakeven: impl Fn(ContextId) -> f64) -> Vec<ContextId> {
    let mut selected = Vec::new();
    for &entry in tree.children(ContextId::ROOT) {
        trim_subtree(tree, entry, false, &own_breakeven, &mut selected, 0);
    }
    selected
}

/// Pushes the candidates of `ctx`'s sub-tree onto `out` and returns the
/// best breakeven among them (`f64::INFINITY` when there is none).
fn trim_subtree<T: Tree, F: Fn(ContextId) -> f64>(
    tree: &T,
    ctx: ContextId,
    mergeable: bool,
    own_breakeven: &F,
    out: &mut Vec<ContextId>,
    depth: usize,
) -> f64 {
    if depth > tree.len() {
        return f64::INFINITY;
    }
    let own = if mergeable {
        own_breakeven(ctx)
    } else {
        f64::INFINITY
    };
    let children = tree.children(ctx);
    if children.is_empty() {
        if own.is_finite() {
            out.push(ctx);
        }
        return own;
    }
    let mut child_leaves = Vec::new();
    let mut best_child = f64::INFINITY;
    for &child in children {
        let best = trim_subtree(
            tree,
            child,
            true,
            own_breakeven,
            &mut child_leaves,
            depth + 1,
        );
        best_child = best_child.min(best);
    }
    if own.is_finite() && own <= best_child {
        out.push(ctx);
        own
    } else {
        out.append(&mut child_leaves);
        best_child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parent-pointer tree for exercising the walks directly.
    struct Parents(Vec<Option<u32>>, Vec<Vec<ContextId>>);

    impl Parents {
        fn new(parents: &[Option<u32>]) -> Self {
            let mut children = vec![Vec::new(); parents.len()];
            for (i, p) in parents.iter().enumerate() {
                if let Some(p) = p {
                    children[*p as usize].push(ContextId(i as u32));
                }
            }
            Parents(parents.to_vec(), children)
        }
    }

    impl Tree for Parents {
        fn parent(&self, ctx: ContextId) -> Option<ContextId> {
            self.0.get(ctx.index()).copied().flatten().map(ContextId)
        }
        fn children(&self, ctx: ContextId) -> &[ContextId] {
            self.1.get(ctx.index()).map_or(&[], Vec::as_slice)
        }
        fn len(&self) -> usize {
            self.0.len()
        }
    }

    fn c(i: u32) -> ContextId {
        ContextId(i)
    }

    #[test]
    fn lca_basics() {
        // 0 → 1 → {2 → 3, 4}; 5 is a second root.
        let tree = Parents::new(&[None, Some(0), Some(1), Some(2), Some(1), None]);
        assert_eq!(lca(&tree, c(3), c(4)), Some(c(1)));
        assert_eq!(lca(&tree, c(3), c(2)), Some(c(2)));
        assert_eq!(lca(&tree, c(3), c(3)), Some(c(3)));
        assert_eq!(lca(&tree, c(3), c(5)), None);
    }

    #[test]
    fn crossing_stops_below_the_lca_or_charges_every_ancestor() {
        let tree = Parents::new(&[None, Some(0), Some(1), Some(2), Some(1), None]);
        let mut charged = Vec::new();
        for_each_crossing(&tree, c(3), c(4), |ctx, into| charged.push((ctx.0, into)));
        assert_eq!(charged, [(4, true), (3, false), (2, false)]);
        charged.clear();
        for_each_crossing(&tree, c(5), c(2), |ctx, into| charged.push((ctx.0, into)));
        assert_eq!(charged, [(2, true), (1, true), (0, true), (5, false)]);
    }

    #[test]
    fn walks_terminate_on_cycles() {
        // 1 ↔ 2 cycle, 3 → 1, and the root lists 1 as its child.
        let mut tree = Parents::new(&[None, Some(2), Some(1), Some(1)]);
        tree.1[0].push(c(1));
        assert_eq!(ancestors(&tree, c(3)).count(), tree.len() + 1);
        assert_eq!(lca(&tree, c(1), c(2)), None);
        let mut charged = 0;
        for_each_crossing(&tree, c(1), c(2), |_, _| charged += 1);
        assert_eq!(charged, 2 * (tree.len() + 1));
        assert_eq!(trim(&tree, |_| 1.0), [c(2), c(3)]);
    }
}
