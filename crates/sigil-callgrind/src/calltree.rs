//! The context-sensitive calltree.

use std::fmt;

use serde::{Deserialize, Serialize};
use sigil_trace::{FunctionId, SymbolTable};

use crate::costs::CostVec;

/// Identifier of a *function context*: one node of the calltree,
/// i.e. a function reached through a particular call path.
///
/// "We keep separate accounting of costs for functions called through
/// different contexts" (IISWC'13 §III) — the paper's Fig. 2 splits
/// function `D` into `D1`/`D2` this way.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ContextId(pub u32);

impl ContextId {
    /// The synthetic root context (above `main`).
    pub const ROOT: ContextId = ContextId(0);

    /// Table index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ContextId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ctx#{}", self.0)
    }
}

/// One calltree node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextNode {
    /// The function this context executes; `None` only for the root.
    pub func: Option<FunctionId>,
    /// Parent context; `None` only for the root.
    pub parent: Option<ContextId>,
    /// Child contexts, in first-call order.
    pub children: Vec<ContextId>,
    /// Dynamic calls that entered this context.
    pub calls: u64,
    /// Exclusive (self) costs accumulated while this context was on top
    /// of the stack.
    pub costs: CostVec,
    /// Whether this context is an opaque operating-system call rather
    /// than an instrumented function.
    pub is_syscall: bool,
}

/// A calltree with per-context exclusive costs and an *enter/leave*
/// cursor maintained by the profiler.
///
/// Self-recursive calls fold into their own context (so `calls` counts
/// them but the context set stays finite); beyond
/// [`CallTree::MAX_DEPTH`] all further calls fold into the current
/// context as a safety valve.
///
/// Multi-threaded traces keep one cursor stack per thread
/// ([`CallTree::switch_thread`]); all threads share the single context
/// tree, so a function reached through the same path on two threads is
/// one context. Cursor state is transient and not serialized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CallTree {
    nodes: Vec<ContextNode>,
    #[serde(skip)]
    stack: Vec<ContextId>,
    #[serde(skip)]
    parked_stacks: std::collections::HashMap<u32, Vec<ContextId>>,
    #[serde(skip)]
    current_thread: u32,
}

impl CallTree {
    /// Context-depth safety cap.
    pub const MAX_DEPTH: usize = 512;

    /// Creates a tree holding only the root context.
    pub fn new() -> Self {
        CallTree {
            nodes: vec![ContextNode {
                func: None,
                parent: None,
                children: Vec::new(),
                calls: 0,
                costs: CostVec::new(),
                is_syscall: false,
            }],
            stack: Vec::new(),
            parked_stacks: std::collections::HashMap::new(),
            current_thread: 0,
        }
    }

    /// Switches the cursor to `thread`'s call stack (creating an empty
    /// one for a previously unseen thread). A no-op when `thread` is
    /// already current.
    pub fn switch_thread(&mut self, thread: u32) {
        if thread == self.current_thread {
            return;
        }
        let previous = std::mem::take(&mut self.stack);
        self.parked_stacks.insert(self.current_thread, previous);
        self.stack = self.parked_stacks.remove(&thread).unwrap_or_default();
        self.current_thread = thread;
    }

    /// The context currently on top of the cursor stack (root if empty).
    pub fn current(&self) -> ContextId {
        self.stack.last().copied().unwrap_or(ContextId::ROOT)
    }

    /// Current call depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Enters `func` from the current context, creating a child context
    /// on first visit. Returns the entered context.
    pub fn enter(&mut self, func: FunctionId) -> ContextId {
        self.enter_with(func, false)
    }

    /// Enters an opaque system-call context named `func`.
    pub fn enter_syscall(&mut self, func: FunctionId) -> ContextId {
        self.enter_with(func, true)
    }

    fn enter_with(&mut self, func: FunctionId, is_syscall: bool) -> ContextId {
        let cur = self.current();
        let ctx = if self.stack.len() >= Self::MAX_DEPTH {
            cur
        } else if self.nodes[cur.index()].func == Some(func) {
            // Fold direct self-recursion into the same context.
            cur
        } else if let Some(&child) = self.nodes[cur.index()]
            .children
            .iter()
            .find(|&&c| self.nodes[c.index()].func == Some(func))
        {
            child
        } else {
            let id = ContextId(u32::try_from(self.nodes.len()).expect("context count fits u32"));
            self.nodes.push(ContextNode {
                func: Some(func),
                parent: Some(cur),
                children: Vec::new(),
                calls: 0,
                costs: CostVec::new(),
                is_syscall,
            });
            self.nodes[cur.index()].children.push(id);
            id
        };
        self.nodes[ctx.index()].calls += 1;
        self.stack.push(ctx);
        ctx
    }

    /// Leaves the current context (no-op at the root).
    pub fn leave(&mut self) {
        self.stack.pop();
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn node(&self, ctx: ContextId) -> &ContextNode {
        &self.nodes[ctx.index()]
    }

    /// Mutable cost access for the current context.
    pub fn current_costs_mut(&mut self) -> &mut CostVec {
        let cur = self.current();
        &mut self.nodes[cur.index()].costs
    }

    /// Mutable cost access for an arbitrary context.
    ///
    /// # Panics
    ///
    /// Panics if `ctx` is out of range.
    pub fn costs_mut(&mut self, ctx: ContextId) -> &mut CostVec {
        &mut self.nodes[ctx.index()].costs
    }

    /// Number of contexts, including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree holds only the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Iterates over every `(id, node)` pair, root first.
    pub fn iter(&self) -> impl Iterator<Item = (ContextId, &ContextNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| {
            (
                ContextId(u32::try_from(i).expect("context count fits u32")),
                n,
            )
        })
    }

    /// The call-path label of `ctx`, e.g. `main->A->D`.
    pub fn path_label(&self, ctx: ContextId, symbols: &SymbolTable) -> String {
        let mut parts = Vec::new();
        let mut cursor = Some(ctx);
        while let Some(c) = cursor {
            let node = self.node(c);
            if let Some(f) = node.func {
                parts.push(
                    symbols
                        .get_name(f)
                        .map_or_else(|| f.to_string(), str::to_owned),
                );
            }
            cursor = node.parent;
        }
        parts.reverse();
        if parts.is_empty() {
            "<root>".to_owned()
        } else {
            parts.join("->")
        }
    }
}

/// Equality compares the persistent tree only — cursor state (stack,
/// parked per-thread stacks, current thread) is transient replay
/// machinery that `serde` already skips, so two trees are equal exactly
/// when their serialized forms are.
impl PartialEq for CallTree {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
    }
}

impl Eq for CallTree {}

impl Default for CallTree {
    fn default() -> Self {
        CallTree::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(raw: u32) -> FunctionId {
        FunctionId::from_raw(raw)
    }

    #[test]
    fn same_path_reuses_context() {
        let mut tree = CallTree::new();
        let a1 = tree.enter(fid(0));
        tree.leave();
        let a2 = tree.enter(fid(0));
        tree.leave();
        assert_eq!(a1, a2);
        assert_eq!(tree.node(a1).calls, 2);
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn different_paths_create_distinct_contexts() {
        // D called from B and from C gets two contexts (paper's D1/D2).
        let mut tree = CallTree::new();
        tree.enter(fid(0)); // main
        tree.enter(fid(1)); // B
        let d1 = tree.enter(fid(3)); // D via B
        tree.leave();
        tree.leave();
        tree.enter(fid(2)); // C
        let d2 = tree.enter(fid(3)); // D via C
        assert_ne!(d1, d2);
        assert_eq!(tree.node(d1).func, tree.node(d2).func);
    }

    #[test]
    fn self_recursion_folds() {
        let mut tree = CallTree::new();
        let a = tree.enter(fid(0));
        let a_again = tree.enter(fid(0));
        assert_eq!(a, a_again);
        assert_eq!(tree.node(a).calls, 2);
        assert_eq!(tree.depth(), 2);
        tree.leave();
        tree.leave();
        assert_eq!(tree.depth(), 0);
    }

    #[test]
    fn costs_attribute_to_current_context() {
        let mut tree = CallTree::new();
        let a = tree.enter(fid(0));
        tree.current_costs_mut().ir += 5;
        let b = tree.enter(fid(1));
        tree.current_costs_mut().ir += 7;
        tree.leave();
        tree.current_costs_mut().ir += 1;
        tree.leave();
        assert_eq!(tree.node(a).costs.ir, 6);
        assert_eq!(tree.node(b).costs.ir, 7);
    }

    #[test]
    fn path_label_renders_chain() {
        let mut symbols = SymbolTable::new();
        let main = symbols.intern("main");
        let a = symbols.intern("A");
        let mut tree = CallTree::new();
        tree.enter(main);
        let ctx = tree.enter(a);
        assert_eq!(tree.path_label(ctx, &symbols), "main->A");
        assert_eq!(tree.path_label(ContextId::ROOT, &symbols), "<root>");
    }

    #[test]
    fn depth_cap_folds_into_current() {
        let mut tree = CallTree::new();
        for i in 0..(CallTree::MAX_DEPTH + 10) {
            // Alternate two functions so self-recursion folding doesn't kick in.
            tree.enter(fid((i % 2) as u32));
        }
        assert!(tree.len() <= CallTree::MAX_DEPTH + 2);
        assert_eq!(tree.depth(), CallTree::MAX_DEPTH + 10);
    }

    #[test]
    fn leave_at_root_is_noop() {
        let mut tree = CallTree::new();
        tree.leave();
        assert_eq!(tree.current(), ContextId::ROOT);
    }
}
