//! The Callgrind-like profiler observer.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use sigil_trace::{ExecutionObserver, FunctionId, OpClock, RuntimeEvent, SymbolTable, Timestamp};

use crate::branch::BranchPredictor;
use crate::cache::{CacheConfig, CacheHierarchy};
use crate::calltree::{CallTree, ContextId};
use crate::costs::CostVec;
use crate::cycle::CycleModel;

/// Configuration of the Callgrind-like profiler.
#[derive(Debug, Clone, Copy)]
pub struct CallgrindConfig {
    /// Cache geometries to simulate, or `None` to skip cache simulation.
    pub cache: Option<(CacheConfig, CacheConfig)>,
    /// Whether to run the branch predictor.
    pub branch_sim: bool,
    /// Weights for cycle estimation.
    pub cycle_model: CycleModel,
}

impl Default for CallgrindConfig {
    fn default() -> Self {
        CallgrindConfig {
            cache: Some((CacheConfig::l1d_default(), CacheConfig::ll_default())),
            branch_sim: true,
            cycle_model: CycleModel::callgrind_default(),
        }
    }
}

/// An [`ExecutionObserver`] reproducing Callgrind: it maintains the
/// context-sensitive calltree, per-context cost vectors, and on-the-fly
/// cache and branch simulations.
///
/// System calls appear as contexts of their own — their boundary traffic
/// is accounted but, as in the paper, nothing inside them is decomposed
/// further.
#[derive(Debug)]
pub struct CallgrindProfiler {
    tree: CallTree,
    caches: Option<CacheHierarchy>,
    predictor: Option<BranchPredictor>,
    clock: OpClock,
    cycle_model: CycleModel,
}

impl CallgrindProfiler {
    /// Creates a profiler with the given configuration.
    pub fn new(config: CallgrindConfig) -> Self {
        CallgrindProfiler {
            tree: CallTree::new(),
            caches: config.cache.map(|(l1, ll)| CacheHierarchy::new(l1, ll)),
            predictor: config.branch_sim.then(BranchPredictor::new),
            clock: OpClock::new(),
            cycle_model: config.cycle_model,
        }
    }

    /// The context currently executing. Exposed so that the Sigil profiler
    /// can "hook into Callgrind" for context identification.
    pub fn current_context(&self) -> ContextId {
        self.tree.current()
    }

    /// Platform-independent time now (retired ops so far).
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// The calltree built so far.
    pub fn tree(&self) -> &CallTree {
        &self.tree
    }

    /// Consumes the profiler, pairing the calltree with `symbols` into a
    /// queryable profile.
    pub fn into_profile(self, symbols: SymbolTable) -> CallgrindProfile {
        CallgrindProfile {
            tree: self.tree,
            symbols,
            cycle_model: self.cycle_model,
            total_ops: self.clock.now().as_raw(),
        }
    }
}

impl ExecutionObserver for CallgrindProfiler {
    fn on_event(&mut self, event: RuntimeEvent) {
        self.clock.tick(event);
        match event {
            RuntimeEvent::Call { callee } => {
                self.tree.enter(callee);
                self.tree.current_costs_mut().ir += 1;
            }
            RuntimeEvent::Return | RuntimeEvent::SyscallExit => {
                self.tree.current_costs_mut().ir += 1;
                self.tree.leave();
            }
            RuntimeEvent::SyscallEnter { name } => {
                self.tree.enter_syscall(name);
                self.tree.current_costs_mut().ir += 1;
            }
            RuntimeEvent::Read { access } => {
                let (l1m, llm) = self
                    .caches
                    .as_mut()
                    .map_or((0, 0), |caches| caches.access(access));
                let costs = self.tree.current_costs_mut();
                costs.ir += 1;
                costs.reads += 1;
                costs.bytes_read += u64::from(access.size);
                costs.l1_read_misses += l1m;
                costs.ll_read_misses += llm;
            }
            RuntimeEvent::Write { access } => {
                let (l1m, llm) = self
                    .caches
                    .as_mut()
                    .map_or((0, 0), |caches| caches.access(access));
                let costs = self.tree.current_costs_mut();
                costs.ir += 1;
                costs.writes += 1;
                costs.bytes_written += u64::from(access.size);
                costs.l1_write_misses += l1m;
                costs.ll_write_misses += llm;
            }
            RuntimeEvent::Op { class, count } => {
                self.tree.current_costs_mut().add_ops(class, count);
            }
            RuntimeEvent::ThreadSwitch { thread } => {
                // Cursor hop only; the switch itself is not attributed to
                // any function context.
                self.tree.switch_thread(thread.as_raw());
            }
            RuntimeEvent::Branch { site, taken } => {
                let missed = self
                    .predictor
                    .as_mut()
                    .is_some_and(|p| p.predict_and_update(site, taken));
                let costs = self.tree.current_costs_mut();
                costs.ir += 1;
                costs.branches += 1;
                if missed {
                    costs.mispredicts += 1;
                }
            }
        }
    }
}

/// Per-function totals (summed over contexts) within a profile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionRow {
    /// The function.
    pub func: FunctionId,
    /// Its symbol name.
    pub name: String,
    /// Dynamic calls.
    pub calls: u64,
    /// Exclusive costs summed over all of the function's contexts.
    pub costs: CostVec,
    /// Estimated cycles for those costs.
    pub cycles: u64,
}

/// A finished Callgrind-like profile: calltree + symbols + cycle model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallgrindProfile {
    /// The context-sensitive calltree with exclusive costs.
    pub tree: CallTree,
    /// Function names.
    pub symbols: SymbolTable,
    /// The cycle model profiles were estimated with.
    pub cycle_model: CycleModel,
    /// Total retired guest operations (the serial "length" of the run).
    pub total_ops: u64,
}

impl CallgrindProfile {
    /// Per-function exclusive totals, sorted by estimated cycles,
    /// descending.
    pub fn function_totals(&self) -> Vec<FunctionRow> {
        let mut rows: HashMap<FunctionId, FunctionRow> = HashMap::new();
        for (_, node) in self.tree.iter() {
            let Some(func) = node.func else { continue };
            let row = rows.entry(func).or_insert_with(|| FunctionRow {
                func,
                name: self
                    .symbols
                    .get_name(func)
                    .map_or_else(|| func.to_string(), str::to_owned),
                calls: 0,
                costs: CostVec::new(),
                cycles: 0,
            });
            row.calls += node.calls;
            row.costs += node.costs;
        }
        let mut rows: Vec<FunctionRow> = rows
            .into_values()
            .map(|mut row| {
                row.cycles = self.cycle_model.estimate(&row.costs);
                row
            })
            .collect();
        rows.sort_by(|a, b| b.cycles.cmp(&a.cycles).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Whole-program exclusive costs (sum over all contexts).
    pub fn total_costs(&self) -> CostVec {
        self.tree.iter().map(|(_, n)| n.costs).sum()
    }

    /// Whole-program estimated cycles.
    pub fn total_cycles(&self) -> u64 {
        self.cycle_model.estimate(&self.total_costs())
    }

    /// Estimated cycles for one context's exclusive costs.
    pub fn context_cycles(&self, ctx: ContextId) -> u64 {
        self.cycle_model.estimate(&self.tree.node(ctx).costs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sigil_trace::{Engine, OpClass};

    fn profile_toy() -> CallgrindProfile {
        let mut engine = Engine::new(CallgrindProfiler::new(CallgrindConfig::default()));
        let main = engine.symbols_mut().intern("main");
        let work = engine.symbols_mut().intern("work");
        engine.call(main);
        engine.op(OpClass::IntArith, 10);
        engine.scoped(work, |e| {
            e.op(OpClass::FloatArith, 100);
            for i in 0..8 {
                e.write(0x1000 + i * 8, 8);
            }
            for i in 0..8 {
                e.read(0x1000 + i * 8, 8);
            }
        });
        engine.ret();
        let (profiler, symbols) = engine.finish_with_symbols();
        profiler.into_profile(symbols)
    }

    #[test]
    fn function_totals_attribute_costs() {
        let profile = profile_toy();
        let rows = profile.function_totals();
        let work = rows.iter().find(|r| r.name == "work").expect("work row");
        assert_eq!(work.calls, 1);
        assert_eq!(work.costs.flops(), 100);
        assert_eq!(work.costs.writes, 8);
        assert_eq!(work.costs.reads, 8);
        assert_eq!(work.costs.bytes_written, 64);
        let main = rows.iter().find(|r| r.name == "main").expect("main row");
        assert_eq!(main.costs.ops_total(), 10);
        assert_eq!(main.costs.reads, 0);
    }

    #[test]
    fn cache_misses_recorded_for_cold_accesses() {
        let profile = profile_toy();
        let rows = profile.function_totals();
        let work = rows.iter().find(|r| r.name == "work").expect("work row");
        // 8 writes to a single 64-byte line: 1 cold miss; reads then hit.
        assert_eq!(work.costs.l1_write_misses, 1);
        assert_eq!(work.costs.l1_read_misses, 0);
    }

    #[test]
    fn cycles_exceed_ir_when_misses_exist() {
        let profile = profile_toy();
        let total = profile.total_costs();
        assert!(profile.total_cycles() > total.ir);
    }

    #[test]
    fn total_ops_matches_op_clock() {
        let profile = profile_toy();
        // call + 10 ops + (call + 100 ops + 8 writes + 8 reads + ret) + ret
        assert_eq!(profile.total_ops, 1 + 10 + 1 + 100 + 8 + 8 + 1 + 1);
    }

    #[test]
    fn syscalls_get_their_own_context() {
        let mut engine = Engine::new(CallgrindProfiler::new(CallgrindConfig::default()));
        let main = engine.symbols_mut().intern("main");
        engine.call(main);
        engine.syscall("sys_read", |e| e.write(0x9000, 128));
        engine.ret();
        let (profiler, symbols) = engine.finish_with_symbols();
        let profile = profiler.into_profile(symbols);
        let rows = profile.function_totals();
        let sys = rows
            .iter()
            .find(|r| r.name == "sys_read")
            .expect("syscall row");
        assert_eq!(sys.costs.bytes_written, 128);
    }

    #[test]
    fn profiler_without_sims_counts_plain_costs() {
        let config = CallgrindConfig {
            cache: None,
            branch_sim: false,
            ..CallgrindConfig::default()
        };
        let mut engine = Engine::new(CallgrindProfiler::new(config));
        let f = engine.symbols_mut().intern("f");
        engine.call(f);
        engine.read(0x10, 4);
        engine.branch(1, true);
        engine.ret();
        let (profiler, symbols) = engine.finish_with_symbols();
        let profile = profiler.into_profile(symbols);
        let total = profile.total_costs();
        assert_eq!(total.l1_misses(), 0);
        assert_eq!(total.mispredicts, 0);
        assert_eq!(total.branches, 1);
    }
}
