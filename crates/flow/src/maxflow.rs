//! Dinic's maximum-flow algorithm on weighted directed networks.
//!
//! The primitive underlying every flow-based partitioner in this
//! reproduction (MQI, FlowImprove). Capacities are `f64` because the
//! MQI/FlowImprove reductions scale edge weights by volumes; a small
//! epsilon guards augmenting-path searches against floating-point
//! residue.

use crate::{FlowError, Result};
use acir_runtime::{Certificate, DivergenceCause, Exhaustion, KernelCtx, SolverOutcome};

/// Residual capacities below this are treated as zero.
const EPS: f64 = 1e-9;

/// A directed flow network with adjacency-list residual arcs.
#[derive(Debug, Clone)]
pub struct FlowNetwork {
    // Arc arrays: to[i], cap[i] (residual); arcs stored in pairs, arc
    // i ^ 1 is the reverse of arc i.
    to: Vec<u32>,
    cap: Vec<f64>,
    head: Vec<Vec<u32>>, // arc indices per node
}

/// Outcome of a max-flow computation.
#[derive(Debug, Clone)]
pub struct MaxFlowResult {
    /// Value of the maximum flow (= capacity of the minimum cut).
    pub value: f64,
    /// Nodes on the source side of a minimum cut (reachable from the
    /// source in the final residual network), as a boolean mask.
    pub source_side: Vec<bool>,
}

/// How a flow core loop stopped (shared by Dinic and push–relabel).
pub(crate) enum FlowExit {
    Done,
    Exhausted { exhausted: Exhaustion, upper: f64 },
    Diverged(DivergenceCause),
}

impl FlowNetwork {
    /// Network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        Self {
            to: Vec::new(),
            cap: Vec::new(),
            head: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.head.len()
    }

    /// Add a directed arc `u → v` with capacity `cap` (and a 0-capacity
    /// reverse arc). Errors on bad endpoints or negative/non-finite
    /// capacity.
    pub fn add_arc(&mut self, u: usize, v: usize, cap: f64) -> Result<()> {
        self.add_arc_pair(u, v, cap, 0.0)
    }

    /// Add an undirected edge (equal capacity in both directions).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64) -> Result<()> {
        self.add_arc_pair(u, v, cap, cap)
    }

    fn add_arc_pair(&mut self, u: usize, v: usize, cap_fwd: f64, cap_bwd: f64) -> Result<()> {
        let n = self.n();
        if u >= n || v >= n {
            return Err(FlowError::InvalidArgument(format!(
                "arc ({u},{v}) out of range for {n} nodes"
            )));
        }
        if !(cap_fwd.is_finite() && cap_fwd >= 0.0 && cap_bwd.is_finite() && cap_bwd >= 0.0) {
            return Err(FlowError::InvalidArgument(format!(
                "capacities must be finite and nonnegative, got {cap_fwd}/{cap_bwd}"
            )));
        }
        let i = self.to.len() as u32;
        self.to.push(v as u32);
        self.cap.push(cap_fwd);
        self.to.push(u as u32);
        self.cap.push(cap_bwd);
        self.head[u].push(i);
        self.head[v].push(i + 1);
        Ok(())
    }

    /// Compute the maximum `s → t` flow with Dinic's algorithm.
    ///
    /// Mutates residual capacities (call on a clone to preserve the
    /// network). Errors if `s == t` or endpoints are out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> Result<MaxFlowResult> {
        let mut ctx = KernelCtx::new();
        match self.max_flow_ctx(s, t, &mut ctx)? {
            SolverOutcome::Converged { value, .. } => Ok(value),
            _ => unreachable!("an inert context can neither exhaust nor diverge"),
        }
    }

    /// Run the Dinic phase loop under `ctx`; returns the routed flow
    /// value, the exit condition, and the witnessed trivial upper bound.
    fn max_flow_core(
        &mut self,
        s: usize,
        t: usize,
        ctx: &mut KernelCtx,
    ) -> Result<(f64, FlowExit)> {
        let n = self.n();
        if s >= n || t >= n {
            return Err(FlowError::InvalidArgument("endpoint out of range".into()));
        }
        if s == t {
            return Err(FlowError::InvalidArgument("source equals sink".into()));
        }
        // Witnessed trivial cuts on the *original* capacities, taken
        // before any augmentation: ({s}, rest) and (rest, {t}).
        let out_s: f64 = self.head[s].iter().map(|&ai| self.cap[ai as usize]).sum();
        let in_t: f64 = self.head[t]
            .iter()
            .map(|&ai| self.cap[(ai ^ 1) as usize])
            .sum();
        let upper = out_s.min(in_t);

        let mut total = 0.0;
        let mut phases = 0usize;
        let mut level = vec![-1i32; n];
        let mut iter = vec![0usize; n];
        let exit;
        // CORE LOOP
        loop {
            ctx.tick_iter();
            ctx.add_work(self.to.len() as u64);
            if let Some(exhausted) = ctx.check_budget() {
                ctx.note_with(|| {
                    format!(
                        "{exhausted} after {phases} blocking-flow phases; returning feasible partial flow"
                    )
                });
                exit = FlowExit::Exhausted { exhausted, upper };
                break;
            }
            // BFS to build the level graph.
            level.fill(-1);
            level[s] = 0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &ai in &self.head[u] {
                    let v = self.to[ai as usize] as usize;
                    if self.cap[ai as usize] > EPS && level[v] < 0 {
                        level[v] = level[u] + 1;
                        queue.push_back(v);
                    }
                }
            }
            if level[t] < 0 {
                ctx.note_with(|| format!("maximum flow reached after {phases} phases"));
                exit = FlowExit::Done;
                break;
            }
            // Blocking flow via iterative DFS with arc cursors.
            iter.fill(0);
            loop {
                let pushed = self.dfs_push(s, t, f64::INFINITY, &level, &mut iter);
                if pushed <= EPS {
                    break;
                }
                total += pushed;
            }
            phases += 1;
            if ctx.is_guarded() && !total.is_finite() {
                exit = FlowExit::Diverged(DivergenceCause::NonFiniteIterate { at_iter: phases });
                break;
            }
            ctx.push_residual((upper - total).max(0.0));
        }
        Ok((total, exit))
    }

    /// [`max_flow`](Self::max_flow) under an explicit [`KernelCtx`]: the
    /// same phase loop with metering, guarding, and tracing routed
    /// through the context. An inert context reproduces
    /// [`max_flow`](Self::max_flow) exactly.
    ///
    /// A metered context charges each Dinic blocking-flow phase one
    /// budget iteration and one arc sweep of work units. On exhaustion
    /// the flow routed so far is returned as a certified partial answer:
    /// it is feasible — hence a lower bound on the maximum — and the
    /// witnessed trivial cut `min(cap out of s, cap into t)` bounds the
    /// maximum from above, giving a [`Certificate::FlowGap`]. Under a
    /// guard (consulted only for the running-total finiteness check
    /// after each phase), a non-finite total (corrupted capacities
    /// slipped past construction) halts the run as
    /// [`SolverOutcome::Diverged`] rather than returning a poisoned flow.
    pub fn max_flow_ctx(
        &mut self,
        s: usize,
        t: usize,
        ctx: &mut KernelCtx,
    ) -> Result<SolverOutcome<MaxFlowResult>> {
        let (total, exit) = self.max_flow_core(s, t, ctx)?;
        let diags = ctx.finish();
        Ok(match exit {
            FlowExit::Done => SolverOutcome::converged(
                MaxFlowResult {
                    value: total,
                    source_side: self.residual_reachable(s),
                },
                diags,
            ),
            FlowExit::Exhausted { exhausted, upper } => SolverOutcome::exhausted(
                MaxFlowResult {
                    value: total,
                    source_side: self.residual_reachable(s),
                },
                exhausted,
                Certificate::FlowGap {
                    value: total,
                    upper_bound: upper,
                },
                diags,
            ),
            FlowExit::Diverged(cause) => SolverOutcome::diverged(cause, diags),
        })
    }

    /// Nodes reachable from `s` in the current residual network (the
    /// source side of a min cut once the flow is maximum).
    fn residual_reachable(&self, s: usize) -> Vec<bool> {
        let mut side = vec![false; self.n()];
        side[s] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &ai in &self.head[u] {
                let v = self.to[ai as usize] as usize;
                if self.cap[ai as usize] > EPS && !side[v] {
                    side[v] = true;
                    queue.push_back(v);
                }
            }
        }
        side
    }

    /// DFS from `u` pushing at most `limit` flow toward `t` along the
    /// level graph; returns the amount pushed.
    fn dfs_push(
        &mut self,
        u: usize,
        t: usize,
        limit: f64,
        level: &[i32],
        iter: &mut [usize],
    ) -> f64 {
        if u == t {
            return limit;
        }
        while iter[u] < self.head[u].len() {
            let ai = self.head[u][iter[u]] as usize;
            let v = self.to[ai] as usize;
            if self.cap[ai] > EPS && level[v] == level[u] + 1 {
                let pushed = self.dfs_push(v, t, limit.min(self.cap[ai]), level, iter);
                if pushed > EPS {
                    self.cap[ai] -= pushed;
                    self.cap[ai ^ 1] += pushed;
                    return pushed;
                }
            }
            iter[u] += 1;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acir_runtime::{Budget, GuardConfig};

    /// A metered context with the contamination guard.
    fn budgeted(budget: &Budget) -> KernelCtx {
        KernelCtx::budgeted("flow.dinic", budget).with_guard(GuardConfig::contamination_only())
    }

    #[test]
    fn single_arc() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 3.5).unwrap();
        let r = net.max_flow(0, 1).unwrap();
        assert!((r.value - 3.5).abs() < 1e-9);
        assert!(r.source_side[0]);
        assert!(!r.source_side[1]);
    }

    #[test]
    fn series_takes_minimum() {
        let mut net = FlowNetwork::new(3);
        net.add_arc(0, 1, 5.0).unwrap();
        net.add_arc(1, 2, 2.0).unwrap();
        let r = net.max_flow(0, 2).unwrap();
        assert!((r.value - 2.0).abs() < 1e-9);
        // Min cut is the 1→2 arc: source side = {0, 1}.
        assert_eq!(r.source_side, vec![true, true, false]);
    }

    #[test]
    fn parallel_adds() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 1.0).unwrap();
        net.add_arc(0, 1, 2.5).unwrap();
        let r = net.max_flow(0, 1).unwrap();
        assert!((r.value - 3.5).abs() < 1e-9);
    }

    #[test]
    fn classic_diamond() {
        // s=0, t=3; 0→1 (3), 0→2 (2), 1→2 (1), 1→3 (2), 2→3 (3): max flow 5.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3.0).unwrap();
        net.add_arc(0, 2, 2.0).unwrap();
        net.add_arc(1, 2, 1.0).unwrap();
        net.add_arc(1, 3, 2.0).unwrap();
        net.add_arc(2, 3, 3.0).unwrap();
        let r = net.max_flow(0, 3).unwrap();
        assert!((r.value - 5.0).abs() < 1e-9);
    }

    #[test]
    fn undirected_edges_carry_flow_both_ways() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.0).unwrap();
        net.add_edge(1, 2, 1.0).unwrap();
        let r = net.max_flow(2, 0).unwrap();
        assert!((r.value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_zero_flow() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 1.0).unwrap();
        net.add_arc(2, 3, 1.0).unwrap();
        let r = net.max_flow(0, 3).unwrap();
        assert_eq!(r.value, 0.0);
        assert!(r.source_side[0] && r.source_side[1]);
        assert!(!r.source_side[2] && !r.source_side[3]);
    }

    #[test]
    fn min_cut_capacity_equals_flow_value() {
        // Max-flow min-cut duality on a random-ish fixed network.
        let mut net = FlowNetwork::new(6);
        let arcs = [
            (0, 1, 7.0),
            (0, 2, 4.0),
            (1, 3, 5.0),
            (2, 3, 3.0),
            (1, 4, 3.0),
            (2, 4, 2.0),
            (3, 5, 8.0),
            (4, 5, 5.0),
            (3, 4, 2.0),
        ];
        for &(u, v, c) in &arcs {
            net.add_arc(u, v, c).unwrap();
        }
        let orig = net.clone();
        let r = net.max_flow(0, 5).unwrap();
        // Recompute the cut capacity across the reported partition on
        // the *original* capacities.
        let mut cut = 0.0;
        for u in 0..6 {
            if !r.source_side[u] {
                continue;
            }
            for &ai in &orig.head[u] {
                let ai = ai as usize;
                // Only forward arcs (even indices) hold original capacity.
                if ai % 2 == 0 {
                    let v = orig.to[ai] as usize;
                    if !r.source_side[v] {
                        cut += orig.cap[ai];
                    }
                }
            }
        }
        assert!(
            (cut - r.value).abs() < 1e-9,
            "cut {cut} vs flow {}",
            r.value
        );
    }

    #[test]
    fn bottleneck_in_grid() {
        // Two triangles joined by one unit edge: flow across = 1.
        let mut net = FlowNetwork::new(6);
        for &(u, v) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            net.add_edge(u, v, 1.0).unwrap();
        }
        net.add_edge(2, 3, 1.0).unwrap();
        let r = net.max_flow(0, 5).unwrap();
        assert!((r.value - 1.0).abs() < 1e-9);
        assert_eq!(r.source_side, vec![true, true, true, false, false, false]);
    }

    #[test]
    fn validation() {
        let mut net = FlowNetwork::new(2);
        assert!(net.add_arc(0, 5, 1.0).is_err());
        assert!(net.add_arc(0, 1, -1.0).is_err());
        assert!(net.add_arc(0, 1, f64::NAN).is_err());
        net.add_arc(0, 1, 1.0).unwrap();
        assert!(net.max_flow(0, 0).is_err());
        assert!(net.max_flow(0, 9).is_err());
    }

    #[test]
    fn budgeted_unlimited_matches_plain() {
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3.0).unwrap();
        net.add_arc(0, 2, 2.0).unwrap();
        net.add_arc(1, 2, 1.0).unwrap();
        net.add_arc(1, 3, 2.0).unwrap();
        net.add_arc(2, 3, 3.0).unwrap();
        let mut plain = net.clone();
        let out = net
            .max_flow_ctx(0, 3, &mut budgeted(&Budget::unlimited()))
            .unwrap();
        assert!(out.is_converged());
        let r = out.value().unwrap();
        let p = plain.max_flow(0, 3).unwrap();
        assert!((r.value - p.value).abs() < 1e-9);
        assert_eq!(r.source_side, p.source_side);
        assert!(!out.diagnostics().events.is_empty());
    }

    #[test]
    fn budgeted_exhaustion_brackets_true_max_flow() {
        // The diamond needs two Dinic phases (flow 4, then the length-3
        // augmenting path worth 1 more). Allow only one.
        let mut net = FlowNetwork::new(4);
        net.add_arc(0, 1, 3.0).unwrap();
        net.add_arc(0, 2, 2.0).unwrap();
        net.add_arc(1, 2, 1.0).unwrap();
        net.add_arc(1, 3, 2.0).unwrap();
        net.add_arc(2, 3, 3.0).unwrap();
        let out = net
            .max_flow_ctx(0, 3, &mut budgeted(&Budget::iterations(2)))
            .unwrap();
        assert!(!out.is_converged() && out.is_usable());
        let (lo, hi) = match out.certificate() {
            Some(&Certificate::FlowGap { value, upper_bound }) => (value, upper_bound),
            c => panic!("wrong certificate {c:?}"),
        };
        // True max flow is 5; the certificate must bracket it from
        // below by the feasible partial and from above by the cut.
        assert!((lo - 4.0).abs() < 1e-9, "partial flow {lo}");
        assert!(lo <= 5.0 + 1e-9 && 5.0 <= hi + 1e-9, "[{lo}, {hi}]");
        assert!((out.value().unwrap().value - lo).abs() < 1e-12);
        assert!(!out.diagnostics().events.is_empty());
    }

    #[test]
    fn zero_capacity_arcs_are_inert() {
        let mut net = FlowNetwork::new(2);
        net.add_arc(0, 1, 0.0).unwrap();
        let r = net.max_flow(0, 1).unwrap();
        assert_eq!(r.value, 0.0);
    }
}
